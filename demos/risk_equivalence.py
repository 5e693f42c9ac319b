"""Walk through the three structural identities on a small instance.

1. The pairwise-mixing risk summand equals the shrunk-data-plus-noise summand
   draw by draw (not just in expectation).
2. The perturbation covariances have the stated closed form.
3. Averaging the quadratic Taylor loss splits into the shrunk-data fit plus
   the four penalties.

Run: python demos/risk_equivalence.py
"""

import numpy as np

from mixreg import (
    LossKind,
    init_rff,
    make_two_moons,
    mix_coefficients,
    mixup_risk_mc,
    modify,
    perturbation_covariances,
    perturbed_erm_risk_mc,
    r_terms_general,
    sample_perturbation,
)
from mixreg.losses import loss_value
from mixreg.verification import expected_quadratic_loss

alpha = 1.0
coeffs = mix_coefficients(alpha)
print(f"alpha = {alpha}: theta_bar = {coeffs.theta_bar}, "
      f"sigma^2 = {coeffs.sigma_sq:.6f}, gamma^2 = {coeffs.gamma_sq:.6f}")

ds = make_two_moons(30, 0.05, seed=0)
model = init_rff(2, 200, 5.0, 2, seed=1)
model.w = 0.4 * np.random.default_rng(1).normal(size=model.w.shape)
mod = modify(ds, coeffs.theta_bar)

# --- per-draw identity -----------------------------------------------------
rng = np.random.default_rng(2)
worst = 0.0
for _ in range(2000):
    i = int(rng.integers(ds.n))
    draw = sample_perturbation(ds, coeffs, i, rng)
    lhs = loss_value(
        LossKind.CROSS_ENTROPY,
        draw.theta * ds.outputs[i] + (1 - draw.theta) * ds.outputs[draw.j],
        model.predict(draw.theta * ds.inputs[i] + (1 - draw.theta) * ds.inputs[draw.j]),
    )
    rhs = loss_value(
        LossKind.CROSS_ENTROPY,
        mod.outputs[i] + draw.epsilon,
        model.predict(mod.inputs[i] + draw.delta),
    )
    worst = max(worst, abs(lhs - rhs))
print(f"\nper-draw summand identity over 2000 draws: max |difference| = {worst:.2e}")

# --- paired estimators -----------------------------------------------------
est_pair = mixup_risk_mc(ds, model, LossKind.CROSS_ENTROPY, alpha, 200_000, np.random.default_rng(3))
est_pert = perturbed_erm_risk_mc(ds, model, LossKind.CROSS_ENTROPY, alpha, 200_000, np.random.default_rng(4))
print(f"pairwise-form estimate   {est_pair.mean:.6f} +- {est_pair.stderr:.6f}")
print(f"perturbed-form estimate  {est_pert.mean:.6f} +- {est_pert.stderr:.6f}")

# --- covariance closed form ------------------------------------------------
i = 7
cov = perturbation_covariances(ds, coeffs)  # every row, stacked
rng = np.random.default_rng(5)
n_mc = 300_000
from mixreg import sample_theta

th = sample_theta(alpha, rng, size=n_mc)[:, None]
J = rng.integers(ds.n, size=n_mc)
tb = coeffs.theta_bar
deltas = (th - tb) * ds.inputs[i] + (1 - th) * ds.inputs[J] - (1 - tb) * ds.x_mean
emp = deltas.T @ deltas / n_mc
print(f"\ninput covariance of row {i}: closed form vs {n_mc} Monte-Carlo draws")
print("closed:\n", np.array_str(cov.sxx[i], precision=5))
print("monte carlo:\n", np.array_str(emp, precision=5))

# --- four-penalty decomposition ---------------------------------------------
small = make_two_moons(10, 0.05, seed=6)
small_model = init_rff(2, 200, 5.0, 2, seed=7)
small_model.w = 0.4 * np.random.default_rng(7).normal(size=small_model.w.shape)
oracle = expected_quadratic_loss(small, small_model, LossKind.CROSS_ENTROPY, coeffs)
br = r_terms_general(small, small_model, LossKind.CROSS_ENTROPY, coeffs)
print(f"\nquadrature expectation of the Taylor loss: {oracle:.12f}")
print(f"fit-on-shrunk-data + R1 + R2 + R3 + R4:    {br.total:.12f}")
print(f"  erm_modified = {br.erm_modified:.6f}")
print(f"  R1 = {br.r1:.6f}  R2 = {br.r2:.6f}  R3 = {br.r3:.6f}  R4 = {br.r4:.6f}")
print(f"identity gap: {abs(oracle - br.total):.2e}")
