"""Output checks computed apart from the program.

Nothing here imports mixreg. Each check takes plain numbers and arrays,
recomputes the quantity with numpy from the paper's formulas, or tests a
property the method must have, and returns a list of failure messages
(empty when the output is correct).

Every workload mixes with alpha = 1, where the folded weight
theta = max(lam, 1 - lam) is uniform on [1/2, 1].
"""

from __future__ import annotations

import numpy as np

ALPHA = 1.0
THETA_BAR = 0.75  # mean of the uniform law on [1/2, 1]
SIGMA_SQ = 1.0 / 48.0  # its variance, (1/2)^2 / 12

CERTIFIED_CHECKS = (
    "risk_rewrite_identity",
    "perturbation_covariances",
    "penalty_decomposition",
    "loss_specializations",
    "least_squares_neutrality",
    "label_smoothing_entropy",
    "taylor_cubic_remainder",
    "taylor_exact_se_linear",
)

TERMS = ("erm_modified", "r1", "r2", "r3", "r4", "total")

ROUND_OFF = 1e-12
SPECIALIZATION_TOL = 1e-10
N_SIGMA = 4.0


def lam_second_moment(alpha: float) -> float:
    """E[lam^2] for lam ~ Beta(alpha, alpha): 1/4 + Var = 1/4 + 1/(4(2 alpha + 1))."""
    return 0.25 + 1.0 / (4.0 * (2.0 * alpha + 1.0))


def cos_logits(X, S, B, w) -> np.ndarray:
    """cos(X S^T + B) / sqrt(M) w^T."""
    return (np.cos(X @ S.T + B) / np.sqrt(S.shape[0])) @ w.T


def rescaled_logits(X, S, B, w, xbar, ybar, theta_bar=THETA_BAR) -> np.ndarray:
    """The paper's test-time map: shrink the input, unshrink the output."""
    shrunk = theta_bar * X + (1.0 - theta_bar) * xbar
    return ybar * (1.0 - 1.0 / theta_bar) + cos_logits(shrunk, S, B, w) / theta_bar


def _softmax(U):
    E = np.exp(U - U.max(axis=1, keepdims=True))
    return E / E.sum(axis=1, keepdims=True)


def ce_rows(Y, U) -> np.ndarray:
    m = U.max(axis=1)
    return np.log(np.exp(U - m[:, None]).sum(axis=1)) + m - (Y * U).sum(axis=1)


def accuracy_confidence(U, Y):
    P = _softmax(U)
    return float((P.argmax(axis=1) == Y.argmax(axis=1)).mean()), float(P.max(axis=1).mean())


def exact_se_mixing_risk(X, Y, W, b, alpha=ALPHA) -> float:
    """(m2/n) sum_i ||r_i||^2 + (1/2 - m2) ||rbar||^2 with r_i = y_i - W x_i - b."""
    m2 = lam_second_moment(alpha)
    R = Y - X @ W.T - b
    rbar = R.mean(axis=0)
    return float((m2 / X.shape[0]) * (R * R).sum() + (0.5 - m2) * (rbar @ rbar))


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------


def check_moons_protocol(methods: dict, X_train, Y_train, X_test, Y_test, epochs: int, reg_sums) -> list:
    """Reported accuracy and confidence agree with logits recomputed here.

    ``methods`` maps a method name to its head (S, B, w), its reported
    numbers and its per-epoch trace columns.
    """
    bad = []
    xbar, ybar = X_train.mean(axis=0), Y_train.mean(axis=0)
    for name, r in methods.items():
        raw = cos_logits(X_test, r["S"], r["B"], r["w"])
        natural = raw if name == "erm" else rescaled_logits(X_test, r["S"], r["B"], r["w"], xbar, ybar)
        for label, U, acc_key, conf_key in (
            ("raw", raw, "test_acc_raw", "mean_conf_raw"),
            ("natural", natural, "test_acc", "mean_conf_natural"),
        ):
            acc, conf = accuracy_confidence(U, Y_test)
            if abs(acc - r[acc_key]) > ROUND_OFF:
                bad.append(f"{name}: {label} accuracy {r[acc_key]!r} != recomputed {acc!r}")
            if abs(conf - r[conf_key]) > ROUND_OFF:
                bad.append(f"{name}: {label} mean confidence {r[conf_key]!r} != recomputed {conf!r}")
        for column, values in r["trace"].items():
            values = np.asarray(values, dtype=float)
            if values.shape != (epochs,) or not np.all(np.isfinite(values)):
                bad.append(f"{name}: trace column {column} is not {epochs} finite values")
    if not np.all(np.isfinite(reg_sums)):
        bad.append(f"regularizer sums not finite: {reg_sums}")
    return bad


def check_certify(returncode: int, reports: list, theta_bar: float, sigma_sq: float) -> list:
    """The CLI succeeded, every report passed, and alpha = 1 has the uniform moments."""
    bad = []
    if returncode != 0:
        bad.append(f"verify exited {returncode}")
    if not reports:
        bad.append("verify wrote no reports")
    bad += [f"report {r['name']} failed: {r.get('details', '')}" for r in reports if r["passed"] is not True]
    missing = set(CERTIFIED_CHECKS) - {r["name"] for r in reports}
    if missing:
        bad.append(f"reports missing: {sorted(missing)}")
    if abs(theta_bar - THETA_BAR) > ROUND_OFF:
        bad.append(f"theta_bar at alpha=1 is {theta_bar!r}, not 3/4")
    if abs(sigma_sq - SIGMA_SQ) > ROUND_OFF:
        bad.append(f"sigma_sq at alpha=1 is {sigma_sq!r}, not 1/48")
    return bad


def perturbed_summands(X, Y, S, B, w, I, J, theta) -> np.ndarray:
    """l(y~_i + eps_i, f(x~_i + delta_i)) for cross-entropy on a cosine head."""
    xbar, ybar = X.mean(axis=0), Y.mean(axis=0)
    tb = THETA_BAR
    th = theta[:, None]
    Xt = xbar + tb * (X - xbar)
    Yt = ybar + tb * (Y - ybar)
    delta = (th - tb) * X[I] + (1.0 - th) * X[J] - (1.0 - tb) * xbar
    eps = (th - tb) * Y[I] + (1.0 - th) * Y[J] - (1.0 - tb) * ybar
    return ce_rows(Yt[I] + eps, cos_logits(Xt[I] + delta, S, B, w))


def check_mc_wide(pair_values, draws, X, Y, head, est_pair, est_pert, est_lin, lin, min_draws) -> list:
    """Per-draw identity, agreement of the two estimators, and the linear
    squared-error estimate against its exact value.

    Estimates are (mean, stderr, n_draws); ``head`` is (S, B, w) and ``lin``
    is (W, b).
    """
    bad = []
    I, J, theta = draws
    pert = perturbed_summands(X, Y, *head, I, J, theta)
    gap = float(np.max(np.abs(np.asarray(pair_values) - pert)))
    if not gap <= ROUND_OFF:
        bad.append(f"per-draw identity off by {gap:.3e}")
    if est_pair[2] < min_draws:
        bad.append(f"pairwise estimator used {est_pair[2]} draws, fewer than {min_draws}")
    sigma = float(np.hypot(est_pair[1], est_pert[1]))
    if not abs(est_pair[0] - est_pert[0]) <= N_SIGMA * sigma:
        bad.append(f"estimators differ by {abs(est_pair[0] - est_pert[0]):.3e} > 4 sigma {N_SIGMA * sigma:.3e}")
    exact = exact_se_mixing_risk(X, Y, *lin)
    if not abs(est_lin[0] - exact) <= N_SIGMA * est_lin[1]:
        bad.append(f"linear estimate {est_lin[0]!r} not within 4 sigma of exact {exact!r}")
    return bad


def check_penalty_audit(cases: dict) -> list:
    """Signs, specialization agreement, cross-entropy structure and the
    exact linear squared-error total.

    Each case holds ``loss``, ``n``, the ``general`` and ``special``
    breakdowns as dicts of TERMS plus ``clipped_inverses``, and for squared
    error the ``exact`` inputs (X, Y, W, b).
    """
    bad = []
    for name, case in cases.items():
        pair = (("general", case["general"]), ("special", case["special"]))
        for which, br in pair:
            if not all(np.isfinite(br[k]) for k in TERMS):
                bad.append(f"{name} {which}: non-finite terms {br}")
            if not (br["r1"] >= 0.0 and br["r3"] <= 0.0 and br["r4"] >= 0.0):
                bad.append(f"{name} {which}: sign violated r1={br['r1']!r} r3={br['r3']!r} r4={br['r4']!r}")
            if case["loss"] in ("ce", "lr") and br["r4"] != 0.0:
                bad.append(f"{name} {which}: r4 = {br['r4']!r} for a loss linear in y")
            if case["loss"] == "ce" and br["clipped_inverses"] < case["n"]:
                bad.append(f"{name} {which}: {br['clipped_inverses']} clipped inverses < n = {case['n']}")
            if case["loss"] == "se":
                exact = exact_se_mixing_risk(*case["exact"])
                if not abs(br["total"] - exact) <= ROUND_OFF * abs(exact):
                    bad.append(f"{name} {which}: total {br['total']!r} != exact mixing risk {exact!r}")
        for k in TERMS:
            g, s = case["general"][k], case["special"][k]
            if not _close(g, s, SPECIALIZATION_TOL):
                bad.append(f"{name}: {k} general {g!r} vs specialized {s!r}")
    return bad
