"""Evaluate the implicit penalties at models trained with and without mixing.

The decomposition splits the approximate mixing risk into the fit on shrunk
data plus four penalties. Functions learned with mixing should show markedly
smaller penalty values than plain fitting; the Jacobian-discrepancy term R1
dominates the difference.

Run: python demos/regularizer_breakdown.py
"""

from mixreg import LossKind, mix_coefficients, r_terms_general
from mixreg.experiment import ExperimentSpec, make_instance, run_method

spec = ExperimentSpec()
coeffs = mix_coefficients(spec.alpha)
print(f"{'model from':14s} {'erm_mod':>9s} {'R1':>9s} {'R2':>9s} {'R3':>9s} "
      f"{'R4':>6s} {'R1+R3+R4':>9s} {'total':>9s}")

for seed in range(3):
    ds_train, ds_test = make_instance(spec, seed)
    for method in ("erm", "mixup"):
        res = run_method(ds_train, ds_test, spec.train_config(method, seed))
        br = r_terms_general(ds_train, res.model, LossKind.CROSS_ENTROPY, coeffs)
        print(
            f"{method + f' (s{seed})':14s} {br.erm_modified:9.4f} {br.r1:9.4f} "
            f"{br.r2:9.4f} {br.r3:9.4f} {br.r4:6.3f} "
            f"{br.regularizer_sum_no_r2:9.4f} {br.total:9.4f}"
        )

print("\nR2 (the model-Hessian contraction) is dropped during regularized")
print("training for stability; the R1+R3+R4 column is the penalty the")
print("training objective actually carries.")
