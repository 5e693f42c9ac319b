"""The four workloads. Each one makes its inputs from the seed when it is
built (that is the set-up), runs one operation per ``op()`` call, and hands
the operation's outputs to :mod:`checks` as plain arrays.

Program functions are looked up on their modules at call time, so a traced
run sees every call the operation makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import numpy as np

import checks
from mixreg import data, experiment, losses, mixup, models, regularizers, truncbeta

CE = losses.LossKind.CROSS_ENTROPY


def _breakdown(br) -> dict:
    return {k: getattr(br, k) for k in checks.TERMS + ("clipped_inverses",)}


def _random_head(model, rng):
    """Give a zero-initialized cosine-feature head standard-normal weights."""
    model.w = rng.normal(size=model.w.shape)
    return model


class MoonsProtocol:
    """``experiment.run_seed`` at the default spec: four methods on one seed."""

    def __init__(self, seed: int, workdir: str, spec=None):
        self.spec = experiment.ExperimentSpec() if spec is None else spec
        self.seed = seed
        ds_train, ds_test = experiment.make_instance(self.spec, seed)
        self.arrays = [np.array(a) for a in (ds_train.inputs, ds_train.outputs, ds_test.inputs, ds_test.outputs)]

    def op(self):
        return experiment.run_seed(self.spec, self.seed)

    def check(self, out) -> list:
        methods = {
            name: {
                "S": r.model.S,
                "B": r.model.B,
                "w": r.model.w,
                "test_acc": r.test_acc,
                "test_acc_raw": r.test_acc_raw,
                "mean_conf_natural": r.mean_conf_natural,
                "mean_conf_raw": r.mean_conf_raw,
                "trace": {
                    "objective": r.trace.objective,
                    "train_acc": r.trace.train_acc,
                    "test_acc": r.trace.test_acc,
                    "test_loss": r.trace.test_loss,
                },
            }
            for name, r in out["results"].items()
        }
        reg_sums = [out["reg_sum_erm"], out["reg_sum_mixup"]]
        return checks.check_moons_protocol(methods, *self.arrays, self.spec.epochs, reg_sums)


class Certify:
    """``mixreg verify --out <dir>`` called in-process through ``cli.main``.

    Its inputs are the canned instances of the certification suite at the
    command's default seed, so they do not depend on the workload seed.
    """

    def __init__(self, seed: int, workdir: str):
        # only this workload pays for importing the command line (scipy.stats)
        from mixreg import cli

        self.cli = cli
        self.out_dir = os.path.join(workdir, "verify")

    def op(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(["verify", "--out", self.out_dir])

    def check(self, returncode) -> list:
        with open(os.path.join(self.out_dir, "verify.json")) as fh:
            reports = json.load(fh)
        coeffs = truncbeta.mix_coefficients(checks.ALPHA)
        return checks.check_certify(returncode, reports, coeffs.theta_bar, coeffs.sigma_sq)


class McWide:
    """Both risk estimators on the experiment's training split with a wide
    cosine head, the per-draw identity on draws made here, and the pairwise
    estimator on a linear squared-error instance."""

    def __init__(self, seed: int, workdir: str, n_features=1000, n_pair=200_000, n_pert=20_000, n_identity=10_000):
        spec = experiment.ExperimentSpec()
        self.ds, _ = experiment.make_instance(spec, seed)
        n, d, c = self.ds.n, self.ds.d, self.ds.c
        rng = np.random.default_rng([seed, 1])
        self.head = _random_head(models.init_rff(d, n_features, spec.rff_scale, c, seed), rng)
        self.lin = models.LinearModel(W=rng.normal(size=(c, d)), b=rng.normal(size=c))
        lam = rng.beta(checks.ALPHA, checks.ALPHA, size=n_identity)
        self.draws = (rng.integers(n, size=n_identity), rng.integers(n, size=n_identity), np.maximum(lam, 1.0 - lam))
        self.seed = seed
        self.n_pair, self.n_pert = n_pair, n_pert

    def op(self):
        ds, alpha = self.ds, checks.ALPHA

        def rng(k):
            return np.random.default_rng([self.seed, k])

        pair = mixup.mixup_risk_mc(ds, self.head, CE, alpha, self.n_pair, rng(2))
        pert = mixup.perturbed_erm_risk_mc(ds, self.head, CE, alpha, self.n_pert, rng(3))
        per_draw = mixup.pair_loss_values(ds, self.head, CE, *self.draws)
        lin = mixup.mixup_risk_mc(ds, self.lin, losses.LossKind.SQUARED_ERROR, alpha, self.n_pair, rng(4))
        return pair, pert, per_draw, lin

    def check(self, out) -> list:
        pair, pert, per_draw, lin = out
        X, Y = np.array(self.ds.inputs), np.array(self.ds.outputs)
        head = (self.head.S, self.head.B, self.head.w)
        estimates = [(e.mean, e.stderr, e.n_draws) for e in (pair, pert, lin)]
        return checks.check_mc_wide(
            per_draw, self.draws, X, Y, head, *estimates, (self.lin.W, self.lin.b), self.n_pair
        )


class PenaltyAudit:
    """``r_terms_general`` and its matching specialization on the two-moons
    split with 1000-feature cross-entropy and logistic heads, and on a d=32
    linear regression."""

    def __init__(self, seed: int, workdir: str, n_features=1000, reg_n=150, reg_d=32):
        spec = experiment.ExperimentSpec()
        ds_moons, _ = experiment.make_instance(spec, seed)
        rng = np.random.default_rng([seed, 5])
        ce_head = _random_head(models.init_rff(ds_moons.d, n_features, spec.rff_scale, 2, seed), rng)
        lr_head = _random_head(models.init_rff(ds_moons.d, n_features, spec.rff_scale, 1, seed + 1), rng)
        ds_scalar = data.Dataset(ds_moons.inputs, ds_moons.outputs[:, 1:2])
        X = rng.normal(size=(reg_n, reg_d))
        Y = X @ rng.normal(size=(2, reg_d)).T + 0.3 * rng.normal(size=(reg_n, 2))
        lin = models.LinearModel(W=rng.normal(size=(2, reg_d)), b=rng.normal(size=2))
        self.coeffs = truncbeta.mix_coefficients(checks.ALPHA)
        # (case, dataset, model, loss, specialization name, loss label)
        self.cases = (
            ("moons_ce", ds_moons, ce_head, CE, "r_terms_ce", "ce"),
            ("moons_lr", ds_scalar, lr_head, losses.LossKind.LOGISTIC, "r_terms_lr", "lr"),
            ("regression_se", data.Dataset(X, Y), lin, losses.LossKind.SQUARED_ERROR, "r_terms_se", "se"),
        )
        self.exact = (X, Y, lin.W, lin.b)

    def op(self):
        return {
            case: (
                regularizers.r_terms_general(ds, model, kind, self.coeffs),
                getattr(regularizers, special)(ds, model, self.coeffs),
            )
            for case, ds, model, kind, special, _ in self.cases
        }

    def check(self, out) -> list:
        cases = {}
        for case, ds, _, _, _, label in self.cases:
            general, special = out[case]
            cases[case] = {"loss": label, "n": ds.n, "general": _breakdown(general), "special": _breakdown(special)}
        cases["regression_se"]["exact"] = self.exact
        return checks.check_penalty_audit(cases)


WORKLOADS = {
    "moons_protocol": MoonsProtocol,
    "certify": Certify,
    "mc_wide": McWide,
    "penalty_audit": PenaltyAudit,
}
