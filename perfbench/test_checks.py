"""Tests of the benchmark's own checks and tracer.

Run from the checkout root:  python3 -m pytest perfbench -q

Each check passes on the program's real output for a tiny instance and fails
when one value of that output is perturbed.
"""

import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mixreg import experiment, regularizers  # noqa: E402


@pytest.fixture(scope="module")
def moons():
    spec = experiment.ExperimentSpec(n=40, rff_features=30, epochs=3, batch_size=10)
    wl = workloads.MoonsProtocol(3, "", spec=spec)
    return wl, wl.op()


def test_moons_check_passes_on_real_output(moons):
    wl, out = moons
    assert wl.check(out) == []


@pytest.mark.parametrize(
    "field, delta",
    [("test_acc", 0.05), ("test_acc_raw", 0.05), ("mean_conf_natural", 1e-9), ("mean_conf_raw", 1e-9)],
)
def test_moons_check_catches_a_wrong_metric(moons, field, delta):
    wl, out = moons
    bad = copy.copy(out)
    method = "mixup"
    r = out["results"][method]
    bad["results"] = dict(out["results"], **{method: dataclasses.replace(r, **{field: getattr(r, field) + delta})})
    assert any(field.split("_")[-1] in p for p in wl.check(bad))


def test_moons_check_catches_a_non_finite_trace_row(moons):
    wl, out = moons
    bad = copy.deepcopy(out)
    bad["results"]["erm"].trace.test_loss[1] = float("nan")
    assert any("trace column test_loss" in p for p in wl.check(bad))


@pytest.fixture(scope="module")
def certify(tmp_path_factory):
    wl = workloads.Certify(0, str(tmp_path_factory.mktemp("certify")))
    return wl, wl.op()


def test_certify_check_passes_on_real_output(certify):
    wl, rc = certify
    assert wl.check(rc) == []


def test_certify_check_catches_failures(certify):
    wl, rc = certify
    assert wl.check(1)
    reports = json.loads((Path(wl.out_dir) / "verify.json").read_text())
    failed = [dict(r, passed=(i != 0)) for i, r in enumerate(reports)]
    assert checks.check_certify(0, failed, checks.THETA_BAR, checks.SIGMA_SQ)
    without = [r for r in reports if r["name"] != "least_squares_neutrality"]
    assert checks.check_certify(0, without, checks.THETA_BAR, checks.SIGMA_SQ)
    assert checks.check_certify(0, reports, checks.THETA_BAR + 1e-9, checks.SIGMA_SQ)
    assert checks.check_certify(0, reports, checks.THETA_BAR, checks.SIGMA_SQ + 1e-9)


@pytest.fixture(scope="module")
def mc_wide():
    wl = workloads.McWide(4, "", n_features=50, n_pair=4000, n_pert=4000, n_identity=500)
    return wl, wl.op()


def test_mc_wide_check_passes_on_real_output(mc_wide):
    wl, out = mc_wide
    assert wl.check(out) == []


def test_mc_wide_check_catches_a_broken_identity(mc_wide):
    wl, (pair, pert, per_draw, lin) = mc_wide
    shifted = per_draw.copy()
    shifted[7] += 1e-9
    assert any("per-draw" in p for p in wl.check((pair, pert, shifted, lin)))


def test_mc_wide_check_catches_disagreeing_estimates(mc_wide):
    wl, (pair, pert, per_draw, lin) = mc_wide
    far = dataclasses.replace(pert, mean=pert.mean + 10 * np.hypot(pair.stderr, pert.stderr))
    assert any("estimators differ" in p for p in wl.check((pair, far, per_draw, lin)))
    off = dataclasses.replace(lin, mean=lin.mean + 5 * lin.stderr)
    assert any("linear estimate" in p for p in wl.check((pair, pert, per_draw, off)))
    short = dataclasses.replace(pair, n_draws=wl.n_pair - 1)
    assert any("fewer than" in p for p in wl.check((short, pert, per_draw, lin)))


@pytest.fixture(scope="module")
def audit():
    wl = workloads.PenaltyAudit(5, "", n_features=40, reg_n=20, reg_d=4)
    return wl, wl.op()


def test_penalty_audit_check_passes_on_real_output(audit):
    wl, out = audit
    assert wl.check(out) == []


@pytest.mark.parametrize(
    "case, which, term, value, message",
    [
        ("moons_ce", 0, "r1", lambda v: -1e-6, "sign"),
        ("moons_lr", 1, "r3", lambda v: 1e-6, "sign"),
        ("regression_se", 0, "r4", lambda v: -1e-6, "sign"),
        ("moons_lr", 1, "r2", lambda v: v + 1e-8, "specialized"),
        ("moons_ce", 0, "r4", lambda v: 1e-3, "linear in y"),
        ("moons_ce", 1, "clipped_inverses", lambda v: 0, "clipped"),
        ("regression_se", 1, "total", lambda v: v * (1 + 1e-9), "exact mixing risk"),
    ],
)
def test_penalty_audit_check_catches_a_wrong_term(audit, case, which, term, value, message):
    wl, out = audit
    pair = list(out[case])
    pair[which] = dataclasses.replace(pair[which], **{term: value(getattr(pair[which], term))})
    assert any(message in p for p in wl.check(dict(out, **{case: tuple(pair)})))


def test_traced_penalty_audit_counts_rows_and_restores_functions(audit):
    wl, _ = audit
    original = regularizers.r_terms_general
    spans = tracer.Tracer()
    out, wall, root = spans.run_op(wl.op)
    assert regularizers.r_terms_general is original
    assert wl.check(out) == []
    m = tracer.op_metrics(spans.spans, root)
    n = sum(ds.n for _, ds, *_ in wl.cases)
    assert m["regularizers.rows"] == 2 * n
    assert m["regularizers.covariance_calls"] == 2 * n
    assert m["losses.bundle_calls"] == n
    assert 0 < m["regularizers.r_terms_s"] <= m["regularizers.self_s"] <= wall
    assert set(m) == {name for name, _, _ in tracer.PER_LAYER}


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS[:2])
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(tracer.PER_LAYER)
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "op_s", "peak_rss_mb"}
