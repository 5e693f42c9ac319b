"""Raw versus rescaled test-time prediction across the mixing strength.

For each alpha, a model is trained with pairwise mixing and scored both ways.
The rescaling shrinks the test input toward the training mean and unshrinks
the output; its effect grows with alpha since the shrinkage factor falls from
1 toward 1/2. ``run_method`` scores each run both ways: ``raw`` and
``natural``, the rescaled predictor through the run's ``trace.rescale``.

Run: python demos/rescaled_evaluation.py
"""

from mixreg.experiment import ExperimentSpec, make_instance, run_method

seed = 0
print(f"{'alpha':>6s} {'theta_bar':>10s} {'acc raw':>8s} {'acc resc':>9s} "
      f"{'ce raw':>8s} {'ce resc':>8s} {'ece raw':>8s} {'ece resc':>9s}")

for alpha in (0.1, 0.5, 1.0, 2.0, 8.0):
    spec = ExperimentSpec(alpha=alpha)
    ds_train, ds_test = make_instance(spec, seed)
    res = run_method(ds_train, ds_test, spec.train_config("mixup", seed))
    tb = res.trace.rescale.theta_bar
    raw, resc = res.raw, res.natural
    print(
        f"{alpha:6.2f} {tb:10.4f} {raw.accuracy:8.3f} {resc.accuracy:9.3f} "
        f"{raw.ce_loss:8.3f} {resc.ce_loss:8.3f} {raw.ece:8.3f} {resc.ece:9.3f}"
    )
