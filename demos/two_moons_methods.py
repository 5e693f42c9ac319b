"""Train the four objectives on one noisy two-moons instance and compare.

Reproduces the desk-scale protocol: 300 points, 50/50 split, 20% of the
training labels flipped, cosine-feature classifier (M = 1000, frequency
scale 10), SGD with batch 50 and step 5, mixing weight Beta(1, 1).

Run: python demos/two_moons_methods.py
"""

import time
from pathlib import Path

from mixreg.experiment import DEFAULT_METHODS, ExperimentSpec, make_instance, run_method

# the repository's ignored output folder, wherever the demo is run from
out = Path(__file__).resolve().parent.parent / "out"
out.mkdir(exist_ok=True)
spec = ExperimentSpec()
seed = 0
ds_train, ds_test = make_instance(spec, seed)
print(f"train n = {ds_train.n}, test n = {ds_test.n}, epochs = {spec.epochs}")
print(f"{'method':14s} {'test acc':>9s} {'raw acc':>8s} {'confidence':>11s} {'seconds':>8s}")

for method in DEFAULT_METHODS:
    t0 = time.time()
    res = run_method(ds_train, ds_test, spec.train_config(method, seed))
    print(
        f"{method:14s} {res.test_acc:9.3f} {res.test_acc_raw:8.3f} "
        f"{res.mean_conf_natural:11.3f} {time.time() - t0:8.1f}"
    )
    res.trace.write_csv(out / f"trace_{method}.csv")

print("\n'test acc' uses each method's natural predictor: direct for plain")
print("fitting, rescaled through the training statistics for the methods that")
print(f"learn on mean-shrunk data. Traces written to {out / 'trace_<method>.csv'}.")
