"""Mixup training as data transformation plus structured noise.

Library layout:

* :mod:`mixreg.truncbeta` -- moments and sampling for the folded mixing weight
* :mod:`mixreg.data` -- dataset container, two-moons generator, mean shrinkage
* :mod:`mixreg.losses` -- SE / CE / logistic losses with derivative blocks
* :mod:`mixreg.models` -- linear and random-cosine-feature predictors
* :mod:`mixreg.mixup` -- pairwise risk and its perturbed rewrite, batch mixing
* :mod:`mixreg.regularizers` -- perturbation covariances and the four-penalty
  decomposition of the approximate risk
* :mod:`mixreg.training` -- minibatch SGD under the four objectives
* :mod:`mixreg.metrics` -- raw or rescaled ``predict``, accuracy / CE / ECE /
  entropy
* :mod:`mixreg.verification` -- the independent oracles (exact perturbation
  moments, quadratic Taylor loss) and the checks certifying the identities
* :mod:`mixreg.experiment` -- the noisy two-moons protocol
* :mod:`mixreg.cli` -- the ``mixreg`` command-line entry point
"""

from .data import (
    Dataset,
    flip_labels,
    load_csv,
    make_two_moons,
    modify,
    save_csv,
    shrink,
    train_test_split,
)
from .losses import LossBundle, LossKind, bundle, entropy, sigmoid
from .metrics import MetricsRow, Rescale, ece, metrics, predict
from .mixup import (
    McEstimate,
    mixup_minibatch,
    mixup_risk_mc,
    perturbed_erm_risk_mc,
)
from .models import LinearModel, RffModel, init_rff, load_model_json, save_model_json
from .regularizers import (
    PerExampleCovariances,
    RegularizerBreakdown,
    approx_mixup_objective,
    mols_fit,
    per_example_covariances,
    perturbation_covariances,
    r_terms_ce,
    r_terms_general,
    r_terms_lr,
    r_terms_se,
)
from .training import TrainConfig, TrainTrace, TrainingDiverged, approx_gradient, train
from .truncbeta import (
    MixCoefficients,
    mix_coefficients,
    sample_theta,
    trunc_beta_mean,
    trunc_beta_raw_moment,
)
from .verification import CheckReport, exact_second_moments, quadratic_loss, run_all

__version__ = "0.1.0"
