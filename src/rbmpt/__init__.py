"""Stochastic maximum likelihood training of binary RBMs with single-chain,
fixed-ladder, and adaptive parallel tempering negative-phase samplers."""

from .adaptation import (
    AdaptationConfig,
    SpawnEvent,
    adapt_betas,
    average_swap_rate,
    maybe_spawn,
    optimal_betas,
)
from .dataset import MixtureSpec, default_spec, mixture_log_likelihood, sample_batch
from .rbm import (
    IntractableModelError,
    RbmParams,
    exact_log_likelihood,
    exact_log_partition,
    hidden_conditional,
)
from .tempering import (
    Ensemble,
    EnsembleStack,
    deo_sweep,
    f_up,
    swap_ratio,
    update_flow_histograms,
)
from .training import (
    DivergenceError,
    MetricsRecord,
    TrainConfig,
    TrainResult,
    sml_update,
    train,
    train_lockstep,
)

__version__ = "0.1.0"
