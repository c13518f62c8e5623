"""Stochastic maximum likelihood training with a pluggable negative-phase
sampler: a single persistent chain, a fixed tempered ladder, or an adaptive
ladder that respaces betas and spawns chains while learning.

Each update runs the positive phase on a fresh minibatch (mean-field hidden
units), advances the persistent ensemble by one DEO sweep, reads the
negative statistics off the beta = 1 particle, and takes a plain gradient
ascent step. The three algorithms share the positive phase and differ only
in the ensemble and its adaptation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import rbm
from .adaptation import AdaptationConfig, SpawnEvent, adapt_betas, average_swap_rate, maybe_spawn
from .tempering import Ensemble, deo_sweep, f_up, geometric_ladder, linear_ladder, update_flow_histograms

ALGO_SML = "sml"
ALGO_SML_PT = "sml-pt"
ALGO_SML_APT = "sml-apt"
ALGORITHMS = (ALGO_SML, ALGO_SML_PT, ALGO_SML_APT)

LADDERS = ("linear", "geometric")

# Any parameter beyond this magnitude (or any non-finite entry) aborts the run.
THETA_ABS_LIMIT = 1e6

# Nominal seconds per weight-sized multiply-accumulate for the modeled
# wall-clock column; keeps metrics logs byte-reproducible across reruns
# while preserving the relative cost of the algorithms.
MODELED_SECONDS_PER_UNIT = 1e-8

CSV_HEADER = [
    "update_index",
    "wall_clock_seconds",
    "train_loglik",
    "tau_hat",
    "avg_swap_rate",
    "num_chains",
    "betas",
    "fup",
    "pair_swap_rates",
]


class DivergenceError(RuntimeError):
    """Raised when a gradient update produces unusable parameters."""


@dataclass
class TrainConfig:
    """One training run's settings; flags and config files mirror these fields."""

    algorithm: str = ALGO_SML_APT
    learning_rate: float = 1e-4
    num_updates: int = 100_000
    minibatch_size: int = 5
    gibbs_steps_per_update: int = 1
    initial_num_chains: int = 10
    initial_ladder: str = "linear"
    num_hidden: int = 10
    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)
    post_sampling_steps: int = 0
    eval_interval: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.initial_ladder not in LADDERS:
            raise ValueError(f"initial_ladder must be one of {LADDERS}")
        # zero is allowed: a pure sampling run with constant parameters
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and nonnegative")
        for name in (
            "num_updates",
            "minibatch_size",
            "gibbs_steps_per_update",
            "initial_num_chains",
            "num_hidden",
            "eval_interval",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        for name in ("post_sampling_steps", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass
class MetricsRecord:
    """One logged row of training diagnostics."""

    update_index: int
    wall_clock_seconds: float
    train_loglik: float | None
    tau_hat: float
    avg_swap_rate: float
    num_chains: int
    betas: list[float]
    fup: list[float]
    pair_swap_rates: list[float]

    def to_csv_row(self) -> list[str]:
        return [
            str(self.update_index),
            repr(self.wall_clock_seconds),
            "n/a" if self.train_loglik is None else repr(self.train_loglik),
            repr(self.tau_hat),
            repr(self.avg_swap_rate),
            str(self.num_chains),
            ";".join(repr(b) for b in self.betas),
            ";".join(repr(v) for v in self.fup),
            ";".join(repr(r) for r in self.pair_swap_rates),
        ]


@dataclass
class TrainResult:
    params: rbm.RbmParams
    ensemble: Ensemble
    metrics: list[MetricsRecord]
    spawn_events: list[SpawnEvent]
    diverged_at: int | None


def initial_ensemble(config: TrainConfig, num_visible: int, rng: np.random.Generator) -> Ensemble:
    """Build the negative-phase ensemble the configured algorithm needs."""
    if config.algorithm == ALGO_SML:
        betas = np.array([1.0])
    elif config.initial_ladder == "geometric":
        betas = geometric_ladder(config.initial_num_chains)
    else:
        betas = linear_ladder(config.initial_num_chains)
    return Ensemble.create(betas, num_visible, config.num_hidden, rng)


def sml_update(
    params: rbm.RbmParams,
    minibatch: np.ndarray,
    sampler: Ensemble,
    config: TrainConfig,
) -> None:
    """One gradient ascent step on the likelihood.

    Positive statistics average phi(v, h~) over the minibatch with mean-field
    hidden units; negative statistics are phi(v-, h~-) read off the sampler's
    beta = 1 particle as it currently stands. Deterministic given that
    particle. `minibatch` must be a float64 (m, num_visible) array, as
    `train` passes it.
    """
    h_pos = rbm.hidden_conditional(params, minibatch)
    v_neg = sampler.visible[0]
    h_neg = rbm.hidden_conditional(params, v_neg)
    nh, nv = params.weights.shape
    # the positive and negative statistics in buffers laid out like
    # params.flat, so each arithmetic step is one pass over all three parts;
    # add.reduce, then /= n, is what .mean(axis=0) computes: the same bits
    step = np.empty_like(params.flat)
    step_w, step_h, step_v = rbm.split_flat(step, nh, nv)
    np.matmul(h_pos.T, minibatch, out=step_w)
    np.add.reduce(h_pos, axis=0, out=step_h)
    np.add.reduce(minibatch, axis=0, out=step_v)
    neg = np.empty_like(step)
    neg_w, neg_h, neg_v = rbm.split_flat(neg, nh, nv)
    np.multiply(h_neg[:, None], v_neg, out=neg_w)
    neg_h[:] = h_neg
    neg_v[:] = v_neg
    step /= minibatch.shape[0]
    step -= neg
    step *= config.learning_rate
    params.flat += step
    # one pass over every parameter; a NaN fails the comparison and is
    # rejected too
    if not np.abs(params.flat).max() <= THETA_ABS_LIMIT:
        raise DivergenceError("parameters diverged (non-finite or beyond magnitude limit)")


def train(
    config: TrainConfig,
    sampler,
    eval_data: rbm.DistinctRows | None = None,
) -> TrainResult:
    """Run `num_updates` gradient updates, then `post_sampling_steps` pure
    sampling sweeps (learning off, ladder adaptation still live), drawing
    every random number from one generator seeded with `config.seed`.

    `sampler` draws the minibatches: a callable (rng, n) -> float64
    (n, num_visible) array, such as `dataset.BatchSampler`, whose
    `num_visible` attribute sizes the model. A metrics record is emitted at
    update 0, every `eval_interval` updates, and at the end; the likelihood
    column is the exact mean log-likelihood of `eval_data`, or "n/a" when
    there is none or no layer is enumerable. A divergence aborts learning
    but still returns the metrics collected so far.
    """
    rng = np.random.default_rng(config.seed)
    num_visible = sampler.num_visible
    params = rbm.init_params(num_visible, config.num_hidden, rng)
    ensemble = initial_ensemble(config, num_visible, rng)
    adaptive = config.algorithm == ALGO_SML_APT

    metrics: list[MetricsRecord] = []
    spawn_events: list[SpawnEvent] = []
    diverged_at: int | None = None
    work_units = 0.0
    weight_size = num_visible * config.num_hidden

    def emit(update_index: int) -> None:
        if eval_data is None:
            loglik = None
        else:
            try:
                loglik = rbm.exact_log_likelihood(params, eval_data)
            except rbm.IntractableModelError:
                loglik = None
        metrics.append(
            MetricsRecord(
                update_index=update_index,
                wall_clock_seconds=work_units * MODELED_SECONDS_PER_UNIT,
                train_loglik=loglik,
                tau_hat=ensemble.tau_hat,
                avg_swap_rate=average_swap_rate(ensemble),
                num_chains=ensemble.num_chains,
                betas=[float(b) for b in ensemble.betas],
                fup=[float(v) for v in f_up(ensemble)],
                pair_swap_rates=[float(r) for r in ensemble.swap_rate_ema],
            )
        )

    emit(0)
    num_updates = config.num_updates
    total_steps = num_updates + config.post_sampling_steps
    minibatch_size = config.minibatch_size
    gibbs_steps = config.gibbs_steps_per_update
    eval_interval = config.eval_interval
    adaptation = config.adaptation
    spawn_interval = adaptation.spawn_check_interval
    for update in range(1, total_steps + 1):
        learning = update <= num_updates
        if learning:
            batch = sampler(rng, minibatch_size)
        deo_sweep(ensemble, params, gibbs_steps, rng)
        m = ensemble.num_chains
        work_units += gibbs_steps * m * 2 * weight_size
        if m > 1:
            work_units += m * weight_size  # swap-phase energy evaluations
            update_flow_histograms(ensemble)
        if adaptive and ensemble.burn_in_remaining == 0:
            adapt_betas(ensemble, adaptation)
            if update % spawn_interval == 0:
                event = maybe_spawn(ensemble, adaptation, update_index=update)
                if event is not None:
                    spawn_events.append(event)
        if learning:
            work_units += 3 * minibatch_size * weight_size
            try:
                sml_update(params, batch, ensemble, config)
            except DivergenceError:
                diverged_at = update
                emit(update)
                break
        if update % eval_interval == 0 or update == total_steps:
            emit(update)

    return TrainResult(
        params=params,
        ensemble=ensemble,
        metrics=metrics,
        spawn_events=spawn_events,
        diverged_at=diverged_at,
    )


def write_metrics_csv(path, metrics: list[MetricsRecord]) -> None:
    """Fixed-schema CSV, one row per record; reproducible byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for record in metrics:
            writer.writerow(record.to_csv_row())
