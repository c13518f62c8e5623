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
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import rbm
from .adaptation import AdaptationConfig, SpawnEvent, adapt_betas, average_swap_rate, maybe_spawn
from .tempering import (
    Ensemble,
    EnsembleStack,
    deo_sweep,
    f_up,
    geometric_ladder,
    linear_ladder,
    update_flow_histograms,
)

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
    """Raised when a gradient update produces unusable parameters; the
    boolean `diverged` marks the replicas that did (0-d for one model)."""

    def __init__(self, message: str, diverged: np.ndarray):
        super().__init__(message)
        self.diverged = diverged


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
    sampler: Ensemble | EnsembleStack,
    config: TrainConfig,
) -> None:
    """One gradient ascent step on the likelihood.

    Positive statistics average phi(v, h~) over the minibatch with mean-field
    hidden units; negative statistics are phi(v-, h~-) read off the sampler's
    beta = 1 particle as it currently stands. Deterministic given that
    particle. `minibatch` must be a float64 (m, num_visible) array, as
    `train` passes it. With stacked params, an `EnsembleStack` and an
    (R, m, num_visible) minibatch, every replica takes its own step in the
    same calls, with the bits of a lone step.

    Raises DivergenceError, after the step, when a parameter is non-finite
    or beyond THETA_ABS_LIMIT; its `diverged` mask marks the replicas.
    """
    h_pos = rbm.hidden_conditional(params, minibatch)
    # the beta = 1 particle, a one-row batch (per replica)
    v_neg = sampler.visible[..., :1, :]
    h_neg = rbm.hidden_conditional(params, v_neg)
    nh, nv = params.weights.shape[-2:]
    # the positive statistics in a buffer laid out like params.flat, so each
    # arithmetic step is one pass over all three parts; add.reduce, then
    # /= n, is what .mean(axis=0) computes: the same bits
    step = np.empty_like(params.flat)
    step_w, step_h, step_v = rbm.split_flat(step, nh, nv)
    np.matmul(h_pos.mT, minibatch, out=step_w)
    np.add.reduce(h_pos, axis=-2, out=step_h)
    np.add.reduce(minibatch, axis=-2, out=step_v)
    step /= minibatch.shape[-2]
    h_neg = h_neg.reshape(step_h.shape)
    v_neg = v_neg.reshape(step_v.shape)
    step_w -= h_neg[..., None] * v_neg[..., None, :]
    step_h -= h_neg
    step_v -= v_neg
    step *= config.learning_rate
    params.flat += step
    # one pass over every parameter; a NaN fails the comparison and is
    # rejected too
    if not np.abs(params.flat).max() <= THETA_ABS_LIMIT:
        healthy = np.abs(params.flat).max(axis=-1) <= THETA_ABS_LIMIT
        raise DivergenceError(
            "parameters diverged (non-finite or beyond magnitude limit)", ~healthy
        )


@dataclass
class TrainResult:
    """One run: its state while it trains, and what `train` returns.
    `params` and the ensemble's arrays are views of its group's stacks
    while it is in one; `work_units` is the modeled cost so far."""

    config: TrainConfig
    rng: np.random.Generator
    params: rbm.RbmParams
    ensemble: Ensemble
    metrics: list[MetricsRecord] = field(default_factory=list)
    spawn_events: list[SpawnEvent] = field(default_factory=list)
    diverged_at: int | None = None
    work_units: float = 0.0

    @classmethod
    def start(cls, config: TrainConfig, num_visible: int) -> "TrainResult":
        rng = np.random.default_rng(config.seed)
        params = rbm.init_params(num_visible, config.num_hidden, rng)
        return cls(config, rng, params, initial_ensemble(config, num_visible, rng))

    def emit(self, update_index: int, eval_data: rbm.DistinctRows | None) -> None:
        if eval_data is None:
            loglik = None
        else:
            try:
                loglik = rbm.exact_log_likelihood(self.params, eval_data)
            except rbm.IntractableModelError:
                loglik = None
        ensemble = self.ensemble
        self.metrics.append(
            MetricsRecord(
                update_index=update_index,
                wall_clock_seconds=self.work_units * MODELED_SECONDS_PER_UNIT,
                train_loglik=loglik,
                tau_hat=ensemble.tau_hat,
                avg_swap_rate=average_swap_rate(ensemble),
                num_chains=ensemble.num_chains,
                betas=[float(b) for b in ensemble.betas],
                fup=f_up(ensemble),
                pair_swap_rates=[float(r) for r in ensemble.swap_rate_ema],
            )
        )


class _Lockstep:
    """Runs of one configuration, at one ladder length, advanced together:
    their parameters are the rows of one (R, P) stack and their ensembles
    one `EnsembleStack`, so each kernel runs once per update for all R.
    A lone run needs no stack: the same kernels take its own arrays. (Always
    stacking, with members that own their arrays and are re-stacked every
    sweep, gave the same bits but cost `grid-ci` about 8% per update.)"""

    def __init__(self, runs: list[TrainResult]):
        self.runs = runs
        self.config = config = runs[0].config
        self.adaptive = config.algorithm == ALGO_SML_APT
        self.total_steps = config.num_updates + config.post_sampling_steps
        nh, nv = runs[0].params.weights.shape
        self.weight_size = nv * nh
        if len(runs) == 1:
            run = runs[0]
            self.params, self.ensembles, self.rngs = run.params, run.ensemble, run.rng
            return
        flat = np.stack([run.params.flat for run in runs])
        self.params = rbm.RbmParams.view(flat, nh, nv)
        for run, row in zip(runs, flat):
            run.params = rbm.RbmParams.view(row, nh, nv)
        self.ensembles = EnsembleStack([run.ensemble for run in runs])
        self.rngs = [run.rng for run in runs]

    def step(self, update: int, sampler, eval_data) -> list[TrainResult]:
        """Update `update` of every run, in a lone run's order; returns the
        runs that leave the stack: those that diverged or spawned a chain."""
        runs, config = self.runs, self.config
        learning = update <= config.num_updates
        gibbs_steps = config.gibbs_steps_per_update
        if learning:
            batch = sampler(self.rngs, config.minibatch_size)
        deo_sweep(self.ensembles, self.params, gibbs_steps, self.rngs)
        m = self.ensembles.num_chains
        # modeled cost: the sweep, the swap-phase energies and the gradient
        # step; whole numbers below 2^53, so the float sums are exact. The
        # energies may reuse the sweep's last product but are still charged
        # for it, so the modeled times are those of a sweep that recomputes it.
        work = gibbs_steps * m * 2 * self.weight_size
        if m > 1:
            work += m * self.weight_size
        if learning:
            work += 3 * config.minibatch_size * self.weight_size
        if m > 1:
            update_flow_histograms(self.ensembles)
        leaving = []
        for run in runs:
            run.work_units += work
            ensemble = run.ensemble
            if self.adaptive and ensemble.burn_in_remaining == 0:
                adaptation = config.adaptation
                adapt_betas(ensemble, adaptation)
                if update % adaptation.spawn_check_interval == 0:
                    event = maybe_spawn(ensemble, adaptation, update_index=update)
                    if event is not None:
                        run.spawn_events.append(event)
                        leaving.append(run)
        live = runs
        if learning:
            try:
                # a spawn inserts at slot 1 or later: slot 0 is still the stack's
                sml_update(self.params, batch, self.ensembles, config)
            except DivergenceError as err:
                live = []
                for run, bad in zip(runs, err.diverged.reshape(-1)):
                    if bad:
                        run.diverged_at = update
                        run.emit(update, eval_data)
                        if run not in leaving:
                            leaving.append(run)
                    else:
                        live.append(run)
        if update % config.eval_interval == 0 or update == self.total_steps:
            for run in live:
                run.emit(update, eval_data)
        return leaving


def train_lockstep(
    configs: list[TrainConfig],
    sampler,
    eval_data: rbm.DistinctRows | None = None,
) -> list[TrainResult]:
    """Train one run per config, as `train` would, advancing the runs
    together: `configs` may differ only in their seed.

    Each update runs the Gibbs sweep, the energies, the minibatch draw and
    the gradient step once over a stacked replica axis, while every run
    keeps its own generator, swap decisions and ladder bookkeeping, so each
    result has the bits `train` gives its config alone. A run that diverges
    stops; one whose ladder grows by a spawn leaves the stack and goes on
    alone. `sampler` must also take a list of R generators and return an
    (R, n, num_visible) stack, as `dataset.BatchSampler` does. Returns the
    runs it stepped, in the order of `configs`.
    """
    if eval_data is not None and not isinstance(eval_data, rbm.DistinctRows):
        raise TypeError(
            f"eval_data must be an rbm.DistinctRows (build one with rbm.distinct_rows), "
            f"got {type(eval_data).__name__}"
        )
    if not configs:
        raise ValueError("train_lockstep needs at least one config")
    shared = dataclasses.replace(configs[0], seed=0)
    if any(dataclasses.replace(config, seed=0) != shared for config in configs):
        raise ValueError("lockstep runs must differ only in their seed")
    num_visible = sampler.num_visible
    runs = [TrainResult.start(config, num_visible) for config in configs]
    for run in runs:
        run.emit(0, eval_data)
    groups = [_Lockstep(runs)]
    for update in range(1, shared.num_updates + shared.post_sampling_steps + 1):
        leaving = [group.step(update, sampler, eval_data) for group in groups]
        if any(leaving):
            groups = [new for group, gone in zip(groups, leaving) for new in _regroup(group, gone)]
            if not groups:
                break
    return runs


def _regroup(group: _Lockstep, leaving: list[TrainResult]) -> list[_Lockstep]:
    """The groups that carry on `group`'s runs once `leaving` have left it:
    a grown ladder goes on alone, a diverged run is done."""
    if not leaving:
        return [group]
    staying = [run for run in group.runs if run not in leaving]
    regrouped = [_Lockstep(staying)] if staying else []
    return regrouped + [_Lockstep([run]) for run in leaving if run.diverged_at is None]


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
    column is the exact mean log-likelihood of `eval_data`, an
    `rbm.DistinctRows`, or "n/a" when there is none or no layer is
    enumerable. A divergence aborts learning but still returns the metrics
    collected so far. This is `train_lockstep` with one run.
    """
    return train_lockstep([config], sampler, eval_data)[0]


def write_metrics_csv(path, metrics: list[MetricsRecord]) -> None:
    """Fixed-schema CSV, one row per record; reproducible byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for record in metrics:
            writer.writerow(record.to_csv_row())
