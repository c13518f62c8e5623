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
from time import perf_counter

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
        for name, choices in (("algorithm", ALGORITHMS), ("initial_ladder", LADDERS)):
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(f"{name}: expected one of {choices}, got {value!r}")
        # checked before its chain budget is read
        if not isinstance(self.adaptation, AdaptationConfig):
            raise ValueError(f"adaptation: expected an AdaptationConfig, got {self.adaptation!r}")
        # an int setting takes an int and a float one an int or a float,
        # stored as a float, never a bool; a zero rate is a pure sampling run
        rate = self.learning_rate
        if type(rate) not in (int, float) or not 0.0 <= rate < math.inf:
            raise ValueError(f"learning_rate: expected a finite number >= 0, got {rate!r}")
        self.learning_rate = float(rate)
        for name, low in (
            ("num_updates", 1), ("minibatch_size", 1), ("gibbs_steps_per_update", 1),
            ("initial_num_chains", 1), ("num_hidden", 1), ("eval_interval", 1),
            ("post_sampling_steps", 0), ("seed", 0),
        ):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(f"{name}: expected an int >= {low}, got {value!r}")
        # one chain has no swap pair to respace or spawn from, and a ladder
        # that starts above its budget could never spawn
        chains, max_chains = self.initial_num_chains, self.adaptation.max_chains
        if self.algorithm == ALGO_SML_APT and chains < 2:
            raise ValueError(
                f"initial_num_chains ({chains}) must be 2 or more for sml-apt: "
                f"one chain never respaces or spawns"
            )
        if self.algorithm == ALGO_SML_APT and chains > max_chains:
            raise ValueError(
                f"initial_num_chains ({chains}) exceeds adaptation.max_chains ({max_chains})"
            )


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


# the metrics CSV's columns: MetricsRecord's fields, in order
CSV_HEADER = [f.name for f in dataclasses.fields(MetricsRecord)]


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
    particles: np.ndarray,
    config: TrainConfig,
) -> None:
    """One gradient ascent step on the likelihood.

    Positive statistics average phi(v, h~) over the minibatch with mean-field
    hidden units; negative statistics are phi(v-, h~-) of `particles`, the
    beta = 1 particle v- as a one-row batch, (1, num_visible). Deterministic
    given that particle. `minibatch` must be a float64 (m, num_visible)
    array, as `train` passes it. With stacked params, an (R, m, num_visible)
    minibatch and (R, 1, num_visible) particles, every replica takes its own
    step in the same calls, with the bits of a lone step; the replicas'
    ladders may have any lengths.

    Raises DivergenceError, after the step, when a parameter is non-finite
    or beyond THETA_ABS_LIMIT; its `diverged` mask marks the replicas.
    """
    h_pos = rbm.hidden_conditional(params, minibatch)
    h_neg = rbm.hidden_conditional(params, particles)
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
    v_neg = particles.reshape(step_v.shape)
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
    `params` and the ensemble's arrays are views of its lockstep's stacks
    while it is in one; `work_units` is the modeled cost so far, and
    `measured_seconds` the wall time charged to it: its own `emit`s, and
    its shares of its lockstep's kernels, added when that lockstep ends
    (see `_Lockstep`)."""

    config: TrainConfig
    rng: np.random.Generator
    params: rbm.RbmParams
    ensemble: Ensemble
    metrics: list[MetricsRecord] = field(default_factory=list)
    spawn_events: list[SpawnEvent] = field(default_factory=list)
    diverged_at: int | None = None
    work_units: float = 0.0
    measured_seconds: float = 0.0

    @classmethod
    def start(cls, config: TrainConfig, num_visible: int) -> "TrainResult":
        rng = np.random.default_rng(config.seed)
        params = rbm.init_params(num_visible, config.num_hidden, rng)
        return cls(config, rng, params, initial_ensemble(config, num_visible, rng))

    def emit(self, update_index: int, eval_data: rbm.DistinctRows | None) -> None:
        started = perf_counter()
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
        self.measured_seconds += perf_counter() - started


# The settings that every run of one lockstep shares: each array shape but
# the ladder length, and the whole update schedule.
_LOCKSTEP_FIELDS = (
    "num_hidden",
    "minibatch_size",
    "gibbs_steps_per_update",
    "num_updates",
    "post_sampling_steps",
    "eval_interval",
    "learning_rate",
)


def lockstep_key(config: TrainConfig) -> tuple[tuple[str, object], ...]:
    """What runs must share to train in one `train_lockstep` call, as
    (setting, value) pairs of `_LOCKSTEP_FIELDS`. Runs of one key may differ
    in their seed, algorithm, ladder length, initial ladder and adaptation
    settings."""
    return tuple((name, getattr(config, name)) for name in _LOCKSTEP_FIELDS)


class _Ladder:
    """The runs of a `_Lockstep` whose ladders have one length: `params`
    views their rows of the lockstep's parameter stack, and their ensembles
    are one `EnsembleStack`, or a lone run's own `Ensemble`, so the sweep
    runs once per update for all of them. `seconds` is the wall time of
    their sweeps, flow histograms and adaptation so far."""

    def __init__(self, runs: list[TrainResult], params: rbm.RbmParams, config: TrainConfig):
        self.runs = runs
        self.params = params
        # each run's AdaptationConfig, or None for a fixed ladder
        self.adaptations = [
            run.config.adaptation if run.config.algorithm == ALGO_SML_APT else None
            for run in runs
        ]
        nh, nv = runs[0].params.weights.shape
        m = runs[0].ensemble.num_chains
        self.tempered = m > 1
        # modeled cost of a sampling update (the sweep and the swap-phase
        # energies) and of a learning update (plus the gradient step): whole
        # numbers below 2^53, so the float sums are exact. The energies take
        # the kept pre-activation but are charged one weight-sized product
        # per chain, so `wall_clock_seconds` keeps its bytes.
        sweep = config.gibbs_steps_per_update * m * 2 * nv * nh
        self.sampling_work = sweep + m * nv * nh if self.tempered else sweep
        self.learning_work = self.sampling_work + 3 * config.minibatch_size * nv * nh
        if len(runs) == 1:
            self.ensembles, self.rngs = runs[0].ensemble, runs[0].rng
        else:
            self.ensembles = EnsembleStack([run.ensemble for run in runs])
            self.rngs = [run.rng for run in runs]
        self.seconds = 0.0

    def step(self, update: int, learning: bool, config: TrainConfig) -> bool:
        """The sweep, flow histograms and adaptation of update `update`;
        True when a run spawned a chain."""
        deo_sweep(self.ensembles, self.params, config.gibbs_steps_per_update, self.rngs)
        if self.tempered:
            update_flow_histograms(self.ensembles)
        work = self.learning_work if learning else self.sampling_work
        spawned = False
        for run, adaptation in zip(self.runs, self.adaptations):
            run.work_units += work
            ensemble = run.ensemble
            if adaptation is not None and ensemble.burn_in_remaining == 0:
                adapt_betas(ensemble, adaptation)
                if update % adaptation.spawn_check_interval == 0:
                    event = maybe_spawn(ensemble, adaptation, update_index=update)
                    if event is not None:
                        run.spawn_events.append(event)
                        spawned = True
        return spawned


class _Lockstep:
    """Live runs advanced together until one spawns a chain or diverges.
    Their parameters are the rows of one (N, P) stack, ordered by ladder
    length so that each length's rows are one `_Ladder`'s contiguous slice.
    Each update draws every run's minibatch in one sampler call, sweeps each
    ladder length once, and takes every run's gradient step in one
    `sml_update` call. A lone run needs no stack: the same kernels take its
    own arrays.

    Each run draws its minibatch, then its sweep, from its own generator,
    as it does alone. `charge` gives each run its share of the measured
    time: its ladder's seconds over the ladder's runs, and the minibatch
    draw and gradient step over all N."""

    def __init__(self, runs: list[TrainResult]):
        by_length: dict[int, list[TrainResult]] = {}
        for run in runs:
            by_length.setdefault(run.ensemble.num_chains, []).append(run)
        self.runs = [run for group in by_length.values() for run in group]
        # the key's settings, which every run shares
        self.config = config = runs[0].config
        self.total_steps = config.num_updates + config.post_sampling_steps
        if len(runs) == 1:
            run = runs[0]
            self.params, self.rngs = run.params, run.rng
            self.ladders = [_Ladder(runs, run.params, config)]
        else:
            nh, nv = runs[0].params.weights.shape
            flat = np.stack([run.params.flat for run in self.runs])
            self.params = rbm.RbmParams.view(flat, nh, nv)
            for run, row in zip(self.runs, flat):
                run.params = rbm.RbmParams.view(row, nh, nv)
            self.rngs = [run.rng for run in self.runs]
            self.ladders, start = [], 0
            for group in by_length.values():
                stop = start + len(group)
                rows = flat[start] if len(group) == 1 else flat[start:stop]
                self.ladders.append(_Ladder(group, rbm.RbmParams.view(rows, nh, nv), config))
                start = stop
        self.shared_seconds = 0.0

    def _particles(self) -> np.ndarray:
        """Every run's beta = 1 particle as a one-row batch, in stack order:
        (N, 1, nv), or (1, nv) for a lone run."""
        ladders = self.ladders
        if len(ladders) == 1:
            return ladders[0].ensembles.visible[..., :1, :]
        nv = self.params.weights.shape[-1]
        return np.concatenate(
            [ladder.ensembles.visible[..., :1, :].reshape(-1, 1, nv) for ladder in ladders]
        )

    def step(self, update: int, sampler, eval_data) -> bool:
        """Update `update` of every run, in a lone run's order; True when a
        run spawned a chain or diverged, which ends the lockstep."""
        config = self.config
        learning = update <= config.num_updates
        started = perf_counter()
        if learning:
            batch = sampler(self.rngs, config.minibatch_size)
        drawn = now = perf_counter()
        ended = False
        for ladder in self.ladders:
            ended |= ladder.step(update, learning, config)
            last, now = now, perf_counter()
            ladder.seconds += now - last
        live = self.runs
        diverged = None
        if learning:
            try:
                # a spawn inserts at slot 1 or later: slot 0 is still the stack's
                sml_update(self.params, batch, self._particles(), config)
            except DivergenceError as err:
                diverged = err.diverged.reshape(-1)
        # the minibatch draw and the gradient step
        self.shared_seconds += (drawn - started) + (perf_counter() - now)
        if diverged is not None:
            ended = True
            live = []
            for run, bad in zip(self.runs, diverged):
                if bad:
                    run.diverged_at = update
                    run.emit(update, eval_data)
                else:
                    live.append(run)
        if update % config.eval_interval == 0 or update == self.total_steps:
            for run in live:
                run.emit(update, eval_data)
        return ended

    def charge(self) -> None:
        """Add each run's share of the time measured so far to its
        `measured_seconds`."""
        shared = self.shared_seconds / len(self.runs)
        for ladder in self.ladders:
            own = ladder.seconds / len(ladder.runs)
            for run in ladder.runs:
                run.measured_seconds += shared + own


def train_lockstep(
    configs: list[TrainConfig],
    sampler,
    eval_data: rbm.DistinctRows | None = None,
) -> list[TrainResult]:
    """Train one run per config, as `train` would, advancing the runs
    together: `configs` must share their `lockstep_key`, so they may
    differ only in their seed, algorithm, ladder length, initial ladder and
    adaptation settings. A ValueError names the first setting that differs.

    Each update runs the minibatch draw and the gradient step once over all
    the runs, and the Gibbs sweep and the energies once per ladder length,
    while every run keeps its own generator, swap decisions, ladder
    bookkeeping and, for `sml-apt`, its own respacing and spawn checks, so
    each result has the bits `train` gives its config alone. A run that
    diverges stops; after any spawn or divergence the live runs re-form one
    `_Lockstep`, so a run whose ladder grows joins the runs of its new
    length. `sampler` must also take a list of N generators and return an
    (N, n, num_visible) stack, as `dataset.BatchSampler` does. Returns the
    runs it stepped, in the order of `configs`.
    """
    if not configs:
        raise ValueError("train_lockstep needs at least one config")
    shared = configs[0]
    key = lockstep_key(shared)
    for config in configs[1:]:
        for (name, want), (_, got) in zip(key, lockstep_key(config)):
            if got != want:
                raise ValueError(f"lockstep runs must share their {name}: {want!r} and {got!r}")
    num_visible = sampler.num_visible
    runs = [TrainResult.start(config, num_visible) for config in configs]
    for run in runs:
        run.emit(0, eval_data)
    lockstep = _Lockstep(runs)
    for update in range(1, shared.num_updates + shared.post_sampling_steps + 1):
        if lockstep.step(update, sampler, eval_data):
            lockstep.charge()
            live = [run for run in runs if run.diverged_at is None]
            if not live:
                return runs
            lockstep = _Lockstep(live)
    lockstep.charge()
    return runs


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
