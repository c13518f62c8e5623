"""Experiment plans: batches of training runs sharing one synthetic dataset,
with per-run CSV metrics, per-label summaries, and a machine-readable
manifest.

A run is fully determined by its persisted settings: the dataset seed fixes
the mixture prototypes and the evaluation snapshot, the run seed fixes
everything else. Replicates of a label differ only in the run seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import os
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import rbm
from .adaptation import AdaptationConfig
from .training import (
    ALGO_SML,
    TrainConfig,
    TrainResult,
    lockstep_key,
    train_lockstep,
    write_metrics_csv,
)

logger = logging.getLogger(__name__)

# the format of the log records `rbmpt` prints, in the calling process and
# in every `--jobs N` worker
LOG_FORMAT = "%(levelname)s %(message)s"

MANIFEST_NAME = "manifest.json"

# Sub-stream tags under the dataset seed: prototypes vs evaluation snapshot.
_PROTO_STREAM = 0
_EVAL_STREAM = 1


@dataclass
class DatasetSettings:
    """Shared data configuration for every run in a plan."""

    image_side: int = 28
    data_seed: int = 0
    eval_size: int = 10_000

    def __post_init__(self):
        for name, low in (("image_side", 1), ("data_seed", 0), ("eval_size", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(f"{name}: expected an int >= {low}, got {value!r}")


@dataclass
class PlannedRun:
    """One labeled configuration executed once per replicate seed."""

    label: str
    config: TrainConfig
    seeds: list[int]


@dataclass
class ExperimentPlan:
    """Planned runs on one dataset; checks the runs list, each run's label
    (its artifacts' file-name stem) and seeds, and the output directory."""

    runs: list[PlannedRun]
    data: DatasetSettings = field(default_factory=DatasetSettings)
    output_dir: str = "."

    def __post_init__(self):
        runs = self.runs
        if type(runs) is not list or not runs or not all(isinstance(r, PlannedRun) for r in runs):
            raise ValueError(f"runs: expected a non-empty list of PlannedRun, got {runs!r}")
        for run in runs:
            label, seeds = run.label, run.seeds
            if type(label) is not str or not label or any(c in label for c in ("/", os.sep, "\0")):
                raise ValueError(f"label: expected a non-empty file name, got {label!r}")
            ints = type(seeds) is list and all(type(s) is int and s >= 0 for s in seeds)
            if not (ints and seeds and len(set(seeds)) == len(seeds)):
                raise ValueError(
                    f"seeds: expected a non-empty list of distinct ints >= 0, "
                    f"got {seeds!r} (run {label!r})"
                )
        labels = [run.label for run in runs]
        if len(set(labels)) != len(labels):
            raise ValueError("run labels must be unique")
        if type(self.output_dir) is not str:
            raise ValueError(f"output_dir: expected a str, got {self.output_dir!r}")


def _known(record, keys, where: str) -> dict:
    """`record`, once it is a dict whose every key is one of `keys`."""
    if type(record) is not dict:
        raise ValueError(f"{where}: expected a dict, got {record!r}")
    unknown = sorted(set(record) - set(keys))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")
    return record


def _read(record, cls, where: str):
    """The dataclass `cls` built from `record`, once every key names a field
    and every field without a default has a key; a field that is itself a
    dataclass is read from a nested record the same way. The values pass as
    they are, for `cls` to check."""
    fields = dataclasses.fields(cls)
    _known(record, [f.name for f in fields], where)
    unset = dataclasses.MISSING
    required = [f.name for f in fields if f.default is unset and f.default_factory is unset]
    missing = [repr(name) for name in required if name not in record]
    if missing:
        raise ValueError(f"{where}: expected key(s) {', '.join(missing)}")
    types = typing.get_type_hints(cls)
    return cls(**{
        key: _read(value, types[key], key) if dataclasses.is_dataclass(types[key]) else value
        for key, value in record.items()
    })


def config_from_dict(record: dict) -> TrainConfig:
    """The `TrainConfig` a config record describes; the record's shape is
    checked here, its values by `TrainConfig` and `AdaptationConfig`."""
    return _read(record, TrainConfig, "config")


def plan_from_dict(record: dict, output_dir: str = ".") -> ExperimentPlan:
    """The plan `record` describes; `output_dir` stands in for a missing
    'output_dir' key. Only the record's shape is checked here: dicts, key
    names, required keys, a 'runs' list, and no config 'seed' in a run;
    the settings objects and `ExperimentPlan` check every value."""
    _known(record, ("dataset", "output_dir", "runs"), "plan")
    data = _read(record.get("dataset", {}), DatasetSettings, "dataset")
    entries = record.get("runs", [])
    if type(entries) is not list:
        raise ValueError(f"runs: expected a list, got {entries!r}")
    runs = []
    for entry in entries:
        run = _read(entry, PlannedRun, "plan run")
        # each replicate seed replaces the config's, which would be ignored
        if "seed" in entry["config"]:
            raise ValueError(f"run {run.label!r}: a config 'seed' is ignored; list it in 'seeds'")
        runs.append(run)
    return ExperimentPlan(runs, data, record.get("output_dir", output_dir))


def load_plan(path, output_dir: str = ".") -> ExperimentPlan:
    with open(path) as fh:
        return plan_from_dict(json.load(fh), output_dir)


def build_dataset(data: DatasetSettings) -> tuple[ds.MixtureSpec, rbm.DistinctRows | None]:
    """Mixture spec and evaluation snapshot derived from the dataset seed; all
    runs of a plan share both. The snapshot is kept as its read-only distinct
    rows, packed eight pixels to a byte, with counts, which is all the exact
    likelihood reads of it."""
    spec = ds.default_spec(
        np.random.default_rng([data.data_seed, _PROTO_STREAM]), data.image_side
    )
    if data.eval_size > 0:
        rng = np.random.default_rng([data.data_seed, _EVAL_STREAM])
        eval_data = rbm.distinct_rows(ds.sample_bits(spec, rng, data.eval_size), spec.num_pixels)
    else:
        eval_data = None
    return spec, eval_data


def run_stem(label: str, seed: int) -> str:
    return f"{label}__seed{seed}"


@contextlib.contextmanager
def _replacing(path: Path):
    """A temp path beside `path` to write to; renamed over `path` once the
    block succeeds, so an interrupted write leaves the old file, or none,
    never a truncated one, and removed if the block raises."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, record: dict) -> None:
    with _replacing(path) as tmp, open(tmp, "w") as fh:
        json.dump(record, fh, indent=2)


def _train(group: list[PlannedRun], dataset) -> list[tuple[list[TrainResult], int]]:
    """Train the replicate seeds of `group` in one `train_lockstep` call;
    each planned run's results, one per seed, with the call's seed count."""
    spec, eval_data = dataset
    configs = [
        dataclasses.replace(planned.config, seed=seed)
        for planned in group
        for seed in planned.seeds
    ]
    started = time.perf_counter()
    results = iter(train_lockstep(configs, ds.BatchSampler(spec), eval_data=eval_data))
    elapsed = time.perf_counter() - started
    labels = ", ".join(planned.label for planned in group)
    logger.info("%s: %d seeds finished in %.1fs", labels, len(configs), elapsed)
    return [([next(results) for _ in planned.seeds], len(configs)) for planned in group]


def execute_run(
    group: list[PlannedRun], data: DatasetSettings, dataset, out_dir
) -> list[tuple[list[dict], str] | Exception]:
    """Train the replicate seeds of `group`, planned runs that share one
    `training.lockstep_key`, in one `train_lockstep` call on `dataset`, the
    `build_dataset(data)` pair. Then write each seed's artifacts and each
    label's summary, computed from the sidecar records in memory; returns
    each label's manifest entries and summary file name, in `group`'s
    order. Every seed's sidecar carries its own `measured_seconds`
    (`TrainResult.measured_seconds`) and the `group_size` of the call that
    trained it.

    When that call raises, each label of the group is trained again alone,
    so only a label that raises alone is lost: its place in the list holds
    its exception. A one-label group's exception propagates."""
    out_dir = Path(out_dir)
    try:
        trained = _train(group, dataset)
    except Exception:
        if len(group) == 1:
            raise
        labels = ", ".join(planned.label for planned in group)
        logger.warning("%s failed together; training each label alone", labels, exc_info=True)
        trained = []
        for planned in group:
            try:
                trained += _train([planned], dataset)
            except Exception as label_exc:
                trained.append(label_exc)
    return [
        outcome if isinstance(outcome, Exception)
        else _write_label(planned, *outcome, data, out_dir)
        for planned, outcome in zip(group, trained)
    ]


def _write_label(
    planned: PlannedRun,
    results: list[TrainResult],
    group_size: int,
    data: DatasetSettings,
    out_dir: Path,
) -> tuple[list[dict], str]:
    """Write the artifacts of `planned`'s trained `results`, one per seed,
    and the label's summary."""
    entries, sidecars = [], []
    for result in results:
        config = result.config
        stem = run_stem(planned.label, config.seed)
        csv_path = out_dir / f"{stem}.csv"
        params_path = out_dir / f"{stem}.rbm"
        sidecar_path = out_dir / f"{stem}.json"
        with _replacing(csv_path) as tmp:
            write_metrics_csv(tmp, result.metrics)
        with _replacing(params_path) as tmp:
            rbm.save_params(result.params, tmp)

        final = result.metrics[-1]
        sidecar = {
            "label": planned.label,
            "seed": config.seed,
            "config": dataclasses.asdict(config),
            "dataset": dataclasses.asdict(data),
            "final": {
                "update_index": final.update_index,
                "train_loglik": final.train_loglik,
                "tau_hat": final.tau_hat,
                "avg_swap_rate": final.avg_swap_rate,
                "num_chains": final.num_chains,
                "betas": final.betas,
                "fup": final.fup,
                "modeled_seconds": final.wall_clock_seconds,
            },
            "spawn_events": [dataclasses.asdict(ev) for ev in result.spawn_events],
            "saturated_spawn_checks": result.ensemble.saturated_checks,
            "diverged_at": result.diverged_at,
            "measured_seconds": result.measured_seconds,
            "group_size": group_size,
        }
        _write_json(sidecar_path, sidecar)
        sidecars.append(sidecar)
        entries.append(
            {
                "label": planned.label,
                "seed": config.seed,
                "csv": csv_path.name,
                "sidecar": sidecar_path.name,
                "params": params_path.name,
            }
        )
    summary_path = out_dir / f"{planned.label}__summary.json"
    _write_json(summary_path, summarize_label(planned.label, sidecars))
    return entries, summary_path.name


# One BLAS thread per pool worker: with one worker per CPU, BLAS's default
# of one thread per CPU in every worker oversubscribes the CPUs.
_WORKER_BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@contextlib.contextmanager
def _environment(settings: dict[str, str]):
    """Apply `settings` to os.environ, and restore the previous values on exit."""
    saved = {key: os.environ.get(key) for key in settings}
    os.environ.update(settings)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _init_worker(log_level: int) -> None:
    """Set up a spawned pool worker to log at the caller's root level, in `LOG_FORMAT`."""
    logging.basicConfig(level=log_level, format=LOG_FORMAT)


def _finite(values: list[float]) -> list[float]:
    return [v for v in values if v is not None and np.isfinite(v)]


def _sem(values: list[float]) -> float:
    clean = _finite(values)
    return float(np.std(clean, ddof=1) / np.sqrt(len(clean))) if len(clean) > 1 else 0.0


def _mean(values: list[float]) -> float | None:
    clean = _finite(values)
    return float(np.mean(clean)) if clean else None


def _median(values: list[float]) -> float | None:
    clean = _finite(values)
    return float(np.median(clean)) if clean else None


def summarize_label(label: str, sidecars: list[dict]) -> dict:
    """Across-seed summary of one label's final diagnostics.

    Diverged runs keep their seeds listed but contribute no finite final
    likelihood; the location statistics are over the surviving values.
    """
    logliks = [sc["final"]["train_loglik"] for sc in sidecars]
    diverged = [sc.get("diverged_at") is not None for sc in sidecars]
    # a diverged run's last likelihood is that of the parameters it stopped at
    surviving = [value for value, gone in zip(logliks, diverged) if not gone]
    taus = [sc["final"]["tau_hat"] for sc in sidecars]
    return {
        "label": label,
        "seeds": [sc["seed"] for sc in sidecars],
        "final_loglik": {
            "values": logliks,
            "mean": _mean(surviving),
            "stderr": _sem(surviving),
            "median": _median(surviving),
        },
        "tau_hat": {"values": taus, "mean": _mean(taus), "stderr": _sem(taus)},
        "num_chains_mean": _mean([sc["final"]["num_chains"] for sc in sidecars]),
        "measured_seconds_mean": _mean([sc["measured_seconds"] for sc in sidecars]),
        "modeled_seconds_mean": _mean(
            [sc["final"]["modeled_seconds"] for sc in sidecars]
        ),
        "diverged_seeds": [sc["seed"] for sc, gone in zip(sidecars, diverged) if gone],
    }


def _lockstep_groups(runs: list[PlannedRun], by_length: bool) -> list[list[PlannedRun]]:
    """`runs` split into sets that share one `training.lockstep_key` and,
    when `by_length`, one ladder length (1 for `sml`, else
    `initial_num_chains`), each in plan order, the sets in the order of
    their first label."""
    groups: dict[tuple, list[PlannedRun]] = {}
    for planned in runs:
        config = planned.config
        key = lockstep_key(config)
        if by_length:
            key = (key, 1 if config.algorithm == ALGO_SML else config.initial_num_chains)
        groups.setdefault(key, []).append(planned)
    return list(groups.values())


def run_experiment(plan: ExperimentPlan, jobs: int = 1) -> int:
    """Execute every run in the plan, then write the manifest.

    With jobs == 1 the planned runs whose configs share a
    `training.lockstep_key` form one `execute_run` task, which trains all
    their seeds in one `train_lockstep` call and writes their artifacts and
    each label's summary. With jobs > 1 the tasks are split further by
    ladder length, so the pool can share the load, and go to a pool of
    that many spawned worker processes, each with one BLAS thread; each
    task carries a copy of the dataset, and a script that calls this must
    guard its entry point with `if __name__ == "__main__":`. The dataset is
    built once, here, and every task trains on it. Both partitions write
    the same CSV and `.rbm` bytes.

    A label that raises, alone as well as in its task (see `execute_run`),
    or whose task raises as a whole, loses its seeds: their manifest
    entries record the error, every other label finishes and gets its
    summary, and once the manifest is written, in plan order, a
    RuntimeError names the failed labels.
    """
    out_dir = Path(plan.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    groups = _lockstep_groups(plan.runs, by_length=jobs > 1)
    dataset = build_dataset(plan.data)
    # per task: execute_run's list, or the exception the task raised
    outcomes: list[list[tuple[list[dict], str] | Exception] | Exception] = []
    if jobs > 1 and len(groups) > 1:
        # imported here, so a sequential run never loads the pool
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned workers are fresh interpreters, which read the BLAS thread
        # settings when they import numpy
        with _environment(_WORKER_BLAS_ENV), ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_worker,
            initargs=(logging.getLogger().level,),
        ) as pool:
            futures = [pool.submit(execute_run, g, plan.data, dataset, out_dir) for g in groups]
            for future in futures:
                try:
                    outcomes.append(future.result())
                except Exception as exc:
                    outcomes.append(exc)
    else:
        for group in groups:
            try:
                outcomes.append(execute_run(group, plan.data, dataset, out_dir))
            except Exception as exc:
                outcomes.append(exc)

    # each label's (entries, summary), or its exception or its task's
    by_label = {}
    for group, outcome in zip(groups, outcomes):
        if isinstance(outcome, Exception):
            outcome = [outcome] * len(group)
        for planned, label_outcome in zip(group, outcome):
            if isinstance(label_outcome, Exception):
                logger.error("%s failed", planned.label, exc_info=label_outcome)
            by_label[planned.label] = label_outcome

    entries = []
    summaries = {}
    failures = []
    for planned in plan.runs:
        outcome = by_label[planned.label]
        if isinstance(outcome, Exception):
            error = f"{type(outcome).__name__}: {outcome}"
            entries += [
                {"label": planned.label, "seed": seed, "error": error} for seed in planned.seeds
            ]
            failures.append(f"{planned.label} ({error})")
            continue
        run_entries, summaries[planned.label] = outcome
        entries += run_entries

    manifest = {
        "dataset": dataclasses.asdict(plan.data),
        "labels": [run.label for run in plan.runs],
        "runs": entries,
        "summaries": summaries,
    }
    _write_json(out_dir / MANIFEST_NAME, manifest)
    if failures:
        raise RuntimeError(
            f"{len(failures)} of {len(plan.runs)} planned runs failed: " + "; ".join(failures)
        )
    return 0


_TABLE_HEADER = (
    f"{'label':<28} {'loglik_mean':>12} {'loglik_sem':>11} "
    f"{'tau_rt':>10} {'chains':>7} {'wall_s':>9}"
)


def _fmt(value, width, digits=4) -> str:
    if value is None:
        return f"{'n/a':>{width}}"
    return f"{value:>{width}.{digits}f}"


def _read_record(path) -> dict:
    """The JSON object in `path`; a ValueError naming the path if the file
    holds anything else."""
    try:
        with open(path) as fh:
            record = json.load(fh)
    except ValueError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None
    if not isinstance(record, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(record).__name__}")
    return record


def summarize(output_dir, stream) -> int:
    """Print the per-label summary table; list missing files but still print
    whatever is available. `wall_s` is the mean over the label's seeds of
    each seed's measured seconds, the time `TrainResult.measured_seconds`
    charges it. A manifest or summary that cannot be read is a ValueError
    naming it."""
    out_dir = Path(output_dir)
    manifest_path = out_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {out_dir}")
    manifest = _read_record(manifest_path)
    labels, summaries = manifest.get("labels"), manifest.get("summaries")
    if not isinstance(labels, list) or not isinstance(summaries, dict):
        raise ValueError(f"{manifest_path}: expected a 'labels' list and a 'summaries' object")

    missing = []
    rows = []
    for label in labels:
        path = out_dir / summaries.get(label, f"{label}__summary.json")
        if not path.exists():
            missing.append(path.name)
            continue
        s = _read_record(path)
        try:
            rows.append(
                f"{s['label']:<28} {_fmt(s['final_loglik']['mean'], 12)} "
                f"{_fmt(s['final_loglik']['stderr'], 11)} "
                f"{_fmt(s['tau_hat']['mean'], 10, 1)} "
                f"{_fmt(s['num_chains_mean'], 7, 1)} "
                f"{_fmt(s['measured_seconds_mean'], 9, 1)}"
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: not a label summary ({exc!r})") from None
    for name in missing:
        print(f"missing: {name}", file=stream)
    print(_TABLE_HEADER, file=stream)
    for row in rows:
        print(row, file=stream)
    return 0


def comparison_plan(
    output_dir, scale: str = "full", num_seeds: int = 5, grid: bool = False
) -> ExperimentPlan:
    """The benchmark comparison: one persistent chain vs fixed ladders of
    10/20/50 chains vs the adaptive ladder started at 10 chains.

    With grid=False each algorithm appears once with default hyperparameters
    (five labels). With grid=True every (learning rate x beta learning rate)
    cell becomes its own label, for picking the best cell per algorithm.
    `scale` is "full" (28x28 images, 10 hidden units, 1e5 updates) or "ci"
    (8x8 images, 5 hidden units, 2e4 updates).
    """
    if scale == "full":
        data = DatasetSettings(image_side=28, data_seed=0, eval_size=10_000)
        shape = dict(num_hidden=10, num_updates=100_000, post_sampling_steps=20_000,
                     eval_interval=1000)
    elif scale == "ci":
        data = DatasetSettings(image_side=8, data_seed=0, eval_size=10_000)
        shape = dict(num_hidden=5, num_updates=20_000, post_sampling_steps=4_000,
                     eval_interval=500)
    else:
        raise ValueError("scale must be 'full' or 'ci'")
    seeds = list(range(num_seeds))

    def cfg(algorithm, chains, lr, beta_lr=1e-4):
        return TrainConfig(
            algorithm=algorithm,
            initial_num_chains=chains,
            learning_rate=lr,
            adaptation=AdaptationConfig(beta_learning_rate=beta_lr),
            **shape,
        )

    lrs, beta_lrs = ((1e-3, 1e-4), (1e-3, 1e-4, 1e-5)) if grid else ((1e-3,), (1e-4,))
    runs = []
    for lr in lrs:
        tag = f"--lr{lr:.0e}" if grid else ""
        runs.append(PlannedRun(f"sml{tag}", cfg("sml", 1, lr), seeds))
        for m in (10, 20, 50):
            runs.append(PlannedRun(f"sml-pt-{m}{tag}", cfg("sml-pt", m, lr), seeds))
        for beta_lr in beta_lrs:
            cell = f"{tag}--blr{beta_lr:.0e}" if grid else ""
            runs.append(PlannedRun(f"sml-apt{cell}", cfg("sml-apt", 10, lr, beta_lr), seeds))
    return ExperimentPlan(runs=runs, data=data, output_dir=str(output_dir))
