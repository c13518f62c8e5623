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
import multiprocessing
import os
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import rbm
from .adaptation import AdaptationConfig
from .training import TrainConfig, train, write_metrics_csv

logger = logging.getLogger(__name__)

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
        if self.image_side < 1:
            raise ValueError("image_side must be a positive integer")
        for name in ("data_seed", "eval_size"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass
class PlannedRun:
    """One labeled configuration executed once per replicate seed."""

    label: str
    config: TrainConfig
    seeds: list[int]


@dataclass
class ExperimentPlan:
    runs: list[PlannedRun]
    data: DatasetSettings = field(default_factory=DatasetSettings)
    output_dir: str = "."

    def __post_init__(self):
        if not self.runs:
            raise ValueError("a plan needs at least one run")
        labels = [run.label for run in self.runs]
        if len(set(labels)) != len(labels):
            raise ValueError("run labels must be unique")
        for run in self.runs:
            if not run.seeds:
                raise ValueError(f"a run needs at least one replicate seed ({run.label})")
            if len(set(run.seeds)) != len(run.seeds):
                raise ValueError(f"replicate seeds must be distinct ({run.label})")
            if any(seed < 0 for seed in run.seeds):
                raise ValueError(f"replicate seeds must be nonnegative ({run.label})")


def config_to_dict(config: TrainConfig) -> dict:
    return dataclasses.asdict(config)


def _typed(value, want: type, where: str):
    """`value` if its type is exactly `want`, so no bool passes for an int
    and no float for an int; an int passes, as a float, where a float is
    wanted. A ValueError naming `where` otherwise."""
    if want is float and type(value) is int:
        return float(value)
    if type(value) is not want:
        raise ValueError(f"{where}: expected {want.__name__}, got {value!r}")
    return value


def _fields(record: dict, cls, where: str) -> dict:
    """`record` as keyword arguments of the dataclass `cls`, once every key
    names a field and every value has its field's type."""
    _typed(record, dict, where)
    types = typing.get_type_hints(cls)
    unknown = sorted(set(record) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")
    return {
        key: _typed(value, types[key], f"{where} key {key!r}") for key, value in record.items()
    }


def config_from_dict(record: dict) -> TrainConfig:
    record = dict(_typed(record, dict, "config"))
    adaptation = record.pop("adaptation", None)
    if adaptation is None:
        adaptation = AdaptationConfig()
    else:
        adaptation = AdaptationConfig(**_fields(adaptation, AdaptationConfig, "adaptation"))
    return TrainConfig(adaptation=adaptation, **_fields(record, TrainConfig, "config"))


def plan_to_dict(plan: ExperimentPlan) -> dict:
    return {
        "dataset": dataclasses.asdict(plan.data),
        "output_dir": plan.output_dir,
        "runs": [
            {
                "label": run.label,
                "seeds": list(run.seeds),
                "config": config_to_dict(run.config),
            }
            for run in plan.runs
        ],
    }


def plan_from_dict(record: dict) -> ExperimentPlan:
    _typed(record, dict, "plan")
    data = DatasetSettings(**_fields(record.get("dataset", {}), DatasetSettings, "dataset"))
    runs = []
    for entry in _typed(record.get("runs", []), list, "plan key 'runs'"):
        _typed(entry, dict, "plan run")
        # a missing key reads as None, which no type check passes
        label = _typed(entry.get("label"), str, "run key 'label'")
        seeds = _typed(entry.get("seeds"), list, f"seeds of {label!r}")
        runs.append(
            PlannedRun(
                label=label,
                config=config_from_dict(entry.get("config")),
                seeds=[_typed(seed, int, f"seeds of {label!r}") for seed in seeds],
            )
        )
    output_dir = _typed(record.get("output_dir", "."), str, "plan key 'output_dir'")
    return ExperimentPlan(runs=runs, data=data, output_dir=output_dir)


def load_plan(path) -> ExperimentPlan:
    with open(path) as fh:
        return plan_from_dict(json.load(fh))


def build_dataset(data: DatasetSettings) -> tuple[ds.MixtureSpec, rbm.DistinctRows | None]:
    """Mixture spec and evaluation snapshot derived from the dataset seed; all
    runs of a plan share both. The snapshot is kept as its read-only distinct
    rows with counts, which is all the exact likelihood reads of it."""
    spec = ds.default_spec(
        np.random.default_rng([data.data_seed, _PROTO_STREAM]), data.image_side
    )
    if data.eval_size > 0:
        eval_data = rbm.distinct_rows(
            ds.sample_batch(
                spec, np.random.default_rng([data.data_seed, _EVAL_STREAM]), data.eval_size
            )
        )
    else:
        eval_data = None
    return spec, eval_data


def run_stem(label: str, seed: int) -> str:
    return f"{label}__seed{seed}"


def execute_run(label: str, config: TrainConfig, data: DatasetSettings, dataset, out_dir) -> dict:
    """Train one run on `dataset`, the `build_dataset(data)` pair, and persist
    its artifacts; returns the manifest entry."""
    out_dir = Path(out_dir)
    spec, eval_data = dataset
    started = time.perf_counter()
    result = train(config, ds.BatchSampler(spec), eval_data=eval_data)
    elapsed = time.perf_counter() - started

    stem = run_stem(label, config.seed)
    csv_path = out_dir / f"{stem}.csv"
    params_path = out_dir / f"{stem}.rbm"
    sidecar_path = out_dir / f"{stem}.json"
    write_metrics_csv(csv_path, result.metrics)
    rbm.save_params(result.params, params_path)

    final = result.metrics[-1]
    sidecar = {
        "label": label,
        "seed": config.seed,
        "config": config_to_dict(config),
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
        "diverged_at": result.diverged_at,
        "measured_seconds": elapsed,
    }
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2)
    logger.info(
        "run %s finished in %.1fs (final loglik %s)", stem, elapsed, final.train_loglik
    )
    return {
        "label": label,
        "seed": config.seed,
        "csv": csv_path.name,
        "sidecar": sidecar_path.name,
        "params": params_path.name,
    }


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


# (data settings, dataset, output directory) of a pool worker process
_worker_context: tuple = ()


def _init_worker(data: DatasetSettings, out_dir: Path) -> None:
    global _worker_context
    _worker_context = (data, build_dataset(data), out_dir)


def _worker(run: tuple[str, TrainConfig]) -> dict:
    data, dataset, out_dir = _worker_context
    return execute_run(*run, data, dataset, out_dir)


def _sem(values: list[float]) -> float:
    clean = [v for v in values if v is not None and np.isfinite(v)]
    if len(clean) < 2:
        return 0.0
    return float(np.std(clean, ddof=1) / np.sqrt(len(clean)))


def _mean(values: list[float]) -> float | None:
    clean = [v for v in values if v is not None and np.isfinite(v)]
    if not clean:
        return None
    return float(np.mean(clean))


def _median(values: list[float]) -> float | None:
    clean = [v for v in values if v is not None and np.isfinite(v)]
    if not clean:
        return None
    return float(np.median(clean))


def summarize_label(label: str, sidecars: list[dict]) -> dict:
    """Across-seed summary of one label's final diagnostics.

    Diverged runs keep their seeds listed but contribute no finite final
    likelihood; the location statistics are over the surviving values.
    """
    logliks = [sc["final"]["train_loglik"] for sc in sidecars]
    taus = [sc["final"]["tau_hat"] for sc in sidecars]
    return {
        "label": label,
        "seeds": [sc["seed"] for sc in sidecars],
        "final_loglik": {
            "values": logliks,
            "mean": _mean(logliks),
            "stderr": _sem(logliks),
            "median": _median(logliks),
        },
        "tau_hat": {"values": taus, "mean": _mean(taus), "stderr": _sem(taus)},
        "num_chains_mean": _mean([sc["final"]["num_chains"] for sc in sidecars]),
        "measured_seconds_mean": _mean([sc["measured_seconds"] for sc in sidecars]),
        "modeled_seconds_mean": _mean(
            [sc["final"]["modeled_seconds"] for sc in sidecars]
        ),
        "diverged_seeds": [
            sc["seed"] for sc in sidecars if sc.get("diverged_at") is not None
        ],
    }


def run_experiment(plan: ExperimentPlan, jobs: int = 1) -> int:
    """Execute every run in the plan and write summaries plus the manifest.

    With jobs > 1 the runs go to a pool of that many spawned worker
    processes, each with one BLAS thread; a script that calls this must
    guard its entry point with `if __name__ == "__main__":`.
    """
    out_dir = Path(plan.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    runs = [
        (planned.label, dataclasses.replace(planned.config, seed=seed))
        for planned in plan.runs
        for seed in planned.seeds
    ]

    # every run shares one dataset: built once here, or once per worker process
    if jobs > 1 and len(runs) > 1:
        # spawned workers are fresh interpreters, which read the BLAS thread
        # settings when they import numpy
        with _environment(_WORKER_BLAS_ENV), ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_worker,
            initargs=(plan.data, out_dir),
        ) as pool:
            entries = list(pool.map(_worker, runs))
    else:
        dataset = build_dataset(plan.data)
        entries = [
            execute_run(label, config, plan.data, dataset, out_dir) for label, config in runs
        ]

    summaries = {}
    for planned in plan.runs:
        sidecars = []
        for seed in planned.seeds:
            with open(out_dir / f"{run_stem(planned.label, seed)}.json") as fh:
                sidecars.append(json.load(fh))
        summary = summarize_label(planned.label, sidecars)
        summary_path = out_dir / f"{planned.label}__summary.json"
        with open(summary_path, "w") as fh:
            json.dump(summary, fh, indent=2)
        summaries[planned.label] = summary_path.name

    manifest = {
        "dataset": dataclasses.asdict(plan.data),
        "labels": [run.label for run in plan.runs],
        "runs": entries,
        "summaries": summaries,
    }
    with open(out_dir / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return 0


_TABLE_HEADER = (
    f"{'label':<28} {'loglik_mean':>12} {'loglik_sem':>11} "
    f"{'tau_rt':>10} {'chains':>7} {'wall_s':>9}"
)


def _fmt(value, width, digits=4) -> str:
    if value is None:
        return f"{'n/a':>{width}}"
    return f"{value:>{width}.{digits}f}"


def summarize(output_dir, stream) -> int:
    """Print the per-label summary table; list missing files but still print
    whatever is available."""
    out_dir = Path(output_dir)
    manifest_path = out_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {out_dir}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)

    missing = []
    rows = []
    for label in manifest["labels"]:
        path = out_dir / manifest["summaries"].get(label, f"{label}__summary.json")
        if not path.exists():
            missing.append(path.name)
            continue
        with open(path) as fh:
            s = json.load(fh)
        rows.append(
            f"{s['label']:<28} {_fmt(s['final_loglik']['mean'], 12)} "
            f"{_fmt(s['final_loglik']['stderr'], 11)} "
            f"{_fmt(s['tau_hat']['mean'], 10, 1)} "
            f"{_fmt(s['num_chains_mean'], 7, 1)} "
            f"{_fmt(s['measured_seconds_mean'], 9, 1)}"
        )
    for name in missing:
        print(f"missing: {name}", file=stream)
    print(_TABLE_HEADER, file=stream)
    for row in rows:
        print(row, file=stream)
    return 0


def comparison_plan(
    output_dir,
    scale: str = "full",
    num_seeds: int = 5,
    grid: bool = False,
    base: TrainConfig | None = None,
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
    if base is None:
        base = TrainConfig()
    seeds = list(range(num_seeds))

    def cfg(algorithm, chains, lr, beta_lr=None):
        adaptation = dataclasses.replace(
            base.adaptation,
            beta_learning_rate=(
                beta_lr if beta_lr is not None else base.adaptation.beta_learning_rate
            ),
        )
        return dataclasses.replace(
            base,
            algorithm=algorithm,
            initial_num_chains=chains,
            learning_rate=lr,
            adaptation=adaptation,
            **shape,
        )

    runs = []
    if not grid:
        runs.append(PlannedRun("sml", cfg("sml", 1, 1e-3), seeds))
        for m in (10, 20, 50):
            runs.append(PlannedRun(f"sml-pt-{m}", cfg("sml-pt", m, 1e-3), seeds))
        runs.append(PlannedRun("sml-apt", cfg("sml-apt", 10, 1e-3, 1e-4), seeds))
    else:
        for lr in (1e-3, 1e-4):
            tag = f"lr{lr:.0e}"
            runs.append(PlannedRun(f"sml--{tag}", cfg("sml", 1, lr), seeds))
            for m in (10, 20, 50):
                runs.append(
                    PlannedRun(f"sml-pt-{m}--{tag}", cfg("sml-pt", m, lr), seeds)
                )
            for beta_lr in (1e-3, 1e-4, 1e-5):
                runs.append(
                    PlannedRun(
                        f"sml-apt--{tag}--blr{beta_lr:.0e}",
                        cfg("sml-apt", 10, lr, beta_lr),
                        seeds,
                    )
                )
    return ExperimentPlan(runs=runs, data=data, output_dir=str(output_dir))
