"""One workload process: set up the program on the generated inputs, run the
workload's unit of work repeatedly for the given time, check the outputs and
write a result file. Started by run.py, one fresh process per workload.

Usage (from the repository root):
    python3 perfbench/worker.py --inputs DIR --spawned-at T --seconds S --trace 0|1
    python3 perfbench/worker.py --inputs DIR --spawned-at T --setup-only

T is time.monotonic() in the parent just before it started this process, so
the set-up time covers interpreter start, `import rbmpt` and building the
inputs through the program.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import FUNCTION_NAMES, Tracer

# The documented metrics CSV header; every run must write exactly this.
CSV_HEADER = ["update_index", "wall_clock_seconds", "train_loglik", "tau_hat",
              "avg_swap_rate", "num_chains", "betas", "fup", "pair_swap_rates"]
LOGLIK_TOLERANCE = 1e-9
REFERENCE_SUM_TOLERANCE = 1e-12


def _pin(cpu: int | None) -> None:
    """Run on one CPU only (before BLAS loads, so it starts one thread)."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


class Calibration:
    """A fixed kernel timed around every repetition to measure how much the
    CPU is slowed at that moment.

    The CPUs may be shared with other tenants; each can be slowed, at times
    by 2x for tens of seconds and independently of the other, without any
    steal time showing. The kernel mixes the two kinds of work an update
    does: interpreter and small-numpy dispatch, and a BLAS product with a
    vectorised logistic.
    """

    # Kernel seconds on an uncontended CPU of the reference machine (Intel
    # Xeon, 2 vCPUs, Python 3.11, numpy 2.4, OpenBLAS 0.3.31), estimated from
    # its quietest timings; normalised times are in µs on such a CPU.
    REFERENCE_S = 5.5e-3

    def __init__(self):
        import numpy as np
        from scipy.special import expit

        rng = np.random.default_rng(0)
        self.expit = expit
        self.small = rng.random((4, 8))
        self.weights = rng.random((10, 784))
        self.batch = rng.random((784, 200))
        self._time()  # the first run also pays for lazy allocation in numpy and BLAS

    def __call__(self) -> float:
        """Current slowdown: the median of three kernel timings over the
        uncontended time."""
        return statistics.median(self._time() for _ in range(3)) / self.REFERENCE_S

    def _time(self) -> float:
        small, weights, batch, expit = self.small, self.weights, self.batch, self.expit
        started = time.perf_counter()
        x = 0
        for i in range(3000):
            small @ small.T
            x += i * 3 % 7
        for _ in range(20):
            expit(weights @ batch)
        return time.perf_counter() - started


def _import_program(root: Path) -> None:
    """Import rbmpt from this checkout's src/, never from anywhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import rbmpt

    if Path(rbmpt.__file__).resolve().parent != (src / "rbmpt").resolve():
        raise ImportError(f"rbmpt imported from {rbmpt.__file__}, not from {src}")


def _read_csv(path: Path, problems: list[str]) -> tuple[dict | None, str | None]:
    """Last row of a metrics CSV as a dict, and the file's sha256."""
    if not path.is_file():
        problems.append(f"{path.name}: metrics CSV missing")
        return None, None
    raw = path.read_bytes()
    rows = list(csv.reader(io.StringIO(raw.decode())))
    if not rows or rows[0] != CSV_HEADER:
        problems.append(f"{path.name}: header {rows[0] if rows else None} != {CSV_HEADER}")
        return None, hashlib.sha256(raw).hexdigest()
    if len(rows) < 2:
        problems.append(f"{path.name}: no metrics rows")
        return None, hashlib.sha256(raw).hexdigest()
    return dict(zip(CSV_HEADER, rows[-1])), hashlib.sha256(raw).hexdigest()


def _run_outcome(name, last, digest, *, tempered, adaptive, spawns, failed) -> dict:
    outcome = {"name": name, "failed": failed or last is None, "sweeps": 0,
               "tempered": tempered, "adaptive": adaptive, "spawns": spawns,
               "sha256": digest}
    if last is not None:
        loglik = last["train_loglik"]
        outcome.update(
            sweeps=int(last["update_index"]),
            final_loglik=None if loglik == "n/a" else float(loglik),
            tau_hat=float(last["tau_hat"]),
            avg_swap_rate=float(last["avg_swap_rate"]),
            num_chains=int(last["num_chains"]),
        )
    return outcome


def _check_loglik(name, outcome, params, eval_data, rbm, problems) -> None:
    """The CSV's final likelihood must match a recomputation from the final
    parameters on the same snapshot."""
    if outcome["failed"] or outcome.get("final_loglik") is None:
        return
    recomputed = rbm.exact_log_likelihood(params, eval_data)
    if abs(recomputed - outcome["final_loglik"]) > LOGLIK_TOLERANCE:
        problems.append(
            f"{name}: final loglik {outcome['final_loglik']!r} != recomputed {recomputed!r}"
        )


class GridCi:
    """The ci comparison grid through `rbmpt grid --plan ... --jobs 1`."""

    def __init__(self, spec, inputs: Path, problems):
        from rbmpt import cli, experiment, rbm

        self.cli, self.rbm, self.problems = cli, rbm, problems
        self.plan_path = inputs / spec["plan"]
        plan = experiment.load_plan(self.plan_path)
        _, self.eval_data = experiment.build_dataset(plan.data)
        self.runs = [(run.label, seed, run.config.algorithm)
                     for run in plan.runs for seed in run.seeds]

    def rep(self, out: Path, verify: bool) -> tuple[float, list[dict], dict]:
        started = time.perf_counter()
        try:
            code = self.cli.main(["grid", "--plan", str(self.plan_path), "--jobs", "1",
                                  "--out", str(out)])
        except Exception as exc:  # a crash counts every planned run as failed
            code = repr(exc)
        elapsed = time.perf_counter() - started
        if code != 0:
            self.problems.append(f"rbmpt grid returned {code}")
        outcomes = []
        for label, seed, algorithm in self.runs:
            stem = f"{label}__seed{seed}"
            last, digest = _read_csv(out / f"{stem}.csv", self.problems)
            sidecar_path = out / f"{stem}.json"
            sidecar = json.loads(sidecar_path.read_text()) if sidecar_path.is_file() else {}
            outcome = _run_outcome(
                stem, last, digest, tempered=algorithm != "sml",
                adaptive=algorithm == "sml-apt",
                spawns=len(sidecar.get("spawn_events", [])),
                failed=code != 0 or not sidecar or sidecar.get("diverged_at") is not None,
            )
            if verify and (out / f"{stem}.rbm").is_file():
                params = self.rbm.load_params(out / f"{stem}.rbm")
                _check_loglik(stem, outcome, params, self.eval_data, self.rbm, self.problems)
            outcomes.append(outcome)
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        return elapsed, outcomes, {"experiment.bytes_written": written}


class SingleRun:
    """One run driven through training.train (full-pt50, apt-grow)."""

    def __init__(self, spec, inputs: Path, problems):
        from rbmpt import dataset, experiment, rbm, training

        self.training, self.rbm, self.problems = training, rbm, problems
        config = json.loads((inputs / spec["config"]).read_text())
        self.config = experiment.config_from_dict(config)
        data = experiment.DatasetSettings(**json.loads((inputs / spec["dataset"]).read_text()))
        mixture, self.eval_data = experiment.build_dataset(data)
        self.sampler = dataset.BatchSampler(mixture)

    def rep(self, out: Path, verify: bool) -> tuple[float, list[dict], dict]:
        started = time.perf_counter()
        try:
            result = self.training.train(self.config, self.sampler, eval_data=self.eval_data)
        except Exception as exc:
            elapsed = time.perf_counter() - started
            self.problems.append(f"training.train raised {exc!r}")
            return elapsed, [_run_outcome("run", None, None, tempered=False, adaptive=False,
                                          spawns=0, failed=True)], {}
        elapsed = time.perf_counter() - started
        self.training.write_metrics_csv(out / "run.csv", result.metrics)
        last, digest = _read_csv(out / "run.csv", self.problems)
        outcome = _run_outcome(
            "run", last, digest, tempered=self.config.algorithm != "sml",
            adaptive=self.config.algorithm == "sml-apt", spawns=len(result.spawn_events),
            failed=result.diverged_at is not None,
        )
        if verify:
            _check_loglik("run", outcome, result.params, self.eval_data, self.rbm, self.problems)
        return elapsed, [outcome], {}


class SamplerTiny:
    """DEO sweeps on a frozen 4x3 model; the beta = 1 slot's visible
    histogram is compared with the exact marginal."""

    def __init__(self, spec, inputs: Path, problems):
        import numpy as np
        from rbmpt import adaptation, rbm, tempering

        self.np, self.tempering, self.adaptation = np, tempering, adaptation
        self.problems = problems
        record = json.loads((inputs / spec["params"]).read_text())
        self.params = rbm.RbmParams(np.array(record["weights"]), np.array(record["hidden_bias"]),
                                    np.array(record["visible_bias"]))
        self.betas = np.array(spec["betas"])
        self.sweeps = spec["sweeps"]
        self.ensemble_seed, self.sweep_seed = spec["ensemble_seed"], spec["sweep_seed"]
        nv = self.params.num_visible
        states = ((np.arange(2**nv)[:, None] >> np.arange(nv)) & 1).astype(np.float64)
        self.exact = np.exp(-rbm.free_energy(self.params, states)
                            - rbm.exact_log_partition(self.params))
        if abs(self.exact.sum() - 1.0) > REFERENCE_SUM_TOLERANCE:
            problems.append(f"exact visible marginal sums to {self.exact.sum()!r}, not 1")
        self.new_ensemble()  # each repetition starts from a fresh copy of this

    def new_ensemble(self):
        params = self.params
        return self.tempering.Ensemble.create(
            self.betas, params.num_visible, params.num_hidden,
            self.np.random.default_rng(self.ensemble_seed))

    def rep(self, out: Path, verify: bool) -> tuple[float, list[dict], dict]:
        np = self.np
        ensemble = self.new_ensemble()
        rng = np.random.default_rng(self.sweep_seed)
        sweep = self.tempering.deo_sweep
        params = self.params
        place = 1 << np.arange(params.num_visible)
        counts = np.zeros(self.exact.shape[0])
        block = np.empty((4096, params.num_visible))
        fill = 0
        started = time.perf_counter()
        for _ in range(self.sweeps):
            sweep(ensemble, params, 1, rng)
            block[fill] = ensemble.visible[0]
            fill += 1
            if fill == block.shape[0]:
                counts += np.bincount((block @ place).astype(int), minlength=counts.shape[0])
                fill = 0
        counts += np.bincount((block[:fill] @ place).astype(int), minlength=counts.shape[0])
        elapsed = time.perf_counter() - started
        digest = hashlib.sha256(counts.tobytes() + ensemble.betas.tobytes()
                                + repr(ensemble.tau_hat).encode()).hexdigest()
        outcome = {
            "name": "sampler", "failed": False, "sweeps": self.sweeps, "tempered": True,
            "adaptive": False, "spawns": 0, "sha256": digest,
            "tau_hat": float(ensemble.tau_hat),
            "avg_swap_rate": self.adaptation.average_swap_rate(ensemble),
            "num_chains": ensemble.num_chains,
            "cold_tv": 0.5 * float(np.abs(counts / self.sweeps - self.exact).sum()),
        }
        return elapsed, [outcome], {}


WORKLOADS = {"grid-ci": GridCi, "full-pt50": SingleRun, "apt-grow": SingleRun,
             "sampler-tiny": SamplerTiny}


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _summarize(outcomes: list[dict]) -> dict:
    """Workload-level figures from one repetition's run outcomes; each is
    fixed by the workload seed, so every repetition must give the same."""
    ok = [o for o in outcomes if not o["failed"]]
    logliks = [o["final_loglik"] for o in ok if o.get("final_loglik") is not None]
    tempered = [o for o in ok if o["tempered"]]
    adaptive = [o for o in ok if o["adaptive"]]
    return {
        "final_loglik": statistics.fmean(logliks) if logliks else None,
        "tau_hat": _median_or_none([o["tau_hat"] for o in tempered]),
        "cold_tv": _median_or_none([o.get("cold_tv") for o in ok]),
        "tempering.avg_swap_rate": (statistics.fmean([o["avg_swap_rate"] for o in tempered])
                                    if tempered else 0.0),
        "adaptation.spawns": sum(o["spawns"] for o in outcomes),
        "adaptation.chains_final": (statistics.fmean([o["num_chains"] for o in adaptive])
                                    if adaptive else 0.0),
        "sha256": {o["name"]: o["sha256"] for o in outcomes},
    }


def _layer_metrics(traced: list[tuple], problems: list[str]) -> dict:
    """Per-function calls (per repetition), mean self time and share of the
    traced wall time, plus the counts computed at call boundaries."""
    wall = sum(elapsed for elapsed, _, _, _ in traced)
    calls, self_s, counts = Counter(), Counter(), Counter()
    for _, c, s, k in traced:
        calls.update(c)
        self_s.update(s)
        counts.update(k)
    if any(c != traced[0][1] for _, c, _, _ in traced):
        problems.append("call counts differ between traced repetitions")
    reps = len(traced)
    metrics = {}
    for name in FUNCTION_NAMES:
        n = calls[name]
        metrics[f"{name}.calls"] = n // reps
        metrics[f"{name}.self_us"] = self_s[name] / n * 1e6 if n else 0.0
        metrics[f"{name}.share"] = self_s[name] / wall
    for name in ("rbm.gibbs_sweep_chains", "rbm.energies"):
        n = calls[name]
        metrics[f"{name}.macs"] = counts[f"{name}.macs"] / n if n else 0.0
    gibbs_us = self_s["rbm.gibbs_sweep_chains"] * 1e6
    metrics["rbm.gibbs_sweep_chains.mac_per_us"] = (
        counts["rbm.gibbs_sweep_chains.macs"] / gibbs_us if gibbs_us else 0.0)
    deo = calls["tempering.deo_sweep"]
    metrics["tempering.chains_mean"] = counts["tempering.deo_sweep.chains"] / deo if deo else 0.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--spawned-at", required=True, type=float)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpu-index", type=int, default=0,
                        help="which allowed CPU to start on (set-up probes alternate)")
    args = parser.parse_args(argv)

    # Set-up probes and repetitions alternate over the allowed CPUs, so that
    # one slowed CPU does not decide a whole run.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]
    _pin(cpus[args.cpu_index % len(cpus)])
    _import_program(Path.cwd())
    spec = json.loads((args.inputs / "spec.json").read_text())
    problems: list[str] = []
    workload = WORKLOADS[spec["workload"]](spec, args.inputs, problems)
    setup_s = time.monotonic() - args.spawned_at
    calibrate = Calibration()
    slowdown = calibrate()
    result = {"setup_s": setup_s / slowdown, "raw_setup_s": setup_s}
    if args.setup_only:
        (args.inputs / "setup.json").write_text(json.dumps(result))
        return 0

    tracer = Tracer() if args.trace else None
    untraced_us, traced_us, raw_us, traced, outcomes_all = [], [], [], [], []
    first = None
    deadline = time.perf_counter() + args.seconds
    rep = 0
    while True:
        is_traced = tracer is not None and rep % 2 == 1
        # traced and untraced repetitions pair up on the same CPU
        _pin(cpus[(rep // (2 if tracer else 1)) % len(cpus)])
        out = args.inputs / f"rep{rep}"
        out.mkdir()
        before = calibrate()
        if is_traced:
            tracer.install()
        try:
            elapsed, outcomes, extra = workload.rep(out, verify=rep == 0)
        finally:
            if is_traced:
                tracer.uninstall()
        slowdown = (before + calibrate()) / 2
        shutil.rmtree(out)
        sweeps = sum(o["sweeps"] for o in outcomes)
        raw_us.append(elapsed / max(sweeps, 1) * 1e6)
        us = raw_us[-1] / slowdown
        summary = _summarize(outcomes)
        if first is None:
            first = dict(summary, **extra)
        elif any(first[key] != value for key, value in summary.items()):
            problems.append(f"repetition {rep} outputs differ from repetition 0")
        outcomes_all.extend(outcomes)
        if is_traced:
            if len(traced) == 0:
                tracer.write_spans(args.inputs / "spans.csv")
            calls, self_s, counts = tracer.fold()
            # self times in µs on an uncontended reference CPU, like us_per_update
            traced.append((elapsed / slowdown, calls,
                           Counter({k: v / slowdown for k, v in self_s.items()}), counts))
            traced_us.append(us)
        else:
            untraced_us.append(us)
        rep += 1
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break

    result.update(
        us_per_update=statistics.median(untraced_us),
        us_per_update_reps=untraced_us,
        raw_us_per_update=statistics.median(raw_us),
        attempted=len(outcomes_all),
        failed=sum(o["failed"] for o in outcomes_all),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        cpus=cpus,
        versions=_versions(),
        **first,
    )
    if tracer is not None:
        layer = _layer_metrics(traced, problems)
        for key in ("tempering.avg_swap_rate", "adaptation.spawns", "adaptation.chains_final"):
            layer[key] = first[key]
        # sidecars hold measured seconds, so the byte count varies by a few bytes
        layer["experiment.bytes_written"] = first.get("experiment.bytes_written", 0)
        layer["trace.us_per_update_traced"] = statistics.median(traced_us)
        layer["trace.overhead_share"] = (
            layer["trace.us_per_update_traced"] / result["us_per_update"] - 1.0)
        result.update(layer=layer, absent=tracer.absent, hook_errors=sorted(tracer.hook_errors))
    result["problems"] = problems
    (args.inputs / "result.json").write_text(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
