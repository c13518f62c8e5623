"""rbmpt benchmark: run one workload (or all four) and print its metrics.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload grid-ci --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 1

Each workload runs in fresh worker processes pinned to one CPU with one BLAS
thread. With --trace 0 the untraced end-to-end metrics are reported; with
--trace 1 a separate run wraps each layer's public functions and reports
per-layer calls, self time and counts. Human-readable lines come first; the
last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is 0 when every output check passed, 1 when one failed and 2
when the benchmark could not run (for example, no src/rbmpt here).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import FUNCTION_NAMES
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent

# Set-up is measured in several fresh processes, half before and half after
# the measuring process so that they sample the machine over the whole run;
# the first only warms the file cache and bytecode and is discarded.
SETUP_PROBES = 8
SETUP_TIMEOUT_S = 60.0
RUN_TIMEOUT_EXTRA_S = 100.0

# Gated end-to-end metrics: reported by every workload, never zero.
END_TO_END = {"setup_s": "s", "us_per_update": "us", "peak_rss_mb": "MiB"}
# Printed, not gated: "absent" on a workload that does not produce one.
REPORTED = {"raw_setup_s": "s", "raw_us_per_update": "us", "tau_hat": "sweeps", "final_loglik": "nats/example",
            "cold_tv": "fraction", "failed_share": "fraction"}

PER_LAYER = {}
for _name in FUNCTION_NAMES:
    PER_LAYER.update({f"{_name}.calls": "count", f"{_name}.self_us": "us",
                      f"{_name}.share": "fraction"})
PER_LAYER.update({
    "rbm.gibbs_sweep_chains.macs": "count",
    "rbm.energies.macs": "count",
    "rbm.gibbs_sweep_chains.mac_per_us": "1/us",
    "tempering.chains_mean": "count",
    "tempering.avg_swap_rate": "fraction",
    "adaptation.spawns": "count",
    "adaptation.chains_final": "count",
    "experiment.bytes_written": "B",
    "trace.us_per_update_traced": "us",
    "trace.overhead_share": "fraction",
})

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def _spawn(work: Path, extra: list[str], timeout: float, log_name: str) -> None:
    env = dict(os.environ, **BLAS_ENV)
    with open(work / log_name, "w") as log:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--inputs", str(work),
             "--spawned-at", repr(spawned_at), *extra],
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = f"timeout after {timeout:.0f}s"
        finally:
            if proc.poll() is None:  # timed out or interrupted: leave nothing running
                proc.kill()
                proc.wait()
    if code != 0:
        tail = (work / log_name).read_text()[-2000:]
        raise BenchError(f"worker {log_name} failed ({code}):\n{tail}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = Path.cwd() / ".perfbench_work" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = generate(name, seed, work)
        (work / "spec.json").write_text(json.dumps(spec))
        probes = [] if trace else list(range(SETUP_PROBES + 1))
        setups = []

        def probe(index):
            _spawn(work, ["--setup-only", "--cpu-index", str(index)], SETUP_TIMEOUT_S,
                   f"setup{index}.log")
            setups.append(json.loads((work / "setup.json").read_text()))

        for index in probes[: len(probes) // 2 + 1]:
            probe(index)
        _spawn(work, ["--seconds", str(seconds), "--trace", str(int(trace))],
               seconds + RUN_TIMEOUT_EXTRA_S, "run.log")
        result = json.loads((work / "result.json").read_text())
        for index in probes[len(probes) // 2 + 1:]:
            probe(index)
        if trace:
            out = Path.cwd() / ".perfbench_out"
            out.mkdir(exist_ok=True)
            shutil.copyfile(work / "spans.csv", out / f"{name}.spans.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups = setups[1:] + [{key: result[key] for key in ("setup_s", "raw_setup_s")}]
    for key in ("setup_s", "raw_setup_s"):
        result[key] = statistics.median(probe[key] for probe in setups)
    result["failed_share"] = result["failed"] / result["attempted"]
    return result


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def fingerprint(results: dict) -> dict:
    first = next(iter(results.values()))
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), **first["versions"],
            "blas_threads": BLAS_ENV, "cpus": first["cpus"],
            "git_commit": _git_commit(Path.cwd())}


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(name: str, result: dict, trace: bool) -> dict:
    """Print the workload's metrics by name and unit; return the gated ones."""
    print(f"== {name}  ({'traced' if trace else 'untraced'}; "
          f"{len(result['us_per_update_reps'])} untraced repetitions)")
    if trace:
        gated = {key: result["layer"][key] for key in PER_LAYER}
        for key, unit in PER_LAYER.items():
            print(f"  {key:<42} {_fmt(gated[key]):>14} {unit}")
        print(f"  absent functions: {result['absent'] or 'none'}")
        if result["hook_errors"]:
            print(f"  counts not computed (arguments changed): {result['hook_errors']}")
        units = PER_LAYER
    else:
        gated = {key: result[key] for key in END_TO_END}
        for key, unit in {**END_TO_END, **REPORTED}.items():
            print(f"  {key:<18} {_fmt(result.get(key)):>14} {unit}")
        print(f"  runs: {result['failed']} failed of {result['attempted']} attempted")
        units = END_TO_END
    print(f"  sha256: {json.dumps(result['sha256'], sort_keys=True)}")
    print(f"  checks: {'ok' if not result['problems'] else result['problems']}")
    return {key: {"value": value, "unit": units[key]} for key, value in gated.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rbmpt benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "rbmpt" / "__init__.py").is_file():
        print("perfbench: run from a checkout of the repository (no src/rbmpt here)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for name, result in results.items():
        gated = report(name, result, bool(args.trace))
        prefix = "" if len(results) == 1 else f"{name}."
        metrics.update({prefix + key: value for key, value in gated.items()})
    print("fingerprint: " + json.dumps(fingerprint(results), sort_keys=True))
    correct = all(not r["problems"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
