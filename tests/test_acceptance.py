"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them).

Criteria 4-7 share one comparison-grid campaign at the reduced scale (8x8
images, 5 hidden units, 2e4 updates + 4e3 pure-sampling sweeps, the full
learning-rate x beta-learning-rate cell grid, 5 seeds per cell) and judge
per-algorithm best cells by median final log-likelihood across seeds.
Everything is deterministic: seeds, dataset, and assertions are fixed ahead
of the run. Set RBMPT_ACCEPTANCE_CACHE=/some/dir to keep the campaign's
artifacts between invocations while iterating; it is rebuilt when absent or
when its fingerprint (a sha256 of the package source and the plan, stored
next to the manifest) differs.
"""

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from rbmpt import adaptation, rbm, tempering
from rbmpt.adaptation import AdaptationConfig
from rbmpt.cli import main as cli_main
from rbmpt.experiment import (
    DatasetSettings,
    build_dataset,
    comparison_plan,
    run_experiment,
)
from rbmpt.tempering import Ensemble
from rbmpt.training import TrainConfig, train
from rbmpt import dataset as ds

from metrics_io import read_metrics_csv
from oracles import (
    brute_data_moments,
    brute_joint_distribution,
    brute_log_partition,
    brute_model_moments,
    brute_visible_marginal,
    enumerate_bits,
    packed_distinct_rows,
    random_params,
    reference_energy,
    respaced,
    state_index,
    total_variation,
)

ALGOS = ("sml", "sml-pt-10", "sml-pt-20", "sml-pt-50", "sml-apt")

# Pinned ahead of the campaign: ">=" ordering comparisons allow the larger of
# 0.05 nats and the two cells' summed standard errors; ">>" demands at least
# a 0.3 nat median gap.
ORDER_SLACK_FLOOR = 0.05
STRICT_GAP = 0.3


def report(name: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared campaign

FINGERPRINT_NAME = "fingerprint.sha256"


def campaign_fingerprint(plan) -> str:
    """sha256 of the package's source files and of the plan: a cached
    campaign is reused only when both are unchanged."""
    digest = hashlib.sha256()
    for path in sorted(Path(rbm.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    digest.update(json.dumps(dataclasses.asdict(plan), sort_keys=True).encode())
    return digest.hexdigest()


@pytest.fixture(scope="session")
def grid_dir(tmp_path_factory) -> Path:
    cache = os.environ.get("RBMPT_ACCEPTANCE_CACHE")
    out = Path(cache) if cache else tmp_path_factory.mktemp("comparison_grid")
    plan = comparison_plan(out, scale="ci", num_seeds=5, grid=True)
    # one worker per CPU: TestParallelJobs shows the artifacts do not depend on it
    jobs = os.cpu_count() or 1
    if not cache:
        run_experiment(plan, jobs=jobs)
        return out
    fingerprint = campaign_fingerprint(plan)
    stamp = out / FINGERPRINT_NAME
    if (out / "manifest.json").exists() and stamp.exists() and stamp.read_text() == fingerprint:
        return out
    out.mkdir(parents=True, exist_ok=True)
    stamp.unlink(missing_ok=True)  # an interrupted rebuild must not pass as current
    run_experiment(plan, jobs=jobs)
    stamp.write_text(fingerprint)
    return out


def load_cells(grid_dir: Path) -> dict:
    manifest = json.loads((grid_dir / "manifest.json").read_text())
    cells = {}
    for label in manifest["labels"]:
        cells[label] = json.loads((grid_dir / f"{label}__summary.json").read_text())
    return cells


def best_cells(grid_dir: Path) -> dict:
    """Per algorithm: the hyperparameter cell with the best median final
    log-likelihood across its replicate seeds."""
    cells = load_cells(grid_dir)
    chosen = {}
    for algo in ALGOS:
        candidates = {
            label: s for label, s in cells.items()
            if label == algo or label.startswith(f"{algo}--")
        }

        def median_of(label):
            value = candidates[label]["final_loglik"]["median"]
            return -np.inf if value is None else value  # all-diverged cell

        label = max(candidates, key=median_of)
        chosen[algo] = candidates[label]
    return chosen


def seed_sidecars(grid_dir: Path, summary: dict) -> list[dict]:
    label = summary["label"]
    return [
        json.loads((grid_dir / f"{label}__seed{seed}.json").read_text())
        for seed in summary["seeds"]
    ]


def fup_linearity_deviation(fup: list[float]) -> float:
    fup = np.asarray(fup)
    m = len(fup)
    return float(np.abs(fup - (1.0 - np.arange(m) / (m - 1))).max())


# ---------------------------------------------------------------------------
# criterion 1: exactness oracles

def test_criterion_1a_partition_function():
    rng = np.random.default_rng(100)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        nv = int(rng.integers(1, 9))
        nh = int(rng.integers(1, min(12 - nv, 8) + 1))
        params = random_params(rng, nv, nh, scale=2.0)
        got = rbm.exact_log_partition(params)
        want = brute_log_partition(params)
        worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - started
    report(
        "criterion 1a (exact partition, 20 models)",
        worst <= 1e-10 and elapsed < 1.0,
        f"worst rel err {worst:.2e} (<=1e-10), runtime {elapsed:.2f}s (<1s)",
    )


def test_criterion_1b_gradient_check():
    rng = np.random.default_rng(101)
    step = 1e-5
    worst = 0.0
    for _ in range(10):
        nv = int(rng.integers(2, 6))
        nh = int(rng.integers(2, min(12 - nv, 5) + 1))
        params = random_params(rng, nv, nh, scale=1.0)
        data = (rng.random((3, nv)) < 0.5).astype(float)
        rows = packed_distinct_rows(data)

        ew, eh, ev = brute_model_moments(params)
        pos = [brute_data_moments(params, v) for v in data]
        analytic = {
            "weights": np.mean([g[0] for g in pos], axis=0) - ew,
            "hidden_bias": np.mean([g[1] for g in pos], axis=0) - eh,
            "visible_bias": np.mean([g[2] for g in pos], axis=0) - ev,
        }
        for attr, grad in analytic.items():
            arr = getattr(params, attr)
            fd = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + step
                hi = rbm.exact_log_likelihood(params, rows)
                arr[idx] = orig - step
                lo = rbm.exact_log_likelihood(params, rows)
                arr[idx] = orig
                fd[idx] = (hi - lo) / (2 * step)
            worst = max(worst, np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12))
    report(
        "criterion 1b (gradient vs finite differences, 10 models)",
        worst <= 1e-6,
        f"worst rel err {worst:.2e} (<=1e-6)",
    )


def test_criterion_1c_swap_ratio_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(5):
        params = random_params(rng, 2, 2, scale=1.5)
        beta_i = float(rng.uniform(0.5, 1.0))
        beta_j = float(rng.uniform(0.0, beta_i))
        pi = brute_joint_distribution(params, beta_i)
        pj = brute_joint_distribution(params, beta_j)
        v_all, h_all = enumerate_bits(2), enumerate_bits(2)
        for _ in range(40):
            vi, hi = v_all[rng.integers(4)], h_all[rng.integers(4)]
            vj, hj = v_all[rng.integers(4)], h_all[rng.integers(4)]
            ii = (state_index(hi), state_index(vi))
            jj = (state_index(hj), state_index(vj))
            want = min(1.0, (pi[jj] * pj[ii]) / (pi[ii] * pj[jj]))
            got = tempering.swap_ratio(
                reference_energy(params, vi, hi),
                reference_energy(params, vj, hj),
                beta_i,
                beta_j,
            )
            worst = max(worst, abs(got - want))
    report(
        "criterion 1c (swap ratio vs normalized Metropolis ratio)",
        worst <= 1e-12,
        f"worst abs err {worst:.2e} (<=1e-12)",
    )


# ---------------------------------------------------------------------------
# criterion 2: sampler correctness

def test_criterion_2_cold_chain_marginal():
    rng = np.random.default_rng(103)
    params = random_params(np.random.default_rng(104), 4, 3, scale=1.0)
    exact = brute_visible_marginal(params)
    ens = Ensemble.create(
        np.array([1.0, 0.6, 0.3, 0.0]), 4, 3, np.random.default_rng(105)
    )
    weights_v = 1 << np.arange(4)
    counts = np.zeros(16)
    sweeps = 1_000_000
    block = np.empty((4096, 4))
    fill = 0
    started = time.perf_counter()
    for _ in range(sweeps):
        tempering.deo_sweep(ens, params, 1, rng)
        block[fill] = ens.visible[0]
        fill += 1
        if fill == block.shape[0]:
            counts += np.bincount((block @ weights_v).astype(int), minlength=16)
            fill = 0
    counts += np.bincount((block[:fill] @ weights_v).astype(int), minlength=16)
    elapsed = time.perf_counter() - started
    tv = total_variation(counts / sweeps, exact)
    report(
        "criterion 2 (cold-slot visible marginal, 1e6 DEO sweeps)",
        tv <= 0.02 and elapsed < 60.0,
        f"TV {tv:.4f} (<=0.02), runtime {elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: respacing fixed point

def test_criterion_3_respacing():
    betas = np.array([1.0, 0.75, 0.5, 0.25, 0.0])
    linear = 1.0 - np.arange(5) / 4
    fixed_point_err = np.abs(respaced(betas, linear) - betas).max()

    worked = respaced(np.array([1.0, 0.5, 0.0]), np.array([1.0, 0.25, 0.0]))
    worked_err = abs(worked[1] - 0.6667)
    report(
        "criterion 3 (equal-mass respacing)",
        fixed_point_err <= 1e-9 and worked_err <= 1e-4 + 1e-6,
        f"fixed-point err {fixed_point_err:.2e} (<=1e-9), "
        f"worked example beta'_2 = {worked[1]:.6f} (0.6667 +- 1e-6 of 2/3)",
    )
    assert worked[1] == pytest.approx(2 / 3, abs=1e-6)


# ---------------------------------------------------------------------------
# criterion 4: comparison-grid ordering

def test_criterion_4_likelihood_ordering(grid_dir):
    chosen = best_cells(grid_dir)
    med = {a: chosen[a]["final_loglik"]["median"] for a in ALGOS}
    sem = {a: chosen[a]["final_loglik"]["stderr"] for a in ALGOS}

    def at_least(a, b):
        return med[a] >= med[b] - max(ORDER_SLACK_FLOOR, sem[a] + sem[b])

    ordering = (
        at_least("sml-apt", "sml-pt-50")
        and at_least("sml-pt-50", "sml-pt-20")
        and at_least("sml-pt-20", "sml-pt-10")
    )
    sml_gap = med["sml-pt-10"] - med["sml"]
    detail = ", ".join(
        f"{a}={med[a]:.3f} ({chosen[a]['label']})" for a in ALGOS
    )
    report(
        "criterion 4 (median final log-likelihood ordering, reduced scale)",
        ordering and sml_gap >= STRICT_GAP,
        f"{detail}; plain-SML gap {sml_gap:.3f} (>= {STRICT_GAP})",
    )


# ---------------------------------------------------------------------------
# criterion 5: flow linearity

def test_criterion_5_fup_linearity(grid_dir):
    chosen = best_cells(grid_dir)
    apt_devs = [
        fup_linearity_deviation(sc["final"]["fup"])
        for sc in seed_sidecars(grid_dir, chosen["sml-apt"])
    ]
    pt_devs = [
        fup_linearity_deviation(sc["final"]["fup"])
        for sc in seed_sidecars(grid_dir, chosen["sml-pt-50"])
    ]
    apt_med = float(np.median(apt_devs))
    pt_med = float(np.median(pt_devs))

    # mechanism check on a frozen landscape: the adapted ladder's
    # time-averaged flow must be linear, and more linear than the fixed
    # ladder's, independent of single-snapshot estimator noise
    label = chosen["sml-apt"]["label"]
    seed = chosen["sml-apt"]["seeds"][0]
    params = rbm.load_params(grid_dir / f"{label}__seed{seed}.rbm")
    cfg = AdaptationConfig(beta_learning_rate=1e-3)
    time_avg = {}
    for adapt in (False, True):
        rng = np.random.default_rng(106)
        ens = Ensemble.create(
            np.linspace(1, 0, 10), params.num_visible, params.num_hidden,
            np.random.default_rng(107),
        )
        acc = np.zeros(10)
        total, tail = 20_000, 5_000
        for t in range(total):
            tempering.deo_sweep(ens, params, 1, rng)
            tempering.update_flow_histograms(ens)
            if adapt:
                adaptation.adapt_betas(ens, cfg)
            if t >= total - tail:
                acc += tempering.f_up(ens)
        time_avg[adapt] = fup_linearity_deviation(acc / tail)

    report(
        "criterion 5 (flow fraction linear in chain index)",
        apt_med <= 0.1
        and pt_med > 0.1
        and time_avg[True] <= 0.1
        and time_avg[True] < time_avg[False],
        f"adaptive median end-of-run dev {apt_med:.3f} (<=0.1), fixed-50 "
        f"{pt_med:.3f} (>0.1); frozen-landscape time-averaged dev "
        f"{time_avg[True]:.3f} adapted vs {time_avg[False]:.3f} fixed",
    )


# ---------------------------------------------------------------------------
# criterion 6: return time

def test_criterion_6_return_time(grid_dir):
    chosen = best_cells(grid_dir)
    apt_tau = float(np.median(chosen["sml-apt"]["tau_hat"]["values"]))
    pt_tau = float(np.median(chosen["sml-pt-50"]["tau_hat"]["values"]))
    report(
        "criterion 6 (adaptive return time <= fixed-50 return time)",
        apt_tau <= pt_tau,
        f"tau_hat median {apt_tau:.0f} (adaptive) vs {pt_tau:.0f} (fixed 50)",
    )


# ---------------------------------------------------------------------------
# criterion 7: swap-rate maintenance

def _burn_in_windows(sidecar: dict) -> list[tuple[int, int]]:
    burn = sidecar["config"]["adaptation"]["burn_in_sweeps"]
    return [
        (ev["update_index"], ev["update_index"] + burn)
        for ev in sidecar["spawn_events"]
    ]


def _qualifying(rows, sidecar, warmup):
    windows = _burn_in_windows(sidecar)
    for row in rows:
        if row.update_index <= warmup:
            continue
        if any(lo <= row.update_index <= hi for lo, hi in windows):
            continue
        yield row


def test_criterion_7_swap_rate_maintenance(grid_dir):
    chosen = best_cells(grid_dir)
    label = chosen["sml-apt"]["label"]
    floor = 0.4
    ok_points = 0
    all_points = 0
    conditional_ok = True
    for seed in chosen["sml-apt"]["seeds"]:
        rows = read_metrics_csv(grid_dir / f"{label}__seed{seed}.csv")
        sidecar = json.loads((grid_dir / f"{label}__seed{seed}.json").read_text())
        cfg = sidecar["config"]["adaptation"]
        warmup = cfg["spawn_check_interval"]
        spawn_updates = {ev["update_index"] for ev in sidecar["spawn_events"]}
        for row in _qualifying(rows, sidecar, warmup):
            all_points += 1
            if row.avg_swap_rate >= floor:
                ok_points += 1
            elif (
                row.update_index % cfg["spawn_check_interval"] == 0
                and row.num_chains < cfg["max_chains"]
            ):
                # a spawn check saw this dip and must have acted on it
                conditional_ok &= row.update_index in spawn_updates
    share = ok_points / all_points

    # stress start: two chains cannot hold the floor, so the spawner must be
    # seen acting on every dip a check point catches
    data = DatasetSettings(image_side=8, data_seed=0, eval_size=0)
    spec, _ = build_dataset(data)
    stress_cfg = TrainConfig(
        algorithm="sml-apt", learning_rate=1e-3, num_updates=20_000,
        minibatch_size=5, initial_num_chains=2, num_hidden=5,
        post_sampling_steps=4_000, eval_interval=500, seed=0,
        adaptation=AdaptationConfig(beta_learning_rate=1e-3, min_avg_swap_rate=floor),
    )
    result = train(stress_cfg, ds.BatchSampler(spec))
    spawn_updates = {ev.update_index for ev in result.spawn_events}
    windows = [
        (ev.update_index, ev.update_index + stress_cfg.adaptation.burn_in_sweeps)
        for ev in result.spawn_events
    ]
    stress_ok = len(result.spawn_events) >= 1
    for row in result.metrics:
        u = row.update_index
        if u <= stress_cfg.adaptation.spawn_check_interval:
            continue
        if any(lo <= u <= hi for lo, hi in windows):
            continue
        if (
            row.avg_swap_rate < floor
            and u % stress_cfg.adaptation.spawn_check_interval == 0
            and row.num_chains < stress_cfg.adaptation.max_chains
        ):
            stress_ok &= u in spawn_updates

    report(
        "criterion 7 (swap-rate floor maintained, spawning on dips)",
        share >= 0.95 and conditional_ok and stress_ok,
        f"rate >= {floor} at {100 * share:.1f}% of qualifying points (>=95%); "
        f"stress start spawned {len(result.spawn_events)} chains "
        f"({2} -> {result.ensemble.num_chains}), every checked dip acted on",
    )


# ---------------------------------------------------------------------------
# criterion 8: determinism

def test_criterion_8_byte_identical_metrics(tmp_path):
    args = [
        "train", "--algo", "sml-apt", "--chains", "5", "--hidden", "5",
        "--image-side", "8", "--lr", "1e-3", "--beta-lr", "1e-3",
        "--updates", "1500", "--post-steps", "200", "--eval-interval", "250",
        "--eval-size", "500", "--seed", "11",
    ]
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main([*args, "--out", str(out)]) == 0
        outs.append((out / "run__seed11.csv").read_bytes())
    report(
        "criterion 8 (byte-identical metrics CSV on rerun)",
        outs[0] == outs[1],
        f"two runs, {len(outs[0])} bytes each, identical={outs[0] == outs[1]}",
    )
