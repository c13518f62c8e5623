"""Lockstep training: runs that share every array shape but the ladder
length, and the update schedule (one `training.lockstep_key`), share one
stacked replica axis, whatever their seed, sampler, ladder length, initial
ladder or adaptation settings, and every seed must come out with the bits
it gets alone."""

import dataclasses
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmpt import cli, dataset, experiment, rbm, tempering, training
from rbmpt.adaptation import AdaptationConfig
from rbmpt.training import TrainConfig

from oracles import (
    kernel_energies,
    packed_distinct_rows,
    random_params,
    reference_energies,
    same_bits,
)

# (chains or minibatch rows, visible, hidden) at the ci and full presets' sizes
SHAPES = {
    "ci-sml": (1, 64, 5),
    "ci-batch": (5, 64, 5),
    "ci-pt10": (10, 64, 5),
    "ci-pt50": (50, 64, 5),
    "full-sml": (1, 784, 10),
    "full-pt50": (50, 784, 10),
}


def stack_params(rng, replicas, nv, nh):
    """R random models, lone and as one stacked view of their rows."""
    lone = [random_params(rng, nv, nh, scale=1.5) for _ in range(replicas)]
    flat = np.stack([p.flat for p in lone])
    return lone, rbm.RbmParams.view(flat, nh, nv)


def binary(rng, shape):
    return (rng.random(shape) < 0.5).astype(np.float64)


@pytest.mark.parametrize("replicas", [1, 2, 5])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_stacked_matmul_matches_per_replica_products(replicas, shape):
    rows, nv, nh = shape
    rng = np.random.default_rng(70)
    weights = rng.standard_normal((replicas, nh, nv))
    visible, hidden = binary(rng, (replicas, rows, nv)), binary(rng, (replicas, rows, nh))
    ph, pv = visible @ weights.mT, hidden @ weights
    for r in range(replicas):
        assert same_bits(ph[r], visible[r] @ weights[r].T)
        assert same_bits(pv[r], hidden[r] @ weights[r])


@pytest.mark.parametrize("replicas", [1, 2, 5])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_stacked_kernels_match_lone_calls(replicas, shape):
    # at ci-pt10 a replica's visible phase has 640 entries, below the
    # vectorised logistic's threshold, while the stack's has 640 R
    m, nv, nh = shape
    rng = np.random.default_rng(71)
    lone, stacked = stack_params(rng, replicas, nv, nh)
    visible, hidden = binary(rng, (replicas, m, nv)), binary(rng, (replicas, m, nh))
    betas = np.stack([np.linspace(1.0, 0.0, m) if m > 1 else np.ones(1)] * replicas)

    draws = 2 * m * (nv + nh)
    uniforms = rbm.stacked_random([np.random.default_rng(s) for s in range(replicas)])((draws,))
    got = rbm.gibbs_sweep_chains(stacked, visible, hidden, betas, 2, uniforms)
    energies = kernel_energies(stacked, visible, hidden)
    conditional = rbm.hidden_conditional(stacked, visible)
    for r, params in enumerate(lone):
        want = rbm.gibbs_sweep_chains(
            params, visible[r], hidden[r], betas[r], 2, np.random.default_rng(r).random(draws)
        )
        assert same_bits(got[0][r], want[0]) and same_bits(got[1][r], want[1])
        assert same_bits(energies[r], kernel_energies(params, visible[r], hidden[r]))
        assert same_bits(energies[r], reference_energies(params, visible[r], hidden[r]))
        assert same_bits(conditional[r], rbm.hidden_conditional(params, visible[r]))


@pytest.mark.parametrize("steps", [1, 2])
@pytest.mark.parametrize("replicas", [1, 2, 5])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_kept_product_gives_the_recomputed_energies(replicas, shape, steps):
    # the swap energies take the Gibbs kernel's last visible pre-activation
    # hidden @ weights + visible_bias, kept at every size: they must be the
    # bits of the energies of a pre-activation computed afresh, and of the
    # term-by-term oracle, lone and per replica of a stack
    m, nv, nh = shape
    rng = np.random.default_rng(79)
    lone, stacked = stack_params(rng, replicas, nv, nh)
    visible, hidden = binary(rng, (replicas, m, nv)), binary(rng, (replicas, m, nh))
    betas = np.stack([np.linspace(1.0, 0.0, m) if m > 1 else np.ones(1)] * replicas)
    uniforms = rng.random((replicas, steps * m * (nv + nh)))
    v, h, kept = rbm.gibbs_sweep_chains(stacked, visible, hidden, betas, steps, uniforms.copy())
    assert same_bits(kept, h @ stacked.weights + stacked.visible_bias)
    got = rbm.energies(v, h, kept, stacked.hidden_bias.mT)
    assert same_bits(got, kernel_energies(stacked, v, h))
    for r, params in enumerate(lone):
        assert same_bits(got[r], reference_energies(params, v[r], h[r]))
        lone_v, lone_h, lone_kept = rbm.gibbs_sweep_chains(
            params, visible[r], hidden[r], betas[r], steps, uniforms[r]
        )
        assert same_bits(lone_kept, lone_h @ params.weights + params.visible_bias)
        lone_energies = rbm.energies(lone_v, lone_h, lone_kept, params.hidden_bias[:, None])
        assert same_bits(lone_energies, kernel_energies(params, lone_v, lone_h))
        assert same_bits(lone_energies, got[r])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6), st.integers(1, 128), st.integers(1, 100), st.integers(1, 25),
    st.integers(0, 2**32 - 1),
)
def test_one_energy_kernel_for_lone_batches_and_stacks(replicas, m, nv, nh, seed):
    # each replica of a stack, and the same states as a lone batch, must get
    # the bits of the term-by-term oracle
    rng = np.random.default_rng(seed)
    lone, stacked = stack_params(rng, replicas, nv, nh)
    visible, hidden = binary(rng, (replicas, m, nv)), binary(rng, (replicas, m, nh))
    got = kernel_energies(stacked, visible, hidden)
    assert got.shape == (replicas, m)
    for r, params in enumerate(lone):
        want = reference_energies(params, visible[r], hidden[r])
        assert same_bits(got[r], want)
        assert same_bits(kernel_energies(params, visible[r], hidden[r]), want)


@pytest.mark.parametrize("replicas", [1, 2, 5])
@pytest.mark.parametrize("nv, nh", [(64, 5), (784, 10)], ids=["ci", "full"])
def test_stacked_gradient_step_matches_lone_steps(replicas, nv, nh):
    rng = np.random.default_rng(72)
    lone, stacked = stack_params(rng, replicas, nv, nh)
    ensembles = [tempering.Ensemble.create(np.array([1.0, 0.0]), nv, nh, rng) for _ in lone]
    batch = binary(rng, (replicas, 5, nv))
    config = TrainConfig(learning_rate=0.05, num_hidden=nh)
    # the beta = 1 particles of each replica, (R, 1, nv)
    particles = tempering.EnsembleStack(ensembles).visible[:, :1]
    training.sml_update(stacked, batch, particles, config)
    for r, (params, ens) in enumerate(zip(lone, ensembles)):
        training.sml_update(params, batch[r], ens.visible[:1].copy(), config)
        assert same_bits(stacked.flat[r], params.flat)


def test_stacked_divergence_names_the_replica():
    rng = np.random.default_rng(73)
    lone, stacked = stack_params(rng, 3, 4, 2)
    stacked.flat[1, 0] = np.nan
    ensembles = tempering.EnsembleStack(
        [tempering.Ensemble.create(np.ones(1), 4, 2, rng) for _ in lone]
    )
    batch, particles = binary(rng, (3, 2, 4)), ensembles.visible[:, :1]
    with pytest.raises(training.DivergenceError) as err:
        training.sml_update(stacked, batch, particles, TrainConfig())
    assert err.value.diverged.tolist() == [False, True, False]


@pytest.mark.parametrize("replicas", [1, 3])
def test_stacked_minibatches_match_lone_draws(replicas):
    spec = dataset.default_spec(np.random.default_rng(74), image_side=8)
    got = dataset.sample_batch(spec, [np.random.default_rng(s) for s in range(replicas)], 5)
    assert got.shape == (replicas, 5, 64)
    for r in range(replicas):
        assert same_bits(got[r], dataset.sample_batch(spec, np.random.default_rng(r), 5))


def toy_sampler(width=6, seed=75):
    rng = np.random.default_rng(seed)
    prototypes = (rng.random((3, width)) < 0.5).astype(float)
    spec = dataset.MixtureSpec(prototypes, np.full(3, 1 / 3), np.array([0.05, 0.1, 0.2]))
    return dataset.BatchSampler(spec)


def toy_config(**kwargs):
    base = dict(
        learning_rate=1e-2, num_updates=60, post_sampling_steps=10, minibatch_size=4,
        initial_num_chains=4, num_hidden=3, eval_interval=10,
    )
    base.update(kwargs)
    return TrainConfig(**base)


# Each case has seeds that take different paths: in "sml-apt" some spawn
# and some do not, in "diverging" they diverge at different updates and
# one never does.
LOCKSTEP_CASES = {
    "sml": toy_config(algorithm="sml"),
    "sml-pt": toy_config(algorithm="sml-pt"),
    "sml-apt": toy_config(
        algorithm="sml-apt",
        learning_rate=0.2,
        initial_num_chains=3,
        num_hidden=4,
        adaptation=AdaptationConfig(
            beta_learning_rate=1e-2, min_avg_swap_rate=0.9, spawn_check_interval=5,
            burn_in_sweeps=5, max_chains=8,
        ),
    ),
    "diverging": toy_config(algorithm="sml-pt", learning_rate=9e5),
}
LOCKSTEP_SEEDS = (3, 5, 8, 13)


def files_of(result, tmp_path, name):
    csv_path, params_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.rbm"
    training.write_metrics_csv(csv_path, result.metrics)
    rbm.save_params(result.params, params_path)
    return csv_path.read_bytes(), params_path.read_bytes()


@pytest.mark.parametrize("case", LOCKSTEP_CASES, ids=LOCKSTEP_CASES.keys())
def test_lockstep_seed_matches_seed_alone(case, tmp_path):
    config, sampler = LOCKSTEP_CASES[case], toy_sampler()
    eval_data = packed_distinct_rows(sampler(np.random.default_rng(76), 32))
    configs = [dataclasses.replace(config, seed=seed) for seed in LOCKSTEP_SEEDS]
    together = training.train_lockstep(configs, sampler, eval_data=eval_data)
    for config, got in zip(configs, together):
        alone = training.train(config, sampler, eval_data=eval_data)
        name = f"seed{config.seed}"
        assert files_of(got, tmp_path, name + "-lockstep") == files_of(alone, tmp_path, name)
        assert got.spawn_events == alone.spawn_events
        assert got.diverged_at == alone.diverged_at
    # the seeds really took different paths
    if case == "sml-apt":
        spawns = {len(result.spawn_events) for result in together}
        assert 0 in spawns and len(spawns) > 1
    if case == "diverging":
        diverged = [result.diverged_at for result in together]
        assert None in diverged and len(set(diverged)) > 2


@pytest.mark.parametrize("case", ["sml-apt", "diverging"])
def test_lockstep_returns_each_run_with_its_own_cost(case):
    # runs that leave the stack (a spawn, a divergence) stop sharing its
    # cost; each run's last row reports the cost it carries
    configs = [dataclasses.replace(LOCKSTEP_CASES[case], seed=seed) for seed in LOCKSTEP_SEEDS]
    runs = training.train_lockstep(configs, toy_sampler())
    assert [run.config.seed for run in runs] == list(LOCKSTEP_SEEDS)
    for run in runs:
        modeled = run.work_units * training.MODELED_SECONDS_PER_UNIT
        assert modeled == run.metrics[-1].wall_clock_seconds
    assert len({run.work_units for run in runs}) > 1


def test_seeds_of_one_ladder_length_stack_again(monkeypatch):
    # a high swap floor, frequent checks and a budget of 4 chains: every
    # seed grows from 2 to 4 chains, at different updates, and the seeds
    # that share a length must train as one stack again
    config = toy_config(
        algorithm="sml-apt", learning_rate=0.2, initial_num_chains=2, num_updates=100,
        adaptation=AdaptationConfig(
            beta_learning_rate=1e-2, min_avg_swap_rate=0.99, spawn_check_interval=5,
            burn_in_sweeps=5, max_chains=4,
        ),
    )
    formed, ladder = [], training._Ladder

    def recording(runs, *args):
        formed.append((len(runs), runs[0].ensemble.num_chains))
        return ladder(runs, *args)

    monkeypatch.setattr(training, "_Ladder", recording)
    sampler = toy_sampler()
    eval_data = packed_distinct_rows(sampler(np.random.default_rng(76), 32))
    configs = [dataclasses.replace(config, seed=seed) for seed in LOCKSTEP_SEEDS]
    together = training.train_lockstep(configs, sampler, eval_data=eval_data)
    assert any(size >= 2 and length > 2 for size, length in formed)
    assert {len(run.spawn_events) for run in together} == {2}
    for config, got in zip(configs, together):
        alone = training.train(config, sampler, eval_data=eval_data)
        assert [row.to_csv_row() for row in got.metrics] == [
            row.to_csv_row() for row in alone.metrics
        ]
        assert same_bits(got.params.flat, alone.params.flat)


def test_lockstep_rejects_configs_that_differ_beyond_the_seed():
    configs = [toy_config(seed=1), toy_config(seed=2, learning_rate=0.5)]
    with pytest.raises(ValueError):
        training.train_lockstep(configs, toy_sampler())


@pytest.mark.parametrize(
    "other, setting",
    [
        (toy_config(seed=2, num_hidden=4), "num_hidden"),
        (toy_config(seed=2, post_sampling_steps=3), "post_sampling_steps"),
    ],
    ids=["num_hidden", "post_sampling_steps"],
)
def test_lockstep_rejection_names_the_setting(other, setting):
    with pytest.raises(ValueError, match=f"share their {setting}"):
        training.train_lockstep([toy_config(seed=1), other], toy_sampler())


@pytest.mark.parametrize(
    "other",
    [
        toy_config(seed=2, algorithm="sml-apt", initial_num_chains=5),
        toy_config(seed=2, algorithm="sml"),
    ],
    ids=["chains", "sml"],
)
def test_ladder_lengths_train_in_one_call(other, tmp_path):
    # a 4-chain run trains in one call with a run of another ladder length,
    # and each writes the bytes it writes alone
    configs = [toy_config(seed=1), other]
    sampler = toy_sampler()
    eval_data = packed_distinct_rows(sampler(np.random.default_rng(76), 32))
    together = training.train_lockstep(configs, sampler, eval_data=eval_data)
    for config, got in zip(configs, together):
        alone = training.train(config, sampler, eval_data=eval_data)
        name = f"seed{config.seed}"
        assert files_of(got, tmp_path, name + "-lockstep") == files_of(alone, tmp_path, name)


def test_lockstep_key_holds_no_ladder_length():
    # one chain, fixed ladders and adaptive ladders of any length share a
    # key; the learning rate still splits it
    key = training.lockstep_key(toy_config(algorithm="sml", initial_num_chains=7))
    for config in (
        toy_config(algorithm="sml"),
        toy_config(algorithm="sml-pt", initial_num_chains=1),
        toy_config(algorithm="sml-pt"),
        toy_config(algorithm="sml-apt", initial_num_chains=9),
    ):
        assert training.lockstep_key(config) == key
    assert "ladder length" not in dict(key)
    assert key != training.lockstep_key(toy_config(algorithm="sml", learning_rate=0.5))


def test_one_draw_and_one_gradient_step_per_learning_update(monkeypatch, tmp_path):
    # sml, a 3-chain sml-pt and a 2-chain sml-apt that spawns into 3 chains
    # train in one call: each learning update makes one sampler call and
    # one sml_update call for all three, the grown seed joins the 3-chain
    # ladder, and every seed writes the bytes it writes alone
    adaptation = AdaptationConfig(
        beta_learning_rate=1e-2, min_avg_swap_rate=0.99, spawn_check_interval=5,
        burn_in_sweeps=5, max_chains=3,
    )
    configs = [
        toy_config(algorithm="sml", learning_rate=0.2, seed=3),
        toy_config(algorithm="sml-pt", learning_rate=0.2, initial_num_chains=3, seed=5),
        toy_config(
            algorithm="sml-apt", learning_rate=0.2, initial_num_chains=2, seed=8,
            adaptation=adaptation,
        ),
    ]
    sampler = toy_sampler()
    eval_data = packed_distinct_rows(sampler(np.random.default_rng(76), 32))
    calls, ladders = {"sampler": 0, "sml_update": 0}, []
    sml_update, ladder = training.sml_update, training._Ladder

    class Counting:
        num_visible = sampler.num_visible

        def __call__(self, rngs, n):
            calls["sampler"] += 1
            return sampler(rngs, n)

    def counting_update(*args):
        calls["sml_update"] += 1
        return sml_update(*args)

    def recording(runs, *args):
        ladders.append(sorted(run.config.seed for run in runs))
        return ladder(runs, *args)

    monkeypatch.setattr(training, "sml_update", counting_update)
    monkeypatch.setattr(training, "_Ladder", recording)
    together = training.train_lockstep(configs, Counting(), eval_data=eval_data)
    monkeypatch.undo()
    updates = configs[0].num_updates
    assert calls == {"sampler": updates, "sml_update": updates}
    assert [len(run.spawn_events) for run in together] == [0, 0, 1]
    assert [run.ensemble.num_chains for run in together] == [1, 3, 3]
    assert ladders[:3] == [[3], [5], [8]] and [5, 8] in ladders
    for config, got in zip(configs, together):
        assert got.diverged_at is None
        alone = training.train(config, sampler, eval_data=eval_data)
        name = f"seed{config.seed}"
        assert files_of(got, tmp_path, name + "-lockstep") == files_of(alone, tmp_path, name)


# Four samplers of one lockstep key: a fixed linear ladder, an adaptive
# ladder that spawns, a fixed geometric ladder and a single chain; and a
# fifth label that differs from them only in its learning rate.
MIXED_LABELS = {
    "pt": dataclasses.replace(LOCKSTEP_CASES["sml-apt"], algorithm="sml-pt"),
    "apt": LOCKSTEP_CASES["sml-apt"],
    "geometric": dataclasses.replace(
        LOCKSTEP_CASES["sml-apt"], algorithm="sml-pt", initial_ladder="geometric"
    ),
    "single": dataclasses.replace(LOCKSTEP_CASES["sml-apt"], algorithm="sml"),
    "slower": dataclasses.replace(LOCKSTEP_CASES["sml-apt"], learning_rate=0.1),
}


def test_grid_groups_labels_by_lockstep_key(tmp_path):
    # seed s of a label trained in a group that spans labels and ladder
    # lengths writes the files it writes in a one-label, one-seed plan; the
    # labels that share a key train in one group, the one with another
    # learning rate alone, and each seed is charged its own time
    data = experiment.DatasetSettings(image_side=3, eval_size=20)
    together = experiment.ExperimentPlan(
        [experiment.PlannedRun(label, config, list(LOCKSTEP_SEEDS))
         for label, config in MIXED_LABELS.items()],
        data=data, output_dir=str(tmp_path / "together"),
    )
    assert experiment.run_experiment(together) == 0
    spawned, measured = [], {}
    for label, config in MIXED_LABELS.items():
        for seed in LOCKSTEP_SEEDS:
            alone = experiment.ExperimentPlan(
                [experiment.PlannedRun(label, config, [seed])],
                data=data, output_dir=str(tmp_path / f"{label}{seed}"),
            )
            assert experiment.run_experiment(alone) == 0
            stem = experiment.run_stem(label, seed)
            for suffix in ("csv", "rbm"):
                name = f"{stem}.{suffix}"
                assert (tmp_path / "together" / name).read_bytes() == (
                    tmp_path / f"{label}{seed}" / name
                ).read_bytes()
            sidecar = json.loads((tmp_path / "together" / f"{stem}.json").read_text())
            labels = 1 if label == "slower" else 4
            assert sidecar["group_size"] == labels * len(LOCKSTEP_SEEDS)
            assert sidecar["measured_seconds"] > 0.0
            measured.setdefault(labels, set()).add(sidecar["measured_seconds"])
            spawned.append(bool(sidecar["spawn_events"]))
    # no two seeds of a group share one figure
    assert [len(seconds) for seconds in measured.values()] == [16, 4]
    # some apt seeds left the stack by a spawn, and some stayed
    assert not any(spawned[:4]) and 0 < sum(spawned[4:8]) < 4
    manifest = json.loads((tmp_path / "together" / experiment.MANIFEST_NAME).read_text())
    assert [(e["label"], e["seed"]) for e in manifest["runs"]] == [
        (label, seed) for label in MIXED_LABELS for seed in LOCKSTEP_SEEDS
    ]


@pytest.mark.parametrize("case", ["sml", "sml-apt"])
def test_grid_seed_files_match_seed_alone(case, tmp_path):
    # through run_experiment: seed s in a group of four writes the files
    # it writes as a group of one
    config = LOCKSTEP_CASES[case]
    data = experiment.DatasetSettings(image_side=3, eval_size=20)
    together = experiment.ExperimentPlan(
        [experiment.PlannedRun("cell", config, list(LOCKSTEP_SEEDS))],
        data=data, output_dir=str(tmp_path / "together"),
    )
    assert experiment.run_experiment(together) == 0
    for seed in LOCKSTEP_SEEDS:
        alone = experiment.ExperimentPlan(
            [experiment.PlannedRun("cell", config, [seed])],
            data=data, output_dir=str(tmp_path / f"alone{seed}"),
        )
        assert experiment.run_experiment(alone) == 0
        for suffix in ("csv", "rbm"):
            name = f"cell__seed{seed}.{suffix}"
            assert (tmp_path / "together" / name).read_bytes() == (
                tmp_path / f"alone{seed}" / name
            ).read_bytes()
        sidecar = json.loads((tmp_path / "together" / f"cell__seed{seed}.json").read_text())
        assert sidecar["group_size"] == len(LOCKSTEP_SEEDS)
        assert sidecar["measured_seconds"] > 0.0


def test_each_seed_is_charged_its_own_time(tmp_path):
    # a 1-chain and a 50-chain label train in one call; each seed's
    # sidecar carries the time charged to it alone. The charges are
    # disjoint spans of the call, so they sum to no more than it, and they
    # leave out only set-up, the loop and the writes: at least half of it
    base = toy_config(num_updates=200, post_sampling_steps=0, eval_interval=50)
    group = [
        experiment.PlannedRun("one", dataclasses.replace(base, algorithm="sml"), [1, 2]),
        experiment.PlannedRun(
            "fifty", dataclasses.replace(base, algorithm="sml-pt", initial_num_chains=50), [1, 2]
        ),
    ]
    data = experiment.DatasetSettings(image_side=3, eval_size=20)
    dataset_pair = experiment.build_dataset(data)
    started = time.perf_counter()
    experiment.execute_run(group, data, dataset_pair, tmp_path)
    elapsed = time.perf_counter() - started
    seconds = {}
    for planned in group:
        for seed in planned.seeds:
            stem = experiment.run_stem(planned.label, seed)
            sidecar = json.loads((tmp_path / f"{stem}.json").read_text())
            assert sidecar["group_size"] == 4
            seconds[planned.label, seed] = sidecar["measured_seconds"]
    assert 0.5 * elapsed <= sum(seconds.values()) <= elapsed
    assert min(seconds["fifty", 1], seconds["fifty", 2]) > max(seconds["one", 1], seconds["one", 2])


class TestEvalDataType:
    def test_train_rejects_an_array(self):
        sampler = toy_sampler()
        with pytest.raises(TypeError, match="rbm.distinct_rows"):
            training.train(toy_config(), sampler, eval_data=sampler(np.random.default_rng(77), 8))

    def test_likelihood_rejects_an_array(self):
        params = random_params(np.random.default_rng(78), 4, 2)
        with pytest.raises(TypeError, match="rbm.distinct_rows"):
            rbm.exact_log_likelihood(params, np.eye(4))


def test_failing_label_keeps_the_other_labels(tmp_path, monkeypatch):
    out = tmp_path / "out"
    argv = [
        "grid", "--preset", "comparison", "--scale", "ci", "--num-seeds", "2",
        "--updates", "6", "--post-steps", "0", "--eval-interval", "3",
        "--image-side", "3", "--eval-size", "10", "--out", str(out),
    ]
    train_lockstep = experiment.train_lockstep

    def flaky(configs, *args, **kwargs):
        if any(config.initial_num_chains == 20 for config in configs):
            raise FloatingPointError("sml-pt-20 blew up")
        return train_lockstep(configs, *args, **kwargs)

    monkeypatch.setattr(experiment, "train_lockstep", flaky)
    assert cli.main(argv) == cli.RUNTIME_ERROR
    manifest = json.loads((out / experiment.MANIFEST_NAME).read_text())
    failed = [entry for entry in manifest["runs"] if "error" in entry]
    assert [(e["label"], e["seed"]) for e in failed] == [("sml-pt-20", 0), ("sml-pt-20", 1)]
    assert all("sml-pt-20 blew up" in e["error"] for e in failed)
    assert sorted(manifest["summaries"]) == ["sml", "sml-apt", "sml-pt-10", "sml-pt-50"]
    for label in manifest["summaries"]:
        assert (out / f"{label}__summary.json").exists()
        for seed in (0, 1):
            assert (out / f"{label}__seed{seed}.csv").exists()
    assert not list(out.glob("sml-pt-20*"))


def test_failing_group_fails_each_of_its_labels(tmp_path, monkeypatch):
    # every label shares one lockstep key, so all train in one call, which
    # fails; each label then trains alone, and only the two 10-chain labels,
    # sml-pt-10 and sml-apt, fail again
    out = tmp_path / "out"
    argv = [
        "grid", "--preset", "comparison", "--scale", "ci", "--num-seeds", "2",
        "--updates", "6", "--post-steps", "0", "--eval-interval", "3",
        "--image-side", "3", "--eval-size", "10", "--out", str(out),
    ]
    train_lockstep = experiment.train_lockstep
    groups = []

    def flaky(configs, *args, **kwargs):
        groups.append([(config.algorithm, config.initial_num_chains) for config in configs])
        if any(config.initial_num_chains == 10 for config in configs):
            raise FloatingPointError("the 10-chain group blew up")
        return train_lockstep(configs, *args, **kwargs)

    monkeypatch.setattr(experiment, "train_lockstep", flaky)
    assert cli.main(argv) == cli.RUNTIME_ERROR
    labels = [("sml", 1), ("sml-pt", 10), ("sml-pt", 20), ("sml-pt", 50), ("sml-apt", 10)]
    assert groups == [[label for label in labels for _ in (0, 1)]] + [[label] * 2 for label in labels]
    manifest = json.loads((out / experiment.MANIFEST_NAME).read_text())
    assert [e["label"] for e in manifest["runs"]] == [
        label for label in manifest["labels"] for _ in (0, 1)
    ]
    failed = [entry for entry in manifest["runs"] if "error" in entry]
    assert [(e["label"], e["seed"]) for e in failed] == [
        ("sml-pt-10", 0), ("sml-pt-10", 1), ("sml-apt", 0), ("sml-apt", 1)
    ]
    assert all("the 10-chain group blew up" in e["error"] for e in failed)
    assert sorted(manifest["summaries"]) == ["sml", "sml-pt-20", "sml-pt-50"]
    for label in manifest["summaries"]:
        assert (out / f"{label}__summary.json").exists()
        for seed in (0, 1):
            assert (out / f"{label}__seed{seed}.csv").exists()
    assert not list(out.glob("sml-pt-10*")) and not list(out.glob("sml-apt*"))


@pytest.mark.parametrize("eval_size", [20, 0], ids=["loglik", "no-loglik"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_grid_summary_is_the_sidecars_summary(jobs, eval_size, tmp_path):
    # each label's task writes its summary from the sidecar records it holds
    # in memory; the file must be what the sidecars give once read back
    labels = ("diverging", "sml-apt")
    plan = experiment.ExperimentPlan(
        [experiment.PlannedRun(label, LOCKSTEP_CASES[label], list(LOCKSTEP_SEEDS))
         for label in labels],
        data=experiment.DatasetSettings(image_side=3, eval_size=eval_size),
        output_dir=str(tmp_path),
    )
    assert experiment.run_experiment(plan, jobs=jobs) == 0
    manifest = json.loads((tmp_path / experiment.MANIFEST_NAME).read_text())
    for label in labels:
        sidecars = [json.loads((tmp_path / f"{label}__seed{seed}.json").read_text())
                    for seed in LOCKSTEP_SEEDS]
        expected = json.dumps(experiment.summarize_label(label, sidecars), indent=2)
        assert (tmp_path / manifest["summaries"][label]).read_text() == expected
    summary = json.loads((tmp_path / "diverging__summary.json").read_text())
    assert 0 < len(summary["diverged_seeds"]) < len(LOCKSTEP_SEEDS)
    if eval_size == 0:
        assert summary["final_loglik"]["mean"] is None


def test_diverged_seeds_leave_the_likelihood_statistics(tmp_path):
    # a diverged run stops at finite parameters, so its last likelihood is
    # finite; the summary lists it but takes the statistics without it
    plan = experiment.ExperimentPlan(
        [experiment.PlannedRun("diverging", LOCKSTEP_CASES["diverging"], list(LOCKSTEP_SEEDS))],
        data=experiment.DatasetSettings(image_side=3, eval_size=20),
        output_dir=str(tmp_path),
    )
    assert experiment.run_experiment(plan) == 0
    summary = json.loads((tmp_path / "diverging__summary.json").read_text())
    loglik = summary["final_loglik"]
    assert summary["seeds"] == list(LOCKSTEP_SEEDS)
    assert np.isfinite(loglik["values"]).all()
    kept = [
        value for seed, value in zip(summary["seeds"], loglik["values"])
        if seed not in summary["diverged_seeds"]
    ]
    assert 1 < len(kept) < len(LOCKSTEP_SEEDS)
    assert loglik["mean"] == float(np.mean(kept))
    assert loglik["median"] == float(np.median(kept))
    assert loglik["stderr"] == float(np.std(kept, ddof=1) / np.sqrt(len(kept)))
