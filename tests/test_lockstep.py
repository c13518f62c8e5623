"""Lockstep training: runs that differ only in their seed share one stacked
replica axis, and every seed must come out with the bits it gets alone."""

import dataclasses
import json

import numpy as np
import pytest

from rbmpt import cli, dataset, experiment, rbm, tempering, training
from rbmpt.adaptation import AdaptationConfig
from rbmpt.training import TrainConfig

from oracles import random_params, same_bits

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
    energies = rbm.stacked_energies(stacked, visible, hidden)
    conditional = rbm.hidden_conditional(stacked, visible)
    for r, params in enumerate(lone):
        want = rbm.gibbs_sweep_chains(
            params, visible[r], hidden[r], betas[r], 2, np.random.default_rng(r).random(draws)
        )
        assert same_bits(got[0][r], want[0]) and same_bits(got[1][r], want[1])
        assert same_bits(energies[r], rbm.energies(params, visible[r], hidden[r]))
        assert same_bits(conditional[r], rbm.hidden_conditional(params, visible[r]))


@pytest.mark.parametrize("steps", [1, 2])
@pytest.mark.parametrize("replicas", [1, 2, 5])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_kept_product_gives_the_recomputed_energies(replicas, shape, steps):
    # the swap energies take the Gibbs kernel's last hidden @ weights: they
    # must be the bits of the energies that compute the product afresh. A
    # visible phase of the vectorised logistic's size keeps no product.
    m, nv, nh = shape
    rng = np.random.default_rng(79)
    lone, stacked = stack_params(rng, replicas, nv, nh)
    visible, hidden = binary(rng, (replicas, m, nv)), binary(rng, (replicas, m, nh))
    betas = np.stack([np.linspace(1.0, 0.0, m) if m > 1 else np.ones(1)] * replicas)
    uniforms = rng.random((replicas, steps * m * (nv + nh)))
    v, h, kept = rbm.gibbs_sweep_chains(stacked, visible, hidden, betas, steps, uniforms.copy())
    assert (kept is None) == (m * nv >= rbm._VECTOR_LOGISTIC_MIN)
    assert same_bits(
        rbm.stacked_energies(stacked, v, h, kept), rbm.stacked_energies(stacked, v, h)
    )
    for r, params in enumerate(lone):
        v, h, kept = rbm.gibbs_sweep_chains(
            params, visible[r], hidden[r], betas[r], steps, uniforms[r]
        )
        assert same_bits(rbm.energies(params, v, h, kept), rbm.energies(params, v, h))


@pytest.mark.parametrize("replicas", [1, 2, 5])
@pytest.mark.parametrize("nv, nh", [(64, 5), (784, 10)], ids=["ci", "full"])
def test_stacked_gradient_step_matches_lone_steps(replicas, nv, nh):
    rng = np.random.default_rng(72)
    lone, stacked = stack_params(rng, replicas, nv, nh)
    ensembles = [tempering.Ensemble.create(np.array([1.0, 0.0]), nv, nh, rng) for _ in lone]
    batch = binary(rng, (replicas, 5, nv))
    config = TrainConfig(learning_rate=0.05, num_hidden=nh)
    training.sml_update(stacked, batch, tempering.EnsembleStack(ensembles), config)
    for r, (params, ens) in enumerate(zip(lone, ensembles)):
        ens = tempering.Ensemble(ens.betas.copy(), ens.visible.copy(), ens.hidden.copy())
        training.sml_update(params, batch[r], ens, config)
        assert same_bits(stacked.flat[r], params.flat)


def test_stacked_divergence_names_the_replica():
    rng = np.random.default_rng(73)
    lone, stacked = stack_params(rng, 3, 4, 2)
    stacked.flat[1, 0] = np.nan
    ensembles = tempering.EnsembleStack(
        [tempering.Ensemble.create(np.ones(1), 4, 2, rng) for _ in lone]
    )
    with pytest.raises(training.DivergenceError) as err:
        training.sml_update(stacked, binary(rng, (3, 2, 4)), ensembles, TrainConfig())
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
    eval_data = rbm.distinct_rows(sampler(np.random.default_rng(76), 32))
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


def test_lockstep_rejects_configs_that_differ_beyond_the_seed():
    configs = [toy_config(seed=1), toy_config(seed=2, learning_rate=0.5)]
    with pytest.raises(ValueError):
        training.train_lockstep(configs, toy_sampler())


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
    plan = experiment.comparison_plan(tmp_path / "out", scale="ci", num_seeds=2)
    for run in plan.runs:
        run.config = dataclasses.replace(
            run.config, num_updates=6, post_sampling_steps=0, eval_interval=3
        )
    plan.data.image_side, plan.data.eval_size = 3, 10
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(experiment.plan_to_dict(plan)))
    train_lockstep = experiment.train_lockstep

    def flaky(configs, *args, **kwargs):
        if configs[0].initial_num_chains == 20:
            raise FloatingPointError("sml-pt-20 blew up")
        return train_lockstep(configs, *args, **kwargs)

    monkeypatch.setattr(experiment, "train_lockstep", flaky)
    assert cli.main(["grid", "--plan", str(plan_path)]) == cli.RUNTIME_ERROR
    out = tmp_path / "out"
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
