import numpy as np
import pytest
from scipy.special import expit

from rbmpt import dataset, rbm, tempering, training
from rbmpt.adaptation import AdaptationConfig
from rbmpt.training import TrainConfig

from metrics_io import read_metrics_csv
from oracles import random_params, reference_sml_update, same_bits


def toy_stream(width=6, seed=50):
    rng = np.random.default_rng(seed)
    prototypes = (rng.random((3, width)) < 0.5).astype(float)
    spec = dataset.MixtureSpec(
        prototypes, np.full(3, 1 / 3), np.array([0.05, 0.1, 0.2]), image_side=28
    )
    return dataset.BatchSampler(spec)


def small_config(**kwargs):
    base = dict(
        algorithm="sml-pt",
        learning_rate=1e-2,
        num_updates=50,
        minibatch_size=4,
        initial_num_chains=4,
        num_hidden=3,
        eval_interval=10,
        seed=7,
    )
    base.update(kwargs)
    return TrainConfig(**base)


def copy_params(params):
    return rbm.RbmParams(params.weights, params.hidden_bias, params.visible_bias)


class TestSmlUpdate:
    def make(self, seed=51):
        rng = np.random.default_rng(seed)
        params = random_params(rng, 5, 3, scale=0.5)
        ens = tempering.Ensemble.create(np.array([1.0, 0.0]), 5, 3, rng)
        return params, ens

    def test_matching_stats_cancel(self):
        params, ens = self.make()
        batch = ens.visible[:1].copy()  # positive phase sees the negative state
        before = copy_params(params)
        training.sml_update(params, batch, ens, small_config())
        assert params.weights == pytest.approx(before.weights, abs=0)
        assert params.hidden_bias == pytest.approx(before.hidden_bias, abs=0)
        assert params.visible_bias == pytest.approx(before.visible_bias, abs=0)

    def test_zero_learning_rate(self):
        params, ens = self.make()
        batch = (np.random.default_rng(52).random((4, 5)) < 0.5).astype(float)
        before = copy_params(params)
        training.sml_update(params, batch, ens, small_config(learning_rate=0.0))
        assert params.weights == pytest.approx(before.weights, abs=0)

    def test_direction_matches_hand_computed_stats(self):
        # frozen negative particle: the step is lr * (phi(v, h~) - phi(v-, h~-))
        params, ens = self.make()
        before = copy_params(params)
        v = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        lr = 0.05
        training.sml_update(params, v[None, :], ens, small_config(learning_rate=lr))

        h_pos = expit(before.weights @ v + before.hidden_bias)
        v_neg = ens.visible[0]
        h_neg = expit(before.weights @ v_neg + before.hidden_bias)
        want_w = before.weights + lr * (np.outer(h_pos, v) - np.outer(h_neg, v_neg))
        want_h = before.hidden_bias + lr * (h_pos - h_neg)
        want_v = before.visible_bias + lr * (v - v_neg)
        assert np.abs(params.weights - want_w).max() <= 1e-12
        assert np.abs(params.hidden_bias - want_h).max() <= 1e-12
        assert np.abs(params.visible_bias - want_v).max() <= 1e-12

    @pytest.mark.parametrize("field", ["weights", "hidden_bias", "visible_bias"])
    @pytest.mark.parametrize(
        "value",
        [np.nan, np.inf, -np.inf, 2 * training.THETA_ABS_LIMIT],
        ids=["nan", "inf", "-inf", "2xlimit"],
    )
    def test_divergence_guard(self, field, value):
        params, ens = self.make()
        getattr(params, field).flat[0] = value
        batch = np.ones((1, 5))
        with pytest.raises(training.DivergenceError):
            training.sml_update(params, batch, ens, small_config(learning_rate=1e-3))

    @pytest.mark.parametrize("field", ["weights", "hidden_bias", "visible_bias"])
    @pytest.mark.parametrize("value", [np.nan, 2e6], ids=["nan", "2e6"])
    def test_divergence_guard_after_full_step(self, field, value):
        # the guard reads the one parameter buffer, after the step has
        # updated all of it
        params, ens = self.make()
        getattr(params, field).flat[-1] = value
        batch = 1.0 - ens.visible[:1]  # differs from the negative particle everywhere
        lr = 1e-3
        finite = np.isfinite(value)
        if finite:
            want = reference_sml_update(params, batch, ens.visible[0], lr)
        with pytest.raises(training.DivergenceError):
            training.sml_update(params, batch, ens, small_config(learning_rate=lr))
        if finite:
            assert same_bits(params.flat, want.flat)
        else:
            assert np.isnan(getattr(params, field).flat[-1])

    def test_divergence_guard_allows_the_limit(self):
        params, ens = self.make()
        batch = np.ones((1, 5))
        for field in ("weights", "hidden_bias", "visible_bias"):
            for sign in (1.0, -1.0):
                getattr(params, field).flat[0] = sign * training.THETA_ABS_LIMIT
                training.sml_update(params, batch, ens, small_config(learning_rate=0.0))


    @pytest.mark.parametrize("nv, nh", [(5, 3), (64, 5), (784, 10)])
    @pytest.mark.parametrize("lr", [1e-3, 0.05])
    def test_matches_reference_bit_for_bit(self, nv, nh, lr):
        rng = np.random.default_rng(65)
        params = random_params(rng, nv, nh, scale=0.5)
        ens = tempering.Ensemble.create(np.array([1.0, 0.5, 0.0]), nv, nh, rng)
        config = small_config(learning_rate=lr)
        for _ in range(3):
            batch = (rng.random((5, nv)) < 0.5).astype(float)
            ens.visible[0] = rng.random(nv) < 0.5
            want = reference_sml_update(params, batch, ens.visible[0], lr)
            training.sml_update(params, batch, ens, config)
            for name in ("weights", "hidden_bias", "visible_bias"):
                assert same_bits(getattr(params, name), getattr(want, name))


class TestTrainLoop:
    def test_sml_uses_single_chain(self):
        result = training.train(small_config(algorithm="sml"), toy_stream())
        assert result.ensemble.num_chains == 1
        assert result.ensemble.betas == pytest.approx([1.0])
        assert result.spawn_events == []
        assert all(rec.num_chains == 1 for rec in result.metrics)

    def test_fixed_ladder_never_changes(self):
        result = training.train(small_config(algorithm="sml-pt"), toy_stream())
        ladder = tempering.linear_ladder(4)
        assert result.ensemble.betas == pytest.approx(ladder, abs=0)
        for rec in result.metrics:
            assert rec.num_chains == 4
            assert rec.betas == pytest.approx(ladder, abs=0)

    def test_apt_with_zero_rates_equals_pt(self):
        # the adaptive path with frozen knobs must replay the fixed ladder
        # run update for update
        frozen = AdaptationConfig(beta_learning_rate=0.0, min_avg_swap_rate=0.0)
        pt = training.train(small_config(algorithm="sml-pt"), toy_stream())
        apt = training.train(
            small_config(algorithm="sml-apt", adaptation=frozen), toy_stream()
        )
        assert (pt.params.weights == apt.params.weights).all()
        assert (pt.params.hidden_bias == apt.params.hidden_bias).all()
        assert [r.to_csv_row() for r in pt.metrics] == [
            r.to_csv_row() for r in apt.metrics
        ]

    def test_zero_learning_rate_keeps_params(self):
        config = small_config(learning_rate=0.0)
        stream = toy_stream()
        result = training.train(config, stream)
        rng = np.random.default_rng(config.seed)
        expected = rbm.init_params(stream.num_visible, config.num_hidden, rng)
        assert (result.params.weights == expected.weights).all()
        assert not result.params.hidden_bias.any()

    def test_metrics_row_count(self):
        for updates, interval, want in ((10, 3, 5), (10, 5, 3), (10, 20, 2)):
            config = small_config(num_updates=updates, eval_interval=interval)
            result = training.train(config, toy_stream())
            assert len(result.metrics) == want
            assert result.metrics[0].update_index == 0
            assert result.metrics[-1].update_index == updates

    def test_post_sampling_freezes_params(self):
        config = small_config(num_updates=20, post_sampling_steps=20, eval_interval=20)
        eval_data = rbm.distinct_rows(toy_stream()(np.random.default_rng(53), 64))
        result = training.train(config, toy_stream(), eval_data=eval_data)
        by_index = {rec.update_index: rec for rec in result.metrics}
        assert by_index[20].train_loglik == by_index[40].train_loglik

    def test_likelihood_column(self):
        eval_data = rbm.distinct_rows(toy_stream()(np.random.default_rng(54), 32))
        result = training.train(small_config(), toy_stream(), eval_data=eval_data)
        assert all(np.isfinite(rec.train_loglik) for rec in result.metrics)
        no_eval = training.train(small_config(), toy_stream())
        assert all(rec.train_loglik is None for rec in no_eval.metrics)

    def test_likelihood_column_beyond_layer_cap(self):
        # both layers above rbm.EXACT_LAYER_CAP: every row reads n/a
        config = small_config(num_hidden=26, num_updates=3, eval_interval=3)
        stream = toy_stream(width=26)
        eval_data = rbm.distinct_rows(stream(np.random.default_rng(58), 8))
        result = training.train(config, stream, eval_data=eval_data)
        assert [rec.train_loglik for rec in result.metrics] == [None, None]

    def test_divergence_recorded_not_raised(self):
        result = training.train(
            small_config(algorithm="sml", learning_rate=1e7, num_updates=30),
            toy_stream(),
        )
        assert result.diverged_at is not None
        assert result.metrics[-1].update_index == result.diverged_at


class TestDeterminism:
    def test_metrics_csv_is_byte_identical(self, tmp_path):
        eval_data = rbm.distinct_rows(toy_stream()(np.random.default_rng(56), 32))
        config = small_config(algorithm="sml-apt")
        paths = []
        for name in ("a.csv", "b.csv"):
            result = training.train(config, toy_stream(), eval_data=eval_data)
            path = tmp_path / name
            training.write_metrics_csv(path, result.metrics)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_roundtrip(self, tmp_path):
        eval_data = rbm.distinct_rows(toy_stream()(np.random.default_rng(57), 16))
        result = training.train(small_config(), toy_stream(), eval_data=eval_data)
        path = tmp_path / "metrics.csv"
        training.write_metrics_csv(path, result.metrics)
        back = read_metrics_csv(path)
        assert [r.to_csv_row() for r in back] == [r.to_csv_row() for r in result.metrics]
        with open(path) as fh:
            assert fh.readline().strip() == ",".join(training.CSV_HEADER)


class TestConfigValidation:
    def test_bad_algorithm(self):
        with pytest.raises(ValueError):
            TrainConfig(algorithm="cd")

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_learning_rate(self, lr):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=lr)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            TrainConfig(num_updates=0)
        with pytest.raises(ValueError):
            TrainConfig(post_sampling_steps=-1)
        with pytest.raises(ValueError):
            TrainConfig(initial_ladder="harmonic")
