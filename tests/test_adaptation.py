import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmpt import adaptation, experiment, rbm, tempering
from rbmpt.adaptation import _STRICT_EPS, MIN_BETA_GAP, AdaptationConfig
from rbmpt.tempering import UNSET, Ensemble

from oracles import (
    random_params,
    reference_adapt_betas,
    reference_optimal_betas,
    reference_update_flow_histograms,
    respaced,
    same_bits,
)


def make_ensemble(betas, seed=0, nv=3, nh=2):
    return Ensemble.create(np.array(betas, dtype=float), nv, nh, np.random.default_rng(seed))


def grid_inversion_oracle(betas, fup, level, points=4_000_001):
    """Independent inversion: dense beta grid, nearest f_up value wins."""
    grid = np.linspace(0.0, 1.0, points)
    values = np.interp(grid, betas[::-1], fup[::-1])
    return grid[np.argmin(np.abs(values - level))]


class TestOptimalBetas:
    """The equal-mass targets, through one full respacing step."""

    def test_linear_fup_is_fixed_point(self):
        betas = np.array([1.0, 0.7, 0.4, 0.2, 0.0])
        fup = 1.0 - np.arange(5) / 4
        got = respaced(betas, fup)
        assert np.abs(got - betas).max() <= 1e-9

    def test_two_chains_endpoints_only(self):
        betas = np.array([1.0, 0.0])
        assert respaced(betas, np.array([1.0, 0.0])) == pytest.approx([1.0, 0.0])

    def test_worked_example(self):
        betas = np.array([1.0, 0.5, 0.0])
        fup = np.array([1.0, 0.25, 0.0])
        got = respaced(betas, fup)
        assert got[1] == pytest.approx(2 / 3, abs=1e-6)
        oracle = grid_inversion_oracle(betas, fup, 0.5)
        assert got[1] == pytest.approx(oracle, abs=1e-6)

    def test_matches_grid_oracle_on_random_curves(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            m = 5
            betas = np.sort(rng.uniform(0.05, 0.95, m - 2))[::-1]
            betas = np.concatenate([[1.0], betas, [0.0]])
            interior = np.sort(rng.uniform(0.05, 0.95, m - 2))[::-1]
            fup = np.concatenate([[1.0], interior, [0.0]])
            got = respaced(betas, fup)
            for i in range(1, m - 1):
                level = 1.0 - i / (m - 1)
                assert got[i] == pytest.approx(
                    grid_inversion_oracle(betas, fup, level), abs=1e-6
                )

    def test_noisy_fup_still_strictly_decreasing(self):
        betas = np.array([1.0, 0.8, 0.6, 0.4, 0.2, 0.0])
        fup = np.array([1.0, 0.5, 0.7, 0.2, 0.25, 0.0])  # locally non-monotone
        got = respaced(betas, fup)
        assert (np.diff(got) < 0).all()
        assert got[0] == 1.0 and got[-1] == 0.0

    def test_idempotent_once_linear(self):
        betas = np.array([1.0, 0.9, 0.3, 0.1, 0.0])
        fup = np.array([1.0, 0.6, 0.45, 0.2, 0.0])
        once = respaced(betas, fup)
        # measured f_up linear in index at the new ladder: respacing holds
        linear = 1.0 - np.arange(5) / 4
        again = respaced(once, linear)
        assert np.abs(again - once).max() <= 1e-9


class TestAdaptBetas:
    def setup_method(self):
        self.ens = make_ensemble([1.0, 0.5, 0.0])
        self.ens.flow[0, 1] = 0.25
        self.ens.flow[1, 1] = 0.75  # measured f_up = [1, 0.25, 0]

    def test_zero_rate_is_identity(self):
        before = self.ens.betas.copy()
        adaptation.adapt_betas(self.ens, AdaptationConfig(beta_learning_rate=0.0))
        assert self.ens.betas == pytest.approx(before, abs=0)

    def test_full_step_jumps_to_target(self):
        adaptation.adapt_betas(self.ens, AdaptationConfig(beta_learning_rate=1.0))
        assert self.ens.betas[1] == pytest.approx(2 / 3, abs=1e-6)

    def test_partial_step_worked_example(self):
        adaptation.adapt_betas(self.ens, AdaptationConfig(beta_learning_rate=0.1))
        assert self.ens.betas[1] == pytest.approx(0.5166666666666666, abs=1e-10)

    def test_endpoints_never_move(self):
        rng = np.random.default_rng(22)
        ens = make_ensemble([1.0, 0.7, 0.4, 0.2, 0.0])
        cfg = AdaptationConfig(beta_learning_rate=0.5)
        for _ in range(50):
            ens.flow[0, 1:-1] = rng.uniform(0.0, 1.0, 3)
            ens.flow[1, 1:-1] = rng.uniform(0.0, 1.0, 3)
            adaptation.adapt_betas(ens, cfg)
            assert ens.betas[0] == 1.0 and ens.betas[-1] == 0.0
            assert (np.diff(ens.betas) <= -adaptation.MIN_BETA_GAP + 1e-15).all()


def set_fup(ens, fup):
    """Set the flow histograms so that the ensemble measures f_up ~ fup."""
    ens.flow[0] = fup
    ens.flow[1] = 1.0 - fup


class TestMatchesReference:
    """The Python-float loops against the numpy-scalar formulas, bit for bit,
    on ladders where both the f_up clamp and the MIN_BETA_GAP projection fire."""

    @staticmethod
    def cases(m):
        rng = np.random.default_rng(67)
        for _ in range(5):
            interior = np.sort(rng.uniform(0.0, 1.0, m - 2))[::-1]
            if m > 3:
                interior[-1] = 0.3 * MIN_BETA_GAP  # within the gap of beta = 0
            interior[0] = 1.0 - 0.3 * MIN_BETA_GAP  # within the gap of beta = 1
            betas = np.concatenate([[1.0], interior, [0.0]])
            for fup in (np.ones(m), np.zeros(m), rng.uniform(0.0, 1.0, m)):
                yield betas, fup

    @pytest.mark.parametrize("m", [3, 10, 100])
    def test_bit_for_bit(self, m):
        clamps = projections = 0
        for betas, fup in self.cases(m):
            for mu in (0.0, 1e-4, 0.5, 1.0):
                ens = make_ensemble(betas)
                set_fup(ens, fup)
                frac = np.array(tempering.f_up(ens))
                want = reference_adapt_betas(betas, frac, mu)
                adaptation.adapt_betas(ens, AdaptationConfig(beta_learning_rate=mu))
                assert same_bits(ens.betas, want)
                targets = reference_optimal_betas(betas, frac)
                relaxed = betas[1:-1] + mu * (targets[1:-1] - betas[1:-1])
                projections += not same_bits(want[1:-1], relaxed)
            pinned = np.concatenate([[1.0], fup[1:-1], [0.0]])
            clamps += bool((np.diff(pinned) > -_STRICT_EPS).any())
        assert clamps > 0 and projections > 0


@st.composite
def ladders_and_fups(draw):
    """A strictly decreasing ladder of 3 to 100 betas from 1 to 0, an f_up
    in [0, 1]^M and a relaxation rate in [0, 1]."""
    interior = draw(
        st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            min_size=1,
            max_size=98,
            unique=True,
        )
    )
    m = len(interior) + 2
    fup = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    mu = draw(st.floats(0.0, 1.0))
    return np.array([1.0, *sorted(interior, reverse=True), 0.0]), np.array(fup), mu


class TestAdaptBetasProperties:
    @settings(max_examples=300, deadline=None)
    @given(ladders_and_fups())
    def test_endpoints_pinned_and_gaps_kept(self, case):
        betas, fup, mu = case
        ens = make_ensemble(betas)
        set_fup(ens, fup)
        adaptation.adapt_betas(ens, AdaptationConfig(beta_learning_rate=mu))
        assert ens.betas[0] == 1.0 and ens.betas[-1] == 0.0
        assert (np.diff(ens.betas) <= -MIN_BETA_GAP + 1e-15).all()


class TestAverageSwapRate:
    def test_single_chain_sentinel(self):
        assert adaptation.average_swap_rate(make_ensemble([1.0])) == 1.0

    def test_mean_of_pair_estimates(self):
        ens = make_ensemble([1.0, 0.5, 0.0])
        ens.swap_rate_ema[:] = [0.2, 0.6]
        assert adaptation.average_swap_rate(ens) == pytest.approx(0.4)

    def test_uniform_model_stays_at_one(self):
        ens = make_ensemble([1.0, 0.0])
        params_zero = rbm.RbmParams(np.zeros((2, 3)), np.zeros(2), np.zeros(3))
        rng = np.random.default_rng(23)
        for _ in range(200):
            tempering.deo_sweep(ens, params_zero, 1, rng)
        assert adaptation.average_swap_rate(ens) == pytest.approx(1.0)


class TestMaybeSpawn:
    def low_rate_ensemble(self):
        ens = make_ensemble([1.0, 0.5, 0.0])
        ens.flow[0, 1] = 0.9
        ens.flow[1, 1] = 0.1  # f_up = [1, 0.9, 0]
        ens.swap_rate_ema[:] = [0.1, 0.1]
        return ens

    def test_healthy_rate_does_nothing(self):
        ens = make_ensemble([1.0, 0.5, 0.0])
        ens.swap_rate_ema[:] = [0.9, 0.9]
        before = ens.betas.copy()
        assert adaptation.maybe_spawn(ens, AdaptationConfig()) is None
        assert ens.betas == pytest.approx(before)
        assert ens.burn_in_remaining == 0

    def test_spawn_at_largest_fup_gap(self):
        ens = self.low_rate_ensemble()
        cold_state = ens.visible[2].copy()
        event = adaptation.maybe_spawn(ens, AdaptationConfig(), update_index=123)
        assert event is not None
        assert event.slot == 2
        assert event.new_beta == pytest.approx(0.25)
        assert event.num_chains == 4
        assert event.update_index == 123
        assert ens.betas == pytest.approx([1.0, 0.5, 0.25, 0.0])
        assert (np.diff(ens.betas) < 0).all()
        assert ens.visible[2] == pytest.approx(cold_state)
        assert ens.labels[2] == UNSET and ens.counters[2] == 0
        assert ens.burn_in_remaining == AdaptationConfig().burn_in_sweeps

    def test_suspended_during_burn_in(self):
        ens = self.low_rate_ensemble()
        ens.burn_in_remaining = 5
        assert adaptation.maybe_spawn(ens, AdaptationConfig()) is None
        assert ens.num_chains == 3

    def test_chain_budget(self, caplog):
        ens = self.low_rate_ensemble()
        with caplog.at_level(logging.WARNING):
            got = adaptation.maybe_spawn(ens, AdaptationConfig(max_chains=3))
        assert got is None
        assert ens.num_chains == 3
        assert "saturated" in caplog.text
        # later saturated checks are counted, not logged
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert adaptation.maybe_spawn(ens, AdaptationConfig(max_chains=3)) is None
        assert caplog.records == [] and ens.saturated_checks == 2

    def test_saturated_budget_warns_once_per_run(self, tmp_path, caplog):
        # two chains under a floor of 0.99 spawn up to the budget of 3 and
        # then find it spent at check after check: one warning for the run,
        # and the sidecar counts every check
        config = {
            "algorithm": "sml-apt", "learning_rate": 1e-2, "num_updates": 600,
            "minibatch_size": 4, "initial_num_chains": 2, "num_hidden": 3,
            "eval_interval": 600,
            "adaptation": {"min_avg_swap_rate": 0.99, "spawn_check_interval": 10,
                           "burn_in_sweeps": 5, "max_chains": 3},
        }
        plan = experiment.plan_from_dict(
            {"dataset": {"image_side": 3, "eval_size": 20},
             "runs": [{"label": "apt", "seeds": [4], "config": config}]},
            str(tmp_path),
        )
        with caplog.at_level(logging.WARNING):
            assert experiment.run_experiment(plan) == 0
        saturated = [r for r in caplog.records if "saturated" in r.getMessage()]
        assert len(saturated) == 1 and saturated[0].levelno == logging.WARNING
        sidecar = json.loads((tmp_path / f"{experiment.run_stem('apt', 4)}.json").read_text())
        assert [event["num_chains"] for event in sidecar["spawn_events"]] == [3]
        assert sidecar["saturated_spawn_checks"] > 1


class TestSpawnedLadder:
    def test_bookkeeping_matches_reference_after_spawns(self):
        # spawns rebuild the flow buffer, one column per slot, and the
        # updates must keep the reference bits on the grown ladder
        rng = np.random.default_rng(70)
        params = random_params(rng, 4, 3)
        ens = make_ensemble(np.linspace(1.0, 0.0, 3), seed=71, nv=4, nh=3)
        config = AdaptationConfig(
            beta_learning_rate=0.05, min_avg_swap_rate=0.9, burn_in_sweeps=5, max_chains=7
        )
        spawns = 0
        for update in range(1, 401):
            tempering.deo_sweep(ens, params, 1, rng)
            want_flow = reference_update_flow_histograms(ens.flow, ens.labels, ens.tau_hat)
            tempering.update_flow_histograms(ens)
            assert same_bits(ens.flow, want_flow)
            if ens.burn_in_remaining == 0:
                want = reference_adapt_betas(ens.betas, np.array(tempering.f_up(ens)), 0.05)
                adaptation.adapt_betas(ens, config)
                assert same_bits(ens.betas, want)
                if update % 10 == 0:
                    spawns += adaptation.maybe_spawn(ens, config, update) is not None
                    assert ens.flow.shape == (2, ens.num_chains)
        assert spawns >= 2 and ens.num_chains == 3 + spawns


@st.composite
def spawn_cases(draw):
    """An ensemble of 1 to 8 chains on a ladder whose gaps are at least
    MIN_BETA_GAP, as adapt_betas keeps them, with arbitrary flow histograms,
    swap-rate estimates and burn-in, and an arbitrary spawn configuration."""
    m = draw(st.integers(1, 8))
    gaps = np.array(draw(st.lists(st.floats(1.0, 1e4), min_size=m - 1, max_size=m - 1)))
    betas = [1.0]
    if m > 1:
        betas = np.concatenate([[1.0], 1.0 - np.cumsum(gaps)[:-1] / gaps.sum(), [0.0]])
    ens = make_ensemble(betas, seed=draw(st.integers(0, 2**32 - 1)))
    unit = st.floats(0.0, 1.0)
    ens.flow[0] = draw(st.lists(unit, min_size=m, max_size=m))
    ens.flow[1] = draw(st.lists(unit, min_size=m, max_size=m))
    ens.swap_rate_ema[:] = draw(st.lists(unit, min_size=m - 1, max_size=m - 1))
    ens.burn_in_remaining = draw(st.sampled_from([0, 0, 0, 1, 50]))
    config = AdaptationConfig(
        min_avg_swap_rate=draw(st.floats(0.0, 1.0, exclude_max=True)),
        burn_in_sweeps=draw(st.integers(1, 200)),
        max_chains=draw(st.integers(1, 10)),
    )
    return ens, config


class TestMaybeSpawnProperties:
    @settings(max_examples=300, deadline=None)
    @given(spawn_cases())
    def test_invariants(self, case):
        ens, config = case
        m_before = ens.num_chains
        burn_in_before = ens.burn_in_remaining
        event = adaptation.maybe_spawn(ens, config, update_index=7)
        m = ens.num_chains
        assert ens.betas[0] == 1.0
        if m > 1:
            assert ens.betas[-1] == 0.0
            assert (np.diff(ens.betas) < 0).all()
        assert m - m_before == (event is not None)
        for per_slot in (ens.betas, ens.visible, ens.hidden, ens.labels, ens.counters,
                         *ens.flow):
            assert len(per_slot) == m
        assert len(ens.swap_rate_ema) == m - 1
        if event is not None:
            assert m <= config.max_chains
            assert ens.burn_in_remaining == config.burn_in_sweeps
            assert event.num_chains == m
        else:
            assert ens.burn_in_remaining == burn_in_before


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AdaptationConfig(beta_learning_rate=-1e-3)
        with pytest.raises(ValueError):
            AdaptationConfig(min_avg_swap_rate=1.5)
        with pytest.raises(ValueError):
            AdaptationConfig(burn_in_sweeps=0)

    @pytest.mark.parametrize("mu", [np.nan, 1.5, -0.1], ids=["nan", "1.5", "-0.1"])
    def test_rejects_bad_beta_learning_rate(self, mu):
        with pytest.raises(ValueError):
            AdaptationConfig(beta_learning_rate=mu)

    def test_degenerate_rates_allowed(self):
        cfg = AdaptationConfig(beta_learning_rate=0.0, min_avg_swap_rate=0.0)
        assert cfg.beta_learning_rate == 0.0
