import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmpt import rbm, tempering
from rbmpt.tempering import DOWN, UNSET, UP, Ensemble

from oracles import (
    brute_joint_distribution,
    brute_visible_marginal,
    deo_sweep_outcome,
    enumerate_bits,
    random_params,
    reference_deo_sweep,
    reference_energies,
    reference_energy,
    reference_gibbs_sweep,
    reference_update_flow_histograms,
    same_bits,
    state_index,
    total_variation,
)


def zero_params(nv=3, nh=2):
    return rbm.RbmParams(np.zeros((nh, nv)), np.zeros(nh), np.zeros(nv))


def make_ensemble(betas, nv=3, nh=2, seed=0):
    return Ensemble.create(np.array(betas, dtype=float), nv, nh, np.random.default_rng(seed))


class TestSwapRatio:
    def test_equal_energies(self):
        assert tempering.swap_ratio(2.5, 2.5, 1.0, 0.3) == 1.0

    def test_equal_betas(self):
        assert tempering.swap_ratio(2.0, 5.0, 0.7, 0.7) == 1.0

    def test_hand_case(self):
        got = tempering.swap_ratio(2.0, 5.0, 1.0, 0.5)
        assert got == pytest.approx(0.22313016014842982, rel=1e-12)

    def test_no_overflow(self):
        # cold chain stuck at high energy: swap always helps; and vice versa
        assert tempering.swap_ratio(1e6, -1e6, 1.0, 0.0) == 1.0
        assert tempering.swap_ratio(-1e6, 1e6, 1.0, 0.0) == 0.0

    def test_beta_order_enforced(self):
        with pytest.raises(ValueError):
            tempering.swap_ratio(0.0, 0.0, 0.3, 0.9)

    def test_matches_normalized_metropolis_ratio(self):
        # the energy form equals the ratio of explicitly normalized tempered
        # joints, since the partition functions cancel
        rng = np.random.default_rng(20)
        p = random_params(rng, 2, 1, scale=1.5)
        beta_i, beta_j = 1.0, 0.4
        pi = brute_joint_distribution(p, beta_i)
        pj = brute_joint_distribution(p, beta_j)
        h_all = enumerate_bits(1)
        v_all = enumerate_bits(2)
        for _ in range(20):
            vi, hi = v_all[rng.integers(4)], h_all[rng.integers(2)]
            vj, hj = v_all[rng.integers(4)], h_all[rng.integers(2)]
            e_i = reference_energy(p, vi, hi)
            e_j = reference_energy(p, vj, hj)
            ii, jj = (state_index(hi), state_index(vi)), (state_index(hj), state_index(vj))
            ratio = (pi[jj] * pj[ii]) / (pi[ii] * pj[jj])
            want = min(1.0, ratio)
            assert tempering.swap_ratio(e_i, e_j, beta_i, beta_j) == pytest.approx(
                want, abs=1e-12
            )


class TestLadders:
    def test_linear(self):
        betas = tempering.linear_ladder(5)
        assert betas[0] == 1.0 and betas[-1] == 0.0
        assert np.diff(betas) == pytest.approx(-0.25)

    def test_geometric(self):
        betas = tempering.geometric_ladder(6)
        assert betas[0] == 1.0 and betas[-1] == 0.0
        assert (np.diff(betas) < 0).all()
        ratios = betas[1:-1] / betas[:-2]
        assert ratios == pytest.approx(ratios[0])

    def test_single_chain(self):
        assert tempering.linear_ladder(1) == pytest.approx([1.0])


class TestEnsembleInvariants:
    def test_rejects_bad_ladders(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            Ensemble.create(np.array([0.9, 0.0]), 3, 2, rng)
        with pytest.raises(ValueError):
            Ensemble.create(np.array([1.0, 0.5]), 3, 2, rng)
        with pytest.raises(ValueError):
            Ensemble.create(np.array([1.0, 0.4, 0.4, 0.0]), 3, 2, rng)

    def test_fresh_state(self):
        ens = make_ensemble([1.0, 0.5, 0.0])
        assert (ens.labels == UNSET).all()
        assert not ens.counters.any()
        assert ens.tau_hat == 1.0
        assert ens.swap_rate_ema == pytest.approx([1.0, 1.0])

    def test_insert_chain(self):
        ens = make_ensemble([1.0, 0.5, 0.0])
        ens.flow[0] = [1.0, 0.4, 0.0]
        ens.flow[1] = [0.0, 0.6, 1.0]
        ens.swap_rate_ema[:] = [0.8, 0.2]
        old_cold_state = ens.visible[2].copy()
        ens.insert_chain(2, 0.25, source_slot=2)
        assert ens.betas == pytest.approx([1.0, 0.5, 0.25, 0.0])
        assert ens.visible[2] == pytest.approx(old_cold_state)
        assert ens.labels[2] == UNSET and ens.counters[2] == 0
        assert ens.flow[0, 2] == pytest.approx(0.2)
        assert ens.flow[1, 2] == pytest.approx(0.8)
        assert ens.swap_rate_ema == pytest.approx([0.8, 0.2, 0.2])


class TestDeoSweep:
    def test_single_chain_degenerates_to_gibbs(self):
        ens = make_ensemble([1.0])
        pairs, _, trip = deo_sweep_outcome(ens, zero_params(), 1, np.random.default_rng(1))
        assert pairs == []
        assert trip is None
        assert ens.tau_hat == 1.0

    def test_equal_energies_accept_everything(self):
        ens = make_ensemble([1.0, 0.6, 0.3, 0.0])
        for _ in range(10):
            _, accepts, _ = deo_sweep_outcome(ens, zero_params(), 1, np.random.default_rng(2))
            assert accepts and all(accepts)

    def test_pair_schedule_alternates(self):
        ens = make_ensemble([1.0, 0.75, 0.5, 0.25, 0.0])
        rng = np.random.default_rng(3)
        seen = []
        for _ in range(4):
            seen.append(tuple(deo_sweep_outcome(ens, zero_params(), 1, rng)[0]))
        assert seen == [(0, 2), (1, 3), (0, 2), (1, 3)]

    def test_betas_never_move(self):
        ens = make_ensemble([1.0, 0.6, 0.3, 0.0])
        params = random_params(np.random.default_rng(4), 3, 2)
        before = ens.betas.copy()
        rng = np.random.default_rng(5)
        for _ in range(50):
            tempering.deo_sweep(ens, params, 1, rng)
        assert ens.betas == pytest.approx(before, abs=0)

    def test_swap_phase_permutes_states(self):
        # the swap phase can only permute particles: after a one-step sweep
        # the slots hold the states of the Gibbs step, replayed by the
        # oracle from the same generator state, in some order
        ens = make_ensemble([1.0, 0.6, 0.3, 0.0], seed=6)
        params = random_params(np.random.default_rng(7), 3, 2, scale=2.0)
        rng = np.random.default_rng(8)
        swapped = 0
        for _ in range(20):
            v, h = reference_gibbs_sweep(
                params, ens.visible, ens.hidden, ens.betas, 1, copy.deepcopy(rng)
            )
            gibbs = np.hstack([v, h])
            tempering.deo_sweep(ens, params, 1, rng)
            joint = np.hstack([ens.visible, ens.hidden])
            assert sorted(map(tuple, joint)) == sorted(map(tuple, gibbs))
            swapped += not np.array_equal(joint, gibbs)
        assert swapped

    def test_one_uniform_draw_per_pair(self):
        # replay the sweep's exact rng stream: per Gibbs step one block per
        # layer, then a single uniform per proposed pair
        seed = 99
        params = random_params(np.random.default_rng(10), 3, 2, scale=1.5)
        for steps in (1, 3):
            ens = make_ensemble([1.0, 0.6, 0.3, 0.0], seed=9)
            replay = np.random.default_rng(seed)
            visible1, hidden1 = reference_gibbs_sweep(
                params, ens.visible, ens.hidden, ens.betas, steps, replay
            )
            e = reference_energies(params, visible1, hidden1)
            expect_prob = np.exp(
                np.minimum((ens.betas[[0, 2]] - ens.betas[[1, 3]]) * (e[[0, 2]] - e[[1, 3]]), 0.0)
            )
            expect_accepts = replay.random(2) < expect_prob

            _, accepts, _ = deo_sweep_outcome(ens, params, steps, np.random.default_rng(seed))
            assert accepts == expect_accepts.tolist()

    def test_decisions_go_through_swap_ratio(self, monkeypatch):
        # every proposed pair is decided by swap_ratio, the function the
        # oracle tests check: refusing every swap there refuses it here
        calls = []

        def refuse(energy_i, energy_j, beta_i, beta_j):
            calls.append((beta_i, beta_j))
            return 0.0

        monkeypatch.setattr(tempering, "swap_ratio", refuse)
        ens = make_ensemble([1.0, 0.6, 0.3, 0.0])
        _, accepts, _ = deo_sweep_outcome(ens, zero_params(), 1, np.random.default_rng(2))
        assert calls == [(1.0, 0.6), (0.3, 0.0)]
        assert accepts == [False, False]

    def test_two_chain_acceptance_matches_product_expectation(self):
        # long-run accept frequency vs E[min(1, r)] under p_1 x p_0
        rng = np.random.default_rng(11)
        params = random_params(rng, 2, 2, scale=1.0)
        p_cold = brute_joint_distribution(params, 1.0).ravel()
        p_hot = brute_joint_distribution(params, 0.0).ravel()
        h_all = enumerate_bits(2)
        v_all = enumerate_bits(2)
        energies = np.array([reference_energy(params, v, h) for h in h_all for v in v_all])
        ratio = np.minimum(1.0, np.exp(np.subtract.outer(energies, energies)))
        expected = p_cold @ ratio @ p_hot

        ens = make_ensemble([1.0, 0.0], nv=2, nh=2, seed=12)
        accepted = 0
        proposed = 0
        for _ in range(1_000_000):
            _, accepts, _ = deo_sweep_outcome(ens, params, 1, rng)
            proposed += len(accepts)
            accepted += sum(accepts)
        assert proposed == 500_000
        assert abs(accepted / proposed - expected) < 0.01

    def test_cold_slot_stationary_distribution(self):
        # slot 0 must sample the beta = 1 joint; checked against enumeration
        rng = np.random.default_rng(13)
        params = random_params(rng, 3, 2, scale=1.0)
        exact = brute_joint_distribution(params, 1.0).T.ravel()  # [v, h] order
        ens = make_ensemble([1.0, 0.5, 0.0], nv=3, nh=2, seed=14)
        counts = np.zeros(32)
        wv = 1 << np.arange(3)
        wh = 1 << np.arange(2)
        n = 1_000_000
        for _ in range(n):
            tempering.deo_sweep(ens, params, 1, rng)
            idx = int(ens.visible[0] @ wv) * 4 + int(ens.hidden[0] @ wh)
            counts[idx] += 1
        assert total_variation(counts / n, exact) < 0.02


@st.composite
def sweep_cases(draw):
    """A model up to 5x5 with weights up to 3 in size, a strictly decreasing
    ladder of 1 to 8 betas from 1 to 0, 1 to 2 Gibbs steps per sweep and
    1 to 30 sweeps."""
    nv, nh = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    m = draw(st.integers(1, 8))
    interior = draw(
        st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            min_size=max(m - 2, 0),
            max_size=max(m - 2, 0),
            unique=True,
        )
    )
    betas = [1.0] if m == 1 else [1.0, *sorted(interior, reverse=True), 0.0]
    scale = draw(st.floats(0.0, 3.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return nv, nh, np.array(betas), scale, seed, draw(st.integers(1, 2)), draw(st.integers(1, 30))


def sweep_state(ens):
    """Everything a sweep writes, as (name, value) pairs to compare bit for bit."""
    arrays = ("visible", "hidden", "labels", "counters", "swap_rate_ema")
    scalars = (ens.tau_hat, -1.0 if ens.round_trip_ema is None else ens.round_trip_ema)
    return [(name, getattr(ens, name)) for name in arrays] + [
        ("tau_hat, round_trip_ema", np.array(scalars)),
        ("sweep_parity, burn_in_remaining", np.array([ens.sweep_parity, ens.burn_in_remaining])),
    ]


def assert_same_state(got, want):
    for (name, a), (_, b) in zip(sweep_state(got), sweep_state(want)):
        assert same_bits(a, b), name


class TestDeoSweepDraw:
    """One uniform block per sweep and swap energies from the kept Gibbs
    product must leave the state that drawing phase by phase, with energies
    from a fresh product, leaves."""

    @settings(max_examples=150, deadline=None)
    @given(sweep_cases())
    def test_lone_sweep_matches_per_phase_reference(self, case):
        nv, nh, betas, scale, seed, steps, sweeps = case
        params = random_params(np.random.default_rng(seed), nv, nh, scale=scale)
        got, want = (make_ensemble(betas, nv=nv, nh=nh, seed=seed) for _ in range(2))
        got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for _ in range(sweeps):
            tempering.deo_sweep(got, params, steps, got_rng)
            reference_deo_sweep(want, params, steps, want_rng)
            assert_same_state(got, want)
        assert got_rng.random() == want_rng.random()

    @settings(max_examples=100, deadline=None)
    @given(sweep_cases(), st.integers(1, 3))
    def test_stacked_sweep_matches_per_phase_reference(self, case, replicas):
        nv, nh, betas, scale, seed, steps, sweeps = case
        rng = np.random.default_rng(seed)
        lone = [random_params(rng, nv, nh, scale=scale) for _ in range(replicas)]
        stacked = rbm.RbmParams.view(np.stack([p.flat for p in lone]), nh, nv)
        members = [make_ensemble(betas, nv=nv, nh=nh, seed=seed + r) for r in range(replicas)]
        wants = [make_ensemble(betas, nv=nv, nh=nh, seed=seed + r) for r in range(replicas)]
        stack = tempering.EnsembleStack(members)
        got_rngs = [np.random.default_rng(seed + 10 + r) for r in range(replicas)]
        want_rngs = [np.random.default_rng(seed + 10 + r) for r in range(replicas)]
        for _ in range(sweeps):
            tempering.deo_sweep(stack, stacked, steps, got_rngs)
            for params, want, want_rng in zip(lone, wants, want_rngs):
                reference_deo_sweep(want, params, steps, want_rng)
            for got, want in zip(members, wants):
                assert_same_state(got, want)
        for got_rng, want_rng in zip(got_rngs, want_rngs):
            assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stack"])
    def test_negative_gibbs_steps_are_rejected(self, stacked):
        # zero too: a sweep takes at least one Gibbs step, as `TrainConfig`
        # requires, since the swap energies take its visible pre-activation
        params = random_params(np.random.default_rng(21), 3, 2)
        ens = make_ensemble([1.0, 0.5, 0.0])
        before = sweep_state(make_ensemble([1.0, 0.5, 0.0]))
        sweep_params, target, rng = params, ens, np.random.default_rng(22)
        if stacked:
            sweep_params = rbm.RbmParams.view(params.flat[None], 2, 3)
            target, rng = tempering.EnsembleStack([ens]), [rng]
        for steps in (0, -3):
            refusal = f"gibbs_steps must be 1 or more, got {steps}"
            with pytest.raises(ValueError, match=refusal):
                tempering.deo_sweep(target, sweep_params, steps, rng)
            with pytest.raises(ValueError, match=refusal):
                rbm.gibbs_sweep_chains(
                    sweep_params, target.visible, target.hidden, target.betas, steps, np.zeros(0)
                )
        # refused before any draw, Gibbs step, swap or bookkeeping
        for (name, a), (_, b) in zip(sweep_state(ens), before):
            assert same_bits(a, b), name
        assert ens.sweep_parity == 0
        state = np.random.default_rng(22).random()
        assert (rng[0] if stacked else rng).random() == state


class TestDeoSweepProperties:
    @settings(max_examples=200, deadline=None)
    @given(sweep_cases())
    def test_invariants(self, case):
        nv, nh, betas, scale, seed, steps, sweeps = case
        rng = np.random.default_rng(seed)
        params = random_params(rng, nv, nh, scale=scale)
        ens = make_ensemble(betas, nv=nv, nh=nh, seed=seed)
        m = len(betas)
        for _ in range(sweeps):
            parity = ens.sweep_parity
            tempering.deo_sweep(ens, params, steps, rng)
            assert same_bits(ens.betas, betas)
            assert np.isin(ens.visible, (0.0, 1.0)).all()
            assert np.isin(ens.hidden, (0.0, 1.0)).all()
            assert ens.visible.shape == (m, nv) and ens.hidden.shape == (m, nh)
            assert np.isin(ens.labels, (UNSET, UP, DOWN)).all()
            if m >= 2:
                assert ens.labels[0] == UP
                assert ens.labels[-1] != UP
            assert (ens.counters >= 0).all()
            assert ((ens.swap_rate_ema >= 0.0) & (ens.swap_rate_ema <= 1.0)).all()
            assert ens.tau_hat >= 1.0
            assert ens.sweep_parity == parity ^ 1


class TestLabelsAndReturnTime:
    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_uniform_round_trips(self, m):
        # always-accepted swaps shuttle deterministically: the first m trips
        # take 2m+1, 2m+3, ..., 4m-1 sweeps, and from then on every trip is
        # the 2m-sweep steady state of this DEO convention
        ens = make_ensemble(np.linspace(1.0, 0.0, m))
        rng = np.random.default_rng(15)
        trips = []
        for _ in range(30 * m):
            trip = deo_sweep_outcome(ens, zero_params(), 1, rng)[2]
            if trip is not None:
                trips.append(trip)
        assert trips[:m] == list(range(2 * m + 1, 4 * m, 2))
        assert len(trips) > m + 3
        assert set(trips[m:]) == {2 * m}

    def test_first_sweep_labels(self):
        ens = make_ensemble([1.0, 0.5, 0.0])
        tempering.deo_sweep(ens, zero_params(), 1, np.random.default_rng(16))
        assert ens.labels[0] == UP
        assert DOWN not in ens.labels  # nothing has been up and back yet

    def test_counter_reset_only_on_completion(self):
        ens = make_ensemble([1.0, 0.0])
        rng = np.random.default_rng(17)
        for _ in range(4):
            tempering.deo_sweep(ens, zero_params(), 1, rng)
        # sweep 5 completes the first trip and resets the arriving counter
        assert deo_sweep_outcome(ens, zero_params(), 1, rng)[2] == 5
        assert ens.counters[0] == 0
        assert ens.counters[1] > 0

    def test_estimate_before_any_trip_is_counter_sum(self):
        ens = make_ensemble([1.0, 0.5, 0.0])
        ens.counters[:] = [3, 5, 2]
        tempering._end_sweep(ens)
        assert ens.tau_hat == 10.0

    def test_estimate_floor(self):
        ens = make_ensemble([1.0, 0.5, 0.0])
        tempering._end_sweep(ens)
        assert ens.tau_hat == 1.0

    def test_estimate_tracks_completed_trips(self):
        ens = make_ensemble([1.0, 0.0])
        ens.round_trip_ema = 12.5
        tempering._end_sweep(ens)
        assert ens.tau_hat == 12.5


class TestFlowHistograms:
    def test_up_slot_moves_toward_one(self):
        ens = make_ensemble([1.0, 0.0])
        ens.tau_hat = 10.0
        ens.labels[0] = UP
        tempering.update_flow_histograms(ens)
        assert ens.flow[0, 0] == pytest.approx(0.1)
        assert ens.flow[1, 0] == 0.0

    def test_saturated_slot_is_fixed_point(self):
        ens = make_ensemble([1.0, 0.0])
        ens.tau_hat = 7.0
        ens.labels[0] = UP
        ens.flow[0, 0] = 1.0
        tempering.update_flow_histograms(ens)
        assert ens.flow[0, 0] == pytest.approx(1.0)

    def test_unset_slots_decay(self):
        ens = make_ensemble([1.0, 0.0])
        ens.tau_hat = 2.0
        ens.flow[0] = 0.8
        ens.flow[1] = 0.4
        tempering.update_flow_histograms(ens)
        assert ens.flow[0] == pytest.approx([0.4, 0.4])
        assert ens.flow[1] == pytest.approx([0.2, 0.2])

    def test_alternating_labels_average_half(self):
        # tau = 2: the limit cycle is {2/3 after up, 1/3 after down}, mean 1/2
        ens = make_ensemble([1.0, 0.0])
        ens.tau_hat = 2.0
        for _ in range(100):
            ens.labels[0] = UP
            tempering.update_flow_histograms(ens)
            after_up = ens.flow[0, 0]
            ens.labels[0] = DOWN
            tempering.update_flow_histograms(ens)
            after_down = ens.flow[0, 0]
        assert after_up == pytest.approx(2 / 3, abs=1e-9)
        assert after_down == pytest.approx(1 / 3, abs=1e-9)
        assert 0.5 * (after_up + after_down) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("m", [2, 6, 50])
    def test_matches_masked_add_reference(self, m):
        # along a real sweep sequence: tau_hat starts at 1 (rate 1), labels
        # mix all three values, and unvisited entries stay at zero
        rng = np.random.default_rng(63)
        params = random_params(rng, 4, 3)
        ens = make_ensemble(np.linspace(1.0, 0.0, m), nv=4, nh=3, seed=64)
        for _ in range(300):
            tempering.deo_sweep(ens, params, 1, rng)
            want = reference_update_flow_histograms(ens.flow, ens.labels, ens.tau_hat)
            tempering.update_flow_histograms(ens)
            assert same_bits(ens.flow, want)


class TestFUp:
    def test_boundaries_pinned_after_first_sweep(self):
        ens = make_ensemble([1.0, 0.5, 0.0])
        tempering.deo_sweep(ens, zero_params(), 1, np.random.default_rng(18))
        tempering.update_flow_histograms(ens)
        frac = tempering.f_up(ens)
        assert frac[0] == 1.0 and frac[-1] == 0.0

    def test_equal_histograms_give_half(self):
        ens = make_ensemble([1.0, 0.5, 0.0])
        ens.flow[0, 1] = ens.flow[1, 1] = 0.3
        assert tempering.f_up(ens)[1] == 0.5

    def test_direct_ratio(self):
        ens = make_ensemble([1.0, 0.5, 0.0])
        ens.flow[0] = [1.0, 0.3, 0.0]
        ens.flow[1] = [0.0, 0.1, 1.0]
        assert tempering.f_up(ens)[1] == pytest.approx(0.75)

    def test_empty_interior_is_neutral(self):
        ens = make_ensemble([1.0, 0.5, 0.0])
        assert tempering.f_up(ens)[1] == 0.5

    def test_single_chain(self):
        ens = make_ensemble([1.0])
        assert tempering.f_up(ens) == pytest.approx([1.0])

    def test_boundary_histograms_positive_after_warmup(self):
        ens = make_ensemble([1.0, 0.6, 0.3, 0.0])
        params = random_params(np.random.default_rng(19), 3, 2)
        rng = np.random.default_rng(20)
        for _ in range(200):
            tempering.deo_sweep(ens, params, 1, rng)
            tempering.update_flow_histograms(ens)
        assert ens.flow[0, 0] > 0
        assert ens.flow[1, -1] > 0
        assert (ens.flow >= 0).all()
