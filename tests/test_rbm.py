import collections
import warnings

import numpy as np
import pytest
from scipy.special import expit

from rbmpt import dataset, experiment, rbm

from oracles import (
    brute_log_partition,
    brute_log_pv,
    brute_joint_distribution,
    enumerate_bits,
    random_params,
    reference_energy,
    reference_exact_log_likelihood,
    reference_gibbs_sweep,
    same_bits,
    state_index,
    total_variation,
)


def tiny_params():
    return rbm.RbmParams(np.array([[1.0]]), np.array([0.5]), np.array([-0.25]))


def one_state(visible, hidden):
    """A batch of one joint state, as `energies` and the Gibbs kernel take it."""
    return np.array([visible], dtype=float), np.array([hidden], dtype=float)


def preset_uniforms(m, nh, nv, hidden_u, visible_u):
    """A one-step uniform block for the Gibbs kernel, every hidden unit's
    uniform `hidden_u` and every visible unit's `visible_u` (each broadcast
    to its layer's (m, n)), so a draw shows on which side of its probability
    a uniform falls (a unit turns on when its uniform is below its
    probability)."""
    return np.concatenate(
        [np.broadcast_to(hidden_u, (m, nh)).ravel(), np.broadcast_to(visible_u, (m, nv)).ravel()]
    )


def hidden_probabilities_within(params, visible, beta, low, high) -> bool:
    """Whether every probability of the Gibbs kernel's hidden phase, from
    the rows of `visible` at `beta`, lies in (low, high]: uniforms at `low`
    must turn every hidden unit on, and uniforms at `high` none."""
    m, nh, nv = visible.shape[0], params.num_hidden, params.num_visible
    hidden, betas = np.zeros((m, nh)), np.full(m, beta)
    on, off = (
        rbm.gibbs_sweep_chains(
            params, visible, hidden, betas, 1, preset_uniforms(m, nh, nv, u, 0.0)
        )[1]
        for u in (low, high)
    )
    return bool(on.all() and not off.any())


class TestEnergy:
    def test_all_zero_params(self):
        p = rbm.RbmParams(np.zeros((2, 3)), np.zeros(2), np.zeros(3))
        assert rbm.energies(p, *one_state([1.0, 0.0, 1.0], [1.0, 1.0])) == [0.0]

    def test_zero_state(self):
        p = random_params(np.random.default_rng(0), 3, 2)
        assert rbm.energies(p, *one_state(np.zeros(3), np.zeros(2))) == [0.0]

    def test_hand_case(self):
        # -(1*1*1 + 0.5*1 + (-0.25)*1), checked against a term-by-term oracle
        got = rbm.energies(tiny_params(), *one_state([1.0], [1.0]))
        assert got == pytest.approx([-1.25], abs=0)

    def test_linearity_in_params(self):
        rng = np.random.default_rng(1)
        p1 = random_params(rng, 4, 3)
        p2 = random_params(rng, 4, 3)
        both = rbm.RbmParams(
            p1.weights + p2.weights,
            p1.hidden_bias + p2.hidden_bias,
            p1.visible_bias + p2.visible_bias,
        )
        for _ in range(20):
            s = one_state(rng.random(4) < 0.5, rng.random(3) < 0.5)
            assert rbm.energies(both, *s) == pytest.approx(
                rbm.energies(p1, *s) + rbm.energies(p2, *s), rel=1e-12
            )

    @pytest.mark.parametrize(
        "m, nv, nh", [(8, 5, 3), (1, 4, 3), (6, 3, 7), (18, 64, 5), (50, 784, 10)]
    )
    def test_batch_energies_match_scalar(self, m, nv, nh):
        rng = np.random.default_rng(2)
        p = random_params(rng, nv, nh)
        visible = (rng.random((m, nv)) < 0.5).astype(float)
        hidden = (rng.random((m, nh)) < 0.5).astype(float)
        batch = rbm.energies(p, visible, hidden)
        assert batch.shape == (m,)
        for i in range(m):
            assert batch[i] == pytest.approx(
                reference_energy(p, visible[i], hidden[i]), rel=1e-12
            )


class TestConditionals:
    def test_beta_zero_is_uniform(self):
        p = random_params(np.random.default_rng(3), 4, 2, scale=5.0)
        v = np.array([1.0, 0.0, 1.0, 1.0])
        h = np.array([1.0, 0.0])
        # the Gibbs kernel's p_0(h | v) and p_0(v | h) are exactly 1/2: a
        # uniform of 1/2 draws 0 and the next float below it draws 1
        below = np.nextafter(0.5, 0.0)
        for u, want in ((0.5, 0.0), (below, 1.0)):
            visible, hidden, _ = rbm.gibbs_sweep_chains(
                p, v[None], h[None], np.zeros(1), 1, preset_uniforms(1, 2, 4, u, u)
            )
            assert (hidden[0] == want).all()
            assert (visible[0] == want).all()

    def test_zero_params_give_half(self):
        p = rbm.RbmParams(np.zeros((2, 3)), np.zeros(2), np.zeros(3))
        assert rbm.hidden_conditional(p, np.ones(3)) == pytest.approx([0.5, 0.5])

    def test_hidden_hand_case(self):
        # the Gibbs kernel's p_0.5(h = 1 | v = 1) = sigmoid(0.5) to rel 1e-12,
        # cross-checked against two-state enumeration of p_b(h|v)
        p = rbm.RbmParams(np.array([[2.0]]), np.array([-1.0]), np.array([0.0]))
        want = 0.6224593312018546
        assert hidden_probabilities_within(
            p, np.ones((1, 1)), 0.5, want * (1 - 1e-12), want * (1 + 1e-12)
        )

    def test_visible_hand_case(self):
        # the Gibbs kernel's p(v = 1 | h = 1) = sigmoid(3) to rel 1e-12: a
        # uniform that far below it draws 1, one that far above draws 0
        p = rbm.RbmParams(np.array([[2.0]]), np.array([0.0]), np.array([1.0]))
        want = 0.9525741268224334
        for u, v in ((want * (1 - 1e-12), 1.0), (want * (1 + 1e-12), 0.0)):
            visible, hidden, _ = rbm.gibbs_sweep_chains(
                p, *one_state([1.0], [0.0]), np.ones(1), 1, preset_uniforms(1, 1, 1, 0.0, u)
            )
            assert hidden[0, 0] == 1.0 and visible[0, 0] == v

    def test_conditional_matches_enumeration(self):
        # p_b(h_i=1 | v) from the joint table equals the logistic formula
        rng = np.random.default_rng(4)
        p = random_params(rng, 3, 2)
        beta = 0.7
        joint = brute_joint_distribution(p, beta)
        h_all = enumerate_bits(2)
        v = np.array([1.0, 1.0, 0.0])
        col = joint[:, state_index(v)]
        cond = col / col.sum()
        want = cond @ h_all
        # the Gibbs kernel's tempered hidden phase
        assert hidden_probabilities_within(
            p, v[None], beta, want * (1 - 1e-10), want * (1 + 1e-10)
        )

    @pytest.mark.parametrize("beta", [1.0, 0.37, 0.0])
    def test_hidden_matches_out_of_place_formula(self, beta):
        # hidden_conditional at beta = 1, and the Gibbs kernel's hidden phase
        # at every beta, give the formula's probabilities to the bit
        rng = np.random.default_rng(66)
        p = random_params(rng, 64, 5)
        for visible in (rng.random(64) < 0.5, rng.random((7, 64)) < 0.5):
            visible = visible.astype(np.float64)
            if beta == 1.0:
                want = expit(visible @ p.weights.T + p.hidden_bias)
                assert same_bits(rbm.hidden_conditional(p, visible), want)
            rows = np.atleast_2d(visible)
            want = expit(beta * (rows @ p.weights.T + p.hidden_bias))
            assert hidden_probabilities_within(p, rows, beta, np.nextafter(want, -1.0), want)


# How far the Gibbs kernel's logistic may be from expit, in spacings of
# expit's value: fixed before the test was first run.
LOGISTIC_ULPS = 4


class TestGibbs:
    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize(
        "nv, nh, betas",
        [
            (4, 3, [1.0, 0.6, 0.3, 0.0]),
            (64, 5, np.linspace(1.0, 0.0, 10)),
            # 50 chains: the visible phase crosses to the vectorised logistic,
            # and at 64x30 the hidden phase too
            (784, 10, np.linspace(1.0, 0.0, 50)),
            (64, 30, np.linspace(1.0, 0.0, 50)),
        ],
        ids=["4x3", "64x5", "784x10", "64x30"],
    )
    def test_sweep_chains_stream_matches_reference(self, nv, nh, betas, steps):
        # the batched kernel, given one block of the sweep's uniforms, must
        # draw exactly the bits of the expit formula drawing phase by phase,
        # and the block must hold as many doubles as the phases draw
        rng = np.random.default_rng(60)
        p = random_params(rng, nv, nh, scale=1.5)
        betas = np.array(betas)
        m = len(betas)
        visible = (rng.random((m, nv)) < 0.5).astype(float)
        hidden = (rng.random((m, nh)) < 0.5).astype(float)
        v_in, h_in = visible.copy(), hidden.copy()
        got_rng, want_rng = np.random.default_rng(61), np.random.default_rng(61)
        uniforms = got_rng.random(steps * m * (nh + nv))
        got = rbm.gibbs_sweep_chains(p, visible, hidden, betas, steps, uniforms)
        want = reference_gibbs_sweep(p, visible, hidden, betas, steps, want_rng)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[0].dtype == got[1].dtype == np.float64
        if m * nv < rbm._VECTOR_LOGISTIC_MIN:
            assert same_bits(got[2], got[1] @ p.weights)
        else:
            assert got[2] is None
        assert np.array_equal(visible, v_in) and np.array_equal(hidden, h_in)
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("vectorised", [False, True], ids=["expit", "vectorised"])
    def test_logistic_matches_expit_on_both_sides(self, vectorised):
        grid = np.array([0.0, 1e-300, 36.0, 37.0, 709.0, 710.0, 800.0, np.inf])
        grid = np.concatenate([grid, -grid])
        size = rbm._VECTOR_LOGISTIC_MIN if vectorised else grid.size
        assert (size >= rbm._VECTOR_LOGISTIC_MIN) == vectorised
        x = np.resize(grid, size)
        beta_zero = np.resize(grid[np.isfinite(grid)], size) * 0.0
        logistic = rbm._logistic_for(size)
        assert (logistic is not expit) == vectorised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = x.copy()
            logistic(got, out=got)
            half = logistic(beta_zero, out=beta_zero)
        want = expit(x)
        assert np.all(np.abs(got - want) <= LOGISTIC_ULPS * np.spacing(want))
        assert np.all(half == 0.5)

    def test_beta_zero_fair_coins(self):
        p = random_params(np.random.default_rng(5), 3, 2, scale=10.0)
        rng = np.random.default_rng(6)
        visible, hidden = one_state(np.ones(3), np.ones(2))
        bits = np.zeros(5)
        n = 20_000
        for _ in range(n):
            v2, h2, _ = rbm.gibbs_sweep_chains(p, visible, hidden, np.zeros(1), 1, rng.random(5))
            bits += np.concatenate([v2[0], h2[0]])
        assert np.abs(bits / n - 0.5).max() < 0.02

    def test_strong_coupling_transitions(self):
        # 1x1 model: empirical move frequencies match the exact conditionals
        rng = np.random.default_rng(7)
        n = 100_000
        for sign in (1.0, -1.0):
            k = 6.0 * sign
            p = rbm.RbmParams(np.array([[k]]), np.zeros(1), np.zeros(1))
            start = one_state([1.0], [0.0])
            h_hits = 0
            v_hits = 0
            for _ in range(n):
                v2, h2, _ = rbm.gibbs_sweep_chains(p, *start, np.ones(1), 1, rng.random(2))
                h_hits += h2[0, 0] == 1.0
                v_hits += v2[0, 0] == 1.0
            p_h = 1.0 / (1.0 + np.exp(-k))
            p_v = p_h * p_h + (1 - p_h) * 0.5  # v'=1 via h=1 or the undriven h=0
            assert abs(h_hits / n - p_h) < 4 * np.sqrt(0.25 / n) + 1e-3
            assert abs(v_hits / n - p_v) < 4 * np.sqrt(0.25 / n) + 1e-3

    def test_stationarity_against_enumeration(self):
        # long single chain on a 4x3 model vs the exact tempered joint
        rng = np.random.default_rng(8)
        p = random_params(rng, 4, 3, scale=0.4)
        beta = np.array([0.8])
        exact = brute_joint_distribution(p, beta[0]).T.ravel()  # [v, h] order
        visible, hidden = one_state(np.zeros(4), np.zeros(3))
        n = 1_000_000
        counts = np.zeros(1 << 7)
        weights_v = 1 << np.arange(4)
        weights_h = 1 << np.arange(3)
        for _ in range(n):
            visible, hidden, _ = rbm.gibbs_sweep_chains(
                p, visible, hidden, beta, 1, rng.random(7)
            )
            idx = int(visible[0] @ weights_v) * 8 + int(hidden[0] @ weights_h)
            counts[idx] += 1
        assert total_variation(counts / n, exact) < 0.01


class TestExactPartition:
    def test_zero_params(self):
        p = rbm.RbmParams(np.zeros((3, 4)), np.zeros(3), np.zeros(4))
        assert rbm.exact_log_partition(p) == pytest.approx(7 * np.log(2), rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            nv = int(rng.integers(1, 9))
            nh = int(rng.integers(1, min(12 - nv, 8) + 1))
            p = random_params(rng, nv, nh, scale=2.0)
            got = rbm.exact_log_partition(p)
            want = brute_log_partition(p)
            assert got == pytest.approx(want, rel=1e-10)

    def test_both_orientations_agree(self):
        # swapping layer roles leaves Z unchanged but flips which layer is
        # enumerated
        rng = np.random.default_rng(12)
        p = random_params(rng, 7, 4, scale=1.5)
        swapped = rbm.RbmParams(p.weights.T, p.visible_bias, p.hidden_bias)
        assert rbm.exact_log_partition(p) == pytest.approx(
            rbm.exact_log_partition(swapped), rel=1e-10
        )

    def test_chunked_enumeration(self):
        # layer bigger than one enumeration block still sums correctly
        rng = np.random.default_rng(13)
        p = random_params(rng, 2, 13, scale=0.5)  # enumerates the 2-wide layer's mirror
        got = rbm.exact_log_partition(p)
        want = brute_log_partition(p)
        assert got == pytest.approx(want, rel=1e-10)

    def test_cap_enforced(self):
        p = rbm.RbmParams(np.zeros((30, 30)), np.zeros(30), np.zeros(30))
        with pytest.raises(rbm.IntractableModelError):
            rbm.exact_log_partition(p)


class TestExactLogLikelihood:
    def test_uniform_model(self):
        p = rbm.RbmParams(np.zeros((2, 5)), np.zeros(2), np.zeros(5))
        data = rbm.distinct_rows(np.random.default_rng(14).random((4, 5)) < 0.5)
        assert rbm.exact_log_likelihood(p, data) == pytest.approx(
            -5 * np.log(2), rel=1e-12
        )

    def test_single_example_matches_brute_force(self):
        rng = np.random.default_rng(15)
        p = random_params(rng, 3, 2, scale=1.2)
        v = np.array([1.0, 0.0, 1.0])
        assert rbm.exact_log_likelihood(p, rbm.distinct_rows(v[None])) == pytest.approx(
            brute_log_pv(p, v), rel=1e-10
        )

    def test_hidden_permutation_invariance(self):
        rng = np.random.default_rng(16)
        p = random_params(rng, 4, 3, scale=1.0)
        perm = [2, 0, 1]
        shuffled = rbm.RbmParams(p.weights[perm], p.hidden_bias[perm], p.visible_bias)
        data = rbm.distinct_rows(rng.random((6, 4)) < 0.5)
        assert rbm.exact_log_likelihood(p, data) == pytest.approx(
            rbm.exact_log_likelihood(shuffled, data), rel=1e-12
        )


def eval_snapshot(image_side):
    """The 10 000-row eval snapshot of dataset seed 0 at `image_side`, as
    sampled and as `build_dataset` keeps it."""
    data = experiment.DatasetSettings(image_side=image_side, eval_size=10_000)
    spec, eval_rows = experiment.build_dataset(data)
    rng = np.random.default_rng([data.data_seed, experiment._EVAL_STREAM])
    return dataset.sample_batch(spec, rng, data.eval_size), eval_rows


# (image side, hidden units, weight scale) of the ci and full presets
SNAPSHOT_SHAPES = {"ci": (8, 5, 1.0), "full": (28, 10, 0.3)}


class TestDistinctRows:
    @pytest.mark.parametrize("scale", SNAPSHOT_SHAPES)
    def test_real_snapshot(self, scale):
        raw, eval_rows = eval_snapshot(SNAPSHOT_SHAPES[scale][0])
        assert isinstance(eval_rows, rbm.DistinctRows)
        assert eval_rows.size == raw.shape[0] == eval_rows.counts.sum()
        keys = [row.tobytes() for row in eval_rows.rows]
        assert len(set(keys)) == len(keys)  # no row repeats
        # every snapshot row is present, with its multiplicity
        want = collections.Counter(row.tobytes() for row in raw)
        assert dict(zip(keys, eval_rows.counts)) == want
        assert same_bits(eval_rows.visible_sum, raw.sum(axis=0))

    def test_arrays_are_read_only(self):
        eval_rows = rbm.distinct_rows(np.eye(3))
        for array in (eval_rows.rows, eval_rows.counts, eval_rows.visible_sum):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_distinct_rows_never_merge(self):
        # 9 units pack into two bytes, the second one bit and seven of
        # padding: rows that differ only in that bit stay apart
        a, b, c, d = np.zeros(9), np.eye(9)[8], np.eye(9)[0], np.ones(9)
        data = np.array([a, b, a, c, b, a, d])
        eval_rows = rbm.distinct_rows(data)
        assert same_bits(eval_rows.rows, np.array([a, b, c, d]))
        assert same_bits(eval_rows.counts, np.array([3.0, 2.0, 1.0, 1.0]))
        assert same_bits(eval_rows.visible_sum, data.sum(axis=0))

    def test_rejects_empty_data(self):
        with pytest.raises(ValueError):
            rbm.distinct_rows(np.zeros((0, 4)))

    @pytest.mark.parametrize(
        "data",
        [[[1, 0], [2, 0]], [[1, 0], [1, 0.5]], [[0, np.nan]], [1, 0, 1], [[[1, 0]]]],
        ids=["two", "half", "nan", "vector", "3-d"],
    )
    def test_rejects_anything_but_binary_rows(self, data):
        with pytest.raises(ValueError):
            rbm.distinct_rows(np.array(data, dtype=np.float64))


class TestLikelihoodOnDistinctRows:
    @pytest.mark.parametrize("scale", SNAPSHOT_SHAPES)
    def test_matches_reference_on_real_snapshot(self, scale):
        image_side, nh, weight_scale = SNAPSHOT_SHAPES[scale]
        raw, eval_rows = eval_snapshot(image_side)
        p = random_params(np.random.default_rng(21), image_side**2, nh, scale=weight_scale)
        want = reference_exact_log_likelihood(p, raw)
        assert rbm.exact_log_likelihood(p, eval_rows) == pytest.approx(want, rel=1e-12)

    def test_intractable_raised_before_product(self):
        # rows of the wrong width would fail the product with a plain ValueError
        p = rbm.RbmParams(np.zeros((30, 30)), np.zeros(30), np.zeros(30))
        with pytest.raises(rbm.IntractableModelError):
            rbm.exact_log_likelihood(p, rbm.distinct_rows(np.zeros((2, 7))))


class TestSoftplus:
    def test_matches_logaddexp(self):
        x = np.array([0.0, 1e-300, 36.0, 37.0, 709.0, 710.0, 800.0, np.inf])
        x = np.concatenate([x, -x])
        want = np.logaddexp(0.0, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rbm._softplus(x.copy())
        finite = np.isfinite(want)
        assert np.all(np.abs(got[finite] - want[finite]) <= 4 * np.spacing(want[finite]))
        assert same_bits(got[~finite], want[~finite])

    def test_free_energy_and_partition_match_logaddexp(self):
        rng = np.random.default_rng(22)
        p = random_params(rng, 6, 4, scale=2.0)
        v = enumerate_bits(6)
        act = v @ p.weights.T + p.hidden_bias
        want = -(v @ p.visible_bias + np.logaddexp(0.0, act).sum(axis=1))
        assert rbm.free_energy(p, v) == pytest.approx(want, rel=1e-14)
        assert rbm.exact_log_partition(p) == pytest.approx(brute_log_partition(p), rel=1e-12)


class TestGradientCheck:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        from oracles import brute_data_moments, brute_model_moments

        step = 1e-5
        for _ in range(10):
            nv = int(rng.integers(2, 6))
            nh = int(rng.integers(2, min(12 - nv, 5) + 1))
            p = random_params(rng, nv, nh, scale=1.0)
            data = (rng.random((3, nv)) < 0.5).astype(float)
            rows = rbm.distinct_rows(data)

            ew, eh, ev = brute_model_moments(p)
            pos = [brute_data_moments(p, v) for v in data]
            grad_w = np.mean([g[0] for g in pos], axis=0) - ew
            grad_h = np.mean([g[1] for g in pos], axis=0) - eh
            grad_v = np.mean([g[2] for g in pos], axis=0) - ev

            def fd(getter):
                arr = getter(p)
                out = np.zeros_like(arr)
                for idx in np.ndindex(arr.shape):
                    orig = arr[idx]
                    arr[idx] = orig + step
                    hi = rbm.exact_log_likelihood(p, rows)
                    arr[idx] = orig - step
                    lo = rbm.exact_log_likelihood(p, rows)
                    arr[idx] = orig
                    out[idx] = (hi - lo) / (2 * step)
                return out

            for analytic, fd_grad in (
                (grad_w, fd(lambda q: q.weights)),
                (grad_h, fd(lambda q: q.hidden_bias)),
                (grad_v, fd(lambda q: q.visible_bias)),
            ):
                scale = max(np.abs(fd_grad).max(), 1e-12)
                assert np.abs(analytic - fd_grad).max() / scale <= 1e-6


class TestParamsPlumbing:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            rbm.RbmParams(np.array([[np.nan]]), np.zeros(1), np.zeros(1))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            rbm.RbmParams(np.zeros((2, 3)), np.zeros(3), np.zeros(3))

    def test_save_load_roundtrip(self, tmp_path):
        p = random_params(np.random.default_rng(18), 6, 4, scale=2.0)
        path = tmp_path / "model.rbm"
        rbm.save_params(p, path)
        q = rbm.load_params(path)
        assert q.weights == pytest.approx(p.weights, abs=0)
        assert q.hidden_bias == pytest.approx(p.hidden_bias, abs=0)
        assert q.visible_bias == pytest.approx(p.visible_bias, abs=0)

    @pytest.mark.parametrize("cut", [-1, -8, -1000, 1, 8], ids=lambda c: f"{c:+d}")
    def test_load_rejects_wrong_length(self, tmp_path, cut):
        p = random_params(np.random.default_rng(23), 6, 4)
        path = tmp_path / "model.rbm"
        rbm.save_params(p, path)
        raw = path.read_bytes()
        expected = len(raw)
        path.write_bytes(raw[:cut] if cut < 0 else raw + bytes(cut))
        actual = path.stat().st_size
        with pytest.raises(ValueError) as info:
            rbm.load_params(path)
        message = str(info.value)
        assert str(path) in message and str(actual) in message
        if actual >= 8:
            assert str(expected) in message

    def test_arrays_are_views_of_one_buffer(self, tmp_path):
        rng = np.random.default_rng(20)
        w, hb, vb = rng.normal(size=(4, 6)), rng.normal(size=4), rng.normal(size=6)
        direct = rbm.RbmParams(w, hb, vb)
        rbm.save_params(direct, tmp_path / "model.rbm")
        copied = rbm.RbmParams(direct.weights, direct.hidden_bias, direct.visible_bias)
        loaded = rbm.load_params(tmp_path / "model.rbm")
        for p in (direct, copied, loaded):
            assert same_bits(p.flat, np.concatenate([w.ravel(), hb, vb]))
            # a write to the buffer shows through all three arrays
            p.flat[:] = rng.normal(size=p.flat.size)
            views = np.concatenate([p.weights.ravel(), p.hidden_bias, p.visible_bias])
            assert same_bits(views, p.flat)
        for a, b in ((direct, copied), (direct, loaded), (copied, loaded)):
            assert not np.shares_memory(a.flat, b.flat)
        assert not np.shares_memory(direct.flat, w)

    def test_init_params_scale(self):
        p = rbm.init_params(100, 10, np.random.default_rng(19))
        assert np.abs(p.weights).max() <= 1.0 / np.sqrt(1000)
        assert not p.hidden_bias.any() and not p.visible_bias.any()
