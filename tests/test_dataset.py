import numpy as np
import pytest

from rbmpt import dataset

from oracles import reference_sample_batch, same_bits, total_variation


def toy_spec(num_components=3, width=4, seed=30, flip=(0.1, 0.25, 0.4)):
    rng = np.random.default_rng(seed)
    prototypes = (rng.random((num_components, width)) < 0.5).astype(float)
    weights = np.full(num_components, 1.0 / num_components)
    return dataset.MixtureSpec(prototypes, weights, np.array(flip))


class TestDefaultSpec:
    def test_default_constants(self):
        assert abs(sum(dataset.MIXTURE_WEIGHTS) - 1.0) < 1e-4
        spec = dataset.default_spec(np.random.default_rng(0))
        assert spec.flip_probs[0] == 0.0001
        assert spec.prototypes.shape == (5, 784)
        assert spec.weights == pytest.approx(dataset.MIXTURE_WEIGHTS, rel=1e-9)

    def test_prototypes_follow_seed(self):
        a = dataset.default_spec(np.random.default_rng(7), image_side=4)
        b = dataset.default_spec(np.random.default_rng(7), image_side=4)
        c = dataset.default_spec(np.random.default_rng(8), image_side=4)
        assert (a.prototypes == b.prototypes).all()
        assert (a.prototypes != c.prototypes).any()

    def test_validation(self):
        with pytest.raises(ValueError):
            dataset.MixtureSpec(np.zeros((2, 3)), np.array([0.7, 0.7]), np.zeros(2))
        with pytest.raises(ValueError):
            dataset.MixtureSpec(np.zeros((2, 3)), np.array([0.5, 0.5]), np.array([0.1, 0.9]))
        with pytest.raises(ValueError):
            dataset.MixtureSpec(
                np.array([[0.0, 2.0, 0.0]]), np.array([1.0]), np.array([0.1])
            )


class TestSampling:
    def test_noise_free_samples_are_prototypes(self):
        spec = toy_spec(flip=(0.0, 0.0, 0.0))
        rows = {tuple(r) for r in spec.prototypes}
        for row in dataset.sample_batch(spec, np.random.default_rng(31), 50):
            assert tuple(row) in rows

    def test_single_component(self):
        proto = (np.random.default_rng(32).random((5, 6)) < 0.5).astype(float)
        spec = dataset.MixtureSpec(proto, np.array([1.0, 0, 0, 0, 0]), np.zeros(5))
        batch = dataset.sample_batch(spec, np.random.default_rng(33), 200)
        assert (batch == proto[0]).all()

    def test_component_frequencies(self):
        rng = np.random.default_rng(34)
        prototypes = (rng.random((5, 16)) < 0.5).astype(float)
        assert len({tuple(r) for r in prototypes}) == 5
        weights = np.array(dataset.MIXTURE_WEIGHTS)
        weights = weights / weights.sum()
        spec = dataset.MixtureSpec(prototypes, weights, np.zeros(5))
        batch = dataset.sample_batch(spec, rng, 100_000)
        for m in range(5):
            freq = (batch == prototypes[m]).all(axis=1).mean()
            assert abs(freq - weights[m]) < 0.01

    def test_deterministic_given_seed(self):
        spec = toy_spec()
        a = dataset.sample_batch(spec, np.random.default_rng(35), 64)
        b = dataset.sample_batch(spec, np.random.default_rng(35), 64)
        assert (a == b).all()
        # and bit for bit the Generator.choice formula, generator state included
        default = dataset.default_spec(np.random.default_rng(7), image_side=8)
        for s in (spec, default):
            for seed in (35, 0, 1234):
                for n in (1, 5, 10_000):
                    got_rng = np.random.default_rng(seed)
                    want_rng = np.random.default_rng(seed)
                    got = dataset.sample_batch(s, got_rng, n)
                    want = reference_sample_batch(s, want_rng, n)
                    assert got.dtype == np.float64
                    assert np.array_equal(got, want)
                    assert got_rng.random() == want_rng.random()

    def test_sample_bits_are_the_packed_batch(self):
        # ragged last block and a ragged last byte
        spec = dataset.default_spec(np.random.default_rng(3), image_side=5)
        n = 2 * dataset._BITS_BLOCK + 37
        got_rng, want_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = dataset.sample_bits(spec, got_rng, n)
        want = dataset.sample_batch(spec, want_rng, n)
        assert got.dtype == np.uint8
        assert same_bits(got, np.packbits(want == 1, axis=1))
        assert got_rng.random() == want_rng.random()

    def test_batch_sampler_exposes_width(self):
        sampler = dataset.BatchSampler(toy_spec())
        assert sampler.num_visible == 4
        assert sampler(np.random.default_rng(36), 3).shape == (3, 4)


class TestMixtureLogLikelihood:
    def test_certain_prototype(self):
        proto = np.array([[1.0, 0.0, 1.0]])
        spec = dataset.MixtureSpec(proto, np.array([1.0]), np.array([0.0]))
        assert dataset.mixture_log_likelihood(spec, proto[0]) == 0.0

    def test_uniform_noise(self):
        spec = toy_spec(flip=(0.5, 0.5, 0.5))
        v = np.array([1.0, 1.0, 0.0, 1.0])
        assert dataset.mixture_log_likelihood(spec, v) == pytest.approx(
            -4 * np.log(2), rel=1e-12
        )

    def test_two_component_hand_case(self):
        # length-2 images: exhaustive probability table
        prototypes = np.array([[0.0, 0.0], [1.0, 1.0]])
        weights = np.array([0.3, 0.7])
        flips = np.array([0.1, 0.2])
        spec = dataset.MixtureSpec(prototypes, weights, flips)
        for v in ([0, 0], [0, 1], [1, 0], [1, 1]):
            v = np.array(v, dtype=float)
            want = 0.0
            for m in range(2):
                mism = int(np.abs(v - prototypes[m]).sum())
                want += weights[m] * flips[m] ** mism * (1 - flips[m]) ** (2 - mism)
            got = dataset.mixture_log_likelihood(spec, v)
            assert got == pytest.approx(np.log(want), rel=1e-12)

    def test_zero_flip_probability_mismatch(self):
        prototypes = np.array([[0.0, 0.0], [1.0, 1.0]])
        spec = dataset.MixtureSpec(prototypes, np.array([0.5, 0.5]), np.array([0.0, 0.25]))
        # first component is impossible for this v, second still covers it
        got = dataset.mixture_log_likelihood(spec, np.array([1.0, 0.0]))
        assert got == pytest.approx(np.log(0.5 * 0.25 * 0.75), rel=1e-12)
        # nothing covers a v only the p=0 component could have produced... but
        # any v is reachable through the noisy component, so stay finite
        assert np.isfinite(got)

    def test_pixel_permutation_equivariance(self):
        spec = toy_spec()
        rng = np.random.default_rng(37)
        perm = rng.permutation(4)
        permuted = dataset.MixtureSpec(spec.prototypes[:, perm], spec.weights, spec.flip_probs)
        v = (rng.random(4) < 0.5).astype(float)
        assert dataset.mixture_log_likelihood(spec, v) == pytest.approx(
            dataset.mixture_log_likelihood(permuted, v[perm]), rel=1e-12
        )


class TestSamplerDensityAgreement:
    def test_total_variation(self):
        # 1e6 draws on a 4-pixel toy mixture vs the implied exact distribution
        spec = toy_spec()
        rng = np.random.default_rng(38)
        batch = dataset.sample_batch(spec, rng, 1_000_000)
        idx = (batch @ (1 << np.arange(4))).astype(int)
        counts = np.bincount(idx, minlength=16) / len(idx)
        patterns = ((np.arange(16)[:, None] >> np.arange(4)) & 1).astype(float)
        exact = np.exp(
            [dataset.mixture_log_likelihood(spec, p) for p in patterns]
        )
        assert exact.sum() == pytest.approx(1.0, rel=1e-12)
        assert total_variation(counts, exact) < 0.01

