"""Synthetic benchmark generator: a mixture of noisy binary prototype images.

Each example picks a mixture component and returns its prototype with every
pixel independently flipped with that component's flip probability. The
default component weights and flip probabilities pair heavy, nearly
noise-free modes (hard for a Gibbs sampler to escape) with a heavy noisy
mode (prone to intercepting down-moving tempered particles).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rbm import _logsumexp, stacked_random

# Benchmark mixture constants: component weights and per-pixel flip
# probabilities of the five-mode mixture.
MIXTURE_WEIGHTS = (0.3314, 0.2262, 0.0812, 0.0254, 0.3358)
MIXTURE_FLIP_PROBS = (0.0001, 0.0137, 0.0215, 0.0223, 0.0544)

# Rows per block when `sample_bits` draws a large sample: at 28x28 one
# block's flips are 1.5 MiB of float64.
_BITS_BLOCK = 256


@dataclass
class MixtureSpec:
    """Mixture of noisy binary prototypes.

    prototypes: (m, d) array of 0/1 rows; weights: (m,) mixing weights
    summing to one; flip_probs: (m,) per-component pixel flip probabilities
    in [0, 0.5]. cdf is the normalised cumulative weight vector
    `sample_batch` draws components from, computed once after validation.
    """

    prototypes: np.ndarray
    weights: np.ndarray
    flip_probs: np.ndarray
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.prototypes = np.atleast_2d(np.asarray(self.prototypes, dtype=np.float64))
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.flip_probs = np.asarray(self.flip_probs, dtype=np.float64)
        m = self.prototypes.shape[0]
        if self.weights.shape != (m,) or self.flip_probs.shape != (m,):
            raise ValueError("weights/flip_probs must have one entry per prototype")
        if not np.isin(self.prototypes, (0.0, 1.0)).all():
            raise ValueError("prototypes must be binary")
        if (self.weights < 0).any() or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if (self.flip_probs < 0).any() or (self.flip_probs > 0.5).any():
            raise ValueError("flip probabilities must lie in [0, 0.5]")
        # the same normalisation Generator.choice(p=weights) applies per call
        self.cdf = self.weights.cumsum()
        self.cdf /= self.cdf[-1]

    @property
    def num_pixels(self) -> int:
        return self.prototypes.shape[1]


def default_spec(rng: np.random.Generator, image_side: int = 28) -> MixtureSpec:
    """The default five-component benchmark with seed-derived prototypes.

    Prototypes are i.i.d. fair-coin binary images of `image_side` squared
    pixels.
    """
    weights = np.array(MIXTURE_WEIGHTS)
    d = image_side * image_side
    prototypes = (rng.random((len(weights), d)) < 0.5).astype(np.float64)
    return MixtureSpec(prototypes, weights, np.array(MIXTURE_FLIP_PROBS))


def sample_batch(spec: MixtureSpec, rng, n: int) -> np.ndarray:
    """(n, d) batch of independent draws; from a list of R generators, an
    (R, n, d) stack whose slice r is the batch generator r alone gives.

    Components are drawn by inverting `spec.cdf`, which is what
    `rng.choice(len(weights), size=n, p=weights)` does after its argument
    checks, so the random stream is the same.
    """
    random = rng.random if type(rng) is not list else stacked_random(rng)
    comps = spec.cdf.searchsorted(random((n,)), side="right")
    flips = random((n, spec.num_pixels))
    np.less(flips, spec.flip_probs[comps, None], out=flips)
    # binary prototype xor binary flip, exactly |prototype - flip|
    return np.not_equal(spec.prototypes[comps], flips, out=flips)


def sample_bits(spec: MixtureSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """The rows `sample_batch(spec, rng, n)` draws, packed eight pixels to a
    byte (`np.packbits` along each row, zero padding bits): an
    (n, ceil(d / 8)) uint8 array. The flips are drawn `_BITS_BLOCK` rows at
    a time, the same doubles in the same order, and each block is packed as
    it is drawn, so no (n, d) array is ever held."""
    comps = spec.cdf.searchsorted(rng.random(n), side="right")
    # binary prototype xor binary flip, one packed byte of pixels at a time
    prototypes = np.packbits(spec.prototypes == 1, axis=1)
    bits = np.empty((n, prototypes.shape[1]), dtype=np.uint8)
    for start in range(0, n, _BITS_BLOCK):
        stop = min(start + _BITS_BLOCK, n)
        block = comps[start:stop]
        flips = rng.random((stop - start, spec.num_pixels))
        flipped = np.packbits(flips < spec.flip_probs[block, None], axis=1)
        np.bitwise_xor(prototypes[block], flipped, out=bits[start:stop])
    return bits


class BatchSampler:
    """Callable (rng, n) -> float64 (n, d) batch, or (R, n, d) from a list
    of R generators; exposes num_visible for model sizing. This is the
    sampler `training.train` and `training.train_lockstep` take."""

    def __init__(self, spec: MixtureSpec):
        self.spec = spec
        self.num_visible = spec.num_pixels

    def __call__(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return sample_batch(self.spec, rng, n)


def mixture_log_likelihood(spec: MixtureSpec, v: np.ndarray) -> float:
    """Exact log-density of one binary vector under the mixture.

    Computed in log space; a zero flip probability contributes -inf for a
    component with any mismatched pixel and drops out of the mixture sum.
    """
    v = np.asarray(v, dtype=np.float64)
    mismatches = np.abs(spec.prototypes - v).sum(axis=1)
    matches = spec.num_pixels - mismatches
    with np.errstate(divide="ignore"):
        log_p = np.log(spec.flip_probs)
        log_w = np.log(spec.weights)
    # a zero mismatch count must contribute exactly 0, not 0 * -inf
    terms = matches * np.log1p(-spec.flip_probs)
    hit = mismatches > 0
    terms[hit] += mismatches[hit] * log_p[hit]
    return float(_logsumexp(log_w + terms))
