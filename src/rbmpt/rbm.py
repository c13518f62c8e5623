"""Binary restricted Boltzmann machine: energy, tempered conditionals, Gibbs
transitions, and exact partition/likelihood evaluation for models small
enough to enumerate one layer.

Units live in {0, 1}. The joint energy of a configuration (v, h) is

    E(v, h) = -(h' W v + b' h + c' v)

and the tempered family is p_beta(v, h) proportional to exp(-beta * E(v, h)),
so beta = 1 is the target model and beta = 0 is uniform over all states.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp

# Largest layer we are willing to enumerate exactly (2^cap states).
EXACT_LAYER_CAP = 25

# States enumerated per block when summing out a layer, to bound memory.
_ENUM_BLOCK = 4096

# Entries from which the Gibbs kernel's logistic uses numpy's vectorised exp
# rather than scipy's expit, whose loop calls scalar libm exp per entry. Timed
# on a 2-vCPU Xeon (numpy 2.4, AVX-512) the two break even between 640 and
# 1024 entries; at 39 200 (50 chains x 784 units) the vectorised form is
# about 3x faster.
_VECTOR_LOGISTIC_MIN = 1024


# Row-wise dot product of two (m, n) arrays. np.vecdot (numpy >= 2.0) is one
# gufunc call, several times cheaper than einsum's setup at chain-batch sizes.
_row_dot = getattr(np, "vecdot", None) or functools.partial(np.einsum, "mv,mv->m")


class IntractableModelError(ValueError):
    """Raised when exact evaluation would require enumerating too large a layer."""


@dataclass
class RbmParams:
    """Model parameters: weights (num_hidden x num_visible) plus bias vectors."""

    weights: np.ndarray
    hidden_bias: np.ndarray
    visible_bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.hidden_bias = np.asarray(self.hidden_bias, dtype=np.float64)
        self.visible_bias = np.asarray(self.visible_bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be a matrix")
        nh, nv = self.weights.shape
        if self.hidden_bias.shape != (nh,) or self.visible_bias.shape != (nv,):
            raise ValueError(
                f"bias shapes {self.hidden_bias.shape}/{self.visible_bias.shape} "
                f"inconsistent with weights {self.weights.shape}"
            )
        if not self.all_finite():
            raise ValueError("parameters contain non-finite entries")

    @property
    def num_hidden(self) -> int:
        return self.weights.shape[0]

    @property
    def num_visible(self) -> int:
        return self.weights.shape[1]

    def all_finite(self) -> bool:
        return bool(
            np.isfinite(self.weights).all()
            and np.isfinite(self.hidden_bias).all()
            and np.isfinite(self.visible_bias).all()
        )

    def copy(self) -> "RbmParams":
        return RbmParams(
            self.weights.copy(), self.hidden_bias.copy(), self.visible_bias.copy()
        )


def init_params(num_visible: int, num_hidden: int, rng: np.random.Generator) -> RbmParams:
    """Small symmetric random weights, zero biases."""
    scale = 1.0 / np.sqrt(num_visible * num_hidden)
    weights = rng.uniform(-scale, scale, size=(num_hidden, num_visible))
    return RbmParams(weights, np.zeros(num_hidden), np.zeros(num_visible))


def energies(params: RbmParams, visible: np.ndarray, hidden: np.ndarray) -> np.ndarray:
    """Joint energies of a batch of states; visible (m, nv), hidden (m, nh)."""
    # one BLAS product, then a row-wise dot: a three-operand einsum would
    # run numpy's unblocked loop instead
    interaction = _row_dot(hidden @ params.weights, visible)
    return -(interaction + hidden @ params.hidden_bias + visible @ params.visible_bias)


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return beta


def hidden_conditional(params: RbmParams, visible: np.ndarray, beta: float) -> np.ndarray:
    """p_beta(h_i = 1 | v), componentwise logistic of beta * (b + W v).

    Accepts a single visible vector (nv,) or a batch (m, nv).
    """
    beta = _check_beta(beta)
    # in place on the fresh product, skipping a factor of 1.0: the same bits
    act = visible @ params.weights.T
    act += params.hidden_bias
    if beta != 1.0:
        act *= beta
    return expit(act, out=act)


def _logistic_inplace(x: np.ndarray) -> np.ndarray:
    """Overwrite x with 1 / (1 + exp(-x)), the formula expit evaluates.

    From `_VECTOR_LOGISTIC_MIN` entries on, exp is numpy's vectorised one,
    which may differ from libm's by 1 ulp; below it, expit itself. An
    overflowing exp gives 1 / inf = 0, as expit does, without a warning.
    """
    if x.size < _VECTOR_LOGISTIC_MIN:
        return expit(x, out=x)
    np.negative(x, out=x)
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    x += 1.0
    return np.reciprocal(x, out=x)


def gibbs_sweep_chains(
    params: RbmParams,
    visible: np.ndarray,
    hidden: np.ndarray,
    betas: np.ndarray,
    steps: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance m chains by `steps` Gibbs alternations, chain i at betas[i]:
    h ~ p_beta(h | v) = logistic(beta (b + W v)), then v ~ p_beta(v | h) =
    logistic(beta (c + W' h)).

    Draw order is hidden then visible, one uniform block per phase, and
    each unit is 1 when its uniform falls below its probability. Each phase
    works in place on its pre-activation and uniform buffers; the input
    arrays are not modified.

    A phase with fewer than `_VECTOR_LOGISTIC_MIN` entries takes its
    probabilities from expit, so its draws are those of the reference
    formula bit for bit. A larger phase uses numpy's vectorised exp, which
    may put a probability up to 2 ulp away from expit's; only the 0/1
    draws leave this function, and a draw changes only when its uniform
    falls inside that band, which has probability at most 2^-52 per draw.
    """
    b = betas[:, None]
    weights = params.weights
    weights_t = weights.T
    hidden_bias = params.hidden_bias
    visible_bias = params.visible_bias
    for _ in range(steps):
        ph = visible @ weights_t
        ph += hidden_bias
        ph *= b
        _logistic_inplace(ph)
        hidden = rng.random(ph.shape)
        np.less(hidden, ph, out=hidden)
        pv = hidden @ weights
        pv += visible_bias
        pv *= b
        _logistic_inplace(pv)
        visible = rng.random(pv.shape)
        np.less(visible, pv, out=visible)
    return visible, hidden


def _bit_patterns(n: int, start: int, stop: int) -> np.ndarray:
    """Rows `start:stop` of the 2^n enumeration of n-bit vectors."""
    idx = np.arange(start, stop, dtype=np.int64)[:, None]
    return ((idx >> np.arange(n)) & 1).astype(np.float64)


def exact_log_partition(
    params: RbmParams, beta: float = 1.0, layer_cap: int = EXACT_LAYER_CAP
) -> float:
    """log Z(beta) by summing out the smaller layer analytically.

    Enumerates the smaller of the two layers and uses
    Z(beta) = sum_h exp(beta b'h) prod_j (1 + exp(beta (c_j + (W'h)_j)))
    (or the visible-side mirror image), entirely in log space.
    """
    beta = _check_beta(beta)
    nh, nv = params.num_hidden, params.num_visible
    if min(nh, nv) > layer_cap:
        raise IntractableModelError(
            f"exact evaluation needs min(num_hidden, num_visible) <= {layer_cap}, "
            f"got {nh} hidden / {nv} visible"
        )
    if nh <= nv:
        n_enum = nh
        bias_enum, bias_other = params.hidden_bias, params.visible_bias
        cross = params.weights.T  # (nv, nh): activation of the kept layer
    else:
        n_enum = nv
        bias_enum, bias_other = params.visible_bias, params.hidden_bias
        cross = params.weights  # (nh, nv)
    total = 1 << n_enum
    chunk_logs = []
    for start in range(0, total, _ENUM_BLOCK):
        states = _bit_patterns(n_enum, start, min(start + _ENUM_BLOCK, total))
        # in place on the fresh products, skipping a factor of 1.0: the same bits
        act = states @ cross.T
        act += bias_other
        terms = states @ bias_enum
        if beta != 1.0:
            act *= beta
            terms *= beta
        terms += np.logaddexp(0.0, act, out=act).sum(axis=1)
        chunk_logs.append(logsumexp(terms))
    return float(logsumexp(np.array(chunk_logs)))


def free_energy(params: RbmParams, visible: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """F_beta(v) = -log sum_h exp(-beta E(v, h)), hidden layer summed analytically.

    Accepts a single vector (nv,) or a batch (m, nv).
    """
    beta = _check_beta(beta)
    # in place on the fresh products, skipping a factor of 1.0: the same bits
    act = visible @ params.weights.T
    act += params.hidden_bias
    visible_term = visible @ params.visible_bias
    if beta != 1.0:
        act *= beta
        visible_term = beta * visible_term
    return -(visible_term + np.logaddexp(0.0, act, out=act).sum(axis=-1))


def exact_log_likelihood(
    params: RbmParams, data: np.ndarray, layer_cap: int = EXACT_LAYER_CAP
) -> float:
    """Mean log p(v) over the rows of `data`, using the exact partition function."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    log_z = exact_log_partition(params, 1.0, layer_cap=layer_cap)
    return float(np.mean(-free_energy(params, data) - log_z))


def save_params(params: RbmParams, path) -> None:
    """Flat binary snapshot: '<II' dims header (num_visible, num_hidden), then
    row-major weights, hidden_bias, visible_bias as little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", params.num_visible, params.num_hidden))
        fh.write(np.ascontiguousarray(params.weights, dtype="<f8").tobytes())
        fh.write(params.hidden_bias.astype("<f8").tobytes())
        fh.write(params.visible_bias.astype("<f8").tobytes())


def load_params(path) -> RbmParams:
    with open(path, "rb") as fh:
        nv, nh = struct.unpack("<II", fh.read(8))
        weights = np.frombuffer(fh.read(8 * nh * nv), dtype="<f8").reshape(nh, nv)
        hidden_bias = np.frombuffer(fh.read(8 * nh), dtype="<f8")
        visible_bias = np.frombuffer(fh.read(8 * nv), dtype="<f8")
    return RbmParams(weights.copy(), hidden_bias.copy(), visible_bias.copy())
