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
from pathlib import Path

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


def split_flat(flat: np.ndarray, nh: int, nv: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views of weights, hidden bias and visible bias in a flat parameter buffer."""
    k = nh * nv
    return flat[:k].reshape(nh, nv), flat[k : k + nh], flat[k + nh :]


@dataclass
class RbmParams:
    """Model parameters: weights (num_hidden x num_visible) plus bias vectors.

    The three arrays are copied into one contiguous float64 buffer, `flat`
    (row-major weights, then hidden bias, then visible bias), and are views
    of it, so a check over every parameter is one pass over `flat`.
    """

    weights: np.ndarray
    hidden_bias: np.ndarray
    visible_bias: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        hidden_bias = np.asarray(self.hidden_bias, dtype=np.float64)
        visible_bias = np.asarray(self.visible_bias, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError("weights must be a matrix")
        nh, nv = weights.shape
        if hidden_bias.shape != (nh,) or visible_bias.shape != (nv,):
            raise ValueError(
                f"bias shapes {hidden_bias.shape}/{visible_bias.shape} "
                f"inconsistent with weights {weights.shape}"
            )
        self.flat = np.concatenate([weights.ravel(), hidden_bias, visible_bias])
        self.weights, self.hidden_bias, self.visible_bias = split_flat(self.flat, nh, nv)
        if not self.all_finite():
            raise ValueError("parameters contain non-finite entries")

    @property
    def num_hidden(self) -> int:
        return self.weights.shape[0]

    @property
    def num_visible(self) -> int:
        return self.weights.shape[1]

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())

    def copy(self) -> "RbmParams":
        return RbmParams(self.weights, self.hidden_bias, self.visible_bias)


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
    # in place on the fresh product, skipping a factor of 1.0: the same bits
    act = visible @ params.weights.T
    act += params.hidden_bias
    if beta != 1.0:
        act *= _check_beta(beta)
    return expit(act, out=act)


def _vector_logistic(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write 1 / (1 + exp(-x)), the formula expit evaluates, to `out`, with
    numpy's vectorised exp, which may differ from libm's by 1 ulp. An
    overflowing exp gives 1 / inf = 0, as expit does, without a warning.
    Called as `expit(x, out=x)` is, so the two are interchangeable.
    """
    np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _logistic_for(size: int):
    """The logistic for a phase of `size` entries: expit below
    `_VECTOR_LOGISTIC_MIN`, the vectorised form from there on."""
    return expit if size < _VECTOR_LOGISTIC_MIN else _vector_logistic


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
    m = visible.shape[0]
    nh, nv = weights.shape
    hidden_logistic = _logistic_for(m * nh)
    visible_logistic = _logistic_for(m * nv)
    for _ in range(steps):
        ph = visible @ weights_t
        ph += hidden_bias
        ph *= b
        hidden_logistic(ph, out=ph)
        hidden = rng.random(ph.shape)
        np.less(hidden, ph, out=hidden)
        pv = hidden @ weights
        pv += visible_bias
        pv *= b
        visible_logistic(pv, out=pv)
        visible = rng.random(pv.shape)
        np.less(visible, pv, out=visible)
    return visible, hidden


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) in place on `x`, as max(x, 0) + log1p(exp(-|x|)):
    the formula np.logaddexp(0, x) evaluates, but with numpy's vectorised
    exp and log1p rather than one scalar libm call per entry, so a result
    may differ from logaddexp's by a few ulp. exp(-|x|) never overflows,
    and +-inf give inf and 0 without a warning.
    """
    tail = np.abs(x)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    np.maximum(x, 0.0, out=x)
    x += tail
    return x


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
        terms += _softplus(act).sum(axis=1)
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
    return -(visible_term + _softplus(act).sum(axis=-1))


@dataclass(frozen=True)
class DistinctRows:
    """A data set reduced to what its exact likelihood reads: the distinct
    rows, (r, nv) float64; how often each occurs, (r,) float64 whole numbers
    summing to `size`; and their count-weighted sum over rows, (nv,), which
    is exact for binary rows because it adds integers. Build it with
    `distinct_rows`; its arrays are read-only.
    """

    rows: np.ndarray
    counts: np.ndarray
    visible_sum: np.ndarray
    size: int


def distinct_rows(data) -> DistinctRows:
    """`data` (one vector or an (m, nv) batch of rows) as a DistinctRows;
    a DistinctRows is returned as it is.

    Rows are grouped by their exact contents: binary rows by their packed
    bits, any other rows by their float64 bytes, so two rows merge only when
    they are equal entry for entry.
    """
    if isinstance(data, DistinctRows):
        return data
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError(f"data must hold at least one row, got shape {data.shape}")
    bits = data == 1.0
    keys = np.packbits(bits, axis=1)
    num_ones = np.count_nonzero(bits)
    # the rows are binary when the ones are all the nonzero entries; if not,
    # the rows' float64 bytes are the keys
    if num_ones != np.count_nonzero(np.not_equal(data, 0.0, out=bits)):
        keys = np.ascontiguousarray(data)
    # one opaque record per row, so np.unique compares whole rows bytewise
    keys = keys.view(np.dtype((np.void, keys.shape[1] * keys.itemsize))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    # rows in order of first occurrence: the gather reads `data` front to back
    order = first.argsort()
    rows = data[first[order]]
    counts = counts[order].astype(np.float64)
    visible_sum = counts @ rows
    for array in (rows, counts, visible_sum):
        array.setflags(write=False)
    return DistinctRows(rows, counts, visible_sum, data.shape[0])


def exact_log_likelihood(params: RbmParams, data, layer_cap: int = EXACT_LAYER_CAP) -> float:
    """Mean log p(v) over the rows of `data`, using the exact partition function.

    `data` is a DistinctRows or anything `distinct_rows` takes. With n_r
    copies of the distinct row v_r among N rows, the mean is
    [sum_r n_r sum_j softplus(b + W v_r)_j + (sum_r n_r v_r) . c] / N - log Z.
    """
    data = distinct_rows(data)
    log_z = exact_log_partition(params, 1.0, layer_cap=layer_cap)
    # (nh, r) rather than (r, nh): the faster layout for BLAS, the same bits
    act = params.weights @ data.rows.T
    act += params.hidden_bias[:, None]
    hidden_term = (_softplus(act) @ data.counts).sum()
    return float((hidden_term + data.visible_sum @ params.visible_bias) / data.size - log_z)


_HEADER = struct.Struct("<II")


def save_params(params: RbmParams, path) -> None:
    """Flat binary snapshot: '<II' dims header (num_visible, num_hidden), then
    row-major weights, hidden_bias, visible_bias as little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(params.num_visible, params.num_hidden))
        fh.write(params.flat.astype("<f8").tobytes())


def load_params(path) -> RbmParams:
    """Read a `save_params` snapshot; a ValueError naming the path if the
    file is not exactly as long as its header says."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: expected at least {_HEADER.size} bytes, got {len(raw)}")
    nv, nh = _HEADER.unpack_from(raw)
    expected = _HEADER.size + 8 * (nh * nv + nh + nv)
    if len(raw) != expected:
        raise ValueError(
            f"{path}: expected {expected} bytes for {nv} visible and {nh} hidden units, "
            f"got {len(raw)}"
        )
    flat = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    # RbmParams copies the three views into a buffer of its own
    return RbmParams(*split_flat(flat, nh, nv))
