"""Binary restricted Boltzmann machine: energy, the hidden conditional,
tempered Gibbs transitions, and exact partition/likelihood evaluation for
models small enough to enumerate one layer.

Units live in {0, 1}. The joint energy of a configuration (v, h) is

    E(v, h) = -(h' W v + b' h + c' v)

and the tempered family is p_beta(v, h) proportional to exp(-beta * E(v, h)),
so beta = 1 is the target model and beta = 0 is uniform over all states.
"""

from __future__ import annotations

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


class IntractableModelError(ValueError):
    """Raised when exact evaluation would require enumerating too large a layer."""


def split_flat(flat: np.ndarray, nh: int, nv: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views of weights, hidden bias and visible bias in a flat parameter
    buffer, (P,), or in each row of a stack of them, (R, P)."""
    k = nh * nv
    lead = flat.shape[:-1]
    return flat[..., :k].reshape(*lead, nh, nv), flat[..., k : k + nh], flat[..., k + nh :]


def stacked_random(rngs: list[np.random.Generator]):
    """A `random(shape)` for a stack of R replicas: an (R, *shape) array
    whose slice r generator rngs[r] fills, with the doubles
    `rngs[r].random(shape)` would return. With `rng.random` for a lone
    generator, a kernel draws the same way for both."""

    def random(shape: tuple[int, ...]) -> np.ndarray:
        out = np.empty((len(rngs), *shape))
        for generator, block in zip(rngs, out):
            generator.random(out=block)
        return out

    return random


@dataclass
class RbmParams:
    """Model parameters: weights (num_hidden x num_visible) plus bias vectors.

    The three arrays are copied into one contiguous float64 buffer, `flat`
    (row-major weights, then hidden bias, then visible bias), and are views
    of it, so a check over every parameter is one pass over `flat`.
    `RbmParams.view` wraps an existing buffer instead, which may also be a
    stack of R models, (R, P): the kernels then treat each row as one model.
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
        if not np.isfinite(self.flat).all():
            raise ValueError("parameters contain non-finite entries")

    @classmethod
    def view(cls, flat: np.ndarray, nh: int, nv: int) -> "RbmParams":
        """Parameters whose arrays are views of `flat`, (P,) or (R, P), as
        they stand: no copy and no check. The biases of a stack are
        (R, 1, n), so they broadcast over each replica's rows of states."""
        params = cls.__new__(cls)
        params.flat = flat
        weights, hidden_bias, visible_bias = split_flat(flat, nh, nv)
        if flat.ndim == 2:
            hidden_bias, visible_bias = hidden_bias[:, None], visible_bias[:, None]
        params.weights, params.hidden_bias, params.visible_bias = weights, hidden_bias, visible_bias
        return params

    @property
    def num_hidden(self) -> int:
        return self.weights.shape[-2]

    @property
    def num_visible(self) -> int:
        return self.weights.shape[-1]


def init_params(num_visible: int, num_hidden: int, rng: np.random.Generator) -> RbmParams:
    """Small symmetric random weights, zero biases."""
    scale = 1.0 / np.sqrt(num_visible * num_hidden)
    weights = rng.uniform(-scale, scale, size=(num_hidden, num_visible))
    return RbmParams(weights, np.zeros(num_hidden), np.zeros(num_visible))


def energies(
    params: RbmParams, visible: np.ndarray, hidden: np.ndarray, product=None
) -> np.ndarray:
    """Joint energies of a batch of states; visible (m, nv), hidden (m, nh),
    and `hidden @ params.weights` if the caller has it (the Gibbs kernel's)."""
    # one BLAS product, then a row-wise dot: a three-operand einsum would
    # run numpy's unblocked loop instead
    if product is None:
        product = hidden @ params.weights
    interaction = np.vecdot(product, visible)
    return -(interaction + hidden @ params.hidden_bias + visible @ params.visible_bias)


def stacked_energies(
    params: RbmParams, visible: np.ndarray, hidden: np.ndarray, product=None
) -> np.ndarray:
    """`energies` of R replicas in one call: stacked params, visible
    (R, m, nv) and hidden (R, m, nh) give (R, m), row r with the bits of
    `energies` on replica r."""
    if product is None:
        product = hidden @ params.weights
    interaction = np.vecdot(product, visible)
    # a (m, n) @ (n, 1) product per slice is the 2-D matrix-vector product
    hidden_term = (hidden @ params.hidden_bias.mT)[..., 0]
    visible_term = (visible @ params.visible_bias.mT)[..., 0]
    return -(interaction + hidden_term + visible_term)


def hidden_conditional(params: RbmParams, visible: np.ndarray) -> np.ndarray:
    """p(h_i = 1 | v) at beta = 1, componentwise logistic of b + W v.

    Accepts a single visible vector (nv,), a batch (m, nv), or with stacked
    params one batch per replica, (R, m, nv).
    """
    act = visible @ params.weights.mT
    act += params.hidden_bias
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
    uniforms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Advance m chains by `steps` Gibbs alternations, chain i at betas[i]:
    h ~ p_beta(h | v) = logistic(beta (b + W v)), then v ~ p_beta(v | h) =
    logistic(beta (c + W' h)).

    `uniforms` holds the draws, at least steps * m * (nh + nv): per step
    an (m, nh) block for the hidden phase, then an (m, nv) block for the
    visible phase. Each unit is 1 when its uniform falls below its
    probability; that 0/1 value overwrites the uniform, so the states
    returned are views of `uniforms`. Also returned, for `energies`, is the
    last `hidden @ weights` of a visible phase below `_VECTOR_LOGISTIC_MIN`
    entries per replica, else None (and for 0 steps).

    A stack of R replicas runs in the same calls: stacked params, visible
    (R, m, nv), hidden (R, m, nh), betas (R, m) and uniforms (R, n), row
    r replica r's. Every replica gets the bits its own 2-D call would give.

    A phase with fewer than `_VECTOR_LOGISTIC_MIN` entries per replica takes
    its probabilities from expit, so its draws are those of the reference
    formula bit for bit. A larger phase uses numpy's vectorised exp, which
    may put a probability up to 2 ulp away from expit's; only the 0/1
    draws leave this function, and a draw changes only when its uniform
    falls inside that band, which has probability at most 2^-52 per draw.
    """
    if steps < 0:
        raise ValueError(f"gibbs_steps must be 0 or more, got {steps}")
    b = betas[..., None]
    weights = params.weights
    weights_t = weights.mT
    hidden_bias = params.hidden_bias
    visible_bias = params.visible_bias
    m = visible.shape[-2]
    nh, nv = weights.shape[-2:]
    hidden_shape = (*uniforms.shape[:-1], m, nh)
    visible_shape = (*uniforms.shape[:-1], m, nv)
    # chosen per replica, so a replica's bits do not depend on the stack size
    hidden_logistic = _logistic_for(m * nh)
    visible_logistic = _logistic_for(m * nv)
    # the product is kept only for a phase small enough for expit: at 50 x 784
    # a third phase-sized buffer cost more per update than recomputing it
    keep = visible_logistic is expit
    product = None
    start = 0
    for _ in range(steps):
        ph = visible @ weights_t
        ph += hidden_bias
        ph *= b
        hidden_logistic(ph, out=ph)
        stop = start + m * nh
        hidden = uniforms[..., start:stop].reshape(hidden_shape)
        np.less(hidden, ph, out=hidden)
        pv = hidden @ weights
        if keep:
            product, pv = pv, pv + visible_bias
        else:
            pv += visible_bias
        pv *= b
        visible_logistic(pv, out=pv)
        start, stop = stop, stop + m * nv
        visible = uniforms[..., start:stop].reshape(visible_shape)
        np.less(visible, pv, out=visible)
        start = stop
    return visible, hidden, product


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


def exact_log_partition(params: RbmParams) -> float:
    """log Z of the beta = 1 model by summing out the smaller layer analytically.

    Enumerates the smaller of the two layers and uses
    Z = sum_h exp(b'h) prod_j (1 + exp(c_j + (W'h)_j))
    (or the visible-side mirror image), entirely in log space.
    """
    nh, nv = params.num_hidden, params.num_visible
    if min(nh, nv) > EXACT_LAYER_CAP:
        raise IntractableModelError(
            f"exact evaluation needs min(num_hidden, num_visible) <= {EXACT_LAYER_CAP}, "
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
        act = states @ cross.T
        act += bias_other
        terms = states @ bias_enum
        terms += _softplus(act).sum(axis=1)
        chunk_logs.append(logsumexp(terms))
    return float(logsumexp(np.array(chunk_logs)))


def free_energy(params: RbmParams, visible: np.ndarray) -> np.ndarray:
    """F(v) = -log sum_h exp(-E(v, h)) at beta = 1, hidden layer summed
    analytically.

    Accepts a single vector (nv,) or a batch (m, nv).
    """
    act = visible @ params.weights.T
    act += params.hidden_bias
    return -(visible @ params.visible_bias + _softplus(act).sum(axis=-1))


@dataclass(frozen=True)
class DistinctRows:
    """A binary data set reduced to what its exact likelihood reads: the
    distinct rows, (r, nv) float64; how often each occurs, (r,) float64 whole
    numbers summing to `size`; and their count-weighted sum over rows, (nv,),
    which is exact because it adds integers. Build it with `distinct_rows`;
    its arrays are read-only.
    """

    rows: np.ndarray
    counts: np.ndarray
    visible_sum: np.ndarray
    size: int


def distinct_rows(data: np.ndarray) -> DistinctRows:
    """An (m, nv) array of 0/1 rows, m >= 1, as a DistinctRows; a ValueError
    for any other input. Rows are grouped by their packed bits. A boolean
    array is read as is, so only its distinct rows are ever held as floats.
    """
    data = np.asarray(data)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError(f"data must be a matrix of at least one row, got shape {data.shape}")
    if data.dtype == bool:
        bits = data
        keys = np.packbits(bits, axis=1)
    else:
        data = data.astype(np.float64, copy=False)
        bits = data == 1.0
        keys = np.packbits(bits, axis=1)
        num_ones = np.count_nonzero(bits)
        # the rows are binary when the ones are all the nonzero entries
        if num_ones != np.count_nonzero(np.not_equal(data, 0.0, out=bits)):
            raise ValueError("data rows must hold only 0 and 1")
    # one opaque record per row, so np.unique compares whole rows bytewise
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    # rows in order of first occurrence: the gather reads `data` front to back
    order = first.argsort()
    rows = data[first[order]].astype(np.float64, copy=False)
    counts = counts[order].astype(np.float64)
    visible_sum = counts @ rows
    for array in (rows, counts, visible_sum):
        array.setflags(write=False)
    return DistinctRows(rows, counts, visible_sum, data.shape[0])


def exact_log_likelihood(params: RbmParams, data: DistinctRows) -> float:
    """Mean log p(v) over the rows of `data`, using the exact partition function.

    With n_r copies of the distinct row v_r among N rows, the mean is
    [sum_r n_r sum_j softplus(b + W v_r)_j + (sum_r n_r v_r) . c] / N - log Z.
    """
    if not isinstance(data, DistinctRows):
        raise TypeError(
            f"data must be an rbm.DistinctRows (build one with rbm.distinct_rows), "
            f"got {type(data).__name__}"
        )
    log_z = exact_log_partition(params)
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
