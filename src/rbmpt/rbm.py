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

# Largest layer we are willing to enumerate exactly (2^cap states).
EXACT_LAYER_CAP = 25

# States enumerated per chunk when summing out a layer; each chunk takes one
# log-sum-exp.
_ENUM_BLOCK = 4096

# Multiply-adds per blocked BLAS product (see `_block_rows`). OpenBLAS gives
# a matrix product one thread per 2^18 multiply-adds, so it runs one below
# 2^19 on a single thread at any thread count: a blocked product then has
# the same bits whatever OPENBLAS_NUM_THREADS is, and a `--jobs N` worker,
# which runs one thread, writes the likelihoods of a `--jobs 1` run.
_BLOCK_MACS = 1 << 19

# float64 entries (256 KiB) per slice of `_softplus`, so its exp(-|x|)
# buffer is one slice, not a second copy of the likelihood's (nh, r)
# activation.
_SOFTPLUS_ENTRIES = 1 << 15

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
    visible: np.ndarray, hidden: np.ndarray, product: np.ndarray, hidden_column: np.ndarray
) -> np.ndarray:
    """Joint energies E = -(v . (h W + c) + h . b) of a batch of states,
    visible (m, nv) and hidden (m, nh), from the visible pre-activation
    `product` = h W + c, (m, nv), that `gibbs_sweep_chains` returns, and the
    hidden bias as a column, (nh, 1). A stack of R replicas takes (R, m, ·)
    states, an (R, nh, 1) column (`hidden_bias.mT` of stacked params) and
    gives (R, m), row r with the bits of replica r's own call."""
    # a (m, n) @ (n, 1) product per replica is the 2-D matrix-vector
    # product, so a lone batch and each replica of a stack get the same bits
    return -(np.vecdot(product, visible) + (hidden @ hidden_column)[..., 0])


def expit(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """scipy.special.expit, imported at the first call, which rebinds this
    module's `expit` to scipy's ufunc. So importing rbmpt loads numpy but
    not scipy (about 0.2 s and 25 MB), and only a run that evaluates a
    logistic pays for that import. `hidden_conditional` and `_logistic_for`
    read the global when called, so after the first call they hand out
    the ufunc itself, with no Python call in between.
    """
    global expit
    from scipy.special import expit

    return expit(x, out=out)


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance m chains by `steps` Gibbs alternations, chain i at betas[i]:
    h ~ p_beta(h | v) = logistic(beta (b + W v)), then v ~ p_beta(v | h) =
    logistic(beta (c + W' h)).

    `uniforms` holds the draws, at least steps * m * (nh + nv): per step
    an (m, nh) block for the hidden phase, then an (m, nv) block for the
    visible phase. Each unit is 1 when its uniform falls below its
    probability; that 0/1 value overwrites the uniform, so the states
    returned are views of `uniforms`. Also returned, for `energies`, is the
    last visible phase's pre-activation `hidden @ weights + visible_bias`,
    before the beta scaling. It is kept as its own array at every size: the
    swap energies need it, and keeping it costs less than recomputing it,
    even at 50 chains of 784 units. `steps` must be at least 1.

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
    if steps < 1:
        raise ValueError(f"gibbs_steps must be 1 or more, got {steps}")
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
    start = 0
    for _ in range(steps):
        ph = visible @ weights_t
        ph += hidden_bias
        ph *= b
        hidden_logistic(ph, out=ph)
        stop = start + m * nh
        hidden = uniforms[..., start:stop].reshape(hidden_shape)
        np.less(hidden, ph, out=hidden)
        product = hidden @ weights
        product += visible_bias
        pv = product * b
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
    and +-inf give inf and 0 without a warning. Runs over slices of
    `_SOFTPLUS_ENTRIES` entries along the first axis, so its exp(-|x|)
    buffer is one slice; each entry gets the same operations.
    """
    step = max(1, _SOFTPLUS_ENTRIES * len(x) // max(x.size, 1))
    tail = np.empty_like(x[:step])
    for start in range(0, len(x), step):
        part = x[start : start + step]
        t = tail[: len(part)]
        np.abs(part, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
        np.maximum(part, 0.0, out=part)
        part += t
    return x


def _bit_patterns(n: int, start: int, stop: int) -> np.ndarray:
    """Rows `start:stop` of the 2^n enumeration of n-bit vectors."""
    idx = np.arange(start, stop, dtype=np.int64)[:, None]
    return ((idx >> np.arange(n)) & 1).astype(np.float64)


def _block_rows(row_macs: int) -> int:
    """Rows per block of a product that takes `row_macs` multiply-adds per
    row: the largest power of two whose block takes fewer than
    `_BLOCK_MACS`, and at least 1."""
    return 1 << max(0, ((_BLOCK_MACS - 1) // row_macs).bit_length() - 1)


def _logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) of a 1-D array of finite numbers and -inf, with at
    least one entry; -inf when every entry is -inf.

    Evaluates scipy.special.logsumexp's formula (scipy 1.17), so the two
    agree bit for bit: the entries equal to the maximum are taken out of the
    sum, s sums exp(a - max) over the rest in place, and with m maxima the
    result is log1p(s / m) + log(m) + max.
    """
    top = a.max()
    if top == -np.inf:
        return top
    is_top = a == top
    shifted = np.exp(a - top)
    shifted[is_top] = 0.0
    m = np.float64(np.count_nonzero(is_top))
    return np.log1p(shifted.sum() / m) + np.log(m) + top


def exact_log_partition(params: RbmParams) -> float:
    """log Z of the beta = 1 model by summing out the smaller layer analytically.

    Enumerates the smaller of the two layers and uses
    Z = sum_h exp(b'h) prod_j (1 + exp(c_j + (W'h)_j))
    (or the visible-side mirror image), entirely in log space, one
    log-sum-exp per chunk of `_ENUM_BLOCK` states.
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
        chunk_logs.append(_logsumexp(_chunk_terms(states, bias_enum, cross, bias_other)))
    return float(_logsumexp(np.array(chunk_logs)))


def _chunk_terms(
    states: np.ndarray, bias_enum: np.ndarray, cross: np.ndarray, bias_other: np.ndarray
) -> np.ndarray:
    """log of each enumerated state's summed-out weight,
    states @ bias_enum + sum_j softplus(states @ cross.T + bias_other)_j,
    with the activations of `_block_rows` states held at a time, in one
    buffer."""
    terms = states @ bias_enum
    step = _block_rows(cross.size)
    buffer = np.empty((min(step, states.shape[0]), cross.shape[0]))
    for start in range(0, states.shape[0], step):
        block = states[start : start + step]
        act = np.matmul(block, cross.T, out=buffer[: block.shape[0]])
        act += bias_other
        terms[start : start + step] += _softplus(act).sum(axis=1)
    return terms


def free_energy(params: RbmParams, visible: np.ndarray) -> np.ndarray:
    """F(v) = -log sum_h exp(-E(v, h)) at beta = 1 of a batch (m, nv), the
    hidden layer summed analytically: the negated chunk terms of the
    visible-side enumeration in `exact_log_partition`."""
    return -_chunk_terms(visible, params.visible_bias, params.weights, params.hidden_bias)


@dataclass(frozen=True)
class DistinctRows:
    """A binary data set reduced to what its exact likelihood reads: the
    distinct rows of `num_visible` units, packed eight units to a byte
    (`np.packbits` along each row, zero padding bits), (r, ceil(nv / 8))
    uint8, in order of first occurrence; how often each occurs, (r,)
    float64 whole numbers summing to `size`; and their count-weighted sum
    over rows, (nv,) float64, which is exact because it adds whole numbers.
    Build it with `distinct_rows`; its arrays are read-only, pickled or not.
    `exact_log_likelihood` unpacks the rows one block at a time.
    """

    rows: np.ndarray
    counts: np.ndarray
    visible_sum: np.ndarray
    size: int
    num_visible: int

    def __post_init__(self):
        for array in (self.rows, self.counts, self.visible_sum):
            array.setflags(write=False)

    def __reduce__(self):
        # rebuilt through the constructor, which freezes the copied arrays
        return DistinctRows, tuple(vars(self).values())


def distinct_rows(packed: np.ndarray, num_visible: int) -> DistinctRows:
    """m >= 1 rows of `num_visible` binary units, packed as
    `DistinctRows.rows` holds them (as `dataset.sample_bits` draws them), as
    a DistinctRows; a ValueError for any other input. Rows are grouped by
    their packed bytes.
    """
    data = np.asarray(packed)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError(f"data must be a matrix of at least one row, got shape {data.shape}")
    width = -(-num_visible // 8)
    if num_visible < 1 or data.dtype != np.uint8 or data.shape[1] != width:
        raise ValueError(
            f"packed rows of {num_visible} units must be uint8 of {width} bytes, "
            f"got {data.dtype} of {data.shape[1]}"
        )
    # the last byte's low bits pad the row
    if (data[:, -1] & ((1 << (8 * width - num_visible)) - 1)).any():
        raise ValueError("packed rows must have zero padding bits")
    # one opaque record per row, so np.unique compares whole rows bytewise
    keys = data.view(np.dtype((np.void, data.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    # rows in order of first occurrence: the gather reads `data` front to back
    order = first.argsort()
    rows = data[first[order]]
    counts = counts[order].astype(np.float64)
    # a block at a time, so only one block of rows is ever held unpacked;
    # einsum casts it to float64 a buffer at a time, where `@` would copy it
    visible_sum = np.zeros(num_visible)
    step = _block_rows(num_visible)
    for start in range(0, rows.shape[0], step):
        block = np.unpackbits(rows[start : start + step], axis=1, count=num_visible)
        visible_sum += np.einsum("r,rv->v", counts[start : start + step], block)
    return DistinctRows(rows, counts, visible_sum, data.shape[0], num_visible)


def _row_products(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """weights @ rows.T as float64, (nh, r) rather than (r, nh), the faster
    layout for BLAS, from rows packed as `DistinctRows.rows` holds them:
    the rows are unpacked `_block_rows` at a time into one float64 buffer,
    and each block's product fills its columns."""
    r, (nh, nv) = rows.shape[0], weights.shape
    step = min(_block_rows(nh * nv), r)
    block = np.empty((step, nv))
    out = np.empty((nh, r))
    for start in range(0, r, step):
        stop = min(start + step, r)
        part = block[: stop - start]
        np.copyto(part, np.unpackbits(rows[start:stop], axis=1, count=nv))
        np.matmul(weights, part.T, out=out[:, start:stop])
    return out


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
    # log Z first, so an intractable model is reported as such
    log_z = exact_log_partition(params)
    # packed rows of 1 to 8 units have the same width, so the product
    # would not catch a mismatch
    if data.num_visible != params.num_visible:
        raise ValueError(
            f"data rows have {data.num_visible} units, "
            f"the model {params.num_visible} visible units"
        )
    act = _row_products(params.weights, data.rows)
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
