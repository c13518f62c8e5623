"""Independent brute-force oracles the tests check the library against.

Everything here enumerates joint states explicitly and works straight from
the energy definition E(v, h) = -(h' W v + b' h + c' v); none of it reuses
the library's marginalization shortcuts, so agreement is meaningful.

The `reference_*` functions are plain out-of-place formulas for the
library's hot-path kernels: the samplers draw from the generator block by
block, phase by phase, which the library's one-block draws must match, and
the update rules use numpy scalars and masked adds. The library must
reproduce their output bit for bit. `kernel_energies` computes the visible
pre-activation that the swap-energy kernel takes from the Gibbs kernel, so
that kernel can be checked against `reference_energies` on any states.

The `unblocked_*` functions are the exact partition function and likelihood
as they stood before the library streamed them in blocks: one product over
all distinct rows, one over each chunk of states, one softplus over each
product, scipy's logsumexp. A block's product may round another way than
the one-call product, so the blocked forms must agree with them to within
1e-13, and bit for bit at the ci preset's shape. `boolean_distinct_rows` is
the snapshot reduction as it stood before the library kept the rows packed,
`unpacked_rows` reads packed rows back as booleans, and
`packed_distinct_rows` packs a 0/1 matrix for the library's
`distinct_rows`. `reference_free_energy` is the free energy as it stood
before the library took it from the enumeration's chunk terms.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit, logsumexp

from rbmpt.adaptation import _STRICT_EPS, MIN_BETA_GAP, AdaptationConfig, adapt_betas
from rbmpt import tempering
from rbmpt.rbm import (
    _ENUM_BLOCK,
    EXACT_LAYER_CAP,
    DistinctRows,
    IntractableModelError,
    RbmParams,
    _bit_patterns,
    distinct_rows,
    energies,
)
from rbmpt.tempering import (
    DOWN,
    RETURN_TIME_EMA_DECAY,
    SWAP_RATE_EMA_DECAY,
    UNSET,
    UP,
    deo_sweep,
)


def enumerate_bits(n: int) -> np.ndarray:
    """All 2^n binary vectors; row index i has bit j equal to (i >> j) & 1."""
    idx = np.arange(1 << n, dtype=np.int64)[:, None]
    return ((idx >> np.arange(n)) & 1).astype(np.float64)


def state_index(bits: np.ndarray) -> int:
    """Inverse of the enumerate_bits row ordering."""
    return int(np.asarray(bits) @ (1 << np.arange(len(bits))))


def reference_energy(params: RbmParams, visible: np.ndarray, hidden: np.ndarray) -> float:
    """E(v, h) = -(h' W v + b' h + c' v) of one joint state, term by term."""
    return float(
        -(
            hidden @ params.weights @ visible
            + params.hidden_bias @ hidden
            + params.visible_bias @ visible
        )
    )


def reference_energies(params: RbmParams, visible: np.ndarray, hidden: np.ndarray) -> np.ndarray:
    """E = -(v . (h W + c) + h . b) of a batch of m joint states, term by
    term: the visible pre-activation of all rows, each row's dot with its
    visible state, and the hidden bias term of all rows. These are the
    operations `rbm.energies` runs, so it must give the same bits."""
    activation = hidden @ params.weights + params.visible_bias
    interaction = np.array([activation[i] @ visible[i] for i in range(len(visible))])
    return -(interaction + hidden @ params.hidden_bias)


def kernel_energies(params: RbmParams, visible: np.ndarray, hidden: np.ndarray) -> np.ndarray:
    """`rbm.energies` of a batch, or with stacked params of a stack, fed the
    visible pre-activation `hidden @ weights + visible_bias` computed here
    with the Gibbs kernel's operations, and the hidden-bias column that
    `deo_sweep` passes: `hidden_bias[:, None]` alone, `hidden_bias.mT` for
    a stack."""
    product = hidden @ params.weights
    product += params.visible_bias
    stacked = params.flat.ndim == 2
    column = params.hidden_bias.mT if stacked else params.hidden_bias[:, None]
    return energies(visible, hidden, product, column)


def energy_table(params: RbmParams) -> np.ndarray:
    """(2^nh, 2^nv) table of joint energies over every configuration."""
    v_all = enumerate_bits(params.num_visible)
    h_all = enumerate_bits(params.num_hidden)
    interaction = h_all @ params.weights @ v_all.T
    return -(
        interaction
        + (h_all @ params.hidden_bias)[:, None]
        + (v_all @ params.visible_bias)[None, :]
    )


def brute_log_partition(params: RbmParams, beta: float = 1.0) -> float:
    """log Z(beta) by summing exp(-beta E) over every joint state."""
    return float(logsumexp(-beta * energy_table(params)))


def brute_joint_distribution(params: RbmParams, beta: float = 1.0) -> np.ndarray:
    """(2^nh, 2^nv) table of p_beta(v, h)."""
    e = -beta * energy_table(params)
    return np.exp(e - logsumexp(e))


def brute_visible_marginal(params: RbmParams, beta: float = 1.0) -> np.ndarray:
    """p_beta(v) over the 2^nv visible patterns, in enumerate_bits order."""
    return brute_joint_distribution(params, beta).sum(axis=0)


def brute_log_pv(params: RbmParams, v: np.ndarray) -> float:
    """log p(v) at beta = 1 from the full joint table."""
    marginal = brute_visible_marginal(params)
    return float(np.log(marginal[state_index(v)]))


def brute_model_moments(params: RbmParams):
    """Exact model expectations of (h v', h, v) under p(v, h)."""
    v_all = enumerate_bits(params.num_visible)
    h_all = enumerate_bits(params.num_hidden)
    p = brute_joint_distribution(params)
    ew = np.einsum("hv,hi,vj->ij", p, h_all, v_all)
    eh = p.sum(axis=1) @ h_all
    ev = p.sum(axis=0) @ v_all
    return ew, eh, ev


def brute_data_moments(params: RbmParams, v: np.ndarray):
    """Exact conditional expectations of (h v', h, v) under p(h | v)."""
    h_all = enumerate_bits(params.num_hidden)
    # -E(v, h); the c.v term is constant in h and cancels in the softmax
    logits = np.array(
        [
            h @ params.weights @ v + params.hidden_bias @ h + params.visible_bias @ v
            for h in h_all
        ]
    )
    p = np.exp(logits - logsumexp(logits))
    eh = p @ h_all
    return np.outer(eh, v), eh, v.copy()


def reference_exact_log_likelihood(params: RbmParams, data: np.ndarray) -> float:
    """Mean log p(v) over every row of `data`, one row at a time: the free
    energy -c.v - sum_i logaddexp(0, b_i + W_i v) of each row, and log Z
    from the same logaddexp over the enumerated hidden layer, then np.mean."""
    data = np.atleast_2d(data)
    h_all = enumerate_bits(params.num_hidden)
    log_z = logsumexp(
        h_all @ params.hidden_bias
        + np.logaddexp(0.0, h_all @ params.weights + params.visible_bias).sum(axis=1)
    )
    free = -(
        data @ params.visible_bias
        + np.logaddexp(0.0, data @ params.weights.T + params.hidden_bias).sum(axis=1)
    )
    return float(np.mean(-free - log_z))


def unblocked_exact_log_partition(params: RbmParams) -> float:
    """log Z by summing out the smaller layer, each chunk of states in one
    product; the library's form before it filled a chunk in blocks."""
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
        chunk_logs.append(logsumexp(unblocked_chunk_terms(states, bias_enum, cross, bias_other)))
    return float(logsumexp(np.array(chunk_logs)))


def unblocked_chunk_terms(states, bias_enum, cross, bias_other) -> np.ndarray:
    """The terms of one chunk of enumerated states from one product."""
    act = states @ cross.T
    act += bias_other
    terms = states @ bias_enum
    terms += whole_softplus(act).sum(axis=1)
    return terms


def unblocked_exact_log_likelihood(params: RbmParams, data: DistinctRows) -> float:
    """Mean log p(v) over `data` with every distinct row in one product, the
    rows unpacked and held as float64; the library's form before it
    streamed the rows in blocks."""
    rows = unpacked_rows(data).astype(np.float64)
    log_z = unblocked_exact_log_partition(params)
    # (nh, r) rather than (r, nh): the faster layout for BLAS, the same bits
    act = params.weights @ rows.T
    act += params.hidden_bias[:, None]
    hidden_term = (whole_softplus(act) @ data.counts).sum()
    return float((hidden_term + data.visible_sum @ params.visible_bias) / data.size - log_z)


def whole_softplus(x: np.ndarray) -> np.ndarray:
    """The library's softplus formula in place on all of `x` at once,
    max(x, 0) + log1p(exp(-|x|)), as it stood before it ran in slices."""
    tail = np.abs(x)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    np.maximum(x, 0.0, out=x)
    x += tail
    return x


def unpacked_rows(data: DistinctRows) -> np.ndarray:
    """The distinct rows of `data` as an (r, nv) boolean array."""
    return np.unpackbits(data.rows, axis=1, count=data.num_visible).astype(bool)


def boolean_distinct_rows(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, counts, visible_sum) of an (m, nv) array of 0/1 rows as the
    library built them before it kept the rows packed: the distinct rows as
    booleans in order of first occurrence, their counts as float64, and the
    count-weighted sum of the rows, exact because it adds whole numbers."""
    bits = np.asarray(data) == 1
    keys = np.packbits(bits, axis=1)
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = first.argsort()
    rows = bits[first[order]]
    counts = counts[order].astype(np.float64)
    return rows, counts, counts @ rows


def packed_distinct_rows(data: np.ndarray) -> DistinctRows:
    """`distinct_rows` of an (m, nv) array of 0/1 rows, float or boolean,
    packed eight units to a byte as `dataset.sample_bits` packs them."""
    bits = np.asarray(data) == 1
    return distinct_rows(np.packbits(bits, axis=1), bits.shape[1])


def reference_free_energy(params: RbmParams, visible: np.ndarray) -> np.ndarray:
    """F(v) of a batch (m, nv) as one product, one softplus over it and a
    sum: -(v . c + sum_j softplus(b + W v)_j)."""
    act = visible @ params.weights.T
    act += params.hidden_bias
    return -(visible @ params.visible_bias + whole_softplus(act).sum(axis=-1))


def random_params(rng: np.random.Generator, num_visible: int, num_hidden: int, scale: float = 1.0) -> RbmParams:
    return RbmParams(
        rng.uniform(-scale, scale, size=(num_hidden, num_visible)),
        rng.uniform(-scale, scale, size=num_hidden),
        rng.uniform(-scale, scale, size=num_visible),
    )


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def reference_sample_batch(spec, rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, d) mixture draws: components via Generator.choice, then pixel flips."""
    comps = rng.choice(len(spec.weights), size=n, p=spec.weights)
    flips = rng.random((n, spec.num_pixels)) < spec.flip_probs[comps, None]
    return np.abs(spec.prototypes[comps] - flips.astype(np.float64))


def reference_gibbs_sweep(
    params: RbmParams,
    visible: np.ndarray,
    hidden: np.ndarray,
    betas: np.ndarray,
    steps: int,
    rng: np.random.Generator,
):
    """`steps` tempered Gibbs alternations of m chains, chain i at betas[i]:
    hidden then visible, one uniform block per layer."""
    b = betas[:, None]
    for _ in range(steps):
        ph = expit(b * (visible @ params.weights.T + params.hidden_bias))
        hidden = (rng.random(ph.shape) < ph).astype(np.float64)
        pv = expit(b * (hidden @ params.weights + params.visible_bias))
        visible = (rng.random(pv.shape) < pv).astype(np.float64)
    return visible, hidden


def reference_deo_sweep(ensemble, params: RbmParams, gibbs_steps: int, rng):
    """One DEO sweep of a lone `ensemble`, drawn phase by phase:
    `reference_gibbs_sweep`, then one `rng.random` call with one uniform per
    proposed pair, decided by `swap_ratio` on `reference_energies`. The
    bookkeeping is written out step by step on new arrays, which replace
    the ensemble's."""
    betas = ensemble.betas.tolist()
    m = len(betas)
    visible, hidden = reference_gibbs_sweep(
        params, ensemble.visible, ensemble.hidden, ensemble.betas, gibbs_steps, rng
    )
    visible, hidden = visible.copy(), hidden.copy()
    labels, counters = ensemble.labels.copy(), ensemble.counters.copy()
    rates = ensemble.swap_rate_ema.copy()
    pairs = range(ensemble.sweep_parity, m - 1, 2)
    if len(pairs):
        e = reference_energies(params, visible, hidden).tolist()
        for i, u in zip(pairs, rng.random(len(pairs)).tolist()):
            accept = u < tempering.swap_ratio(e[i], e[i + 1], betas[i], betas[i + 1])
            gain = 1.0 - SWAP_RATE_EMA_DECAY if accept else 0.0
            rates[i] = rates[i] * SWAP_RATE_EMA_DECAY + gain
            if accept:
                for a in (visible, hidden, labels, counters):
                    a[[i, i + 1]] = a[[i + 1, i]]
    if m > 1:
        counters = counters + 1
        if labels[0] == DOWN:
            trip = int(counters[0])
            counters[0] = 0
            labels[0] = UP
            ensemble.round_trip_ema = (
                float(trip)
                if ensemble.round_trip_ema is None
                else RETURN_TIME_EMA_DECAY * ensemble.round_trip_ema
                + (1.0 - RETURN_TIME_EMA_DECAY) * trip
            )
        elif labels[0] == UNSET:
            labels[0] = UP
        if labels[-1] == UP:
            labels[-1] = DOWN
    ensemble.visible, ensemble.hidden = visible, hidden
    ensemble.labels, ensemble.counters, ensemble.swap_rate_ema = labels, counters, rates
    ensemble.sweep_parity ^= 1
    if ensemble.round_trip_ema is None:
        ensemble.tau_hat = max(1.0, float(counters.sum()))
    else:
        ensemble.tau_hat = max(1.0, ensemble.round_trip_ema)
    ensemble.burn_in_remaining = max(ensemble.burn_in_remaining - 1, 0)


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: stricter than np.array_equal, which
    takes -0.0 for 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_sml_update(
    params: RbmParams, minibatch: np.ndarray, v_neg: np.ndarray, lr: float
) -> RbmParams:
    """Parameters after one SML step: mean-field positive statistics of the
    minibatch minus those of the negative particle v_neg, times lr."""
    h_pos = expit(1.0 * (minibatch @ params.weights.T + params.hidden_bias))
    h_neg = expit(1.0 * (v_neg @ params.weights.T + params.hidden_bias))
    step = h_pos.T @ minibatch
    step /= minibatch.shape[0]
    step -= np.outer(h_neg, v_neg)
    step *= lr
    return RbmParams(
        params.weights + step,
        params.hidden_bias + lr * (h_pos.mean(axis=0) - h_neg),
        params.visible_bias + lr * (minibatch.mean(axis=0) - v_neg),
    )


def reference_optimal_betas(betas: np.ndarray, fup: np.ndarray) -> np.ndarray:
    """Equal-mass targets: running-minimum clamp of f_up on numpy scalars,
    then inversion of its interpolant at the levels 1 - i/(M-1)."""
    m = betas.shape[0]
    if m <= 2:
        return betas.copy()
    f = fup.copy()
    f[0] = 1.0
    f[-1] = 0.0
    for i in range(1, m):
        f[i] = min(f[i], f[i - 1] - _STRICT_EPS)
    levels = 1.0 - np.arange(m) / (m - 1)
    targets = betas.copy()
    targets[1:-1] = np.interp(levels[1:-1], f[::-1], betas[::-1])
    return targets


def reference_adapt_betas(betas: np.ndarray, fup: np.ndarray, mu: float) -> np.ndarray:
    """One relaxation step of size mu toward the targets, then the forward
    and backward MIN_BETA_GAP projections, on numpy scalars."""
    m = betas.shape[0]
    betas = betas.copy()
    targets = reference_optimal_betas(betas, fup)
    betas[1:-1] += mu * (targets[1:-1] - betas[1:-1])
    for i in range(1, m - 1):
        betas[i] = min(betas[i], betas[i - 1] - MIN_BETA_GAP)
    for i in range(m - 2, 0, -1):
        betas[i] = max(betas[i], betas[i + 1] + MIN_BETA_GAP)
    return betas


def respaced(betas, fup) -> np.ndarray:
    """The ladder one `adapt_betas` step at `beta_learning_rate` 1 makes of
    `betas` when the flow histograms measure `fup`, up to the rounding of
    the histograms' ratio."""
    ensemble = tempering.Ensemble.create(
        np.array(betas, dtype=float), 3, 2, np.random.default_rng(0)
    )
    fup = np.asarray(fup, dtype=float)
    ensemble.flow[0] = fup
    ensemble.flow[1] = 1.0 - fup
    adapt_betas(ensemble, AdaptationConfig(beta_learning_rate=1.0))
    return ensemble.betas


def deo_sweep_outcome(ensemble, params: RbmParams, gibbs_steps: int, rng):
    """Run one `deo_sweep` and read what it did off the ensemble: the left
    ends of the pairs it proposed, whether each was accepted, and the length
    of the round trip it completed, or None.

    The pairs are those of the parity before the sweep. A pair was accepted
    exactly when its swap-rate estimate is not the old one times the decay,
    which on Python floats is exact. A trip completed exactly when slot 0's
    counter reads 0 after the sweep; its length is the arriving particle's
    counter before the sweep, plus one.
    """
    m = ensemble.num_chains
    pairs = list(range(ensemble.sweep_parity, m - 1, 2))
    rates = ensemble.swap_rate_ema.tolist()
    counters = ensemble.counters.tolist()
    deo_sweep(ensemble, params, gibbs_steps, rng)
    after = ensemble.swap_rate_ema.tolist()
    accepts = [after[i] != rates[i] * SWAP_RATE_EMA_DECAY for i in pairs]
    trip = None
    if m >= 2 and ensemble.counters[0] == 0:
        # the particle now in slot 0 came from slot 1 if pair 0 swapped
        arriving = 1 if pairs[:1] == [0] and accepts[0] else 0
        trip = counters[arriving] + 1
    return pairs, accepts, trip


def reference_update_flow_histograms(flow, labels, tau_hat: float):
    """EMA step of the (2, M) flow histograms, up row then down row, at rate
    1/tau_hat, with masked adds."""
    rate = 1.0 / tau_hat
    flow = flow * (1.0 - rate)
    flow[0, labels == UP] += rate
    flow[1, labels == DOWN] += rate
    return flow
