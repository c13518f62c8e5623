"""Ensemble of tempered persistent chains with deterministic even/odd swap
rounds, particle flow labels, and return-time tracking.

Temperatures own the slots: an accepted swap exchanges the particles
(configuration, flow label, return counter) between two adjacent beta slots,
never the betas themselves. A particle becomes "up" when it occupies the
beta = 1 slot and "down" when, already up, it reaches the beta = 0 slot;
a down particle reaching beta = 1 completes one round trip.
"""

from __future__ import annotations

import math
from enum import IntEnum

import numpy as np

from . import rbm

# Horizon ~100 proposals for the per-pair swap-rate estimate.
SWAP_RATE_EMA_DECAY = 0.99

# Smoothing of the return-time estimate over completed round trips.
RETURN_TIME_EMA_DECAY = 0.9


class Label(IntEnum):
    UNSET = 0
    UP = 1
    DOWN = 2


# plain ints for the sweep hot path; enum attribute lookups are surprisingly
# expensive at one call per sweep
_UNSET, _UP, _DOWN = int(Label.UNSET), int(Label.UP), int(Label.DOWN)

# the label each row of the flow buffer counts: n_up, then n_down
_FLOW_LABELS = np.array([[_UP], [_DOWN]])

# what an accepted swap adds to its pair's rate estimate
_SWAP_RATE_GAIN = 1.0 - SWAP_RATE_EMA_DECAY


def linear_ladder(num_chains: int) -> np.ndarray:
    """Betas equally spaced on [1, 0]."""
    if num_chains == 1:
        return np.array([1.0])
    return np.linspace(1.0, 0.0, num_chains)


def geometric_ladder(num_chains: int) -> np.ndarray:
    """Betas geometric in temperature from 1 down to 0.01, then 0."""
    if num_chains == 1:
        return np.array([1.0])
    if num_chains == 2:
        return np.array([1.0, 0.0])
    body = np.geomspace(1.0, 0.01, num_chains - 1)
    return np.concatenate([body, [0.0]])


class Ensemble:
    """Ordered beta ladder with one persistent particle per slot.

    Also carries the flow histograms (EMA-smoothed), per-pair swap-rate
    estimates, the return-time estimate tau_hat, the DEO parity, and the
    post-spawn burn-in countdown. The histograms live in one (2, M) buffer,
    `flow`; `n_up` and `n_down` are views of its two rows.
    """

    def __init__(
        self,
        betas: np.ndarray,
        visible: np.ndarray,
        hidden: np.ndarray,
    ):
        betas = np.asarray(betas, dtype=np.float64)
        m = betas.shape[0]
        if betas[0] != 1.0:
            raise ValueError("ladder must start at beta = 1")
        if m > 1:
            if betas[-1] != 0.0:
                raise ValueError("ladder must end at beta = 0")
            if not (np.diff(betas) < 0).all():
                raise ValueError("betas must be strictly decreasing")
        if visible.shape[0] != m or hidden.shape[0] != m:
            raise ValueError("one particle required per beta slot")
        self.betas = betas
        self.visible = np.asarray(visible, dtype=np.float64)
        self.hidden = np.asarray(hidden, dtype=np.float64)
        self.labels = np.full(m, Label.UNSET, dtype=np.int64)
        self.counters = np.zeros(m, dtype=np.int64)
        self._set_flow(np.zeros((2, m)))
        self.swap_rate_ema = np.ones(max(m - 1, 0))
        self.tau_hat = 1.0
        self.sweep_parity = 0
        self.burn_in_remaining = 0
        self.round_trip_ema: float | None = None

    @classmethod
    def create(
        cls,
        betas: np.ndarray,
        num_visible: int,
        num_hidden: int,
        rng: np.random.Generator,
    ) -> "Ensemble":
        """Fresh ensemble with uniform random binary particle states."""
        m = len(betas)
        visible = (rng.random((m, num_visible)) < 0.5).astype(np.float64)
        hidden = (rng.random((m, num_hidden)) < 0.5).astype(np.float64)
        return cls(np.asarray(betas, dtype=np.float64), visible, hidden)

    @property
    def num_chains(self) -> int:
        return self.betas.shape[0]

    def _set_flow(self, flow: np.ndarray) -> None:
        self.flow = flow
        self.n_up, self.n_down = flow

    def up_fractions(self) -> list[float]:
        """`f_up` as a list of Python floats."""
        if self.num_chains == 1:
            return [1.0]
        up, down = self.flow.tolist()
        # neither label seen yet: the neutral 0.5
        interior = [
            u / (u + d) if u + d > 0.0 else 0.5 for u, d in zip(up[1:-1], down[1:-1])
        ]
        return [1.0, *interior, 0.0]

    def insert_chain(self, slot: int, beta: float, source_slot: int) -> None:
        """Insert a fresh chain at `slot`, state copied from `source_slot`.

        The new particle is unlabeled with a zero counter; its flow histogram
        entries start at the mean of the neighbouring slots, and the two swap
        pairs created by the split inherit the split pair's rate estimate.
        """
        self.betas = np.insert(self.betas, slot, beta)
        self.visible = np.insert(self.visible, slot, self.visible[source_slot], axis=0)
        self.hidden = np.insert(self.hidden, slot, self.hidden[source_slot], axis=0)
        self.labels = np.insert(self.labels, slot, Label.UNSET)
        self.counters = np.insert(self.counters, slot, 0)
        flow_init = 0.5 * (self.flow[:, slot - 1] + self.flow[:, slot])
        self._set_flow(np.insert(self.flow, slot, flow_init, axis=1))
        self.swap_rate_ema = np.insert(
            self.swap_rate_ema, slot - 1, self.swap_rate_ema[slot - 1]
        )


def swap_ratio(energy_i: float, energy_j: float, beta_i: float, beta_j: float) -> float:
    """Acceptance probability min(1, exp((beta_i - beta_j) (E_i - E_j))).

    Chain i is the colder of the pair (beta_i >= beta_j). Computed as
    exp(min(x, 0)) so the exponent never overflows. `deo_sweep` decides every
    swap with it, on Python floats: a sweep proposes at most m / 2 pairs, too
    few to repay numpy's per-call overhead.
    """
    if beta_i < beta_j:
        raise ValueError("expected beta_i >= beta_j")
    return math.exp(min((beta_i - beta_j) * (energy_i - energy_j), 0.0))


def deo_sweep(
    ensemble: Ensemble,
    params: rbm.RbmParams,
    gibbs_steps: int,
    rng: np.random.Generator,
) -> None:
    """One DEO sweep: Gibbs-advance every chain at its own beta, then propose
    swaps on all adjacent pairs of the current parity, then flip the parity.

    Accepted swaps exchange particles (state, label, counter) between slots.
    Each proposed pair consumes exactly one uniform draw and updates its
    swap-rate estimate. Afterwards every counter advances by one sweep,
    boundary labels are refreshed (slot 0 mints "up" particles, the last
    slot turns "up" into "down"), a completed round trip resets its
    particle's counter and folds into the return-time estimate, and any
    post-spawn burn-in countdown ticks down.
    """
    m = ensemble.betas.shape[0]
    parity = ensemble.sweep_parity
    visible, hidden = rbm.gibbs_sweep_chains(
        params, ensemble.visible, ensemble.hidden, ensemble.betas, gibbs_steps, rng
    )
    labels, counters = ensemble.labels, ensemble.counters

    lo = range(parity, m - 1, 2)
    if lo:
        e = rbm.energies(params, visible, hidden).tolist()
        b = ensemble.betas.tolist()
        accepted = [
            u < swap_ratio(e[i], e[i + 1], b[i], b[i + 1])
            for i, u in zip(lo, rng.random(len(lo)).tolist())
        ]
        if any(accepted):
            # an accepted pair trades rows: one gather per particle array
            order = list(range(m))
            for i, swap in zip(lo, accepted):
                if swap:
                    order[i], order[i + 1] = i + 1, i
            order = np.array(order)
            visible = visible.take(order, axis=0)
            hidden = hidden.take(order, axis=0)
            labels = labels.take(order)
            counters = counters.take(order)
            ensemble.labels, ensemble.counters = labels, counters
        rates = ensemble.swap_rate_ema.tolist()
        for i, swap in zip(lo, accepted):
            rates[i] = rates[i] * SWAP_RATE_EMA_DECAY + (_SWAP_RATE_GAIN if swap else 0.0)
        ensemble.swap_rate_ema[:] = rates
    ensemble.visible, ensemble.hidden = visible, hidden
    ensemble.sweep_parity = parity ^ 1

    if m >= 2:
        counters += 1
        first = labels[0]
        if first == _DOWN:
            trip = int(counters[0])
            counters[0] = 0
            labels[0] = _UP
            if ensemble.round_trip_ema is None:
                ensemble.round_trip_ema = float(trip)
            else:
                ensemble.round_trip_ema = (
                    RETURN_TIME_EMA_DECAY * ensemble.round_trip_ema
                    + (1.0 - RETURN_TIME_EMA_DECAY) * trip
                )
        elif first == _UNSET:
            labels[0] = _UP
        if labels[m - 1] == _UP:
            labels[m - 1] = _DOWN

    estimate_return_time(ensemble)
    if ensemble.burn_in_remaining > 0:
        ensemble.burn_in_remaining -= 1


def estimate_return_time(ensemble: Ensemble) -> float:
    """Current return-time estimate tau_hat, floored at 1.

    The EMA over completed round-trip durations once any exist; before the
    first completion, the sum of all particle counters (a lower bound).
    """
    if ensemble.round_trip_ema is not None:
        tau = ensemble.round_trip_ema
    else:
        tau = float(ensemble.counters.sum())
    ensemble.tau_hat = max(1.0, tau)
    return ensemble.tau_hat


def update_flow_histograms(ensemble: Ensemble) -> None:
    """EMA-update n_up/n_down from each slot's occupant label.

    A slot holding an up particle moves n_up toward 1 at rate 1/tau_hat and
    decays n_down; symmetrically for down particles. Unlabeled occupants let
    both histograms decay.
    """
    rate = 1.0 / ensemble.tau_hat
    flow = ensemble.flow
    flow *= 1.0 - rate
    np.add(flow, rate, out=flow, where=ensemble.labels == _FLOW_LABELS)


def f_up(ensemble: Ensemble) -> np.ndarray:
    """Fraction of up-moving particles per slot, boundaries pinned to 1 and 0.

    Interior slots where neither label has been seen yet report the neutral
    value 0.5.
    """
    return np.array(ensemble.up_fractions())
