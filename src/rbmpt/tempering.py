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

import numpy as np

from . import rbm

# Horizon ~100 proposals for the per-pair swap-rate estimate.
SWAP_RATE_EMA_DECAY = 0.99

# Smoothing of the return-time estimate over completed round trips.
RETURN_TIME_EMA_DECAY = 0.9


# Flow labels: a particle's direction since it last touched an endpoint.
UNSET, UP, DOWN = 0, 1, 2

# the label each row of the flow histograms counts: up, then down
_FLOW_LABELS = np.array([[UP], [DOWN]])

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
    post-spawn burn-in countdown. The histograms are one (2, M) buffer,
    `flow`: its rows count up particles, then down particles, per slot.
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
        self.labels = np.full(m, UNSET, dtype=np.int64)
        self.counters = np.zeros(m, dtype=np.int64)
        self.flow = np.zeros((2, m))
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

    def insert_chain(self, slot: int, beta: float, source_slot: int) -> None:
        """Insert a fresh chain at `slot`, state copied from `source_slot`.

        The new particle is unlabeled with a zero counter; its flow histogram
        entries start at the mean of the neighbouring slots, and the two swap
        pairs created by the split inherit the split pair's rate estimate.
        """
        self.betas = np.insert(self.betas, slot, beta)
        self.visible = np.insert(self.visible, slot, self.visible[source_slot], axis=0)
        self.hidden = np.insert(self.hidden, slot, self.hidden[source_slot], axis=0)
        self.labels = np.insert(self.labels, slot, UNSET)
        self.counters = np.insert(self.counters, slot, 0)
        flow_init = 0.5 * (self.flow[:, slot - 1] + self.flow[:, slot])
        self.flow = np.insert(self.flow, slot, flow_init, axis=1)
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


class EnsembleStack:
    """Ensembles of one ladder length advanced in lockstep. Their betas,
    particles, flow labels, counters and flow histograms are stacked on a
    leading replica axis: `betas`, `labels` and `counters` (R, M), `visible`
    (R, M, nv), `hidden` (R, M, nh) and `flow` (R, 2, M). Each member's
    arrays of the same names are views of its row, so a member reads and
    writes them as it would alone. A member that changes its ladder length
    (`insert_chain`) gets arrays of its own and no longer belongs here."""

    def __init__(self, ensembles: list[Ensemble]):
        self.ensembles = list(ensembles)
        for name in ("betas", "labels", "counters", "flow"):
            stacked = np.stack([getattr(ens, name) for ens in self.ensembles])
            setattr(self, name, stacked)
            for ens, row in zip(self.ensembles, stacked):
                setattr(ens, name, row)
        self._set_particles(
            np.stack([ens.visible for ens in self.ensembles]),
            np.stack([ens.hidden for ens in self.ensembles]),
        )

    @property
    def num_chains(self) -> int:
        return self.betas.shape[1]

    def _set_particles(self, visible: np.ndarray, hidden: np.ndarray) -> None:
        self.visible, self.hidden = visible, hidden
        for ens, v, h in zip(self.ensembles, visible, hidden):
            ens.visible, ens.hidden = v, h


def deo_sweep(
    ensemble: Ensemble | EnsembleStack,
    params: rbm.RbmParams,
    gibbs_steps: int,
    rng,
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

    The sweep draws all its uniforms in one `rng.random` call: the Gibbs
    steps' blocks, then one per proposed pair, the doubles that drawing
    them phase by phase would give. The swap energies reuse the Gibbs
    kernel's last `hidden @ weights` when it keeps one, which is the
    product they would compute.

    An `EnsembleStack` sweeps all its members in one Gibbs call and one
    `rbm.stacked_energies` call, with stacked `params` (`RbmParams.view` of
    an (R, P) buffer) and `rng` a list of one generator per member. Each
    member draws from its own generator, in the order a lone sweep draws,
    decides its own swaps, and ends in the state a lone sweep would leave.
    The lone sweep keeps its own body: one body with per-member gathers gave
    the same bits but made the lone sweep about 15% slower.
    """
    if gibbs_steps < 0:
        raise ValueError(f"gibbs_steps must be 0 or more, got {gibbs_steps}")
    if isinstance(ensemble, EnsembleStack):
        _deo_sweep_stack(ensemble, params, gibbs_steps, rng)
        return
    m = ensemble.betas.shape[0]
    pairs = (m - ensemble.sweep_parity) // 2
    gibbs_draws = gibbs_steps * m * sum(params.weights.shape[-2:])
    uniforms = rng.random(gibbs_draws + pairs)
    visible, hidden, product = rbm.gibbs_sweep_chains(
        params, ensemble.visible, ensemble.hidden, ensemble.betas, gibbs_steps, uniforms
    )
    if pairs:
        e = rbm.energies(params, visible, hidden, product).tolist()
        order = _swap_round(ensemble, e, uniforms[gibbs_draws:].tolist())
        if order is not None:
            # an accepted pair trades rows: one gather per particle array
            order = np.array(order)
            visible = visible.take(order, axis=0)
            hidden = hidden.take(order, axis=0)
            ensemble.labels = ensemble.labels.take(order)
            ensemble.counters = ensemble.counters.take(order)
    ensemble.visible, ensemble.hidden = visible, hidden
    if m > 1:
        ensemble.counters += 1
    _end_sweep(ensemble)


def _deo_sweep_stack(
    stack: EnsembleStack, params: rbm.RbmParams, gibbs_steps: int, rngs: list
) -> None:
    members = stack.ensembles
    m = stack.num_chains
    # members step together, so they share the sweep parity
    pairs = (m - members[0].sweep_parity) // 2
    gibbs_draws = gibbs_steps * m * sum(params.weights.shape[-2:])
    uniforms = rbm.stacked_random(rngs)((gibbs_draws + pairs,))
    visible, hidden, product = rbm.gibbs_sweep_chains(
        params, stack.visible, stack.hidden, stack.betas, gibbs_steps, uniforms
    )
    if pairs:
        e = rbm.stacked_energies(params, visible, hidden, product).tolist()
        swap_uniforms = uniforms[:, gibbs_draws:].tolist()
        orders = [_swap_round(ens, row, u) for ens, row, u in zip(members, e, swap_uniforms)]
        if orders.count(None) < len(orders):
            # one gather per stacked array, replica r's rows at offset r * m
            rows = []
            for offset, order in zip(range(0, m * len(orders), m), orders):
                rows += range(offset, offset + m) if order is None else [offset + i for i in order]
            rows = np.array(rows)
            visible = visible.reshape(rows.size, -1).take(rows, axis=0).reshape(visible.shape)
            hidden = hidden.reshape(rows.size, -1).take(rows, axis=0).reshape(hidden.shape)
            # in place, so the members' views stay valid; take buffers the overlap
            for flat in (stack.labels.reshape(-1), stack.counters.reshape(-1)):
                flat.take(rows, out=flat)
    stack._set_particles(visible, hidden)
    if m > 1:
        stack.counters += 1
    for ens in members:
        _end_sweep(ens)


def _swap_round(ensemble: Ensemble, e: list[float], uniforms: list[float]) -> list[int] | None:
    """Propose the pairs of the current parity on particle energies `e`,
    one of `uniforms` each, and update their swap-rate estimates. Returns
    the slot each new occupant comes from, or None when no pair swapped."""
    m = len(e)
    b = ensemble.betas.tolist()
    rates = ensemble.swap_rate_ema
    order = None
    for i, u in zip(range(ensemble.sweep_parity, m - 1, 2), uniforms):
        swap = u < swap_ratio(e[i], e[i + 1], b[i], b[i + 1])
        rates[i] = rates.item(i) * SWAP_RATE_EMA_DECAY + (_SWAP_RATE_GAIN if swap else 0.0)
        if swap:
            if order is None:
                order = list(range(m))
            order[i], order[i + 1] = i + 1, i
    return order


def _end_sweep(ensemble: Ensemble) -> None:
    """Flip the parity, refresh the boundary labels of particles whose
    counters have just aged, fold a completed round trip into the return
    time, update the return-time estimate and tick the burn-in.

    The estimate `tau_hat`, floored at 1, is the EMA over completed
    round-trip durations once any exist; before the first completion, the
    sum of all particle counters (a lower bound).
    """
    ensemble.sweep_parity ^= 1
    m = ensemble.betas.shape[0]
    if m >= 2:
        labels, counters = ensemble.labels, ensemble.counters
        first = labels[0]
        if first == DOWN:
            trip = int(counters[0])
            counters[0] = 0
            labels[0] = UP
            if ensemble.round_trip_ema is None:
                ensemble.round_trip_ema = float(trip)
            else:
                ensemble.round_trip_ema = (
                    RETURN_TIME_EMA_DECAY * ensemble.round_trip_ema
                    + (1.0 - RETURN_TIME_EMA_DECAY) * trip
                )
        elif first == UNSET:
            labels[0] = UP
        if labels[m - 1] == UP:
            labels[m - 1] = DOWN

    if ensemble.round_trip_ema is not None:
        tau = ensemble.round_trip_ema
    else:
        # a sum of a few ints is cheaper in Python than one numpy call
        tau = float(sum(ensemble.counters.tolist()))
    ensemble.tau_hat = max(1.0, tau)
    if ensemble.burn_in_remaining > 0:
        ensemble.burn_in_remaining -= 1


def update_flow_histograms(ensemble: Ensemble | EnsembleStack) -> None:
    """EMA-update the flow histograms from each slot's occupant label.

    A slot holding an up particle moves its up count (`flow[0]`) toward 1 at
    rate 1/tau_hat and decays its down count (`flow[1]`); symmetrically for
    down particles. Unlabeled occupants let both histograms decay. An
    `EnsembleStack` updates every member, each at its own rate, in the same
    calls.
    """
    if isinstance(ensemble, EnsembleStack):
        rate = np.array([1.0 / ens.tau_hat for ens in ensemble.ensembles])[:, None, None]
        labels = ensemble.labels[:, None]
    else:
        rate = 1.0 / ensemble.tau_hat
        labels = ensemble.labels
    flow = ensemble.flow
    flow *= 1.0 - rate
    np.add(flow, rate, out=flow, where=labels == _FLOW_LABELS)


def f_up(ensemble: Ensemble) -> list[float]:
    """Fraction of up-moving particles per slot, as a new list of Python
    floats, boundaries pinned to 1 and 0.

    Interior slots where neither label has been seen yet report the neutral
    value 0.5.
    """
    if ensemble.num_chains == 1:
        return [1.0]
    up, down = ensemble.flow.tolist()
    interior = [u / (u + d) if u + d > 0.0 else 0.5 for u, d in zip(up[1:-1], down[1:-1])]
    return [1.0, *interior, 0.0]
