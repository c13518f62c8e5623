"""Online temperature-ladder adaptation: equal-mass respacing of the betas
from the measured particle-flow fractions, and chain spawning to keep the
average swap rate above a floor.

Respacing inverts the monotone piecewise-linear interpolant of f_up as a
function of beta at equally spaced levels, which is the ladder that makes
f_up linear in the chain index; the betas then take a relaxation step of
size `beta_learning_rate` toward those targets. Both endpoints stay pinned
at 1 and 0.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .tempering import Ensemble, f_up

logger = logging.getLogger(__name__)

# Smallest allowed gap between adjacent betas after an adaptation step.
MIN_BETA_GAP = 1e-6

# Tie-break applied to measured f_up values so the interpolant is invertible.
_STRICT_EPS = 1e-12


@dataclass
class AdaptationConfig:
    """Knobs for ladder respacing and chain spawning."""

    beta_learning_rate: float = 1e-4
    min_avg_swap_rate: float = 0.4
    spawn_check_interval: int = 1000
    burn_in_sweeps: int = 100
    max_chains: int = 100

    def __post_init__(self):
        # rates take ints or floats, kept as floats, and counts ints, never
        # bools; zero rates are the documented degenerate settings that reduce
        # the adaptive sampler to a fixed ladder; above 1 the step overshoots
        rate, floor = self.beta_learning_rate, self.min_avg_swap_rate
        if type(rate) not in (int, float) or not 0.0 <= rate <= 1.0:
            raise ValueError(f"beta_learning_rate: expected a number in [0, 1], got {rate!r}")
        if type(floor) not in (int, float) or not 0.0 <= floor < 1.0:
            raise ValueError(f"min_avg_swap_rate: expected a number in [0, 1), got {floor!r}")
        self.beta_learning_rate, self.min_avg_swap_rate = float(rate), float(floor)
        for name in ("spawn_check_interval", "burn_in_sweeps", "max_chains"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name}: expected an int >= 1, got {value!r}")


@dataclass
class SpawnEvent:
    """Record of one chain insertion."""

    update_index: int
    slot: int
    new_beta: float
    num_chains: int


@functools.cache
def _interior_levels(m: int) -> np.ndarray:
    """The levels 1 - i/(m-1), 0 < i < m-1, that the respacing inverts,
    read-only, as they are shared between calls."""
    levels = (1.0 - np.arange(m) / (m - 1))[1:-1]
    levels.setflags(write=False)
    return levels


def adapt_betas(ensemble: Ensemble, config: AdaptationConfig) -> None:
    """Move interior betas one relaxation step toward the equal-mass targets:
    the betas at which the interpolant of f_up over beta hits the levels
    1 - i/(m-1), 0 < i < m-1, so that f_up becomes linear in the chain
    index. At `beta_learning_rate` 1 the interior betas become the targets,
    up to the `MIN_BETA_GAP` projection.

    The measured f_up, whose ends `f_up` pins to 1 and 0, takes a running
    minimum with an `_STRICT_EPS` tie-break, which makes it strictly
    decreasing, so that its interpolant can be inverted. Endpoints never
    move. A convex step between two strictly decreasing ladders stays
    strictly decreasing; a minimal-gap projection guards against
    floating-point ties.
    """
    m = ensemble.num_chains
    if m <= 2:
        return
    betas = ensemble.betas
    f = f_up(ensemble)
    # `y if y < x else x` is min(x, y) without a builtin call per slot
    prev = 1.0
    for i in range(1, m):
        x, y = f[i], prev - _STRICT_EPS
        prev = f[i] = y if y < x else x
    t = np.interp(_interior_levels(m), f[::-1], betas[::-1]).tolist()
    mu = config.beta_learning_rate
    # one pass on Python floats does the step and the forward projection in
    # the same order as a vectorised step followed by the loop; the
    # conditional expressions are min and max without a builtin call
    b = betas.tolist()
    prev = b[0]
    for i in range(1, m - 1):
        bi = b[i]
        x, y = bi + mu * (t[i - 1] - bi), prev - MIN_BETA_GAP
        prev = b[i] = y if y < x else x
    prev = b[-1]
    for i in range(m - 2, 0, -1):
        x, y = b[i], prev + MIN_BETA_GAP
        prev = b[i] = y if y > x else x
    betas[1:-1] = b[1:-1]


def average_swap_rate(ensemble: Ensemble) -> float:
    """Mean of the per-pair swap-rate estimates; 1.0 for a single chain."""
    if ensemble.num_chains == 1:
        return 1.0
    return float(ensemble.swap_rate_ema.mean())


def maybe_spawn(
    ensemble: Ensemble, config: AdaptationConfig, update_index: int = 0
) -> SpawnEvent | None:
    """Spawn one chain if the average swap rate has dropped below the floor.

    The new chain splits the pair with the largest f_up jump, sits at the
    midpoint beta, and copies the state of its lower-beta neighbour. A fixed
    burn-in window follows, during which respacing and further spawning are
    suspended. Returns None (and changes nothing) when the rate is healthy
    or during burn-in. Also returns None when the chain budget is spent,
    which adds one to the ensemble's `saturated_checks`; the first such
    check of a run logs a warning.
    """
    if ensemble.burn_in_remaining > 0:
        return None
    if average_swap_rate(ensemble) >= config.min_avg_swap_rate:
        return None
    if ensemble.num_chains >= config.max_chains:
        ensemble.saturated_checks += 1
        if ensemble.saturated_checks == 1:
            logger.warning(
                "swap rate %.3f below %.3f but chain budget (%d) is saturated; "
                "further saturated checks are counted, not logged",
                average_swap_rate(ensemble),
                config.min_avg_swap_rate,
                config.max_chains,
            )
        return None
    frac = f_up(ensemble)
    gap = int(np.argmax(np.abs(np.diff(frac))))
    new_beta = 0.5 * (ensemble.betas[gap] + ensemble.betas[gap + 1])
    ensemble.insert_chain(gap + 1, new_beta, source_slot=gap + 1)
    ensemble.burn_in_remaining = config.burn_in_sweeps
    return SpawnEvent(update_index, gap + 1, float(new_beta), ensemble.num_chains)
