"""Closed-form results for the classic ARQ protocol (constant error, no combining).

With a fixed per-attempt error probability ``p`` the optimal budgeted policy
is an age-threshold rule randomized at a single age.  Everything here is an
exact infinite-chain formula: per-threshold transmission rate and average
age, the Lagrangian cost and its integer minimizers, the stationary age
distribution, and the optimal randomized threshold for a given budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .policies import ThresholdPolicy


def _check_p(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"error probability must lie in [0, 1), got {p}")


def _check_threshold(p: float, delta: int) -> None:
    _check_p(p)
    if delta < 1:
        raise ValueError(f"threshold must be at least 1, got {delta}")


def cost_of_threshold(p: float, delta: int) -> float:
    """Transmission rate of the deterministic threshold policy: 1 / (delta(1-p) + p)."""
    _check_threshold(p, delta)
    return 1.0 / (delta * (1.0 - p) + p)


def aoi_of_threshold(p: float, delta: int) -> float:
    """Average age of the deterministic threshold policy."""
    _check_threshold(p, delta)
    k = delta * (1.0 - p) + p
    return (k * k + p) / (2.0 * (1.0 - p) * k) + 0.5


def lagrangian_cost(p: float, delta: int, eta: float) -> float:
    """Average age plus ``eta`` times the transmission rate, in closed form."""
    _check_threshold(p, delta)
    p1 = 1.0 / (delta + p / (1.0 - p))
    return p1 * (
        (delta - 1) * delta / 2.0 + (eta + delta) / (1.0 - p) + p / (1.0 - p) ** 2
    )


def stationary_probs(p: float, delta: int, delta_query: int) -> float:
    """Stationary probability of age ``delta_query`` under the threshold policy.

    Uniform up to the threshold, geometric beyond it (one failed attempt per
    extra slot of age).
    """
    _check_p(p)
    if delta < 1 or delta_query < 1:
        raise ValueError("threshold and queried age must both be at least 1")
    p1 = 1.0 / (delta + p / (1.0 - p))
    if delta_query <= delta:
        return p1
    return p1 * p ** (delta_query - delta)


def optimal_fractional_threshold(p: float, eta: float) -> float:
    """Real-valued minimizer of the Lagrangian cost over the threshold.

    At ``eta = 0`` it is ``(sqrt(p) - p) / (1 - p) < 1``, so the integer
    candidates are both 1: send in every slot.
    """
    _check_p(p)
    if eta < 0.0:
        raise ValueError(f"eta must be non-negative, got {eta}")
    return (math.sqrt(2.0 * eta * (1.0 - p) + p) - p) / (1.0 - p)


def threshold_candidates(p: float, eta: float) -> tuple[int, int]:
    """Floor/ceiling of the fractional optimizer, clamped to ages >= 1.

    The Lagrangian cost is convex in the threshold, so the integer optimum is
    one of these two.
    """
    frac = optimal_fractional_threshold(p, eta)
    lo = max(1, math.floor(frac))
    hi = max(1, math.ceil(frac))
    return lo, hi


@dataclass(frozen=True)
class RandomizedThreshold:
    """Budget-optimal randomized threshold rule.

    ``mu_star`` is the chord weight on the lower threshold in cost space,
    which reproduces the lower convex hull of the deterministic (cost, age)
    points.  ``transmit_prob`` is the per-slot transmit probability applied
    at ``delta1`` so the stationary transmission rate equals the budget
    exactly; it differs from ``mu_star`` because per-cycle randomization
    weights each threshold by its expected cycle length.
    """

    p: float
    c_max: float
    delta_cmax: float
    delta1: int
    delta2: int
    mu_star: float
    transmit_prob: float

    def policy(self) -> ThresholdPolicy:
        return ThresholdPolicy(self.delta1, self.transmit_prob)

    @property
    def avg_cost(self) -> float:
        return self.c_max

    @property
    def avg_aoi(self) -> float:
        return self.mu_star * aoi_of_threshold(self.p, self.delta1) + (
            1.0 - self.mu_star
        ) * aoi_of_threshold(self.p, self.delta2)


def optimal_policy(p: float, c_max: float) -> RandomizedThreshold:
    """Optimal budgeted threshold rule for error probability ``p`` and budget ``c_max``."""
    _check_p(p)
    if not 0.0 < c_max <= 1.0:
        raise ValueError(f"budget must lie in (0, 1], got {c_max}")
    delta_cmax = (1.0 / c_max - p) / (1.0 - p)
    delta1 = max(1, math.floor(delta_cmax))
    delta2 = max(1, math.ceil(delta_cmax))
    if delta1 == delta2:
        return RandomizedThreshold(p, c_max, delta_cmax, delta1, delta2, 1.0, 1.0)
    c1 = cost_of_threshold(p, delta1)
    c2 = cost_of_threshold(p, delta2)
    mu_star = (c_max - c2) / (c1 - c2)
    transmit_prob = delta2 - delta_cmax
    return RandomizedThreshold(p, c_max, delta_cmax, delta1, delta2, mu_star, transmit_prob)
