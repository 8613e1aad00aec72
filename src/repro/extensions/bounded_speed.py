"""Extension: speed-bounded processors.

The paper's related work (§1.3, citing Bansal–Chan–Lam–Lee [6]) studies the
same objective when the machine has a *maximum speed* ``s_max``.  This module
extends the reproduction to that model with one class,
:class:`CappedPowerLaw` — ``P(s) = s**alpha`` on ``[0, s_max]``; speeds above
the cap are infeasible.  The power function carries the cap, so the ordinary
analytic simulators honour it:

* :func:`~repro.algorithms.clairvoyant.simulate_clairvoyant` clips Algorithm
  C's speed rule to ``s = min(P^{-1}(W), s_max)``: while the remaining weight
  exceeds ``P(s_max)`` the machine saturates at ``s_max`` (weight falls
  *linearly*), then the ordinary decay takes over.  Exact, event-driven.
* :func:`~repro.algorithms.nc_uniform.simulate_nc_uniform` applies the same
  clip to Algorithm NC's growth rule ``s = min(P^{-1}(W^C(r-) + W̆), s_max)``.

Simulators whose dynamics do not model the cap (NC-PAR, NC-HDF-PAR,
NC-general) refuse a capped power with ``TypeError``.

A structural observation this extension demonstrates empirically (see
``benchmarks/bench_bounded_speed.py``): Lemma 3's **energy equality survives
the cap** — the clipped NC growth profile is still a time-reversed /
rearranged copy of the clipped C decay profile, both saturating at the same
level — while Lemma 4's exact flow ratio degrades gracefully as the cap
tightens (the paper's uncapped `1/(1-1/alpha)` is recovered as
``s_max -> inf``).
"""

from __future__ import annotations

import math

from ..core.errors import InvalidPowerFunctionError
from ..core.power import PowerLaw

__all__ = ["CappedPowerLaw"]


class CappedPowerLaw(PowerLaw):
    """``P(s) = s**alpha`` with a hard maximum speed.

    Subclasses :class:`PowerLaw` so the analytic decay/growth segments (which
    only ever exist *below* the cap) keep their closed-form energies.
    ``power`` rejects infeasible speeds; ``speed`` clips at the cap — the
    natural semantics for the power-equals-weight rule ("run as the rule says,
    but never faster than the hardware allows").
    """

    __slots__ = ("s_max",)

    def __init__(self, alpha: float, s_max: float) -> None:
        super().__init__(alpha)
        if not (s_max > 0 and math.isfinite(s_max)):
            raise InvalidPowerFunctionError(f"s_max must be finite > 0, got {s_max}")
        self.s_max = float(s_max)

    @property
    def saturation_weight(self) -> float:
        """The weight level ``P(s_max)`` above which the machine saturates."""
        return self.s_max**self.alpha

    def power(self, speed: float) -> float:
        if speed > self.s_max * (1 + 1e-9):
            raise ValueError(f"speed {speed} exceeds the cap {self.s_max}")
        return super().power(min(speed, self.s_max))

    def speed(self, power: float) -> float:
        return min(super().speed(power), self.s_max)

    def __repr__(self) -> str:
        return f"CappedPowerLaw(alpha={self.alpha}, s_max={self.s_max})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CappedPowerLaw)
            and other.alpha == self.alpha
            and other.s_max == self.s_max
        )

    def __hash__(self) -> int:
        return hash(("CappedPowerLaw", self.alpha, self.s_max))
