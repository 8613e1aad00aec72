"""Power functions: the energy model of a speed-scalable machine.

The machine runs at a non-negative speed ``s``; the instantaneous power draw
(energy per unit time) is ``P(s)``.  The paper's results are stated for the
standard polynomial model ``P(s) = s**alpha`` with ``alpha > 1`` (cube law in
practice, ``alpha == 3``), but several structural lemmas (Lemmas 3 and 6) hold
for any monotone convex power function, so the library supports both:

* :class:`PowerLaw` — the ``s**alpha`` model with exact closed-form inverse and
  derivative; every analytic fast path in the simulators keys off this class.
* :class:`CappedPowerLaw` — ``s**alpha`` with a hard maximum speed, the
  speed-bounded model of the paper's related work (see
  :mod:`repro.extensions.bounded_speed`).
* :class:`TabulatedPower` — an arbitrary convex power curve given by samples,
  with monotone interpolation and a numeric inverse; exercised by the generic
  numeric engine.

All expose the interface of :class:`PowerFunction`.  numpy is imported only
by the code that uses it (:class:`TabulatedPower`, ``power_array`` and
``validate``), so a run under ``s**alpha`` never loads it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

from .errors import InvalidPowerFunctionError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["PowerFunction", "PowerLaw", "CappedPowerLaw", "TabulatedPower", "CUBE_LAW"]


class PowerFunction(ABC):
    """A monotone, convex map from machine speed to instantaneous power.

    Implementations must satisfy ``P(0) == 0``, monotone non-decreasing and
    convex on ``[0, inf)`` — the standing assumptions of the paper (§2).
    """

    @abstractmethod
    def power(self, speed: float) -> float:
        """Instantaneous power ``P(s)`` at the given speed ``s >= 0``."""

    @abstractmethod
    def speed(self, power: float) -> float:
        """Inverse map ``P^{-1}(w)``: the speed whose power draw is ``w``."""

    @abstractmethod
    def marginal_power(self, speed: float) -> float:
        """Derivative ``P'(s)`` — marginal energy cost of extra speed."""

    def power_array(self, speeds: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`power` (default: elementwise loop)."""
        import numpy as np

        return np.array([self.power(float(s)) for s in np.asarray(speeds).ravel()]).reshape(
            np.asarray(speeds).shape
        )

    def validate(self, probe_max: float = 100.0, samples: int = 257) -> None:
        """Check ``P(0)==0``, monotonicity and convexity on a probe grid.

        Raises :class:`InvalidPowerFunctionError` if any property fails.  The
        check is a sampled heuristic for tabulated/user functions; it is exact
        for :class:`PowerLaw`.
        """
        if abs(self.power(0.0)) > 1e-12:
            raise InvalidPowerFunctionError(f"P(0) must be 0, got {self.power(0.0)!r}")
        import numpy as np

        grid = np.linspace(0.0, probe_max, samples)
        vals = self.power_array(grid)
        diffs = np.diff(vals)
        if np.any(diffs < -1e-9 * max(1.0, float(np.max(np.abs(vals))))):
            raise InvalidPowerFunctionError("power function is not monotone non-decreasing")
        second = np.diff(vals, 2)
        if np.any(second < -1e-6 * max(1.0, float(np.max(np.abs(vals))))):
            raise InvalidPowerFunctionError("power function is not convex")


class PowerLaw(PowerFunction):
    """The polynomial power model ``P(s) = s**alpha``, ``alpha > 1``.

    This is the model under which every quantitative result of the paper is
    stated.  ``beta = 1 - 1/alpha`` appears throughout the closed forms (see
    :mod:`repro.core.kernels`) and is precomputed here.
    """

    __slots__ = ("alpha", "beta", "inv_alpha")

    def __init__(self, alpha: float) -> None:
        if not (alpha > 1.0):
            raise InvalidPowerFunctionError(f"PowerLaw requires alpha > 1, got {alpha}")
        if not math.isfinite(alpha):
            raise InvalidPowerFunctionError("alpha must be finite")
        self.alpha = float(alpha)
        self.beta = 1.0 - 1.0 / self.alpha
        #: hoisted ``1/alpha`` so the per-step ``speed`` call skips the
        #: division (the same float the inline division would produce).
        self.inv_alpha = 1.0 / self.alpha

    def power(self, speed: float) -> float:
        if speed < 0:
            raise ValueError(f"speed must be non-negative, got {speed}")
        return speed**self.alpha

    def speed(self, power: float) -> float:
        if power < 0:
            raise ValueError(f"power must be non-negative, got {power}")
        return power**self.inv_alpha

    def marginal_power(self, speed: float) -> float:
        if speed < 0:
            raise ValueError(f"speed must be non-negative, got {speed}")
        return self.alpha * speed ** (self.alpha - 1.0)

    def power_array(self, speeds: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.asarray(speeds, dtype=float) ** self.alpha

    def __repr__(self) -> str:
        return f"PowerLaw(alpha={self.alpha})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PowerLaw) and other.alpha == self.alpha

    def __hash__(self) -> int:
        return hash(("PowerLaw", self.alpha))


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


class TabulatedPower(PowerFunction):
    """A convex power curve given by ``(speed, power)`` sample points.

    Between samples the curve is linear (which preserves convexity and
    monotonicity of the samples); beyond the last sample it extrapolates with
    the final slope.  The inverse is computed by interpolation on the swapped
    axes, which is exact for the piecewise-linear model.
    """

    def __init__(self, speeds: Sequence[float], powers: Sequence[float]) -> None:
        import numpy as np

        s = np.asarray(speeds, dtype=float)
        p = np.asarray(powers, dtype=float)
        if s.ndim != 1 or s.shape != p.shape or s.size < 2:
            raise InvalidPowerFunctionError("need matching 1-D sample arrays with >= 2 points")
        if s[0] != 0.0 or p[0] != 0.0:
            raise InvalidPowerFunctionError("samples must start at (0, 0)")
        if np.any(np.diff(s) <= 0):
            raise InvalidPowerFunctionError("speed samples must be strictly increasing")
        if np.any(np.diff(p) < 0):
            raise InvalidPowerFunctionError("power samples must be non-decreasing")
        slopes = np.diff(p) / np.diff(s)
        if np.any(np.diff(slopes) < -1e-12):
            raise InvalidPowerFunctionError("power samples must be convex")
        self._s = s
        self._p = p
        #: bound once here so the per-step ``power`` calls import nothing
        self._interp = np.interp
        self._final_slope = float(slopes[-1]) if slopes.size else 0.0

    def power(self, speed: float) -> float:
        if speed < 0:
            raise ValueError(f"speed must be non-negative, got {speed}")
        if speed <= self._s[-1]:
            return float(self._interp(speed, self._s, self._p))
        return float(self._p[-1] + self._final_slope * (speed - self._s[-1]))

    def speed(self, power: float) -> float:
        if power < 0:
            raise ValueError(f"power must be non-negative, got {power}")
        if power <= self._p[-1]:
            # Flat power stretches (only possible at the start of a convex
            # curve through the origin) map to their *right* edge: the maximal
            # speed at that power.  Running faster for free dominates, which
            # is the semantics the power-equals-weight scheduling rule needs.
            idx = int(self._p.searchsorted(power, side="right"))
            if idx >= self._p.size:
                return float(self._s[-1])
            if self._p[idx - 1] == power and idx >= 1:
                return float(self._s[idx - 1])
            p0, p1 = self._p[idx - 1], self._p[idx]
            s0, s1 = self._s[idx - 1], self._s[idx]
            return float(s0 + (power - p0) / (p1 - p0) * (s1 - s0))
        if self._final_slope == 0.0:
            raise ValueError("power exceeds the range of a saturating tabulated curve")
        return float(self._s[-1] + (power - self._p[-1]) / self._final_slope)

    def marginal_power(self, speed: float) -> float:
        if speed < 0:
            raise ValueError(f"speed must be non-negative, got {speed}")
        if speed >= self._s[-1]:
            return self._final_slope
        idx = int(self._s.searchsorted(speed, side="right"))
        idx = max(1, min(idx, self._s.size - 1))
        return float((self._p[idx] - self._p[idx - 1]) / (self._s[idx] - self._s[idx - 1]))

    def __repr__(self) -> str:
        return f"TabulatedPower({self._s.size} samples, max speed {self._s[-1]})"


#: The practically ubiquitous cube law ``P(s) = s**3`` used as default.
CUBE_LAW = PowerLaw(3.0)
