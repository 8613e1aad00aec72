"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch package failures with a single ``except`` clause while still letting
programming errors (``TypeError`` etc.) propagate.

Every error can carry structured *context* (``time=...``, ``job=...``,
``fault=...``) alongside its message.  The supervised runtime
(:mod:`repro.runtime.supervisor`) uses this to decide how to recover — e.g.
rolling back to the last checkpoint before ``error.context["time"]`` — and to
name the failing fault in its final report, so context keys are part of the
error's contract, not just formatting sugar.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidInstanceError",
    "InvalidPowerFunctionError",
    "KernelDomainError",
    "ScheduleError",
    "ClairvoyanceViolationError",
    "SimulationError",
    "ConvergenceError",
    "GuardViolationError",
    "RecoveryExhaustedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro package.

    ``context`` holds machine-readable keyword details (simulation time, job
    id, guard name, ...) that recovery code can branch on without parsing the
    message string.
    """

    def __init__(self, message: str = "", **context: object) -> None:
        super().__init__(message)
        self.context: dict[str, object] = context

    def __str__(self) -> str:
        base = super().__str__()
        if not self.context:
            return base
        inner = ", ".join(f"{k}={v!r}" for k, v in self.context.items())
        return f"{base} [{inner}]"


class InvalidInstanceError(ReproError):
    """An instance (set of jobs) failed validation."""


class InvalidPowerFunctionError(ReproError):
    """A power function failed validation (non-convex, decreasing, ...)."""


class KernelDomainError(ReproError, ValueError):
    """A closed-form kernel was called outside its domain.

    Raised by the closed-form kernels in :mod:`repro.core.kernels` when a
    weight, density or time argument is negative or non-finite.  ``context`` always carries
    the offending call under the machine-readable keys ``x`` (the weight-like
    argument), ``rho`` and ``t`` (``None`` for kernels without a time
    argument), so recovery code can branch on the values without parsing the
    message.  Also a :class:`ValueError` for compatibility with callers that
    guarded the pre-typed raise.
    """


class ScheduleError(ReproError):
    """A schedule is malformed or inconsistent with its instance."""


class ClairvoyanceViolationError(ReproError):
    """A non-clairvoyant algorithm attempted to read a hidden job volume."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class ConvergenceError(ReproError):
    """An iterative numerical routine failed to converge."""


class GuardViolationError(ReproError):
    """A supervised run broke an online invariant guard.

    Raised by :mod:`repro.runtime.supervisor` when a post-run check fails
    (negative remaining weight, FIFO order violated, power/weight relation
    off, non-monotone simulation time).  ``context`` names the guard and the
    offending time/job so recovery can target it.
    """


class RecoveryExhaustedError(ReproError):
    """The supervisor exhausted its retry budget without a clean run.

    ``context`` records the last fault observed, the last good checkpoint
    label, and the attempt count — the structured "no silent failure"
    terminal state of a chaos run.
    """
