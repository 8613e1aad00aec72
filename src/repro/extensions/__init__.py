"""Extensions beyond the paper's core results: adjacent models its related
work section points to, implemented on the same exact simulation substrate."""

from .bounded_speed import CappedPowerLaw
from .deadlines import (
    DeadlineInstance,
    avr_schedule,
    deadline_energy_lower_bound,
    validate_deadlines,
    yds_schedule,
)

__all__ = [
    "CappedPowerLaw",
    "DeadlineInstance",
    "yds_schedule",
    "avr_schedule",
    "deadline_energy_lower_bound",
    "validate_deadlines",
]
