"""The paper's algorithms: the clairvoyant baseline (Algorithm C), the
non-clairvoyant algorithms for uniform (§3) and non-uniform (§4) densities,
the fractional-to-integral black-box reduction (§5), density rounding, and
non-competitive baselines for context — and :data:`ALGORITHMS`, the one
table from an algorithm's name to its simulator."""

from .baselines import (
    simulate_active_count,
    simulate_constant_speed_fifo,
    simulate_round_robin,
)
from .clairvoyant import ClairvoyantPolicy, ClairvoyantRun, hdf_key, simulate_clairvoyant
from .density_rounding import (
    density_class_index,
    density_classes,
    round_density_down,
    rounded_instance,
)
from .integral_conversion import IntegralConversion, convert, to_integral_schedule
from .nc_general import NCGeneralPolicy, NCGeneralRun, eta_threshold, simulate_nc_general
from .nc_uniform import NCUniformPolicy, NCUniformRun, NCUniformRunner, simulate_nc_uniform
from .registry import ALGORITHMS, DEFAULT_MAX_STEP, AlgorithmSpec, algorithm_names, algorithm_spec

__all__ = [
    "ClairvoyantRun",
    "ClairvoyantPolicy",
    "simulate_clairvoyant",
    "hdf_key",
    "NCUniformRun",
    "NCUniformRunner",
    "NCUniformPolicy",
    "simulate_nc_uniform",
    "NCGeneralRun",
    "NCGeneralPolicy",
    "simulate_nc_general",
    "eta_threshold",
    "round_density_down",
    "density_class_index",
    "density_classes",
    "rounded_instance",
    "to_integral_schedule",
    "IntegralConversion",
    "convert",
    "simulate_constant_speed_fifo",
    "simulate_active_count",
    "simulate_round_robin",
    "ALGORITHMS",
    "AlgorithmSpec",
    "DEFAULT_MAX_STEP",
    "algorithm_names",
    "algorithm_spec",
]
