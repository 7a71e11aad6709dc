"""Digital test wrapper design (``Design_wrapper``) and Pareto staircases."""

from .design import (
    WrapperChain,
    WrapperDesign,
    design_wrapper,
    partition_scan_chains,
    scan_lengths,
    test_time,
)
from .pareto import ParetoPoint, pareto_points

__all__ = [
    "ParetoPoint",
    "WrapperChain",
    "WrapperDesign",
    "design_wrapper",
    "pareto_points",
    "partition_scan_chains",
    "scan_lengths",
    "test_time",
]
