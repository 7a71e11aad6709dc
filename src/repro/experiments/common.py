"""Shared setup for the paper's experiments.

Every experiment operates on the same artifacts: a mixed-signal SOC, its
sharing combinations (Table 1 style), and the Eq. (1) area model.
:class:`ExperimentContext` bundles them with an *effort* preset
controlling how hard the rectangle packer works (benches use ``full``;
unit tests use ``quick`` to stay fast).

The SOC comes from the workload registry (:mod:`repro.workloads`), so
every table/figure driver runs against any named scenario — the paper's
``p93791m`` is merely the default::

    run_table1(ExperimentContext(workload="d695m", effort="quick"))
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.area import AreaModel
from ..core.sharing import (
    Partition,
    identical_core_classes,
    paper_combinations,
    symmetry_reduce,
)
from ..soc.model import Soc
# re-exported: the packer effort presets live with the packer
from ..tam.packing import PACK_EFFORT
from ..workloads import build as build_workload

__all__ = ["ExperimentContext", "PACK_EFFORT"]


@dataclass
class ExperimentContext:
    """The benchmark SOC plus derived artifacts used by all experiments.

    :param soc: the mixed-signal SOC; when ``None``, built from the
        workload registry using *workload* and *seed*.
    :param effort: packer effort preset name (see :data:`PACK_EFFORT`).
    :param workload: registry preset name (default: the paper's
        benchmark ``p93791m``).  Ignored when *soc* is given.
    :param seed: workload seed (``None`` = the preset's default).
    """

    soc: Soc | None = None
    effort: str = "full"
    workload: str = "p93791m"
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.effort not in PACK_EFFORT:
            raise ValueError(
                f"unknown effort {self.effort!r}, pick from "
                f"{sorted(PACK_EFFORT)}"
            )
        if self.soc is None:
            self.soc = build_workload(self.workload, self.seed)
        if not self.soc.analog_cores:
            raise ValueError("experiments need a mixed-signal SOC")

    @property
    def pack_kwargs(self) -> dict:
        """Packer keyword arguments for this effort preset."""
        return dict(PACK_EFFORT[self.effort])

    @property
    def cores(self):
        """The SOC's analog cores."""
        return self.soc.analog_cores

    @property
    def core_names(self) -> tuple[str, ...]:
        """Names of the analog cores, Table 2 order."""
        return tuple(core.name for core in self.cores)

    @property
    def combinations(self) -> list[Partition]:
        """The Table 1 sharing combinations (symmetry reduced; 26 for
        the paper's benchmark)."""
        return symmetry_reduce(
            paper_combinations(self.core_names),
            identical_core_classes(self.cores),
        )

    def area_model(self, **kwargs) -> AreaModel:
        """The Eq. (1) area model over the SOC's analog cores."""
        return AreaModel(self.cores, **kwargs)
