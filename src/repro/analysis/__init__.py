"""Analysis layer: AMAT equations, energy/EDP model, paper figures.

- :mod:`repro.analysis.amat` implements Equations 1-5 of the paper as an
  analytic model, fed either with hand-picked parameters or with measured
  component statistics from a simulation;
- :mod:`repro.analysis.energy` turns a finished design + run time into an
  energy breakdown and EDP;
- :mod:`repro.analysis.report` formats paper-style tables and normalised
  series;
- :mod:`repro.analysis.experiments` describes each reproduced figure as
  data (``FIGURES``) and runs it (``run_figure``) for the CLI, the
  validate scorecard and the benchmarks.
"""

from repro.analysis.amat import (
    AMATInputs,
    amat_sram_tag,
    amat_tagless,
    miss_penalty_ctlb,
)
from repro.analysis.energy import EnergyBreakdown, compute_energy
from repro.analysis.report import format_table, normalize_to

__all__ = [
    "AMATInputs",
    "amat_sram_tag",
    "amat_tagless",
    "miss_penalty_ctlb",
    "EnergyBreakdown",
    "compute_energy",
    "format_table",
    "normalize_to",
]
