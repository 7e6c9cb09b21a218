"""Performance analysis and reporting.

Everything needed to regenerate the paper's figures and to reason
about the design quantitatively:

- :mod:`repro.perf.analytic` — closed-form per-reporting-step cost
  predictions for CGYRO and XGYRO runs (cross-checked against the
  executed simulator in tests);
- :mod:`repro.perf.report` — the Figure-2 comparison harness and its
  text rendering;
- :mod:`repro.perf.figures` — ASCII renderings of the Figure-1/3
  communicator diagrams, generated *from the executed trace*;
- :mod:`repro.perf.calibrate` — the fitting routine that produced the
  Frontier-like preset constants from the paper's reported numbers;
- :mod:`repro.perf.memory` — memory-budget arithmetic (minimum node
  counts, cmat dominance ratios).
"""

from repro.perf.analytic import (
    AnalyticBreakdown,
    predict_cgyro_interval,
    predict_xgyro_interval,
)
from repro.perf.calibrate import CalibrationResult, calibrate_machine
from repro.perf.comm_matrix import (
    LocalityReport,
    communication_matrix,
    locality_report,
)
from repro.perf.figures import render_figure1, render_figure3
from repro.perf.memory import cmat_dominance_ratio, min_nodes_required
from repro.perf.report import (
    Figure2Result,
    figure2_comparison,
    render_campaign_report,
    render_equivalence_report,
    render_figure2,
    render_recovery_report,
)

__all__ = [
    "AnalyticBreakdown",
    "predict_cgyro_interval",
    "predict_xgyro_interval",
    "Figure2Result",
    "figure2_comparison",
    "render_campaign_report",
    "render_equivalence_report",
    "render_figure2",
    "render_recovery_report",
    "render_figure1",
    "render_figure3",
    "CalibrationResult",
    "calibrate_machine",
    "min_nodes_required",
    "cmat_dominance_ratio",
    "communication_matrix",
    "locality_report",
    "LocalityReport",
]
