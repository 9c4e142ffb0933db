"""Experiment drivers reproducing the paper's evaluation.

Each module maps onto a part of the paper:

* :mod:`~repro.experiments.gates` — the end-to-end per-gate pipeline
  (build Hamiltonian from backend data → `pulseoptim` → cast into a pulse
  schedule → replace the default gate → histogram + IRB), used by Figs. 2–8
  and Table I,
* :mod:`~repro.experiments.table1` — the Table I sweep over gates and pulse
  durations,
* :mod:`~repro.experiments.figures` — data generators for every figure,
* :mod:`~repro.experiments.drift` — the Section V calibration-drift study
  (optimize once vs optimize daily),
* :mod:`~repro.experiments.optimizers` — the Section II optimizer comparison
  (L-BFGS-B vs SPSA vs plain GRAPE vs CRAB) and the ablations run by
  ``benchmarks/bench_ablations.py``.
"""

from .gates import (
    GateExperimentConfig,
    GateExperimentResult,
    optimize_gate_pulse,
    pulse_schedule_from_result,
    run_gate_experiment,
    gate_histogram,
)
from .table1 import Table1Row, generate_table1, format_table1, table1_row_specs, TABLE1_PAPER_VALUES
from .drift import DriftStudyResult, drift_study_spec, run_drift_study
from .optimizers import OptimizerComparisonResult, compare_optimizers, optimizer_comparison_specs

__all__ = [
    "GateExperimentConfig",
    "GateExperimentResult",
    "optimize_gate_pulse",
    "pulse_schedule_from_result",
    "run_gate_experiment",
    "gate_histogram",
    "Table1Row",
    "generate_table1",
    "format_table1",
    "table1_row_specs",
    "TABLE1_PAPER_VALUES",
    "DriftStudyResult",
    "drift_study_spec",
    "run_drift_study",
    "OptimizerComparisonResult",
    "compare_optimizers",
    "optimizer_comparison_specs",
]
