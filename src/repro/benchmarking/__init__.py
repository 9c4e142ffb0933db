"""Randomized benchmarking (RB) and interleaved RB (IRB).

The paper characterizes its pulse-optimized gates with interleaved randomized
benchmarking, because standard RB in Qiskit cannot interleave custom
calibrated gates.  This package implements the full stack from scratch:

* :mod:`~repro.benchmarking.clifford` — the single- and two-qubit Clifford
  groups (24 and 11520 elements) with a native-gate word for every element,
  uniform sampling, composition and inversion,
* :mod:`~repro.benchmarking.rb` — standard RB sequence generation and
  execution against a :class:`~repro.backend.backend.PulseBackend`,
* :mod:`~repro.benchmarking.fitting` — exponential-decay fitting
  ``A·α^m + B`` with parameter uncertainties,
* :mod:`~repro.benchmarking.irb` — the interleaved RB experiment and the
  Magesan et al. interleaved-gate-error estimator used by Qiskit (and by the
  paper's Table I),
* :mod:`~repro.benchmarking.engine` — the batched execution engine: cached
  per-Clifford superoperator channels composed per sequence (instead of
  re-executing every circuit gate-by-gate) with an optional process-pool
  fan-out over sequences,
* :mod:`~repro.benchmarking.tableau` — the symplectic-tableau Clifford
  composer: composition and inversion as integer arithmetic on packed
  binary tableaux instead of matrix products,
* the protocol zoo on the same channels engine —
  :mod:`~repro.benchmarking.xeb` (linear cross-entropy benchmarking),
  :mod:`~repro.benchmarking.purity` (purity RB / unitarity estimation) and
  :mod:`~repro.benchmarking.cycle` (cycle benchmarking under random Pauli
  twirls), each with a ``"circuits"`` reference path asserted equivalent
  to the channels path.
"""

from .clifford import CliffordGroup, clifford_group, CliffordElement
from .cycle import CycleBenchResult, cycle_sequences, pauli_indices, run_cycle_benchmark
from .engine import CliffordChannelTable, clifford_channel_table, used_element_indices
from .fitting import fit_rb_decay, RBDecayFit
from .purity import PurityRBResult, purity_rb_sequences, run_purity_rb, state_purity
from .rb import RBExperiment, RBResult, StandardRB, execute_rb_sequences, rb_circuits, rb_sequences
from .irb import InterleavedRB, InterleavedRBExperiment, InterleavedRBResult
from .tableau import CliffordTableauIndex, Tableau
from .xeb import XEBResult, linear_xeb_fidelities, run_xeb, xeb_sequences

__all__ = [
    "CycleBenchResult",
    "PurityRBResult",
    "XEBResult",
    "cycle_sequences",
    "pauli_indices",
    "run_cycle_benchmark",
    "purity_rb_sequences",
    "run_purity_rb",
    "state_purity",
    "linear_xeb_fidelities",
    "run_xeb",
    "xeb_sequences",
    "CliffordGroup",
    "CliffordElement",
    "CliffordChannelTable",
    "CliffordTableauIndex",
    "Tableau",
    "clifford_channel_table",
    "clifford_group",
    "used_element_indices",
    "fit_rb_decay",
    "RBDecayFit",
    "RBExperiment",
    "RBResult",
    "StandardRB",
    "execute_rb_sequences",
    "rb_circuits",
    "rb_sequences",
    "InterleavedRB",
    "InterleavedRBExperiment",
    "InterleavedRBResult",
]
