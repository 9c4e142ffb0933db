"""Table I: error per gate with and without optimized custom pulses.

Reproduces the sweep of the paper's Table I: for each gate and pulse
duration, optimize a custom pulse, benchmark it with interleaved RB against
the backend default, and report both error rates and the relative
improvement.  The paper's published values are kept in
:data:`TABLE1_PAPER_VALUES` so the bench harness can print the side-by-side
comparison.

Device assignment follows the paper: X, √X and CX on ibmq_montreal, H on
ibmq_toronto; the default single-qubit gate duration is 32 ns.

The sweep is expressed as declarative specs (:func:`table1_row_specs`)
executed through one :class:`~repro.session.session.Session`, so all
montreal rows share a single backend, a single 1q Clifford channel table
and — for rows nesting the same pulse — a single GRAPE optimization.  The
results are bit-identical to the pre-session implementation (all
randomness flows from the explicit seeds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..utils.validation import ValidationError

__all__ = [
    "Table1Row",
    "TABLE1_PAPER_VALUES",
    "table1_row_specs",
    "generate_table1",
    "format_table1",
]

#: Paper Table I: (gate, duration_ns) -> (custom error, default error, improvement)
#: in units of 1e-4; ``None`` improvement marks the row the paper leaves blank.
TABLE1_PAPER_VALUES = {
    ("x", 105.0): (2.0, 2.8, 0.29),
    ("x", 56.0): (1.4, 2.8, 0.50),
    ("sx", 162.0): (2.4, 6.5, 0.63),
    ("sx", 31.0): (4.1, 6.5, 0.36),
    ("h", 267.0): (26.0, 5.0, None),
    ("h", 28.0): (3.1, 5.0, 0.39),
    ("cx", 1193.0): (56.0, 62.0, 0.10),
}

#: The gate/duration grid of Table I with per-row experiment settings.
#: ``optimizer_levels`` is 3 (leakage-aware transmon model) except for the
#: long 267-ns H row, which uses the paper's bare two-level Pauli model — the
#: resulting pulse leaks on the 3-level device and performs *worse* than the
#: default gate, reproducing the anomalous H row of the paper's Table I.
TABLE1_ROWS: tuple[dict, ...] = (
    {"gate": "x", "duration_ns": 105.0, "device": "montreal", "n_ts": 12, "include_decoherence": True, "optimizer_levels": 3},
    {"gate": "x", "duration_ns": 56.0, "device": "montreal", "n_ts": 10, "include_decoherence": True, "optimizer_levels": 3},
    {"gate": "sx", "duration_ns": 162.0, "device": "montreal", "n_ts": 14, "include_decoherence": False, "optimizer_levels": 3},
    {"gate": "sx", "duration_ns": 31.0, "device": "montreal", "n_ts": 8, "include_decoherence": False, "optimizer_levels": 3},
    {"gate": "h", "duration_ns": 267.0, "device": "toronto", "n_ts": 16, "include_decoherence": False, "optimizer_levels": 2},
    {"gate": "h", "duration_ns": 28.0, "device": "toronto", "n_ts": 8, "include_decoherence": False, "optimizer_levels": 3},
    {"gate": "cx", "duration_ns": 1193.0, "device": "montreal", "n_ts": 20, "include_decoherence": False, "optimizer_levels": 2},
)


@dataclass
class Table1Row:
    """One measured row of Table I (errors as absolute probabilities)."""

    gate: str
    duration_ns: float
    device: str
    custom_error: float
    custom_error_std: float
    default_error: float
    default_error_std: float
    custom_channel_error: float
    default_channel_error: float

    @property
    def improvement(self) -> float:
        """Relative improvement of the custom over the default gate (IRB)."""
        if self.default_error <= 0:
            return float("nan")
        return 1.0 - self.custom_error / self.default_error

    @property
    def channel_improvement(self) -> float:
        """Relative improvement measured on the exact simulated channels."""
        if self.default_channel_error <= 0:
            return float("nan")
        return 1.0 - self.custom_channel_error / self.default_channel_error

    def paper_values(self) -> tuple[float, float, float | None] | None:
        """The corresponding published row (errors in 1e-4), if any."""
        return TABLE1_PAPER_VALUES.get((self.gate, self.duration_ns))


def table1_row_specs(row: dict, fast: bool = True, seed: int = 2022) -> dict:
    """Declarative specs of one Table I row.

    Parameters
    ----------
    row:
        An entry of :data:`TABLE1_ROWS` (``gate``, ``duration_ns``,
        ``device``, ``n_ts``, ``include_decoherence``,
        ``optimizer_levels``).
    fast:
        Reduced RB lengths / seeds / shots (as in :func:`generate_table1`).
    seed:
        Optimization and benchmarking seed.

    Returns
    -------
    dict
        ``{"grape": GRAPESpec, "custom_irb": IRBSpec, "default_irb":
        IRBSpec}`` — run them through a
        :class:`~repro.session.session.Session`.
    """
    from ..session.specs import GRAPESpec, IRBSpec

    if row["device"] not in ("montreal", "toronto"):
        raise ValidationError(f"unknown Table I device {row['device']!r}")
    is_cx = row["gate"] == "cx"
    grape = GRAPESpec(
        device=row["device"],
        gate=row["gate"],
        qubits=(0, 1) if is_cx else (0,),
        duration_ns=row["duration_ns"],
        n_ts=row["n_ts"],
        include_decoherence=row["include_decoherence"],
        optimizer_levels=row.get("optimizer_levels", 3),
        init_pulse_type="GAUSSIAN_SQUARE" if is_cx else "DRAG",
        init_pulse_scale=0.1 if is_cx else 0.25,
        max_iter=120 if fast else 300,
        seed=seed,
    )
    if is_cx:
        lengths = (1, 2, 4, 8, 12) if fast else (1, 2, 4, 8, 16, 24)
        rb_seeds = 3 if fast else 6
        shots = 300 if fast else 800
    else:
        lengths = (1, 16, 48, 96, 160) if fast else (1, 16, 48, 96, 160, 240)
        rb_seeds = 4 if fast else 8
        shots = 400 if fast else 1200
    common = dict(
        device=row["device"],
        gate=row["gate"],
        qubits=(0, 1) if is_cx else (0,),
        lengths=lengths,
        n_seeds=rb_seeds,
        shots=shots,
        seed=seed,
    )
    return {
        "grape": grape,
        "custom_irb": IRBSpec(calibration=grape, **common),
        "default_irb": IRBSpec(calibration=None, **common),
    }


def generate_table1(
    rows: Sequence[dict] | None = None,
    fast: bool = True,
    seed: int = 2022,
    store=None,
    num_workers: int = 1,
    result_cache: bool | None = None,
) -> list[Table1Row]:
    """Run the Table I sweep through one session; return the measured rows.

    Every row becomes a spec triple (:func:`table1_row_specs`) and the
    whole batch runs through a single
    :class:`~repro.session.session.Session`, so rows on the same device
    share one backend and one Clifford channel table.

    Parameters
    ----------
    rows:
        Subset of :data:`TABLE1_ROWS` to run (default: all seven rows).
    fast:
        Use reduced RB lengths / seeds / shots so the full table completes in
        a couple of minutes on a laptop; set False for publication-quality
        statistics.
    seed:
        Optimization / benchmarking seed (per row, as before).
    store:
        Persistent artifact-store selector forwarded to the session
        (``None`` — the historical behaviour — disables persistence; with
        a store, re-generating the table is a warm replay: cached rows and
        persisted pulses are served bit-identically from the store).
    num_workers:
        Per-experiment process fan-out forwarded to the session.
    result_cache:
        Result-cache switch forwarded to the session (``False`` forces a
        cold bit-identity run even with a store attached).
    """
    from ..session.session import Session

    row_dicts = list(rows) if rows is not None else list(TABLE1_ROWS)
    triples = [table1_row_specs(row, fast=fast, seed=seed) for row in row_dicts]
    out: list[Table1Row] = []
    with Session(
        store=store, num_workers=num_workers, seed=seed, result_cache=result_cache
    ) as session:
        flat = [
            spec
            for triple in triples
            for spec in (triple["custom_irb"], triple["default_irb"], triple["grape"])
        ]
        results = session.run_all(flat)
        for position, row in enumerate(row_dicts):
            custom, default, grape = results[3 * position : 3 * position + 3]
            out.append(
                Table1Row(
                    gate=row["gate"],
                    duration_ns=row["duration_ns"],
                    device=row["device"],
                    custom_error=custom["gate_error"],
                    custom_error_std=custom["gate_error_std"],
                    default_error=default["gate_error"],
                    default_error_std=default["gate_error_std"],
                    custom_channel_error=grape["custom_channel_error"],
                    default_channel_error=grape["default_channel_error"],
                )
            )
    return out


def format_table1(rows: Sequence[Table1Row]) -> str:
    """Render measured rows next to the paper's published values."""
    header = (
        f"{'Gate':<5} {'Duration':>9} {'custom':>12} {'default':>12} {'improv.':>8}"
        f"   |  {'paper custom':>12} {'paper default':>13} {'paper improv.':>13}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        paper = row.paper_values()
        paper_str = (
            f"{paper[0]:>10.1f}e-4 {paper[1]:>11.1f}e-4 "
            + (f"{paper[2]*100:>12.0f}%" if paper[2] is not None else f"{'-':>13}")
            if paper
            else f"{'-':>12} {'-':>13} {'-':>13}"
        )
        lines.append(
            f"{row.gate:<5} {row.duration_ns:>7.0f}ns "
            f"{row.custom_error:>11.2e} {row.default_error:>12.2e} "
            f"{row.improvement*100:>7.0f}%   |  {paper_str}"
        )
    return "\n".join(lines)
