"""repro: quantum optimal pulse control on (simulated) superconducting qubits.

A full reproduction of Matekole, Fang & Lin, *Methods and Results for Quantum
Pulse Control on Superconducting Systems* (IPPS 2022, arXiv:2202.03260),
built from scratch on NumPy/SciPy:

* ``repro.qobj``      — quantum objects, operators, metrics, superoperators
* ``repro.solvers``   — Schrödinger / Lindblad solvers, PWC propagators
* ``repro.devices``   — Duffing transmon & cross-resonance device models,
                        calibration data, drift, fake IBM-Q devices
* ``repro.pulse``     — pulse shapes, channels, schedules, calibrations
                        (OpenPulse / Qiskit-Pulse equivalent)
* ``repro.circuits``  — circuits, transpiler, circuit→pulse scheduler
* ``repro.backend``   — the pulse-level simulated backend (stand-in for the
                        IBM hardware), measurement and readout error
* ``repro.benchmarking`` — Clifford groups, randomized benchmarking, IRB
* ``repro.core``      — the optimal-control algorithms (GRAPE/L-BFGS-B,
                        Krotov, CRAB, GOAT, SPSA) behind
                        :func:`repro.core.optimize_pulse_unitary`
* ``repro.experiments`` — drivers reproducing every table and figure
* ``repro.session``   — the declarative experiment API: serializable
                        specs, the cross-experiment planner and the
                        :class:`~repro.session.session.Session` submission
                        surface (see docs/sessions.md)
* ``repro.store``     — the unified content-addressed artifact store:
                        channel tables, group enumerations, persisted
                        GRAPE pulses and the spec-fingerprint result
                        cache, with a ``python -m repro.store``
                        maintenance CLI (see docs/caching.md)
* ``repro.service``   — the multi-session experiment service daemon:
                        HTTP spec submission, a restart-durable job
                        queue, worker sessions over one shared store,
                        exactly-once cross-process execution and bounded
                        result retention; run it with
                        ``python -m repro.service`` (see docs/service.md)

See README.md for a quickstart and docs/architecture.md for the system inventory.
"""

__version__ = "1.0.0"

__all__ = [
    "qobj",
    "solvers",
    "devices",
    "pulse",
    "circuits",
    "backend",
    "benchmarking",
    "core",
    "experiments",
    "session",
    "store",
    "service",
    "utils",
    "__version__",
]
