"""Single-qubit gate calibration campaign (X, √X, H) with interleaved RB.

Reproduces the workflow behind Figs. 3–5 and the single-qubit rows of
Table I: for each gate, optimize a custom pulse from the backend's reported
calibration, replace the default gate with it, and characterize both with
interleaved randomized benchmarking on the simulated ibmq_montreal /
ibmq_toronto devices.

Run with:  python examples/single_qubit_gate_calibration.py          (fast)
           python examples/single_qubit_gate_calibration.py --full   (better statistics)
"""

from __future__ import annotations

import argparse

from repro.backend import PulseBackend
from repro.devices import fake_montreal, fake_toronto
from repro.experiments import GateExperimentConfig, run_gate_experiment

CAMPAIGN = (
    # gate, device, duration_ns, n_ts, include_decoherence, optimizer_levels
    ("x", "montreal", 105.0, 12, True, 3),
    ("sx", "montreal", 162.0, 14, False, 3),
    ("h", "toronto", 28.0, 8, False, 3),
)


def main(full: bool = False) -> None:
    devices = {"montreal": fake_montreal(), "toronto": fake_toronto()}
    backends = {name: PulseBackend(props, calibrated_qubits=[0, 1], seed=42) for name, props in devices.items()}
    lengths = (1, 16, 48, 96, 160, 240) if full else (1, 16, 48, 96)
    seeds = 8 if full else 4
    shots = 1200 if full else 400

    print(f"{'gate':<5}{'device':<11}{'duration':>9}  {'custom IRB':>13}  {'default IRB':>13}  {'improvement':>12}")
    print("-" * 72)
    for gate, device, duration, n_ts, decoherence, levels in CAMPAIGN:
        config = GateExperimentConfig(
            gate=gate,
            qubits=(0,),
            duration_ns=duration,
            n_ts=n_ts,
            include_decoherence=decoherence,
            optimizer_levels=levels,
            seed=2022,
        )
        result = run_gate_experiment(
            devices[device],
            config,
            backend=backends[device],
            rb_lengths=lengths,
            rb_seeds=seeds,
            shots=shots,
            histogram_shots=2000,
            seed=2022,
        )
        custom = result.custom_irb
        default = result.default_irb
        improvement = result.improvement
        print(
            f"{gate:<5}{device:<11}{duration:>7.0f}ns  "
            f"{custom.gate_error:>9.2e}±{custom.gate_error_std:.0e}  "
            f"{default.gate_error:>9.2e}±{default.gate_error_std:.0e}  "
            f"{improvement * 100 if improvement is not None else float('nan'):>11.0f}%"
        )
        hist = result.custom_histogram.probabilities()
        print(f"      histogram after custom {gate}: {dict(sorted(hist.items()))}")
        print(
            f"      exact channel errors: custom {result.custom_channel_error:.2e}, "
            f"default {result.default_channel_error:.2e}"
        )
    print("\n(The paper's corresponding IRB numbers are in Table I; see benchmarks/bench_table1_error_rates.py.)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true", help="use publication-quality RB statistics")
    main(parser.parse_args().full)
