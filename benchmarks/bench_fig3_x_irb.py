"""Fig. 3 — IRB of the custom (105 ns) vs default X gate + output histogram.

Paper values: custom (2.0 ± 0.5)e-4, default (2.8 ± 0.5)e-4, histogram 87.3%
of |1⟩.  The reproduction preserves the ordering (custom < default) and the
readout-limited histogram; the absolute error rates are higher than the
paper's (see :mod:`repro.devices.library`).
"""

from repro.experiments import figures


def test_fig3_x_irb(benchmark, save_results, bench_metrics):
    data = benchmark.pedantic(figures.fig3_x_irb, kwargs={"seed": 2022, "fast": True}, rounds=1, iterations=1)
    assert data["custom_error_rate"] < data["default_error_rate"]
    assert data["histogram_probabilities"].get("1", 0.0) > 0.8
    bench_metrics["fig3_x_irb"] = {
        "custom_error_rate": float(data["custom_error_rate"]),
        "default_error_rate": float(data["default_error_rate"]),
    }
    save_results(
        "fig3_x_irb",
        {
            "lengths": data["custom_lengths"],
            "custom_interleaved_survival": data["custom_survival"],
            "default_interleaved_survival": data["default_survival"],
            "reference_survival": data["custom_reference_survival"],
            "custom_X_error_rate": data["custom_error_rate"],
            "custom_X_error_rate_std": data["custom_error_rate_std"],
            "default_X_error_rate": data["default_error_rate"],
            "default_X_error_rate_std": data["default_error_rate_std"],
            "histogram_P1_custom_X": data["histogram_probabilities"].get("1", 0.0),
            "paper_custom_error": 2.0e-4,
            "paper_default_error": 2.8e-4,
            "paper_histogram_P1": 0.873,
        },
    )
