"""Workload inputs, generated from the workload seed alone.

Each function returns the specs a workload submits; the same seed always
gives the same specs.
"""

from __future__ import annotations

import numpy as np

#: Upper bound on the jobs of one service run (a run never gets near it).
MAX_SERVICE_JOBS = 40000


def paper_specs(seed: int) -> list:
    """Figs. 1–8 plus every Table I row, fast mode, in paper order."""
    from repro.experiments import figures
    from repro.experiments.table1 import TABLE1_ROWS, table1_row_specs

    specs = [figures.fig1_spec(seed), figures.fig2_spec(seed)]
    for build in (figures.fig3_specs, figures.fig4_specs, figures.fig5_specs):
        specs += build(seed, fast=True).values()
    specs += figures.fig6_specs(seed).values()
    specs.append(figures.fig7_spec(seed))
    specs += figures.fig8_specs(seed, fast=True).values()
    for row in TABLE1_ROWS:
        specs += table1_row_specs(row, fast=True, seed=seed).values()
    return specs


def service_prime_specs(seed: int) -> list:
    """The 1q paper specs (Figs. 3–5: GRAPE, custom IRB, default IRB)."""
    from repro.experiments import figures

    specs = []
    for build in (figures.fig3_specs, figures.fig4_specs, figures.fig5_specs):
        specs += build(seed, fast=True).values()
    return specs


def service_jobs(seed: int, pool: list):
    """The closed-loop job sequence as ``job(k)``: three hits, then a miss.

    Hits are drawn from ``pool``.  Misses are 1q RB or default-calibration
    IRB specs whose seeds are drawn without replacement, so each one
    executes and publishes exactly once.
    """
    from repro.session import IRBSpec, RBSpec

    rng = np.random.default_rng([seed, 1])
    miss_seeds = rng.choice(2**31 - 1, size=MAX_SERVICE_JOBS // 4, replace=False)
    hit_choice = rng.integers(0, len(pool), size=MAX_SERVICE_JOBS)

    def job(k: int):
        if k % 4 != 3:
            return pool[int(hit_choice[k])]
        common = dict(device="montreal", qubits=(0,), lengths=(1, 8, 24, 64),
                      n_seeds=2, shots=128, seed=int(miss_seeds[k // 4]))
        if (k // 4) % 2:
            return IRBSpec(gate="sx" if (k // 8) % 2 else "x", **common)
        return RBSpec(**common)

    return job
