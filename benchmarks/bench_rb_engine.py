"""Batched RB execution engine vs. the per-circuit reference path.

This is the benchmark behind the execution-engine acceptance criteria: the
same interleaved-RB workload (reference + interleaved curves of the default
X gate) is executed twice on identical backends —

* ``circuits``: every sequence is transpiled and composed gate-by-gate (the
  seed implementation's execution path),
* ``channels``: sequences are composed from cached per-Clifford
  superoperator channels (the batched engine).

Both engines draw identical per-sequence sampling seeds, so the survival
statistics — and hence the fitted error-per-Clifford — must agree to well
below 1e-6.  The measured wall-clock ratio is the engine speedup recorded in
``BENCH_rb.json`` and compared by CI against the committed baseline.

``test_rb_store_cold_vs_warm`` additionally times the persistent Clifford
store: a cold session transpiles and composes every used two-qubit element
channel and persists it; a warm session memory-maps the stored table (and
loads the group enumeration) instead.  Warm setup must be at least 5× faster
than cold, and the reopened channels must be bit-identical.

``test_rb_session_shared_prep`` benchmarks the session layer: three IRB
specs on the same qubit submitted through one ``Session`` share a single
backend and a single Clifford channel-table build (asserted via the store's
write counters), versus the legacy pattern of three standalone experiments
each rebuilding their own.  The session must be measurably faster and
bit-identical.

``test_rb_result_cache`` benchmarks the result cache: the Fig. 3 custom-X
IRB spec is run cold through one session (GRAPE optimization + channel
table + execution, all published to the store), then re-submitted through a
fresh session over the same store root.  The warm replay must be a pure
cache hit — zero prep builds, zero executions, ≥20× faster than cold — and
its payload must be bit-identical to the cold run.

``test_protocol_zoo`` benchmarks the protocol zoo's engine-equivalence
contract on linear XEB: the same random-circuit workload is scored once on
the ``channels`` engine (composing the warmed per-Clifford superoperator
table) and once on the per-circuit ``circuits`` reference.  The per-depth
fidelities and fitted layer fidelity must agree to ≤ 1e-6, and the
channels path must be ≥ 5× faster (``protocol_zoo_gain``).

``test_grape_sweep_batch`` benchmarks cross-point batched GRAPE: a sweep
over seeds × initial-pulse scales of one gate model is run once with the
planner's per-point fan-out (``grape_batch=False``) and once with the
stacked optimization (the default).  The batched leg must plan exactly one
``grape_batch`` prep step and produce a payload bit-identical (volatile
wall-clock/root fields scrubbed) to the fan-out leg; the wall-clock ratio
is the recorded ``grape_sweep_batch_gain``.
"""

import json
import os
import time

import numpy as np

from repro.backend import PulseBackend
from repro.benchmarking import InterleavedRBExperiment, clifford_channel_table
from repro.benchmarking.clifford import CliffordGroup, clifford_group
from repro.circuits.gate import Gate
from repro.devices import fake_montreal
from repro.session import GRAPESpec, IRBSpec, Session, SweepSpec
from repro.store import ArtifactStore
from repro.store import channels as store_channels

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


def _run_engine(engine: str, lengths, n_seeds, shots) -> tuple[float, object]:
    backend = PulseBackend(fake_montreal(), calibrated_qubits=[0, 1], seed=2022)
    experiment = InterleavedRBExperiment(
        backend,
        Gate.standard("x"),
        [0],
        lengths=lengths,
        n_seeds=n_seeds,
        shots=shots,
        seed=2022,
        engine=engine,
    )
    start = time.perf_counter()
    result = experiment.run()
    return time.perf_counter() - start, result


def _compare_engines():
    lengths = (1, 16, 48, 96, 160, 240) if not SMOKE else (1, 8, 16)
    n_seeds = 6 if not SMOKE else 2
    shots = 400 if not SMOKE else 100
    wall_circuits, loop = _run_engine("circuits", lengths, n_seeds, shots)
    wall_channels, fast = _run_engine("channels", lengths, n_seeds, shots)
    return {
        "wall_clock_circuits_s": wall_circuits,
        "wall_clock_channels_s": wall_channels,
        "speedup": wall_circuits / wall_channels,
        "epc_reference_circuits": loop.reference.error_per_clifford,
        "epc_reference_channels": fast.reference.error_per_clifford,
        "epc_interleaved_circuits": loop.interleaved.error_per_clifford,
        "epc_interleaved_channels": fast.interleaved.error_per_clifford,
        "gate_error_circuits": loop.gate_error,
        "gate_error_channels": fast.gate_error,
        "epc_abs_diff": abs(
            loop.reference.error_per_clifford - fast.reference.error_per_clifford
        ),
        "gate_error_abs_diff": abs(loop.gate_error - fast.gate_error),
        "max_survival_abs_diff": float(
            np.max(
                np.abs(loop.interleaved.survival_mean - fast.interleaved.survival_mean)
            )
        ),
    }


def test_rb_engine_speedup(benchmark, save_results, bench_metrics):
    data = benchmark.pedantic(_compare_engines, rounds=1, iterations=1)
    # correctness: the engines must agree essentially exactly
    assert data["epc_abs_diff"] <= 1e-6
    assert data["gate_error_abs_diff"] <= 1e-6
    assert data["max_survival_abs_diff"] <= 1e-6
    if not SMOKE:
        # the acceptance floor for the batched engine on the IRB workload
        assert data["speedup"] >= 10.0, f"engine speedup regressed: {data['speedup']:.1f}x"
    bench_metrics["rb_engine"] = {
        "wall_clock_s": data["wall_clock_channels_s"],
        "speedup": data["speedup"],
        "epc_abs_diff": data["epc_abs_diff"],
    }
    save_results("rb_engine", data)


# --------------------------------------------------------------------------- #
# persistent store: cold build vs warm mmap
# --------------------------------------------------------------------------- #
def _store_cold_vs_warm(root) -> dict:
    """Time channel-table setup cold (build + persist) vs warm (mmap)."""
    n_qubits = 1 if SMOKE else 2
    qubits = [0] if SMOKE else [0, 1]
    group = clifford_group(n_qubits)
    # a realistic mid-size 2q workload touches a few hundred distinct elements
    n_elements = len(group) if SMOKE else 240
    indices = list(range(n_elements))

    store = ArtifactStore(root)
    cold_backend = PulseBackend(fake_montreal(), calibrated_qubits=[0, 1], seed=2022)
    start = time.perf_counter()
    cold_table = clifford_channel_table(cold_backend, qubits, group, store=store)
    cold_table.ensure(indices)
    cold_setup = time.perf_counter() - start

    # a warm session: fresh store object, fresh backend instance, and the
    # process-local mmap cache dropped so the timing includes the real
    # manifest read + np.load + memory-map open a new process would pay
    store_channels._OPEN_TABLES.clear()
    warm_backend = PulseBackend(
        fake_montreal(), calibrated_qubits=[0, 1], seed=2022,
        channel_store=ArtifactStore(root),
    )
    start = time.perf_counter()
    warm_table = clifford_channel_table(warm_backend, qubits, group)
    for index in indices:
        warm_table.channel_by_index(index)
    warm_setup = time.perf_counter() - start

    # correctness: the reopened (mmap) channels must be bit-identical to an
    # independent in-memory build — not to the cold table, which reads the
    # same on-disk generation and would compare a file against itself
    reference_backend = PulseBackend(fake_montreal(), calibrated_qubits=[0, 1], seed=2022)
    reference_table = clifford_channel_table(reference_backend, qubits, group, store=False)
    check_indices = indices if SMOKE else indices[::10]
    max_abs_diff = max(
        float(np.max(np.abs(
            np.asarray(warm_table.channel_by_index(i)) - reference_table.channel_by_index(i)
        )))
        for i in check_indices
    )
    data = {
        "n_qubits": n_qubits,
        "n_elements": n_elements,
        "cold_setup_wall_clock_s": cold_setup,
        "warm_setup_wall_clock_s": warm_setup,
        "store_warm_speedup": cold_setup / warm_setup,
        "channel_max_abs_diff": max_abs_diff,
    }
    if not SMOKE:
        # group enumeration: persisted load vs a fresh breadth-first build
        store.ensure_group_saved(group)
        start = time.perf_counter()
        arrays = store.load_group_arrays(n_qubits)
        CliffordGroup.from_arrays(n_qubits, arrays)
        data["group_load_wall_clock_s"] = time.perf_counter() - start
        start = time.perf_counter()
        CliffordGroup(n_qubits)
        data["group_bfs_wall_clock_s"] = time.perf_counter() - start
    return data


def _session_vs_sequential(root) -> dict:
    """Three overlapping IRB specs: one planned session vs standalone runs.

    Full mode benchmarks the two-qubit CX workload (the Fig. 8 shape),
    where per-element channel construction dominates setup — the artifact
    the session shares; smoke mode shrinks to the single-qubit gate.
    """
    if SMOKE:
        gate, qubits, lengths, shots = "x", (0,), (1, 4, 8), 100
    else:
        gate, qubits, lengths, shots = "cx", (0, 1), (1, 2, 4, 8), 200
    specs = [
        IRBSpec(
            device="montreal", gate=gate, qubits=qubits, lengths=lengths,
            n_seeds=2, shots=shots, seed=seed,
        )
        for seed in (101, 102, 103)
    ]
    # warm the process-wide group cache so neither contender pays the
    # one-off BFS/enumeration inside its timed region
    clifford_group(len(qubits))

    # the legacy pattern: every experiment rebuilds its own backend, gate
    # channels and Clifford channel table from scratch
    start = time.perf_counter()
    sequential = []
    for spec in specs:
        backend = PulseBackend(fake_montreal(), calibrated_qubits=[0, 1], seed=2022)
        experiment = InterleavedRBExperiment(
            backend, Gate.standard(gate), list(qubits), lengths=spec.lengths,
            n_seeds=spec.n_seeds, shots=spec.shots, seed=spec.seed,
        )
        sequential.append(experiment.run())
    sequential_wall = time.perf_counter() - start

    # the session path: one backend, one table build (union of all three
    # spec's sequences), persisted exactly once, then fan out
    store = ArtifactStore(root)
    start = time.perf_counter()
    with Session(store=store, num_workers=1) as session:
        results = session.run_all(specs)
    session_wall = time.perf_counter() - start

    max_abs_diff = max(
        float(np.max(np.abs(
            result["interleaved_survival_mean"] - standalone.interleaved.survival_mean
        )))
        for result, standalone in zip(results, sequential)
    )
    gate_error_abs_diff = max(
        abs(result["gate_error"] - standalone.gate_error)
        for result, standalone in zip(results, sequential)
    )
    return {
        "n_specs": len(specs),
        "sequential_wall_clock_s": sequential_wall,
        "session_wall_clock_s": session_wall,
        "shared_prep_gain": sequential_wall / session_wall,
        "table_writes": store.namespace_stats("channel_tables")["writes"],
        "table_write_skips": store.namespace_stats("channel_tables")["write_skips"],
        "elements_written": store.namespace_stats("channel_tables")["elements_written"],
        "max_survival_abs_diff": max_abs_diff,
        "gate_error_abs_diff": gate_error_abs_diff,
    }


def test_rb_session_shared_prep(benchmark, save_results, bench_metrics, tmp_path):
    data = benchmark.pedantic(
        _session_vs_sequential, args=(tmp_path / "store",), rounds=1, iterations=1
    )
    # correctness: the session replays the exact standalone statistics...
    assert data["max_survival_abs_diff"] == 0.0
    assert data["gate_error_abs_diff"] == 0.0
    # ...and the shared 1q channel table is persisted exactly once
    assert data["table_writes"] == 1
    if not SMOKE:
        # acceptance: shared preparation must be a measurable win
        assert data["shared_prep_gain"] >= 1.15, (
            f"session shared-prep gain regressed: {data['shared_prep_gain']:.2f}x"
        )
    bench_metrics["rb_session"] = {
        "session_wall_clock_s": data["session_wall_clock_s"],
        "sequential_wall_clock_s": data["sequential_wall_clock_s"],
        "shared_prep_gain": data["shared_prep_gain"],
        "table_writes": data["table_writes"],
    }
    save_results("rb_session", data)


def _result_cache_cold_vs_warm(root) -> dict:
    """The Fig. 3 custom-X IRB spec: cold session vs warm cached replay."""
    if SMOKE:
        calibration = GRAPESpec(
            device="montreal", gate="x", qubits=(0,), duration_ns=56.0, n_ts=8,
            include_decoherence=False, max_iter=40, seed=2022,
        )
        spec = IRBSpec(
            device="montreal", gate="x", qubits=(0,), lengths=(1, 4, 8),
            n_seeds=2, shots=100, seed=2022, calibration=calibration,
        )
    else:
        from repro.experiments.figures import fig3_specs

        spec = fig3_specs()["custom_irb"]

    cold_store = ArtifactStore(root)
    start = time.perf_counter()
    with Session(store=cold_store, num_workers=1) as session:
        cold = session.run(spec)
        cold_stats = dict(session.stats)
    cold_wall = time.perf_counter() - start

    # a warm session: fresh store object and process-local mmap cache
    # dropped, so the replay pays the real manifest + JSON read costs a
    # new process would pay
    store_channels._OPEN_TABLES.clear()
    warm_store = ArtifactStore(root)
    start = time.perf_counter()
    with Session(store=warm_store, num_workers=1) as session:
        warm = session.run(spec)
        warm_stats = dict(session.stats)
    warm_wall = time.perf_counter() - start

    payload_identical = warm.payload_fingerprint() == cold.payload_fingerprint()
    return {
        "cold_wall_clock_s": cold_wall,
        "warm_wall_clock_s": warm_wall,
        "result_cache_speedup": cold_wall / warm_wall,
        "payload_abs_diff": 0.0 if payload_identical else 1.0,
        "cache_hit": bool(warm.provenance.get("cache_hit")),
        "cold_executions": cold_stats["executions"],
        "warm_executions": warm_stats["executions"],
        "warm_prep_builds": warm_stats["prep_builds"],
        "warm_table_writes": warm_store.namespace_stats("channel_tables")["writes"],
        "warm_result_hits": warm_store.namespace_stats("results")["hits"],
        "cold_result_writes": cold_store.namespace_stats("results")["writes"],
        "cold_pulse_writes": cold_store.namespace_stats("pulses")["writes"],
    }


def test_rb_result_cache(benchmark, save_results, bench_metrics, tmp_path):
    data = benchmark.pedantic(
        _result_cache_cold_vs_warm, args=(tmp_path / "store",), rounds=1, iterations=1
    )
    # correctness: the warm replay is a pure hit with a bit-identical payload
    assert data["payload_abs_diff"] == 0.0
    assert data["cache_hit"] is True
    assert data["cold_executions"] == 1
    assert data["warm_executions"] == 0
    assert data["warm_prep_builds"] == 0
    assert data["warm_table_writes"] == 0
    assert data["warm_result_hits"] == 1
    assert data["cold_result_writes"] == 1
    if not SMOKE:
        # acceptance: the cached fig3 spec replays >=20x faster than cold
        assert data["result_cache_speedup"] >= 20.0, (
            f"result-cache speedup regressed: {data['result_cache_speedup']:.1f}x"
        )
    bench_metrics["rb_result_cache"] = {
        "cold_wall_clock_s": data["cold_wall_clock_s"],
        "warm_wall_clock_s": data["warm_wall_clock_s"],
        "result_cache_speedup": data["result_cache_speedup"],
        "payload_abs_diff": data["payload_abs_diff"],
    }
    save_results("rb_result_cache", data)


def test_rb_store_cold_vs_warm(benchmark, save_results, bench_metrics, tmp_path):
    data = benchmark.pedantic(_store_cold_vs_warm, args=(tmp_path / "store",), rounds=1, iterations=1)
    # correctness: reopened channels are bit-identical to the cold build
    assert data["channel_max_abs_diff"] == 0.0
    if not SMOKE:
        # acceptance: warm-store setup (no per-element transpile) is
        # measurably faster than the cold build, machine-independently
        assert data["store_warm_speedup"] >= 5.0, (
            f"warm store setup only {data['store_warm_speedup']:.1f}x faster than cold"
        )
        assert data["group_load_wall_clock_s"] < data["group_bfs_wall_clock_s"]
    bench_metrics["rb_store"] = {
        "store_warm_speedup": data["store_warm_speedup"],
        "cold_setup_wall_clock_s": data["cold_setup_wall_clock_s"],
        "warm_setup_wall_clock_s": data["warm_setup_wall_clock_s"],
    }
    save_results("rb_store", data)


# --------------------------------------------------------------------------- #
# protocol zoo: XEB on the channels engine vs the per-circuit reference
# --------------------------------------------------------------------------- #
def _protocol_zoo_xeb() -> dict:
    """Linear XEB scored on both engines from one warmed backend."""
    from repro.benchmarking.xeb import run_xeb

    if SMOKE:
        args = dict(depths=(1, 2, 4), n_circuits=4, shots=100, seed=1)
    else:
        args = dict(depths=(1, 2, 4, 8, 16), n_circuits=16, shots=400, seed=1)
    backend = PulseBackend(fake_montreal(), calibrated_qubits=[0, 1], seed=2022)
    # warm the gate-channel and Clifford-table caches outside both timed
    # legs, so the gain isolates the engine difference (compose cached
    # superoperators vs transpile-and-compose every circuit)
    run_xeb(backend, [0], engine="channels", **args)

    start = time.perf_counter()
    fast = run_xeb(backend, [0], engine="channels", **args)
    wall_channels = time.perf_counter() - start
    start = time.perf_counter()
    slow = run_xeb(backend, [0], engine="circuits", **args)
    wall_circuits = time.perf_counter() - start
    return {
        "n_circuits": len(args["depths"]) * args["n_circuits"],
        "wall_clock_channels_s": wall_channels,
        "wall_clock_circuits_s": wall_circuits,
        "protocol_zoo_gain": wall_circuits / wall_channels,
        "layer_fidelity_channels": fast.layer_fidelity,
        "layer_fidelity_circuits": slow.layer_fidelity,
        "xeb_abs_diff": max(
            float(np.max(np.abs(fast.fidelity - slow.fidelity))),
            abs(fast.layer_fidelity - slow.layer_fidelity),
        ),
    }


def test_protocol_zoo(benchmark, save_results, bench_metrics):
    data = benchmark.pedantic(_protocol_zoo_xeb, rounds=1, iterations=1)
    # correctness: both engines score the random circuits identically
    assert data["xeb_abs_diff"] <= 1e-6
    if not SMOKE:
        # acceptance: the cached-superoperator path must be a clear win
        assert data["protocol_zoo_gain"] >= 5.0, (
            f"protocol-zoo engine gain regressed: {data['protocol_zoo_gain']:.1f}x"
        )
    bench_metrics["protocol_zoo"] = {
        "wall_clock_channels_s": data["wall_clock_channels_s"],
        "wall_clock_circuits_s": data["wall_clock_circuits_s"],
        "protocol_zoo_gain": data["protocol_zoo_gain"],
        "xeb_abs_diff": data["xeb_abs_diff"],
    }
    save_results("protocol_zoo", data)


# --------------------------------------------------------------------------- #
# cross-point batched GRAPE: stacked sweep vs per-point fan-out
# --------------------------------------------------------------------------- #

#: Keys that legitimately differ between two otherwise-identical runs
#: (wall clocks, store locations, per-run traces) and are scrubbed before
#: the batched/fan-out payload comparison.  The stable contract — pulse
#: amplitudes, iterate histories, fingerprints, cache keys — stays in.
_VOLATILE_PAYLOAD_KEYS = {"timings", "store_root", "wall_time", "trace"}


def _scrub_volatile(obj):
    """Recursively drop the volatile keys from a result payload."""
    if isinstance(obj, dict):
        return {
            key: _scrub_volatile(value)
            for key, value in obj.items()
            if key not in _VOLATILE_PAYLOAD_KEYS
        }
    if isinstance(obj, (list, tuple)):
        return [_scrub_volatile(value) for value in obj]
    return obj


def _grape_sweep_batched_vs_fanout(root) -> dict:
    """One GRAPE sweep run twice: per-point fan-out vs stacked pass."""
    if SMOKE:
        n_ts, seeds, scales, max_iter = 8, (7, 11), (0.25, 0.4), 25
    else:
        n_ts = 16
        seeds = tuple(7 + 2 * index for index in range(8))
        scales = (0.2, 0.3, 0.4)
        max_iter = 80
    base = GRAPESpec(
        device="montreal", gate="x", qubits=(0,), duration_ns=105.0,
        n_ts=n_ts, include_decoherence=False, max_iter=max_iter, seed=7,
    )
    sweep = SweepSpec(base=base, grid={"seed": seeds, "init_pulse_scale": scales})
    n_points = len(seeds) * len(scales)

    # pay the one-off model/import warm-up outside both timed legs
    with Session(store=ArtifactStore(root / "warm"), num_workers=1) as session:
        session.run(GRAPESpec(
            device="montreal", gate="x", qubits=(0,), duration_ns=56.0,
            n_ts=8, include_decoherence=False, max_iter=10, seed=1,
        ))

    def leg(name: str, batch: bool):
        with Session(
            store=ArtifactStore(root / name), num_workers=1, grape_batch=batch,
        ) as session:
            start = time.perf_counter()
            result = session.run(sweep)
            wall = time.perf_counter() - start
            return result, wall, dict(session.stats), dict(session.prep_timings)

    fan_result, fan_wall, fan_stats, _ = leg("fanout", False)
    bat_result, bat_wall, bat_stats, bat_timings = leg("batched", True)

    # compare through the lossless-JSON encoding (ndarray-safe, and the
    # exact representation cached replays are served from)
    fan_payload = _scrub_volatile(json.loads(fan_result.to_json())["payload"])
    bat_payload = _scrub_volatile(json.loads(bat_result.to_json())["payload"])
    identical = fan_payload == bat_payload
    return {
        "n_points": n_points,
        "fanout_wall_clock_s": fan_wall,
        "batched_wall_clock_s": bat_wall,
        "grape_sweep_batch_gain": fan_wall / bat_wall,
        "fanout_executions": fan_stats["executions"],
        "batched_executions": bat_stats["executions"],
        "batched_grape_batch_steps": sum(
            1 for key in bat_timings if key[0] == "grape_batch"
        ),
        "payload_abs_diff": 0.0 if identical else 1.0,
    }


def test_grape_sweep_batch(benchmark, save_results, bench_metrics, tmp_path):
    data = benchmark.pedantic(
        _grape_sweep_batched_vs_fanout, args=(tmp_path,), rounds=1, iterations=1
    )
    # correctness: the stacked pass really ran (exactly one grape_batch
    # prep step), every point still executed, and the sweep payload is
    # bit-identical to the fan-out path once volatile fields are scrubbed
    assert data["payload_abs_diff"] == 0.0
    assert data["batched_grape_batch_steps"] == 1
    assert data["fanout_executions"] == data["n_points"]
    assert data["batched_executions"] == data["n_points"]
    if not SMOKE:
        # guard against a pathological stacking slowdown; the measured
        # gain (~1.2-1.4x on a quiet single-core box, from fusing the
        # per-iteration assembly/eigh/reconstruction passes) is enforced
        # one-sidedly by the committed baseline
        assert data["grape_sweep_batch_gain"] >= 0.9, (
            f"batched sweep slower than fan-out: {data['grape_sweep_batch_gain']:.2f}x"
        )
    bench_metrics["grape_sweep_batch"] = {
        "fanout_wall_clock_s": data["fanout_wall_clock_s"],
        "batched_wall_clock_s": data["batched_wall_clock_s"],
        "grape_sweep_batch_gain": data["grape_sweep_batch_gain"],
        "payload_abs_diff": data["payload_abs_diff"],
    }
    save_results("grape_sweep_batch", data)
