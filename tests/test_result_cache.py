"""Result-cache correctness: hits, misses, drift, sweeps, races, corruption.

Covers the PR acceptance criteria for the spec-fingerprint result cache:

* resubmitting an identical spec through a **fresh session** performs zero
  prep-step builds and zero executions (asserted via the store's namespace
  counters and the session counters) and returns a payload bit-identical
  to the cold run,
* spec drift or properties drift produce cache **misses** (content
  addressing, never invalidation-in-place),
* a partially cached :class:`SweepSpec` executes only its missing points,
* concurrent sessions racing to publish the same result converge on
  exactly one write (namespace write counters),
* corrupted / truncated cache entries fall back to a re-run that repairs
  the entry,
* the ``REPRO_RESULT_CACHE=0`` environment opt-out and
  ``Session(result_cache=False)`` force cold runs,
* GRAPE pulse persistence: a warm session never invokes the optimizer.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.backend import PulseBackend
from repro.store import ArtifactStore
from repro.devices import fake_montreal
from repro.session import GRAPESpec, IRBSpec, RBSpec, Session, SweepSpec, plan_specs

#: Small-but-real RB workload reused across the cache tests.
FAST_RB = dict(device="montreal", qubits=(0,), lengths=(1, 4, 8), n_seeds=1, shots=100, seed=5)
#: Small-but-real GRAPE workload (sub-second optimization).
FAST_GRAPE = dict(
    device="montreal", gate="x", qubits=(0,), duration_ns=56.0, n_ts=8,
    include_decoherence=False, max_iter=40, seed=5,
)


def _run(spec, store, **session_kwargs):
    """One spec through one fresh session; returns (result, session stats)."""
    with Session(store=store, num_workers=1, **session_kwargs) as session:
        result = session.run(spec)
        stats = dict(session.stats)
    return result, stats


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestWarmReplay:
    def test_fresh_session_zero_prep_zero_exec_bit_identical(self, store):
        """The acceptance criterion: warm replay does literally no work."""
        spec = RBSpec(**FAST_RB)
        cold, cold_stats = _run(spec, store)
        assert cold_stats["executions"] == 1
        assert store.namespace_stats("results")["writes"] == 1

        warm_store = ArtifactStore(store.root)
        warm, warm_stats = _run(spec, warm_store)
        # zero prep-step builds and zero executions, via the counters
        assert warm_stats == {
            "cache_hits": 1, "cache_misses": 0, "executions": 0, "prep_builds": 0,
        }
        tables = warm_store.namespace_stats("channel_tables")
        assert tables["writes"] == 0 and tables["hits"] == 0  # table never opened
        assert warm_store.namespace_stats("results") == {
            "writes": 0, "write_skips": 0, "hits": 1, "misses": 0, "corrupt": 0,
            "evictions": 0, "quarantined": 0,
        }
        # bit-identical payload, cache-marked provenance
        assert warm.cache_hit and not cold.cache_hit
        assert warm.payload_fingerprint() == cold.payload_fingerprint()
        np.testing.assert_array_equal(warm["survival_mean"], cold["survival_mean"])
        assert warm["error_per_clifford"] == cold["error_per_clifford"]

    def test_warm_prep_timings_empty(self, store):
        spec = RBSpec(**FAST_RB)
        _run(spec, store)
        with Session(store=ArtifactStore(store.root), num_workers=1) as session:
            session.run(spec)
            assert session.prep_timings == {}

    def test_num_workers_is_not_part_of_the_cache_key(self, store):
        base = RBSpec(**FAST_RB)
        cold, _ = _run(base, store)
        refanned = RBSpec(**FAST_RB, num_workers=1)
        assert refanned.cache_fingerprint() == base.cache_fingerprint()
        assert refanned.fingerprint() != base.fingerprint()
        warm, stats = _run(refanned, ArtifactStore(store.root))
        assert warm.cache_hit and stats["executions"] == 0
        assert warm.payload_fingerprint() == cold.payload_fingerprint()


class TestInvalidation:
    def test_spec_drift_misses(self, store):
        _run(RBSpec(**FAST_RB), store)
        drifted = RBSpec(**{**FAST_RB, "seed": 6})
        result, stats = _run(drifted, ArtifactStore(store.root))
        assert not result.cache_hit
        assert stats == {
            "cache_hits": 0, "cache_misses": 1, "executions": 1, "prep_builds": 3,
        }

    def test_properties_drift_misses(self, store, montreal_props):
        spec = RBSpec(**FAST_RB)
        _run(spec, store)
        # identical spec, drifted calibration snapshot adopted by the session
        drifted_props = montreal_props.with_qubit(0, t1=5_000.0, t2=5_000.0)
        backend = PulseBackend(drifted_props, calibrated_qubits=[0, 1], seed=5)
        with Session(
            backend={"montreal": backend}, store=ArtifactStore(store.root),
            num_workers=1,
        ) as session:
            result = session.run(spec)
            assert not result.cache_hit
            assert session.stats["executions"] == 1
        # both snapshots now live side by side under different keys
        assert store.has_result(
            spec.cache_fingerprint(), fake_montreal().fingerprint()
        )
        assert store.has_result(spec.cache_fingerprint(), drifted_props.fingerprint())

    def test_in_place_drift_within_one_session_misses(self, store, montreal_props):
        """Swapping ``backend.properties`` mid-session re-keys the cache.

        The drift-study pattern: one session, one backend, the calibration
        snapshot replaced in place between runs.  The cache key must
        follow the live snapshot — the post-drift run may not replay the
        pre-drift entry.
        """
        spec = RBSpec(**FAST_RB)
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=5)
        drifted = montreal_props.with_qubit(0, t1=5_000.0, t2=5_000.0)
        with Session(backend={"montreal": backend}, store=store, num_workers=1) as session:
            before = session.run(spec)
            backend.properties = drifted
            after = session.run(spec)
            assert session.stats["executions"] == 2  # the drifted run did not hit
        assert not after.cache_hit
        assert after.provenance["properties_fingerprint"] == drifted.fingerprint()
        assert after.payload_fingerprint() != before.payload_fingerprint()
        # both snapshots are now cached under their own keys
        assert store.has_result(spec.cache_fingerprint(), montreal_props.fingerprint())
        assert store.has_result(spec.cache_fingerprint(), drifted.fingerprint())

    def test_engine_is_part_of_the_cache_key(self, store):
        _run(RBSpec(**FAST_RB), store)
        circuits = RBSpec(**{**FAST_RB, "engine": "circuits"})
        result, stats = _run(circuits, ArtifactStore(store.root))
        assert not result.cache_hit and stats["executions"] == 1


class TestSweepGranularity:
    def test_partially_cached_sweep_runs_only_missing_points(self, store):
        base = RBSpec(**FAST_RB)
        first = SweepSpec(base=base, grid={"seed": (1, 2)})
        cold, cold_stats = _run(first, store)
        assert cold_stats["executions"] == 2
        assert cold.provenance["cached_points"] == 0

        wider = SweepSpec(base=base, grid={"seed": (1, 2, 3)})
        warm_store = ArtifactStore(store.root)
        warm, warm_stats = _run(wider, warm_store)
        assert warm_stats["cache_hits"] == 2
        assert warm_stats["executions"] == 1  # only seed=3 ran
        assert warm.provenance["cached_points"] == 2
        assert warm_store.namespace_stats("results")["writes"] == 1
        # warm points carry payloads bit-identical to the cold run
        by_seed = {child["spec"]["seed"]: child for child in warm["children"]}
        cold_by_seed = {child["spec"]["seed"]: child for child in cold["children"]}
        for seed in (1, 2):
            np.testing.assert_array_equal(
                by_seed[seed]["payload"]["survival_mean"],
                cold_by_seed[seed]["payload"]["survival_mean"],
            )

    def test_fully_cached_sweep_executes_nothing(self, store):
        sweep = SweepSpec(base=RBSpec(**FAST_RB), grid={"seed": (1, 2)})
        _run(sweep, store)
        warm, stats = _run(sweep, ArtifactStore(store.root))
        assert stats["executions"] == 0 and stats["prep_builds"] == 0
        assert warm.provenance["cached_points"] == 2


class TestCacheAwarePlanner:
    def test_plan_drops_steps_of_cached_specs(self, store):
        cached_spec = RBSpec(**FAST_RB)
        _run(cached_spec, store)
        cold_spec = RBSpec(**{**FAST_RB, "seed": 99})
        plan = plan_specs([cached_spec, cold_spec], store=ArtifactStore(store.root))
        assert plan.cached == [0]
        # every remaining step is consumed by the cold spec only
        for key, consumers in plan.consumers.items():
            assert consumers == [1]
        assert "1 cached" in plan.describe()
        # a fully cached batch plans zero steps
        warm_plan = plan_specs([cached_spec], store=ArtifactStore(store.root))
        assert warm_plan.steps == [] and warm_plan.cached == [0]

    def test_plan_without_store_is_unchanged(self):
        plan = plan_specs([RBSpec(**FAST_RB)])
        assert plan.cached == []
        assert len(plan.steps) == 3  # group, backend, table


class TestExactlyOncePublication:
    def test_racing_writers_publish_once(self, store):
        spec = RBSpec(**FAST_RB)
        result, _ = _run(spec, store)
        key = spec.cache_fingerprint()
        props = result.provenance["properties_fingerprint"]
        racing = ArtifactStore(store.root)
        racing.rm(key, namespace="results")  # start cold again
        barrier = threading.Barrier(4)
        outcomes = []

        def publish():
            barrier.wait()
            outcomes.append(racing.save_result(result, cache_fingerprint=key,
                                               properties_fingerprint=props))

        threads = [threading.Thread(target=publish) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = racing.namespace_stats("results")
        assert stats["writes"] == 1 and stats["write_skips"] == 3
        assert sorted(outcomes) == [False, False, False, True]
        assert racing.load_result(key, props).payload_fingerprint() == (
            result.payload_fingerprint()
        )

    def test_concurrent_sessions_converge(self, store):
        """Two sessions over one store: exactly one result write in total."""
        spec = RBSpec(**FAST_RB)
        store_a = ArtifactStore(store.root)
        store_b = ArtifactStore(store.root)
        results = {}

        def run(name, st):
            with Session(store=st, num_workers=1) as session:
                results[name] = session.run(spec)

        threads = [
            threading.Thread(target=run, args=("a", store_a)),
            threading.Thread(target=run, args=("b", store_b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        writes = (store_a.namespace_stats("results")["writes"]
                  + store_b.namespace_stats("results")["writes"])
        assert writes == 1
        assert results["a"].payload_fingerprint() == results["b"].payload_fingerprint()


class TestCorruption:
    def test_truncated_entry_falls_back_and_repairs(self, store):
        spec = RBSpec(**FAST_RB)
        cold, _ = _run(spec, store)
        path = store.result_path(
            spec.cache_fingerprint(), cold.provenance["properties_fingerprint"]
        )
        path.write_text(path.read_text()[: len(path.read_text()) // 2])  # truncate

        repaired_store = ArtifactStore(store.root)
        warm, stats = _run(spec, repaired_store)
        assert not warm.cache_hit
        assert stats["executions"] == 1
        assert repaired_store.namespace_stats("results")["corrupt"] == 1
        # the rerun republished a valid, bit-identical entry
        assert repaired_store.namespace_stats("results")["writes"] == 1
        again, again_stats = _run(spec, ArtifactStore(store.root))
        assert again.cache_hit and again_stats["executions"] == 0
        assert again.payload_fingerprint() == cold.payload_fingerprint()

    def test_garbage_entry_is_a_miss(self, store):
        spec = RBSpec(**FAST_RB)
        cold, _ = _run(spec, store)
        path = store.result_path(
            spec.cache_fingerprint(), cold.provenance["properties_fingerprint"]
        )
        path.write_text("{\"format\": \"something-else\"}")
        warm, stats = _run(spec, ArtifactStore(store.root))
        assert not warm.cache_hit and stats["executions"] == 1


class TestOptOut:
    def test_env_opt_out_forces_cold_run(self, store, monkeypatch):
        spec = RBSpec(**FAST_RB)
        cold, _ = _run(spec, store)
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        warm, stats = _run(spec, ArtifactStore(store.root))
        assert not warm.cache_hit
        assert stats["executions"] == 1
        # the forced cold run is bit-identical to the cached entry
        assert warm.payload_fingerprint() == cold.payload_fingerprint()

    def test_env_opt_out_beats_explicit_enable(self, store, monkeypatch):
        spec = RBSpec(**FAST_RB)
        _run(spec, store)
        monkeypatch.setenv("REPRO_RESULT_CACHE", "false")
        with Session(store=ArtifactStore(store.root), num_workers=1,
                     result_cache=True) as session:
            assert session.result_cache is False
            assert not session.run(spec).cache_hit

    def test_session_argument_opt_out(self, store):
        spec = RBSpec(**FAST_RB)
        _run(spec, store)
        warm, stats = _run(spec, ArtifactStore(store.root), result_cache=False)
        assert not warm.cache_hit and stats["executions"] == 1

    def test_no_store_disables_cache(self):
        with Session(store=None, num_workers=1) as session:
            assert session.result_cache is False


class TestPulsePersistence:
    def test_warm_session_skips_the_optimizer(self, store, monkeypatch):
        import repro.experiments.gates as gates_module

        calls = []
        original = gates_module.optimize_gate_pulse

        def counting(properties, config, **kwargs):
            calls.append(config.gate)
            return original(properties, config, **kwargs)

        monkeypatch.setattr(gates_module, "optimize_gate_pulse", counting)
        grape = GRAPESpec(**FAST_GRAPE)
        cold, _ = _run(grape, store)
        assert calls == ["x"]
        assert store.namespace_stats("pulses")["writes"] == 1

        # fresh session, result cache disabled: the grape artifact is
        # rebuilt — but from the persisted pulse, not the optimizer
        warm_store = ArtifactStore(store.root)
        with Session(store=warm_store, num_workers=1) as session:
            schedule = session.schedule_for(grape)
            optimization = session.optimization_for(grape)
        assert calls == ["x"]  # optimizer never ran again
        assert warm_store.namespace_stats("pulses")["hits"] == 1
        np.testing.assert_array_equal(optimization.final_amps,
                                      np.asarray(cold["final_amps"]))
        assert optimization.fid_err == cold["fid_err"]
        # the re-derived schedule is the bit-identical calibration
        with Session(store=None, num_workers=1) as plain:
            reference = plain.schedule_for(grape)
        assert schedule.fingerprint() == reference.fingerprint()

    def test_irb_with_cached_calibration_matches_cold(self, store):
        grape = GRAPESpec(**FAST_GRAPE)
        spec = IRBSpec(calibration=grape, gate="x", **FAST_RB)
        cold, _ = _run(spec, store)
        # drop the cached *result* but keep the persisted pulse: the rerun
        # replays the stored amplitudes and must stay bit-identical
        warm_store = ArtifactStore(store.root)
        warm_store.rm(spec.cache_fingerprint(), namespace="results")
        warm, stats = _run(spec, warm_store)
        assert stats["executions"] == 1
        assert warm_store.namespace_stats("pulses")["hits"] == 1
        assert warm.payload_fingerprint() == cold.payload_fingerprint()

    def test_pulse_opt_out_follows_result_cache_switch(self, store, monkeypatch):
        import repro.experiments.gates as gates_module

        calls = []
        original = gates_module.optimize_gate_pulse

        def counting(properties, config, **kwargs):
            calls.append(config.gate)
            return original(properties, config, **kwargs)

        monkeypatch.setattr(gates_module, "optimize_gate_pulse", counting)
        grape = GRAPESpec(**FAST_GRAPE)
        _run(grape, store)
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        with Session(store=ArtifactStore(store.root), num_workers=1) as session:
            session.schedule_for(grape)
        assert calls == ["x", "x"]  # forced cold: optimizer ran again
