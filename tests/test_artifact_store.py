"""The generic artifact store: namespaces, maintenance surface, CLI.

Covers the store mechanics shared by all four namespaces (ls / disk_stats /
prune / rm across channel tables, groups, pulses and results), the pulse
round trip, and the ``python -m repro.store`` command-line interface.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.backend import PulseBackend
from repro.core.result import OptimResult
from repro.devices import fake_montreal
from repro.session.results import ExperimentResult
from repro.store import NAMESPACES, ArtifactStore, resolve_store
from repro.store.__main__ import main as store_cli


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _fake_pulse(n_ctrls=2, n_ts=8) -> OptimResult:
    rng = np.random.default_rng(7)
    return OptimResult(
        initial_amps=rng.normal(size=(n_ctrls, n_ts)),
        final_amps=rng.normal(size=(n_ctrls, n_ts)),
        fid_err=1.25e-7,
        fid_err_history=[0.5, 1e-3, 1.25e-7],
        n_iter=42,
        n_fun_evals=57,
        termination_reason="target reached",
        evo_time=56.0,
        n_ts=n_ts,
        dt=7.0,
        final_operator=rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
        method="LBFGS",
        wall_time=0.31,
        metadata={"note": "synthetic"},
    )


def _fake_result() -> ExperimentResult:
    return ExperimentResult(
        kind="rb",
        spec={"kind": "rb", "seed": 1},
        payload={"survival_mean": np.array([0.99, 0.95]), "alpha": 0.998},
        provenance={"spec_fingerprint": "s" * 64, "properties_fingerprint": "p" * 64},
    )


def _populate(store: ArtifactStore) -> dict[str, str]:
    """One entry in every namespace; returns the keys used."""
    from repro.benchmarking.clifford import clifford_group

    keys = {}
    keys["channel_tables"] = "c" * 64
    store.save_channel_table(keys["channel_tables"], {0: np.eye(4, dtype=complex)})
    group = clifford_group(1)
    store.ensure_group_saved(group)
    keys["groups"] = store._group_path(1).stem
    keys["pulses"] = store.pulse_key("s" * 64, "p" * 64)
    assert store.save_pulse(keys["pulses"], _fake_pulse()) is True
    keys["results"] = f"{'s' * 64}/{'p' * 64}"
    store.save_result(_fake_result(), cache_fingerprint="s" * 64,
                      properties_fingerprint="p" * 64)
    return keys


class TestNamespaces:
    def test_all_four_namespaces_declared(self, store):
        assert [ns.name for ns in NAMESPACES] == [
            "channel_tables", "groups", "pulses", "results",
        ]
        for ns in NAMESPACES:
            assert store.namespace(ns.name) is ns
            assert store.namespace_dir(ns.name) == store.root / ns.directory
        with pytest.raises(KeyError):
            store.namespace("nope")

    def test_counters_seeded_to_zero(self, store):
        stats = store.stats
        for ns in NAMESPACES:
            for counter in ns.counters:
                assert stats[ns.name][counter] == 0

    def test_resolve_store_constructs_artifact_store(self, tmp_path):
        resolved = resolve_store(tmp_path / "s")
        assert type(resolved) is ArtifactStore
        assert resolve_store(resolved) is resolved
        assert resolve_store(None) is None
        # a backend's channel store is the same class with the same counters
        backend = PulseBackend(fake_montreal(), calibrated_qubits=[0], channel_store=tmp_path / "b")
        assert type(backend.channel_store) is ArtifactStore
        assert set(backend.channel_store.stats) == {ns.name for ns in NAMESPACES}


class TestPulseNamespace:
    def test_round_trip_is_lossless(self, store):
        pulse = _fake_pulse()
        key = store.pulse_key("a" * 64, "b" * 64)
        assert store.save_pulse(key, pulse, metadata={"device": "montreal"}) is True
        loaded = store.load_pulse(key)
        np.testing.assert_array_equal(loaded.initial_amps, pulse.initial_amps)
        np.testing.assert_array_equal(loaded.final_amps, pulse.final_amps)
        np.testing.assert_array_equal(loaded.final_operator, pulse.final_operator)
        assert loaded.fid_err == pulse.fid_err
        assert loaded.fid_err_history == pulse.fid_err_history
        assert loaded.n_iter == pulse.n_iter
        assert loaded.n_fun_evals == pulse.n_fun_evals
        assert loaded.termination_reason == pulse.termination_reason
        assert (loaded.evo_time, loaded.n_ts, loaded.dt) == (56.0, 8, 7.0)
        assert loaded.method == "LBFGS" and loaded.wall_time == 0.31
        # the OptimResult's own metadata round-trips verbatim; the caller's
        # save-time context stays in the manifest, never in the result
        assert loaded.metadata == {"note": "synthetic"}
        manifest = json.loads(store._pulse_manifest_path(key).read_text())
        assert manifest["context"] == {"device": "montreal"}
        assert store.namespace_stats("pulses") == {
            "writes": 1, "write_skips": 0, "hits": 1, "misses": 0, "corrupt": 0,
        }

    def test_second_save_is_skipped(self, store):
        key = store.pulse_key("a" * 64, "b" * 64)
        store.save_pulse(key, _fake_pulse())
        assert store.save_pulse(key, _fake_pulse()) is False
        assert store.namespace_stats("pulses")["write_skips"] == 1

    def test_unserializable_metadata_refused(self, store):
        pulse = _fake_pulse()
        pulse.metadata["array"] = np.zeros(3)  # not JSON-serializable
        assert store.save_pulse("k" * 64, pulse) is False
        assert store.load_pulse("k" * 64) is None

    def test_corrupt_arrays_fall_back(self, store):
        key = store.pulse_key("a" * 64, "b" * 64)
        store.save_pulse(key, _fake_pulse())
        manifest = json.loads(store._pulse_manifest_path(key).read_text())
        (store._pulses_dir() / manifest["arrays_file"]).write_bytes(b"garbage")
        assert store.load_pulse(key) is None
        assert store.namespace_stats("pulses")["corrupt"] == 1

    def test_keys_separate_spec_and_properties(self, store):
        assert store.pulse_key("a" * 64, "b" * 64) != store.pulse_key("a" * 64, "c" * 64)
        assert store.pulse_key("a" * 64, "b" * 64) == store.pulse_key("a" * 64, "b" * 64)


class TestMaintenance:
    def test_ls_lists_every_namespace(self, store):
        keys = _populate(store)
        entries = store.ls()
        by_ns = {e["namespace"]: e for e in entries}
        assert set(by_ns) == {"channel_tables", "groups", "pulses", "results"}
        for name, key in keys.items():
            assert by_ns[name]["key"] == key
            assert by_ns[name]["bytes"] > 0
            assert by_ns[name]["age_s"] >= 0
        # manifested namespaces count manifest + payload generation
        assert by_ns["channel_tables"]["files"] == 3  # manifest + ids + channels
        assert by_ns["pulses"]["files"] == 2  # manifest + npz
        groups_only = store.ls("groups")
        assert len(groups_only) == 1
        assert groups_only[0]["key"] == by_ns["groups"]["key"]

    def test_disk_stats_footprint(self, store):
        _populate(store)
        stats = store.disk_stats()
        for name in ("channel_tables", "groups", "pulses", "results"):
            assert stats[name]["entries"] == 1
            assert stats[name]["bytes"] > 0

    def test_prune_covers_every_manifested_namespace(self, store):
        keys = _populate(store)
        # supersede the channel generation (merge) and orphan the pulse npz
        store.save_channel_table(keys["channel_tables"], {1: np.eye(4, dtype=complex)})
        store._pulse_manifest_path(keys["pulses"]).unlink()
        assert store.prune() == 0  # grace period protects young files
        removed = store.prune(grace_seconds=0.0)
        assert removed == 3  # old ids + old channels + orphaned npz
        # live entries are untouched
        ids, _ = store.load_channel_table(keys["channel_tables"])
        assert list(ids) == [0, 1]
        assert store.load_result("s" * 64, "p" * 64) is not None

    def test_rm_by_key(self, store):
        keys = _populate(store)
        removed = store.rm(keys["channel_tables"])
        assert len(removed) == 3
        assert store.load_channel_table(keys["channel_tables"]) is None
        assert store.rm("missing-key") == []

    def test_rm_serializes_with_writers_and_fails_fast(self, store):
        """rm takes the entry's *writer* lock; a busy writer times it out."""
        keys = _populate(store)
        writer_lock = store._lock(
            store._entry_lock_name("pulses", keys["pulses"])
        ).acquire()
        try:
            with pytest.raises(TimeoutError):
                store.rm(keys["pulses"], namespace="pulses", lock_timeout=0.2)
            assert store.load_pulse(keys["pulses"]) is not None  # untouched
        finally:
            writer_lock.release()
        assert len(store.rm(keys["pulses"], namespace="pulses")) == 2

    def test_rm_result_by_spec_prefix(self, store):
        _populate(store)
        store.save_result(_fake_result(), cache_fingerprint="s" * 64,
                          properties_fingerprint="q" * 64)
        removed = store.rm("s" * 64, namespace="results")
        assert len(removed) == 2  # both properties snapshots of the spec
        assert not store.has_result("s" * 64, "p" * 64)
        # the now-empty spec directory is cleaned up
        assert not (store._results_dir() / ("s" * 64)).exists()


class TestCommandLine:
    def test_ls_stats_prune_rm(self, store, capsys):
        keys = _populate(store)
        root = str(store.root)

        assert store_cli(["--root", root, "ls"]) == 0
        out = capsys.readouterr().out
        for namespace in ("channel_tables", "groups", "pulses", "results"):
            assert namespace in out
        assert "4 entries" in out

        assert store_cli(["--root", root, "ls", "groups"]) == 0
        assert "clifford_1q" in capsys.readouterr().out

        assert store_cli(["--root", root, "stats"]) == 0
        assert "total" in capsys.readouterr().out

        assert store_cli(["--root", root, "prune", "--grace", "0"]) == 0
        assert "pruned 0" in capsys.readouterr().out

        assert store_cli(["--root", root, "rm", keys["pulses"]]) == 0
        assert "removed" in capsys.readouterr().out
        assert ArtifactStore(root).load_pulse(keys["pulses"]) is None

        assert store_cli(["--root", root, "rm", "no-such-key"]) == 1
        assert "no entry" in capsys.readouterr().err

    def test_unknown_namespace_fails_cleanly(self, store, capsys):
        assert store_cli(["--root", str(store.root), "ls", "bogus"]) == 1
        assert "unknown store namespace" in capsys.readouterr().err

    def test_missing_root_fails_for_mutations(self, tmp_path, capsys):
        assert store_cli(["--root", str(tmp_path / "absent"), "stats"]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_module_entry_point(self, store):
        _populate(store)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.store", "--root", str(store.root), "stats"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "results" in proc.stdout
