"""The ``pulses`` namespace: persisted GRAPE pulse optimizations.

A pulse optimization is deterministic in its spec (all randomness flows
from the spec seed) and in the calibration snapshot it was optimized
against — so its outcome is content-addressable by the pair
``(spec fingerprint, properties fingerprint)``.  Persisting the optimized
:class:`~repro.core.result.OptimResult` lets a warm session skip the
optimizer entirely and re-derive the pulse schedule bit-identically from
the stored amplitudes (``pulse_schedule_from_result`` is a pure function
of properties × config × amplitudes).

Entries follow the manifest-generation layout of the channel tables: a
``<key>.json`` manifest holds the scalar fields and names the ``.npz``
array generation, publication is atomic and serialized on the key's
advisory lock, and superseded generations are collected by the store's
single :meth:`~repro.store.core.StoreCore.prune` policy.
"""

from __future__ import annotations

import hashlib
import json
import uuid
import zipfile
from pathlib import Path

import numpy as np

from .core import atomic_write, atomic_write_text

__all__ = ["PULSE_FORMAT_VERSION", "PulseMixin"]

#: Bump to invalidate every persisted pulse after an incompatible change to
#: the optimizer pipeline or the stored layout.
PULSE_FORMAT_VERSION = 1

#: OptimResult scalar fields copied verbatim into the manifest.
_SCALAR_FIELDS = (
    "fid_err",
    "n_iter",
    "n_fun_evals",
    "termination_reason",
    "evo_time",
    "n_ts",
    "dt",
    "method",
    "wall_time",
)


class PulseMixin:
    """Typed API of the ``pulses`` namespace (mixed into the store)."""

    def pulse_key(self, spec_fingerprint: str, properties_fingerprint: str) -> str:
        """Content-address of one optimization outcome.

        Digests the GRAPE spec fingerprint (gate, duration, grid, optimizer
        settings, seed — see
        :meth:`~repro.session.specs.ExperimentSpec.fingerprint`), the
        backend-properties fingerprint the model was built from, and the
        pulse format version.  A drifted calibration snapshot or a changed
        spec therefore addresses a *different* pulse — never a stale one.
        """
        payload = json.dumps(
            {
                "version": PULSE_FORMAT_VERSION,
                "spec": spec_fingerprint,
                "properties": properties_fingerprint,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _pulses_dir(self) -> Path:
        return self.namespace_dir("pulses")

    def _pulse_manifest_path(self, key: str) -> Path:
        return self._pulses_dir() / f"{key}.json"

    def _pulse_manifest(self, key: str) -> dict | None:
        """The manifest of a persisted pulse, or None when absent/corrupt."""
        try:
            manifest = json.loads(self._pulse_manifest_path(key).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if manifest.get("version") != PULSE_FORMAT_VERSION:
            return None
        if not (self._pulses_dir() / manifest.get("arrays_file", "")).exists():
            return None
        return manifest

    def save_pulse(self, key: str, optimization, metadata: dict | None = None) -> bool:
        """Persist one :class:`OptimResult` under a key; returns True if written.

        Publication is exactly-once: writers of the same key serialize on
        the key's advisory lock and a writer that finds a valid entry
        publishes nothing (counted as a ``write_skips``).  An optimization
        whose free-form ``metadata`` is not JSON-serializable is *not*
        persisted (returns False) — the cache only ever holds entries it
        can reproduce losslessly.  The caller's ``metadata`` is stored as
        a separate informational ``context`` field: it never leaks into
        the reloaded :class:`OptimResult`, whose own ``metadata`` round
        trips verbatim.
        """
        try:
            own_metadata_json = json.dumps(optimization.metadata or {}, sort_keys=True)
            context_json = json.dumps(metadata or {}, sort_keys=True)
        except (TypeError, ValueError):
            return False
        with self._lock(self._entry_lock_name("pulses", key)):
            if self._pulse_manifest(key) is not None:
                self._bump("pulses", "write_skips")
                return False
            directory = self._pulses_dir()
            directory.mkdir(parents=True, exist_ok=True)
            arrays = {
                "initial_amps": np.asarray(optimization.initial_amps),
                "final_amps": np.asarray(optimization.final_amps),
                "fid_err_history": np.asarray(optimization.fid_err_history, dtype=float),
            }
            if optimization.final_operator is not None:
                arrays["final_operator"] = np.asarray(optimization.final_operator)
            arrays_file = f"{key}-{uuid.uuid4().hex[:8]}.npz"
            atomic_write(directory / arrays_file, lambda fh: np.savez(fh, **arrays))
            manifest = {
                "version": PULSE_FORMAT_VERSION,
                "key": key,
                "arrays_file": arrays_file,
                "scalars": {name: getattr(optimization, name) for name in _SCALAR_FIELDS},
                "metadata": json.loads(own_metadata_json),
                "context": json.loads(context_json),
            }
            atomic_write_text(
                self._pulse_manifest_path(key), json.dumps(manifest, indent=2, sort_keys=True)
            )
            self._bump("pulses", "writes")
        return True

    def load_pulse(self, key: str):
        """Rebuild the persisted :class:`OptimResult` of a key, or None.

        A corrupt or truncated entry (unreadable manifest, missing or
        unloadable array file) is reported as a miss — the caller falls
        back to re-running the optimizer, and the eventual re-save
        publishes a fresh generation over the broken one.
        """
        from ..core.result import OptimResult

        manifest = self._pulse_manifest(key)
        if manifest is None:
            self._bump("pulses", "misses")
            return None
        try:
            with np.load(self._pulses_dir() / manifest["arrays_file"]) as payload:
                arrays = {name: np.array(payload[name]) for name in payload.files}
            scalars = manifest["scalars"]
            result = OptimResult(
                initial_amps=arrays["initial_amps"],
                final_amps=arrays["final_amps"],
                fid_err=float(scalars["fid_err"]),
                fid_err_history=[float(v) for v in arrays["fid_err_history"]],
                n_iter=int(scalars["n_iter"]),
                n_fun_evals=int(scalars["n_fun_evals"]),
                termination_reason=str(scalars["termination_reason"]),
                evo_time=float(scalars["evo_time"]),
                n_ts=int(scalars["n_ts"]),
                dt=float(scalars["dt"]),
                final_operator=arrays.get("final_operator"),
                method=str(scalars["method"]),
                wall_time=float(scalars["wall_time"]),
                metadata=dict(manifest.get("metadata", {})),
            )
        except (OSError, KeyError, ValueError, TypeError, zipfile.BadZipFile):
            self._bump("pulses", "corrupt")
            self._bump("pulses", "misses")
            return None
        self._bump("pulses", "hits")
        return result
