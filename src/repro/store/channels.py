"""The ``channel_tables`` namespace: per-Clifford superoperator tables.

Channel tables are the store's largest artifacts: one ``(n, 4^q, 4^q)``
complex stack per (backend snapshot, qubit set) holding the superoperator
channel of every Clifford group element a workload has touched.  They are

* **content-addressed** by :meth:`ChannelTableMixin.channel_table_key` —
  the hash digests the backend-properties fingerprint, the physical qubit
  tuple, the simulation options, the calibration schedules inside the
  qubit set, the group order and :data:`STORE_FORMAT_VERSION`, so drifted
  inputs address a different table instead of invalidating this one;
* **memory-mapped read-only** on the warm path: every process of a
  ``num_workers`` fan-out opens the same file and shares one kernel
  page-cache copy (see :class:`ChannelTableHandle`);
* **merged, not overwritten**, on the cold path: writers of one key
  serialize on the key's advisory lock, drop every element a racing writer
  already persisted, and publish a fresh merged generation only when new
  elements remain.
"""

from __future__ import annotations

import hashlib
import json
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import atomic_save_array, atomic_write_text
from ..utils.validation import ValidationError

__all__ = ["STORE_FORMAT_VERSION", "ChannelTableHandle", "ChannelTableMixin"]

#: Bump to invalidate every on-disk channel table after an incompatible
#: change to the channel pipeline or the stored layouts.
STORE_FORMAT_VERSION = 1

#: Process-local cache of opened memory-mapped tables, keyed by
#: ``(root, key, ids_file)`` so a merged (renamed) generation is re-opened.
_OPEN_TABLES: dict[tuple[str, str, str], tuple[np.ndarray, np.ndarray]] = {}


@dataclass(frozen=True)
class ChannelTableHandle:
    """Picklable reference to one on-disk channel-table generation.

    Worker processes receive this instead of a pickled channel dictionary:
    each process memory-maps the referenced arrays once (cached per process)
    and the operating system shares the physical pages between every reader,
    so an n-worker fan-out holds **one** copy of the table instead of n+1.

    Attributes
    ----------
    root : str
        Store root directory.
    key : str
        Content-address of the table.
    ids_file, channels_file : str
        Basenames of the generation's element-id and channel arrays.
    """

    root: str
    key: str
    ids_file: str
    channels_file: str

    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(element_ids, channels)`` arrays, memory-mapped read-only."""
        cache_key = (self.root, self.key, self.ids_file)
        cached = _OPEN_TABLES.get(cache_key)
        if cached is None:
            directory = Path(self.root) / "channels"
            ids = np.load(directory / self.ids_file)
            channels = np.load(directory / self.channels_file, mmap_mode="r")
            if len(ids) != len(channels):
                raise ValidationError(
                    f"corrupt channel table {self.key}: {len(ids)} ids vs {len(channels)} channels"
                )
            # evict superseded generations of the same table so long
            # sessions of incremental flushes hold one mapping per key
            for stale in [k for k in _OPEN_TABLES if k[:2] == cache_key[:2]]:
                del _OPEN_TABLES[stale]
            cached = (ids, channels)
            _OPEN_TABLES[cache_key] = cached
        return cached

    def channel(self, element_index: int) -> np.ndarray:
        """Channel of one Clifford element (read-only memory-mapped view)."""
        ids, channels = self.table()
        pos = int(np.searchsorted(ids, element_index))
        if pos >= len(ids) or ids[pos] != element_index:
            raise KeyError(f"element {element_index} is not in channel table {self.key}")
        return channels[pos]


class ChannelTableMixin:
    """Typed API of the ``channel_tables`` namespace (mixed into the store)."""

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #
    @classmethod
    def channel_table_key(cls, backend, physical_qubits, group) -> str:
        """Content-address of a backend + qubit-set channel table.

        The key digests every input the per-element channels depend on:

        * the backend **properties fingerprint** (qubit frequencies, T1/T2,
          gate errors, coupling, … — see
          :meth:`BackendProperties.fingerprint
          <repro.devices.properties.BackendProperties.fingerprint>`),
        * the **physical qubit tuple** (order matters: it fixes the
          local-to-physical mapping of every Clifford word),
        * the **simulation options** (level counts, decoherence, resampling),
        * the **calibration schedules** of every instruction-schedule-map
          entry acting inside the qubit set (content fingerprints, so an
          overridden default calibration busts the key),
        * the group order and the store format version.

        Any drift in the calibration snapshot therefore yields a fresh key —
        the persistent analogue of the in-memory cache invalidation
        performed by ``PulseBackend._check_cache_freshness``.
        """
        qubits = tuple(int(q) for q in physical_qubits)
        qubit_set = set(qubits)
        schedule_entries = [
            (name, entry_qubits, schedule.fingerprint())
            for name, entry_qubits, schedule in backend.instruction_schedule_map.entries()
            if set(entry_qubits) <= qubit_set
        ]
        payload = json.dumps(
            {
                "version": STORE_FORMAT_VERSION,
                "properties": backend.properties.fingerprint(),
                "qubits": qubits,
                "group_order": len(group),
                "n_qubits": group.n_qubits,
                "options": repr(backend.options),
                "schedules": schedule_entries,
            },
            sort_keys=True,
            default=list,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    # ------------------------------------------------------------------ #
    # read path
    # ------------------------------------------------------------------ #
    def _channels_dir(self) -> Path:
        return self.namespace_dir("channel_tables")

    def _manifest_path(self, key: str) -> Path:
        return self._channels_dir() / f"{key}.json"

    def manifest(self, key: str) -> dict | None:
        """The manifest of a channel table, or None when absent/corrupt."""
        path = self._manifest_path(key)
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if manifest.get("version") != STORE_FORMAT_VERSION:
            return None
        return manifest

    def handle(self, key: str) -> ChannelTableHandle | None:
        """Picklable handle to the current generation of a channel table."""
        manifest = self.manifest(key)
        if manifest is None:
            return None
        directory = self._channels_dir()
        if not (directory / manifest["ids_file"]).exists():
            return None
        if not (directory / manifest["channels_file"]).exists():
            return None
        return ChannelTableHandle(
            root=str(self.root),
            key=key,
            ids_file=manifest["ids_file"],
            channels_file=manifest["channels_file"],
        )

    def load_channel_table(self, key: str) -> tuple[np.ndarray, np.ndarray] | None:
        """Memory-map the current generation of a channel table.

        Returns
        -------
        tuple of ndarray, or None
            ``(element_ids, channels)`` — ids sorted ascending, channels of
            shape ``(n_entries, d², d²)`` opened read-only — or ``None``
            when the key has no (valid) entry.
        """
        table = self._load_channel_table(key)
        self._bump("channel_tables", "misses" if table is None else "hits")
        return table

    def _load_channel_table(self, key: str) -> tuple[np.ndarray, np.ndarray] | None:
        """Counter-free load used internally (merges, freshness re-reads)."""
        handle = self.handle(key)
        if handle is None:
            return None
        try:
            return handle.table()
        except (OSError, ValidationError, ValueError):
            return None

    # ------------------------------------------------------------------ #
    # write path
    # ------------------------------------------------------------------ #
    def save_channel_table(
        self, key: str, channels: dict[int, np.ndarray], metadata: dict | None = None
    ) -> ChannelTableHandle:
        """Persist (and merge) per-element channels under a key.

        Writers of the same key serialize on a cross-process advisory lock,
        then re-read the current generation *under the lock*: entries that
        are already on disk are dropped from the write set (they were
        produced by the same content key, so they are bit-identical), and a
        save whose every element is already persisted publishes nothing at
        all — racing cold workers converge on one generation instead of
        overwriting each other with last-writer-wins merges.  When new
        elements remain, a fresh merged generation is written under unique
        names and the manifest is atomically replaced to point at it.

        Parameters
        ----------
        key : str
            Content-address from :meth:`channel_table_key`.
        channels : dict of int to ndarray
            Element index → superoperator channel.
        metadata : dict, optional
            Extra JSON-serializable context stored in the manifest (purely
            informational — the key already encodes the content).

        Returns
        -------
        ChannelTableHandle
            Handle to the current on-disk generation (freshly written, or
            the pre-existing one when nothing new needed persisting).
        """
        if not channels:
            raise ValidationError("refusing to persist an empty channel table")
        with self._lock(self._entry_lock_name("channel_tables", key)):
            merged: dict[int, np.ndarray] = {}
            existing = self._load_channel_table(key)
            if existing is not None:
                old_ids, old_channels = existing
                for pos, element_id in enumerate(old_ids):
                    merged[int(element_id)] = np.asarray(old_channels[pos])
            fresh = 0
            for element_id, channel in channels.items():
                if int(element_id) not in merged:
                    fresh += 1
                merged[int(element_id)] = np.asarray(channel, dtype=complex)
            if fresh == 0:
                # every element is already persisted (a racing writer beat
                # us under the lock, or the caller re-flushed): nothing to do
                handle = self.handle(key)
                if handle is not None:
                    self._bump("channel_tables", "write_skips")
                    return handle
                # generation files vanished out-of-band (manual cleanup):
                # fall through and rewrite the full merged table
                fresh = len(merged)
            ids = np.array(sorted(merged), dtype=np.int64)
            stacked = np.stack([merged[int(i)] for i in ids]).astype(complex)

            directory = self._channels_dir()
            directory.mkdir(parents=True, exist_ok=True)
            token = uuid.uuid4().hex[:8]
            base = f"{key}-{len(ids)}-{token}"
            ids_file = f"{base}.ids.npy"
            channels_file = f"{base}.ch.npy"
            atomic_save_array(directory / ids_file, ids)
            atomic_save_array(directory / channels_file, stacked)
            manifest = {
                "version": STORE_FORMAT_VERSION,
                "key": key,
                "ids_file": ids_file,
                "channels_file": channels_file,
                "n_entries": int(len(ids)),
                "metadata": metadata or {},
            }
            atomic_write_text(
                self._manifest_path(key), json.dumps(manifest, indent=2, sort_keys=True)
            )
            self._bump("channel_tables", "writes")
            self._bump("channel_tables", "elements_written", fresh)
        return ChannelTableHandle(
            root=str(self.root), key=key, ids_file=ids_file, channels_file=channels_file
        )
