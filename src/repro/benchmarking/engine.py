"""Batched execution engine for randomized benchmarking.

The circuit path executes every RB sequence by transpiling the full circuit
and composing a gate channel per instruction — ``O(total gates)`` Python
work per sequence even though the whole workload reduces to ~24 distinct
Clifford channels (one qubit) replayed thousands of times.

This engine instead:

1. builds, lazily and once per backend, the superoperator channel of every
   Clifford *group element* used by the workload (each element's native-gate
   word is transpiled and composed through the exact same
   :meth:`~repro.backend.backend.PulseBackend.circuit_channel` machinery as
   the circuit path, so the two paths agree to floating point),
2. composes each sequence as a short product of cached ``4^n × 4^n``
   superoperators (plus the interleaved gate's channel, when present),
3. samples measurement outcomes through the same
   :mod:`repro.backend.sampling` pipeline and per-sequence seeds as the
   circuit path,
4. optionally fans sequences out over a process pool via
   :func:`repro.utils.parallel.parallel_map` (``num_workers`` knob).

Tables are cached on the backend instance and invalidated together with the
backend's gate-channel cache when the device properties drift.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .clifford import CliffordElement, CliffordGroup
from ..backend.noise import readout_confusion_matrix
from ..backend.sampling import channel_output_probabilities, sample_measurement
from ..circuits.circuit import QuantumCircuit
from ..circuits.gate import Gate
from ..circuits.transpiler import transpile
from ..pulse.schedule import Schedule
from ..store import ChannelTableHandle, resolve_store
from ..utils.parallel import parallel_map
from ..utils.seeding import default_rng
from ..utils.validation import ValidationError

__all__ = [
    "CliffordChannelTable",
    "clifford_channel_table",
    "interleaved_gate_channel",
    "execute_sequences_with_channels",
    "used_element_indices",
]


def used_element_indices(sequences) -> set[int]:
    """Distinct group-element indices a sequence workload touches.

    Includes every sampled Clifford index and every recovery index — the
    exact set of channels the executor composes.  The session planner uses
    this to size one shared channel-table build covering the *union* of
    several experiments' workloads, so per-experiment flushes afterwards
    have nothing left to persist.

    Parameters
    ----------
    sequences : list of RBSequence
        Sequences with element indices (and, usually, recovery indices)
        populated.

    Returns
    -------
    set of int
        Group-element indices used by the workload.
    """
    used: set[int] = set()
    for sequence in sequences:
        used.update(int(i) for i in sequence.clifford_indices)
        if sequence.recovery_index is not None:
            used.add(int(sequence.recovery_index))
    return used


class CliffordChannelTable:
    """Lazy per-Clifford-element channel cache for one backend + qubit set.

    Every element channel is produced by transpiling the element's
    native-gate word into the backend basis and composing the backend's
    cached gate channels — i.e. by the identical code path the circuit
    executor walks, just once per element instead of once per occurrence.

    With a persistent ``store`` attached, previously materialized channels
    are served from a read-only memory map of the on-disk table (one
    kernel-page-cache copy shared by every process of a ``num_workers``
    fan-out), and freshly built channels are merged back via
    :meth:`flush` — warm sessions skip the per-element transpile entirely.

    Parameters
    ----------
    backend : PulseBackend
        The backend whose gate channels compose the element channels.
    physical_qubits : sequence of int
        Physical qubits the Clifford words act on (order fixes the
        local-to-physical mapping).
    group : CliffordGroup
        The Clifford group being tabulated.
    store : ArtifactStore, optional
        Persistent store; ``None`` keeps the table purely in-memory.
    """

    def __init__(self, backend, physical_qubits: Sequence[int], group: CliffordGroup, store=None):
        self.backend = backend
        self.physical_qubits = tuple(int(q) for q in physical_qubits)
        if len(self.physical_qubits) != group.n_qubits:
            raise ValidationError(
                f"expected {group.n_qubits} physical qubits, got {len(self.physical_qubits)}"
            )
        #: Qubit ordering the channels are expressed on (sorted, first qubit =
        #: most significant factor) — matches ``PulseBackend.circuit_channel``.
        self.active = sorted(self.physical_qubits)
        self.group = group
        self.store = store
        self.store_key: str | None = None
        self._channels: dict[int, np.ndarray] = {}
        #: Pending (built this session, not yet flushed) element indices.
        self._dirty: set[int] = set()
        #: Serializes *builders* (channel construction, flush): the session
        #: executes experiments on threads over one shared table, and an
        #: execution-time ``ensure`` must not race a concurrent prep
        #: extending the table.  The read path stays lock-free.
        self._build_lock = threading.RLock()
        #: Current on-disk generation as one ``(ids, channels)`` tuple.
        #: Held in a single attribute so a :meth:`flush` swapping in a new
        #: generation is atomic to concurrent readers (ids and channels can
        #: never be observed mismatched).
        self._stored_pair: tuple[np.ndarray, np.ndarray] | None = None
        if store is not None:
            self.store_key = store.channel_table_key(backend, self.physical_qubits, group)
            self._stored_pair = store.load_channel_table(self.store_key)

    def channel(self, element: CliffordElement) -> np.ndarray:
        """Superoperator channel of a Clifford element (cached)."""
        return self.channel_by_index(element.index)

    def _stored_channel(self, index: int) -> np.ndarray | None:
        """The persisted channel of an element, or None when not on disk."""
        pair = self._stored_pair
        if pair is None or len(pair[0]) == 0:
            return None
        ids, channels = pair
        pos = int(np.searchsorted(ids, index))
        if pos >= len(ids) or ids[pos] != index:
            return None
        return channels[pos]

    def channel_by_index(self, index: int) -> np.ndarray:
        """Channel of the element at a group index (mmap, cache, or build).

        The hit paths (memory map, in-memory dict) are lock-free; a miss
        takes the table's build lock, re-checks, and builds — so
        concurrent threads never construct (or record) an element twice.
        """
        stored = self._stored_channel(index)
        if stored is not None:
            return stored
        channel = self._channels.get(index)
        if channel is not None:
            return channel
        with self._build_lock:
            stored = self._stored_channel(index)  # a racing flush published it
            if stored is not None:
                return stored
            channel = self._channels.get(index)
            if channel is not None:
                return channel
            element = self.group.element(index)
            circuit = QuantumCircuit(
                max(self.physical_qubits) + 1, 0, name=f"clifford_{index}"
            )
            self.group.append_to_circuit(circuit, element, self.physical_qubits)
            transpiled = transpile(
                circuit,
                basis_gates=self.backend.properties.basis_gates,
                coupling=self.backend.properties.coupling,
            )
            channel, _ = self.backend.circuit_channel(
                transpiled, qubits=self.active, transpiled=True
            )
            self._channels[index] = channel
            self._dirty.add(index)
            return channel

    def materialize(self, indices) -> dict[int, np.ndarray]:
        """Channels for a set of element indices as a plain (picklable) dict."""
        return {int(i): np.asarray(self.channel_by_index(int(i))) for i in set(indices)}

    def ensure(self, indices) -> None:
        """Build (and, with a store, persist) the channels of ``indices``.

        Thread-safe: the build-and-flush runs under the table's build
        lock, so concurrent ``ensure`` calls (session prep extending the
        table while another spec executes) serialize instead of racing.
        """
        with self._build_lock:
            for index in set(int(i) for i in indices):
                self.channel_by_index(index)
            self.flush()

    def flush(self) -> None:
        """Merge channels built this session into the persistent store.

        No-op without a store or without fresh channels.  After a flush the
        table re-opens the merged on-disk generation, so subsequent reads —
        and worker processes via :meth:`handle` — see one consistent memory
        map.

        The post-flush state swap is ordered for concurrent readers (the
        session executes experiments on threads): the merged generation is
        published to :attr:`_stored_pair` *before* the in-memory dict is
        replaced, and both are whole-attribute assignments — a reader
        always finds a channel in at least one of the two places, and
        never sees a mismatched (ids, channels) pair.  Writers
        (``ensure``/``flush``/lazy builds) serialize on the table's own
        build lock.
        """
        with self._build_lock:
            if self.store is None or not self._dirty:
                return
            fresh = {index: self._channels[index] for index in self._dirty}
            self.store.save_channel_table(
                self.store_key,
                fresh,
                metadata={
                    "backend": self.backend.name,
                    "physical_qubits": list(self.physical_qubits),
                    "n_qubits": self.group.n_qubits,
                },
            )
            loaded = self.store.load_channel_table(self.store_key)
            if loaded is not None:
                self._stored_pair = loaded
                self._channels = {}
            self._dirty = set()

    def handle(self) -> ChannelTableHandle | None:
        """Picklable handle to the current on-disk generation (or None)."""
        if self.store is None:
            return None
        return self.store.handle(self.store_key)

    def __len__(self) -> int:
        """Number of channels reachable without building (memory + disk)."""
        pair = self._stored_pair
        stored = 0 if pair is None else len(pair[0])
        return len(self._channels) + stored


def clifford_channel_table(
    backend, physical_qubits: Sequence[int], group: CliffordGroup, store=None
) -> CliffordChannelTable:
    """The backend's (cached) Clifford channel table for a qubit set.

    Tables live on the backend instance and are dropped by
    ``PulseBackend.clear_channel_cache`` / the properties-drift freshness
    check, so a drifted calibration snapshot never serves stale channels.
    On disk the same guarantee holds by construction: the store key digests
    the properties fingerprint, so a drifted snapshot addresses a different
    table.

    Parameters
    ----------
    backend : PulseBackend
        The backend to tabulate.
    physical_qubits : sequence of int
        Physical qubits of the Clifford words.
    group : CliffordGroup
        Group being tabulated.
    store : optional
        Store selector (``"auto"``, path, store instance, ``False`` or
        ``None``).  ``None`` inherits the backend's ``channel_store``;
        ``False`` forces a purely in-memory table.

    Returns
    -------
    CliffordChannelTable
        The cached (per backend instance, per qubit set, per store) table.
    """
    backend._check_cache_freshness()
    if store is None:
        store = getattr(backend, "channel_store", None)
    store = resolve_store(store)
    key = (
        tuple(int(q) for q in physical_qubits),
        group.n_qubits,
        None if store is None else str(store.root),
    )
    table = backend._clifford_channel_tables.get(key)
    if table is None:
        table = CliffordChannelTable(backend, physical_qubits, group, store=store)
        backend._clifford_channel_tables[key] = table
    return table


def interleaved_gate_channel(
    backend,
    gate: Gate,
    physical_qubits: Sequence[int],
    calibration: Schedule | None = None,
) -> np.ndarray:
    """Channel of the interleaved gate exactly as the circuit path sees it.

    The gate is placed in a one-gate circuit (with the custom calibration
    attached, when given), transpiled, and composed through
    ``circuit_channel`` — reproducing transpiler pass-through of calibrated
    gates, virtual-Z handling and default-gate incoherent error.
    """
    qubits = tuple(int(q) for q in physical_qubits)
    circuit = QuantumCircuit(max(qubits) + 1, 0, name=f"interleaved_{gate.name}")
    circuit.append(gate, qubits)
    if calibration is not None:
        circuit.add_calibration(gate.name, qubits, calibration)
    transpiled = transpile(
        circuit,
        basis_gates=backend.properties.basis_gates,
        coupling=backend.properties.coupling,
    )
    channel, _ = backend.circuit_channel(transpiled, qubits=sorted(qubits), transpiled=True)
    return channel


# --------------------------------------------------------------------------- #
# sequence execution
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _SequenceJob:
    """Per-sequence work item (picklable)."""

    indices: tuple[int, ...]
    recovery_index: int
    interleaved: bool
    sample_seed: int
    name: str


@dataclass(frozen=True)
class _EngineContext:
    """Shared, picklable execution context for the sequence workers.

    Exactly one of ``channels`` (a plain per-index dict, pickled to every
    worker) and ``handle`` (a :class:`ChannelTableHandle` the workers
    memory-map locally, sharing the kernel page cache) is set.
    """

    channels: dict[int, np.ndarray] | None
    handle: ChannelTableHandle | None
    interleaved_channel: np.ndarray | None
    active: tuple[int, ...]
    measured: tuple[tuple[int, int], ...]
    confusion: np.ndarray
    shots: int
    backend_name: str

    def channel(self, index: int) -> np.ndarray:
        """Channel of one Clifford element from the dict or the memory map."""
        if self.channels is not None:
            return self.channels[index]
        return self.handle.channel(index)


def _run_sequence_job(context: _EngineContext, job: _SequenceJob) -> float:
    """Compose one sequence's channel, sample it, return the survival."""
    recovery = context.channel(job.recovery_index)
    total = np.eye(recovery.shape[0], dtype=complex)
    inter = context.interleaved_channel if job.interleaved else None
    for idx in job.indices:
        total = context.channel(idx) @ total
        if inter is not None:
            total = inter @ total
    total = recovery @ total
    probs = channel_output_probabilities(total, len(context.active))
    result = sample_measurement(
        probs,
        list(context.active),
        list(context.measured),
        context.confusion,
        default_rng(job.sample_seed),
        context.shots,
        job.name,
        context.backend_name,
    )
    return result.ground_state_population()


def execute_sequences_with_channels(
    backend,
    sequences,
    physical_qubits: Sequence[int],
    shots: int,
    group: CliffordGroup,
    interleaved_gate: Gate | None = None,
    interleaved_calibration: Schedule | None = None,
    seed=None,
    num_workers: int = 1,
    store=None,
) -> list[float]:
    """Execute RB sequences by composing cached channels; returns survivals.

    Per-sequence sampling seeds are drawn from ``seed`` in sequence order —
    the same draws, in the same order, as the circuit-based executor — so
    the two engines produce identical survival statistics (up to float
    tolerance of the composed channels).

    Parameters
    ----------
    backend : PulseBackend
        Backend whose cached gate channels back the Clifford table.
    sequences : list of RBSequence
        Sequences with element indices and recovery indices populated.
    physical_qubits : sequence of int
        Benchmarked physical qubits.
    shots : int
        Shots per sequence.
    group : CliffordGroup
        The Clifford group of the sequences.
    interleaved_gate : Gate, optional
        Gate inserted after every Clifford of interleaved sequences.
    interleaved_calibration : Schedule, optional
        Custom calibration of the interleaved gate.
    seed : optional
        Seed of the per-sequence sampling-seed stream.
    num_workers : int
        Process fan-out (see :func:`repro.utils.parallel.parallel_map`).
    store : optional
        Persistent channel-store selector (``"auto"``, path, store
        instance, ``False`` or ``None`` = inherit the backend's default).
        With a store, used channels are persisted before dispatch and the
        workers memory-map them instead of receiving pickled copies.

    Returns
    -------
    list of float
        Ground-state survival of every sequence, in input order.
    """
    physical_qubits = [int(q) for q in physical_qubits]
    table = clifford_channel_table(backend, physical_qubits, group, store=store)
    needs_interleaved = any(seq.interleaved for seq in sequences)
    inter_channel = None
    if needs_interleaved:
        if interleaved_gate is None:
            raise ValidationError(
                "interleaved sequences require the interleaved gate to be passed explicitly"
            )
        inter_channel = interleaved_gate_channel(
            backend, interleaved_gate, physical_qubits, calibration=interleaved_calibration
        )
    rng = default_rng(seed)
    jobs = []
    used_indices: set[int] = set()
    for seq in sequences:
        if seq.recovery_index is None:
            raise ValidationError(
                "sequence is missing its recovery index; regenerate it with rb_sequences()"
            )
        # one seed per sequence, drawn in sequence order (matches the loop path)
        sample_seed = int(rng.integers(2**31 - 1))
        used_indices.update(seq.clifford_indices)
        used_indices.add(seq.recovery_index)
        jobs.append(
            _SequenceJob(
                indices=tuple(seq.clifford_indices),
                recovery_index=int(seq.recovery_index),
                interleaved=bool(seq.interleaved),
                sample_seed=sample_seed,
                name=f"{'irb' if seq.interleaved else 'rb'}_m{seq.length}_s{seq.seed_index}",
            )
        )
    if table.store is not None:
        table.ensure(used_indices)
        handle = table.handle()
        if handle is not None:
            # A concurrent cold-start on the same key may have won the
            # manifest race with a generation missing some of our elements
            # (merges are last-writer-wins); only ship the handle when it
            # covers the workload, else fall back to pickled channels.
            ids, _ = handle.table()
            if not np.isin(np.fromiter(used_indices, dtype=np.int64), ids).all():
                handle = None
        channels = None if handle is not None else table.materialize(used_indices)
    else:
        handle = None
        channels = table.materialize(used_indices)
    context = _EngineContext(
        channels=channels,
        handle=handle,
        interleaved_channel=inter_channel,
        active=tuple(table.active),
        measured=tuple((int(q), clbit) for clbit, q in enumerate(physical_qubits)),
        confusion=readout_confusion_matrix(
            [backend.properties.qubit(q) for q in physical_qubits]
        ),
        shots=int(shots),
        backend_name=backend.name,
    )
    return parallel_map(partial(_run_sequence_job, context), jobs, num_workers=num_workers)
