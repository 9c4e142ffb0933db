"""The :class:`Session`: the declarative experiment submission surface.

A session owns the live resources every experiment needs — the per-device
:class:`~repro.backend.backend.PulseBackend` instances, the persistent
Clifford channel store, and the process-pool fan-out — and executes
:mod:`specs <repro.session.specs>` against them:

.. code-block:: python

    from repro.session import Session, IRBSpec, GRAPESpec

    pulse = GRAPESpec(device="montreal", gate="x", duration_ns=105.0,
                      n_ts=12, include_decoherence=True, seed=2022)
    custom = IRBSpec(device="montreal", gate="x", qubits=(0,),
                     lengths=(1, 16, 48), n_seeds=4, shots=400,
                     seed=2022, calibration=pulse)
    default = IRBSpec(device="montreal", gate="x", qubits=(0,),
                      lengths=(1, 16, 48), n_seeds=4, shots=400, seed=2022)

    with Session(store="auto", num_workers=0) as session:
        custom_result, default_result = session.run_all([custom, default])

``run_all`` plans the batch first (see :mod:`repro.session.planner`; each
spec lists its own preparation and executes itself, see
:mod:`repro.session.specs`): shared preparation — the Clifford group, the
device backend, the GRAPE pulse nested by ``custom``, and the
per-Clifford channel table both IRB curves replay — is built exactly
once, then execution fans out.  ``submit(spec)`` returns a
:class:`~concurrent.futures.Future` immediately; concurrent submits of
overlapping specs coordinate through per-artifact locks, so a shared
channel table is still built (and persisted) exactly once — observable
through the store's write counters.

With a persistent store attached the session additionally consults the
**result cache** (the store's ``results`` namespace, keyed by spec
cache-fingerprint × backend-properties fingerprint): re-submitting an
identical spec returns the stored :class:`ExperimentResult` — marked
``provenance["cache_hit"] = True`` — without building a single prep
artifact or executing anything, sweeps resolve at per-point granularity
(a partially cached grid runs only its missing points), and GRAPE prep
steps persist their optimized pulses to the ``pulses`` namespace so warm
sessions skip pulse optimization entirely.  ``Session(result_cache=False)``
or ``REPRO_RESULT_CACHE=0`` force a fully cold run (see
``docs/caching.md``).

Results are bit-identical to running the standalone experiment classes
directly: the session changes *when* shared artifacts are built (or
whether a cached bit-identical payload is replayed), never *what* is
computed (all randomness flows from per-spec seeds).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Iterable, Sequence

from .planner import SessionPlan, plan_specs
from .results import ExperimentResult
from .specs import ExperimentSpec, GRAPESpec, OptimizerSpec
from ..obs import ShadowSampler, Trace, resolve_trace_sink
from ..utils.validation import ValidationError

__all__ = ["Session"]


class Session:
    """Owns backends, store and pool; executes specs with shared planning.

    Parameters
    ----------
    backend : PulseBackend or dict, optional
        A pre-built backend to adopt (matched to specs by its properties
        fingerprint), or a mapping of canonical device name →
        ``PulseBackend``.  Backends for other devices are created on
        demand with ``calibrated_qubits=[0, 1]`` (the paper's layout).
    store : optional
        Persistent Clifford-store selector: ``"auto"`` (default cache
        directory), a path, an :class:`~repro.store.ArtifactStore`, or
        ``None`` / ``False`` for no persistence.
    num_workers : int
        Default process fan-out for spec execution: ``0`` = all available
        CPUs, ``1`` = serial (specs may override via their own
        ``num_workers`` field).
    max_concurrency : int, optional
        Maximum number of specs executing concurrently (thread fan-out on
        top of the process pool).  Defaults to ``max(4, os.cpu_count())``
        so wide machines fan out wider while small ones keep the floor of
        4 that overlaps I/O-ish stages (store reads, schedule lowering)
        with compute.
    seed : optional
        Seed of backends created by the session (feeds only their
        fallback sampling RNG; every experiment draws from its spec seed,
        so results do not depend on this).
    result_cache : bool, optional
        Whether to reuse cached results (and persisted GRAPE pulses) from
        the store's ``results``/``pulses`` namespaces.  Defaults to on
        whenever a store is attached; pass ``False`` — or set
        ``REPRO_RESULT_CACHE=0``, which always wins — to force a cold,
        bit-identity-baseline run.  Cold runs still *publish* their
        results, so the next cached session finds them.
    shadow_rate : float, optional
        Fraction of result-cache hits to *shadow-verify*: re-execute on
        the live engine and compare payload fingerprints bit-for-bit
        (see :mod:`repro.obs.shadow`).  Matches are counted
        (``shadow_checks``) and marked ``provenance["shadow_verified"]``;
        a mismatch quarantines the cached entry, republishes the fresh
        result and counts a ``shadow_mismatches``.  Defaults to 0 (off);
        ``$REPRO_SHADOW_RATE`` always wins.
    trace_sink : optional
        Where to emit per-job traces as JSON lines: ``None`` (default)
        defers to ``$REPRO_TRACE_FILE``, ``False`` disables emission, a
        path or :class:`~repro.obs.trace.TraceSink` selects a file.
        Independent of the sink, every root job's finished trace is
        attached to ``result.provenance["trace"]``.
    shadow_seed : int, optional
        Seed of the shadow sampling RNG (deterministic sampling for
        tests; never influences experiment payloads).
    """

    def __init__(
        self,
        backend=None,
        store="auto",
        num_workers: int = 0,
        max_concurrency: int | None = None,
        seed=None,
        result_cache: bool | None = None,
        shadow_rate: float | None = None,
        trace_sink=None,
        shadow_seed: int | None = None,
    ):
        from ..store import resolve_store, result_cache_enabled

        self.store = resolve_store(store)
        self.result_cache = self.store is not None and result_cache_enabled(result_cache)
        self.shadow = ShadowSampler(shadow_rate, seed=shadow_seed)
        self.trace_sink = resolve_trace_sink(trace_sink)
        self._trace_local = threading.local()
        self.num_workers = int(num_workers)
        self.seed = seed
        self._backends: dict[str, object] = {}
        self._adopted = []
        if backend is not None:
            if isinstance(backend, dict):
                from ..devices.library import canonical_device_name

                for name, instance in backend.items():
                    self._backends[canonical_device_name(name)] = instance
            else:
                self._adopted.append(backend)
        self._artifacts: dict[tuple, object] = {}
        self._artifact_locks: dict[tuple, threading.Lock] = {}
        self._registry_lock = threading.Lock()
        if max_concurrency is None:
            # floor of 4 (never shrink below the historical default), scale
            # up with the machine so wide hosts fan wider by default
            max_concurrency = max(4, os.cpu_count() or 1)
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, int(max_concurrency)),
            thread_name_prefix="repro-session",
        )
        self._closed = False
        #: Wall-clock seconds spent building each prep key (observability).
        self.prep_timings: dict[tuple, float] = {}
        #: Per-session counters: ``cache_hits`` / ``cache_misses`` (result
        #: cache consultations), ``executions`` (specs actually executed)
        #: and ``prep_builds`` (artifacts built through the registry) —
        #: together with the store's namespace counters these prove that a
        #: warm replay performs zero prep builds and zero executions, and
        #: that concurrent duplicate submissions execute exactly once
        #: (``dedup_waits``, counted lazily, appears when a submission
        #: waited on another session's in-flight execution of its key).
        #: Shadow verification counts lazily too: ``shadow_checks`` (hits
        #: re-executed and compared) and ``shadow_mismatches`` (cached
        #: entries that failed bit-identity and were quarantined).
        self.stats: dict[str, int] = {
            "cache_hits": 0, "cache_misses": 0, "executions": 0, "prep_builds": 0,
        }
        self._stats_lock = threading.Lock()
        #: Memoized properties fingerprints per canonical device name.
        self._props_fps: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the session's thread executor (idempotent).

        The shared process pool of :mod:`repro.utils.parallel` is left
        running (it is module-level and reused across sessions); call
        :func:`repro.utils.parallel.shutdown_pool` to reclaim it.
        """
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        store = getattr(self.store, "root", None)
        return (
            f"Session(devices={sorted(self._backends) or '∅'}, "
            f"store={str(store) if store else None}, num_workers={self.num_workers})"
        )

    # ------------------------------------------------------------------ #
    # resources
    # ------------------------------------------------------------------ #
    def backend_for(self, device: str):
        """The session's (shared, lazily created) backend of a device."""
        from ..devices.library import canonical_device_name

        device = canonical_device_name(device)
        return self._artifact(("backend", device), lambda: self._build_backend(device))

    def schedule_for(self, spec: GRAPESpec):
        """The optimized pulse schedule of a GRAPE spec (prepared once)."""
        return self._grape_artifact(spec)[1]

    def optimization_for(self, spec: GRAPESpec):
        """The raw :class:`OptimResult` of a GRAPE spec (prepared once)."""
        return self._grape_artifact(spec)[0]

    def _bump_stat(self, counter: str, n: int = 1) -> None:
        """Increment one session counter (thread-safe)."""
        with self._stats_lock:
            self.stats[counter] = self.stats.get(counter, 0) + n

    def stats_snapshot(self) -> dict[str, int]:
        """A consistent point-in-time copy of :attr:`stats`.

        Taken under the counter lock, so a reader aggregating across
        concurrently executing jobs (the service's ``/v1/metrics``
        scrape) never observes a torn dictionary.
        """
        with self._stats_lock:
            return dict(self.stats)

    def _store_counters(self) -> dict[str, dict[str, int]]:
        """Snapshot of the store's namespace counters ({} without a store)."""
        return self.store.stats if self.store is not None else {}

    def properties_fingerprint_for(self, device: str) -> str:
        """Properties fingerprint a spec on ``device`` will run against.

        Resolved without building a backend: an already-registered (or
        adopted) backend's snapshot wins, otherwise the library device's
        static calibration data is fingerprinted directly — this is the
        second half of the result-cache key, so cache lookups stay free of
        preparation work.

        A registered backend's fingerprint is re-read on **every** call
        (never memoized): the drift study swaps ``backend.properties`` in
        place, and the cache key must follow the live snapshot — exactly
        as ``PulseBackend._check_cache_freshness`` does for the in-memory
        caches.  Only the immutable library-device fingerprint is
        memoized.
        """
        from ..devices.library import canonical_device_name, get_device

        device = canonical_device_name(device)
        registered = self._backends.get(device)
        if registered is not None:
            return registered.properties.fingerprint()
        fp = self._props_fps.get(device)
        if fp is None:
            fp = get_device(device).fingerprint()
            self._props_fps[device] = fp
        return fp

    # ------------------------------------------------------------------ #
    # submission API
    # ------------------------------------------------------------------ #
    def submit(self, spec: ExperimentSpec) -> "Future[ExperimentResult]":
        """Submit one spec for execution; returns a future immediately.

        Shared preparation is coordinated through per-artifact locks, so
        concurrently submitted overlapping specs build each shared
        artifact (group, backend, GRAPE pulse, channel table) exactly
        once — the rest block until it is ready, then execute.
        """
        if self._closed:
            raise ValidationError("session is closed")
        if not isinstance(spec, ExperimentSpec):
            raise ValidationError(f"submit expects an ExperimentSpec, got {type(spec).__name__}")
        return self._executor.submit(self._run_spec, spec)

    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        """Execute one spec synchronously (``submit(...).result()``)."""
        return self.submit(spec).result()

    def run_all(self, specs: Iterable[ExperimentSpec]) -> list[ExperimentResult]:
        """Plan a batch jointly, build shared prep once, then fan out.

        Equivalent to submitting every spec and gathering the results —
        but the preparation phase is planned over the *whole batch* up
        front (see :meth:`plan`), so e.g. three IRB specs on the same
        qubits trigger one channel-table build covering the union of
        their sequences before any experiment starts.
        """
        specs = list(specs)
        plan = self.plan(specs)
        self._build_plan(plan)
        futures = [self.submit(spec) for spec in specs]
        return [future.result() for future in futures]

    def plan(self, specs: Sequence[ExperimentSpec]) -> SessionPlan:
        """The deduplicated preparation plan of a batch (builds nothing).

        With the result cache enabled the plan is cache-aware: specs whose
        result is already stored are marked
        :attr:`~repro.session.planner.SessionPlan.cached` and the prep
        steps only they would have needed are dropped (see
        :func:`~repro.session.planner.plan_specs`).
        """
        return plan_specs(
            specs,
            store=self.store if self.result_cache else None,
            properties_fingerprint=self.properties_fingerprint_for,
        )

    # ------------------------------------------------------------------ #
    # preparation
    # ------------------------------------------------------------------ #
    def _build_plan(self, plan: SessionPlan) -> None:
        """Build every plan step exactly once, in dependency order.

        The ``table`` steps cover the **union** of element indices used by
        every consumer spec, so per-experiment flushes afterwards find
        nothing new to persist (the store counters observe one write).
        """
        for step in plan.steps:
            consumers = [plan.specs[i] for i in plan.consumers.get(step.key, [])]
            self._build_step(step, consumers)

    def _build_step(self, step, consumers: Sequence[ExperimentSpec]):
        """Build one plan step through the exactly-once artifact registry."""
        if step.kind == "group":
            return self._group_artifact(step.key[1])
        if step.kind == "backend":
            return self.backend_for(step.key[1])
        if step.kind == "grape":
            return self._grape_artifact(step.payload)
        if step.kind == "grape_batch":
            return self._grape_batch_artifact(step.payload)
        if step.kind == "table":
            return self._table_artifact(step.key, consumers)
        raise ValidationError(f"unknown preparation kind {step.kind!r}")

    def _table_artifact(self, key: tuple, consumers: Sequence[ExperimentSpec]):
        """The channel table of one (device, qubits), covering ``consumers``.

        Creation is exactly-once through the artifact registry; *coverage*
        is then extended for these consumers under the same per-key lock.
        Every consumer's elements are therefore built (and, with a store,
        flushed) before its experiment executes — so the execution-time
        ``table.ensure`` inside the engine finds everything present and
        performs no concurrent mutation, and each element is built exactly
        once no matter how submits interleave.
        """
        table = self._artifact(key, lambda: self._build_table(key[1], key[2]))
        if not consumers:
            return table
        with self._registry_lock:
            lock = self._artifact_locks[key]  # created by _artifact above
        with lock:
            used = self._used_indices(consumers)
            if used:
                start = time.perf_counter()
                table.ensure(used)
                self.prep_timings[key] = self.prep_timings.get(key, 0.0) + (
                    time.perf_counter() - start
                )
        return table

    def _artifact(self, key: tuple, builder):
        """The artifact of one prep key, built exactly once under a lock.

        A double-checked per-key :class:`threading.Lock` makes concurrent
        ``submit()`` calls that need the same artifact coordinate: the
        first builds, the rest block until it is registered, nobody builds
        twice.  Build wall-clocks are recorded in :attr:`prep_timings`.
        """
        artifact = self._artifacts.get(key)
        if artifact is not None:
            return artifact
        with self._registry_lock:
            lock = self._artifact_locks.setdefault(key, threading.Lock())
        with lock:
            artifact = self._artifacts.get(key)
            if artifact is None:
                start = time.perf_counter()
                artifact = builder()
                self.prep_timings[key] = self.prep_timings.get(key, 0.0) + (
                    time.perf_counter() - start
                )
                self._artifacts[key] = artifact
                self._bump_stat("prep_builds")
        return artifact

    def _group_artifact(self, n_qubits: int):
        """The (store-backed) Clifford group, built/loaded exactly once."""

        def build():
            from ..benchmarking.clifford import clifford_group

            return clifford_group(n_qubits, store=self.store)

        return self._artifact(("group", int(n_qubits)), build)

    def _grape_artifact(self, spec):
        """(OptimResult, Schedule) of a pulse spec, built exactly once.

        Accepts a :class:`GRAPESpec` or an :class:`OptimizerSpec`; the
        spec is normalized through ``canonical_pulse_spec()`` first, so
        ``OptimizerSpec(method="lbfgs")`` and the equivalent legacy
        ``GRAPESpec`` resolve to the **same** artifact key and pulse-cache
        entry (the thin-alias contract).

        With a store attached, the optimization outcome is persisted to
        the ``pulses`` namespace keyed by the spec fingerprint × the
        calibration snapshot's properties fingerprint — a warm session
        (result cache enabled) loads the stored amplitudes and skips the
        optimizer entirely, then re-derives the schedule bit-identically
        (``pulse_schedule_from_result`` is a pure function of the stored
        amplitudes).  Cold builds always publish, so even a
        ``result_cache=False`` baseline run warms the pulse store for
        subsequent sessions.
        """
        if not isinstance(spec, (GRAPESpec, OptimizerSpec)):
            raise ValidationError("pulse preparation expects a GRAPESpec or OptimizerSpec")
        spec = spec.canonical_pulse_spec()

        def build():
            from ..devices.library import canonical_device_name
            from ..experiments.gates import optimize_gate_pulse, pulse_schedule_from_result

            backend = self.backend_for(spec.device)
            config = spec.gate_config()
            optimization = None
            pulse_key = None
            if self.store is not None:
                pulse_key = self.store.pulse_key(
                    spec.cache_fingerprint(), self.properties_fingerprint_for(spec.device)
                )
                if self.result_cache:
                    optimization = self.store.load_pulse(pulse_key)
            if optimization is None:
                optimization = optimize_gate_pulse(
                    backend.properties, config, method_options=spec.method_options() or None
                )
                if pulse_key is not None:
                    self.store.save_pulse(
                        pulse_key,
                        optimization,
                        metadata={"device": canonical_device_name(spec.device), "gate": spec.gate},
                    )
            schedule = pulse_schedule_from_result(backend.properties, config, optimization)
            return optimization, schedule

        return self._artifact(("grape", spec.fingerprint()), build)

    def _grape_batch_artifact(self, specs: Sequence[GRAPESpec]):
        """Build a batchable GRAPE group, stacking the cold points.

        Warm points — already in the artifact registry, or loadable from
        the store's ``pulses`` namespace — resolve through the ordinary
        per-point :meth:`_grape_artifact` path (no optimizer runs).  The
        remaining cold points are optimized in **one** cross-point stacked
        pass (:func:`~repro.experiments.gates.optimize_gate_pulse_batch`,
        bit-identical to per-point runs), then each result is persisted
        under its unchanged per-point pulse key and registered under its
        per-point ``("grape", fingerprint)`` artifact key — so provenance,
        cache entries and every later lookup are indistinguishable from
        the fan-out path.
        """
        from ..devices.library import canonical_device_name
        from ..experiments.gates import optimize_gate_pulse_batch, pulse_schedule_from_result

        cold: list[GRAPESpec] = []
        for spec in specs:
            if self._artifacts.get(("grape", spec.fingerprint())) is not None:
                continue
            if self.store is not None and self.result_cache:
                pulse_key = self.store.pulse_key(
                    spec.cache_fingerprint(), self.properties_fingerprint_for(spec.device)
                )
                if self.store.load_pulse(pulse_key) is not None:
                    # warm point: the solo path loads it, no optimizer runs
                    self._grape_artifact(spec)
                    continue
            cold.append(spec)
        if len(cold) >= 2:
            backend = self.backend_for(cold[0].device)
            configs = [spec.gate_config() for spec in cold]
            start = time.perf_counter()
            optimizations = optimize_gate_pulse_batch(backend.properties, configs)
            batch_key = ("grape_batch", tuple(sorted(s.fingerprint() for s in cold)))
            self.prep_timings[batch_key] = self.prep_timings.get(batch_key, 0.0) + (
                time.perf_counter() - start
            )
            for spec, config, optimization in zip(cold, configs, optimizations):
                if self.store is not None:
                    pulse_key = self.store.pulse_key(
                        spec.cache_fingerprint(), self.properties_fingerprint_for(spec.device)
                    )
                    self.store.save_pulse(
                        pulse_key,
                        optimization,
                        metadata={"device": canonical_device_name(spec.device), "gate": spec.gate},
                    )
                schedule = pulse_schedule_from_result(backend.properties, config, optimization)
                self._artifact(
                    ("grape", spec.fingerprint()),
                    lambda pair=(optimization, schedule): pair,
                )
        # a single cold point (or none) just runs the solo path below
        return [self._grape_artifact(spec) for spec in specs]

    def _build_backend(self, device: str):
        from ..backend.backend import PulseBackend
        from ..devices.library import get_device

        existing = self._backends.get(device)
        if existing is not None:
            return existing
        properties = get_device(device)
        for adopted in self._adopted:
            if adopted.properties.fingerprint() == properties.fingerprint():
                self._backends[device] = adopted
                return adopted
        backend = PulseBackend.from_device(
            device,
            calibrated_qubits=[0, 1],
            seed=self.seed,
            channel_store=self.store,
        )
        self._backends[device] = backend
        return backend

    def _build_table(self, device: str, qubits: tuple[int, ...]):
        """Create (or fetch) the backend's channel table for a qubit set.

        Coverage — actually building element channels — happens in
        :meth:`_table_artifact` under the table's per-key lock.
        """
        from ..benchmarking.engine import clifford_channel_table

        backend = self.backend_for(device)
        group = self._group_artifact(len(qubits))
        return clifford_channel_table(
            backend, list(qubits), group, store=self.store if self.store is not None else False
        )

    def _used_indices(self, consumers) -> set[int]:
        """Union of group-element indices the consumers' sequences touch.

        Regenerates each consumer's sequences (``spec.sequences(store)``:
        deterministic in its seed, and cheap — tableau-composed indices, no
        circuits) with the session's store attached, so the group
        enumeration resolves through the same persistence path as every
        other preparation.  Every protocol that replays the channel table
        contributes here, so a shared table build covers the union of all
        protocol workloads.
        """
        from ..benchmarking.engine import used_element_indices

        used: set[int] = set()
        for spec in consumers:
            used |= used_element_indices(spec.sequences(self.store))
        return used

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _cached_result(self, spec: ExperimentSpec) -> ExperimentResult | None:
        """Serve one concrete spec from the result cache, if possible.

        A hit returns the stored result — payload bit-identical to the
        cold run that produced it — with ``provenance["cache_hit"]`` set;
        no prep artifact is built and nothing executes.  Misses (including
        corrupt or truncated entries, which the store counts and treats as
        absent) return ``None`` and the caller falls through to the cold
        path, whose publication repairs the entry.
        """
        if not self.result_cache:
            return None
        result = self.store.load_result(
            spec.cache_fingerprint(), self.properties_fingerprint_for(spec.device)
        )
        if result is None:
            self._bump_stat("cache_misses")
            return None
        result.provenance = {**result.provenance, "cache_hit": True}
        self._bump_stat("cache_hits")
        return result

    def _publish_result(self, spec: ExperimentSpec, result: ExperimentResult) -> None:
        """Publish a freshly computed result to the store (exactly once)."""
        if self.store is None or spec.is_container:
            return
        self.store.save_result(
            result,
            cache_fingerprint=spec.cache_fingerprint(),
            properties_fingerprint=result.provenance["properties_fingerprint"],
        )

    #: Seconds between polls of the ``results`` namespace while another
    #: session executes the same key (the in-flight wait loop).
    _INFLIGHT_POLL = 0.1

    def _run_spec(self, spec: ExperimentSpec) -> ExperimentResult:
        """Serve one spec, wrapped in its (root-job-only) trace.

        Every *root* job — a direct ``submit``/``run`` — carries one
        :class:`~repro.obs.trace.Trace` recording the spans of its
        phases and the store-counter deltas it caused.  Sweep children
        recurse through this method on the same thread and record their
        spans into the root sweep's trace instead of opening one each:
        child provenance is embedded in the sweep *payload*, so a
        per-child trace would break the payload's determinism.

        The finished trace is attached to the returned result's
        ``provenance["trace"]`` **after** any cache publication — the
        stored document never contains a trace, keeping cached payload +
        provenance bit-identical across serving paths — and emitted to
        the configured :attr:`trace_sink` as one JSON line.
        """
        if getattr(self._trace_local, "trace", None) is not None:
            return self._run_spec_inner(spec)  # sweep child: reuse root trace
        trace = Trace(spec.kind, spec_fingerprint=spec.fingerprint())
        self._trace_local.trace = trace
        before = self._store_counters()
        try:
            result = self._run_spec_inner(spec)
        except Exception as exc:
            trace.add("error", repr(exc))
            raise
        finally:
            self._trace_local.trace = None
            trace.add("store_counter_deltas", _counter_deltas(before, self._store_counters()))
            trace.finish()
            if self.trace_sink is not None:
                self.trace_sink.emit(trace)
        result.provenance = {**result.provenance, "trace": trace.to_dict()}
        return result

    @contextmanager
    def _span(self, name: str, **attributes):
        """Record a span on the current job's trace (no-op without one)."""
        trace = getattr(self._trace_local, "trace", None)
        if trace is None:
            yield dict(attributes)
        else:
            with trace.span(name, **attributes) as attrs:
                yield attrs

    def _run_spec_inner(self, spec: ExperimentSpec) -> ExperimentResult:
        """Serve one spec: cache hit, in-flight wait, or cold execution."""
        if spec.is_container:
            return self._run_container(spec)
        with self._span("cache_lookup", spec_fingerprint=spec.fingerprint()) as attrs:
            cached = self._cached_result(spec)
            attrs["hit"] = cached is not None
        if cached is not None:
            return self._maybe_shadow_verify(spec, cached)
        if self.result_cache:
            return self._run_spec_exactly_once(spec)
        return self._execute_spec(spec)

    def _maybe_shadow_verify(
        self, spec: ExperimentSpec, cached: ExperimentResult
    ) -> ExperimentResult:
        """Shadow-verify a sampled cache hit against a live re-execution.

        When the :class:`~repro.obs.shadow.ShadowSampler` selects this
        hit, the spec is re-executed on the live engine **without
        publishing** and the two payload fingerprints are compared:

        * **match** — the cached result is served as usual, marked
          ``provenance["shadow_verified"]`` (``shadow_checks`` counted);
        * **mismatch** — the cached entry is quarantined (moved aside on
          disk, counted by the store), the fresh result is published in
          its place and served, and the session counts a
          ``shadow_mismatches`` — the exact signal the CI shadow-canary
          job fails on.

        Only plain cache hits are sampled; hits resolved through the
        in-flight wait were *just* produced by a live execution and
        carry nothing to verify.
        """
        if not self.shadow.sample():
            return cached
        with self._span("shadow_verify") as attrs:
            self._bump_stat("shadow_checks")
            fresh = self._execute_spec(spec, publish=False)
            match = fresh.payload_fingerprint() == cached.payload_fingerprint()
            attrs["match"] = match
            if match:
                cached.provenance = {**cached.provenance, "shadow_verified": True}
                return cached
            self._bump_stat("shadow_mismatches")
            self.store.quarantine_result(
                spec.cache_fingerprint(), self.properties_fingerprint_for(spec.device)
            )
            self._publish_result(spec, fresh)
            fresh.provenance = {
                **fresh.provenance, "shadow_verified": True, "shadow_mismatch": True,
            }
            return fresh

    def _run_spec_exactly_once(self, spec: ExperimentSpec) -> ExperimentResult:
        """Cold execution under the cross-process lock-or-wait protocol.

        Closes the ROADMAP in-flight-deduplication gap: publication was
        always exactly-once (``save_result`` serializes on the entry's
        writer lock), but two *concurrently* cold sessions both executed.
        Here the execution itself coordinates on the key's
        :meth:`~repro.store.results.ResultMixin.inflight_lock`:

        * the first session acquires it non-blockingly and executes
          (publishing before release, as before);
        * racing sessions — other threads of this session, other
          processes, or the service daemon's workers — fail the
          non-blocking acquire, count a ``dedup_waits``, and poll the
          ``results`` namespace until the executor's publication lands,
          which they serve exactly like a cache hit (provenance marked
          ``cache_hit`` + ``inflight_wait``);
        * a waiter that instead observes the lock *free* again without a
          valid publication (the executor crashed, or opted out of
          publishing) takes the lock over, re-checks the cache under it,
          and becomes the executor — so a dead executor never wedges the
          key, it merely costs the wait.

        The protocol is gated on :attr:`result_cache`: with the cache
        disabled (``result_cache=False`` / ``REPRO_RESULT_CACHE=0``)
        every submission executes independently, preserving the forced
        cold-baseline semantics.
        """
        cache_fp = spec.cache_fingerprint()
        props_fp = self.properties_fingerprint_for(spec.device)
        lock = self.store.inflight_lock(cache_fp, props_fp)
        contended = False
        try:
            lock.acquire(timeout=0)
        except TimeoutError:
            contended = True
            self._bump_stat("dedup_waits")
            with self._span("inflight_wait") as attrs:
                while True:
                    if self.store.has_result(cache_fp, props_fp):
                        result = self.store.load_result(cache_fp, props_fp)
                        if result is not None:
                            result.provenance = {
                                **result.provenance, "cache_hit": True, "inflight_wait": True,
                            }
                            # the wait resolved into a cache hit: count it, so
                            # N duplicate submissions aggregate to 1 execution
                            # + N-1 cache_hits across sessions
                            self._bump_stat("cache_hits")
                            attrs["resolved"] = "publication"
                            return result
                    try:
                        lock.acquire(timeout=self._INFLIGHT_POLL)
                        attrs["resolved"] = "takeover"
                        break  # lock freed without a publication: take over
                    except TimeoutError:
                        continue
        try:
            # re-check under the lock: the previous holder — or a racer
            # that published between our cache miss and an *uncontended*
            # acquire (it released just before we tried) — may have landed
            # the result.  The counter-free full-document probe keeps the
            # common genuinely-cold (and corrupt-entry) paths' stats
            # untouched.
            if contended or self.store.has_valid_result(cache_fp, props_fp):
                cached = self._cached_result(spec)
                if cached is not None:
                    return cached
            return self._execute_spec(spec)
        finally:
            lock.release()

    def _execute_spec(self, spec: ExperimentSpec, publish: bool = True) -> ExperimentResult:
        """Prepare (exactly once, lock-guarded) and execute one spec.

        ``publish=False`` skips the result-cache publication — the
        shadow-verification re-run uses it so a *matching* check leaves
        the store byte-for-byte untouched (the mismatch path republishes
        explicitly after quarantining the bad entry).
        """
        prep_start = time.perf_counter()
        with self._span("plan") as attrs:
            steps = spec.prep_steps()
            attrs["n_steps"] = len(steps)
        with self._span("prep"):
            for step in steps:
                self._build_step(step, [spec])
        prepare_s = time.perf_counter() - prep_start

        execute_start = time.perf_counter()
        with self._span("execute", kind=spec.kind):
            payload, provenance_extra = spec.execute(self)
        execute_s = time.perf_counter() - execute_start
        for step in steps:
            if step.kind == "table":
                # the store key of the channel table the spec replayed
                provenance_extra = {
                    **provenance_extra, "store_key": self._artifacts[step.key].store_key,
                }

        self._bump_stat("executions")
        backend = self.backend_for(spec.device)
        provenance = {
            "spec_fingerprint": spec.fingerprint(),
            "properties_fingerprint": backend.properties.fingerprint(),
            "store_root": str(self.store.root) if self.store is not None else None,
            "timings": {"prepare_s": prepare_s, "execute_s": execute_s},
            **provenance_extra,
        }
        result = ExperimentResult(
            kind=spec.kind, spec=spec.to_dict(), payload=payload, provenance=provenance
        )
        if publish:
            self._publish_result(spec, result)
        return result

    def _run_container(self, spec: ExperimentSpec) -> ExperimentResult:
        """Execute a container spec: plan its children jointly, run each.

        Covers every ``is_container`` spec — parameter sweeps and drift
        studies alike.  The plan is cache-aware, so the container resolves
        at **per-child granularity**: children whose result is already
        cached are served from the store (payload bit-identical to the
        cold run) and excluded from preparation; only the missing children
        build prep and execute.  The aggregate result itself is
        reassembled from the children rather than cached — its provenance
        reports how many were warm (``cached_points``).  The payload opens
        with the container's :meth:`~repro.session.specs.ExperimentSpec.payload_header`
        (the sweep's grid, the drift study's day axis) followed by the
        per-child documents.
        """
        children = spec.expand()
        with self._span("plan") as attrs:
            plan = self.plan(children)
            attrs["n_steps"] = len(plan.steps)
            attrs["n_points"] = len(children)
        with self._span("prep"):
            self._build_plan(plan)
        results = [self._run_spec(child) for child in children]
        payload = {
            **spec.payload_header(),
            "children": [
                {"spec": r.spec, "payload": r.payload, "provenance": r.provenance}
                for r in results
            ],
        }
        provenance = {
            "spec_fingerprint": spec.fingerprint(),
            "n_points": len(children),
            "cached_points": sum(1 for r in results if r.cache_hit),
        }
        return ExperimentResult(
            kind=spec.kind, spec=spec.to_dict(), payload=payload, provenance=provenance
        )


def _counter_deltas(before: dict, after: dict) -> dict:
    """Non-zero per-namespace counter deltas between two store snapshots."""
    deltas: dict = {}
    for namespace, counters in after.items():
        base = before.get(namespace, {})
        changed = {
            key: value - base.get(key, 0)
            for key, value in counters.items()
            if value - base.get(key, 0)
        }
        if changed:
            deltas[namespace] = changed
    return deltas
