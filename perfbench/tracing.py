"""In-memory spans around the public entry points of each ``repro`` layer.

A :class:`Tracer` replaces selected public functions and methods with thin
wrappers that record one span per call: name, layer, start, end, parent
span (the caller's open span on the same thread), thread and run id.  The
program itself is not modified; spans are held in memory and written out
by the caller when the run ends.

Two reductions turn spans into per-layer numbers:

* :func:`union_length` — busy time of overlapping intervals (specs run
  concurrently, so summed durations overstate busy time);
* :func:`partition` — splits a wall-clock window among layers.  Each
  span contributes its *self* intervals (its duration minus what its
  children on the same thread cover); at any instant the active self
  intervals share that instant equally, and instants with none are
  unattributed.  Layer self times plus the unattributed time therefore
  add up to the window exactly.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager

#: Layer labels, one per group of ``repro`` modules.
LAYERS = ("clifford", "engine", "core", "rb", "session", "store", "service")


class Tracer:
    """Records spans in memory; installs and removes the layer wrappers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = True
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        # one epoch offset, so spans align with the program's time.time() stamps
        self._offset = time.time() - time.perf_counter()

    def now(self) -> float:
        """Epoch seconds at perf_counter resolution."""
        return self._offset + time.perf_counter()

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        """Record one span; yields its mutable attribute dict."""
        if not self.enabled:
            yield attrs
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        record = {
            "id": span_id, "name": name, "layer": layer, "run": self.run_id,
            "parent": stack[-1] if stack else None,
            "thread": threading.get_ident(), "start": self.now(), "end": None,
            "attrs": attrs,
        }
        stack.append(span_id)
        try:
            yield attrs
        finally:
            stack.pop()
            record["end"] = self.now()
            with self._lock:
                self.spans.append(record)

    def wrap(self, owner, attr: str, layer: str, describe=None) -> None:
        """Wrap ``owner.attr`` (a module function or a class method).

        ``describe(attrs, args, kwargs, result)`` may add attributes once
        the call returns.  Every loaded ``repro`` module that imported the
        same function object by name gets the wrapper too.
        """
        original = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name, layer) as attrs:
                result = original(*args, **kwargs)
                if describe is not None:
                    describe(attrs, args, kwargs, result)
                return result

        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                module for key, module in list(sys.modules.items())
                if key.startswith("repro") and module is not owner
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            self._patched.append((target, attr, getattr(target, attr)))
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer a workload reaches."""
    from repro.backend.backend import PulseBackend
    from repro.backend.pulse_simulator import PulseSimulator
    from repro.benchmarking import clifford, engine, fitting, rb
    from repro.benchmarking.irb import InterleavedRBExperiment
    from repro.experiments import gates
    from repro.session.session import Session
    from repro.store import ArtifactStore

    def group_size(attrs, args, kwargs, result):
        attrs["n_qubits"] = int(args[0] if args else kwargs["n_qubits"])

    def solo_grape(attrs, args, kwargs, result):
        attrs["points"] = 1
        attrs["iterations"] = int(result.n_iter)

    def batch_grape(attrs, args, kwargs, result):
        attrs["points"] = len(result)
        attrs["iterations"] = sum(int(r.n_iter) for r in result)

    def run_spec(attrs, args, kwargs, result):
        attrs["spec"] = args[1].fingerprint()

    tracer.wrap(clifford, "clifford_group", "clifford", group_size)
    tracer.wrap(engine, "clifford_channel_table", "engine")
    tracer.wrap(engine.CliffordChannelTable, "ensure", "engine")
    tracer.wrap(engine, "execute_sequences_with_channels", "engine")
    tracer.wrap(PulseBackend, "circuit_channel", "engine")
    tracer.wrap(PulseBackend, "gate_channel", "engine")
    tracer.wrap(PulseSimulator, "schedule_channel", "engine")
    tracer.wrap(gates, "optimize_gate_pulse", "core", solo_grape)
    tracer.wrap(gates, "optimize_gate_pulse_batch", "core", batch_grape)
    tracer.wrap(rb.RBExperiment, "run", "rb")
    tracer.wrap(InterleavedRBExperiment, "run", "rb")
    tracer.wrap(rb, "rb_sequences", "rb")
    tracer.wrap(fitting, "fit_rb_decay", "rb")
    tracer.wrap(Session, "plan", "session")
    tracer.wrap(Session, "run", "session", run_spec)
    for method in (
        "load_result", "save_result", "has_result", "has_valid_result",
        "load_pulse", "save_pulse", "load_channel_table", "save_channel_table",
        "load_group_arrays", "ensure_group_saved",
    ):
        tracer.wrap(ArtifactStore, method, "store")


# --------------------------------------------------------------------------- #
# interval arithmetic
# --------------------------------------------------------------------------- #
def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_segments(spans) -> list[tuple[float, float, str]]:
    """Each span's interval minus the intervals of its direct children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    segments = []
    for span in spans:
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            if start > cursor:
                segments.append((cursor, start, span["layer"]))
            cursor = max(cursor, end)
        if span["end"] > cursor:
            segments.append((cursor, span["end"], span["layer"]))
    return segments


def partition(segments, window: tuple[float, float]) -> tuple[dict[str, float], float]:
    """Split ``window`` among the layers of concurrently active segments.

    Returns ``(self_time_by_layer, unattributed_s)``; their sum equals the
    window length up to floating-point rounding.
    """
    lo, hi = window
    events = []
    for start, end, layer in segments:
        start, end = max(start, lo), min(end, hi)
        if end > start:
            events.append((start, 1, layer))
            events.append((end, -1, layer))
    events.sort(key=lambda e: (e[0], e[1]))
    shares = {layer: 0.0 for layer in LAYERS}
    active: dict[str, int] = {}
    total_active = 0
    unattributed = 0.0
    prev = lo
    for t, delta, layer in events:
        dt = t - prev
        if dt > 0:
            if total_active:
                for name, count in active.items():
                    if count:
                        shares[name] = shares.get(name, 0.0) + dt * count / total_active
            else:
                unattributed += dt
        prev = t
        active[layer] = active.get(layer, 0) + delta
        total_active += delta
    if hi > prev:
        unattributed += hi - prev
    return shares, unattributed


def priority_partition(window, lanes) -> tuple[dict[str, float], float]:
    """Split ``window`` of one sequential job among layers by lane priority.

    ``lanes`` is a list of segment lists, highest priority first; each
    instant goes to the layer of the first lane with a segment covering
    it, or to the unattributed time when none does.
    """
    lo, hi = window
    cuts = {lo, hi}
    for lane in lanes:
        for start, end, _ in lane:
            cuts.update(t for t in (start, end) if lo < t < hi)
    cuts = sorted(cuts)
    shares = {layer: 0.0 for layer in LAYERS}
    unattributed = 0.0
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        for lane in lanes:
            layer = next((lay for s, e, lay in lane if s <= mid < e), None)
            if layer is not None:
                shares[layer] += b - a
                break
        else:
            unattributed += b - a
    return shares, unattributed
