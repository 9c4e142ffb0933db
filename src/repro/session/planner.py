"""Cross-experiment preparation planning.

A batch of specs submitted to a :class:`~repro.session.session.Session`
usually shares expensive preparation: Figs. 3 and 4 both benchmark qubit 0
of montreal, so they need the *same* single-qubit Clifford channel table; a
custom-vs-default IRB pair nests the same GRAPE spec, so they need one
pulse optimization; every spec of a sweep shares its device backend.  PR 1
and PR 2 deduplicated this work *within* one experiment (gate-channel
cache, persistent store); the planner deduplicates it *across*
experiments.

The planner is deliberately **pure**: :func:`plan_specs` inspects spec
fields only — it builds nothing, imports no backend, and runs in
microseconds.  It emits dependency-ordered :class:`PrepStep` descriptors
keyed by content (device name, qubit tuple, GRAPE-spec fingerprint), each
listing its consumer specs; the session executes each step exactly once
(guarded by per-key locks for concurrent ``submit()``) before fanning the
experiments out.

With a ``store`` attached the planner is additionally **cache-aware**:
specs whose result is already in the store's ``results`` namespace (keyed
by spec cache-fingerprint × device properties fingerprint — see
``docs/caching.md``) are marked in :attr:`SessionPlan.cached` and removed
from every step's consumer list; a step whose every consumer is cached is
dropped entirely, so a fully warm batch plans **zero** preparation and a
partially warm one prepares only what its cold specs need (sweeps resolve
at per-point granularity this way).  The cache probe reads device
properties through :func:`repro.devices.library.get_device` — static
calibration data, no backend is built.

Step kinds, in build order:

``group``
    Enumerate (or load from the store) the n-qubit Clifford group.
``backend``
    Instantiate the device's :class:`~repro.backend.backend.PulseBackend`.
``grape_batch``
    Stack the cold points of a batchable GRAPE group (same device, qubits,
    grid and model class — only initial conditions and targets differ) into
    one cross-point optimization pass (see
    :mod:`repro.core.grape_batch`); bit-identical to the per-point path,
    which a singleton plan (one ``Session.run`` of one point) still takes.
``grape``
    Run one pulse optimization and lower it to a schedule.
``table``
    Build the per-Clifford channel table of one (device, qubit-tuple),
    covering the union of element indices every consumer's sequences
    touch — with a persistent store attached this is the single write the
    store counters observe.

What each spec kind needs is not decided here: every concrete spec lists
its own steps (:meth:`~repro.session.specs.ExperimentSpec.prep_steps`), and
the planner only deduplicates, groups GRAPE points and orders them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .specs import ExperimentSpec, GRAPESpec, PrepStep

__all__ = [
    "PrepStep",
    "SessionPlan",
    "plan_specs",
    "expand_specs",
]

#: Build order of preparation kinds (dependencies point left).  A
#: ``grape_batch`` step precedes the per-point ``grape`` steps of its
#: members so the stacked pass registers their artifacts first; the solo
#: steps then find them already built.
_KIND_ORDER = ("group", "backend", "grape_batch", "grape", "table")


@dataclass
class SessionPlan:
    """Deduplicated, ordered preparation plan for a batch of specs.

    Attributes
    ----------
    specs : list of ExperimentSpec
        The flat (sweep-expanded) spec list the plan covers.
    steps : list of PrepStep
        Dependency-ordered unique preparation steps.
    consumers : dict
        ``step.key`` → indices into :attr:`specs` that need the step.
    cached : list of int
        Indices into :attr:`specs` whose result is already in the store's
        result cache (only populated when planning with a ``store``); the
        steps those specs would have needed are dropped unless an uncached
        spec also needs them.
    """

    specs: list[ExperimentSpec]
    steps: list[PrepStep] = field(default_factory=list)
    consumers: dict[tuple, list[int]] = field(default_factory=dict)
    cached: list[int] = field(default_factory=list)

    @property
    def shared_steps(self) -> list[PrepStep]:
        """Steps consumed by more than one spec (the dedup payoff)."""
        return [s for s in self.steps if len(self.consumers.get(s.key, ())) > 1]

    def describe(self) -> str:
        """Multi-line human-readable plan summary."""
        cached = f", {len(self.cached)} cached" if self.cached else ""
        lines = [f"session plan: {len(self.specs)} spec(s), {len(self.steps)} prep step(s){cached}"]
        for step in self.steps:
            users = len(self.consumers.get(step.key, ()))
            shared = f" [shared x{users}]" if users > 1 else ""
            lines.append(f"  - {step.kind}: {step.detail}{shared}")
        return "\n".join(lines)


def expand_specs(specs) -> list[ExperimentSpec]:
    """Flatten containers (sweeps, drift studies) into concrete specs.

    Recursive, so a container whose ``expand()`` ever yields another
    container still flattens fully; non-containers pass through.
    """
    flat: list[ExperimentSpec] = []
    for spec in specs:
        if spec.is_container:
            flat.extend(expand_specs(spec.expand()))
        else:
            flat.append(spec)
    return flat


def _grape_group_key(spec: GRAPESpec) -> tuple:
    """Model-identity key of a GRAPE spec for cross-point batching.

    Two specs with equal keys share the exact same drift/control
    Hamiltonians and slot grid: the optimizer model depends only on the
    device calibration, the qubit tuple, the transmon level count and the
    gate *class* (every single-qubit gate uses the same Duffing model; CX
    uses the CR model, and its two-qubit tuple already separates it).
    Seeds, initial-pulse shapes, amplitude bounds, stopping criteria and
    the target gate itself may all differ — they only change initial
    conditions and targets, which the stacked evaluator carries per point.
    """
    from ..devices.library import canonical_device_name

    return (
        canonical_device_name(spec.device),
        spec.qubits,
        spec.duration_ns,
        spec.n_ts,
        spec.optimizer_levels,
        spec.gate.lower() == "cx",
    )


def _batchable_grape(spec: GRAPESpec) -> bool:
    """Whether a GRAPE spec is eligible for the stacked closed-system pass."""
    return spec.method.upper() == "LBFGS" and not spec.include_decoherence


def _grape_batch_steps(
    steps: dict[tuple, PrepStep], consumers: dict[tuple, list[int]]
) -> None:
    """Group batchable ``grape`` steps into ``grape_batch`` steps (in place).

    Groups of ≥2 model-identical points get one ``grape_batch`` step whose
    payload is the member spec tuple and whose consumers are the union of
    the members'.  The per-point ``grape`` steps stay in the plan — they
    order *after* the batch step, find their artifact already registered,
    and keep the per-point keys (and hence pulse-cache entries and
    provenance) exactly as the fan-out path produces them.
    """
    groups: dict[tuple, list[PrepStep]] = {}
    for step in steps.values():
        if step.kind != "grape":
            continue
        spec = step.payload
        if isinstance(spec, GRAPESpec) and _batchable_grape(spec):
            groups.setdefault(_grape_group_key(spec), []).append(step)
    for group_key, members in groups.items():
        if len(members) < 2:
            continue
        members = sorted(members, key=lambda s: s.key)
        key = ("grape_batch", tuple(step.key[1] for step in members))
        specs = tuple(step.payload for step in members)
        device, qubits = group_key[0], group_key[1]
        steps[key] = PrepStep(
            key=key,
            kind="grape_batch",
            detail=f"stack {len(members)} pulse optimizations on {device} q{list(qubits)}",
            payload=specs,
        )
        merged: list[int] = []
        for step in members:
            for position in consumers.get(step.key, []):
                if position not in merged:
                    merged.append(position)
        consumers[key] = merged


def _device_properties_fingerprint(device: str) -> str:
    """Properties fingerprint of a named device (no backend is built)."""
    from ..devices.library import get_device

    return get_device(device).fingerprint()


def plan_specs(specs, store=None, properties_fingerprint=None) -> SessionPlan:
    """Build the deduplicated preparation plan of a batch of specs.

    Parameters
    ----------
    specs : iterable of ExperimentSpec
        Specs to plan (sweeps are expanded first).
    store : ArtifactStore, optional
        When given, each spec is probed against the store's result cache
        (``store.has_result``): cached specs are listed in
        :attr:`SessionPlan.cached`, dropped from every step's consumers,
        and steps left without consumers are dropped entirely — a fully
        warm batch plans zero preparation.
    properties_fingerprint : callable, optional
        ``device name -> properties fingerprint`` used for the cache
        probe.  Defaults to fingerprinting the library device; a session
        passes its own resolver so adopted backends are honoured.

    Returns
    -------
    SessionPlan
        Unique steps in dependency order (groups, then backends, then
        GRAPE optimizations, then channel tables), each annotated with its
        consumer specs.  Model-identical closed-system GRAPE points are
        grouped into ``grape_batch`` steps.
    """
    flat = expand_specs(specs)
    cached: list[int] = []
    if store is not None:
        resolver = properties_fingerprint or _device_properties_fingerprint
        # one resolver call per device per plan: the default resolver
        # rebuilds and re-hashes the whole calibration snapshot, which a
        # wide sweep would otherwise repeat once per grid point
        fingerprints: dict[str, str] = {}
        for position, spec in enumerate(flat):
            fp = fingerprints.get(spec.device)
            if fp is None:
                fp = resolver(spec.device)
                fingerprints[spec.device] = fp
            if store.has_result(spec.cache_fingerprint(), fp):
                cached.append(position)
    cached_set = set(cached)
    by_key: dict[tuple, PrepStep] = {}
    consumers: dict[tuple, list[int]] = {}
    for position, spec in enumerate(flat):
        if position in cached_set:
            continue
        for step in spec.prep_steps():
            by_key.setdefault(step.key, step)
            consumers.setdefault(step.key, []).append(position)
    _grape_batch_steps(by_key, consumers)
    ordered = sorted(
        by_key.values(),
        key=lambda s: (_KIND_ORDER.index(s.kind), s.key),
    )
    return SessionPlan(specs=flat, steps=ordered, consumers=consumers, cached=cached)
