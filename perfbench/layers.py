"""Per-layer metrics: names, units and their reduction from spans."""

from __future__ import annotations

from tracing import LAYERS, union_length

#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    "clifford.group2_build_s": "s",
    "engine.table_build_s": "s",
    "engine.table_elements_built": "count",
    "core.grape_s": "s",
    "core.grape_iterations": "count",
    "core.grape_s_per_iteration": "s",
    "core.grape_batched_points": "count",
    "core.grape_solo_points": "count",
    "session.execute_busy_s": "s",
    "fitting.nonfinite_std_count": "count",
    "irb.negative_error_count": "count",
    "session.plan_s": "s",
    "session.cache_lookup_s": "s",
    "session.inflight_wait_s": "s",
    "session.executions": "count",
    "session.cache_hits": "count",
    "session.prep_builds": "count",
    "store.results_writes": "count",
    "store.results_hits": "count",
    "store.pulses_writes": "count",
    "store.channel_elements_written": "count",
    "store.groups_writes": "count",
    "store.bytes_on_disk": "bytes",
    "service.queue_wait_p50_s": "s",
    "service.run_hit_p50_s": "s",
    "service.run_miss_p50_s": "s",
    "service.client_overhead_p50_s": "s",
    "service.requests_per_job": "count",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "unattributed_s": "s",
    "trace_overhead_ratio": "ratio",
}


def provenance_spans(traces) -> list[dict]:
    """The program's own per-job spans (``provenance["trace"]``), in epoch time."""
    spans = []
    for trace in traces:
        if not trace:
            continue
        for span in trace["spans"]:
            start = trace["started_at"] + span["start_s"]
            spans.append({"name": span["name"], "start": start,
                          "end": start + span["duration_s"]})
    return spans


def _ancestors(span, by_id):
    parent = by_id.get(span["parent"])
    while parent is not None:
        yield parent
        parent = by_id.get(parent["parent"])


def span_metrics(spans: list[dict], program_spans: list[dict]) -> dict:
    """Busy times and work counts of the layers reached inside one process."""
    by_id = {span["id"]: span for span in spans}

    def busy(predicate, source=spans):
        return union_length((s["start"], s["end"]) for s in source if predicate(s))

    def named(*names):
        return lambda s: s["name"].rsplit(".", 1)[-1] in names

    grape_spans = [s for s in spans if named("optimize_gate_pulse", "optimize_gate_pulse_batch")(s)]
    outer_grape = [
        s for s in grape_spans
        if not any(named("optimize_gate_pulse_batch")(a) for a in _ancestors(s, by_id))
    ]
    grape_s = union_length((s["start"], s["end"]) for s in grape_spans)
    iterations = sum(s["attrs"].get("iterations", 0) for s in outer_grape)
    table_ensure = named("ensure")
    return {
        "clifford.group2_build_s": busy(
            lambda s: named("clifford_group")(s) and s["attrs"].get("n_qubits") == 2
        ),
        "engine.table_build_s": busy(named("clifford_channel_table", "ensure")),
        "engine.table_elements_built": sum(
            1 for s in spans
            if named("circuit_channel")(s) and any(table_ensure(a) for a in _ancestors(s, by_id))
        ),
        "core.grape_s": grape_s,
        "core.grape_iterations": iterations,
        "core.grape_s_per_iteration": grape_s / iterations if iterations else 0.0,
        "core.grape_batched_points": sum(
            s["attrs"].get("points", 0) for s in outer_grape
            if named("optimize_gate_pulse_batch")(s)
        ),
        "core.grape_solo_points": sum(
            1 for s in outer_grape if named("optimize_gate_pulse")(s)
        ),
        "session.execute_busy_s": busy(lambda s: s["name"] == "execute", program_spans),
        "session.plan_s": union_length(
            [(s["start"], s["end"]) for s in program_spans if s["name"] == "plan"]
            + [(s["start"], s["end"]) for s in spans if named("plan")(s)]
        ),
        "session.cache_lookup_s": busy(lambda s: s["name"] == "cache_lookup", program_spans),
        "session.inflight_wait_s": busy(lambda s: s["name"] == "inflight_wait", program_spans),
    }


def store_metrics(stats: dict, disk: dict) -> dict:
    """Store work counters from ``store.stats`` and the on-disk footprint."""
    def count(namespace, counter):
        return int(stats.get(namespace, {}).get(counter, 0))

    return {
        "store.results_writes": count("results", "writes"),
        "store.results_hits": count("results", "hits"),
        "store.pulses_writes": count("pulses", "writes"),
        "store.channel_elements_written": count("channel_tables", "elements_written"),
        "store.groups_writes": count("groups", "writes"),
        "store.bytes_on_disk": int(sum(ns.get("bytes", 0) for ns in disk.values())),
    }


def session_metrics(stats: dict) -> dict:
    """Session work counters from ``stats_snapshot()``."""
    return {
        "session.executions": int(stats.get("executions", 0)),
        "session.cache_hits": int(stats.get("cache_hits", 0)),
        "session.prep_builds": int(stats.get("prep_builds", 0)),
    }


def self_time_metrics(shares: dict, unattributed: float) -> dict:
    """``self.<layer>_s`` for every layer, plus ``unattributed_s``."""
    out = {f"self.{layer}_s": float(shares.get(layer, 0.0)) for layer in LAYERS}
    out["unattributed_s"] = float(unattributed)
    return out
