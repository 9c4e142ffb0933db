"""One cold pass of the ``paper_cold`` workload, in a fresh interpreter.

Usage (started by ``run.py``; the repository's ``src`` and this directory
must be on ``PYTHONPATH``)::

    python3 perfbench/batch_pass.py --seed 1 --store DIR \\
        --spawned-at EPOCH --out result.json [--trace SPANS.json]

The pass runs Figs. 1–8 plus Table I through one ``Session.run_all`` over
the (new, empty) store ``DIR``.  It writes its timings, payload digests,
counters and check results to ``--out``; with ``--trace`` it also records
layer spans, writes them to the given file and reduces them to the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", metavar="SPANS", default=None)
    args = parser.parse_args(argv)

    from repro.session import Session

    import checks
    import workloads

    tracer = None
    if args.trace:
        import layers
        import tracing

        tracer = tracing.Tracer(run_id=f"paper_cold-{args.seed}")
        tracing.install_layer_wrappers(tracer)
    specs = workloads.paper_specs(args.seed)
    session = Session(store=args.store, num_workers=1)
    setup_s = time.time() - args.spawned_at

    start_epoch = time.time()
    start = time.perf_counter()
    results = session.run_all(specs)
    wall_s = time.perf_counter() - start
    end_epoch = start_epoch + wall_s
    session.close()

    # a job's result is visible when the call returns its trace's end
    latencies = [
        result.provenance["trace"]["started_at"] + result.provenance["trace"]["duration_s"]
        - start_epoch
        for result in results
    ]
    inspected = checks.inspect((result.kind, result.payload) for result in results)
    stats = session.stats_snapshot()
    store_stats = session.store.stats
    disk = session.store.disk_stats()
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_s": latencies,
        "n_jobs": len(latencies),
        "digests": [result.payload_fingerprint() for result in results],
        "unique_specs": len({spec.fingerprint() for spec in specs}),
        "session_stats": stats,
        "store_stats": store_stats,
        "group2_prep_s": session.prep_timings.get(("group", 2), 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **inspected,
    }
    if tracer is not None:
        tracer.uninstall()
        traces = [result.provenance["trace"] for result in results]
        program = layers.provenance_spans(traces)
        waits = [(s["start"], s["end"], "session") for s in program if s["name"] == "inflight_wait"]
        shares, unattributed = tracing.partition(
            tracing.self_segments(tracer.spans) + waits, (start_epoch, end_epoch)
        )
        out["layers"] = {
            **layers.span_metrics(tracer.spans, program),
            "fitting.nonfinite_std_count": inspected["nonfinite_std_count"],
            "irb.negative_error_count": inspected["negative_irb_count"],
            **layers.session_metrics(stats),
            **layers.store_metrics(store_stats, disk),
            **layers.self_time_metrics(shares, unattributed),
        }
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"window": [start_epoch, end_epoch], "spans": tracer.spans,
                       "program_spans": program}, fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
