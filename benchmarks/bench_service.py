"""Service benchmarks: dedup, scale-out, tenant fairness.

Three legs, all recorded in ``BENCH_rb.json`` and enforced one-sidedly
against the committed baseline:

* ``service_dedup`` — ``N`` *concurrently submitted duplicate* specs —
  the daemon's worker pool and plain concurrent ``Session`` users share
  the same protocol, so the bench drives N concurrent sessions over
  **one** store root — compared against ``N`` concurrent *independent*
  cold runs of the identical spec (separate store roots, so no artifact
  or result can be shared).  With the lock-or-wait protocol the
  duplicate leg performs **exactly one execution and one result
  publication** (asserted via session/store counters).
* ``service_multi_daemon`` — ``M`` *distinct*-seed specs drained by one
  daemon vs by a cluster of N daemons sharing one queue and one store
  (real ``python -m repro.service`` subprocesses via the cluster
  harness).  The lease-based queue lets the daemons split the work;
  submit→drain wall clock (boot excluded) gives the
  ``multi_daemon_gain`` ratio.
* ``tenant_fairness`` — a batch tenant floods K delayed jobs into an
  auth-enabled single daemon, then an interactive-class tenant submits
  one job.  The weighted-fair scheduler claims the interactive job ahead
  of the queued backlog, so its completion latency is ~2 injected delays
  instead of the full FIFO drain; ``tenant_fairness_gain`` is the ratio
  of backlog-drain wall clock to interactive latency (latency-bound via
  ``REPRO_FAULT_EXECUTE_DELAY_S``, so machine-independent).
"""

import json
import os
import threading
import time

from repro.service.cluster import ServiceCluster
from repro.service.workers import FAULT_EXECUTE_DELAY_ENV
from repro.session import RBSpec, Session
from repro.store import ArtifactStore

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Number of concurrent duplicate submissions (the "N users" of the spec).
N_SUBMISSIONS = 3 if SMOKE else 4

#: Scale-out leg: cluster size and number of distinct jobs to drain.
N_DAEMONS = 2
N_JOBS = 2 if SMOKE else 4

#: Per-job latency injected into every daemon of the scale-out leg (the
#: execute-delay hook).  It stands in for the device/solver latency of a
#: real experiment and makes the measured ratio machine-independent: the
#: drain is latency-bound, so N daemons overlap it regardless of how many
#: CPU cores the runner has (a 1-core CI box still proves the lease-based
#: claims drain concurrently).
JOB_LATENCY_S = 0.2 if SMOKE else 0.6

#: Fairness leg: batch-flood size and per-job injected latency.  The
#: flood is what a FIFO queue would make the interactive submission wait
#: behind; ≥ 20 queued delayed jobs is the tentpole acceptance criterion.
N_FLOOD = 6 if SMOKE else 20
FAIRNESS_LATENCY_S = 0.1 if SMOKE else 0.15


def _bench_spec() -> RBSpec:
    if SMOKE:
        return RBSpec(device="montreal", qubits=(0,), lengths=(1, 4, 8),
                      n_seeds=1, shots=100, seed=2022)
    return RBSpec(device="montreal", qubits=(0,), lengths=(1, 16, 48, 96, 160, 240),
                  n_seeds=6, shots=400, seed=2022)


def _run_concurrent(spec: RBSpec, roots: list) -> dict:
    """Run the spec once per root on concurrent threads; gather evidence."""
    barrier = threading.Barrier(len(roots))
    results: list = [None] * len(roots)
    stats: list = [None] * len(roots)
    stores = [ArtifactStore(root) for root in roots]

    def run(index: int) -> None:
        with Session(store=stores[index], num_workers=1) as session:
            barrier.wait()
            results[index] = session.run(spec)
            stats[index] = dict(session.stats)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(roots))]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return {
        "wall_clock_s": wall,
        "executions": sum(s["executions"] for s in stats),
        "dedup_waits": sum(s.get("dedup_waits", 0) for s in stats),
        "result_writes": sum(st.namespace_stats("results")["writes"] for st in stores),
        "payload_fingerprints": {r.payload_fingerprint() for r in results},
    }


def _duplicate_vs_independent(root) -> dict:
    """N duplicate submissions on one root vs N independents on N roots."""
    from repro.benchmarking.clifford import clifford_group

    spec = _bench_spec()
    # warm the process-wide group cache so the measurement is independent
    # of bench ordering (running after other benches must not change it);
    # both legs then pay identical in-process costs and the ratio
    # isolates the dedup protocol
    clifford_group(len(spec.qubits))
    # independent leg first (separate roots: nothing shared, all cold)
    independent = _run_concurrent(
        spec, [root / f"independent-{i}" for i in range(N_SUBMISSIONS)]
    )
    # duplicate leg: one shared root, the in-flight protocol deduplicates
    duplicate = _run_concurrent(spec, [root / "shared"] * N_SUBMISSIONS)
    fingerprints = independent["payload_fingerprints"] | duplicate["payload_fingerprints"]
    return {
        "n_submissions": N_SUBMISSIONS,
        "independent_wall_clock_s": independent["wall_clock_s"],
        "independent_executions": independent["executions"],
        "dedup_wall_clock_s": duplicate["wall_clock_s"],
        "dedup_executions": duplicate["executions"],
        "dedup_waits": duplicate["dedup_waits"],
        "dedup_result_writes": duplicate["result_writes"],
        "dedup_gain": independent["wall_clock_s"] / duplicate["wall_clock_s"],
        "payload_abs_diff": 0.0 if len(fingerprints) == 1 else 1.0,
    }


def test_service_dedup(benchmark, save_results, bench_metrics, tmp_path):
    data = benchmark.pedantic(
        _duplicate_vs_independent, args=(tmp_path,), rounds=1, iterations=1
    )
    # correctness: every submission, duplicate or independent, yields the
    # bit-identical payload...
    assert data["payload_abs_diff"] == 0.0
    # ...the independent leg executed N times (no cross-root sharing)...
    assert data["independent_executions"] == N_SUBMISSIONS
    # ...and the duplicate leg is the acceptance criterion: exactly one
    # execution and one publication across N concurrent submissions
    assert data["dedup_executions"] == 1
    assert data["dedup_result_writes"] == 1
    if not SMOKE:
        # acceptance: dedup must be a measurable win over N cold runs
        assert data["dedup_gain"] >= 1.5, (
            f"service dedup gain regressed: {data['dedup_gain']:.2f}x"
        )
    bench_metrics["service_dedup"] = {
        "independent_wall_clock_s": data["independent_wall_clock_s"],
        "dedup_wall_clock_s": data["dedup_wall_clock_s"],
        "dedup_gain": data["dedup_gain"],
        "dedup_executions": data["dedup_executions"],
        "dedup_result_writes": data["dedup_result_writes"],
        "payload_abs_diff": data["payload_abs_diff"],
    }
    save_results("service_dedup", data)


def _multi_daemon_specs(base_seed: int) -> list:
    """M distinct-seed RB specs (no two dedupe against each other).

    Each leg gets its own seed range so the legs never hit each other's
    result-cache entries; heavy enough (full size) that execution time,
    not HTTP/queue overhead, dominates the drain.
    """
    if SMOKE:
        dims = dict(device="montreal", qubits=(0,), lengths=(1, 4, 8),
                    n_seeds=1, shots=100)
    else:
        dims = dict(device="montreal", qubits=(0,), lengths=(1, 16, 48, 96, 160, 240),
                    n_seeds=6, shots=400)
    return [RBSpec(**dims, seed=base_seed + index) for index in range(N_JOBS)]


def _warm_store(store_root) -> None:
    """Build the device's channel tables in a leg's store ahead of time.

    The one-time cold Clifford-channel build is shared prep, not drain
    throughput; paying it before the timer starts (and before any daemon
    boots) keeps the measured ratio about queue/claim/execute scaling.
    """
    warm = RBSpec(device="montreal", qubits=(0,), lengths=(1, 2, 3),
                  n_seeds=1, shots=50, seed=1)
    with Session(store=ArtifactStore(store_root), num_workers=1) as session:
        session.run(warm)


def _drain_with_cluster(root, specs, n_daemons: int) -> dict:
    """Submit every spec to a booted cluster and drain; time submit→drain.

    Boot cost is excluded (the timer starts after every daemon reported
    its address), so the ratio isolates queue/claim/execute throughput.
    Every daemon carries the :data:`JOB_LATENCY_S` execute delay (see its
    docstring for why the drain is deliberately latency-bound).
    """
    _warm_store(root / "store")
    latency_env = {FAULT_EXECUTE_DELAY_ENV: str(JOB_LATENCY_S)}
    with ServiceCluster(
        root, n_daemons=n_daemons, workers=1, lease_s=300.0, poll_s=0.05,
        daemon_env=[latency_env] * n_daemons,
    ) as cluster:
        client = cluster.client(0)
        # one tiny warm-up job per daemon (distinct seeds, so each idle
        # daemon claims one): the first job a worker session executes
        # pays the in-process table/group load, which is session
        # cold-start, not drain throughput
        warm_ids = [
            client.submit(RBSpec(device="montreal", qubits=(0,), lengths=(1, 2, 3),
                                 n_seeds=1, shots=50, seed=100 + index))
            for index in range(n_daemons)
        ]
        for job_id in warm_ids:
            client.result(job_id, timeout=600.0)
        start = time.perf_counter()
        job_ids = [client.submit(spec) for spec in specs]
        fingerprints = {
            client.result(job_id, timeout=600.0).payload_fingerprint()
            for job_id in job_ids
        }
        wall = time.perf_counter() - start
        documents = [client.status(job_id) for job_id in job_ids]
    return {
        "wall_clock_s": wall,
        "owners": {document.get("owner") for document in documents},
        "attempts": [document["attempts"] for document in documents],
        "payload_fingerprints": fingerprints,
    }


def _single_vs_cluster(root) -> dict:
    """M distinct jobs drained by 1 daemon vs by N over separate stores.

    The two legs use separate roots and separate seed ranges, so neither
    results nor artifacts cross between them; payload equivalence is
    asserted *within* each leg by draining every job to a result.
    """
    single = _drain_with_cluster(
        root / "one-daemon", _multi_daemon_specs(3000), n_daemons=1
    )
    multi = _drain_with_cluster(
        root / "n-daemons", _multi_daemon_specs(4000), n_daemons=N_DAEMONS
    )
    identical = (
        len(single["payload_fingerprints"]) == N_JOBS
        and len(multi["payload_fingerprints"]) == N_JOBS
    )
    return {
        "n_daemons": N_DAEMONS,
        "n_jobs": N_JOBS,
        "single_wall_clock_s": single["wall_clock_s"],
        "multi_wall_clock_s": multi["wall_clock_s"],
        "multi_daemon_gain": single["wall_clock_s"] / multi["wall_clock_s"],
        "single_owners": sorted(single["owners"]),
        "multi_owners": sorted(multi["owners"]),
        "attempts": single["attempts"] + multi["attempts"],
        "payload_abs_diff": 0.0 if identical else 1.0,
    }


def _tiny_spec(seed: int) -> RBSpec:
    """A near-instant RB spec: the injected delay dominates its runtime."""
    return RBSpec(device="montreal", qubits=(0,), lengths=(1, 2, 3),
                  n_seeds=1, shots=50, seed=seed)


def _tenant_fairness(root) -> dict:
    """Batch flood vs one interactive submission on an auth-enabled daemon.

    One daemon, one worker, every job parked ``FAIRNESS_LATENCY_S``
    seconds by the execute-delay hook — so the drain is latency-bound
    and the measured ratio is machine-independent.  The batch tenant
    floods :data:`N_FLOOD` distinct jobs; the interactive tenant then
    submits one.  Under FIFO the interactive job would wait the whole
    backlog out; under the weighted-fair scheduler it is claimed next.
    """
    _warm_store(root / "store")
    tokens = root / "tokens.json"
    tokens.write_text(json.dumps({
        "tenants": {
            "bench-interactive": {
                "tokens": ["bench-interactive-token"], "priority": "interactive",
            },
            "bench-batch": {"tokens": ["bench-batch-token"], "priority": "batch"},
        }
    }))
    latency_env = {FAULT_EXECUTE_DELAY_ENV: str(FAIRNESS_LATENCY_S)}
    with ServiceCluster(
        root, n_daemons=1, workers=1, lease_s=300.0, poll_s=0.05,
        tokens=tokens, daemon_env=[latency_env],
    ) as cluster:
        batch = cluster.client(0, token="bench-batch-token")
        interactive = cluster.client(0, token="bench-interactive-token")
        # pay the worker session's in-process cold start before the timer
        batch.result(batch.submit(_tiny_spec(100)), timeout=600.0)

        start = time.perf_counter()
        flood_ids = [batch.submit(_tiny_spec(200 + i)) for i in range(N_FLOOD)]
        interactive_id = interactive.submit(_tiny_spec(999))
        interactive_result = interactive.result(interactive_id, timeout=600.0)
        interactive_latency = time.perf_counter() - start
        # how much of the flood the interactive job overtook, snapshotted
        # the moment it finished
        overtaken = sum(
            1 for job_id in flood_ids
            if batch.status(job_id)["status"] in ("queued", "running")
        )
        # drain the backlog to completion; result() raises on a failed
        # job, so surviving this loop proves every flood job finished
        # (tiny same-dimension specs can legitimately collide on payload,
        # so distinctness is not asserted here — the dedup leg owns that)
        drained = sum(
            1 for job_id in flood_ids
            if batch.result(job_id, timeout=600.0) is not None
        )
        drain_wall = time.perf_counter() - start
        document = interactive.status(interactive_id)
    return {
        "n_flood": N_FLOOD,
        "job_latency_s": FAIRNESS_LATENCY_S,
        "interactive_wall_clock_s": interactive_latency,
        "drain_wall_clock_s": drain_wall,
        "tenant_fairness_gain": drain_wall / interactive_latency,
        "overtaken": overtaken,
        "drained": drained,
        "interactive_tenant": document["tenant"],
        "interactive_priority": document["priority"],
    }


def test_tenant_fairness(benchmark, save_results, bench_metrics, tmp_path):
    data = benchmark.pedantic(
        _tenant_fairness, args=(tmp_path,), rounds=1, iterations=1
    )
    # correctness: the whole flood drained to done results, and the
    # interactive job ran under its tenant identity
    assert data["drained"] == N_FLOOD
    assert data["interactive_tenant"] == "bench-interactive"
    assert data["interactive_priority"] == "interactive"
    # fairness: the interactive job overtook (almost) the whole flood —
    # at most 2 batch jobs (the one already running when it arrived and
    # one claim race) may have finished before it
    assert data["overtaken"] >= N_FLOOD - 2, (
        f"interactive job overtook only {data['overtaken']}/{N_FLOOD} batch jobs"
    )
    if not SMOKE:
        # acceptance: interactive latency must be a small constant number
        # of job delays, not the FIFO drain (conservative floor well
        # under the ~7x a quiet run measures with K=20)
        assert data["tenant_fairness_gain"] >= 2.5, (
            f"tenant fairness gain regressed: {data['tenant_fairness_gain']:.2f}x"
        )
    bench_metrics["tenant_fairness"] = {
        "interactive_wall_clock_s": data["interactive_wall_clock_s"],
        "drain_wall_clock_s": data["drain_wall_clock_s"],
        "tenant_fairness_gain": data["tenant_fairness_gain"],
        "overtaken": data["overtaken"],
    }
    save_results("tenant_fairness", data)


def test_service_multi_daemon(benchmark, save_results, bench_metrics, tmp_path):
    data = benchmark.pedantic(
        _single_vs_cluster, args=(tmp_path,), rounds=1, iterations=1
    )
    # correctness first: both legs produce the identical payload set,
    # no job needed a second attempt (no lease ever expired under the
    # generous bench lease), and every claim carried a lease identity
    assert data["payload_abs_diff"] == 0.0
    assert all(attempt == 1 for attempt in data["attempts"])
    assert data["single_owners"] == ["daemon-0"]
    assert set(data["multi_owners"]) <= {f"daemon-{i}" for i in range(N_DAEMONS)}
    if not SMOKE:
        # acceptance: with M >= 2N distinct latency-bound jobs the
        # cluster must clearly beat the single daemon (conservative
        # floor well under the ~1.9x measured on a single-core box)
        assert data["multi_daemon_gain"] >= 1.2, (
            f"multi-daemon gain regressed: {data['multi_daemon_gain']:.2f}x"
        )
    bench_metrics["service_multi_daemon"] = {
        "single_wall_clock_s": data["single_wall_clock_s"],
        "multi_wall_clock_s": data["multi_wall_clock_s"],
        "multi_daemon_gain": data["multi_daemon_gain"],
        "payload_abs_diff": data["payload_abs_diff"],
    }
    save_results("service_multi_daemon", data)
