"""End-to-end benchmark of the pulse-optimization pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace {0,1}

Workloads (inputs generated from ``--seed`` only):

``paper_cold``
    Figs. 1–8 plus every Table I row in fast mode (38 specs, 28 unique)
    through one ``Session.run_all`` with ``num_workers=1`` over a new, empty
    on-disk store.  Every pass runs in a fresh interpreter, so the
    process-wide Clifford-group caches start empty.
``service_mixed``
    An ``ExperimentService`` daemon in its own process (thread mode, 2
    workers, open auth, fresh store) primed with the Figs. 3–5 specs,
    then a closed loop of 2 client threads: three cache hits, then one
    miss (a new 1q RB/IRB seed), repeated.  Each job polls its status at
    its own interval between 2 and 8 ms (a fixed sequence), so job latency
    does not jump by a whole poll interval when the service slows a little.

End-to-end metrics (``--trace 0``), each printed with its unit:

* ``setup_s`` — interpreter start, imports and ``Session`` construction
  (median over passes); for ``service_mixed`` daemon start plus store
  priming (median over several fresh daemons).
* ``wall_s`` — median wall clock of one pass; for ``service_mixed`` the
  median time to complete 100 jobs.
* ``jobs_per_s`` — specs of one pass over the median pass wall clock;
  jobs completed per second of load for ``service_mixed``.
* ``latency_p50_s`` / ``latency_p99_s`` — per job: from submission to
  the caller seeing its result.  For batch passes a job's latency runs
  from the start of ``run_all`` to the end of its trace, the percentiles
  are taken per pass and the median over passes is reported.
* ``peak_rss_mb`` — median peak RSS of the pass interpreters; of the
  daemon process for ``service_mixed``.

``failed_ratio`` (failed over attempted jobs) is printed too; the result
line carries it as ``failed`` and ``attempted``.  A job fails when it
raises, fails in the service, times out, or fails an output check.

With ``--trace 1`` the run alternates untraced and traced passes (for the
service: an untraced then a traced load phase) and prints the per-layer
metrics of ``layers.PER_LAYER_UNITS``, attributing the traced wall clock
(summed job latency for the service) to layers; see ``tracing.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_cold", "service_mixed")
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p99_s": "s",
    "peak_rss_mb": "MB",
}
#: Minimum passes of a batch workload, whatever ``--seconds`` says.
MIN_PASSES = 3
#: A pass or daemon step that takes longer than this has failed.
STEP_TIMEOUT_S = 120.0
#: No new batch pass starts after this many seconds, so a run on a slow
#: machine still ends well inside 180 s.
RUN_BUDGET_S = 100.0
#: Fresh daemons started (and primed) per ``service_mixed`` run.
SERVICE_SETUPS = 3
SERVICE_CLIENTS = 2
#: Jobs a timed service run completes at least, so ≥10 lie beyond p99.
SERVICE_MIN_JOBS = 1000
#: The service load never runs longer than this (seconds).
SERVICE_MAX_LOAD_S = 90.0
#: Range of the status poll intervals of the service clients (the client
#: default of 0.2 s would quantize latency to 200 ms).
POLL_S = (0.002, 0.008)
#: Jobs per block of the service's ``wall_s``.
SERVICE_BLOCK = 100


class Tally:
    """Attempted and failed jobs, with the reason of every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._lock = threading.Lock()

    def add(self, attempted: int, failed: int = 0, problem: str | None = None) -> None:
        with self._lock:
            self.attempted += attempted
            self.failed += failed
            if problem:
                self.problems.append(problem)


class Context:
    """Arguments, child environment and the run's scratch directory."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
        self.traces = ROOT / ".perfbench_traces"
        path = [str(ROOT / "src"), str(HERE)]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        self.tally = Tally()


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


# --------------------------------------------------------------------------- #
# environment
# --------------------------------------------------------------------------- #
def environment() -> dict:
    """Machine and software facts printed ahead of the results."""
    from importlib import metadata

    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = done.stdout.strip() or commit
    blas = {
        key: os.environ[key] for key in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
        ) if key in os.environ
    }
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads_env": blas or "unset",
        "commit": commit,
    }


# --------------------------------------------------------------------------- #
# batch workload: paper_cold
# --------------------------------------------------------------------------- #
def batch_pass(ctx: Context, index: int, traced: bool) -> dict | None:
    """Run one pass in a fresh interpreter; None when it failed."""
    tag = f"{index}{'t' if traced else ''}"
    out = ctx.work / f"pass{tag}.json"
    cmd = [sys.executable, str(HERE / "batch_pass.py"), "--seed", str(ctx.seed),
           "--store", str(ctx.work / f"store{tag}"), "--out", str(out)]
    if traced:
        ctx.traces.mkdir(exist_ok=True)
        cmd += ["--trace", str(ctx.traces / f"{ctx.workload}-seed{ctx.seed}-pass{index}.json")]
    cmd += ["--spawned-at", repr(time.time())]
    try:
        done = subprocess.run(cmd, env=ctx.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    shutil.rmtree(ctx.work / f"store{tag}", ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        return None
    return json.loads(out.read_text())


def check_batch_pass(ctx: Context, result: dict | None, reference: dict | None) -> bool:
    """Check one pass's outputs; tallies its jobs and returns pass/fail."""
    n_jobs = result["n_jobs"] if result else (reference["n_jobs"] if reference else 1)
    if result is None:
        ctx.tally.add(n_jobs, n_jobs, "pass crashed or timed out")
        return False
    problems = []
    if result["nonfinite_fields"]:
        problems.append(f"non-finite outputs: {result['nonfinite_fields']}")
    executions = result["session_stats"].get("executions", 0)
    if executions != result["unique_specs"]:
        problems.append(f"executions {executions} != unique specs {result['unique_specs']}")
    if not result["group2_prep_s"] > 0:
        problems.append("2q Clifford group was not built cold")
    if result["store_stats"].get("groups", {}).get("writes", 0) < 1:
        problems.append("no groups store write")
    if reference is not None and result["digests"] != reference["digests"]:
        problems.append("payload digests differ between passes")
    ctx.tally.add(n_jobs, n_jobs if problems else 0, "; ".join(problems) or None)
    return not problems


def run_batch(ctx: Context) -> dict:
    """Timed (or alternating untraced/traced) passes of ``paper_cold``."""
    plain, traced = [], []
    reference = None
    start = time.monotonic()
    rounds = 0
    while rounds < (2 if ctx.trace else MIN_PASSES) or time.monotonic() - start < ctx.seconds:
        if time.monotonic() - start > RUN_BUDGET_S:
            break
        for is_traced in ((False, True) if ctx.trace else (False,)):
            result = batch_pass(ctx, rounds, is_traced)
            if check_batch_pass(ctx, result, reference):
                reference = reference or result
                (traced if is_traced else plain).append(result)
        rounds += 1
    if ctx.trace:
        return batch_layers(plain, traced)
    # percentiles per pass, median over passes; a failed pass misses every
    # latency limit, so it counts at the step timeout
    failed = [STEP_TIMEOUT_S] * (rounds - len(plain))
    wall = median([r["wall_s"] for r in plain])
    return {
        "setup_s": median([r["setup_s"] for r in plain]),
        "wall_s": wall,
        "jobs_per_s": plain[0]["n_jobs"] / wall if plain else 0.0,
        "latency_p50_s": median([median(r["latencies_s"]) for r in plain] + failed),
        "latency_p99_s": median([percentile(r["latencies_s"], 99) for r in plain] + failed),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }


def batch_layers(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics of the median traced pass, and the tracing overhead.

    All layer numbers come from one pass, so its self times and
    unattributed time add up to its ``traced_wall_s``.
    """
    import layers

    metrics = {name: 0.0 for name in layers.PER_LAYER_UNITS}
    if not traced:
        return metrics
    mid = median([r["wall_s"] for r in traced])
    chosen = min(traced, key=lambda r: abs(r["wall_s"] - mid))
    plain_wall = median([r["wall_s"] for r in plain])
    return {
        **metrics,
        **chosen["layers"],
        "trace_overhead_ratio": mid / plain_wall if plain_wall else 0.0,
        "traced_wall_s": chosen["wall_s"],
    }


# --------------------------------------------------------------------------- #
# service_mixed
# --------------------------------------------------------------------------- #
class Daemon:
    """One daemon process over a fresh store, stopped by :meth:`stop`."""

    def __init__(self, ctx: Context, index: int, traced: bool, cpu: int | None):
        self.ready = ctx.work / f"daemon{index}.ready.json"
        self.final = ctx.work / f"daemon{index}.final.json"
        self.log = ctx.work / f"daemon{index}.log"
        self.spawned_at = time.time()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "daemon_main.py"),
                 "--store", str(ctx.work / f"daemon-store{index}"),
                 "--ready", str(self.ready), "--final", str(self.final)]
                + (["--trace"] if traced else [])
                + ([] if cpu is None else ["--cpu", str(cpu)]),
                env=ctx.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=log,
            )
        self.url = None

    def wait_ready(self) -> str:
        deadline = time.monotonic() + STEP_TIMEOUT_S
        while not self.ready.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("daemon did not start: " + self.log.read_text()[-2000:])
            time.sleep(0.01)
        self.url = json.loads(self.ready.read_text())["url"]
        return self.url

    def stop(self) -> dict:
        """Stop the daemon (SIGTERM, then SIGKILL) and return its final report."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.final.exists():
            return json.loads(self.final.read_text())
        return {}


def recording_client(url: str):
    """A ``ServiceClient`` that counts its requests and keeps the last status."""
    from repro.service import ServiceClient

    class RecordingClient(ServiceClient):
        def __init__(self, base_url):
            super().__init__(base_url, timeout=30.0)
            self.requests = 0
            self.last_status = None

        def submit(self, spec):
            self.requests += 1
            return super().submit(spec)

        def status(self, job_id):
            self.requests += 1
            self.last_status = super().status(job_id)
            return self.last_status

    return RecordingClient(url)


def poll_interval(k: int) -> float:
    """Status poll interval of job ``k``: spread evenly over ``POLL_S``."""
    low, high = POLL_S
    return low + (high - low) * (k * 0.6180339887498949 % 1.0)


def prime(url: str, pool: list) -> dict:
    """Run the pool specs through the daemon; spec fingerprint → payload digest."""
    client = recording_client(url)
    ids = [client.submit(spec) for spec in pool]
    return {
        spec.fingerprint(): client.result(job_id, timeout=STEP_TIMEOUT_S,
                                          poll_s=POLL_S[0]).payload_fingerprint()
        for spec, job_id in zip(pool, ids)
    }


def closed_loop(ctx: Context, url: str, job, counter: list, primed: dict,
                seconds: float, min_jobs: int) -> list[dict]:
    """``SERVICE_CLIENTS`` threads: submit, wait for the result, repeat."""
    import checks

    lock = threading.Lock()
    records: list[dict] = []
    start = time.monotonic()

    def client_thread():
        client = recording_client(url)
        while True:
            with lock:
                elapsed = time.monotonic() - start
                if elapsed >= SERVICE_MAX_LOAD_S or (elapsed >= seconds and len(records) >= min_jobs):
                    return
                k = counter[0]
                counter[0] += 1
            spec = job(k)
            hit = k % 4 != 3
            before = client.requests
            c0 = time.time()
            t0 = time.perf_counter()
            try:
                result = client.result(client.submit(spec), timeout=STEP_TIMEOUT_S,
                                       poll_s=poll_interval(k))
            except Exception as exc:  # noqa: BLE001 - every job failure is counted, not raised
                ctx.tally.add(1, 1, f"job {k}: {type(exc).__name__}: {exc}")
                continue
            latency = time.perf_counter() - t0
            c1 = time.time()
            doc = client.last_status
            problems = []
            digest = result.payload_fingerprint()
            if hit and digest != primed[spec.fingerprint()]:
                problems.append("hit payload differs from the primed result")
            if hit != result.cache_hit:
                problems.append(f"cache_hit={result.cache_hit} for a {'hit' if hit else 'miss'}")
            inspected = checks.inspect([(result.kind, result.payload)])
            if inspected["nonfinite_fields"]:
                problems.append(f"non-finite outputs: {inspected['nonfinite_fields']}")
            ctx.tally.add(1, 1 if problems else 0, f"job {k}: {'; '.join(problems)}" if problems else None)
            with lock:
                records.append({
                    "k": k, "hit": hit, "spec": spec, "result": result, "latency_s": latency,
                    "c0": c0, "c1": c1, "done_at": time.monotonic(),
                    "submitted_at": doc["submitted_at"], "started_at": doc["started_at"],
                    "finished_at": doc["finished_at"], "requests": client.requests - before,
                    "nonfinite_std_count": inspected["nonfinite_std_count"],
                    "negative_irb_count": inspected["negative_irb_count"],
                })

    threads = [threading.Thread(target=client_thread, name=f"perfbench-client-{i}")
               for i in range(SERVICE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def compare_with_session(ctx: Context, records: list[dict], pool: list, primed: dict) -> None:
    """Sampled HTTP payloads must equal an in-process ``Session`` run, bit for bit."""
    import numpy as np
    from repro.session import Session

    rng = np.random.default_rng([ctx.seed, 2])
    picks = [pool[int(i)] for i in rng.choice(len(pool), size=2, replace=False)]
    sample = [(spec, primed[spec.fingerprint()]) for spec in picks]
    sample += [(r["spec"], r["result"].payload_fingerprint()) for r in records if not r["hit"]][:2]
    start = time.perf_counter()
    with Session(store=None, num_workers=1) as session:
        local = session.run_all([spec for spec, _ in sample])
    mismatched = sum(1 for (_, remote), result in zip(sample, local)
                     if result.payload_fingerprint() != remote)
    ctx.tally.add(len(sample), mismatched,
                  f"{mismatched} HTTP payloads differ from in-process runs" if mismatched else None)
    print(f"# http_vs_session_check: {len(sample)} specs, {mismatched} mismatched,"
          f" {time.perf_counter() - start:.3f} s (not timed)")


def run_service(ctx: Context) -> dict:
    """Timed service run, or (``--trace 1``) untraced then traced load.

    With two or more CPUs the daemon is pinned to the first and the
    client process to the others, as for a client on another host:
    unpinned, the two processes' threads migrate across both cores and
    throughput varied by a quarter from run to run.
    """
    import workloads

    pool = workloads.service_prime_specs(ctx.seed)
    job = workloads.service_jobs(ctx.seed, pool)
    cpus = sorted(os.sched_getaffinity(0))
    daemon_cpu = cpus[0] if len(cpus) >= 2 else None
    print(f"# service pinning: daemon cpu {daemon_cpu}, clients cpus {cpus[1:] or cpus}")
    if daemon_cpu is not None:
        os.sched_setaffinity(0, set(cpus[1:]))
    daemons: list[Daemon] = []
    try:
        setups, primed = [], None
        for index in range(1 if ctx.trace else SERVICE_SETUPS):
            daemon = Daemon(ctx, index, traced=ctx.trace, cpu=daemon_cpu)
            daemons.append(daemon)
            url = daemon.wait_ready()
            digests = prime(url, pool)
            setups.append(time.time() - daemon.spawned_at)
            if primed is not None and digests != primed:
                ctx.tally.add(len(pool), len(pool), "primed payloads differ between daemons")
            primed = digests
            if index < SERVICE_SETUPS - 1 and not ctx.trace:
                daemon.stop()
        daemon = daemons[-1]
        counter = [0]
        if ctx.trace:
            plain = closed_loop(ctx, daemon.url, job, counter, primed, ctx.seconds / 2, 0)
            daemon.proc.send_signal(signal.SIGUSR1)  # the daemon starts recording spans
            time.sleep(0.3)
            traced = closed_loop(ctx, daemon.url, job, counter, primed, ctx.seconds / 2, 0)
            records = plain + traced
        else:
            load_start = time.monotonic()
            records = closed_loop(ctx, daemon.url, job, counter, primed, ctx.seconds, SERVICE_MIN_JOBS)
            load_s = time.monotonic() - load_start
        client = recording_client(daemon.url)
        health, store = client.health(), client.store_stats()
        misses = sum(1 for r in records if not r["hit"])
        executions = health["sessions"].get("executions", 0)
        if executions != len(pool) + misses:
            ctx.tally.add(0, 1, f"daemon executions {executions} != {len(pool)} primed + {misses} misses")
        final = daemon.stop()
        os.sched_setaffinity(0, set(cpus))
        compare_with_session(ctx, records, pool, primed)
    finally:
        for daemon in daemons:
            daemon.stop()
        os.sched_setaffinity(0, set(cpus))
    if ctx.trace:
        ctx.traces.mkdir(exist_ok=True)
        jobs = [{key: r[key] for key in ("k", "hit", "latency_s", "c0", "c1", "submitted_at",
                                         "started_at", "finished_at", "requests")}
                for r in traced]
        with open(ctx.traces / f"service_mixed-seed{ctx.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"spans": final.get("spans", []), "jobs": jobs}, fh)
        return service_layers(plain, traced, final.get("spans", []), health, store)
    done = sorted(r["done_at"] for r in records)
    blocks = [done[i + SERVICE_BLOCK - 1] - (done[i - 1] if i else load_start)
              for i in range(0, len(done) - SERVICE_BLOCK + 1, SERVICE_BLOCK)]
    latencies = [r["latency_s"] for r in records] + [STEP_TIMEOUT_S] * ctx.tally.failed
    return {
        "setup_s": median(setups),
        "wall_s": median(blocks),
        "jobs_per_s": len(records) / load_s,
        "latency_p50_s": median(latencies),
        "latency_p99_s": percentile(latencies, 99),
        "peak_rss_mb": final.get("peak_rss_mb", 0.0),
    }


def service_layers(plain, traced, spans, health, store) -> dict:
    """Per-layer metrics of the traced load phase, attributed per job."""
    from collections import Counter

    import layers
    import tracing

    metrics = {name: 0.0 for name in layers.PER_LAYER_UNITS}
    program = layers.provenance_spans(r["result"].provenance.get("trace") for r in traced)
    metrics.update(layers.span_metrics(spans, program))
    metrics.update(layers.session_metrics(health["sessions"]))
    metrics.update(layers.store_metrics(store["stats"], store["disk"]))
    metrics["fitting.nonfinite_std_count"] = sum(r["nonfinite_std_count"] for r in plain + traced)
    metrics["irb.negative_error_count"] = sum(r["negative_irb_count"] for r in plain + traced)

    def p50(values):
        return median(list(values))

    metrics["service.queue_wait_p50_s"] = p50(r["started_at"] - r["submitted_at"] for r in traced)
    metrics["service.run_hit_p50_s"] = p50(r["finished_at"] - r["started_at"] for r in traced if r["hit"])
    metrics["service.run_miss_p50_s"] = p50(r["finished_at"] - r["started_at"] for r in traced if not r["hit"])
    metrics["service.client_overhead_p50_s"] = p50(
        r["latency_s"] - (r["finished_at"] - r["submitted_at"]) for r in traced)
    metrics["service.requests_per_job"] = p50(r["requests"] for r in traced)
    plain_mean = statistics.fmean(r["latency_s"] for r in plain) if plain else 0.0
    traced_mean = statistics.fmean(r["latency_s"] for r in traced) if traced else 0.0
    metrics["trace_overhead_ratio"] = traced_mean / plain_mean if plain_mean else 0.0

    # map each session executor thread to the worker thread whose runs contain it
    runs = [s for s in spans if s["name"].endswith("Session.run")]
    workers = {s["thread"] for s in runs}
    by_thread: dict[int, list[dict]] = {}
    for span in spans:
        by_thread.setdefault(span["thread"], []).append(span)
    executor_of = {}
    for thread, thread_spans in by_thread.items():
        if thread in workers:
            continue
        tops = [span for span in thread_spans if span["parent"] is None][:50]
        votes = Counter(
            run["thread"] for span in tops
            for run in runs if run["start"] <= span["start"] and span["end"] <= run["end"]
        )
        if votes:
            executor_of[votes.most_common(1)[0][0]] = thread
    segments = {thread: tracing.self_segments(ss) for thread, ss in by_thread.items()}
    runs_by_spec: dict[str, list[dict]] = {}
    for run in runs:
        runs_by_spec.setdefault(run["attrs"].get("spec"), []).append(run)

    totals = {layer: 0.0 for layer in tracing.LAYERS}
    unattributed = latency_sum = 0.0
    for r in traced:
        c0, c1 = r["c0"], r["c1"]
        submitted = min(max(r["submitted_at"], c0), c1)
        started = min(max(r["started_at"], submitted), c1)
        finished = min(max(r["finished_at"], started), c1)
        latency_sum += c1 - c0
        totals["service"] += (submitted - c0) + (c1 - finished) + (started - submitted)
        candidates = [run for run in runs_by_spec.get(r["spec"].fingerprint(), ())
                      if run["start"] >= started - 1e-3 and run["end"] <= finished + 1e-3]
        if not candidates:
            unattributed += finished - started
            continue
        run = max(candidates, key=lambda span: span["end"] - span["start"])
        worker = run["thread"]
        job_program = layers.provenance_spans([r["result"].provenance.get("trace")])
        lanes = [
            segments.get(executor_of.get(worker), []),
            [(s["start"], s["end"], "session") for s in job_program],
            [(run["start"], run["end"], "session")],
            [seg for seg in segments.get(worker, []) if seg[2] == "service"],
        ]
        shares, rest = tracing.priority_partition((started, finished), lanes)
        for layer, value in shares.items():
            totals[layer] += value
        unattributed += rest
    metrics.update(layers.self_time_metrics(totals, unattributed))
    metrics["traced_latency_sum_s"] = latency_sum
    return metrics


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the pulse pipeline.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the program's REPRO_* switches (result cache, batching, trace file, ...)
    # stay at their defaults, whatever the calling shell sets
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    ctx = Context(args)
    for key, value in environment().items():
        print(f"# {key}: {value}")
    ctx.work.mkdir(parents=True, exist_ok=True)
    try:
        measured = run_service(ctx) if ctx.workload == "service_mixed" else run_batch(ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            ctx.work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    if ctx.trace:
        import layers

        units = {**layers.PER_LAYER_UNITS, "traced_wall_s": "s", "traced_latency_sum_s": "s"}
        names = list(layers.PER_LAYER_UNITS)
    else:
        units, names = E2E_UNITS, list(E2E_UNITS)
    for name, value in measured.items():
        print(f"{name:34s} {value:.6g} {units.get(name, '')}")
    tally = ctx.tally
    print(f"{'failed_ratio':34s} {tally.failed / max(tally.attempted, 1):.6g} ratio"
          f" ({tally.failed} of {tally.attempted} jobs)")
    for problem in tally.problems[:20]:
        print(f"# problem: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": measured[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
