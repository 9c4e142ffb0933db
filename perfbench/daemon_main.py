"""The experiment-service daemon of the ``service_mixed`` workload.

Usage (started by ``run.py``; the repository's ``src`` and this directory
must be on ``PYTHONPATH``)::

    python3 perfbench/daemon_main.py --store DIR --ready READY.json \\
        --final FINAL.json [--trace] [--cpu N]

Runs an open-auth ``ExperimentService`` (thread mode, 2 workers, ephemeral
port) over the store ``DIR`` (on one CPU with ``--cpu``), writes
``{"url", "pid"}`` to ``--ready`` once it serves, and runs until SIGTERM.  It then stops the service and
writes its peak RSS (and, with ``--trace``, the recorded layer spans) to
``--final``.  With ``--trace`` the layer wrappers are installed at start
but record nothing until the process receives SIGUSR1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import threading


def _write_json(path: str, document: dict) -> None:
    """Write atomically, so the reader never sees a partial file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--ready", required=True)
    parser.add_argument("--final", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int, default=None, help="pin the daemon to this CPU")
    args = parser.parse_args(argv)

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())

    from repro.service.daemon import ExperimentService, ServiceConfig
    from repro.service.queue import JobQueue

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(run_id=f"daemon-{os.getpid()}")
        tracer.enabled = False
        tracing.install_layer_wrappers(tracer)
        tracer.wrap(JobQueue, "complete", "service")
        signal.signal(signal.SIGUSR1, lambda signum, frame: setattr(tracer, "enabled", True))

    service = ExperimentService(ServiceConfig(
        host="127.0.0.1", port=0, store=args.store, workers=2, worker_mode="thread",
        no_auth=True,
    ))
    service.start()
    try:
        _write_json(args.ready, {"url": service.url, "pid": os.getpid()})
        while not stop.wait(0.2):
            pass
    finally:
        service.stop()
    _write_json(args.final, {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer is not None else [],
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
