"""One workload in its own process: set up, signal readiness, measure.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and
SO3FIVE_TOL removed from the environment.  Prints ``READY <seconds>`` on
stdout once set-up (interpreter start, imports, model files, one warm-up
request) is done, counting from the ``--spawned-at`` wall-clock time; with
``--mode setup`` it exits there.  Otherwise it prints one JSON line with
the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

def execute(main, req):
    """Run one request in-process; return (seconds, failure reason)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(req.argv))
    except Exception as e:  # a traceback is a failed request, not a crash
        return time.perf_counter() - t0, f"raised {type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    why = req.check(rc, out.getvalue())
    if why is not None and err.getvalue().strip():
        why += f" ({err.getvalue().strip()[-200:]})"
    return dt, why


def nearest_rank(sorted_values, q):
    """The q-quantile by the nearest-rank rule: never interpolates."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def timed_loop(main, requests, seconds):
    """Closed loop, one client: whole passes over the request list while
    the next pass is expected to end within `seconds` (at least one).

    The percentiles are taken within each pass and their median over the
    passes is reported, so they do not drift with the number of passes
    (a pooled p90 over k passes would be the lowest of k executions of
    the slowest request).  The rate counts the time spent inside the CLI,
    not the harness's checks between requests.
    """
    passes, failures = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        lat = []
        for req in requests:
            dt, why = execute(main, req)
            lat.append(dt)
            if why is not None:
                failures.append(f"{req.label}: {why}")
        passes.append(sorted(lat))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    attempted = len(requests) * len(passes)
    ok = attempted - len(failures)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "passes": len(passes),
        "elapsed_s": now - start,
        "metrics": {
            "requests_per_s": ok / sum(map(sum, passes)),
            "latency_p50_s": statistics.median(
                statistics.median(lat) for lat in passes),
            "latency_p90_s": statistics.median(
                nearest_rank(lat, 0.9) for lat in passes),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": ok / attempted,
        },
    }


def traced_run(main, requests, spans_path):
    """The request list once untraced, then once traced (see tracing.py)."""
    from tracing import Tracer

    t0 = time.perf_counter()
    for req in requests:
        execute(main, req)
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    failures = []
    tracer.install()
    try:
        cli_module = sys.modules["so3five.cli"]
        t0 = time.perf_counter()
        for rid, req in enumerate(requests):
            tracer.begin_request(rid)
            # look main up again: the installer replaced it with a wrapper
            _, why = execute(cli_module.main, req)
            if why is not None:
                failures.append(f"{req.label}: {why}")
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(len(requests), untraced_s, traced_s)
    tracer.write_spans(spans_path)
    return {
        "attempted": len(requests),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--mode", choices=("setup", "run"), default="run")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.time() just before this process was started")
    args = p.parse_args(argv)

    import so3five.cli
    import so3five.scalar
    import workloads

    os.makedirs(args.workdir)
    try:
        requests, warmup = workloads.build(args.workload, args.seed,
                                           args.workdir)
        _, why = execute(so3five.cli.main, warmup)
        if why is not None:
            print(f"warm-up request failed: {why}", file=sys.stderr)
            return 1
        print(f"READY {time.time() - args.spawned_at!r}", flush=True)
        if args.mode == "setup":
            return 0
        if args.trace:
            result = traced_run(so3five.cli.main, requests, args.spans)
        else:
            result = timed_loop(so3five.cli.main, requests, args.seconds)
        result["info"] = {
            "so3five": os.path.dirname(so3five.cli.__file__),
            "SO3FIVE_TOL": os.environ.get("SO3FIVE_TOL"),
            "tolerance": so3five.scalar.get_tol(),
            "requests": len(requests),
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
