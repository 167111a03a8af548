"""so3five benchmark: in-process CLI requests on generated model files.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of classify-exact, cr-exact, float-mixed, selftest (see
workloads.py and perfbench/README.md).  Each workload runs in its own
worker process against ``src/`` through PYTHONPATH, with SO3FIVE_TOL
removed so the library's default tolerance applies.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a separate traced run.  The line before it records the run's details
(sample count, passes, tolerance used, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("classify-exact", "cr-exact", "float-mixed", "selftest")
SETUP_SAMPLES = 3          # set-up is measured this many times per run
DEADLINE_S = 175           # the whole invocation, all worker processes
END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "frac"),
)


class BenchError(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ)
    env.pop("SO3FIVE_TOL", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # set and dict orders, hence operation counts, repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(root, args, mode, deadline, tag, spans=None):
    """Run one worker to completion; return its stdout lines and its
    set-up time, from just before the process is started to READY."""
    workdir = os.path.join(root, ".perfbench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}-{tag}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--spawned-at", repr(time.time())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(root), cwd=root)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker ran past the deadline") from None
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines
             if line.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return lines, ready[0]


def run_workload(root, args):
    """(info, result line) for one workload."""
    deadline = time.monotonic() + DEADLINE_S
    setup = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            setup.append(spawn(root, args, "setup", deadline, f"s{i}")[1])
    spans = None
    if args.trace:
        out = os.path.join(root, ".perfbench_out")
        os.makedirs(out, exist_ok=True)
        spans = os.path.join(out, f"spans-{args.workload}-{args.seed}.json")
    lines, ready = spawn(root, args, "run", deadline, "run", spans)
    setup.append(ready)
    res = json.loads(lines[-1])
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, **res.get("info", {}),
            "samples": res["attempted"], "failures": res["failures"]}
    if args.trace:
        metrics = res["metrics"]
        info["spans_file"] = os.path.relpath(spans, root)
    else:
        values = dict(res["metrics"], setup_s=statistics.median(setup))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        info.update(passes=res["passes"], elapsed_s=res["elapsed_s"],
                    setup_samples_s=setup)
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return info, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "so3five", "cli.py")):
        print("run.py: no src/so3five here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    for name in names:
        args.workload = name
        try:
            info, result = run_workload(root, args)
        except BenchError as e:
            print(f"run.py: {name}: {e}", file=sys.stderr)
            return 1
        print(json.dumps(info))
        if len(names) > 1:
            for metric, mv in result["metrics"].items():
                print(f"{name:15s} {metric:36s} {mv['value']:.6g} "
                      f"{mv['unit']}")
        summary[name] = result
    print(json.dumps(summary[names[0]] if len(names) == 1 else summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
