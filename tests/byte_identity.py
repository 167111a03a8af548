#!/usr/bin/env python3
"""Write the outputs of the byte-identity set to a directory.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 tests/byte_identity.py OUTDIR

Run it in two checkouts and compare with ``diff -r OUTDIR1 OUTDIR2``.  The
set is:

- the 111 ``classify``/``cr`` requests of the ``classify-exact``,
  ``cr-exact`` and ``float-mixed`` workloads at seeds 1-3, built by
  ``perfbench/workloads.py`` and run in one process through
  ``so3five.cli.main``;
- ``selftest`` at seeds 0, 1, 3 and 7, each at the default tolerance, at
  ``--tol 1e-16`` and at ``--tol 1e-10``;
- the three scripts in ``demos/``, each in its own interpreter.

Each output file holds the exit code, then stdout, then stderr.  Model
paths are written as ``MODEL`` so that two work directories compare equal.
SO3FIVE_TOL is removed from the environment first.  pytest does not
collect this file.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("classify-exact", "cr-exact", "float-mixed")
SEEDS = (1, 2, 3)
SELFTEST_SEEDS = ("0", "1", "3", "7")
SELFTEST_TOLS = ((), ("--tol", "1e-16"), ("--tol", "1e-10"))


def _record(code, out, err):
    return f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"


def _run_cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _write(outdir, name, text):
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: byte_identity.py OUTDIR")
    outdir = argv[0]
    os.makedirs(outdir, exist_ok=True)
    os.environ.pop("SO3FIVE_TOL", None)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    from so3five.cli import main as cli_main

    count = 0
    with tempfile.TemporaryDirectory() as work:
        for name in WORKLOADS:
            for seed in SEEDS:
                seed_dir = os.path.join(work, f"{name}-{seed}")
                os.mkdir(seed_dir)
                requests, _warmup = workloads.build(name, seed, seed_dir)
                for i, req in enumerate(requests):
                    code, out, err = _run_cli(cli_main, req.argv)
                    argv = " ".join(a if not a.startswith(seed_dir)
                                    else "MODEL" for a in req.argv)
                    text = _record(code, out, err).replace(
                        seed_dir + os.sep, "MODEL/")
                    _write(outdir, f"{name}_seed{seed}_{i:02d}.txt",
                           f"{argv}\n{text}")
                    count += 1
    for seed in SELFTEST_SEEDS:
        for tol in SELFTEST_TOLS:
            argv = ("selftest", "--seed", seed, *tol)
            suffix = "_tol" + tol[1] if tol else ""
            _write(outdir, f"selftest_seed{seed}{suffix}.txt",
                   " ".join(argv) + "\n"
                   + _record(*_run_cli(cli_main, argv)))
            count += 1
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    demos = os.path.join(ROOT, "demos")
    for script in sorted(f for f in os.listdir(demos) if f.endswith(".py")):
        run = subprocess.run([sys.executable, os.path.join(demos, script)],
                             capture_output=True, text=True, env=env,
                             timeout=600)
        _write(outdir, f"demo_{script[:-3]}.txt",
               _record(run.returncode, run.stdout, run.stderr))
        count += 1
    print(f"{count} outputs written to {outdir}")


if __name__ == "__main__":
    main(sys.argv[1:])
