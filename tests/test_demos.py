"""Smoke test: every script in demos/ runs to completion, and the two that
read SO3FIVE_TOL stop with one line when it is not a tolerance."""

import os
import subprocess
import sys

import pytest

import so3five

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "demos")


def run_demo(script, tol):
    """The demo run with SO3FIVE_TOL set to tol, or unset when tol is None."""
    # PYTHONPATH points the child at the same so3five the parent imported,
    # whether it comes from a source tree or an installed package
    pkg_root = os.path.dirname(os.path.dirname(so3five.__file__))
    env = dict(os.environ, PYTHONPATH=pkg_root)
    env.pop("SO3FIVE_TOL", None)
    if tol is not None:
        env["SO3FIVE_TOL"] = tol
    return subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                          capture_output=True, text=True, env=env,
                          timeout=300)


@pytest.mark.parametrize("script", sorted(
    f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(script):
    out = run_demo(script, None)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("tol", ["abc", "-1", "nan"])
@pytest.mark.parametrize("script", ["catalog_walkthrough.py",
                                    "flat_and_twistor.py"])
def test_a_bad_tolerance_stops_a_demo_with_one_line(script, tol):
    out = run_demo(script, tol)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == \
        f"error: SO3FIVE_TOL must be a finite number >= 0, not {tol!r}\n"
