"""Smoke test: every script in demos/ runs to completion."""

import os
import subprocess
import sys

import pytest

import so3five

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "demos")


@pytest.mark.parametrize("script", sorted(
    f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(script):
    # PYTHONPATH points the child at the same so3five the parent imported,
    # whether it comes from a source tree or an installed package
    pkg_root = os.path.dirname(os.path.dirname(so3five.__file__))
    env = dict(os.environ, PYTHONPATH=pkg_root)
    env.pop("SO3FIVE_TOL", None)
    out = subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                         capture_output=True, text=True, env=env,
                         timeout=300)
    assert out.returncode == 0, out.stderr
