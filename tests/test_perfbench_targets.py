"""The benchmark's tracer finds every library name it times or counts.

perfbench/tracing.py skips a span target or counted operator it cannot
resolve, says so only on stderr, and the metrics of that name then read
zero.  These tests fail instead when a library change drops or renames one.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    """perfbench/tracing.py as a module, loaded without writing bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_span_targets_resolve(tracing):
    missing = []
    for layer, names in tracing.SPAN_TARGETS.items():
        module = importlib.import_module(f"so3five.{layer}")
        for name in names:
            try:
                tracing._resolve(module, name)
            except (AttributeError, KeyError):
                missing.append(f"{layer}.{name}")
    assert missing == []


def test_counted_operators_resolve(tracing):
    missing = []
    for metric, (layer, cls_name, methods) in tracing.COUNTED.items():
        cls = getattr(importlib.import_module(f"so3five.{layer}"), cls_name,
                      None)
        missing += [f"{metric}: {cls_name}.{m}" for m in methods
                    if cls is None or m not in vars(cls)]
    assert missing == []
