"""Fixtures shared by the test modules."""

from collections import Counter

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, names) wraps each named function of module in a
    call counter and returns the Counter, keyed by name, that they fill."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(module, names):
        for name in names:
            monkeypatch.setattr(module, name,
                                counting(name, getattr(module, name)))
        return calls

    return install
