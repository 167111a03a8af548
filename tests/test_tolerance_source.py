"""The library reads no process-wide tolerance.

Every tolerance is an argument that defaults to scalar.DEFAULT_TOL.  Only
scalar.py, which defines get_tol, and cli.py, which reads the tolerance
once per invocation, may name it or the SO3FIVE_TOL variable it reads.
This reads the sources as text, so a fallback to the global cannot creep
back in.
"""

import ast
import re
from pathlib import Path

import so3five

SRC = Path(so3five.__file__).parent
GLOBAL = re.compile(r"\b(get_tol|SO3FIVE_TOL)\b")
NONE_DEFAULT = re.compile(r"\w*tol\s*(:[^=,)]*)?=\s*None\b|\w*tol\s*:[^=,)]*\bNone\b")
LITERAL_DEFAULT = re.compile(r"\w*tol\s*(:[^=,)]*)?=\s*1e-9\b")


def _sources():
    return sorted(SRC.glob("*.py"))


def _definition_lines(path):
    """Lines of scalar.py that define get_tol."""
    tree = ast.parse(path.read_text())
    lines = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "get_tol":
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def test_only_scalar_and_cli_name_the_global_tolerance():
    stray = []
    for path in _sources():
        if path.name == "cli.py":
            continue
        allowed = _definition_lines(path) if path.name == "scalar.py" else ()
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if GLOBAL.search(line) and n not in allowed:
                stray.append(f"{path.name}:{n}: {line.strip()}")
    assert not stray, "\n".join(stray)


def test_no_tolerance_defaults_to_none_or_a_literal():
    stray = []
    for path in _sources():
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if NONE_DEFAULT.search(line) or LITERAL_DEFAULT.search(line):
                stray.append(f"{path.name}:{n}: {line.strip()}")
    assert not stray, "\n".join(stray)


def test_the_guard_sees_a_fallback():
    assert GLOBAL.search("    t = get_tol() if tol is None else tol")
    assert GLOBAL.search('    t = float(os.environ["SO3FIVE_TOL"])')
    assert not GLOBAL.search("    cr_tol = max(tol, 1e-12)")
    assert NONE_DEFAULT.search("def f(model, tol=None):")
    assert NONE_DEFAULT.search("def f(x, tol: float | None = None):")
    assert LITERAL_DEFAULT.search("def f(x, tol: float = 1e-9):")
    assert not NONE_DEFAULT.search('    p.add_argument("--tol", default=None)')
