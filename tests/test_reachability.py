"""The library holds only what runs.

Every public module-level function and class of so3five, and every public
method and class-body attribute (such as an Analysis stage or a dataclass
field) of a public class, is named in src/ outside its own definition, or
in perfbench/, demos/ or tests/test_acceptance.py.  Names match by
identifier (a method by its bare name), in code and in string constants
such as perfbench's span targets, but not in docstrings.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def names_in(tree):
    """How often tree names each identifier, docstrings left out."""
    out = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def assigned_names(item):
    """The names a class-body statement binds by assignment."""
    if isinstance(item, ast.Assign):
        return [t.id for t in item.targets if isinstance(t, ast.Name)]
    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
        return [item.target.id]
    return []


def public_definitions(tree):
    """(qualified name, name, node) of each public function, class, method
    and class-body attribute."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield node.name, node.name, node
        for item in node.body if isinstance(node, ast.ClassDef) else []:
            names = [item.name] if isinstance(item, ast.FunctionDef) \
                else assigned_names(item)
            for name in names:
                if not name.startswith("_"):
                    yield f"{node.name}.{name}", name, item


def test_every_public_name_is_reached():
    library = {p.stem: ast.parse(p.read_text())
               for p in sorted((ROOT / "src" / "so3five").glob("*.py"))}
    in_library = sum(map(names_in, library.values()), Counter())
    roots = [*ROOT.glob("perfbench/*.py"), *ROOT.glob("demos/*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    outside = sum((names_in(ast.parse(p.read_text())) for p in roots),
                  Counter())
    unreached = [
        f"{module}.{qualname}"
        for module, tree in library.items()
        for qualname, name, node in public_definitions(tree)
        # uses inside the definition itself do not count
        if not outside[name] and in_library[name] == names_in(node)[name]]
    assert unreached == []
