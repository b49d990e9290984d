"""Every top-level function of `src/madic` is used by the library, and
only `fields` imports `fractions`.

A function counts as used when some code in `src/madic` outside its own
body reads its name (a call, a reference or an attribute), or when
`madic/__init__.py` exports it as public API.  A function that only tests
call belongs on the test side.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "madic"


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _names_read(node, skip):
    """The names read as a Name or an Attribute under `node`, outside the
    nodes in `skip`."""
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n in skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return out


def test_every_top_level_function_has_a_caller_or_is_exported():
    trees = _trees()
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = []
    for name, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name in exported:
                continue
            if not any(fn.name in _names_read(other, {fn}) for other in trees.values()):
                unused.append(f"{name}:{fn.name}")
    assert unused == []


def test_only_fields_imports_fractions():
    # polynomials and series hold integer numerators over one denominator;
    # Fractions are the fields' elements, built only for the `terms` views
    importers = sorted(
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "fractions"
        or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
    )
    assert importers == ["fields.py"]
