"""Each module of the package imports first in a fresh interpreter.

Importing `madic.x` runs `madic/__init__.py` first, which imports the
modules in its own order, so each module is imported under a bare package
instead: it then runs first, and an import cycle that only some orders hit
fails in one of the cases.  `__main__` runs the command line when imported
and is left out.

`poly` imports the product and substitution kernels from `series`, and
`series` imports nothing of `poly`: an import back would be a cycle that
only some import orders hit.  Both classes print, compare and build their
`terms` view through their base, `fields.ExactForm`, and `fields` imports
nothing of the package but `errors`.

No module of the package or of the tests imports a name at top level that
it never reads; `madic/__init__.py`, whose imports are the package's
namespace, is left out.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent

# (module path, name) of top-level imports kept though the module reads
# them nowhere: solver's `prepare` stays until ROADMAP item 4 points the
# benchmark's tracer test at `weierstrass.prepare`
UNREAD_IMPORTS = {("src/madic/solver.py", "prepare")}


MODULES = sorted(
    "madic" if path.stem == "__init__" else f"madic.{path.stem}"
    for path in (SRC / "madic").glob("*.py")
    if path.stem != "__main__"
)


# an empty package in place of madic/__init__.py
BARE = "import types; bare = types.ModuleType('madic'); bare.__path__ = [{!r}]; sys.modules['madic'] = bare; "


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    bare = "" if module == "madic" else BARE.format(str(SRC / "madic"))
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); {bare}import {module}"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _unread_imports(path):
    """The names that top-level imports of `path` bind and no code in it
    reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_no_module_imports_a_name_it_never_reads():
    root = SRC.parent
    paths = [p for p in sorted((SRC / "madic").glob("*.py")) if p.name != "__init__.py"]
    unread = {
        (path.relative_to(root).as_posix(), name)
        for path in paths + sorted(TESTS.glob("*.py"))
        for name in _unread_imports(path)
    }
    assert unread == UNREAD_IMPORTS
