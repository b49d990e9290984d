"""Each module of the package imports first in a fresh interpreter.

Importing `madic.x` runs `madic/__init__.py` first, which imports the
modules in its own order, so each module is imported under a bare package
instead: it then runs first, and an import cycle that only some orders hit
fails in one of the cases.  `__main__` runs the command line when imported
and is left out.

`poly` imports the product and substitution kernels from `series`, and
`series` imports `poly` only inside `TruncatedSeries.to_polynomial`; a
module-level import back would be a cycle that only some import orders hit.
`series` builds its `terms` view and its stored form with helpers of
`fields`, which imports nothing of the package but `errors`.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


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
