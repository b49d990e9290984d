"""Each public module imports first in a fresh interpreter.

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


MODULES = ["madic.fields", "madic.poly", "madic.series", "madic.weierstrass", "madic.solver", "madic.cli"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import {module}"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
