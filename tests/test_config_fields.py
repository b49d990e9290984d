"""Every `SolverConfig` field is read by the library.

A field that `src/madic` never reads is a setting that silently does
nothing; the guard finds each field as an attribute load somewhere in
`src/madic` outside the class that declares it.
"""

import ast
import dataclasses
from pathlib import Path

from madic.solver import SolverConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "madic"


def _attribute_loads():
    names = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = {
            id(n)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "SolverConfig"
            for n in ast.walk(cls)
        }
        names.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in skip
        )
    return names


def test_every_solver_config_field_is_read():
    loads = _attribute_loads()
    unread = [f.name for f in dataclasses.fields(SolverConfig) if f.name not in loads]
    assert unread == []
