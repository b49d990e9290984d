"""Every function the benchmark's tracer patches by name still exists.

`perfbench/tracer.py` wraps the layer functions listed in its TRACED table
by module and attribute name.  A rename or a wrapper that hides the code
object would break traced benchmark runs without failing any other test.
"""

import importlib
import importlib.util
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_targets_are_plain_functions():
    tracer = _load_tracer()
    assert tracer.TRACED
    for name, module, attr in tracer.TRACED:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert type(owner) is types.FunctionType, (name, module, attr)
        assert hasattr(owner, "__code__"), (name, module, attr)
    # the tracer's own lookup resolves every entry to a distinct code object
    assert len(tracer.code_names()) == len(tracer.TRACED)
