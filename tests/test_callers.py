"""Everything in `src/madic` is used by the library, and only `fields`
imports `fractions`.

A top-level function counts as used when some code in `src/madic` outside
its own body reads its name (a call, a reference or an attribute), and a
method when such code reads it as an attribute: a local variable or an
imported function of the same spelling is not a read of the method.  The
interpreter calls the dunder methods.  A parameter with a
default counts as used when some call in `src/madic` of a function of that
name passes it, by keyword or by position, with a value other than a bare
parameter of the calling function that is itself unused.  What no library
code uses but callers of the library may is the public API that the README
names, `PUBLIC_API` here.  Anything else that only tests use belongs on the
test side.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "madic"

# module.qualified name -> the parameters with a default that are public
# too; the README's "Public API" section lists the same
PUBLIC_API = {
    "bounds.unit_a_fn": (),
    "bounds.isolated_singularity_bound": ("inner_constant",),
    "cli.main": ("argv",),
    "fields.PrimeField.add": (),
    "fields.PrimeField.sub": (),
    "fields.RationalField.add": (),
    "fields.RationalField.sub": (),
    "groebner.normal_form": ("order",),
    "poly.Polynomial.subs": (),
    "solver.OneVarSystem.from_univariate": (),
    "weierstrass.generic_euclid": (),
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _names_read(node, skip, method):
    """The names read under `node`, outside the nodes in `skip`: as an
    Attribute, and for anything but a `method` as a Name too."""
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n in skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and not method:
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return out


def _functions(trees):
    """(module.qualified name, name a call uses, def) of every top-level
    function and method; a call of `__init__` names its class."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{module}.{node.name}", node.name, node
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        called = node.name if fn.name == "__init__" else fn.name
                        yield f"{module}.{node.name}.{fn.name}", called, fn


def _defaulted(fn, bound):
    """{name: position in a call, None for keyword-only} of the parameters
    of `fn` with a default; `bound` drops self or cls from the positions."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    out = {p.arg: i - bound for i, p in enumerate(pos) if i >= first}
    out.update({p.arg: None for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
    return out


def _calls(trees, owners):
    """(called name, call, innermost enclosing def of `owners` or None) of
    every call in the package."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                out.append((name, child, owner))
            visit(child, child if child in owners else owner)

    for tree in trees.values():
        visit(tree, None)
    return out


def _passed(call, name, position):
    """The value `call` passes for parameter `name` at `position`: None
    when it passes none, and the call itself when it cannot tell (a
    starred argument)."""
    for kw in call.keywords:
        if kw.arg is None:
            return call
        if kw.arg == name:
            return kw.value
    if position is None:
        return None
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return call
        if i == position:
            return arg
    return None


def _unused(trees):
    """Functions, methods and defaulted parameters that nothing in the
    package uses, outside PUBLIC_API."""
    functions = list(_functions(trees))
    unused = []
    for qual, _, fn in functions:
        short = fn.name
        dunder = short.startswith("__") and short.endswith("__")
        if not dunder and qual not in PUBLIC_API:
            method = qual.count(".") == 2
            if not any(short in _names_read(tree, {fn}, method) for tree in trees.values()):
                unused.append(qual)
    # a parameter stays unused while every value passed for it is a bare
    # unused parameter of the caller, forwarded; an unused function's
    # parameters go with it
    calls = _calls(trees, {fn for _, _, fn in functions})
    values = {}
    for qual, called, fn in functions:
        if qual in unused:
            continue
        # a method's call binds self or cls
        for name, position in _defaulted(fn, qual.count(".") == 2).items():
            if name in PUBLIC_API.get(qual, ()):
                continue
            passed = [(_passed(call, name, position), owner) for c, call, owner in calls if c == called and owner is not fn]
            values[fn, name] = (qual, [(v, owner) for v, owner in passed if v is not None])
    left = set(values)
    changed = True
    while changed:
        changed = False
        for key in list(left):
            if any(not (isinstance(v, ast.Name) and (owner, v.id) in left) for v, owner in values[key][1]):
                left.discard(key)
                changed = True
    unused += [f"{values[fn, name][0]}({name})" for fn, name in left]
    return sorted(unused)


def test_everything_in_the_library_has_a_reader_or_is_public_api():
    assert _unused(_trees()) == []


def test_public_api_names_what_the_package_defines():
    functions = {qual: fn for qual, _, fn in _functions(_trees())}
    for qual, params in PUBLIC_API.items():
        assert qual in functions, qual
        assert set(params) <= set(_defaulted(functions[qual], False)), qual


def test_the_readme_lists_the_public_api():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- `([\w.]+)(?:\(([^)]*)\))?`", section, re.M)
    listed = {name: tuple(p.strip().split("=")[0] for p in args.split(",") if "=" in p) for name, args in items}
    assert listed == PUBLIC_API


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
    assert importers == ["fields"]
