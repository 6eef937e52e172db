"""Every cclab module exports only names it defines and imports only names
it uses, and every definition is reached from an experiment, module-level
code or a named entry point, so dead code cannot hide behind a stale export
or import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cclab

MODULES = sorted(m.name for m in pkgutil.iter_modules(cclab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"cclab.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []
    exec(f"from cclab.{name} import *", {})


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_module_imports(name):
    tree = ast.parse((Path(cclab.__file__).parent / f"{name}.py").read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("name", MODULES)
def test_inverse_transforms_run_in_place(name):
    """Every inverse transform (ifftn, irfftn and the one-axis ifft and
    irfft) passes out=: at 256^2 a fresh output array per transform costs
    more than the transform itself."""
    tree = ast.parse((Path(cclab.__file__).parent / f"{name}.py").read_text())
    fresh = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in {"ifftn", "irfftn", "ifft", "irfft"}
             and "out" not in {k.arg for k in node.keywords}]
    assert fresh == []


def _imports_cclab(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "cclab"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "cclab" for alias in node.names)


@pytest.mark.parametrize("name", MODULES)
def test_no_function_local_cclab_imports(name):
    """cclab modules import each other at module level, where the
    unused-import check above can see the names."""
    tree = ast.parse((Path(cclab.__file__).parent / f"{name}.py").read_text())
    local = sorted({node.lineno for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for node in ast.walk(fn) if _imports_cclab(node)})
    assert local == []


def _iterates_coeffs(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "items"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "coeffs")


@pytest.mark.parametrize("name", [m for m in MODULES if m != "symbol"])
def test_symbol_loops_over_coefficients_only_in_symbol(name):
    """The monomial sum A(xi) = sum A_alpha xi^alpha is written once, in
    symbol.evaluate, which takes any stack of frequencies: no other module
    runs a for loop over an operator's coefficients."""
    tree = ast.parse((Path(cclab.__file__).parent / f"{name}.py").read_text())
    loops = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.For, ast.AsyncFor))
             and _iterates_coeffs(node.iter)]
    assert loops == []


# Names that no experiment reaches but that code outside src/ binds, each
# with the reason it stays.
ENTRY_POINTS = {
    "apply_symbol": "bench/tracing.py wraps it; tests build A*-range fields",
    "trig_integral": "bench/tracing.py wraps it; bench/workloads.py calls it",
    "poisson_slab": "bench/tracing.py wraps it (the reference slab route)",
    "slab_derivatives": "bench/tracing.py wraps it (the reference slab route)",
    "helmholtz": "bench/tracing.py wraps it",
    "lipschitz_truncate": "bench/tracing.py wraps it",
    "case3_norm_audit": "an acceptance test calls it",
    "adjoint_symbol": "tests build their A*-range fields and reference "
                      "Helmholtz split with it",
}


def _outside_modules(tree):
    """Names bound to modules from outside cclab (np, math, integrate)."""
    return {(alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and not _imports_cclab(node))
            for alias in node.names}


def _references(nodes, outside):
    """Names and attributes the nodes read; an attribute of an outside
    module (np.stack) is not a reference (to TrigPoly.stack)."""
    names, skip = set(), set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Attribute) and id(node) not in skip:
            chain, base = [], node  # ast.walk meets a chain's outer end first
            while isinstance(base, ast.Attribute):
                skip.add(id(base))
                chain.append(base.attr)
                base = base.value
            if not (isinstance(base, ast.Name) and base.id in outside):
                names.update(chain)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _definitions():
    """({name: [(qualified name, names its body reads)]}, roots) over
    src/cclab/*.py.  The definitions are module-level functions, classes and
    constants, and methods; a class's body holds its decorators, bases,
    class-level statements and dunder methods.  The roots are the names that
    module-level code reads and the runners registered with @_experiment."""
    defs, roots = {}, set()
    for name in MODULES:
        tree = ast.parse((Path(cclab.__file__).parent / f"{name}.py").read_text())
        outside = _outside_modules(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                body = [node]
                if isinstance(node, ast.ClassDef):
                    body = node.decorator_list + node.bases
                    for item in node.body:
                        if (isinstance(item, ast.FunctionDef)
                                and not item.name.startswith("__")):
                            defs.setdefault(item.name, []).append(
                                (f"{name}.{node.name}.{item.name}",
                                 _references([item], outside)))
                        else:
                            body.append(item)
                defs.setdefault(node.name, []).append(
                    (f"{name}.{node.name}", _references(body, outside)))
                if any(isinstance(d, ast.Call) and getattr(d.func, "id", "")
                       == "_experiment" for d in node.decorator_list):
                    roots.add(node.name)
            elif (isinstance(node, ast.Assign) and all(
                    isinstance(t, (ast.Name, ast.Tuple)) for t in node.targets)):
                targets = [n.id for t in node.targets for n in ast.walk(t)
                           if isinstance(n, ast.Name)]
                roots |= _references([node.value], outside)
                for target in targets:
                    if not target.startswith("__"):
                        defs.setdefault(target, []).append(
                            (f"{name}.{target}", set()))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _references([node], outside)  # run at import
    return defs, roots


def _closure(defs, names):
    """The names reached from names through the bodies they define."""
    reached, todo = set(), set(names)
    while todo:
        name = todo.pop()
        reached.add(name)
        for _, refs in defs.get(name, ()):
            todo |= refs - reached
    return reached


def test_every_definition_is_reached():
    """Every definition in src/cclab is reached from module-level code, a
    runner registered with @_experiment or a name in ENTRY_POINTS, through
    the names that reached bodies read; and ENTRY_POINTS names only
    definitions that nothing else reaches."""
    defs, roots = _definitions()
    reached = _closure(defs, roots | set(ENTRY_POINTS))
    unreached = sorted(q for name, entries in defs.items()
                       if name not in reached for q, _ in entries)
    assert not unreached, "unreached: " + ", ".join(unreached)
    assert set(ENTRY_POINTS) <= set(defs)
    assert sorted(set(ENTRY_POINTS) & _closure(defs, roots)) == []
