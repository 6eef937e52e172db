"""Every cclab module exports only names it defines and imports only names
it uses, so dead code cannot hide behind a stale export or import."""

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
