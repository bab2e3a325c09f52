from __future__ import annotations

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import fpharmonics

PACKAGE_DIR = Path(fpharmonics.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) for each imported name that the scope holding the
    import (the module, or the function for a local import) never reads."""
    tree = ast.parse(source)
    scope_of = {}
    for scope in [tree] + [n for n in ast.walk(tree)
                           if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]:
        for node in ast.walk(scope):
            scope_of[node] = scope  # inner functions are walked later and win
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        scope = scope_of[node]
        names = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in names:
                unused.append((node.lineno, bound))
    return unused


def test_detector_sees_module_and_local_imports():
    source = ("import json\nfrom typing import Optional, Union\n"
              "def f(x: Optional[int]):\n    from math import pi, tau\n    return pi\n"
              "def g():\n    return tau\n")
    assert unused_imports(source) == [(1, "json"), (2, "Union"), (4, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# -- the functions perfbench times by name ----------------------------------------

PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_timed_names_resolve():
    # the traced run wraps these by (module, name): a renamed function would
    # read as a zero time instead of failing
    targets = set(_perfbench_module("tracing").PRIVATE_TARGETS)
    for keys in _perfbench_module("metrics").MEAN_SELF_MS.values():
        targets |= set(keys)
    assert ("ramsey", "_lambda_direct") in targets
    for layer, name in sorted(targets):
        module = importlib.import_module(f"fpharmonics.{layer}")
        if (layer, name) == ("field", "grid"):
            assert inspect.isfunction(module.FieldCtx.grid)
            continue
        obj = getattr(module, name, None)
        assert inspect.isfunction(obj) or hasattr(obj, "cache_info"), (layer, name)
        assert obj.__module__ == module.__name__, (layer, name)


# -- one tolerance --------------------------------------------------------------

def test_one_float_tolerance():
    # every float audit reads counting.TOL: the literal 1e-9 is written once,
    # and no function takes its own tolerance
    literals, tol_params = [], []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and type(node.value) is float \
                    and node.value == 1e-9:
                literals.append((path.name, node.lineno))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if "tol" in names:
                    tol_params.append((path.name, node.name))
    assert [name for name, _ in literals] == ["counting.py"], literals
    assert tol_params == []
