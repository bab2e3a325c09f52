from __future__ import annotations

import ast
import builtins
import importlib.util
import inspect
import re
import shlex
from pathlib import Path

import pytest

import fpharmonics
from fpharmonics import cli

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


# -- imports at module top, and no cycle among the modules -------------------------

def nested_imports(tree) -> list:
    """(line, enclosing def or class) for each import inside a function or
    class body."""
    return [(node.lineno, scope.name) for scope in ast.walk(tree)
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for node in ast.walk(scope) if isinstance(node, (ast.Import, ast.ImportFrom))]


def package_imports(tree) -> set:
    """The package modules that tree imports, wherever the import sits:
    `from .x import ...`, `from . import x` and `import fpharmonics.x`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names
                    if a.name.startswith("fpharmonics.")}
    return {name.split(".")[0] for name in out}


def import_cycle(graph: dict) -> list:
    """One cycle [a, b, ..., a] of the graph {module: imported modules}, or []."""
    state = {}  # 1 while on the DFS path, 2 when done

    def visit(node, path):
        state[node] = 1
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            if nxt not in state and (cycle := visit(nxt, path + [nxt])):
                return cycle
        state[node] = 2
        return []

    for start in sorted(graph):
        if start not in state and (cycle := visit(start, [start])):
            return cycle
    return []


def test_import_detectors():
    source = ("from . import a\nfrom .b import x\nimport fpharmonics.c\nimport json\n"
              "def f():\n    from .d import y\nclass K:\n    import math\n")
    tree = ast.parse(source)
    assert nested_imports(tree) == [(6, "f"), (8, "K")]
    assert package_imports(tree) == {"a", "b", "c", "d"}
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert import_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function_or_class(path):
    assert nested_imports(ast.parse(path.read_text())) == []


def test_package_import_graph_is_acyclic():
    graph = {path.stem: package_imports(ast.parse(path.read_text())) for path in MODULES}
    assert import_cycle(graph) == []


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


def raise_sites(tree, where=""):
    """(qualified name of the innermost enclosing def, raised name) for each
    raise in tree that names an exception."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out += raise_sites(node, f"{where}.{node.name}".lstrip("."))
            continue
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            out.append((where, getattr(exc, "id", None)))
        out += raise_sites(node, where)
    return out


def test_one_claim_path():
    # a claim, in the library or the CLI, fails only through
    # MarginReport.check, so one hook sees every check the program makes
    source = "class A:\n def f(self):\n  raise X('x')\ndef g():\n raise Y\n"
    assert raise_sites(ast.parse(source)) == [("A.f", "X"), ("g", "Y")]
    sites = [(path.name, where, exc) for path in sorted(PACKAGE_DIR.glob("*.py"))
             for where, exc in raise_sites(ast.parse(path.read_text()))]
    assert [site for site in sites if site[2] == "RuntimeError"] == []
    assert [site[:2] for site in sites if site[2] == "AssertionError"] == [
        ("counting.py", "MarginReport.check")]


# -- no public name that only tests reach -----------------------------------------

REPO_DIR = PACKAGE_DIR.parent.parent
# public names kept for an open ROADMAP item that will give them a caller
ROADMAP_OWNED = {
    "calibration.calibrate_gvn3": 4,
    "calibration.calibrate_gvnqm": 4,
    "calibration.calibrate_countlemma": 4,
    "regularity.smooth_majorant": 7,
}


def public_definitions(tree):
    """(qualified name, node) for each public module-level function and
    class, and each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub


def referenced_names(tree, skip=None, strings=False) -> set:
    """Every Name id and Attribute attr in tree outside the subtree skip,
    plus (with strings) each identifier inside a string constant."""
    names = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
        todo.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    # a caller is src/ outside the name's own definition, demos/, or
    # perfbench/, whose tracer finds the functions it times by name strings
    sources = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    outside = set()
    for path in sorted((REPO_DIR / "demos").rglob("*.py")):
        outside |= referenced_names(ast.parse(path.read_text()))
    for path in sorted((REPO_DIR / "perfbench").rglob("*.py")):
        outside |= referenced_names(ast.parse(path.read_text()), strings=True)
    in_module = {path: referenced_names(tree) for path, tree in sources.items()}
    unreached = []
    for path, tree in sources.items():
        for qualname, node in public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name in outside or any(name in names for other, names in in_module.items()
                                      if other != path):
                continue
            if name not in referenced_names(tree, skip=node):
                unreached.append(f"{path.stem}.{qualname}")
    # a ROADMAP-owned name that gains a caller leaves the list too
    assert sorted(unreached) == sorted(ROADMAP_OWNED)


# -- no private helper that nothing in src/ reaches --------------------------------

def orphaned_private_definitions(sources: dict) -> list:
    """'module.name' for each module-level def or class whose name starts
    with '_' and that no source references outside its own body."""
    in_module = {name: referenced_names(tree) for name, tree in sources.items()}
    orphans = []
    for module, tree in sources.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")):
                continue
            if any(node.name in names for other, names in in_module.items() if other != module):
                continue
            if node.name not in referenced_names(tree, skip=node):
                orphans.append(f"{module}.{node.name}")
    return orphans


def test_orphan_detector_ignores_a_definition_reaching_itself():
    source = ("def _used():\n    pass\ndef _orphan():\n    return _orphan()\n"
              "class _Old:\n    pass\ndef f():\n    return _used()\n")
    assert orphaned_private_definitions({"a": ast.parse(source)}) == ["a._orphan", "a._Old"]
    assert orphaned_private_definitions({"a": ast.parse(source),
                                         "b": ast.parse("x = _orphan")}) == ["a._Old"]


def test_every_private_definition_has_a_caller_in_src():
    # test_every_public_name_has_a_caller_outside_the_tests skips '_' names,
    # so a helper that a refactor leaves behind would go unnoticed there
    sources = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert orphaned_private_definitions(sources) == []


# -- README names only what exists -------------------------------------------------

README = (REPO_DIR / "README.md").read_text()


def src_names(tree) -> set:
    """Definitions, Name ids, attributes, arguments and the identifiers
    inside string constants other than docstrings (so a subcommand, which
    cli.py names in a string, counts; a name only a docstring mentions
    does not)."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def test_readme_names_resolve():
    # a backticked span that is a dotted name, maybe with an argument list,
    # must name something that exists; paths, flags and formulas are skipped
    known = set(dir(builtins)) | {"fpharmonics"} | {p.stem for p in MODULES}
    for path in MODULES:
        known |= src_names(ast.parse(path.read_text()))
    inline = re.sub(r"```.*?```", "", README, flags=re.S)
    missing = []
    for span in re.findall(r"`([^`\n]+)`", inline):
        name = re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?", span)
        if name and not set(name.group(1).split(".")) <= known:
            missing.append(span)
    assert missing == []


def claim_names(tree) -> list:
    """The name of each MarginReport.check call in tree, None where it is
    not a string literal."""
    return [node.args[0].value if isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str) else None
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "check" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "MarginReport"]


def test_claim_table_lists_every_claim_once():
    # a claim name a table row does not give would escape the README's
    # account of kinds, constants and vacuous claims
    names = set()
    for path in MODULES:
        found = claim_names(ast.parse(path.read_text()))
        assert None not in found, path.name
        names.update(found)
    section = README.split("\n## Claim table\n")[1].split("\n## ")[0]
    rows = [name.replace("\\|", "|")
            for name in re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)]
    assert len(rows) == len(set(rows))
    assert set(rows) == names, set(rows) ^ names


def test_readme_commands_parse():
    block = re.search(r"```sh\n(fpharmonics .*?)```", README, flags=re.S).group(1)
    for line in (line.split("#")[0] for line in block.splitlines()):
        argv = shlex.split(line)[1:]
        assert cli.build_parser().parse_args(argv).command == argv[0], line
