"""Compare the golden CLI reports of two source trees.

    python tools/golden_diff.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository (for instance one made with
`git archive`).  The argv list is `ALL_GREEN` from CHANGE_TREE's
tests/test_cli.py; every report in it is regenerated in each tree by one
Python subprocess that imports that tree's `src/`.  Per report one of
three verdicts is printed:

  identical      every value is the same;
  floats moved   only floats changed: each moved path with its old and new
                 value, and the largest absolute and relative change;
  CHANGED        an int, string, bool or null changed (so a Fraction, which
                 reports write as [num, den], or a witness), or the
                 report's shape did, or the subcommand failed in a tree;
                 the last stderr line of each tree's run is printed under it.

Exit 0 when no report is CHANGED, 1 otherwise, 2 on a usage error.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SHOWN_MOVES = 20  # moved float paths printed per report

# run in each tree: argv lists in,
# {" ".join(argv): [exit code, report, last stderr line]} out
_CHILD = """
import contextlib, io, json, sys
from pathlib import Path
from fpharmonics.cli import main
argvs, out = json.loads(sys.argv[1]), Path(sys.argv[2])
runs = {}
for i, argv in enumerate(argvs):
    path, err = out.with_suffix(f".{i}.json"), io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(path)])
    runs[" ".join(argv)] = [code, json.loads(path.read_text()) if code == 0 else None,
                            (err.getvalue().splitlines() or [""])[-1]]
out.write_text(json.dumps(runs))
"""


def all_green(tree: Path) -> list:
    """The ALL_GREEN argv lists of tree's tests/test_cli.py, read without
    importing it."""
    module = ast.parse((tree / "tests" / "test_cli.py").read_text())
    for node in module.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "ALL_GREEN" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise ValueError(f"no ALL_GREEN in {tree}/tests/test_cli.py")


def run_reports(tree: Path, argvs: list, out: Path) -> dict:
    """{name: [exit code, report or None, last stderr line]} for every
    argv, run in tree; the reports are written next to out."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs), str(out)],
                   cwd=tree, env=env, check=True)
    return json.loads(out.read_text())


def diff(old, new, path="") -> tuple:
    """(float moves [(path, old, new)], other changes [path: what]) from old
    to new, walking dicts and lists in parallel."""
    if isinstance(old, float) and isinstance(new, float):
        return ([] if old == new or (old != old and new != new) else [(path, old, new)]), []
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return [], [f"{path}: keys {sorted(old)} -> {sorted(new)}"]
        pairs = [(old[k], new[k], f"{path}.{k}") for k in old]
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [], [f"{path}: length {len(old)} -> {len(new)}"]
        pairs = [(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(old, new))]
    else:
        same = type(old) is type(new) and old == new
        return [], ([] if same else [f"{path}: {old!r} -> {new!r}"])
    moves, changes = [], []
    for a, b, where in pairs:
        m, c = diff(a, b, where)
        moves += m
        changes += c
    return moves, changes


def verdict(name: str, old_run, new_run) -> tuple:
    """(lines to print for one report, whether it is CHANGED)."""
    (old_code, old, old_err), (new_code, new, new_err) = old_run, new_run
    stderr = [f"  {tree} stderr: {err}"
              for tree, err in (("parent", old_err), ("change", new_err)) if err]
    if old_code or new_code:
        return [f"{name}: CHANGED: exit {old_code} -> {new_code}"] + stderr, True
    moves, changes = diff(old, new)
    if changes:
        return [f"{name}: CHANGED"] + [f"  {c}" for c in changes] + stderr, True
    if not moves:
        return [f"{name}: identical"], False
    absd = [(abs(b - a), p) for p, a, b in moves]
    reld = [(abs(b - a) / max(abs(a), abs(b)), p) for p, a, b in moves]
    lines = [f"{name}: floats moved: {len(moves)}; largest absolute change "
             f"{max(absd)[0]:.3g} at {max(absd)[1]}, largest relative change "
             f"{max(reld)[0]:.3g} at {max(reld)[1]}"]
    lines += [f"  {p}: {a!r} -> {b!r}" for p, a, b in moves[:SHOWN_MOVES]]
    if len(moves) > SHOWN_MOVES:
        lines.append(f"  ... and {len(moves) - SHOWN_MOVES} more")
    return lines, False


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all((Path(a) / "src").is_dir() for a in args):
        print("usage: python tools/golden_diff.py PARENT_TREE CHANGE_TREE "
              "(two trees, each with a src/ directory)", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in args)
    argvs = all_green(change)
    with tempfile.TemporaryDirectory() as scratch:
        old_runs = run_reports(parent, argvs, Path(scratch) / "parent.json")
        new_runs = run_reports(change, argvs, Path(scratch) / "change.json")
    bad = False
    for name in new_runs:
        lines, changed = verdict(name, old_runs[name], new_runs[name])
        print("\n".join(lines))
        bad |= changed
    return int(bad)


if __name__ == "__main__":
    sys.exit(main())
