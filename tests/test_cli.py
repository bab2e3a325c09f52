from __future__ import annotations

import argparse
import inspect
import json
import math
from pathlib import Path

import pytest

from fpharmonics.cli import build_parser, main

GOLDEN_DIR = Path(__file__).parent / "golden"

ALL_GREEN = [
    ["norms", "--p", "13", "--seed", "3"],
    ["transform", "--p", "13", "--seed", "3"],
    ["count", "--p", "13"],
    ["count", "--p", "13", "--example", "sec2"],
    ["census", "--p", "7", "--r", "2", "--seed", "1"],
    ["scan", "--p", "5", "--r", "2"],
    ["bohr", "--p", "13", "--d", "1", "--eps", "0.4"],
    ["equidist", "--p", "11", "--d", "1"],
    ["countlemma", "--p", "31", "--d", "1", "--eps", "0.3", "--seed", "2"],
    ["decompose", "--p", "61", "--eps", "0.5", "--seed", "4"],
    ["kvn", "--p", "61", "--delta", "0.3", "--R", "32"],
    ["ramsey", "--r", "2"],
    ["drc", "--seed", "5"],
    ["charsum", "--p", "31", "--seed", "6"],
    ["search", "--N", "10", "--r", "2"],
    ["verify", "--p", "13", "--seed", "7"],
]


def golden_path(argv) -> Path:
    """tests/golden/<argv joined by '_', dashes dropped>.json.

    Regenerate one with `fpharmonics <argv> --out <golden_path(argv)>`.
    """
    return GOLDEN_DIR / ("_".join(a.lstrip("-") for a in argv) + ".json")


def assert_matches_golden(got, want, where="report"):
    """Ints, strings, bools and nulls (so fractions and witnesses) match
    exactly; floats match to rel/abs 1e-12."""
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), \
            f"{where}: keys {sorted(got)} != {sorted(want)}"
        for k in want:
            assert_matches_golden(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), \
            f"{where}: {got!r} != {want!r}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, \
            f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("argv", ALL_GREEN, ids=lambda a: " ".join(a))
def test_subcommand_exit_zero(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert_matches_golden(report, json.loads(golden_path(argv).read_text()))


def test_reports_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["charsum", "--p", "61", "--seed", "9",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["norms", "--p", "7", "--seed", "0", "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "key"
    assert any(row.startswith("schema,") for row in lines)


def test_census_with_coloring_file(tmp_path, capsys):
    col = {"assign": [i % 2 for i in range(7)], "r": 2}
    path = tmp_path / "col.json"
    path.write_text(json.dumps(col))
    out = tmp_path / "report.json"
    assert main(["census", "--p", "7", "--r", "2", "--coloring", str(path),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["total"] == sum(report["per_color"])
    assert report["total"] == 10


def test_assertion_failure_exits_one(capsys):
    # decomposition at p=13 with a tight eps cannot meet its residual claim
    assert main(["decompose", "--p", "13", "--eps", "0.2", "--seed", "0"]) == 1


@pytest.mark.parametrize("argv", [
    ["bohr", "--p", "9"],
    ["scan", "--mode", "random", "--count", "0"],
    ["scan", "--r", "0"],
    ["kvn", "--delta", "0"],
], ids=lambda a: " ".join(a))
def test_usage_error_exits_two(argv, capsys):
    assert main(argv) == 2


def _subparsers():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_subcommand_takes_only_flags_it_reads(command):
    sp = _subparsers()[command]
    assert "--threads" not in sp.format_help()
    source = inspect.getsource(sp.get_default("func"))
    for action in sp._actions:
        if action.dest in ("help", "out", "format"):
            continue
        read = f"args.{action.dest}" in source
        if action.dest == "seed":
            read = read or "_rng(args)" in source
        assert read, f"{command} accepts --{action.dest} but never reads it"


def test_search_sweep(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["search", "--N", "25", "--r", "2", "--sweep",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["last_sat"] is None or report["last_sat"] <= 25
