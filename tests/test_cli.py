from __future__ import annotations

import argparse
import inspect
import io
import json
import math
import os
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fpharmonics
from fpharmonics.cli import build_parser, main
from fpharmonics.field import FieldCtx

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


def test_counting_goldens_build_no_grid(tmp_path, monkeypatch, capsys):
    def refuse(self, kind):
        raise RuntimeError(f"p x p {kind} grid requested")
    monkeypatch.setattr(FieldCtx, "grid", refuse)
    for argv in (a for a in ALL_GREEN if a[0] in ("count", "census", "scan", "verify")):
        out = tmp_path / f"{argv[0]}.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert_matches_golden(json.loads(out.read_text()),
                              json.loads(golden_path(argv).read_text()))


def test_out_creates_missing_parent_directories(tmp_path, capsys):
    out = tmp_path / "a" / "b" / "report.json"
    assert main(["count", "--p", "13", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["p"] == 13


def test_out_naming_a_directory_exits_two(tmp_path, capsys):
    assert main(["count", "--p", "13", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


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
    ["kvn", "--r", "0"],
    ["bohr", "--d", "-1"],
    ["bohr", "--eps", "inf"],
    ["decompose", "--eps", "0"],
], ids=lambda a: " ".join(a))
def test_usage_error_exits_two(argv, capsys):
    assert main(argv) == 2


def test_equidist_d0_exits_two_promptly():
    # d = 0 once sent TrigPoly.random into an endless draw loop, so run it
    # in a child process that a timeout can stop
    src = Path(fpharmonics.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "fpharmonics.cli", "equidist",
                           "--d", "0"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_fails_under_optimize_when_T_is_wrong():
    # python -O strips assert statements, so the verify checks must raise
    # on their own; each failure names the check it came from
    src = Path(fpharmonics.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys\n"
            "import fpharmonics.counting as counting\n"
            "from fpharmonics.cli import main\n"
            "T = counting.T\n"
            "counting.T = lambda *fs: T(*fs) + 1\n"
            "sys.exit(main(['verify']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    failed = [line for line in proc.stderr.splitlines()
              if line.startswith("FAILED:")]
    assert len(failed) == 1 and "count_example_err" in failed[0], proc.stderr


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


# -- argv fuzzing ----------------------------------------------------------------

FUZZ_POOL = ["2", "3", "5", "7", "11", "13", "17", "19", "23", "29", "31",
             "0", "-1", "4", "inf", "nan", str(10**30), str(2**63)]
FUZZ_CAP_S = 1.0


class _Stopped(BaseException):
    """Raised by the fuzz timer; a BaseException so no handler in the
    program can swallow it."""


def _stop(signum, frame):
    raise _Stopped


@st.composite
def fuzzed_argv(draw):
    """A subcommand and a random subset of its own flags (--out aside),
    each set from FUZZ_POOL or, for choice flags, from its choices too."""
    command = draw(st.sampled_from(sorted(_subparsers())))
    argv = [command]
    for action in _subparsers()[command]._actions:
        if action.dest in ("help", "out") or not draw(st.booleans()):
            continue
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            argv.append(draw(st.sampled_from(list(action.choices or ()) + FUZZ_POOL)))
    return argv


def run_capped(argv):
    """(exit code, stderr) of main(argv) in-process, or None when the run
    is still going after FUZZ_CAP_S (a slow input, not a failure)."""
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _stop)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, FUZZ_CAP_S)
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _Stopped:
        return None
    finally:
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


@pytest.mark.parametrize("argv", [
    ["kvn", "--r", str(10**30)],
    ["census", "--r", str(2**63)],
    ["scan", "--mode", "random", "--count", str(10**30)],
    ["bohr", "--d", str(10**30)],
], ids=lambda a: " ".join(a))
def test_oversized_size_flag_exits_two_promptly(argv):
    # each of these once looped on the size, growing a list, so the run
    # is capped rather than left to hang the suite
    outcome = run_capped(argv)
    assert outcome is not None, f"still running after {FUZZ_CAP_S} s"
    code, err = outcome
    assert code == 2 and err.startswith("error: "), err


@settings(max_examples=80, deadline=None)
@given(argv=fuzzed_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    outcome = run_capped(argv)
    if outcome is None:
        event(f"still running after {FUZZ_CAP_S} s")
        return
    code, err = outcome
    event(f"exit {code}")
    assert code in (0, 1, 2), (argv, code, err)
    if code == 1:
        assert err.startswith("FAILED: "), (argv, err)
    assert "Traceback" not in err
