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
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fpharmonics
from fpharmonics import cli, counting
from fpharmonics.calibration import AUDIT_CONSTANTS
from fpharmonics.cli import build_parser, main
from fpharmonics.counting import MarginReport
from fpharmonics.field import FieldCtx
from fpharmonics.harmonic import Signal
from fpharmonics.ramsey import extremal_coloring

GOLDEN_DIR = Path(__file__).parent / "golden"

ALL_GREEN = [
    ["norms", "--p", "13", "--seed", "3"],
    ["transform", "--p", "13", "--seed", "3"],
    ["count", "--p", "13"],
    ["census", "--p", "7", "--r", "2", "--seed", "1"],
    ["scan", "--p", "5", "--r", "2"],
    ["bohr", "--p", "13", "--d", "1", "--eps", "0.4"],
    ["equidist", "--p", "11", "--d", "1"],
    ["countlemma", "--p", "31", "--d", "1", "--eps", "0.3", "--seed", "2"],
    ["decompose", "--p", "61", "--eps", "0.5", "--seed", "4"],
    ["kvn", "--p", "61", "--delta", "0.3", "--R", "32"],
    ["kvn", "--p", "31", "--delta", "0.3", "--R", "32"],  # one iteration
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


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "5"],
    ["countlemma", "--p", "17"],
    ["countlemma", "--p", "5"],
])
def test_counting_lemma_budget_holds_at_small_p(argv, tmp_path, capsys):
    # each failed the 0.04 budget calibrated at p in {31, 61, 101} alone
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0


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


@pytest.mark.parametrize("coloring, message", [
    ({"r": 2}, '"assign"'),
    ([0, 1, 0, 1, 0, 1, 0], '"assign"'),
    # once truncated to [0, 1, 0, 1, 0, 1, 0], another colouring's census
    ({"assign": [0.5, 1.7, 0, 1, 0, 1, 0]}, "integer colors"),
    ({"assign": [True, False, True, False, True, False, True]}, "integer colors"),
    ({"assign": [0, 1, 0, 1, 0, 1, 0], "r": 2.5}, '"r" must be an integer'),
    ({"assign": [-1, 0, 1, 0, 1, 0, 1]}, "integer colors"),
], ids=("no-assign", "bare-list", "float-entries", "bool-entries", "float-r",
        "negative-color"))
def test_census_bad_coloring_file_exits_two(coloring, message, tmp_path, capsys):
    path = tmp_path / "col.json"
    path.write_text(json.dumps(coloring))
    assert main(["census", "--p", "7", "--coloring", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_bohr_asserts_the_density_floor_at_small_p(monkeypatch, capsys):
    # the floor (1/8)(eps/4)^{3d} is asserted at every p; an empty Bohr set
    # (impossible, since 0 is in B) must fail the claim rather than pass
    monkeypatch.setattr("fpharmonics.qm.bohr_set", lambda psi, eps: [])
    assert main(["bohr", "--p", "13"]) == 1
    assert capsys.readouterr().err.startswith("FAILED: Bohr density floor: ")


def _total_pair_coloring(T, n=7):
    """One class coloring all of T x (T - T) in Z_n, as the CLI reads it."""
    diffs = sorted({(a - b) % n for a in T for b in T})
    return {"group": [n], "T": [[t] for t in T],
            "classes": [[[[t], [u]] for t in sorted(set(T)) for u in diffs]]}


@pytest.mark.parametrize("coloring, message", [
    # with a repeated t accepted, this total coloring would pass (exit 0)
    (_total_pair_coloring([0, 1, 1, 3]), "repeated"),
    (_total_pair_coloring([0, 9]), "not an element"),
    ({"group": [7], "T": [[0.5]], "classes": [[]]}, "not an element"),
    ({"group": [7], "T": [[0]]}, "malformed"),
    ({"group": [7], "T": [[0]], "classes": [[[[0], 1]]]}, "malformed"),
    ([1], "malformed"),
    # the tables cost |T|^2 memory: |T| = 1024 once took 9.7 s and 664 MB
    ({"group": [1024], "T": [[t] for t in range(513)], "classes": [[]]}, "|T| = 513 > 2^9"),
], ids=("repeated", "out-of-range", "non-integer", "no-classes", "bad-pair", "not-a-dict",
        "oversized-T"))
def test_ramsey_bad_coloring_file_exits_two(coloring, message, tmp_path, capsys):
    path = tmp_path / "col.json"
    path.write_text(json.dumps(coloring))
    assert main(["ramsey", "--coloring", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["oracle", "constructive"])
def test_ramsey_coloring_file_round_trips(mode, tmp_path, capsys):
    # PairColoring.to_json -> from_json -> find_rich_color, end to end
    path = tmp_path / "col.json"
    path.write_text(json.dumps(extremal_coloring(2).to_json()))
    out = tmp_path / "report.json"
    assert main(["ramsey", "--coloring", str(path), "--mode", mode, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    golden = json.loads(golden_path(["ramsey", "--r", "2"]).read_text())
    for key in ("classes", "group", "rich_color", "lambda"):
        assert report[key] == golden[key], key


def _signal_file(values, p=5):
    return {"p": p, "values": values + [[0.0, 0.0]] * (p - len(values))}


# each once ended in a traceback, a misread signal or Python's own
# "too many values to unpack"
@pytest.mark.parametrize("payload, message", [
    ([1, 2], '"p"'),
    ({"values": []}, '"p"'),
    ({"p": 5, "values": 7}, '"values"'),
    (_signal_file([["0.5", 0.0]]), '"values"'),
    # read as p = 5
    ({"p": 5.7, "values": [[0.0, 0.0]] * 5}, '"p"'),
    # read as the value 1 + 0j
    (_signal_file([[True, 0]]), '"values"'),
    (_signal_file([[1.0, 0.0, 0.0]]), '"values"'),
    (_signal_file([], p=7), '"p": the integer 5'),
], ids=("bare-list", "no-p", "values-not-a-list", "string-entry", "float-p",
        "bool-entry", "three-element-entry", "other-p"))
@pytest.mark.parametrize("command", ["norms", "transform", "decompose"])
def test_bad_signal_file_exits_two(command, payload, message, tmp_path, capsys):
    path = tmp_path / "signal.json"
    path.write_text(json.dumps(payload))
    assert main([command, "--p", "5", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


@pytest.mark.parametrize("delta", ["1e-300", "inf", "1e200"])
def test_kvn_delta_without_a_finite_budget_exits_two(delta, tmp_path, capsys):
    # 1e-300 once exited 1 with a ZeroDivisionError traceback, and inf
    # exited 0 writing "delta": Infinity, which is not JSON
    out = tmp_path / "kvn.json"
    assert main(["kvn", "--delta", delta, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "delta" in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["norms", "decompose", "kvn", "verify"])
def test_oversized_p_for_the_p_by_p_kernels_exits_two(command, capsys, monkeypatch):
    # each of the first three once ended in a numpy MemoryError traceback,
    # asking for one 100003 x 100003 complex table (74.5 GiB) before checking
    # anything; verify once spent 84 s on its O(p^2) count example first
    def refuse(*fs):
        raise RuntimeError("T ran before the p x p refusal")
    monkeypatch.setattr(counting, "T", refuse)
    assert main([command, "--p", "100003"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MAX_GRID_PRIME = 2048" in err, err


def test_exhausted_kvn_budget_is_a_failed_claim(monkeypatch, capsys):
    # kvn --p 31 needs one iteration; with a budget of none it once raised
    # RuntimeError, a traceback rather than exit 1
    monkeypatch.setitem(AUDIT_CONSTANTS, "kvn_budget_c", 0)
    assert main(["kvn", "--p", "31"]) == 1
    assert capsys.readouterr().err.startswith("FAILED: iterations used <= budget: ")


def test_assertion_failure_exits_one(capsys):
    # decomposition at p=13 with a tight eps cannot meet its residual claim
    assert main(["decompose", "--p", "13", "--eps", "0.2", "--seed", "0"]) == 1


@pytest.mark.parametrize("argv", [
    ["bohr", "--p", "9"],
    ["scan", "--mode", "random", "--count", "0"],
    ["scan", "--r", "0"],
    ["kvn", "--delta", "0"],
    ["kvn", "--r", "0"],
    ["kvn", "--p", "31", "--R", "1"],
    ["bohr", "--d", "-1"],
    ["bohr", "--d", "0"],
    ["bohr", "--eps", "inf"],
    ["bohr", "--eps", "2"],
    ["decompose", "--eps", "0"],
    ["ramsey", "--r", "10"],
    ["search", "--N", "10", "--budget", "-1"],
], ids=lambda a: " ".join(a))
def test_usage_error_exits_two(argv, capsys):
    assert main(argv) == 2


@pytest.mark.parametrize("argv", [
    ["scan", "--p", "23"],
    ["scan", "--p", "7", "--r", "10"],
    ["scan", "--p", "1009", "--mode", "random", "--count", "10000"],
    ["scan", "--p", "101", "--mode", "random", "--count", str(10**7)],
], ids=lambda a: " ".join(a))
def test_scan_over_the_work_budget_exits_two_promptly(argv, capsys):
    # each once ran for 8 s to hours: the budget counted colorings, whose
    # cost grows with p^2, and now counts their pair checks
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert "scan budget" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, claims", [
    (["verify", "--p", "13", "--seed", "7"],
     {"count_example_err", "roundtrip_err", "norm_chain", "projection_idempotent_err",
      "ramsey_rich_color", "ramsey_lambda"}),
    (["transform", "--p", "13", "--seed", "3"],
     {"roundtrip_err", "parseval_err", "convolution_err"}),
], ids=("verify", "transform"))
def test_one_hook_sees_every_cli_claim(argv, claims, monkeypatch, capsys):
    # the CLI's identity checks once failed through a second path of their
    # own, so a hook on MarginReport.check saw none of them
    names = set()
    check = MarginReport.check

    def recording(cls, name, *args, **details):
        names.add(name)
        return check(name, *args, **details)
    monkeypatch.setattr(MarginReport, "check", classmethod(recording))
    assert main(argv) == 0
    assert claims <= names, claims - names
    # each claim is named by the report key it guards, in its own or in verify's report
    verify = ["verify", "--p", "13", "--seed", "7"]
    keys = {key for a in (argv, verify) for key in json.loads(golden_path(a).read_text())}
    assert claims <= keys, claims - keys


@pytest.mark.parametrize("command", ["transform", "verify"])
def test_a_roundtrip_error_of_5e_10_fails(command, monkeypatch, capsys):
    # above the claim's own 1e-10 but below TOL, so a TOL claim would pass it
    invert = cli.add_invert
    monkeypatch.setattr(cli, "add_invert",
                        lambda ctx, spec: Signal(ctx, invert(ctx, spec).values + 5e-10))
    assert main([command, "--p", "13"]) == 1
    assert capsys.readouterr().err.startswith("FAILED: roundtrip_err: ")


def test_a_norm_chain_violation_of_1e_11_fails(monkeypatch, capsys):
    # u3+ above QM by 1e-11: over the chain's own 1e-12, but below TOL
    u3 = cli.norm_u3_plus
    monkeypatch.setattr(cli, "norm_u3_plus",
                        lambda f: u3(f)._replace(value=cli.norm_qm(f).value + 1e-11))
    assert main(["norms", "--p", "13"]) == 1
    assert capsys.readouterr().err.startswith("FAILED: norm_chain: ")


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
        if action.dest in ("help", "out"):
            continue
        read = f"args.{action.dest}" in source
        if action.dest == "seed":
            read = read or "_rng(args)" in source
        assert read, f"{command} accepts --{action.dest} but never reads it"


@pytest.mark.parametrize("argv", [
    *([command, "--seed", "-1"] for command in sorted(_subparsers())
      if "seed" in {a.dest for a in _subparsers()[command]._actions}),
    ["census", "--r", "0"],
    ["census", "--r", "-1"],
], ids=" ".join)
def test_bad_seed_or_color_count_names_the_flag(argv, capsys):
    # numpy's own messages ("expected non-negative integer", "high <= 0")
    # once reached the user without the flag they came from
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and argv[-2] in err, err


def test_search_sweep(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["search", "--N", "25", "--r", "2", "--sweep",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["last_sat"] is None or report["last_sat"] <= 25


@pytest.mark.parametrize("argv", [
    ["search", "--sweep", "--distinct", "--N", "301"],
    ["search", "--sweep", "--N", "0"],
], ids=lambda a: " ".join(a))
def test_search_sweep_out_of_range_exits_two_before_searching(argv, monkeypatch, capsys):
    # --N 301 once searched 1..300 (about 0.85 s) before exiting 2, and
    # --N 0 exited 0 with an empty sweep
    import fpharmonics.search as search

    def searched(*args, **kwargs):
        raise AssertionError("searched before checking --N")
    monkeypatch.setattr(search, "interval_backtrack", searched)
    assert main(argv) == 2
    assert "need 1 <= N <= 300" in capsys.readouterr().err


# -- argv fuzzing ----------------------------------------------------------------

FUZZ_POOL = ["2", "3", "5", "7", "11", "13", "17", "19", "23", "29", "31",
             "0", "-1", "4", "inf", "nan", "1e-300", str(10**30), str(2**63)]
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
