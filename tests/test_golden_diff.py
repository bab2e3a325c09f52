import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "golden_diff.py"
_spec = importlib.util.spec_from_file_location("golden_diff", _PATH)
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)


def test_all_green_is_read_from_the_tree():
    argvs = golden_diff.all_green(_PATH.parents[1])
    assert ["count", "--p", "13"] in argvs


def test_identical_reports():
    report = {"p": 13, "T": [0.5, -1e-16], "lambda": [1, 16], "ok": True}
    assert golden_diff.verdict("r", [0, report, ""], [0, dict(report), ""]) == (["r: identical"], False)


def test_float_moves_are_listed_with_the_largest_changes():
    lines, changed = golden_diff.verdict(
        "count", [0, {"T": [0.25, 2e-16], "p": 13}, ""], [0, {"T": [0.5, 1.5e-16], "p": 13}, ""])
    assert not changed
    assert lines[0] == ("count: floats moved: 2; largest absolute change 0.25 at .T[0], "
                        "largest relative change 0.5 at .T[0]")
    assert lines[1:] == ["  .T[0]: 0.25 -> 0.5", "  .T[1]: 2e-16 -> 1.5e-16"]


@pytest.mark.parametrize("old, new", [
    ({"lambda": [1, 16]}, {"lambda": [1, 15]}),        # a Fraction
    ({"witness": [0, 1, 1]}, {"witness": [0, 1]}),     # a witness's length
    ({"min": 9}, {"min": 9.0}),                        # int to float
    ({"mode": "oracle"}, {"mode": "oracle", "x": 1}),  # the keys
], ids=("fraction", "witness", "int-to-float", "keys"))
def test_any_other_change_is_an_error(old, new):
    lines, changed = golden_diff.verdict("r", [0, old, ""], [0, new, ""])
    assert changed and lines[0] == "r: CHANGED"


def test_a_failed_subcommand_is_an_error():
    # the run's last stderr line says why; once it was dropped
    assert golden_diff.verdict("r", [0, {}, ""], [2, None, "error: --p 4 is not prime"]) == (
        ["r: CHANGED: exit 0 -> 2", "  change stderr: error: --p 4 is not prime"], True)
    assert golden_diff.verdict("r", [1, None, "FAILED: norm_chain: lhs 1 > rhs 0"],
                               [0, {}, ""]) == (
        ["r: CHANGED: exit 1 -> 0", "  parent stderr: FAILED: norm_chain: lhs 1 > rhs 0"], True)


def test_usage_error_exits_two(tmp_path, capsys):
    assert golden_diff.main([str(tmp_path)]) == 2
    assert golden_diff.main([str(tmp_path), str(tmp_path)]) == 2
    assert "usage" in capsys.readouterr().err
