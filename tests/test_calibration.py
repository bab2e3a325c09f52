from __future__ import annotations

import re

import pytest

from fpharmonics import counting
from fpharmonics.calibration import (calibrate_countlemma, calibrate_gvn3,
                                     calibrate_gvnqm)
from fpharmonics.counting import AUDIT_CONSTANTS

# suite -> (its calibrate_* function, the documented worst value and the
# digits it is documented to, the constants calibrated from it); the gvn3
# suite fits none: it records that gvn3_C's term was never needed
SUITES = {
    "gvn3": (calibrate_gvn3, 0.0, 4, ()),
    "gvnQM": (calibrate_gvnqm, 0.9804, 4, ("gvnqm_C",)),
    "countlemma": (calibrate_countlemma, 0.06007, 5, ("countlemma_C1", "countlemma_C2")),
}


@pytest.mark.parametrize("suite", SUITES)
def test_calibration_suite_reproduces(suite):
    calibrate, documented, digits, keys = SUITES[suite]
    worst = calibrate()
    assert round(worst, digits) == documented, worst
    for key in keys:
        # the protocol: each constant is at least twice the worst observed
        assert AUDIT_CONSTANTS[key] >= 2 * worst, (key, worst)


def documented_kinds() -> dict:
    """key -> kind for each entry "* key = value ... (kind)" of counting's
    docstring, where an entry may name several keys ("* a = b = 0.1 (calibrated)")."""
    kinds = {}
    for entry in re.split(r"\n\s*\* ", counting.__doc__)[1:]:
        head = re.match(r"[^(]*\((fixed|calibrated)", entry)
        for key in re.findall(r"(\w+) =", head.group(0) if head else ""):
            assert key not in kinds, f"{key} is documented twice"
            kinds[key] = head.group(1)
    return kinds


def test_every_audit_constant_has_one_provenance():
    # kvn_budget_c was once in no list, and gvn3_C in two: documented as
    # calibrated while its suite fitted nothing
    kinds = documented_kinds()
    calibrated = {key for *_, keys in SUITES.values() for key in keys}
    assert set(kinds) == set(AUDIT_CONSTANTS), set(kinds) ^ set(AUDIT_CONSTANTS)
    assert {key for key, kind in kinds.items() if kind == "calibrated"} == calibrated
    assert kinds["gvn3_C"] == "fixed"
