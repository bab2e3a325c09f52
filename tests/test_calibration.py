from __future__ import annotations

import pytest

from fpharmonics.calibration import (AUDIT_CONSTANTS, calibrate_countlemma,
                                     calibrate_gvn3, calibrate_gvnqm,
                                     calibrate_mixed_sum)

# suite -> (its calibrate_* function, the documented worst value and the
# digits it is documented to, the constants calibrated from it)
SUITES = {
    "gvn3": (calibrate_gvn3, 0.0, 4, ("gvn3_C",)),
    "gvnQM": (calibrate_gvnqm, 0.9804, 4, ("gvnqm_C",)),
    "mixed": (calibrate_mixed_sum, 0.4377, 4, ("mixed_sum_c",)),
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
