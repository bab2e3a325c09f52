from __future__ import annotations

import itertools

import pytest

from fpharmonics.field import cached_field
from fpharmonics.search import (check_interval_coloring, fp_coloring_scan,
                                interval_backtrack, interval_patterns,
                                interval_sweep)


def brute_force_sat(N, r, distinct=False):
    for c in itertools.product(range(r), repeat=N):
        if not check_interval_coloring(c, distinct):
            return True
    return False


def test_trivial_n1():
    res = interval_backtrack(1, 2)
    assert res.status == "sat"


def test_patterns_require_all_four_in_range():
    # at N=4 the only fully-contained pattern is (1,1,2,1)... check directly
    pats = interval_patterns(4)
    for x, y, s, m in pats:
        assert max(x, y, s, m) <= 4


@pytest.mark.parametrize("N", (2, 4, 6, 8, 10))
def test_matches_exhaustive_oracle(N):
    res = interval_backtrack(N, 2)
    assert (res.status == "sat") == brute_force_sat(N, 2)
    if res.status == "sat":
        assert not check_interval_coloring(res.coloring)


def test_distinct_flag_oracle():
    for N in (4, 8):
        res = interval_backtrack(N, 2, distinct=True)
        assert (res.status == "sat") == brute_force_sat(N, 2, distinct=True)


def test_budget_exhaustion():
    res = interval_backtrack(40, 2, budget=3)
    assert res.status == "budget"
    assert res.nodes >= 3


def test_sweep_monotone_and_below_graham():
    sweep = interval_sweep(2, 45)
    assert sweep["last_sat"] is not None
    assert sweep["last_sat"] < 252
    statuses = [r.status for r in sweep["results"]]
    # once unsat, never sat again (asserted inside, re-check here)
    if "unsat" in statuses:
        first = statuses.index("unsat")
        assert all(s == "unsat" for s in statuses[first:])


def test_scan_exhaustive_minima_regression():
    assert fp_coloring_scan(cached_field(5), 2)["min"] == 5
    assert fp_coloring_scan(cached_field(7), 2)["min"] == 8


def test_scan_min_at_least_one(rng):
    out = fp_coloring_scan(cached_field(13), 3, mode="random", count=50,
                           rng=rng)
    assert out["min"] >= 1


def test_scan_budget_guard():
    with pytest.raises(ValueError):
        fp_coloring_scan(cached_field(31), 3, mode="exhaustive")


def test_quadruple_count_monochrome():
    # r = 1 leaves one coloring, which makes every pair monochromatic
    out = fp_coloring_scan(cached_field(11), 1)
    assert out["scanned"] == 1 and out["min"] == out["mean"] == 11**2
