from __future__ import annotations

import itertools
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import fpharmonics.search as search
from fpharmonics.counting import ROW_BLOCK
from fpharmonics.field import cached_field
from fpharmonics.search import (MAX_N, SCAN_BUDGET, SearchResult,
                                check_interval_coloring, fp_coloring_scan,
                                interval_backtrack, interval_patterns,
                                interval_sweep)
from reference import interval_pattern_others

PINS = json.loads((Path(__file__).parent / "golden" / "search_pins.json").read_text())


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
    # N = 40 is refuted in 2 nodes; 251 needs one node per value
    res = interval_backtrack(251, 2, distinct=True, budget=3)
    assert res.status == "budget"
    assert res.nodes == 3 + 1 and res.coloring is None


def test_budget_zero_stops_after_one_node_and_negative_is_rejected():
    res = interval_backtrack(10, 2, budget=0)
    assert (res.status, res.nodes, res.coloring) == ("budget", 1, None)
    # a negative budget once stopped after 1 node too, breaking budget + 1
    with pytest.raises(ValueError, match="budget >= 0"):
        interval_backtrack(10, 2, budget=-1)
    with pytest.raises(ValueError, match="budget >= 0"):
        interval_sweep(2, 10, budget=-1)


@pytest.mark.parametrize("n_max", (0, -3, MAX_N + 1))
def test_sweep_rejects_n_max_out_of_range_before_searching(n_max, monkeypatch):
    # n_max = 0 once gave an empty sweep, and MAX_N + 1 searched 1..MAX_N
    # before the last N was refused
    def searched(*args, **kwargs):
        raise AssertionError("searched before checking n_max")
    monkeypatch.setattr(search, "interval_backtrack", searched)
    with pytest.raises(ValueError, match=f"1 <= N <= {MAX_N}"):
        interval_sweep(2, n_max, distinct=True)


# -- the shared pattern index against the per-call build it replaced -----------

def test_pattern_index_matches_per_call_build():
    for distinct in (False, True):
        for N in sorted(set(range(1, 61)) | set(range(1, MAX_N + 1, 7)) | {MAX_N}):
            got, want = search._pattern_others(N, distinct), interval_pattern_others(N, distinct)
            assert len(got) == len(want) == N + 1
            for v in range(N + 1):
                assert Counter(got[v]) == Counter(want[v]), (N, distinct, v)


def _pinned(res):
    coloring = None if res.coloring is None else "".join(map(str, res.coloring))
    return [res.status, coloring, res.nodes, res.best_depth]


def test_sweep_44_matches_its_pins():
    # recorded from the search before the pattern index was shared
    results = interval_sweep(2, 44)["results"]
    assert [_pinned(res) for res in results] == PINS["interval_sweep(2, 44)"]


def test_distinct_sweep_252_matches_its_pins():
    results = interval_sweep(2, 252, distinct=True)["results"]
    want = PINS["interval_sweep(2, 252, distinct=True)"]
    assert "".join(res.status[0] for res in results) == want["statuses"]
    assert sum(res.nodes for res in results) == want["nodes"]


@pytest.mark.parametrize("N", (100, 200, 300))
def test_three_colour_frontier_matches_its_pins(N):
    res = interval_backtrack(N, 3, True, 50_000)
    assert _pinned(res) == PINS["interval_backtrack(N, 3, True, 50000)"][str(N)]


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
    with pytest.raises(ValueError, match="scan budget"):
        fp_coloring_scan(cached_field(31), 3, mode="exhaustive")
    with pytest.raises(ValueError, match="scan budget"):
        fp_coloring_scan(cached_field(101), 2, mode="random", count=SCAN_BUDGET // 101**2 + 1)


@pytest.mark.parametrize("p", [5, 11, 13, 19])
def test_scan_budget_admits_the_exhaustive_scans_in_use(p):
    # the CLI golden (p = 5), the benchmark's scans (11, 13), and p = 19,
    # about 1 s: the largest two-color exhaustive scan
    assert 2**p * p**2 <= SCAN_BUDGET < 2**23 * 23**2


def test_quadruple_count_monochrome():
    # r = 1 leaves one coloring, which makes every pair monochromatic
    out = fp_coloring_scan(cached_field(11), 1)
    assert out["scanned"] == 1 and out["min"] == out["mean"] == 11**2


def scan_loop(ctx, r, mode, colorings, n_total, add, mul):
    """The per-coloring scan that stacked counting replaced, on the p x p
    grid formulas."""
    best = best_coloring = None
    total = 0
    for c in colorings:
        c = np.array(c, dtype=np.int64)
        cx = c[:, None]
        q = int(np.count_nonzero((cx == c[None, :]) & (cx == c[add]) & (cx == c[mul])))
        total += q
        if best is None or q < best:
            best, best_coloring = q, c
    return {"p": ctx.p, "r": r, "mode": mode, "scanned": n_total,
            "min": best, "mean": total / n_total,
            "min_coloring": best_coloring.tolist(), "min_over_p2": best / ctx.p**2}


@pytest.mark.parametrize("p, r", [(5, 2), (7, 2), (11, 2), (13, 2), (5, 3), (7, 3),
                                  (5, 4), (11, 1)])
def test_scan_exhaustive_matches_product_loop(p, r, pair_grids):
    ctx = cached_field(p)
    want = scan_loop(ctx, r, "exhaustive", itertools.product(range(r), repeat=p),
                     r**p, *pair_grids(ctx))
    assert fp_coloring_scan(ctx, r) == want


@pytest.mark.parametrize("p, r, count", [(13, 2, 2 * (ROW_BLOCK // 13**2) + 7),
                                         (7, 3, ROW_BLOCK // 7**2 + 1),
                                         (401, 2, 3)])
def test_scan_random_matches_per_coloring_loop(p, r, count, pair_grids):
    ctx = cached_field(p)
    want_rng, got_rng = np.random.default_rng(7), np.random.default_rng(7)
    want = scan_loop(ctx, r, "random", (want_rng.integers(0, r, size=p) for _ in range(count)),
                     count, *pair_grids(ctx))
    assert fp_coloring_scan(ctx, r, mode="random", count=count, rng=got_rng) == want
    assert got_rng.integers(1 << 62) == want_rng.integers(1 << 62)  # same draws consumed


# -- the plain DFS the propagating search replaced, kept as its oracle ---------

class _Exhausted(Exception):
    pass


def plain_dfs(N, r, distinct=False, budget=None):
    """Chronological DFS: values ascending, colours least-used first, a
    colour rejected when it closes a pattern whose maximum is the value."""
    by_max = [[] for _ in range(N + 1)]
    for x in range(1, N + 1):
        for y in range(x, N + 1):
            if distinct and x == y:
                continue
            s, m = x + y, x * y
            if s <= N and m <= N:
                by_max[max(x, y, s, m)].append((x, y, s, m))
    coloring = [-1] * (N + 1)
    usage = [0] * r
    nodes = best_depth = 0

    def closes(n, color):
        return any(all(coloring[v] == color for v in pat if v != n)
                   for pat in by_max[n])

    def dfs(n):
        nonlocal nodes, best_depth
        if n > N:
            return True
        for color in sorted(range(r), key=lambda c: usage[c]):
            nodes += 1
            if budget is not None and nodes > budget:
                raise _Exhausted
            if closes(n, color):
                continue
            coloring[n] = color
            usage[color] += 1
            best_depth = max(best_depth, n)
            if dfs(n + 1):
                return True
            coloring[n] = -1
            usage[color] -= 1
        return False

    try:
        status = "sat" if dfs(1) else "unsat"
    except _Exhausted:
        status = "budget"
    cert = tuple(coloring[1:]) if status == "sat" else None
    return SearchResult(status, N, r, distinct, cert, nodes, best_depth)


def assert_matches_plain_dfs(N, r, distinct=False, budget=None):
    new = interval_backtrack(N, r, distinct, budget)
    old = plain_dfs(N, r, distinct, budget)
    assert (new.status, new.coloring) == (old.status, old.coloring), (N, r, distinct)
    if new.status == "sat":
        assert new.best_depth == old.best_depth == N
        assert new.nodes <= old.nodes
    elif new.status == "unsat":
        # the plain DFS colours every colourable prefix before it gives up;
        # propagation refutes earlier, so it reaches no deeper
        assert new.best_depth <= old.best_depth
        assert new.nodes <= old.nodes
    else:
        assert new.nodes == old.nodes == budget + 1


@pytest.mark.parametrize("distinct", (False, True))
def test_propagation_matches_plain_dfs_small(distinct):
    for N in range(1, 61):
        assert_matches_plain_dfs(N, 2, distinct)


def test_propagation_matches_plain_dfs_distinct_to_139():
    for N in range(61, 140):
        assert_matches_plain_dfs(N, 2, True)


@pytest.mark.parametrize("N", (140, 251))
def test_propagation_matches_plain_dfs_where_it_thrashes(N):
    assert_matches_plain_dfs(N, 2, True)


@pytest.mark.parametrize("N,distinct,budget", [
    (40, False, None), (100, True, None), (137, True, 50_000),
    (211, True, 50_000), (300, True, 50_000), (300, True, None),
    (150, True, 20)])
def test_propagation_matches_plain_dfs_three_colours(N, distinct, budget):
    assert_matches_plain_dfs(N, 3, distinct, budget)


# -- an independent clause-based check of the verdict at 252 -------------------

def pattern_clauses(N, distinct):
    """Variable v is true when v gets colour 1; each pattern forbids
    'all colour 0' and 'all colour 1'."""
    clauses = []
    for x in range(1, N + 1):
        for y in range(x + distinct, N + 1):
            if x + y > N or x * y > N:
                break
            members = sorted({x, y, x + y, x * y})
            clauses.append(members)
            clauses.append([-v for v in members])
    return clauses


def dpll(n_vars, clauses):
    """Unit-propagating DPLL, branching on the lowest free variable;
    returns a satisfying assignment (list indexed by variable) or None."""
    occurs = {}
    for i, clause in enumerate(clauses):
        for lit in clause:
            occurs.setdefault(lit, []).append(i)

    def propagate(assign, pending):
        while pending:
            lit = pending.pop()
            var, val = abs(lit), lit > 0
            if assign[var] is not None:
                if assign[var] != val:
                    return False
                continue
            assign[var] = val
            for i in occurs.get(-lit, ()):
                open_lits = []
                for other in clauses[i]:
                    a = assign[abs(other)]
                    if a is None:
                        open_lits.append(other)
                    elif a == (other > 0):
                        break
                else:
                    if not open_lits:
                        return False
                    if len(open_lits) == 1:
                        pending.append(open_lits[0])
        return True

    def solve(assign, lit):
        assign = list(assign)
        if lit is not None and not propagate(assign, [lit]):
            return None
        var = next((v for v in range(1, n_vars + 1) if assign[v] is None), None)
        if var is None:
            return assign
        return solve(assign, -var) or solve(assign, var)

    return solve([None] * (n_vars + 1), None)


def test_dpll_agrees_with_brute_force():
    for N in range(1, 11):
        for distinct in (False, True):
            model = dpll(N, pattern_clauses(N, distinct))
            assert (model is not None) == brute_force_sat(N, 2, distinct)


def test_graham_bound_252_is_unsat_and_251_sat():
    assert interval_backtrack(252, 2, distinct=True).status == "unsat"
    assert interval_backtrack(251, 2, distinct=True).status == "sat"
    assert dpll(252, pattern_clauses(252, True)) is None
    clauses = pattern_clauses(251, True)
    model = dpll(251, clauses)
    assert model is not None
    assert all(any(model[abs(lit)] == (lit > 0) for lit in c) for c in clauses)
    coloring = [int(model[v]) for v in range(1, 252)]
    assert not check_interval_coloring(coloring, distinct=True)
