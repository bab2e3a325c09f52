"""Search for colorings avoiding monochromatic {x, y, x+y, xy}.

Two landscapes: integer intervals {1, ..., N}, where the pattern only
constrains when all four values stay inside the interval, and the prime
fields F_p, where every coloring is scanned for its exact monochromatic
quadruple count (the quadruple (0, 0, 0, 0) makes that count >= 1
always).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .counting import monochromatic_mask
from .field import FieldCtx

MAX_N = 300
EXHAUSTIVE_BUDGET = 10**7


def interval_patterns(N: int, distinct: bool = False) -> list:
    """All value tuples (x, y, x+y, x*y) fully inside {1..N}, x <= y;
    with distinct=True only x != y generators count."""
    pats = []
    for x in range(1, N + 1):
        for y in range(x, N + 1):
            if distinct and x == y:
                continue
            s, m = x + y, x * y
            if s <= N and m <= N:
                pats.append((x, y, s, m))
    return pats


def check_interval_coloring(coloring: Sequence[int], distinct: bool = False) -> list:
    """Independent O(N^2) re-verification; returns the list of violated
    patterns (empty means the coloring is valid)."""
    N = len(coloring)
    bad = []
    for x in range(1, N + 1):
        for y in range(x, N + 1):
            if distinct and x == y:
                continue
            s, m = x + y, x * y
            if s <= N and m <= N:
                c = coloring[x - 1]
                if (coloring[y - 1] == c and coloring[s - 1] == c
                        and coloring[m - 1] == c):
                    bad.append((x, y, s, m))
    return bad


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a backtracking run."""

    status: str            # "sat", "unsat", or "budget"
    N: int
    r: int
    distinct: bool
    coloring: tuple | None
    nodes: int
    best_depth: int

    def to_json(self) -> dict:
        out = {"status": self.status, "N": self.N, "r": self.r,
               "distinct": self.distinct, "nodes": self.nodes,
               "best_depth": self.best_depth}
        if self.coloring is not None:
            out["coloring"] = list(self.coloring)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)


def interval_backtrack(N: int, r: int, distinct: bool = False,
                       budget: int | None = None) -> SearchResult:
    """Depth-first r-coloring of {1..N} avoiding monochromatic patterns.

    Values are assigned in ascending order; at value n only patterns whose
    maximum element is n can close, so the check is incremental.  Colors
    are tried least-used first.  Returns a certificate (re-verified by the
    independent checker), an unsatisfiability report with the node count,
    or budget exhaustion with the deepest level reached.
    """
    if r not in (2, 3):
        raise ValueError("r must be 2 or 3")
    if not 1 <= N <= MAX_N:
        raise ValueError(f"need 1 <= N <= {MAX_N}")
    by_max: list = [[] for _ in range(N + 1)]
    for pat in interval_patterns(N, distinct):
        by_max[max(pat)].append(pat)

    coloring = [-1] * (N + 1)  # 1-based
    usage = [0] * r
    nodes = 0
    best_depth = 0

    def closes(n: int, color: int) -> bool:
        for pat in by_max[n]:
            if all(coloring[v] == color for v in pat if v != n):
                return True
        return False

    def dfs(n: int) -> bool:
        nonlocal nodes, best_depth
        if n > N:
            return True
        for color in sorted(range(r), key=lambda c: usage[c]):
            nodes += 1
            if budget is not None and nodes > budget:
                raise _BudgetExhausted
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
        found = dfs(1)
    except _BudgetExhausted:
        return SearchResult("budget", N, r, distinct, None, nodes, best_depth)
    if not found:
        return SearchResult("unsat", N, r, distinct, None, nodes, best_depth)
    cert = tuple(coloring[1:])
    bad = check_interval_coloring(cert, distinct)
    if bad:
        raise AssertionError(f"search returned an invalid certificate: {bad[:3]}")
    return SearchResult("sat", N, r, distinct, cert, nodes, best_depth)


class _BudgetExhausted(Exception):
    pass


def interval_sweep(r: int, n_max: int, distinct: bool = False,
                   budget: int | None = None) -> dict:
    """Sweep N = 1..n_max; reports the largest N with a certificate and
    checks the UNSAT-monotonicity of the outcomes."""
    results = []
    last_sat = None
    unsat_seen = False
    for N in range(1, n_max + 1):
        res = interval_backtrack(N, r, distinct, budget)
        results.append(res)
        if res.status == "sat":
            if unsat_seen:
                raise AssertionError(
                    f"N = {N} satisfiable after an unsatisfiable smaller N")
            last_sat = N
        elif res.status == "unsat":
            unsat_seen = True
    return {"r": r, "distinct": distinct, "last_sat": last_sat,
            "results": results}


def fp_coloring_scan(ctx: FieldCtx, r: int, mode: str = "exhaustive",
                     count: int = 1000, rng=None) -> dict:
    """Min / mean monochromatic quadruple count over F_p colorings.

    mode "exhaustive" enumerates all r^p colorings (requires r^p <= 10^7);
    mode "random" samples `count` uniform colorings.  The reported min is
    a lower-bound witness for the c_r * p^2 quadruple guarantee at this p.
    """
    p = ctx.p
    if r < 1:
        raise ValueError(f"need r >= 1 colors, got {r}")
    if mode == "exhaustive":
        if r**p > EXHAUSTIVE_BUDGET:
            raise ValueError(f"r^p = {r**p} exceeds the exhaustive budget")
        colorings = (np.array(c, dtype=np.int64)
                     for c in itertools.product(range(r), repeat=p))
        n_total = r**p
    elif mode == "random":
        if count < 1:
            raise ValueError(f"random scan needs count >= 1, got {count}")
        if rng is None:
            rng = np.random.default_rng()
        colorings = (rng.integers(0, r, size=p) for _ in range(count))
        n_total = count
    else:
        raise ValueError(f"unknown mode {mode!r}")

    best = None
    best_coloring = None
    total = 0
    for c in colorings:
        q = int(np.count_nonzero(monochromatic_mask(ctx, c)))
        total += q
        if best is None or q < best:
            best, best_coloring = q, np.array(c)
    if best < 1:
        raise AssertionError("the zero quadruple makes every count >= 1")
    return {
        "p": p, "r": r, "mode": mode, "scanned": n_total,
        "min": best, "mean": total / n_total,
        "min_coloring": best_coloring.tolist(),
        "min_over_p2": best / p**2,
    }
