"""Search for colorings avoiding monochromatic {x, y, x+y, xy}.

Two landscapes: integer intervals {1, ..., N}, where the pattern only
constrains when all four values stay inside the interval, and the prime
fields F_p, where every coloring is scanned for its exact monochromatic
quadruple count (the quadruple (0, 0, 0, 0) makes that count >= 1
always).

Interval colorings are found by a depth-first search that propagates
after every assignment: each value keeps the set of colors it may still
take, and a pattern with all members but one fixed to a color removes
that color from the last one.  It settles the distinct two-color problem
in well under a second per N: {1..251} has a coloring and {1..252} has
none.  The patterns over {1..MAX_N} are indexed once, for both `distinct`
flags, on first use: for each value, the other members of every pattern
holding it, in order of the pattern's largest member, so the patterns
inside {1..N} are a prefix that one bisection finds.

The exhaustive F_p scan counts only the colorings with c(0) = 0 and
weights each by r: shifting every color by the same j mod r keeps every
monochromatic count.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .counting import ROW_BLOCK, MarginReport, monochromatic_counts
from .field import FieldCtx

MAX_N = 300
# colorings covered x p^2 pair checks one scan may make; 2^19 * 19^2 (about 1 s) fits
SCAN_BUDGET = 2 * 10**8


def interval_patterns(N: int, distinct: bool = False) -> list:
    """All value tuples (x, y, x+y, x*y) fully inside {1..N}, x <= y;
    with distinct=True only x != y generators count."""
    pats = []
    for x in range(1, N + 1):
        for y in range(x, N + 1):
            s, m = x + y, x * y
            if s > N or m > N:
                break  # both grow with y
            if not (distinct and x == y):
                pats.append((x, y, s, m))
    return pats


@functools.cache
def _pattern_index() -> dict:
    """distinct flag -> (tops, rests) over {1..MAX_N}: rests[v] holds the
    other members of every pattern containing v, ordered by the pattern's
    largest member, and tops[v] those largest members, ascending.  Both
    flags are built in one pass and share the member tuples."""
    index = {flag: ([[] for _ in range(MAX_N + 1)], [[] for _ in range(MAX_N + 1)])
             for flag in (False, True)}
    for pat in sorted(interval_patterns(MAX_N), key=max):
        members, top = set(pat), max(pat)
        flags = (False,) if pat[0] == pat[1] else (False, True)  # x = y: not distinct
        for v in members:
            rest = tuple(members - {v})
            for flag in flags:
                tops, rests = index[flag]
                tops[v].append(top)
                rests[v].append(rest)
    return index


def _pattern_others(N: int, distinct: bool) -> list:
    """value -> for each pattern inside {1..N} holding it, the pattern's
    other members (index 0 unused)."""
    tops, rests = _pattern_index()[bool(distinct)]
    return [rests[v][:bisect_right(tops[v], N)] for v in range(N + 1)]


def check_interval_coloring(coloring: Sequence[int], distinct: bool = False) -> list:
    """Independent re-verification of every pair x <= y with x+y, xy <= N;
    returns the list of violated patterns (empty means the coloring is
    valid)."""
    N = len(coloring)
    bad = []
    for x in range(1, N + 1):
        for y in range(x, N + 1):
            s, m = x + y, x * y
            if s > N or m > N:
                break
            if distinct and x == y:
                continue
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


def interval_backtrack(N: int, r: int, distinct: bool = False,
                       budget: int | None = None) -> SearchResult:
    """Depth-first r-coloring of {1..N} avoiding monochromatic patterns,
    with propagation after every assignment.

    Values are branched on in ascending order, colors least-used first
    (ties by index).  Each value keeps a bitmask of the colors it may
    still take, and each pattern is indexed by every member.  When all
    members of a pattern but one are fixed to color c, c leaves the last
    member's mask; a mask left with one color fixes its value, and the
    propagation goes on from there.  A pattern whose members are all fixed
    to one color prunes the branch, and a trail undoes every change on
    backtrack.  Propagation only cuts subtrees that hold no solution, so
    the certificate is the first one a plain DFS in the same order finds.

    `nodes` counts the colors tried, a value fixed by propagation counting
    as one; `best_depth` is the deepest value the search colored without a
    contradiction.  Returns a certificate (re-verified by the independent
    checker), an unsatisfiability report, or budget exhaustion after
    budget + 1 nodes (budget >= 0).
    """
    if r not in (2, 3):
        raise ValueError("r must be 2 or 3")
    if not 1 <= N <= MAX_N:
        raise ValueError(f"need 1 <= N <= {MAX_N}")
    if budget is not None and budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    # the order of a value's patterns does not matter: propagation reaches
    # the same fixpoint, or closes a pattern, in any order
    others = _pattern_others(N, distinct)
    full = (1 << r) - 1
    color_of = [-1] * (full + 1)  # mask -> its color if it holds just one
    for c in range(r):
        color_of[1 << c] = c

    mask = [full] * (N + 1)  # 1-based
    coloring = [-1] * (N + 1)
    trail: list = []  # (value, mask before the change)
    usage = [0] * r
    nodes = 0
    best_depth = 0

    def fix(v: int, c: int) -> bool:
        """Fix v to color c and propagate; False once a pattern closes.
        A mask never empties: a color leaves only values that are not yet
        fixed, so every dead end shows as a monochromatic pattern."""
        trail.append((v, mask[v]))
        mask[v], coloring[v] = 1 << c, c
        queue = [v]
        while queue:
            v = queue.pop()
            c = coloring[v]
            for rest in others[v]:
                free = 0
                for u in rest:
                    cu = coloring[u]
                    if cu == c:
                        continue
                    if cu >= 0 or free:
                        break  # two colors already, or two members still open
                    free = u
                else:
                    if not free:
                        return False
                    m = mask[free]
                    if m >> c & 1:
                        trail.append((free, m))
                        m ^= 1 << c
                        mask[free], coloring[free] = m, color_of[m]
                        if color_of[m] >= 0:
                            queue.append(free)
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            v, m = trail.pop()
            mask[v], coloring[v] = m, color_of[m]

    def colors_to_try(n: int) -> list:
        """n's remaining colors, least-used first, as a stack to pop."""
        m = mask[n]
        return [c for c in sorted(range(r), key=usage.__getitem__)[::-1] if m >> c & 1]

    # one (colors left to try, trail mark) per colored value 1..n-1; a loop
    # rather than recursion, so no closure refers to itself and each
    # search's tables are freed as soon as it returns
    opened: list = []
    n, left = 1, colors_to_try(1)
    while n <= N:
        if not left:
            if not opened:
                return SearchResult("unsat", N, r, distinct, None, nodes, best_depth)
            n -= 1
            left, mark = opened.pop()
            usage[coloring[n]] -= 1
            undo(mark)
            continue
        color = left.pop()
        nodes += 1
        if budget is not None and nodes > budget:
            return SearchResult("budget", N, r, distinct, None, nodes, best_depth)
        mark = len(trail)
        if coloring[n] >= 0 or fix(n, color):  # fixed by propagation, or fixed now
            usage[color] += 1
            best_depth = max(best_depth, n)
            opened.append((left, mark))
            n += 1
            left = colors_to_try(n) if n <= N else []
        else:
            undo(mark)
    cert = tuple(coloring[1:])
    bad = check_interval_coloring(cert, distinct)
    MarginReport.check("monochromatic patterns in the certificate", len(bad), 0, bad=bad[:3])
    return SearchResult("sat", N, r, distinct, cert, nodes, best_depth)


def interval_sweep(r: int, n_max: int, distinct: bool = False,
                   budget: int | None = None) -> dict:
    """Sweep N = 1..n_max; reports the largest N with a certificate and
    checks the UNSAT-monotonicity of the outcomes."""
    if not 1 <= n_max <= MAX_N:
        raise ValueError(f"need 1 <= N <= {MAX_N}")
    results = []
    last_sat = None
    unsat_seen = False
    for N in range(1, n_max + 1):
        res = interval_backtrack(N, r, distinct, budget)
        results.append(res)
        if res.status == "sat":
            MarginReport.check("an unsat N below this sat N", int(unsat_seen), 0, N=N)
            last_sat = N
        elif res.status == "unsat":
            unsat_seen = True
    return {"r": r, "distinct": distinct, "last_sat": last_sat,
            "results": results}


def fp_coloring_scan(ctx: FieldCtx, r: int, mode: str = "exhaustive",
                     count: int = 1000, rng=None) -> dict:
    """Min / mean monochromatic quadruple count over F_p colorings.

    mode "exhaustive" covers all r^p colorings; mode "random" samples
    `count` >= 1 uniform colorings.  Each coloring covered costs p^2 pair
    checks, and a scan may cover at most SCAN_BUDGET of them.  The reported
    min is a lower-bound witness for the c_r * p^2 quadruple guarantee at
    this p.

    The exhaustive scan counts only the r^(p-1) colorings with c(0) = 0
    and weights each by r: adding j mod r to every color keeps every
    monochromatic count, and each such orbit of r colorings has exactly one
    member with c(0) = 0.  Those come first in itertools.product order, so
    the lex-first minimizer is among them, and min, min_coloring, mean and
    scanned are those of the full enumeration.  The budget still counts the
    r^p colorings covered.
    """
    p = ctx.p
    if r < 1:
        raise ValueError(f"need r >= 1 colors, got {r}")
    if mode == "exhaustive":
        # r^p, but never a huge power where the budget rejects the scan anyway
        n_total = r**p if p * math.log2(r) < 64 else SCAN_BUDGET + 1
    elif mode == "random":
        if count < 1:
            raise ValueError(f"random scan needs count >= 1, got {count}")
        n_total = count
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if n_total * p**2 > SCAN_BUDGET:
        what = f"r^p = {r}^{p}" if mode == "exhaustive" else f"count = {count}"
        raise ValueError(f"{what} colorings at p^2 = {p**2} pair checks each exceed "
                         f"the scan budget of {SCAN_BUDGET} pair checks")
    size = max(1, ROW_BLOCK // p**2)  # colorings counted per call
    weight = 1  # colorings each counted one stands for
    if mode == "exhaustive":
        weight, n_counted = r, n_total // r
        digits = r ** np.arange(p - 1, -1, -1, dtype=np.int64)
        # base-r digits of 0..r^(p-1) - 1, most significant (c(0) = 0) first:
        # itertools.product order
        stacks = (np.arange(lo, min(lo + size, n_counted))[:, None] // digits % r
                  for lo in range(0, n_counted, size))
    else:
        if rng is None:
            rng = np.random.default_rng()
        stacks = (np.array([rng.integers(0, r, size=p) for _ in range(min(size, count - lo))])
                  for lo in range(0, count, size))

    best = None
    best_coloring = None
    total = 0
    for colorings in stacks:
        q = monochromatic_counts(ctx, colorings).sum(axis=-1)
        total += weight * int(q.sum())
        i = int(np.argmin(q))  # the first minimizer, so the lex-first one overall
        if best is None or q[i] < best:
            best, best_coloring = int(q[i]), colorings[i]
    MarginReport.check("the zero quadruple makes every count >= 1", 1, best)
    return {
        "p": p, "r": r, "mode": mode, "scanned": n_total,
        "min": best, "mean": total / n_total,
        "min_coloring": best_coloring.tolist(),
        "min_over_p2": best / p**2,
    }
