"""Pair-coloring Ramsey machinery on finite abelian groups.

Everything in this module is computed with exact rational arithmetic
(integer counts over power-of-|T| denominators); floating point never
enters, and each claim is checked by counting.MarginReport.check on ints
and Fractions, so with no tolerance.  The central quantity is the triple
density

  Lambda_T(A) = E_{t1..t5 in T} 1_A(t1, t4-t5) 1_A(t2, t4-t5) 1_A(t3, t2-t1)

which counts configurations (t1, u), (t2, u), (t3, t2-t1) inside a set
of pairs A, together with the defect-maximizing dependent random choice
step that drives the rich-color induction with thresholds
eps_r = 2^(1-7r) / (r!)^3.

The arithmetic runs on integer group codes.  An element (e_1, ..., e_m)
of Z_{n_1} x ... x Z_{n_m} has the mixed-radix code
sum_i e_i n_{i+1} ... n_m, its index in FiniteGroup.elements().  T - T
is one n x n code matrix built with numpy; its distinct codes number the
columns of the difference set, N(u) is a bincount over it, and a set of
pairs A becomes a boolean (position in T) x (column) mask.  The
pair-degree tables of Lambda_T and the densities delta_T are int64 array
algebra on these (integer products only, so no BLAS), and a PairColoring
builds its masks once.  The direct count `_lambda_direct`, the oracle
for the tables, reads none of this: it tests membership in A at the
differences FiniteGroup.sub returns, at every point of T^5.  Dependent
random choice runs on Python ints: weights scaled by their common
denominators, neighbourhoods as bitmasks, each threshold floored once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .counting import MarginReport

Element = tuple  # residue tuple, one entry per cyclic factor
Pair = tuple     # (t, u) with t, u elements

DIRECT_BUDGET = 10**9
DIRECT_BLOCK = 2**18  # points of T^5 that _lambda_direct tests per block
# extremal_coloring(r) colors 4^r pairs: one `ramsey --r` report took at
# most 2.7 s and 118 MB at r = 9 and 11-16 s and 370 MB at r = 10 on
# 2 vCPUs (BENCH_8.json), so r stops at 9 to hold a 5 s / 200 MB budget
EXTREMAL_MAX_R = 9


def eps_r(r: int) -> Fraction:
    """Induction threshold 2^(1-7r) / (r!)^3.

    This normalization makes 64 r^3 eps_r = eps_{r-1} / 2 an exact
    identity, which the recursion relies on.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    return Fraction(2, 2 ** (7 * r)) / Fraction(math.factorial(r)) ** 3


@dataclass(frozen=True)
class FiniteGroup:
    """Direct product of cyclic groups Z_{n_1} x ... x Z_{n_m}."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(int(n) for n in self.factors))
        if not self.factors or any(n < 1 for n in self.factors):
            raise ValueError("factors must be positive integers")

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    def elements(self) -> list:
        return [tuple(e) for e in itertools.product(*(range(n) for n in self.factors))]

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % n for x, y, n in zip(a, b, self.factors))

    @property
    def zero(self) -> Element:
        return tuple(0 for _ in self.factors)

    def difference_codes(self, T: Sequence[Element]) -> np.ndarray:
        """C[i, j] = the code of T[i] - T[j], an n x n int64 matrix.

        Raises ValueError unless T is nonempty and holds distinct elements
        (e_1, ..., e_m) with integers 0 <= e_i < n_i."""
        if not T:
            raise ValueError("T must be nonempty")
        if self.order > 2**62:
            raise ValueError(f"group order {self.order} exceeds the int64 codes")
        m = len(self.factors)
        for t in T:
            if len(t) != m or not all(isinstance(e, (int, np.integer)) and 0 <= e < n
                                      for e, n in zip(t, self.factors)):
                raise ValueError(f"{t!r} is not an element of Z_{self.factors} "
                                 "(need integers 0 <= e_i < n_i)")
        if len(set(T)) < len(T):
            raise ValueError("T has repeated elements")
        digits = np.array(T, dtype=np.int64).reshape(len(T), m)
        radix = np.array(self.factors, dtype=np.int64)
        place = np.array([math.prod(self.factors[i + 1:]) for i in range(m)],
                         dtype=np.int64)
        return ((digits[:, None, :] - digits[None, :, :]) % radix) @ place

    def decode(self, codes: np.ndarray) -> list:
        """The elements with the given codes, as tuples of ints."""
        return list(zip(*(d.tolist() for d in np.unravel_index(codes, self.factors))))


def boolean_cube(r: int) -> FiniteGroup:
    return FiniteGroup((2,) * r)


class _Differences:
    """T, its difference set T - T and the counts
    N(u) = #{(t4, t5) in T^2 : t4 - t5 = u}, on integer codes.

    Column k stands for the k-th distinct difference in the order a
    row-major scan of (t4, t5) first meets it: the order in which the
    rich-color step hands T - T to dependent random choice, whose ties go
    to the first y."""

    def __init__(self, group: FiniteGroup, T: Sequence[Element]):
        codes = group.difference_codes(T).ravel().tolist()
        column = {c: k for k, c in enumerate(dict.fromkeys(codes))}
        n = len(T)
        # D[i, j] = the column of T[i] - T[j]
        self.D = np.array([column[c] for c in codes]).reshape(n, n)
        self.N = np.bincount(self.D.ravel(), minlength=len(column))
        self.diffs = group.decode(np.array(list(column), dtype=np.int64))
        self.pos = {t: i for i, t in enumerate(T)}
        self.col = {u: k for k, u in enumerate(self.diffs)}

    def mask(self, A: Iterable[Pair]) -> np.ndarray:
        """M[i, k] = 1_A(T[i], diffs[k]); pairs outside T x (T - T) drop out."""
        pos, col = self.pos, self.col
        M = np.zeros((len(pos), len(col)), dtype=bool)
        cells = [(pos[t], col[u]) for t, u in A if t in pos and u in col]
        if cells:
            rows, cols = zip(*cells)
            M[list(rows), list(cols)] = True
        return M

    def density(self, M: np.ndarray) -> Fraction:
        """delta_T = #{(t, t1, t2) in T^3 : M at (t, t1 - t2)} / |T|^3."""
        return Fraction(int(M.sum(axis=0) @ self.N), len(self.pos) ** 3)


def lambda_T(group: FiniteGroup, T: Sequence[Element], A: Iterable[Pair],
             method: str = "tables") -> Fraction:
    """Triple density of A over T, an exact rational with denominator |T|^5.

    Every configuration counts, repeated pair-points included, as in the
    integral.  method: "tables" (the pair-degree factorization) or
    "direct" (the defining quintuple sum, the oracle, for |T|^5 <= 10^9).
    T must hold distinct group elements.
    """
    T = list(T)
    index = _Differences(group, T)
    n = len(T)
    if method == "direct":
        if n**5 > DIRECT_BUDGET:
            raise ValueError(
                f"|T|^5 = {n**5} exceeds the direct budget {DIRECT_BUDGET}; "
                "use the pair-degree tables")
        num = _lambda_direct(group, T, set(A))
    elif method == "tables":
        num = _lambda_tables(index, index.mask(A))
    else:
        raise ValueError(f"unknown method {method!r}")
    return Fraction(num, n**5)


def _lambda_direct(group: FiniteGroup, T: list, A: set) -> int:
    """The defining quintuple sum: the number of points of T^5 at which
    E[t1, t4, t5] & E[t2, t4, t5] & E[t3, t2, t1] holds, where
    E[a, i, j] = 1_A(T[a], T[i] - T[j]).

    This is the oracle for the tables, so it stays independent of them:
    E comes from group.sub and membership in A alone, with no codes, N(u)
    or degree tables.  Every point is tested, in blocks of about
    DIRECT_BLOCK points (runs of (t1, t2) with all of t3, t4, t5), and no
    sum is reordered or factored."""
    n = len(T)
    members: dict = {}  # u -> [1_A(t, u) for t in T]
    rows = []
    for t4 in T:
        row = []
        for t5 in T:
            u = group.sub(t4, t5)
            if u not in members:
                members[u] = [(t, u) in A for t in T]
            row.append(members[u])
        rows.append(row)
    E = np.ascontiguousarray(np.array(rows, dtype=bool).transpose(2, 0, 1))
    first, second = np.divmod(np.arange(n * n), n)
    step = max(1, DIRECT_BLOCK // n**3)
    count = 0
    for s in range(0, n * n, step):
        t1, t2 = first[s:s + step], second[s:s + step]
        both = E[t1] & E[t2]   # both[k, t4, t5]
        third = E[:, t2, t1].T  # third[k, t3] = E[t3, t2, t1]
        count += int(np.count_nonzero(both[:, None] & third[:, :, None, None]))
    return count


def _lambda_tables(index: _Differences, M: np.ndarray) -> int:
    """Pair-degree factorization of the numerator of Lambda_T: the sum over
    u of N(u) times the number of (t1, t2) pairs in the u-column of A, each
    weighted by the degree deg(t2 - t1) = #{t3 : (t3, t2 - t1) in A}.

    With M the T x (T - T) mask of A this is the sum of W * V over T x T,
    where W = M diag(N) M^T and V[a, b] = deg(T[b] - T[a]): integer array
    algebra (no BLAS), over only the rows and columns that A touches."""
    deg = M.sum(axis=0)
    rows, cols = np.flatnonzero(M.any(axis=1)), np.flatnonzero(deg)
    Mr = M[rows]
    W = np.einsum("ik,jk->ij", Mr[:, cols] * index.N[cols], Mr[:, cols])
    C = index.D.T[np.ix_(rows, rows)]  # C[a, b] = column of T[b] - T[a]
    num = W * deg[C]
    return sum(num.sum(axis=1).tolist())


@dataclass(frozen=True)
class PairColoring:
    """Partial coloring of T x (T - T) with an explicit uncolored set.

    classes[i] is the set of pairs with color i; the uncolored set E is
    the remainder of the domain T x (T - T).  T must hold distinct group
    elements.  The difference tables and one mask per class are built
    once, at construction.
    """

    group: FiniteGroup
    T: tuple
    classes: tuple  # tuple of frozensets of pairs
    _index: _Differences = field(init=False, compare=False, repr=False)
    _masks: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "T", tuple(self.T))
        object.__setattr__(
            self, "classes", tuple(frozenset(c) for c in self.classes))
        index = _Differences(self.group, self.T)
        masks = np.zeros((self.r, len(self.T), len(index.diffs)), dtype=bool)
        for i, cls in enumerate(self.classes):
            masks[i] = index.mask(cls)
            if masks[i].sum() < len(cls):
                raise ValueError(f"class {i} contains pairs outside T x (T-T)")
            if (masks[:i] & masks[i]).any():
                raise ValueError(f"class {i} overlaps an earlier class")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_masks", masks)

    @property
    def r(self) -> int:
        return len(self.classes)

    def uncolored(self) -> frozenset:
        rows, cols = np.nonzero(~self._masks.any(axis=0))
        diffs = self._index.diffs
        return frozenset((self.T[a], diffs[k])
                         for a, k in zip(rows.tolist(), cols.tolist()))

    def lam(self, color: int) -> Fraction:
        return Fraction(_lambda_tables(self._index, self._masks[color]),
                        len(self.T) ** 5)

    def _restrict(self, T: tuple) -> "PairColoring":
        """The coloring of T x (T - T), for T inside self.T, read off the
        class masks."""
        sub = _Differences(self.group, T)
        rows = [self._index.pos[t] for t in T]
        cols = [self._index.col[u] for u in sub.diffs]
        classes = []
        for mask in self._masks[:, rows][:, :, cols]:
            a, k = np.nonzero(mask)
            classes.append(frozenset((T[i], sub.diffs[j])
                                     for i, j in zip(a.tolist(), k.tolist())))
        return PairColoring(self.group, T, tuple(classes))

    def to_json(self) -> dict:
        return {
            "group": list(self.group.factors),
            "T": [list(t) for t in self.T],
            "classes": [sorted([list(t), list(u)] for t, u in cls)
                        for cls in self.classes],
        }

    @staticmethod
    def from_json(obj: Mapping) -> "PairColoring":
        try:
            group = FiniteGroup(tuple(obj["group"]))
            T = tuple(tuple(t) for t in obj["T"])
            if len(T) > 2**EXTREMAL_MAX_R:  # the tables cost |T|^2 memory, |T|^3 time
                raise ValueError(f"|T| = {len(T)} > 2^{EXTREMAL_MAX_R} breaks the "
                                 "5 s / 200 MB budget of one ramsey report")
            classes = [frozenset((tuple(t), tuple(u)) for t, u in cls)
                       for cls in obj["classes"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed pair coloring: {exc!r}") from exc
        return PairColoring(group, T, classes)


def extremal_coloring(r: int) -> PairColoring:
    """The (2r+1)-class coloring of F_2^r x F_2^r in which every
    configuration lives in class 0 and class 0 has density exactly 4^-r.

    Class 0 is {(t, 0)}; for i in 1..r class i is
    {(t, u) : u_1 = ... = u_{i-1} = 0, u_i = 1, t_i = 0} and class r+i is
    the same with t_i = 1.  Verified here: no pair is uncolored (so the
    disjoint classes partition G x G), Lambda(class i) = 0 exactly for
    i >= 1, and Lambda(class 0) = 4^-r.
    """
    if not 1 <= r <= EXTREMAL_MAX_R:
        raise ValueError(f"need 1 <= r <= {EXTREMAL_MAX_R}: larger r breaks the "
                         "5 s / 200 MB budget of one ramsey report")
    group = boolean_cube(r)
    G = group.elements()
    zero = group.zero
    classes = [set() for _ in range(2 * r + 1)]
    for t in G:
        for u in G:
            if u == zero:
                classes[0].add((t, u))
            else:
                i = next(j for j in range(r) if u[j] == 1)
                classes[1 + i + r * t[i]].add((t, u))
    col = PairColoring(group, tuple(G), tuple(classes))
    MarginReport.check("uncolored pairs", len(col.uncolored()), 0)
    MarginReport.check("|Lambda(class 0) - 4^-r|", abs(col.lam(0) - Fraction(1, 4**r)), 0, r=r)
    MarginReport.check("max Lambda(class i), i >= 1",
                       max(col.lam(i) for i in range(1, 2 * r + 1)), 0)
    return col


@dataclass(frozen=True)
class DRCResult:
    """Output of the dependent random choice step."""

    x_prime: frozenset
    witness_y: object
    alpha: Fraction
    eta: Fraction
    bad_pairs: frozenset      # E: pairs with few common neighbours
    x_prime_measure: Fraction
    bad_measure_inside: Fraction


def _scaled(nu: dict) -> tuple:
    """(L, weights, groups): nu = weights / L over the common denominator L,
    and groups pairs each weight value with the bitmask of its indices."""
    L = math.lcm(*(w.denominator for w in nu.values()))
    weights = [w.numerator * (L // w.denominator) for w in nu.values()]
    groups: dict = {}
    for i, w in enumerate(weights):
        groups[w] = groups.get(w, 0) | 1 << i
    return L, weights, list(groups.items())


def _weigh(mask: int, groups: list) -> int:
    """The total integer weight of the indices set in mask."""
    return sum(w * (mask & g).bit_count() for w, g in groups)


def _bits(mask: int):
    """The indices set in mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def dependent_random_choice(nu_x: Mapping, nu_y: Mapping, A: Iterable[Pair],
                            eta) -> DRCResult:
    """Defect-maximizing common neighbourhood, with exact verification.

    nu_x and nu_y map points to Fraction weights >= 0 summing to 1; A is a set
    of (x, y) pairs.  Returns X' = N_X(y*) for the first y* maximizing

      sum_{x1, x2 in N_X(y)} (1 - 1_E(x1,x2)/eta) nu_x(x1) nu_x(x2),

    where E is the set of pairs (x1, x2) whose common neighbourhood in Y
    has measure <= eta * alpha^2 / 2.  Both conclusions are asserted
    exactly: nu_x(X') >= alpha/2 and nu_x x nu_x (E inside X'^2)
    <= eta * nu_x(X')^2.  The loops run on Python ints: weights scaled by
    their common denominators, neighbourhoods as bitmasks, and the
    threshold floored once.
    """
    eta = Fraction(eta)
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    nu_x = {x: Fraction(w) for x, w in nu_x.items() if w != 0}
    nu_y = {y: Fraction(w) for y, w in nu_y.items() if w != 0}
    for name, nu in (("nu_x", nu_x), ("nu_y", nu_y)):
        if min(nu.values(), default=0) < 0 or sum(nu.values()) != 1:
            raise ValueError(f"{name}: weights must be >= 0 and sum to 1 exactly")
    xs, ys = list(nu_x), list(nu_y)
    Lx, wx, x_groups = _scaled(nu_x)
    Ly, _, y_groups = _scaled(nu_y)
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: j for j, y in enumerate(ys)}
    ny = [0] * len(xs)  # ny[i]: bitmask of the neighbours in Y of xs[i]
    nx = [0] * len(ys)  # nx[j]: bitmask of the neighbours in X of ys[j]
    for x, y in A:
        if x in xi and y in yi:
            ny[xi[x]] |= 1 << yi[y]
            nx[yi[y]] |= 1 << xi[x]
    a = sum(w * _weigh(m, y_groups) for w, m in zip(wx, ny))
    if a == 0:
        raise ValueError("A must have positive measure")
    alpha = Fraction(a, Lx * Ly)

    # common measure c / Ly <= eta * alpha^2 / 2, with c an integer
    bound = eta.numerator * a * a // (2 * eta.denominator * Lx * Lx * Ly)
    bad = [0] * len(xs)
    for i, m in enumerate(ny):
        for j in range(i, len(xs)):
            if _weigh(m & ny[j], y_groups) <= bound:
                bad[i] |= 1 << j
                bad[j] |= 1 << i

    # the defect of y times p Lx^2, for eta = p/q: p S^2 - q B, where
    # S = Lx nu_x(N_X(y)) and B = Lx^2 (nu_x x nu_x)(E inside N_X(y)^2)
    best = best_defect = None
    for j, m in enumerate(nx):
        S = _weigh(m, x_groups)
        B = sum(wx[i] * _weigh(m & bad[i], x_groups) for i in _bits(m))
        defect = eta.numerator * S * S - eta.denominator * B
        if best_defect is None or defect > best_defect:
            best, best_defect, S_best, B_best = j, defect, S, B

    x_prime = frozenset(xs[i] for i in _bits(nx[best]))
    measure = Fraction(S_best, Lx)
    bad_inside = Fraction(B_best, Lx * Lx)
    MarginReport.check("alpha/2 <= nu_x(X')", a, 2 * S_best * Ly,
                       alpha=alpha, x_prime_measure=measure)
    MarginReport.check("bad-pair mass in X'^2 <= eta nu_x(X')^2",
                       eta.denominator * B_best, eta.numerator * S_best * S_best,
                       bad_inside=bad_inside, x_prime_measure=measure, eta=eta)
    bad_pairs = frozenset((xs[i], xs[j]) for i, m in enumerate(bad)
                          for j in _bits(m))
    return DRCResult(x_prime, ys[best], alpha, eta, bad_pairs, measure,
                     bad_inside)


def find_rich_color(col: PairColoring, mode: str = "oracle") -> tuple:
    """A color i with Lambda_T(class i) >= eps_r^2, plus that exact value.

    Requires delta_T(uncolored set) <= eps_r (checked exactly).  In
    "oracle" mode every class is evaluated and the max is returned.  In
    "constructive" mode the recursion is followed: pick a class of
    density >= 1/2r, run dependent random choice with eta = eps_{r-1}/4
    over (T, mu_T) x (T-T, mu_T * mu_{-T}), keep that class if it stays
    dense on the returned T', otherwise recurse on the remaining r-1
    colors restricted to T'.  Both modes assert the eps_r^2 bound.
    """
    r = col.r
    if r == 0:
        raise ValueError("no 0-colorings of a nonempty domain")
    threshold = eps_r(r)
    defect = col._index.density(~col._masks.any(axis=0))
    if defect > threshold:
        raise ValueError(f"uncolored density {defect} exceeds eps_{r} = {threshold}")

    if mode == "oracle":
        values = [col.lam(i) for i in range(r)]
        best = max(range(r), key=lambda i: values[i])
        value = values[best]
    elif mode == "constructive":
        best = _rich_color_recursive(col, list(range(r)))
        value = col.lam(best)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    MarginReport.check("eps_r^2 <= Lambda(rich color)", threshold**2, value, r=r, color=best)
    return best, value


def _rich_color_recursive(col: PairColoring, colors: list):
    """One step of the induction; returns an original color index."""
    r = len(colors)
    index = col._index
    densities = [(index.density(col._masks[i]), i) for i in colors]
    dens, i_star = max(densities)
    # pigeonhole cannot fail when the uncolored defect is small; this
    # is unreachable for valid inputs but kept as a guard
    MarginReport.check("1 <= 2r max color density", 1, 2 * r * dens, r=r)
    if r == 1:
        return i_star
    eta = eps_r(r - 1) / 4
    n = len(col.T)
    nu_x = {t: Fraction(1, n) for t in col.T}
    nu_y = {u: Fraction(w, n * n) for u, w in zip(index.diffs, index.N.tolist())}
    drc = dependent_random_choice(nu_x, nu_y, col.classes[i_star], eta)
    restricted = col._restrict(tuple(sorted(drc.x_prime)))
    if 2 * restricted._index.density(restricted._masks[i_star]) >= eps_r(r - 1):
        return i_star
    remaining = [i for i in colors if i != i_star]
    return _rich_color_recursive(restricted, remaining)

