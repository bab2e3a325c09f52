"""Pair-coloring Ramsey machinery on finite abelian groups.

Everything in this module is computed with exact rational arithmetic
(integer counts over power-of-|T| denominators); floating point never
enters.  The central quantity is the triple density

  Lambda_T(A) = E_{t1..t5 in T} 1_A(t1, t4-t5) 1_A(t2, t4-t5) 1_A(t3, t2-t1)

which counts configurations (t1, u), (t2, u), (t3, t2-t1) inside a set
of pairs A, together with the defect-maximizing dependent random choice
step that drives the rich-color induction with thresholds
eps_r = 2^(1-7r) / (r!)^3.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

Element = tuple  # residue tuple, one entry per cyclic factor
Pair = tuple     # (t, u) with t, u elements

DIRECT_BUDGET = 10**9
ACCEL_REQUIRED_ABOVE = 10**7


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

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % n for x, y, n in zip(a, b, self.factors))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % n for x, n in zip(a, self.factors))

    @property
    def zero(self) -> Element:
        return tuple(0 for _ in self.factors)


def cyclic(n: int) -> FiniteGroup:
    return FiniteGroup((n,))


def boolean_cube(r: int) -> FiniteGroup:
    return FiniteGroup((2,) * r)


def difference_multiset(group: FiniteGroup, T: Sequence[Element]) -> dict:
    """Counts N(u) = #{(t4, t5) in T^2 : t4 - t5 = u}; the weighted
    multiset realizing mu_T * mu_{-T} up to the |T|^2 denominator."""
    N: dict = {}
    for t4 in T:
        for t5 in T:
            u = group.sub(t4, t5)
            N[u] = N.get(u, 0) + 1
    return N


def lambda_T(group: FiniteGroup, T: Sequence[Element], A: Iterable[Pair],
             distinct: bool = False, method: str = "auto") -> Fraction:
    """Triple density of A over T, an exact rational with denominator |T|^5.

    With distinct=True the three pair-points (t1, u), (t2, u), (t3, t2-t1)
    are required to be pairwise distinct, matching the combinatorial model
    statement; the default counts all configurations, matching the integral.

    method: "auto" (tables, falling back to the defining quintuple sum only
    on request), "direct" (the defining sum, |T|^5 <= 10^9), or
    "tables" (pair-degree factorization, required above 10^7).
    """
    T = list(T)
    A = set(A)
    n = len(T)
    if n == 0:
        raise ValueError("T must be nonempty")
    if method == "auto":
        method = "tables"
    if method == "direct":
        if n**5 > DIRECT_BUDGET:
            raise ValueError(
                f"|T|^5 = {n**5} exceeds the direct budget {DIRECT_BUDGET}; "
                "use the pair-degree tables")
        if distinct:
            raise ValueError("distinct counting is only provided via tables")
        num = _lambda_direct(group, T, A)
    elif method == "tables":
        num = _lambda_tables(group, T, A, distinct)
    else:
        raise ValueError(f"unknown method {method!r}")
    return Fraction(num, n**5)


def _lambda_direct(group: FiniteGroup, T: list, A: set) -> int:
    """The defining quintuple sum, enumerated without factorization tricks
    (as an exact-integer tensor contraction over all of T^5)."""
    n = len(T)
    # E[a, i, j] = 1_A(T[a], T[i] - T[j]);  F[c, b, a] = 1_A(T[c], T[b] - T[a])
    E = np.zeros((n, n, n), dtype=np.int64)
    for i, t4 in enumerate(T):
        for j, t5 in enumerate(T):
            u = group.sub(t4, t5)
            for a, t in enumerate(T):
                if (t, u) in A:
                    E[a, i, j] = 1
    return int(np.einsum("aij,bij,cba->", E, E, E, dtype=np.int64))


def _lambda_tables(group: FiniteGroup, T: list, A: set, distinct: bool) -> int:
    """Pair-degree factorization: sum over u of N(u) times the number of
    (t1, t2) pairs in the u-column of A, each weighted by the degree
    D_A(t2 - t1) of the third coordinate."""
    N = difference_multiset(group, T)
    Tset = set(T)
    D: dict = {}
    S: dict = {}
    for t, u in A:
        if t in Tset:
            D[u] = D.get(u, 0) + 1
            S.setdefault(u, []).append(t)
    num = 0
    for u, weight in N.items():
        col = S.get(u, ())
        if not col:
            continue
        block = 0
        for t1 in col:
            for t2 in col:
                if distinct and t1 == t2:
                    continue
                v = group.sub(t2, t1)
                block += D.get(v, 0)
                if distinct and v == u:
                    # exclude t3 = t1 and t3 = t2: both pairs (t_i, v)
                    # lie in A when v = u, and they collide with the
                    # first two points of the configuration
                    block -= 2
        num += weight * block
    return num


@dataclass(frozen=True)
class PairColoring:
    """Partial coloring of T x (T - T) with an explicit uncolored set.

    classes[i] is the set of pairs with color i; the uncolored set E is
    the remainder of the domain T x (T - T).
    """

    group: FiniteGroup
    T: tuple
    classes: tuple  # tuple of frozensets of pairs

    def __post_init__(self):
        object.__setattr__(self, "T", tuple(self.T))
        object.__setattr__(
            self, "classes", tuple(frozenset(c) for c in self.classes))
        dom = self.domain()
        seen: set = set()
        for i, cls in enumerate(self.classes):
            extra = cls - dom
            if extra:
                raise ValueError(f"class {i} contains pairs outside T x (T-T)")
            overlap = cls & seen
            if overlap:
                raise ValueError(f"class {i} overlaps an earlier class")
            seen |= cls

    @property
    def r(self) -> int:
        return len(self.classes)

    def domain(self) -> frozenset:
        diffs = set(difference_multiset(self.group, self.T))
        return frozenset((t, u) for t in self.T for u in diffs)

    def uncolored(self) -> frozenset:
        dom = set(self.domain())
        for cls in self.classes:
            dom -= cls
        return frozenset(dom)

    def delta(self, A: Iterable[Pair]) -> Fraction:
        """delta_T(A) = #{(t, t1, t2) in T^3 : (t, t1-t2) in A} / |T|^3."""
        A = set(A)
        N = difference_multiset(self.group, self.T)
        num = 0
        for u, weight in N.items():
            for t in self.T:
                if (t, u) in A:
                    num += weight
        return Fraction(num, len(self.T) ** 3)

    def lam(self, color: int, distinct: bool = False) -> Fraction:
        return lambda_T(self.group, self.T, self.classes[color],
                        distinct=distinct)

    def to_json(self) -> dict:
        return {
            "group": list(self.group.factors),
            "T": [list(t) for t in self.T],
            "classes": [sorted([list(t), list(u)] for t, u in cls)
                        for cls in self.classes],
        }

    @staticmethod
    def from_json(obj: Mapping) -> "PairColoring":
        group = FiniteGroup(tuple(obj["group"]))
        T = tuple(tuple(t) for t in obj["T"])
        classes = [frozenset((tuple(t), tuple(u)) for t, u in cls)
                   for cls in obj["classes"]]
        return PairColoring(group, T, classes)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)


def extremal_coloring(r: int) -> PairColoring:
    """The (2r+1)-class coloring of F_2^r x F_2^r in which every
    configuration lives in class 0 and class 0 has density exactly 4^-r.

    Class 0 is {(t, 0)}; for i in 1..r class i is
    {(t, u) : u_1 = ... = u_{i-1} = 0, u_i = 1, t_i = 0} and class r+i is
    the same with t_i = 1.  Verified here: the classes partition G x G,
    Lambda(class i) = 0 exactly for i >= 1, and Lambda(class 0) = 4^-r.
    """
    if not 1 <= r <= 10:
        raise ValueError("need 1 <= r <= 10")
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
    total = sum(len(c) for c in classes)
    if total != group.order ** 2:
        raise AssertionError("classes do not partition G x G")
    col = PairColoring(group, tuple(G), tuple(classes))
    if col.uncolored():
        raise AssertionError("extremal coloring left pairs uncolored")
    lam0 = col.lam(0)
    if lam0 != Fraction(1, 4**r):
        raise AssertionError(f"Lambda(class 0) = {lam0} != 4^-{r}")
    for i in range(1, 2 * r + 1):
        li = col.lam(i)
        if li != 0:
            raise AssertionError(f"Lambda(class {i}) = {li} != 0")
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


def dependent_random_choice(nu_x: Mapping, nu_y: Mapping, A: Iterable[Pair],
                            eta) -> DRCResult:
    """Defect-maximizing common neighbourhood, with exact verification.

    nu_x and nu_y map points to Fraction weights summing to 1; A is a set
    of (x, y) pairs.  Returns X' = N_X(y*) for the y* maximizing

      sum_{x1, x2 in N_X(y)} (1 - 1_E(x1,x2)/eta) nu_x(x1) nu_x(x2),

    where E is the set of pairs (x1, x2) whose common neighbourhood in Y
    has measure <= eta * alpha^2 / 2.  Both conclusions are asserted
    exactly: nu_x(X') >= alpha/2 and nu_x x nu_x (E inside X'^2)
    <= eta * nu_x(X')^2.
    """
    eta = Fraction(eta)
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    nu_x = {x: Fraction(w) for x, w in nu_x.items() if w != 0}
    nu_y = {y: Fraction(w) for y, w in nu_y.items() if w != 0}
    if sum(nu_x.values()) != 1 or sum(nu_y.values()) != 1:
        raise ValueError("weights must sum to 1 exactly")
    A = {(x, y) for x, y in A if x in nu_x and y in nu_y}
    alpha = sum(nu_x[x] * nu_y[y] for x, y in A)
    if alpha == 0:
        raise ValueError("A must have positive measure")

    ny: dict = {}  # x -> set of neighbours in Y
    nx: dict = {}  # y -> set of neighbours in X
    for x, y in A:
        ny.setdefault(x, set()).add(y)
        nx.setdefault(y, set()).add(x)

    xs = list(nu_x)
    threshold = eta * alpha * alpha / 2
    bad = set()
    for i, x1 in enumerate(xs):
        n1 = ny.get(x1, set())
        for x2 in xs[i:]:
            common = sum(nu_y[y] for y in n1 & ny.get(x2, set()))
            if common <= threshold:
                bad.add((x1, x2))
                bad.add((x2, x1))

    best_y, best_defect = None, None
    for y in nu_y:
        nbhd = nx.get(y, set())
        defect = Fraction(0)
        for x1 in nbhd:
            for x2 in nbhd:
                w = nu_x[x1] * nu_x[x2]
                defect += w
                if (x1, x2) in bad:
                    defect -= w / eta
        if best_defect is None or defect > best_defect:
            best_y, best_defect = y, defect

    x_prime = frozenset(nx.get(best_y, set()))
    measure = sum(nu_x[x] for x in x_prime)
    if 2 * measure < alpha:
        raise AssertionError(f"nu_x(X') = {measure} < alpha/2 = {alpha / 2}")
    bad_inside = sum(nu_x[x1] * nu_x[x2] for x1 in x_prime for x2 in x_prime
                     if (x1, x2) in bad)
    if bad_inside > eta * measure * measure:
        raise AssertionError(
            f"bad-pair mass {bad_inside} > eta * nu_x(X')^2 "
            f"= {eta * measure * measure}")
    return DRCResult(x_prime, best_y, alpha, eta, frozenset(bad),
                     measure, bad_inside)


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
    defect = col.delta(col.uncolored())
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
    if value < threshold**2:
        raise AssertionError(
            f"color {best} has Lambda = {value} < eps_{r}^2 = {threshold**2}")
    return best, value


def _rich_color_recursive(col: PairColoring, colors: list):
    """One step of the induction; returns an original color index."""
    r = len(colors)
    densities = [(col.delta(col.classes[i]), i) for i in colors]
    dens, i_star = max(densities)
    if 2 * r * dens < 1:
        # pigeonhole cannot fail when the uncolored defect is small; this
        # is unreachable for valid inputs but kept as a guard
        raise AssertionError("no color of density >= 1/2r")
    if r == 1:
        return i_star
    eta = eps_r(r - 1) / 4
    n = len(col.T)
    nu_x = {t: Fraction(1, n) for t in col.T}
    N = difference_multiset(col.group, col.T)
    nu_y = {u: Fraction(w, n * n) for u, w in N.items()}
    drc = dependent_random_choice(nu_x, nu_y, col.classes[i_star], eta)
    t_prime = tuple(sorted(drc.x_prime))
    restricted = PairColoring(
        col.group, t_prime,
        tuple(_restrict(col.group, t_prime, col.classes[i])
              for i in range(col.r)))
    if 2 * restricted.delta(col.classes[i_star]) >= eps_r(r - 1):
        return i_star
    remaining = [i for i in colors if i != i_star]
    return _rich_color_recursive(restricted, remaining)


def _restrict(group: FiniteGroup, T: tuple, cls: frozenset) -> frozenset:
    diffs = set(difference_multiset(group, T))
    tset = set(T)
    return frozenset((t, u) for t, u in cls if t in tset and u in diffs)


def grid_triple_search(coloring: np.ndarray, N: int | None = None):
    """Monochromatic (t1, u), (t2, u), (t3, t2 - t1) with distinct points
    in a coloring of [N] x [N] (1-based coordinates), or None.

    coloring[t - 1, u - 1] is the color of (t, u).  O(N^3) via per-color
    membership on the third point.
    """
    arr = np.asarray(coloring)
    if N is None:
        N = arr.shape[0]
    if arr.shape != (N, N):
        raise ValueError("coloring must be an N x N array")
    if N > 200:
        raise ValueError("N capped at 200")
    for t1 in range(1, N + 1):
        for t2 in range(t1 + 1, N + 1):
            v = t2 - t1
            for u in range(1, N + 1):
                color = arr[t1 - 1, u - 1]
                if arr[t2 - 1, u - 1] != color:
                    continue
                for t3 in range(1, N + 1):
                    if arr[t3 - 1, v - 1] != color:
                        continue
                    if v == u and t3 in (t1, t2):
                        continue
                    return {"t1": t1, "t2": t2, "t3": t3, "u": u,
                            "color": int(color)}
    return None
