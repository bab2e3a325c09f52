"""The quadruple-counting operator T and its audit machinery.

T(f1,f2,f3,f4) := E_{x,y in F} f1(x) f2(y) f3(x+y) f4(xy).  On indicator
functions, p^2 * T counts pairs (x,y) whose quadruple (x, y, x+y, xy) is
confined to the indicated sets.  The censuses here are the exact-integer
ground truth; the floating T is the cross-check.

T, T_tilde and the censuses walk the pair table (x, y) over all of
F x F once (_pair_walk): they run at any table prime in O(p^2) time and
hold no p x p array.  F* x F* is walked in discrete-log coordinates,
where every slot is a window or a row copy of a dlog-ordered table, and
row x = 0 with column y = 0 is one block of 2p - 1 pairs.  T_tilde drops
that block's pairs by zeroing g1(0) and g2(0).

Audit policy.  Every claim the library checks, float or exact, goes through
MarginReport.check(name, lhs, rhs, **details): it records lhs <= rhs with
slack = rhs - lhs, raises AssertionError naming the check, both sides and
the details unless ok(), and otherwise returns the report, so that implicit
O(.) constants become measurable instead of assumed.  A float slack is ok
down to -TOL; an exact one (int or Fraction) down to 0, so exact claims
(the Bohr, box and pigeonhole floors, Ramsey, search) stay exact.  A
two-sided agreement |a - b| <= TOL is the report with lhs = |a - b| and
rhs = 0.  It also covers the von Neumann-type bounds here (check_*), the
Gauss modulus and the Weil, mixed-sum and box-sum budgets (charsums), the
baby count, the counting integral and the counting lemma (qm), and the
decomposition, correlation, energy-increment, iteration-budget and
smooth-box conclusions (regularity).  Only the CLI's identity checks keep
their own thresholds; its 1e-9 checks read TOL.  A bound is never traded
for speed, but a costly term is skipped where a cheaper one certifies the
same value: the QM bound's infimum is settled from ||f_i||_1 >= ||f_i||_QM
whenever that decides it (gvnqm_inf), as the KvN loop skips residual QM
norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .field import FieldCtx, MultChar, mult_char_values, quad_phase_values
from .harmonic import (Signal, add_transform, difference_spectrum, indicator,
                       mult_transform, norm_qm, norm_u2_plus, norm_u2_times,
                       norm_u3_plus, require_same_ctx)


ROW_BLOCK = 1 << 16  # entries per block of a blocked loop (bytes per parity in a _pair_walk block)
TOL = 1e-9  # the one float tolerance of every audit


def _pair_walk(ctx: FieldCtx, v1, v2, v3, v4):
    """Walk the pair table over all of F x F in blocks.

    For (..., p) arrays v1..v4, yields (cols, X, Y, S, M): the values
    v1(x), v2(y), v3(x+y) and v4(xy) on a block of pairs, in one dtype, as
    (..., planes, rows, columns) arrays that broadcast together.  The walk
    has 2p - 1 columns: x = g^j in column j < p - 1 and x = 0 in the rest,
    and cols is the slice of them a block covers.  S is the caller's to
    overwrite.

    F* x F* comes first, in discrete-log coordinates x = g^a, y = x t,
    t = g^c: y = g^(a+c), xy = g^(2a+c) and x + y = g^(a + zech[c]), where
    zech[c] = 2(p-1), the log of 0, at t = -1.  The rows c = 2k + e go by
    parity e, so that with D_e(j) = v4(g^(2j+e)), xy = D_e(k + a).  Y is a
    window at offset c over the dlog-ordered v2, M a window at offset k
    over D_e, and S copies the rows zech[c] of a window over the
    dlog-ordered v3, twice over and then v3(0), which row 2(p-1) reads.  A
    block holds about 2 ROW_BLOCK bytes of each slot.  The last block is
    the 2p - 1 pairs with x = 0 or y = 0: (g^a, 0), then (0, g^b), then
    (0, 0), in one row.

    Every slot is a window over one gather of v1..v4 at the indices
    [g^a, g^a, 0 (p times), g^a, 0, g^(2j) (3 times), g^(2j+1) (3 times)],
    so no pair is looked up.  The gather keeps the stack axes (...)
    innermost, so that for a stack of short tables each numpy call runs
    over a row of every table at once.
    """
    n = ctx.p - 1
    h = n // 2
    pg = ctx.pow_g
    d = pg.reshape(h, 2).T  # d[e, k] = g^(2k+e)
    zero = np.zeros(n + 1, dtype=pg.dtype)
    vs = np.array((v1, v2, v3, v4))
    lead = vs.shape[1:-1]
    src = vs.transpose(0, vs.ndim - 1, *range(1, vs.ndim - 1)).take(
        np.concatenate((pg, pg, zero, pg, zero[:1], d[0], d[0], d[0], d[1], d[1], d[1])), axis=1)
    # views of slot k from entry j: offset k * slot + j * row bytes
    slot, row, ls, dt = src.strides[0], src.strides[1], src.strides[2:], src.dtype
    Y = np.ndarray(lead + (2, h, n), dt, src, slot, ls + (row, 2 * row, row))
    M = np.ndarray(lead + (2, h, n), dt, src, 3 * slot + (4 * n + 2) * row, ls + (3 * h * row, row, row))
    S = np.ndarray((2 * n + 1, n) + lead, dt, src, 2 * slot, (row, row) + ls)
    rows_last = (*range(3, 3 + len(lead)), 0, 1, 2)  # S's row copies to (lead, planes, rows, columns)
    zech = ctx.zech.reshape(h, 2).T  # zech[e, k] at c = 2k + e
    X = np.ndarray(lead + (1, 1, n), dt, src, 0, ls + (0, 0, row))
    step = max(1, ROW_BLOCK // X.nbytes)  # X.nbytes: one row of one slot
    for lo in range(0, h, step):
        k = slice(lo, lo + step)
        yield slice(n), X, Y[..., k, :], S[zech[:, k]].transpose(rows_last), M[..., k, :]
    edge, es = lead + (1, 1, 2 * n + 1), ls + (0, 0, row)
    yield (slice(None), np.ndarray(edge, dt, src, n * row, es),
           np.ndarray(edge, dt, src, slot + (2 * n + 1) * row, es), np.ndarray(edge, dt, src, 2 * slot, es),
           np.ndarray(lead + (1, 1, 1), dt, src, 3 * slot + 2 * n * row, ls + (0, 0, 0)))


def _pair_sum(ctx: FieldCtx, v1, v2, v3, v4) -> complex:
    """sum_{x, y in F} v1(x) v2(y) v3(x+y) v4(xy)."""
    total = 0
    for _, X, Y, S, M in _pair_walk(ctx, v1, v2, v3, v4):
        S *= Y
        S *= M
        total += (S @ X[0, 0]).sum()
    return total


def T(f1: Signal, f2: Signal, f3: Signal, f4: Signal) -> complex:
    """E_{x,y} f1(x) f2(y) f3(x+y) f4(xy), direct O(p^2) evaluation."""
    ctx = require_same_ctx(f1, f2, f3, f4)
    return complex(_pair_sum(ctx, *(f.values for f in (f1, f2, f3, f4))) / ctx.p**2)


def T_spectral_sums(f1: Signal, f2: Signal, f3: Signal) -> complex:
    """sum_r f3^(r) f1^(-r) f2^(-r); equals T(f1, f2, f3, 1)."""
    require_same_ctx(f1, f2, f3)
    c1, c2, c3 = (add_transform(f) for f in (f1, f2, f3))
    p = f1.p
    neg = (-np.arange(p)) % p
    return complex(np.sum(c3 * c1[neg] * c2[neg]))


def T_tilde(g1: Signal, g2: Signal, g4: Signal) -> complex:
    """E_{x,y in F*} g1(x) g2(y) g4(xy): the pair walk with g1(0) = g2(0) = 0."""
    ctx = require_same_ctx(g1, g2, g4)
    v1, v2 = (np.concatenate(([0], g.values[1:])) for g in (g1, g2))
    total = _pair_sum(ctx, v1, v2, np.ones(ctx.p), g4.values)
    return complex(total / (ctx.p - 1)**2)


def phased_character_example(ctx: FieldCtx) -> tuple:
    """The extremal four-signal family showing T can stay large while the
    inputs have tiny additive and multiplicative spectra:

      f1 = f2 = e_p(t^2) chi(t),  f3 = e_p(-t^2),  f4 = e_p(2t) conj(chi(t)),

    with chi the first nontrivial multiplicative character.  Returns
    (f1, f2, f3, f4, expected) where expected = ((p-1)^2 + 1) / p^2 is the
    exact value of T on this family.
    """
    p = ctx.p
    chi = mult_char_values(ctx, MultChar(1))
    f12 = Signal(ctx, quad_phase_values(ctx, 1, 0) * chi)
    f3 = Signal(ctx, quad_phase_values(ctx, -1, 0))
    f4 = Signal(ctx, quad_phase_values(ctx, 0, 2) * np.conj(chi))
    expected = ((p - 1) ** 2 + 1) / p**2
    return f12, f12, f3, f4, expected


def differencing_sup(f: Signal) -> float:
    """sup_{h in F*, r in F} E_{z in F} |(Delta_{zh} f)^(zr)|^2,
    where Delta_w f(x) = f(x+w) conj(f(x)).

    Bounded by ||f||_{u3+}^2 whenever ||f||_2 <= 1.  With D the difference
    spectrum, the mean is D[:, 0].sum() / p for r = 0; for r != 0 it is
    (D[0, 0] + sum_{u in F*} D[u, u t]) / p with t = r/h, which depends on
    (h, r) only through dlog r - dlog h: a cyclic diagonal of D by dlog.
    """
    p = f.p
    D = difference_spectrum(f.values)
    u = np.arange(1, p, dtype=np.int64)[:, None]
    ratio_sums = D[u, u * u.T % p].sum(axis=0)  # one sum per t in F*
    return float(max(D[:, 0].sum(), D[0, 0] + ratio_sums.max())) / p


# -- censuses ---------------------------------------------------------------

@dataclass(frozen=True)
class Coloring:
    """Coloring of {0..n-1}: assign[x] is the color of x, in 0..r-1."""

    n: int
    r: int
    assign: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.assign)
        if not np.issubdtype(arr.dtype, np.integer):
            # casting would truncate floats to colors
            raise ValueError(f"colors must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64)
        object.__setattr__(self, "assign", arr)
        if arr.shape != (self.n,):
            raise ValueError(f"expected {self.n} entries, got {arr.shape}")
        if np.any(arr >= self.r) or np.any(arr < 0):
            raise ValueError("color id out of range")


@dataclass(frozen=True)
class QuadrupleCensus:
    p: int
    r: int
    per_color: tuple
    total: int

    def to_json(self) -> dict:
        return {"p": self.p, "r": self.r,
                "per_color": list(self.per_color), "total": self.total}


def monochromatic_counts(ctx: FieldCtx, assign) -> np.ndarray:
    """Per-x counts [..., x] of the y in F with x, y, x+y, xy all of one
    color, for a (..., p) stack of total colorings of F_p."""
    a = np.asarray(assign)
    c = a.astype(np.promote_types(np.min_scalar_type(a.min()), np.min_scalar_type(a.max())))
    p = ctx.p
    counts = np.zeros(c.shape[:-1] + (2 * p - 1,), dtype=np.int64)  # per column of the walk
    for cols, X, Y, S, M in _pair_walk(ctx, c, c, c, c):
        same = S == X
        same &= Y == X
        same &= M == X
        # a block has at most sqrt(2 ROW_BLOCK) rows, so uint16 holds each sum
        counts[..., cols] += np.add.reduce(same, axis=(-3, -2), dtype=np.uint16)
    counts[..., p - 1] = counts[..., p - 1:].sum(axis=-1)  # the columns with x = 0
    return np.take(counts[..., :p], ctx.dlog, axis=-1, mode="clip")  # dlog 0 = 2(p-1) clips to p-1


def census_quadruples(ctx: FieldCtx, c: Coloring) -> QuadrupleCensus:
    """Exact per-color counts of pairs (x,y) with x, y, x+y, xy monochromatic."""
    if c.n != ctx.p:
        raise ValueError("coloring domain is not F_p")
    if c.r > ctx.p:
        raise ValueError(f"{c.r} colors on F_{ctx.p}: at most p classes can be used")
    per = np.zeros(c.r, dtype=np.int64)
    np.add.at(per, c.assign, monochromatic_counts(ctx, c.assign))  # by the color of x
    per = tuple(per.tolist())
    return QuadrupleCensus(p=ctx.p, r=c.r, per_color=per, total=sum(per))


# which two of (y, x+y, xy) each kind asks to lie in A besides x
_TRIPLE_KINDS = {"sum": (0, 1), "product": (0, 2), "shkredov": (1, 2)}


def census_triples(ctx: FieldCtx, A, kind: str = "shkredov") -> int:
    """Count pairs (x,y) whose triple lies in A: kind 'sum' counts
    (x, y, x+y), 'product' counts (x, y, xy), 'shkredov' counts (x, x+y, xy)."""
    if kind not in _TRIPLE_KINDS:
        raise ValueError(f"unknown triple kind {kind!r}: expected one of "
                         + ", ".join(map(repr, _TRIPLE_KINDS)))
    i, j = _TRIPLE_KINDS[kind]
    mask = indicator(ctx, A).values != 0
    return sum(int(np.count_nonzero(X & slots[i] & slots[j]))
               for _, X, *slots in _pair_walk(ctx, mask, mask, mask, mask))


# -- inequality audits -------------------------------------------------------

@dataclass(frozen=True)
class MarginReport:
    """Result of an inequality audit: lhs <= rhs with slack = rhs - lhs."""

    name: str
    lhs: float
    rhs: float
    details: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def ok(self) -> bool:
        """slack >= -TOL for a float slack, slack >= 0 for an exact one."""
        return self.slack >= (-TOL if isinstance(self.slack, float) else 0)

    @classmethod
    def check(cls, name: str, lhs: float, rhs: float, **details) -> "MarginReport":
        """The report for lhs <= rhs; raises AssertionError unless it is ok()."""
        rep = cls(name, lhs, rhs, details)
        if not rep.ok():
            raise AssertionError(f"{name}: lhs {lhs} > rhs {rhs}"
                                 + (f" {details}" if details else ""))
        return rep

    def to_json(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack,
                "details": {k: v for k, v in self.details.items()}}


class HypothesisError(ValueError):
    """A checked precondition (a norm hypothesis) failed."""


def _require(cond: bool, msg: str):
    if not cond:
        raise HypothesisError(msg)


# Audit constants for the O(.) error terms the source bounds leave implicit.
# Calibrated on fixed seeded suites (see calibration.py), then doubled;
# reported as artifacts of this implementation, never as sharp constants.
from .calibration import AUDIT_CONSTANTS


def check_gvn_bounds(f1: Signal, f2: Signal, f3: Signal, f4: Signal,
                     which: str) -> MarginReport:
    """Margin audit for the four generalized von Neumann style bounds.

    which = 'u2plus' : |T(f1,f2,f3,1)|  <= inf_i ||f_i||_{u2+}     (||f_i||_2 <= 1)
    which = 'u2times': |T(f1,f2,1,f4)|  <= inf ||.||_{u2x} + 4K^3/p (||.||_inf <= K,
                       ||.||_2 <= 1; the inf runs over the three active slots)
    which = 'gvn3'   : |T|^8 <= ||f3||_{u3+}^2 + C p^{-1/2}
                       (||f1||_inf, ||f2||_inf, ||f4||_inf <= 1,
                        ||f3||_2 <= 1, ||f3||_inf <= p^{1/16})
    which = 'gvnQM'  : |T| <= C inf_i max(p^{-1/64}, ||f_i||_QM^{1/5})
                       (||f_i||_inf <= 1); the infimum is gvnqm_inf's, which
                       is settled from ||f_i||_1 without any QM sup when
                       some slot's ||f_i||_1^{1/5} is below p^{-1/64}
    """
    ctx = require_same_ctx(f1, f2, f3, f4)
    p = ctx.p
    if which == "u2plus":
        for i, f in enumerate((f1, f2, f3), 1):
            _require(f.lp_norm(2) <= 1 + TOL, f"||f{i}||_2 > 1")
        lhs = abs(T(f1, f2, f3, Signal(ctx, np.ones(p))))
        norms = [norm_u2_plus(f).value for f in (f1, f2, f3)]
        return MarginReport.check("u2plus", lhs, min(norms), norms_u2plus=norms)
    if which == "u2times":
        gs = (f1, f2, f4)
        K = max(g.linf_norm() for g in gs)
        for i, g in zip((1, 2, 4), gs):
            _require(g.lp_norm(2) <= 1 + TOL, f"||g{i}||_2 > 1")
        lhs = abs(T(f1, f2, Signal(ctx, np.ones(p)), f4))
        norms = [norm_u2_times(g).value for g in gs]
        rhs = min(norms) + 4 * K**3 / p
        return MarginReport.check("u2times", lhs, rhs, norms_u2times=norms, K=K)
    if which == "gvn3":
        for i, f in zip((1, 2, 4), (f1, f2, f4)):
            _require(f.linf_norm() <= 1 + TOL, f"||f{i}||_inf > 1")
        _require(f3.lp_norm(2) <= 1 + TOL, "||f3||_2 > 1")
        _require(f3.linf_norm() <= p**(1 / 16) + TOL, "||f3||_inf > p^(1/16)")
        lhs = abs(T(f1, f2, f3, f4))**8
        u3 = norm_u3_plus(f3).value
        C = AUDIT_CONSTANTS["gvn3_C"]
        return MarginReport.check("gvn3", lhs, u3**2 + C / np.sqrt(p), u3plus_f3=u3, C=C)
    if which == "gvnQM":
        for i, f in enumerate((f1, f2, f3, f4), 1):
            _require(f.linf_norm() <= 1 + TOL, f"||f{i}||_inf > 1")
        lhs = abs(T(f1, f2, f3, f4))
        inf, norms = gvnqm_inf((f1, f2, f3, f4))
        C = AUDIT_CONSTANTS["gvnqm_C"]
        return MarginReport.check("gvnQM", lhs, C * inf, **norms, C=C)
    raise ValueError(which)


def gvnqm_inf(fs) -> tuple:
    """(inf_i max(p^{-1/64}, ||f_i||_QM^{1/5}), the norms it read) over fs.

    Every term is at least the floor p^{-1/64}, and ||f||_QM <= ||f||_1 as
    |phi chi| = 1.  So when the least ||f_i||_1^{1/5} is below the floor by
    a relative 1e-12, far beyond the rounding of either norm, slot i's term
    is the floor and so is the infimum, as the same float: the norms are
    then {l1_slot: i (from 1), l1_norm: ||f_i||_1} and no QM sup is taken.
    Otherwise they are {norms_qm: every ||f_i||_QM}.
    """
    floor = fs[0].p**(-1 / 64)
    l1 = [f.lp_norm(1) for f in fs]
    i = int(np.argmin(l1))
    if l1[i]**(1 / 5) < floor * (1 - 1e-12):
        return floor, {"l1_slot": i + 1, "l1_norm": l1[i]}
    norms = [norm_qm(f).value for f in fs]
    return min(max(floor, n**(1 / 5)) for n in norms), {"norms_qm": norms}


def check_u2times_star_bound(g1: Signal, g2: Signal, g4: Signal) -> MarginReport:
    """|T_tilde(g1,g2,g4)| <= (p/(p-1)) min_i sup_chi |E_{x in F*} g_i conj(chi)|,
    under ||g_i||_2 <= 1 (full-field L2), which absorbs the two non-sup slots."""
    ctx = require_same_ctx(g1, g2, g4)
    p = ctx.p
    for i, g in zip((1, 2, 4), (g1, g2, g4)):
        _require(g.lp_norm(2) <= 1 + TOL, f"||g{i}||_2 > 1")
    lhs = abs(T_tilde(g1, g2, g4))
    # |E_{x in F*} g conj(chi_k)| = |p <g, chi_k> - g(0)| / (p - 1)
    sups = [float(np.max(np.abs(p * mult_transform(g) - g.values[0]))) / (p - 1)
            for g in (g1, g2, g4)]
    return MarginReport.check("u2times_star", lhs, p / (p - 1) * min(sups), star_sups=sups)


def check_simple_lemma(f1: Signal, f3: Signal, f4: Signal, S) -> MarginReport:
    """|T(f1, 1_S, f3, f4)| <= K^3/p + 9 mu(S) min_i ||f_i||_2,
    under ||f_i||_inf <= K and ||f_i||_4 <= 3."""
    ctx = require_same_ctx(f1, f3, f4)
    p = ctx.p
    K = max(f.linf_norm() for f in (f1, f3, f4))
    for i, f in zip((1, 3, 4), (f1, f3, f4)):
        _require(f.lp_norm(4) <= 3 + TOL, f"||f{i}||_4 > 3")
    mu_S = len(set(x % p for x in S)) / p
    lhs = abs(T(f1, indicator(ctx, S), f3, f4))
    rhs = K**3 / p + 9 * mu_S * min(f.lp_norm(2) for f in (f1, f3, f4))
    return MarginReport.check("simple_lemma", lhs, rhs, K=K, mu_S=mu_S)
