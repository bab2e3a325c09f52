"""The quadruple-counting operator T and its audit machinery.

T(f1,f2,f3,f4) := E_{x,y in F} f1(x) f2(y) f3(x+y) f4(xy).  On indicator
functions, p^2 * T counts pairs (x,y) whose quadruple (x, y, x+y, xy) is
confined to the indicated sets.  The censuses here are the exact-integer
ground truth; the floating T is the cross-check.

T, T_tilde and the censuses walk the pair table (x, y) in blocks of about
ROW_BLOCK entries: they run at any table prime in O(p^2) time and hold
no p x p array.

The check_* operations are two-sided margin audits: they return the left
and right side of each inequality plus the slack, so that implicit O(.)
constants become measurable instead of assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .field import FieldCtx, MultChar, mult_char_values, quad_phase_values
from .harmonic import (Signal, add_transform, difference_spectrum, indicator, norm_qm,
                       norm_u2_plus, norm_u2_times, norm_u3_plus, require_same_ctx)


ROW_BLOCK = 1 << 16  # entries in one block of the pair table


def _row_blocks(ctx: FieldCtx, v_add: np.ndarray, v_mul: np.ndarray):
    """Walk the pair table over x, y in F* in blocks of rows x.

    For (..., p) arrays v_add and v_mul, yields (lo, hi, A, M) with
    A[..., x - lo, y - 1] = v_add(x + y) and M[..., x - lo, y - 1] = v_mul(xy)
    for lo <= x < hi.  A is a window over v_add twice over (no copy); M
    gathers the dlog-ordered copy v_mul(g^a), doubled, at dlog x + dlog y,
    so no index is reduced mod p.  Row x = 0 and column y = 0 are left to
    each caller's closed form.  M and its index live in two buffers
    allocated once per call, so M is only valid until the next block.
    """
    p = ctx.p
    adds = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((v_add, v_add[..., :-1]), axis=-1), p - 1, axis=-1)
    h = v_mul[..., ctx.pow_g]
    step = min(max(1, ROW_BLOCK // h.size), p - 1)  # h.size: one row of each table
    h = np.concatenate((h, h), axis=-1)
    dlog_y = ctx.dlog[1:]
    idx = np.empty((step, p - 1), dtype=np.intp)
    M = np.empty(h.shape[:-1] + idx.shape, dtype=h.dtype)
    for lo in range(1, p, step):
        n = min(step, p - lo)
        np.add(ctx.dlog[lo:lo + n, None], dlog_y, out=idx[:n])
        # indices are in range; mode "clip" only spares take() a buffered copy
        np.take(h, idx[:n], axis=-1, out=M[..., :n, :], mode="clip")
        yield lo, lo + n, adds[..., lo + 1:lo + n + 1, :], M[..., :n, :]


def _pair_sum(ctx: FieldCtx, v1, v2, v3, v4) -> complex:
    """sum_{x, y in F*} v1(x) v2(y) v3(x+y) v4(xy)."""
    v2_star = v2[1:]
    return sum(v1[lo:hi] @ np.einsum("ij,ij,j->i", A, M, v2_star)
               for lo, hi, A, M in _row_blocks(ctx, v3, v4))


def T(f1: Signal, f2: Signal, f3: Signal, f4: Signal) -> complex:
    """E_{x,y} f1(x) f2(y) f3(x+y) f4(xy), direct O(p^2) evaluation; the
    pairs (0, y) and (x, 0) reduce to f1(0) f4(0) sum_y f2 f3 and
    f2(0) f4(0) sum_{x != 0} f1 f3."""
    ctx = require_same_ctx(f1, f2, f3, f4)
    v1, v2, v3, v4 = (f.values for f in (f1, f2, f3, f4))
    border = v4[0] * (v1[0] * np.sum(v2 * v3) + v2[0] * np.sum(v1[1:] * v3[1:]))
    return complex((border + _pair_sum(ctx, v1, v2, v3, v4)) / ctx.p**2)


def T_spectral_sums(f1: Signal, f2: Signal, f3: Signal) -> complex:
    """sum_r f3^(r) f1^(-r) f2^(-r); equals T(f1, f2, f3, 1)."""
    require_same_ctx(f1, f2, f3)
    c1 = add_transform(f1).coeffs
    c2 = add_transform(f2).coeffs
    c3 = add_transform(f3).coeffs
    p = f1.p
    neg = (-np.arange(p)) % p
    return complex(np.sum(c3 * c1[neg] * c2[neg]))


def T_tilde(g1: Signal, g2: Signal, g4: Signal) -> complex:
    """E_{x,y in F*} g1(x) g2(y) g4(xy)."""
    ctx = require_same_ctx(g1, g2, g4)
    total = _pair_sum(ctx, g1.values, g2.values, np.ones(ctx.p), g4.values)
    return complex(total / (ctx.p - 1)**2)


def T_boundary_identity(g1: Signal, g2: Signal, g4: Signal) -> complex:
    """T(g1, g2, 1, g4) reassembled from T_tilde and the x=0 / y=0 rows:

      T = (1/p^2)[ g1(0) g4(0) sum_y g2 + g2(0) g4(0) sum_x g1
                   - g1(0) g2(0) g4(0) ] + ((p-1)/p)^2 T_tilde(g1, g2, g4).
    """
    ctx = require_same_ctx(g1, g2, g4)
    p = ctx.p
    border = (g1.values[0] * g4.values[0] * np.sum(g2.values)
              + g2.values[0] * g4.values[0] * np.sum(g1.values)
              - g1.values[0] * g2.values[0] * g4.values[0])
    return complex(border / p**2 + ((p - 1) / p)**2 * T_tilde(g1, g2, g4))


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


def mult_inner_star(f: Signal) -> np.ndarray:
    """|E_{x in F*} f(x) conj(chi_k(x))| for all k (no x=0 term)."""
    ctx = f.ctx
    h = f.values[ctx.pow_g]
    return np.abs(np.fft.fft(h)) / (ctx.p - 1)


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
    """Total or partial coloring of {0..n-1}; UNASSIGNED entries are -1."""

    n: int
    r: int
    assign: np.ndarray

    UNASSIGNED = -1

    def __post_init__(self):
        arr = np.asarray(self.assign, dtype=np.int64)
        object.__setattr__(self, "assign", arr)
        if arr.shape != (self.n,):
            raise ValueError(f"expected {self.n} entries, got {arr.shape}")
        if np.any(arr >= self.r) or np.any(arr < self.UNASSIGNED):
            raise ValueError("color id out of range")

    def is_total(self) -> bool:
        return bool(np.all(self.assign >= 0))


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
    color, for a (..., p) stack of total colorings of F_p.

    The pairs (0, y) and (x, 0) are monochromatic exactly when y, resp. x,
    has the color of 0.
    """
    a = np.asarray(assign)
    c = a.astype(np.promote_types(np.min_scalar_type(a.min()), np.min_scalar_type(a.max())))
    same0 = c == c[..., :1]
    counts = same0.astype(np.int64)
    counts[..., 0] = np.count_nonzero(same0, axis=-1)
    c_star = c[..., None, 1:]
    for lo, hi, A, M in _row_blocks(ctx, c, c):
        cx = c[..., lo:hi, None]
        counts[..., lo:hi] += np.count_nonzero((c_star == cx) & (A == cx) & (M == cx), axis=-1)
    return counts


def census_quadruples(ctx: FieldCtx, c: Coloring) -> QuadrupleCensus:
    """Exact per-color counts of pairs (x,y) with x, y, x+y, xy monochromatic."""
    if c.n != ctx.p:
        raise ValueError("coloring domain is not F_p")
    if c.r > ctx.p:
        raise ValueError(f"{c.r} colors on F_{ctx.p}: at most p classes can be used")
    if not c.is_total():
        raise ValueError("partial coloring rejected; census needs a total coloring")
    per_x = monochromatic_counts(ctx, c.assign)
    per = [int(per_x[c.assign == i].sum()) for i in range(c.r)]
    return QuadrupleCensus(p=ctx.p, r=c.r, per_color=tuple(per), total=sum(per))


# which two of (y, x+y, xy) each kind asks to lie in A besides x
_TRIPLE_KINDS = {"sum": (0, 1), "product": (0, 2), "shkredov": (1, 2)}


def census_triples(ctx: FieldCtx, A, kind: str = "shkredov") -> int:
    """Count pairs (x,y) whose triple lies in A: kind 'sum' counts
    (x, y, x+y), 'product' counts (x, y, xy), 'shkredov' counts (x, x+y, xy).

    For every kind the pairs (0, y) and (x, 0) count when 0 and y, resp.
    0 and x, lie in A: 2|A| - 1 of them if 0 is in A, none otherwise.
    """
    if kind not in _TRIPLE_KINDS:
        raise ValueError(kind)
    i, j = _TRIPLE_KINDS[kind]
    mask = indicator(ctx, A).values != 0
    count = int(mask[0]) * (2 * int(np.count_nonzero(mask)) - 1)
    for lo, hi, in_add, in_mul in _row_blocks(ctx, mask, mask):
        in_A = (mask[1:], in_add, in_mul)
        count += int(np.count_nonzero((in_A[i] & in_A[j])[mask[lo:hi]]))
    return count


# -- inequality audits -------------------------------------------------------

@dataclass(frozen=True)
class MarginReport:
    """Result of a two-sided inequality audit: lhs <= rhs with slack = rhs - lhs."""

    name: str
    lhs: float
    rhs: float
    details: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def ok(self, tol: float = 1e-9) -> bool:
        return self.slack >= -tol

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
                     which: str, tol: float = 1e-9) -> MarginReport:
    """Margin audit for the four generalized von Neumann style bounds.

    which = 'u2plus' : |T(f1,f2,f3,1)|  <= inf_i ||f_i||_{u2+}     (||f_i||_2 <= 1)
    which = 'u2times': |T(f1,f2,1,f4)|  <= inf ||.||_{u2x} + 4K^3/p (||.||_inf <= K,
                       ||.||_2 <= 1; the inf runs over the three active slots)
    which = 'gvn3'   : |T|^8 <= ||f3||_{u3+}^2 + C p^{-1/2}
                       (||f1||_inf, ||f2||_inf, ||f4||_inf <= 1,
                        ||f3||_2 <= 1, ||f3||_inf <= p^{1/16})
    which = 'gvnQM'  : |T| <= C inf_i max(p^{-1/64}, ||f_i||_QM^{1/5})
                       (||f_i||_inf <= 1)
    """
    ctx = require_same_ctx(f1, f2, f3, f4)
    p = ctx.p
    if which == "u2plus":
        for i, f in enumerate((f1, f2, f3), 1):
            _require(f.lp_norm(2) <= 1 + tol, f"||f{i}||_2 > 1")
        lhs = abs(T(f1, f2, f3, Signal(ctx, np.ones(p))))
        norms = [norm_u2_plus(f).value for f in (f1, f2, f3)]
        return MarginReport("u2plus", lhs, min(norms),
                            {"norms_u2plus": norms})
    if which == "u2times":
        gs = (f1, f2, f4)
        K = max(g.linf_norm() for g in gs)
        for i, g in zip((1, 2, 4), gs):
            _require(g.lp_norm(2) <= 1 + tol, f"||g{i}||_2 > 1")
        lhs = abs(T(f1, f2, Signal(ctx, np.ones(p)), f4))
        norms = [norm_u2_times(g).value for g in gs]
        rhs = min(norms) + 4 * K**3 / p
        return MarginReport("u2times", lhs, rhs,
                            {"norms_u2times": norms, "K": K})
    if which == "gvn3":
        for i, f in zip((1, 2, 4), (f1, f2, f4)):
            _require(f.linf_norm() <= 1 + tol, f"||f{i}||_inf > 1")
        _require(f3.lp_norm(2) <= 1 + tol, "||f3||_2 > 1")
        _require(f3.linf_norm() <= p**(1 / 16) + tol, "||f3||_inf > p^(1/16)")
        lhs = abs(T(f1, f2, f3, f4))**8
        u3 = norm_u3_plus(f3).value
        C = AUDIT_CONSTANTS["gvn3_C"]
        return MarginReport("gvn3", lhs, u3**2 + C / np.sqrt(p),
                            {"u3plus_f3": u3, "C": C})
    if which == "gvnQM":
        for i, f in enumerate((f1, f2, f3, f4), 1):
            _require(f.linf_norm() <= 1 + tol, f"||f{i}||_inf > 1")
        lhs = abs(T(f1, f2, f3, f4))
        norms = [norm_qm(f).value for f in (f1, f2, f3, f4)]
        C = AUDIT_CONSTANTS["gvnqm_C"]
        rhs = C * min(max(p**(-1 / 64), n**(1 / 5)) for n in norms)
        return MarginReport("gvnQM", lhs, rhs, {"norms_qm": norms, "C": C})
    raise ValueError(which)


def check_u2times_star_bound(g1: Signal, g2: Signal, g4: Signal,
                             tol: float = 1e-9) -> MarginReport:
    """|T_tilde(g1,g2,g4)| <= (p/(p-1)) min_i sup_chi |E_{x in F*} g_i conj(chi)|,
    under ||g_i||_2 <= 1 (full-field L2), which absorbs the two non-sup slots."""
    ctx = require_same_ctx(g1, g2, g4)
    p = ctx.p
    for i, g in zip((1, 2, 4), (g1, g2, g4)):
        _require(g.lp_norm(2) <= 1 + tol, f"||g{i}||_2 > 1")
    lhs = abs(T_tilde(g1, g2, g4))
    sups = [float(np.max(mult_inner_star(g))) for g in (g1, g2, g4)]
    return MarginReport("u2times_star", lhs, p / (p - 1) * min(sups),
                        {"star_sups": sups})


def check_simple_lemma(f1: Signal, f3: Signal, f4: Signal, S,
                       tol: float = 1e-9) -> MarginReport:
    """|T(f1, 1_S, f3, f4)| <= K^3/p + 9 mu(S) min_i ||f_i||_2,
    under ||f_i||_inf <= K and ||f_i||_4 <= 3."""
    ctx = require_same_ctx(f1, f3, f4)
    p = ctx.p
    K = max(f.linf_norm() for f in (f1, f3, f4))
    for i, f in zip((1, 3, 4), (f1, f3, f4)):
        _require(f.lp_norm(4) <= 3 + tol, f"||f{i}||_4 > 3")
    mu_S = len(set(x % p for x in S)) / p
    lhs = abs(T(f1, indicator(ctx, S), f3, f4))
    rhs = K**3 / p + 9 * mu_S * min(f.lp_norm(2) for f in (f1, f3, f4))
    return MarginReport("simple_lemma", lhs, rhs, {"K": K, "mu_S": mu_S})
