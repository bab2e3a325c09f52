"""QM-systems and their exactly enumerable orbit geometry.

A QM-system of dimension d maps F_p into G^d, G = (R/Z x R/Z x S^1), by

    Psi(x) = ( a_i x^2 / p,  2 a_i x / p,  psi_i(x) )_{i=1..d},

where psi_i is the multiplicative character with index k_i.  Every orbit
coordinate is a rational with denominator p or p-1, so all geometry here
(metric comparisons, lattice membership, box and Bohr tests) is exact
integer arithmetic; floats appear only when evaluating trig polynomials.

The frequency lattices and their annihilators:

    Lambda+ = { xi in Z^d : xi . a == 0 (mod p)   }
    Lambdax = { xi in Z^d : xi . k == 0 (mod p-1) }
    G+      = { (s a_i / p)_i       : s in Z_p }        (annihilates Lambda+)
    Gx      = { (s k_i / (p-1))_i   : s in Z_{p-1} }    (annihilates Lambdax)
    H_Psi   = G+ x G+ x Gx with uniform measure.

The closed forms for G+ and Gx are the double-annihilator duality over
Z_p and Z_{p-1}: the annihilator of { xi : xi . a == 0 } in the dual torus
is exactly the cyclic group generated by a/p (resp. k/(p-1)).  This is
verified at runtime by the closure / annihilation property tests.

A term (xi1, xi2, xi3) is on the lattices when its residues xi1 . a, xi2 . a
mod p and xi3 . k mod p-1 are 0 (residues of sums add); the box fraction of
H_Psi is m+^2 mx, read off the enumerated rows of G+ and Gx.

A trig polynomial is evaluated from the context's root-of-unity tables:
each term (xi1, xi2, xi3) gathers one phase table per coordinate block,
roots_p[A xi1 % p], roots_p[B xi2 % p] and roots_pm1[C xi3 % (p-1)], for
numerator rows A, B, C.  Along an orbit the tables are multiplied
entrywise.  The average over H = G+ x G+ x Gx factors by Fubini: each term
averages to its coefficient times the means of its three tables over the
rows of G+, G+ and Gx.  Over a product of row sets F takes the value
(E1[i] * E2[j]) @ (c * E3^T) at every point (A[i], B[j], C), and the
average over H^2 is such a pointwise enumeration.  Both oracles read only
the enumerated rows of H, never the lattices, so they check the lattice
formulas independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .counting import AUDIT_CONSTANTS, ROW_BLOCK, MarginReport, T
from .field import FieldCtx
from .harmonic import Signal, indicator

TRIG_MAX_D = 4
TRIG_MAX_NORM = 12.0
# only perfbench reads this (for qm.H_points); ROADMAP item 1 removes it
H_ENUM_BUDGET = 10**7
H_SQUARED_BUDGET = 2 * 10**6


def as_fraction(x) -> Fraction:
    """Exact conversion; floats convert by their exact binary value."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"{x} has no exact fraction")
        return Fraction(*x.as_integer_ratio())
    return Fraction(x)


@dataclass(frozen=True)
class QMSystem:
    """Dimension-d system of pairs (a_i, k_i), reduced mod p and mod p-1."""

    ctx: FieldCtx
    dims: tuple

    def __post_init__(self):
        p = self.ctx.p
        reduced = tuple((int(a) % p, int(k) % (p - 1)) for a, k in self.dims)
        object.__setattr__(self, "dims", reduced)

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def a_vec(self) -> tuple:
        return tuple(a for a, _ in self.dims)

    @property
    def k_vec(self) -> tuple:
        return tuple(k for _, k in self.dims)

    def extended(self, extra_dims) -> "QMSystem":
        return QMSystem(self.ctx, self.dims + tuple(extra_dims))

    def to_json(self) -> dict:
        return {"p": self.ctx.p, "dims": [{"a": a, "k": k} for a, k in self.dims]}

    @staticmethod
    def random(ctx: FieldCtx, d: int, rng: np.random.Generator) -> "QMSystem":
        """d seeded pairs, a uniform on 1..p-1 then k on 0..p-2 for each."""
        if not 0 <= d <= (ctx.p - 1) ** 2:
            # more dimensions than distinct pairs (a, k) would only repeat them
            raise ValueError(f"need 0 <= d <= (p-1)^2 = {(ctx.p - 1) ** 2}, got {d}")
        return QMSystem(ctx, [(int(rng.integers(1, ctx.p)), int(rng.integers(0, ctx.p - 1)))
                              for _ in range(d)])


def orbit_arrays(psi: QMSystem):
    """Integer numerator arrays of Psi over all of F_p: (TH1, TH2, V),
    each of shape (p, d), denominators p, p, p-1.  V's row 0 is 0, as
    dlog 0 = 2(p-1) is 0 mod p-1: chi(0) = 1."""
    ctx = psi.ctx
    p = ctx.p
    x = np.arange(p, dtype=np.int64)
    a = np.array(psi.a_vec, dtype=np.int64)
    k = np.array(psi.k_vec, dtype=np.int64)
    th1 = (x * x % p)[:, None] * a[None, :] % p
    th2 = (2 * x % p)[:, None] * a[None, :] % p
    v = ctx.dlog[:, None] * k[None, :] % (p - 1)
    return th1, th2, v


@dataclass(frozen=True)
class HGroup:
    """H_Psi = G+ x G+ x Gx, exactly enumerated.

    gplus: numerators of G+ elements over p, shape (|G+|, d);
    gtimes: numerators of Gx elements over p-1, shape (|Gx|, d).
    Rows are ordered by the first cyclic parameter s that produced them.
    """

    psi: QMSystem
    gplus: np.ndarray
    gtimes: np.ndarray

    @property
    def size(self) -> int:
        return len(self.gplus) ** 2 * len(self.gtimes)


def _cyclic_orbit(vec: Sequence[int], modulus: int) -> np.ndarray:
    """Distinct rows s*vec mod modulus in order of first appearance: they
    repeat with period modulus / gcd(modulus, *vec) in s."""
    s = np.arange(modulus // math.gcd(modulus, *vec), dtype=np.int64)
    return s[:, None] * np.array(vec, dtype=np.int64) % modulus


def enumerate_H(psi: QMSystem) -> HGroup:
    """G+ as the cyclic orbit of a/p in (R/Z)^d, Gx of k/(p-1); H = G+ x G+ x Gx."""
    if psi.d < 1:
        raise ValueError("enumerate_H needs d >= 1")
    p = psi.ctx.p
    gplus = _cyclic_orbit(psi.a_vec, p)
    gtimes = _cyclic_orbit(psi.k_vec, p - 1)
    return HGroup(psi, gplus, gtimes)


# -- trigonometric polynomials on G^d ---------------------------------------

@dataclass(frozen=True)
class TrigPoly:
    """Sparse trig polynomial on G^d: terms maps (xi1, xi2, xi3) in (Z^d)^3
    (each a length-d int tuple) to a complex coefficient.  _arrays, built
    once at construction, is (X1, X2, X3, c): column j of the (d, m) int64
    matrix Xb is block b of the frequencies of term j, c the coefficients."""

    d: int
    terms: dict
    _arrays: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        clean = {}
        for (x1, x2, x3), c in self.terms.items():
            key = (tuple(int(v) for v in x1), tuple(int(v) for v in x2),
                   tuple(int(v) for v in x3))
            for blk in key:
                if len(blk) != self.d:
                    raise ValueError("frequency dimension mismatch")
            if c != 0:
                clean[key] = complex(c)
        object.__setattr__(self, "terms", clean)
        X = np.array(list(clean), dtype=np.int64).reshape(len(clean), 3, self.d)
        coeffs = np.array(list(clean.values()), dtype=np.complex128)
        object.__setattr__(self, "_arrays", (*X.transpose(1, 2, 0), coeffs))

    @staticmethod
    def random(d: int, rng: np.random.Generator, n_terms: int = 3,
               max_freq: int = 1) -> "TrigPoly":
        """n_terms distinct frequency triples in [-max_freq, max_freq]^{3d}
        with complex gaussian coefficients scaled to total mass 1.5."""
        if (2 * max_freq + 1) ** (3 * d) < n_terms:
            raise ValueError(f"d={d}, max_freq={max_freq} give fewer than "
                             f"{n_terms} frequency triples")
        terms = {}
        while len(terms) < n_terms:
            key = tuple(tuple(int(v) for v in rng.integers(-max_freq, max_freq + 1, d))
                        for _ in range(3))
            terms[key] = rng.standard_normal() + 1j * rng.standard_normal()
        total = sum(abs(c) for c in terms.values())
        scale = 1.5 / total if total > 0 else 1.0
        return TrigPoly(d, {k: c * scale for k, c in terms.items()})


def trig_norm(F: TrigPoly) -> float:
    """max( max over support of max ||xi_j||_1 , sum |coef| )."""
    if not F.terms:
        return 0.0
    radius = max(max(sum(abs(v) for v in blk) for blk in key) for key in F.terms)
    mass = sum(abs(c) for c in F.terms.values())
    return float(max(radius, mass))


def _check_trig_budget(F: TrigPoly):
    if F.d > TRIG_MAX_D:
        raise ValueError(f"budget exceeded: d={F.d} > {TRIG_MAX_D}")
    if trig_norm(F) > TRIG_MAX_NORM:
        raise ValueError(f"budget exceeded: trig norm {trig_norm(F):.2f} > {TRIG_MAX_NORM}")


def _phase_tables(ctx: FieldCtx, F: TrigPoly, A: np.ndarray, B: np.ndarray,
                  C: np.ndarray) -> tuple:
    """Per-term phase tables of F at numerator rows A, B (over p) and C
    (over p-1), each of shape (rows, d): (E1, E2, E3, c) with
    E1[i, j] = e(A[i] . xi1_j / p), E2 and E3 likewise from B and C, and c
    the coefficients, for the terms j = 0..m-1 of F."""
    p = ctx.p
    X1, X2, X3, c = F._arrays
    return (ctx.roots_p[A @ X1 % p], ctx.roots_p[B @ X2 % p],
            ctx.roots_pm1[C @ X3 % (p - 1)], c)


def _lattice_residues(psi: QMSystem, F: TrigPoly) -> tuple:
    """(r1, r2, r3, c) per term of F: r1 = xi1 . a mod p, r2 = xi2 . a
    mod p, r3 = xi3 . k mod (p-1), and the coefficients.  xi1 and xi2 lie
    in Lambda+ and xi3 in Lambdax exactly when r1 = r2 = r3 = 0."""
    X1, X2, X3, c = F._arrays
    a, k = (np.array(v, dtype=np.int64) for v in (psi.a_vec, psi.k_vec))
    return a @ X1 % psi.ctx.p, a @ X2 % psi.ctx.p, k @ X3 % (psi.ctx.p - 1), c


def _on_product(ctx: FieldCtx, F: TrigPoly, A: np.ndarray, B: np.ndarray,
                C: np.ndarray) -> np.ndarray:
    """F at every point (A[i], B[j], C[k]) of a product of row sets, shape
    (len(A), len(B), len(C)): (E1[i] * E2[j]) @ (c * E3^T) for each (i, j)."""
    E1, E2, E3, c = _phase_tables(ctx, F, A, B, C)
    pairs = (E1[:, None, :] * E2[None, :, :]).reshape(len(A) * len(B), -1)
    return (pairs @ (c * E3).T).reshape(len(A), len(B), len(C))


def compose_signal(psi: QMSystem, F: TrigPoly) -> Signal:
    """The Signal x -> F(Psi(x)): the phase tables on the orbit rows,
    multiplied along the diagonal."""
    E1, E2, E3, c = _phase_tables(psi.ctx, F, *orbit_arrays(psi))
    return Signal(psi.ctx, (E1 * E2 * E3) @ c)


# -- Bohr sets, boxes, densities ---------------------------------------------

def _rows_within(rows: np.ndarray, den: int, eps: Fraction) -> np.ndarray:
    """Row mask: every numerator n in the row (over den, 0 <= n < den) has
    ||n/den||_{R/Z} <= eps.  Exact: min(n, den-n) is an integer, so the test
    is against floor(eps*den), computed once in Python ints (a float eps can
    have a denominator of 2^54 or more, so eps.denominator * min(n, den-n)
    would overflow int64)."""
    bound = eps.numerator * den // eps.denominator
    return np.all(np.minimum(rows, den - rows) <= bound, axis=1)


def bohr_set(psi: QMSystem, eps) -> list:
    """B(Psi, eps) = { x : |Psi(x)| <= eps }, decided in exact integers."""
    eps = as_fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("need 0 < eps <= 1")
    p = psi.ctx.p
    th1, th2, v = orbit_arrays(psi)
    ok = (_rows_within(th1, p, eps) & _rows_within(th2, p, eps)
          & _rows_within(v, p - 1, eps))
    return np.flatnonzero(ok).tolist()


def box_fraction(psi: QMSystem, eps) -> tuple:
    """(exact fraction of H_Psi inside the box X(eps), its floor eps^{3d}).
    H_Psi = G+ x G+ x Gx, so the fraction is m+^2 mx for the shares m+ and
    mx of the enumerated rows of G+ and Gx inside the box; by pigeonhole
    each is >= eps^d, asserted.  enumerate_H rejects d < 1."""
    eps = as_fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("need 0 < eps <= 1")
    H = enumerate_H(psi)
    p = psi.ctx.p
    m_plus, m_times = (Fraction(int(np.count_nonzero(_rows_within(rows, den, eps))), len(rows))
                       for rows, den in ((H.gplus, p), (H.gtimes, p - 1)))
    for m in (m_plus, m_times):
        MarginReport.check("pigeonhole projection floor", eps ** psi.d, m)
    return m_plus ** 2 * m_times, eps ** (3 * psi.d)


def check_bohr_density(psi: QMSystem, eps) -> tuple:
    """(mu(B(Psi,eps)), (1/8)(eps/4)^{3d}), the floor asserted exactly."""
    eps = as_fraction(eps)
    B = bohr_set(psi, eps)
    mu = Fraction(len(B), psi.ctx.p)
    bound = Fraction(1, 8) * (eps / 4) ** (3 * psi.d)
    MarginReport.check("Bohr density floor", bound, mu, p=psi.ctx.p)
    return mu, bound


# -- baby counting and the counting lemma ------------------------------------

def baby_count(psi: QMSystem, F: TrigPoly) -> tuple:
    """(lhs, rhs, margin) for E_x F(Psi(x)) = sum over lattice-constrained
    coefficients, with the rhs cross-checked against the average of F over
    H_Psi (the product of the orbit means per term, see _average_over_H) at
    every p, for d >= 1: it costs O(2 |G+| + |Gx|) orbit rows, not |H|.

    On-lattice terms average to their coefficient exactly; each off-lattice
    term is a single mixed character sum, at most (2 sqrt(p) + 2)/p <=
    6/sqrt(p) in modulus by Weil.  The margin is asserted within that bound
    summed over the off-lattice terms.  It can fail from p = 37, where
    6/sqrt(p) drops below a term's trivial ceiling 1."""
    _check_trig_budget(F)
    lhs = complex(np.mean(compose_signal(psi, F).values))
    r1, r2, r3, c = _lattice_residues(psi, F)
    on = (r1 == 0) & (r2 == 0) & (r3 == 0)
    rhs, off_mass = complex(c @ on), float(np.abs(c) @ ~on)
    if psi.d >= 1:
        rhs_enum = _average_over_H(F, enumerate_H(psi))
        MarginReport.check("orthogonality mismatch", abs(rhs - rhs_enum), 0.0,
                           lattice_sum=rhs, H_average=rhs_enum)
    margin = abs(lhs - rhs)
    bound = 6 / math.sqrt(psi.ctx.p) * off_mass
    MarginReport.check("baby count single-mode bound", margin, bound, off_mass=off_mass)
    return lhs, complex(rhs), margin


def _average_over_H(F: TrigPoly, H: HGroup) -> complex:
    """Average of F over H = G+ x G+ x Gx by Fubini: each term
    c e(t . xi1) e(u . xi2) e(v . xi3) averages to c times the means of its
    three phase tables over the enumerated rows of G+, G+ and Gx, at a cost
    of O((2 |G+| + |Gx|) m d) for m terms.  It reads only the rows of H,
    never the lattices, so it is an independent check of the lattice sum."""
    E1, E2, E3, c = _phase_tables(H.psi.ctx, F, H.gplus, H.gplus, H.gtimes)
    return complex(c @ (E1.mean(axis=0) * E2.mean(axis=0) * E3.mean(axis=0)))


def counting_integral_I(psi: QMSystem, F: TrigPoly,
                        cross_check: Optional[bool] = None) -> complex:
    """I(F) = sum over coefficient triples (A, B, C) with

        xi1A + xi1B, xi1C, xi2A + xi2B, xi1B + xi2C in Lambda+
        xi3A + xi3C, xi3B in Lambdax

    of coef(A) coef(B) coef(C); equals the double average over H^2 of
    F(t,u,v) F(t+u', u, v') F(t', u', v), cross-checked by enumeration
    when |H|^2 is within budget.
    """
    _check_trig_budget(F)
    p = psi.ctx.p
    r1, r2, r3, c = _lattice_residues(psi, F)
    # the six conditions as masks over term pairs [A, B], [B, C] and [A, C]
    AB = ((r1[:, None] + r1) % p == 0) & ((r2[:, None] + r2) % p == 0) & (r3 == 0)
    BC = ((r1[:, None] + r2) % p == 0) & (r1 == 0)
    AC = (r3[:, None] + r3) % (p - 1) == 0
    total = complex(c @ (((AB * c) @ BC) * AC) @ c)
    if cross_check is None:
        cross_check = psi.d >= 1 and enumerate_H(psi).size ** 2 <= H_SQUARED_BUDGET
    if cross_check:
        direct = counting_integral_direct(psi, F)
        MarginReport.check("I(F) mismatch", abs(total - direct), 0.0, I=total, direct=direct)
    return total


def counting_integral_direct(psi: QMSystem, F: TrigPoly) -> complex:
    """Oracle: pointwise average of F(t,u,v) F(t+u',u,v') F(t',u',v) over H^2.

    Fa[t, u, v] holds F on H and Fb[t, u', u, v'] = F((t+u') mod p, u, v'),
    both evaluated at every point from the enumerated rows of H (|H| and
    |H|^{3/2} values at most).
    The product Fa[t,u,v] Fb[t,u',u,v'] Fa[t',u',v] is formed at every one
    of the |H|^2 points, in blocks of consecutive (t, u, v), each with its
    |H| points (t', u', v'), of about ROW_BLOCK points, and summed.  Nothing
    is factored over H and no lattice is read, so the result is independent
    of counting_integral_I.
    """
    H = enumerate_H(psi)
    if H.size ** 2 > H_SQUARED_BUDGET:
        raise ValueError("budget exceeded for direct enumeration")
    ctx = psi.ctx
    gp, gt = H.gplus, H.gtimes
    n, nt = len(gp), len(gt)
    Fa = _on_product(ctx, F, gp, gp, gt)
    shifted = ((gp[:, None, :] + gp[None, :, :]) % ctx.p).reshape(n * n, -1)
    Fb = _on_product(ctx, F, shifted, gp, gt).reshape(n, n, n, nt)
    Fa_v = Fa.transpose(2, 0, 1)  # [v, t', u']
    step = max(1, ROW_BLOCK // H.size)
    total = 0j
    for lo in range(0, H.size, step):
        tuv = np.arange(lo, min(lo + step, H.size))
        t, u, v = np.unravel_index(tuv, Fa.shape)
        # axes [block of (t, u, v), t', u', v']
        total += np.sum(Fa.ravel()[tuv, None, None, None]
                        * Fb[t, :, u][:, None, :, :] * Fa_v[v][:, :, :, None])
    return complex(total / H.size ** 2)


def counting_lemma_margin(psi: QMSystem, F: TrigPoly, S: Iterable[int], eps) -> dict:
    """The counting lemma's unchecked terms, for S inside the Bohr set
    B(Psi, eps): margin = |T(F o Psi, 1_S, F o Psi, F o Psi) - mu(S) I(F)|,
    T, I, mu_S, M = trig_norm(F), budget_eps = eps * mu(S) * M^4 and
    budget_p = M^{9d} / sqrt(p)."""
    eps_f = as_fraction(eps)
    S = sorted(set(int(x) % psi.ctx.p for x in S))
    B = set(bohr_set(psi, eps_f))
    outside = [x for x in S if x not in B]
    if outside:
        raise ValueError(f"S is not inside B(Psi, {eps_f}): {outside[:5]}")
    p = psi.ctx.p
    mu_S = len(S) / p
    fpsi = compose_signal(psi, F)
    lhs_T = T(fpsi, indicator(psi.ctx, S), fpsi, fpsi)
    I = counting_integral_I(psi, F)
    margin = abs(lhs_T - mu_S * I)
    M = trig_norm(F)
    budget_eps = float(eps_f) * mu_S * M**4
    budget_p = M ** (9 * psi.d) / np.sqrt(p)
    return {"margin": margin, "T": lhs_T, "I": I, "mu_S": mu_S, "M": M,
            "budget_eps": budget_eps, "budget_p": budget_p}


def counting_lemma_check(psi: QMSystem, F: TrigPoly, S: Iterable[int], eps) -> MarginReport:
    """The counting lemma's margin against the audited budget
    C1 * eps * mu(S) * M^4 + C2 * M^{9d} / sqrt(p) (see counting_lemma_margin)."""
    terms = counting_lemma_margin(psi, F, S, eps)
    margin = terms.pop("margin")
    C1 = AUDIT_CONSTANTS["countlemma_C1"]
    C2 = AUDIT_CONSTANTS["countlemma_C2"]
    return MarginReport.check("counting_lemma", margin,
                              C1 * terms["budget_eps"] + C2 * terms["budget_p"],
                              **terms, C1=C1, C2=C2)
