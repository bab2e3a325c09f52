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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .calibration import AUDIT_CONSTANTS
from .counting import MarginReport, T
from .field import FieldCtx, cached_field
from .harmonic import Signal, indicator

TRIG_MAX_D = 4
TRIG_MAX_NORM = 12.0
H_ENUM_BUDGET = 10**7
H_SQUARED_BUDGET = 2 * 10**6


def as_fraction(x) -> Fraction:
    """Exact conversion; floats convert by their exact binary value."""
    if isinstance(x, float):
        return Fraction(*x.as_integer_ratio())
    return Fraction(x)


def circ_norm(num: int, den: int) -> Fraction:
    """||num/den||_{R/Z} = min(num mod den, den - num mod den)/den, exact."""
    n = num % den
    return Fraction(min(n, den - n), den)


@dataclass(frozen=True)
class GPoint:
    """A point of G^d on a QM orbit closure, with exact rational angles.

    th1, th2 are numerator tuples over denominator p; v is a numerator
    tuple over denominator p-1 (the S^1 coordinate as an angle).
    """

    p: int
    th1: tuple
    th2: tuple
    v: tuple

    @property
    def d(self) -> int:
        return len(self.th1)

    def metric(self) -> Fraction:
        """|.| on G^d: max over all 3d circle coordinates."""
        p, q = self.p, self.p - 1
        best = Fraction(0)
        for i in range(self.d):
            best = max(best, circ_norm(self.th1[i], p),
                       circ_norm(self.th2[i], p), circ_norm(self.v[i], q))
        return best

    def sub(self, other: "GPoint") -> "GPoint":
        if self.p != other.p or self.d != other.d:
            raise ValueError("GPoint mismatch")
        p, q = self.p, self.p - 1
        return GPoint(p,
                      tuple((a - b) % p for a, b in zip(self.th1, other.th1)),
                      tuple((a - b) % p for a, b in zip(self.th2, other.th2)),
                      tuple((a - b) % q for a, b in zip(self.v, other.v)))

    def fractions(self):
        """The 3d coordinates as exact Fractions in [0,1)."""
        p, q = self.p, self.p - 1
        return tuple((Fraction(t1 % p, p), Fraction(t2 % p, p), Fraction(w % q, q))
                     for t1, t2, w in zip(self.th1, self.th2, self.v))


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

    def extends(self, other: "QMSystem") -> bool:
        """Prefix relation: self extends other."""
        return (self.ctx.p == other.ctx.p and self.d >= other.d
                and self.dims[:other.d] == other.dims)

    def extended(self, extra_dims) -> "QMSystem":
        return QMSystem(self.ctx, self.dims + tuple(extra_dims))

    def to_json(self) -> dict:
        return {"p": self.ctx.p, "dims": [{"a": a, "k": k} for a, k in self.dims]}

    @staticmethod
    def from_json(obj: dict, ctx: Optional[FieldCtx] = None) -> "QMSystem":
        p = int(obj["p"])
        if ctx is None:
            ctx = cached_field(p)
        elif ctx.p != p:
            raise ValueError("ctx mismatch")
        return QMSystem(ctx, tuple((d["a"], d["k"]) for d in obj["dims"]))


def eval_system(psi: QMSystem, x: int) -> GPoint:
    """Psi(x) with exact rational coordinates; psi_i(0) = 1 so v = 0 at x = 0."""
    ctx = psi.ctx
    p = ctx.p
    x = int(x) % p
    dl = int(ctx.dlog[x]) if x != 0 else 0
    return GPoint(p,
                  tuple(a * x * x % p for a in psi.a_vec),
                  tuple(2 * a * x % p for a in psi.a_vec),
                  tuple(k * dl % (p - 1) if x != 0 else 0 for k in psi.k_vec))


def orbit_arrays(psi: QMSystem):
    """Integer numerator arrays of Psi over all of F_p: (TH1, TH2, V),
    each of shape (p, d), denominators p, p, p-1."""
    ctx = psi.ctx
    p = ctx.p
    x = np.arange(p, dtype=np.int64)
    a = np.array(psi.a_vec, dtype=np.int64)
    k = np.array(psi.k_vec, dtype=np.int64)
    th1 = (x * x % p)[:, None] * a[None, :] % p
    th2 = (2 * x % p)[:, None] * a[None, :] % p
    dl = np.where(x == 0, 0, ctx.dlog[x])
    v = dl[:, None] * k[None, :] % (p - 1)
    return th1, th2, v


@dataclass(frozen=True)
class LatticeTests:
    """Membership predicates for the frequency lattices of a system."""

    psi: QMSystem

    def in_lambda_plus(self, xi: Sequence[int]) -> bool:
        return sum(int(x) * a for x, a in zip(xi, self.psi.a_vec)) % self.psi.ctx.p == 0

    def in_lambda_times(self, xi: Sequence[int]) -> bool:
        q = self.psi.ctx.p - 1
        return sum(int(x) * k for x, k in zip(xi, self.psi.k_vec)) % q == 0


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


def _cyclic_orbit(vec: Sequence[int], modulus: int, n_params: int) -> np.ndarray:
    seen = {}
    v = np.array(vec, dtype=np.int64)
    for s in range(n_params):
        key = tuple(int(t) for t in (s * v % modulus))
        if key not in seen:
            seen[key] = None
    return np.array(list(seen.keys()), dtype=np.int64).reshape(len(seen), len(vec))


def enumerate_H(psi: QMSystem) -> HGroup:
    """G+ as the cyclic orbit of a/p in (R/Z)^d, Gx of k/(p-1); H = G+ x G+ x Gx."""
    if psi.d < 1:
        raise ValueError("enumerate_H needs d >= 1")
    p = psi.ctx.p
    gplus = _cyclic_orbit(psi.a_vec, p, p)
    gtimes = _cyclic_orbit(psi.k_vec, p - 1, p - 1)
    return HGroup(psi, gplus, gtimes)


# -- trigonometric polynomials on G^d ---------------------------------------

@dataclass(frozen=True)
class TrigPoly:
    """Sparse trig polynomial on G^d: terms maps (xi1, xi2, xi3) in (Z^d)^3
    (each a length-d int tuple) to a complex coefficient."""

    d: int
    terms: dict

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

    @staticmethod
    def constant(d: int, c: complex = 1.0) -> "TrigPoly":
        z = tuple([0] * d)
        return TrigPoly(d, {(z, z, z): c})

    @staticmethod
    def random(d: int, rng: np.random.Generator, n_terms: int = 3,
               max_freq: int = 1, mass: float = 1.5) -> "TrigPoly":
        terms = {}
        while len(terms) < n_terms:
            key = tuple(tuple(int(v) for v in rng.integers(-max_freq, max_freq + 1, d))
                        for _ in range(3))
            terms[key] = rng.standard_normal() + 1j * rng.standard_normal()
        total = sum(abs(c) for c in terms.values())
        scale = mass / total if total > 0 else 1.0
        return TrigPoly(d, {k: c * scale for k, c in terms.items()})

    def conj(self) -> "TrigPoly":
        return TrigPoly(self.d, {tuple(tuple(-v for v in blk) for blk in key):
                                 complex(c).conjugate()
                                 for key, c in self.terms.items()})

    def shifted(self, h: GPoint) -> "TrigPoly":
        """T_h F(x) = F(x + h): each coefficient picks up a unit phase."""
        p, q = h.p, h.p - 1
        out = {}
        for (x1, x2, x3), c in self.terms.items():
            n1 = sum(a * b for a, b in zip(x1, h.th1)) % p
            n2 = sum(a * b for a, b in zip(x2, h.th2)) % p
            n3 = sum(a * b for a, b in zip(x3, h.v)) % q
            phase = np.exp(2j * np.pi * (n1 / p + n2 / p + n3 / q))
            out[(x1, x2, x3)] = c * phase
        return TrigPoly(self.d, out)

    def to_json(self) -> dict:
        return {"d": self.d,
                "terms": [{"xi1": list(x1), "xi2": list(x2), "xi3": list(x3),
                           "coef": [c.real, c.imag]}
                          for (x1, x2, x3), c in self.terms.items()]}

    @staticmethod
    def from_json(obj: dict) -> "TrigPoly":
        terms = {}
        for t in obj["terms"]:
            key = (tuple(t["xi1"]), tuple(t["xi2"]), tuple(t["xi3"]))
            terms[key] = complex(t["coef"][0], t["coef"][1])
        return TrigPoly(int(obj["d"]), terms)


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


def trig_eval_batch(F: TrigPoly, p: int, TH1: np.ndarray, TH2: np.ndarray,
                    V: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on N points given numerator arrays (N, d)."""
    q = p - 1
    N = TH1.shape[0]
    total = np.zeros(N, dtype=np.complex128)
    for (x1, x2, x3), c in F.terms.items():
        n12 = (TH1 @ np.array(x1, dtype=np.int64)
               + TH2 @ np.array(x2, dtype=np.int64)) % p
        n3 = (V @ np.array(x3, dtype=np.int64)) % q
        total += c * np.exp(2j * np.pi * (n12 / p + n3 / q))
    return total


def compose_signal(psi: QMSystem, F: TrigPoly) -> Signal:
    """The Signal x -> F(Psi(x))."""
    th1, th2, v = orbit_arrays(psi)
    return Signal(psi.ctx, trig_eval_batch(F, psi.ctx.p, th1, th2, v))


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
    """(exact fraction of H_Psi inside the box X(eps), lower bound eps^{3d})."""
    eps = as_fraction(eps)
    H = enumerate_H(psi)
    p, q = psi.ctx.p, psi.ctx.p - 1
    okp = _rows_within(H.gplus, p, eps)
    okt = _rows_within(H.gtimes, q, eps)
    inside = int(np.sum(okp)) ** 2 * int(np.sum(okt))
    frac = Fraction(inside, H.size)
    return frac, eps ** (3 * psi.d)


def check_bohr_density(psi: QMSystem, eps, assert_above_p: int = 50) -> tuple:
    """(mu(B(Psi,eps)), (1/8)(eps/4)^{3d}); asserts the bound for p above
    the configurable threshold, reports only below it."""
    eps = as_fraction(eps)
    B = bohr_set(psi, eps)
    mu = Fraction(len(B), psi.ctx.p)
    bound = Fraction(1, 8) * (eps / 4) ** (3 * psi.d)
    if psi.ctx.p > assert_above_p and mu < bound:
        raise AssertionError(f"Bohr density {mu} below floor {bound} at p={psi.ctx.p}")
    return mu, bound


def check_pigeon_projection(factors: Sequence[int], pi, delta) -> tuple:
    """For G = prod Z_{n_j} and a homomorphism pi into (R/Z)^d given by the
    images of the generators (d-vectors of rationals), return the exact
    measure of { x : |pi(x)| <= delta } and the floor delta^d."""
    delta = as_fraction(delta)
    images = [tuple(as_fraction(c) for c in gen) for gen in pi]
    if len(images) != len(factors):
        raise ValueError("one generator image per cyclic factor required")
    d = len(images[0]) if images else 0
    order = 1
    for n in factors:
        order *= n
    count = 0
    for x in itertools.product(*(range(n) for n in factors)):
        ok = True
        for j in range(d):
            coord = sum(x[i] * images[i][j] for i in range(len(factors))) % 1
            if min(coord, 1 - coord) > delta:
                ok = False
                break
        if ok:
            count += 1
    measure = Fraction(count, order)
    bound = delta ** d
    if measure < bound:
        raise AssertionError(f"pigeonhole projection measure {measure} < {bound}")
    return measure, bound


# -- baby counting and the counting lemma ------------------------------------

def baby_count(psi: QMSystem, F: TrigPoly) -> tuple:
    """(lhs, rhs, margin) for E_x F(Psi(x)) = sum over lattice-constrained
    coefficients, with the rhs cross-checked by direct H enumeration."""
    _check_trig_budget(F)
    lhs = complex(np.mean(compose_signal(psi, F).values))
    lat = LatticeTests(psi)
    rhs = sum(c for (x1, x2, x3), c in F.terms.items()
              if lat.in_lambda_plus(x1) and lat.in_lambda_plus(x2)
              and lat.in_lambda_times(x3))
    if psi.d >= 1:
        H = enumerate_H(psi)
        if H.size <= H_ENUM_BUDGET:
            rhs_enum = _average_over_H(F, H)
            if abs(rhs - rhs_enum) > 1e-9:
                raise AssertionError(
                    f"orthogonality mismatch: {rhs} vs {rhs_enum}")
    return lhs, complex(rhs), abs(lhs - rhs)


def _average_over_H(F: TrigPoly, H: HGroup) -> complex:
    """Direct average of F over H = G+ x G+ x Gx (independent coordinates)."""
    p = H.psi.ctx.p
    np_, nt = len(H.gplus), len(H.gtimes)
    it, iu, iv = np.meshgrid(np.arange(np_), np.arange(np_), np.arange(nt),
                             indexing="ij")
    TH1 = H.gplus[it.ravel()]
    TH2 = H.gplus[iu.ravel()]
    V = H.gtimes[iv.ravel()]
    return complex(np.mean(trig_eval_batch(F, p, TH1, TH2, V)))


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
    lat = LatticeTests(psi)
    total = 0.0 + 0.0j
    items = list(F.terms.items())
    for (a1, a2, a3), ca in items:
        for (b1, b2, b3), cb in items:
            t_key = tuple(x + y for x, y in zip(a1, b1))
            u_key = tuple(x + y for x, y in zip(a2, b2))
            if not (lat.in_lambda_plus(t_key) and lat.in_lambda_plus(u_key)
                    and lat.in_lambda_times(b3)):
                continue
            for (c1, c2, c3), cc in items:
                if not lat.in_lambda_plus(c1):
                    continue
                up_key = tuple(x + y for x, y in zip(b1, c2))
                v_key = tuple(x + y for x, y in zip(a3, c3))
                if lat.in_lambda_plus(up_key) and lat.in_lambda_times(v_key):
                    total += ca * cb * cc
    if cross_check is None:
        cross_check = psi.d >= 1 and enumerate_H(psi).size ** 2 <= H_SQUARED_BUDGET
    if cross_check:
        direct = counting_integral_direct(psi, F)
        if abs(total - direct) > 1e-9:
            raise AssertionError(f"I(F) mismatch: {total} vs {direct}")
    return complex(total)


def counting_integral_direct(psi: QMSystem, F: TrigPoly) -> complex:
    """Oracle: pointwise average of F(t,u,v) F(t+u',u,v') F(t',u',v) over H^2."""
    H = enumerate_H(psi)
    if H.size ** 2 > H_SQUARED_BUDGET:
        raise ValueError("budget exceeded for direct enumeration")
    p = psi.ctx.p
    gp, gt = H.gplus, H.gtimes
    np_, nt = len(gp), len(gt)
    # independent coordinates: t, u, t', u' in G+; v, v' in Gx
    idx = np.meshgrid(*(np.arange(np_),) * 4, np.arange(nt), np.arange(nt),
                      indexing="ij")
    it, iu, itp, iup, iv, ivp = (a.ravel() for a in idx)
    t, u, tp, up = gp[it], gp[iu], gp[itp], gp[iup]
    v, vp = gt[iv], gt[ivp]
    vals = (trig_eval_batch(F, p, t, u, v)
            * trig_eval_batch(F, p, (t + up) % p, u, vp)
            * trig_eval_batch(F, p, tp, up, v))
    return complex(np.mean(vals))


def counting_lemma_check(psi: QMSystem, F: TrigPoly, S: Iterable[int], eps,
                         assert_budget: bool = True) -> MarginReport:
    """|T(F o Psi, 1_S, F o Psi, F o Psi) - mu(S) I(F)| against the audited
    budget C1 * eps * mu(S) * M^4 + C2 * M^{9d} / sqrt(p), for S inside
    the Bohr set B(Psi, eps)."""
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
    C1 = AUDIT_CONSTANTS["countlemma_C1"]
    C2 = AUDIT_CONSTANTS["countlemma_C2"]
    rhs = C1 * budget_eps + C2 * budget_p
    rep = MarginReport("counting_lemma", margin, rhs,
                       {"T": lhs_T, "I": I, "mu_S": mu_S, "M": M,
                        "budget_eps": budget_eps, "budget_p": budget_p,
                        "C1": C1, "C2": C2})
    if assert_budget and not rep.ok():
        raise AssertionError(f"counting lemma margin {margin} exceeds budget {rhs}")
    return rep
