"""Character-sum inputs: Gauss sums, Weil-type shifted products, mixed
quadratic x multiplicative sums, and the eight-fold U^3-style box sum.

Gauss, Weil and mixed sums are direct sums over x; the box sum uses
Gowers' identity.  The chi(0) = 1 convention is used throughout, so
Weil-type bounds carry a +t defect allowance (each zero argument can
shift the sum by at most 1 relative to the chi(0) = 0 normalization).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .counting import MarginReport
from .field import FieldCtx, MultChar, mult_char_values, quad_phase_values
from .harmonic import difference_spectrum


def _shifted(ctx: FieldCtx, chi: MultChar, h: int) -> np.ndarray:
    """chi(x + h) for x = 0..p-1."""
    return np.roll(mult_char_values(ctx, chi), -h)


def gauss_sum(ctx: FieldCtx, a: int, b: int) -> complex:
    """sum_x e_p(a x^2 + b x); modulus sqrt(p) for a != 0, 0 for a=0 b!=0,
    p for a=b=0 (asserted within counting.TOL)."""
    p = ctx.p
    a, b = a % p, b % p
    s = complex(np.sum(quad_phase_values(ctx, a, b)))
    if a != 0:
        expected = math.sqrt(p)
    elif b != 0:
        expected = 0.0
    else:
        expected = float(p)
    MarginReport.check("gauss modulus", abs(abs(s) - expected), 0.0,
                       sum=s, expected=expected)
    return s


def weil_product_sum(ctx: FieldCtx, chis: Sequence[MultChar],
                     shifts: Sequence[int]) -> tuple:
    """(sum_x prod_i chi_i(x + h_i), bound (t-1) sqrt(p) + t), the bound
    asserted.

    Requires t < p, pairwise distinct shifts and at least one nonprincipal
    chi (the bound's hypotheses).  The +t term absorbs the chi(0) = 1
    convention defect.
    """
    p = ctx.p
    t = len(chis)
    if t != len(shifts):
        raise ValueError("one shift per character")
    if t >= p:
        raise ValueError(f"need t < p: t = {t} characters at p = {p}")
    hs = [h % p for h in shifts]
    if len(set(hs)) != t:
        raise ValueError("shifts must be distinct")
    if all(chi.is_principal() for chi in chis):
        raise ValueError("at least one chi must be nonprincipal")
    prod = np.ones(p, dtype=np.complex128)
    for chi, h in zip(chis, hs):
        prod *= _shifted(ctx, chi, h)
    s = complex(np.sum(prod))
    bound = (t - 1) * math.sqrt(p) + t
    MarginReport.check("Weil bound", abs(s), bound, sum=s)
    return s, bound


def mixed_sum(ctx: FieldCtx, a: int, b: int, chi: MultChar, chi_prime: MultChar,
              h: int) -> MarginReport:
    """The report for |E| <= (3 sqrt(p) + 2)/p, the bound asserted, where
    E = E_x e_p(a x^2 + b x) chi(x) chi'(x+h) is its detail "sum".  Requires
    h != 0; rejects a = b = 0 with both characters principal (E = 1).

    Over x != 0, -h, Weil's bound for mixed sums (for instance Castro-Moreno,
    Proc. AMS 128, 2000) is (deg f + m - 1) sqrt(p) = 3 sqrt(p) for
    f = ax^2 + bx and the m = 2 roots of x(x + h), when f is nonconstant or
    the characters nontrivial; x = 0 and x = -h, where chi(0) = 1, add 1
    each.  Degenerate cases: a = 0 lowers deg f, so the bound.  A principal
    character is the constant 1 and lowers m: two leave a Gauss sum, of
    modulus sqrt(p) or 0, and one at a = b = 0 leaves sum_y chi'(y) = 1.
    chi' = conj(chi) is the character of x/(x+h), which is no power; at
    a = b = 0, x -> x/(x+h) maps F minus {0, -h} onto F minus {0, 1}, so
    the sum there is -1 and |pE| <= 3.
    """
    p = ctx.p
    a, b, h = a % p, b % p, h % p
    if h == 0:
        raise ValueError("need h != 0")
    if a == 0 and b == 0 and chi.is_principal() and chi_prime.is_principal():
        raise ValueError("degenerate input: trivial phase and characters")
    s = complex(np.mean(quad_phase_values(ctx, a, b) * mult_char_values(ctx, chi)
                        * _shifted(ctx, chi_prime, h)))
    return MarginReport.check("mixed_sum", abs(s), (3 * math.sqrt(p) + 2) / p, sum=s)


def u3_box_sum(ctx: FieldCtx, chi: MultChar, chi_prime: MultChar, h: int) -> float:
    """The eight-fold correlation

      E_{x, z1, z2, z3} prod_{w in {0,1}^3} C^{|w|} F(x + w.z),  F(x) = chi(x) chi'(x + h)

    (C = conjugation), i.e. ||F||_{U^3}^8 = E_w sum_s |(Delta_w F)^(s)|^4 by
    Gowers' identity.  Asserted against the derived budget 7/sqrt(p) + 34/p:
    Weil's (t - 1) sqrt(p) at t = 8 for the nondegenerate shift triples,
    plus 26 degenerate shift planes and 8 chi(0) = 1 defects.  The budget
    exceeds 1 >= ||F||_{U^3}^8 for p <= 103, so the claim cannot fail at
    any p <= 61 admitted here.
    """
    p = ctx.p
    if h % p == 0:
        raise ValueError("need h != 0")
    if p > 61:
        raise ValueError(f"p={p} above the u3_box_sum cap of 61")
    base = mult_char_values(ctx, chi) * _shifted(ctx, chi_prime, h)
    val = float(np.mean(np.sum(difference_spectrum(base) ** 2, axis=1)))
    MarginReport.check("u3 box sum", val, 7 / math.sqrt(p) + 34 / p)
    return val
