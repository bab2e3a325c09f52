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

from .calibration import AUDIT_CONSTANTS
from .counting import MarginReport
from .field import FieldCtx, MultChar, mult_char_values, quad_phase_values
from .harmonic import difference_spectrum


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
    x = np.arange(p, dtype=np.int64)
    prod = np.ones(p, dtype=np.complex128)
    for chi, h in zip(chis, hs):
        prod *= mult_char_values(ctx, chi)[(x + h) % p]
    s = complex(np.sum(prod))
    bound = (t - 1) * math.sqrt(p) + t
    MarginReport.check("Weil bound", abs(s), bound, sum=s)
    return s, bound


def mixed_sum(ctx: FieldCtx, a: int, b: int, chi: MultChar, chi_prime: MultChar,
              h: int) -> tuple:
    """(E_x e_p(a x^2 + b x) chi(x) chi'(x+h), magnitude).

    h != 0 and the fully degenerate input (a = b = 0 with both characters
    principal) is rejected.  The audited budget is c * p^{-1/16}.
    """
    p = ctx.p
    a, b, h = a % p, b % p, h % p
    if h == 0:
        raise ValueError("need h != 0")
    if a == 0 and b == 0 and chi.is_principal() and chi_prime.is_principal():
        raise ValueError("degenerate input: trivial phase and characters")
    x = np.arange(p, dtype=np.int64)
    vals = (quad_phase_values(ctx, a, b)
            * mult_char_values(ctx, chi)
            * mult_char_values(ctx, chi_prime)[(x + h) % p])
    s = complex(np.mean(vals))
    return s, abs(s)


def check_mixed_sum(ctx: FieldCtx, a: int, b: int, chi: MultChar,
                    chi_prime: MultChar, h: int):
    """mixed_sum plus the audited-budget assertion."""
    s, mag = mixed_sum(ctx, a, b, chi, chi_prime, h)
    c = AUDIT_CONSTANTS["mixed_sum_c"]
    return MarginReport.check("mixed_sum", mag, c * ctx.p ** (-1 / 16), sum=s, c=c)


def u3_box_sum(ctx: FieldCtx, chi: MultChar, chi_prime: MultChar, h: int) -> float:
    """The eight-fold correlation

      E_{x, z1, z2, z3} prod_{w in {0,1}^3} C^{|w|} F(x + w.z),  F(x) = chi(x) chi'(x + h)

    (C = conjugation), i.e. ||F||_{U^3}^8 = E_w sum_s |(Delta_w F)^(s)|^4 by
    Gowers' identity.  Asserted against the derived budget 7/sqrt(p) + 34/p
    (Weil term for nondegenerate shift triples plus the degenerate-triple
    and convention-defect allowance).
    """
    p = ctx.p
    if h % p == 0:
        raise ValueError("need h != 0")
    if p > 61:
        raise ValueError(f"p={p} above the u3_box_sum cap of 61")
    x = np.arange(p, dtype=np.int64)
    base = mult_char_values(ctx, chi) * mult_char_values(ctx, chi_prime)[(x + h) % p]
    val = float(np.mean(np.sum(difference_spectrum(base) ** 2, axis=1)))
    budget = (AUDIT_CONSTANTS["u3box_weil"] / math.sqrt(p)
              + AUDIT_CONSTANTS["u3box_degenerate"] / p)
    MarginReport.check("u3 box sum", val, budget)
    return val
