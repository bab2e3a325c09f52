"""Reference constructions that several test modules share.

None of these is part of the package: each builds a test input or is an
independent oracle for a package kernel.

sqrt2 endpoint certificate.  The generalised-interval code of an orbit
coordinate num/den at scale R is floor(R*(num/den - sqrt2)) mod R.  The
distance from R*num/den - R*sqrt2 to the nearest integer is at least
||R*den*sqrt2|| / den >= 1/(3*R*den^2) >= 1/(3 * 2^10 * 10^10) > 3e-14,
using ||m sqrt2|| >= 1/(3m) (verified exhaustively by check_sqrt2_gap).
So an approximate floor of R*(num/den - sqrt2), in floating point or in
the 96-bit fixed point of the interval oracle in test_regularity, decides
membership correctly at every p and R the field tables admit; the
package's exact integer codes do not rely on it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from fpharmonics.field import MultChar, mult_char_values, quad_phase_values
from fpharmonics.harmonic import Signal
from fpharmonics.qm import TrigPoly
from fpharmonics.regularity import _jackson_coeffs


def qm_basis_signal(ctx, r: int, s: int, k: int) -> Signal:
    """The product e_p(r x^2 + s x) * chi_k(x) as a Signal."""
    return Signal(ctx, quad_phase_values(ctx, r, s)
                  * mult_char_values(ctx, MultChar(k)))


def signal_to_json(f: Signal) -> dict:
    """The payload signal_load reads: p and [re, im] per value."""
    return {"p": f.p, "values": [[float(v.real), float(v.imag)] for v in f.values]}


def constant_trig_poly(d: int) -> TrigPoly:
    """The constant 1 on G^d."""
    z = tuple([0] * d)
    return TrigPoly(d, {(z, z, z): 1.0})


def orbit_metric(psi, x: int) -> Fraction:
    """|Psi(x)| on G^d, the max over the 3d circle coordinates of
    ||num/den||_{R/Z}, from Python ints and the dlog table alone:
    a_i x^2 / p, 2 a_i x / p and k_i dlog(x) / (p-1) (0 at x = 0)."""
    p = psi.ctx.p
    x %= p
    dl = int(psi.ctx.dlog[x]) if x else 0
    coords = [(a * x * x, p) for a in psi.a_vec] + [(2 * a * x, p) for a in psi.a_vec]
    coords += [(k * dl, p - 1) for k in psi.k_vec]
    best = Fraction(0)
    for num, den in coords:
        n = num % den
        best = max(best, Fraction(min(n, den - n), den))
    return best


def check_sqrt2_gap(m_max: int = 10**6) -> dict:
    """Verify ||m sqrt2||_{R/Z} >= 1/(3m) for 1 <= m <= m_max, exactly: the
    endpoint gap of the module docstring, which float interval oracles rely on.

    For each m the two integer candidates around m*sqrt2 are k = isqrt(2m^2)
    and k+1; the condition |m sqrt2 - k| >= 1/(3m) squares to a pure
    integer comparison (18 m^4 vs (3mk +- 1)^2).  Checking both candidates
    covers the nearest integer, which subsumes the continued-fraction
    convergent argument (convergents are where the minima occur).
    """
    worst_m, worst_margin = 0, None
    for m in range(1, m_max + 1):
        k = math.isqrt(2 * m * m)
        # below: m*sqrt2 - k >= 1/(3m)  <=>  18 m^4 >= (3mk + 1)^2
        if 18 * m**4 < (3 * m * k + 1) ** 2:
            raise AssertionError(f"sqrt2 gap violated at m={m} (below)")
        # above: (k+1) - m*sqrt2 >= 1/(3m)  <=>  (3m(k+1) - 1)^2 >= 18 m^4
        if (3 * m * (k + 1) - 1) ** 2 < 18 * m**4:
            raise AssertionError(f"sqrt2 gap violated at m={m} (above)")
        margin = min(m * math.sqrt(2) - k, k + 1 - m * math.sqrt(2)) * 3 * m
        if worst_margin is None or margin < worst_margin:
            worst_m, worst_margin = m, margin
    return {"m_max": m_max, "violations": 0,
            "worst_m": worst_m, "worst_ratio": worst_margin}


def interval_pattern_others(N: int, distinct: bool = False) -> list:
    """value -> for each pattern (x, y, x+y, xy) inside {1..N} holding it,
    the pattern's other members: the table the interval search once built
    on every call, kept as the oracle for its shared pattern index."""
    from fpharmonics.search import interval_patterns
    others: list = [[] for _ in range(N + 1)]
    for pat in interval_patterns(N, distinct):
        members = set(pat)
        for v in members:
            others[v].append(tuple(members - {v}))
    return others


def box_factor_at(lo: float, d: int, R: int, eps: float) -> tuple:
    """(coeffs over j = -deg..deg, tail) of the smoothed indicator of
    [lo, lo + 1/R) as smooth boxes once built it for each coordinate on its
    own: the gamma-enlarged interval at lo convolved with a Jackson kernel,
    whose degree escalates once when the tail exceeds the per-factor
    allowance.  The oracle for the one shared interval shifted to lo."""
    width, gamma = 1.0 / R, 1.0 / (4 * R)
    a_ceiling = eps / (10 * R ** (3 * d))
    tau0 = a_ceiling / (8 * 3 * d)
    n0 = max(4, math.ceil((3 / (16 * tau0 * gamma**4)) ** (1 / 3)))
    for n in (n0, 2 * n0):
        kc = _jackson_coeffs(n)
        deg = 2 * n - 2
        js = np.arange(-deg, deg + 1)
        a, b = lo - gamma, lo + width + gamma
        ind_hat = np.empty(2 * deg + 1, dtype=np.complex128)
        nz = js != 0
        ind_hat[~nz] = b - a
        ind_hat[nz] = (np.exp(-2j * np.pi * js[nz] * a)
                       - np.exp(-2j * np.pi * js[nz] * b)) / (2j * np.pi * js[nz])
        inside = 2 * gamma + np.sum(kc[nz] * np.sin(2 * np.pi * js[nz] * gamma)
                                    / (np.pi * js[nz]))
        tail = max(0.0, 1.0 - float(inside))
        if tail <= tau0:
            scale = 1.0 / ((1.0 - tail) * (1.0 - 1e-8))
            return ind_hat * kc * scale, tail
    raise AssertionError(f"tail {tail} over its bound {tau0} after escalation")


def trig_eval(coeffs, theta) -> np.ndarray:
    """Re sum_j coeffs[j] e(j theta), j = -deg..deg, at each theta."""
    deg = len(coeffs) // 2
    ph = np.exp(2j * np.pi * np.outer(np.atleast_1d(theta), np.arange(-deg, deg + 1)))
    return np.real(ph @ coeffs)


def pigeon_measure_loop(factors, images, delta) -> Fraction:
    """The measure of { x in prod Z_{n_j} : |pi(x)| <= delta } by one
    Fraction sum per coordinate of every element: the loop that
    check_pigeon_projection once ran, kept as its oracle."""
    d = len(images[0]) if images else 0
    count = 0
    for x in itertools.product(*(range(n) for n in factors)):
        ok = True
        for j in range(d):
            coord = sum(x[i] * Fraction(images[i][j]) for i in range(len(factors))) % 1
            if min(coord, 1 - coord) > delta:
                ok = False
                break
        if ok:
            count += 1
    return Fraction(count, math.prod(factors))


def _in_lambda_plus(psi, xi) -> bool:
    return sum(int(x) * a for x, a in zip(xi, psi.a_vec)) % psi.ctx.p == 0


def _in_lambda_times(psi, xi) -> bool:
    return sum(int(x) * k for x, k in zip(xi, psi.k_vec)) % (psi.ctx.p - 1) == 0


def baby_count_lattice_sum(psi, F) -> tuple:
    """(sum of the on-lattice coefficients, mass of the off-lattice ones)
    of F, one Python dot product per frequency vector: the lattice test
    baby_count once ran, kept as the oracle for its residue masks."""
    rhs = off_mass = 0
    for (x1, x2, x3), c in F.terms.items():
        if (_in_lambda_plus(psi, x1) and _in_lambda_plus(psi, x2)
                and _in_lambda_times(psi, x3)):
            rhs += c
        else:
            off_mass += abs(c)
    return rhs, off_mass


def counting_integral_loop(psi, F) -> complex:
    """I(F) as the triple loop over coefficient triples (A, B, C) with the
    six lattice conditions tested by Python dot products: the sum
    counting_integral_I once ran, kept as the oracle for its masks."""
    total = 0j
    items = list(F.terms.items())
    for (a1, a2, a3), ca in items:
        for (b1, b2, b3), cb in items:
            t_key = tuple(x + y for x, y in zip(a1, b1))
            u_key = tuple(x + y for x, y in zip(a2, b2))
            if not (_in_lambda_plus(psi, t_key) and _in_lambda_plus(psi, u_key)
                    and _in_lambda_times(psi, b3)):
                continue
            for (c1, c2, c3), cc in items:
                if not _in_lambda_plus(psi, c1):
                    continue
                up_key = tuple(x + y for x, y in zip(b1, c2))
                v_key = tuple(x + y for x, y in zip(a3, c3))
                if _in_lambda_plus(psi, up_key) and _in_lambda_times(psi, v_key):
                    total += ca * cb * cc
    return total
