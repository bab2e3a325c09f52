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
from fpharmonics.regularity import _fejer_power


# the primes at which the pair walk and the field tables are checked against
# loop and grid oracles; at 521 the walk splits its rows unevenly for both
# complex and uint8 input, with the row t = -1 inside a block
ORACLE_PRIMES = (3, 5, 13, 401, 521, 1009)


def field_tables_loop(p: int, g: int) -> tuple:
    """pow_g, dlog and zech of F_p for the primitive root g as lists, from
    one Python loop over the powers of g; dlog 0 is 2(p-1)."""
    pow_g, dlog = [0] * (p - 1), [2 * (p - 1)] * p
    acc = 1
    for a in range(p - 1):
        pow_g[a] = acc
        dlog[acc] = a
        acc = acc * g % p
    return pow_g, dlog, [dlog[(x + 1) % p] for x in pow_g]


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


def fejer_power_sampled(n: int, k: int) -> np.ndarray:
    """Fourier coefficients over j = -k(n-1)..k(n-1) of |D_n|^{2k} =
    (sin(n pi theta)/sin(pi theta))^{2k}, from its samples at 2k(n-1) + 2
    points; the central one is c_{n,k}.  The oracle for _fejer_power."""
    deg = k * (n - 1)
    L = 2 * deg + 2
    theta = np.arange(L) / L
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(n * np.pi * theta) / np.sin(np.pi * theta)
    ratio[0] = n
    chat = np.fft.fft(ratio ** (2 * k)) / L
    return np.real(chat[np.arange(-deg, deg + 1) % L])


def box_factor_at(lo: float, d: int, R: int, eps: float) -> tuple:
    """(coeffs over j = -deg..deg, tail bound) of the smoothed indicator of
    [lo, lo + 1/R) built for one coordinate on its own: the gamma-enlarged
    interval at lo convolved with a Fejer power K_{n,k}, over 1 - tau0.
    For each k, n is the least with (2 gamma)^{1-2k} n / ((2k - 1)
    (2n/pi)^{2k}) <= tau0, found by bisection; k walks up from 2 while the
    degree k(n - 1) falls.  The oracle for the one shared interval shifted
    to lo."""
    width, gamma = 1.0 / R, 1.0 / (4 * R)
    tau0 = eps / (10 * R ** (3 * d)) / (8 * 3 * d)

    def fits(n, k):
        return ((2 * k - 1) * math.log(2 * R) + math.log(n) - math.log(2 * k - 1)
                - 2 * k * math.log(2 * n / math.pi)) <= math.log(tau0)

    def least_n(k):
        lo_n, hi_n = 1, 2
        while not fits(hi_n, k):
            lo_n, hi_n = hi_n, 2 * hi_n
        while hi_n - lo_n > 1:
            mid = (lo_n + hi_n) // 2
            lo_n, hi_n = (lo_n, mid) if fits(mid, k) else (mid, hi_n)
        return hi_n

    k = 2
    while (k + 1) * (least_n(k + 1) - 1) < k * (least_n(k) - 1):
        k += 1
    n = least_n(k)
    kc, c = _fejer_power(n, k)
    deg = k * (n - 1)
    js = np.arange(-deg, deg + 1)
    a, b = lo - gamma, lo + width + gamma
    ind_hat = np.empty(2 * deg + 1, dtype=np.complex128)
    nz = js != 0
    ind_hat[~nz] = b - a
    ind_hat[nz] = (np.exp(-2j * np.pi * js[nz] * a)
                   - np.exp(-2j * np.pi * js[nz] * b)) / (2j * np.pi * js[nz])
    return ind_hat * kc / (1 - tau0), (2 * R) ** (2 * k - 1) / ((2 * k - 1) * c)


def trig_eval(coeffs, theta) -> np.ndarray:
    """Re sum_j coeffs[j] e(j theta), j = -deg..deg, at each theta."""
    deg = len(coeffs) // 2
    ph = np.exp(2j * np.pi * np.outer(np.atleast_1d(theta), np.arange(-deg, deg + 1)))
    return np.real(ph @ coeffs)


def pigeon_measure_loop(factors, images, delta) -> Fraction:
    """The measure of { x in prod Z_{n_j} : |pi(x)| <= delta } by one
    Fraction sum per coordinate of every element.  The oracle for
    box_fraction's factors: [p] with images a/p gives m+, [p - 1] with
    k/(p-1) gives mx, and neither reads enumerate_H."""
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


def average_over_H_pointwise(F, H) -> complex:
    """Average of F over H = G+ x G+ x Gx with F evaluated at every point,
    one np.exp per term, one row t of G+ at a time (|G+| |Gx| points per
    row): the meshgrid average of test_qm in blocks, so it reaches a full
    orbit at p = 101 (|H| = 1,020,100) and is the oracle for the
    factored _average_over_H."""
    p = H.psi.ctx.p
    iu, iv = (a.ravel() for a in np.meshgrid(np.arange(len(H.gplus)),
                                             np.arange(len(H.gtimes)), indexing="ij"))
    U, V = H.gplus[iu], H.gtimes[iv]
    total = 0j
    for t in H.gplus:
        for (x1, x2, x3), c in F.terms.items():
            n12 = (int(t @ np.array(x1, dtype=np.int64))
                   + U @ np.array(x2, dtype=np.int64)) % p
            n3 = V @ np.array(x3, dtype=np.int64) % (p - 1)
            total += c * np.sum(np.exp(2j * np.pi * (n12 / p + n3 / (p - 1))))
    return total / H.size
