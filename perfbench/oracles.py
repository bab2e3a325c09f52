"""Independent oracles the benchmark checks the package's answers against.

Nothing here imports fpharmonics: each function recomputes a quantity
from its definition with numpy, integers or Fractions, so a wrong answer
from the package cannot also be the reference it is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

SQRT2 = math.sqrt(2.0)


# -- the field ----------------------------------------------------------------

def primitive_root(p: int) -> int:
    """Smallest primitive root mod p, by brute-force order computation."""
    for g in range(2, p):
        acc, order = g, 1
        while acc != 1:
            acc = acc * g % p
            order += 1
        if order == p - 1:
            return g
    raise ValueError(f"no primitive root mod {p}")


def discrete_log(p: int) -> np.ndarray:
    """dlog[x] = a with g^a = x for the smallest primitive root g; dlog[0] = 0."""
    g = primitive_root(p)
    dlog = np.zeros(p, dtype=np.int64)
    acc = 1
    for a in range(p - 1):
        dlog[acc] = a
        acc = acc * g % p
    return dlog


def mult_char(p: int, k: int) -> np.ndarray:
    """chi_k(x) = e(k dlog(x) / (p-1)) with chi(0) = 1."""
    vals = np.exp(2j * np.pi * (k * discrete_log(p) % (p - 1)) / (p - 1))
    vals[0] = 1.0
    return vals


def quad_phase(p: int, r: int, s: int) -> np.ndarray:
    """e_p(r x^2 + s x) for x = 0..p-1."""
    x = np.arange(p, dtype=np.int64)
    return np.exp(2j * np.pi * ((r * x * x + s * x) % p) / p)


# -- counting -----------------------------------------------------------------

def quadruple_average(f1, f2, f3, f4) -> complex:
    """T = E_{x,y} f1(x) f2(y) f3(x+y) f4(xy), summed one row of x at a time."""
    p = len(f1)
    y = np.arange(p, dtype=np.int64)
    total = 0j
    for x in range(p):
        total += f1[x] * np.sum(f2 * f3[(x + y) % p] * f4[(x * y) % p])
    return complex(total / p**2)


def quadruple_count(coloring) -> int:
    """Pairs (x, y) in F_p^2 with x, y, x+y, xy all of one colour."""
    c = np.asarray(coloring, dtype=np.int64)
    p = len(c)
    y = np.arange(p, dtype=np.int64)
    total = 0
    for x in range(p):
        total += int(np.sum((c == c[x]) & (c[(x + y) % p] == c[x])
                            & (c[(x * y) % p] == c[x])))
    return total


def u3_norm8(F) -> float:
    """||F||_{U^3}^8 by Gowers' identity: E_w sum_r |(Delta_w F)^(r)|^4,
    with Delta_w F(x) = F(x+w) conj(F(x))."""
    F = np.asarray(F, dtype=np.complex128)
    p = len(F)
    x = np.arange(p, dtype=np.int64)
    deltas = F[(x[None, :] + x[:, None]) % p] * np.conj(F)[None, :]
    coeffs = np.fft.fft(deltas, axis=1) / p
    return float(np.mean(np.sum(np.abs(coeffs) ** 4, axis=1)))


def inner(f, g) -> complex:
    """<f, g> = E_x f(x) conj(g(x))."""
    return complex(np.mean(np.asarray(f) * np.conj(np.asarray(g))))


# -- QM-system geometry ---------------------------------------------------------

def orbit(p: int, dims) -> tuple:
    """Numerators (TH1, TH2, V) of Psi(x) for all x, each of shape (p, d)."""
    x = np.arange(p, dtype=np.int64)
    dl = discrete_log(p)

    def columns(rows):
        return np.array(rows, dtype=np.int64).reshape(len(dims), p).T

    return (columns([a * x * x % p for a, _ in dims]),
            columns([2 * a * x % p for a, _ in dims]),
            columns([k * dl % (p - 1) for _, k in dims]))


def _small(num: np.ndarray, den: int, eps: Fraction) -> np.ndarray:
    """||num/den||_{R/Z} <= eps, exactly, for an integer array num."""
    n = num % den
    return eps.denominator * np.minimum(n, den - n) <= eps.numerator * den


def bohr_set(p: int, dims, eps: Fraction) -> list:
    """{x : |Psi(x)| <= eps} in exact integer arithmetic."""
    th1, th2, v = orbit(p, dims)
    ok = (np.all(_small(th1, p, eps), axis=1) & np.all(_small(th2, p, eps), axis=1)
          & np.all(_small(v, p - 1, eps), axis=1))
    return [int(x) for x in np.nonzero(ok)[0]]


def _cyclic_rows(vec, modulus: int) -> np.ndarray:
    """Distinct rows s * vec mod modulus over all s."""
    rows = {tuple(int(s * c % modulus) for c in vec) for s in range(modulus)}
    return np.array(sorted(rows), dtype=np.int64)


def box_fraction(p: int, dims, eps: Fraction) -> Fraction:
    """Share of H_Psi = G+ x G+ x Gx whose coordinates all lie within eps of 0."""
    gplus = _cyclic_rows([a for a, _ in dims], p)
    gtimes = _cyclic_rows([k for _, k in dims], p - 1)
    inside_p = int(np.sum(np.all(_small(gplus, p, eps), axis=1)))
    inside_t = int(np.sum(np.all(_small(gtimes, p - 1, eps), axis=1)))
    return Fraction(inside_p**2 * inside_t, len(gplus) ** 2 * len(gtimes))


def compose(p: int, dims, terms: dict) -> np.ndarray:
    """x -> F(Psi(x)) for a trig polynomial given as {(xi1, xi2, xi3): coef}."""
    th1, th2, v = orbit(p, dims)
    out = np.zeros(p, dtype=np.complex128)
    for (x1, x2, x3), c in terms.items():
        phase = ((th1 @ np.array(x1) + th2 @ np.array(x2)) % p / p
                 + (v @ np.array(x3)) % (p - 1) / (p - 1))
        out += c * np.exp(2j * np.pi * phase)
    return out


def lattice_sum(p: int, dims, terms: dict) -> complex:
    """Sum of the coefficients whose frequencies annihilate H_Psi."""
    a = [a for a, _ in dims]
    k = [k for _, k in dims]
    total = 0j
    for (x1, x2, x3), c in terms.items():
        if (np.dot(x1, a) % p == 0 and np.dot(x2, a) % p == 0
                and np.dot(x3, k) % (p - 1) == 0):
            total += c
    return complex(total)


def atom_keys(p: int, dims, R: int) -> list:
    """Generalised-interval atom key of every x, by floating-point floor.

    The sqrt2 offset keeps every orbit coordinate at least 1/(3 R den^2)
    away from an interval endpoint, far above double rounding at these p.
    """
    th1, th2, v = orbit(p, dims)

    def index(num, den):
        return (np.floor(R * (num / den - SQRT2)).astype(np.int64)) % R

    t, u, w = index(th1, p), index(th2, p), index(v, p - 1)
    return [(tuple(int(c) for c in t[x]), tuple(int(c) for c in u[x]),
             tuple(int(c) for c in w[x])) for x in range(p)]


def project(keys: list, f) -> np.ndarray:
    """Conditional expectation of f onto the partition given by per-x keys."""
    f = np.asarray(f, dtype=np.complex128)
    groups: dict = {}
    for x, key in enumerate(keys):
        groups.setdefault(key, []).append(x)
    out = np.empty_like(f)
    for xs in groups.values():
        out[xs] = np.mean(f[xs])
    return out


# -- searches and Ramsey counting ------------------------------------------------

def interval_violations(coloring, distinct: bool) -> int:
    """Monochromatic {x, y, x+y, xy} patterns inside {1..N}."""
    N = len(coloring)
    col = [None] + list(coloring)
    bad = 0
    for x in range(1, N + 1):
        y0 = x + 1 if distinct else x
        if x + y0 > N or x * y0 > N:
            break
        for y in range(y0, N + 1):
            s, m = x + y, x * y
            if s > N or m > N:
                break
            if col[x] == col[y] == col[s] == col[m]:
                bad += 1
    return bad


def drc_conclusions(nu_x: dict, nu_y: dict, A: set, eta: Fraction, y_star):
    """Recompute, in exact rationals, what dependent random choice returns
    for the chosen witness y*: (alpha, X', nu_x(X'), bad pairs, bad mass in X'^2)."""
    alpha = sum(nu_x[x] * nu_y[y] for x, y in A)
    nbhd_y = {x: {y for xx, y in A if xx == x} for x in nu_x}
    threshold = eta * alpha * alpha / 2
    bad = {(x1, x2) for x1 in nu_x for x2 in nu_x
           if sum(nu_y[y] for y in nbhd_y[x1] & nbhd_y[x2]) <= threshold}
    x_prime = frozenset(x for x, y in A if y == y_star)
    measure = sum(nu_x[x] for x in x_prime)
    bad_inside = sum(nu_x[a] * nu_x[b] for a in x_prime for b in x_prime
                     if (a, b) in bad)
    return alpha, x_prime, measure, bad, bad_inside
