"""Exact arithmetic over the prime field F_p and character evaluation.

Characters follow two conventions used throughout the package:
  * additive: e_p(x) = exp(2*pi*i*x/p),
  * multiplicative: chi_k(g^a) = e(k*a/(p-1)) for the fixed primitive
    root g, extended to the whole field by chi(0) = 1: dlog 0 = 2(p-1) is
    0 mod p-1, and it lies past every log of F*, so that the Zech
    logarithm can name 0 as a row of its own.

All angle bookkeeping is integer arithmetic mod p or mod p-1; complex
values only appear through precomputed root-of-unity tables, so "is this
character trivial" questions are exact.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

MAX_TABLE_PRIME = 100_003  # largest p for which full tables are supported
MAX_GRID_PRIME = 2048      # largest p for which p x p grids and tables are built


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_primitive_root(g: int, p: int, factors: list[int]) -> bool:
    return all(pow(g, (p - 1) // q, p) != 1 for q in factors)


@dataclass(frozen=True)
class FieldCtx:
    """Immutable context for F_p: primitive root, log, power and Zech tables,
    root tables.

    zech is the Zech logarithm: g^zech[c] = 1 + g^c, so that x + x t =
    g^(a + zech[c]) for x = g^a, t = g^c.  At t = -1 the sum is 0, and
    zech[(p-1)/2] = dlog 0 = 2(p-1).
    """

    p: int
    g: int
    dlog: np.ndarray      # length p; dlog[x] = a with g^a = x; dlog[0] = 2(p-1)
    pow_g: np.ndarray     # length p-1; pow_g[a] = g^a mod p
    zech: np.ndarray      # length p-1; zech[c] = dlog(1 + g^c)
    roots_p: np.ndarray   # exp(2*pi*i*j/p), j = 0..p-1
    roots_pm1: np.ndarray # exp(2*pi*i*j/(p-1)), j = 0..p-2
    _grids: dict = field(default_factory=dict, compare=False, repr=False)

    # -- lazy p x p index grids, kept only for the benchmark harness -------
    def grid(self, kind: str) -> np.ndarray:
        """Index grid over (x, y): kind 'add' gives (x+y) mod p, 'mul' x*y mod p.

        No fpharmonics code calls this: the counting kernels walk the pair
        table in blocks.  It stays only because perfbench builds, wraps
        and times it.
        """
        if self.p > MAX_GRID_PRIME:
            raise ValueError(f"p={self.p} too large for dense p x p grids")
        if kind not in self._grids:
            idx = np.arange(self.p, dtype=np.int64)
            if kind == "add":
                self._grids[kind] = (idx[:, None] + idx[None, :]) % self.p
            elif kind == "mul":
                self._grids[kind] = (idx[:, None] * idx[None, :]) % self.p
            else:
                raise ValueError(f"unknown grid kind {kind!r}: expected one of 'add', 'mul'")
        return self._grids[kind]


def new_field(p: int) -> FieldCtx:
    """Build a FieldCtx for prime p, 3 <= p <= MAX_TABLE_PRIME.

    The primitive root is the smallest positive one, found by trial
    against the prime factors of p-1 (deterministic across runs).
    """
    if not isinstance(p, (int, np.integer)):
        raise TypeError(f"p must be an integer, got {type(p).__name__}")
    p = int(p)
    if p < 3:
        raise ValueError(f"p={p} too small (need p >= 3)")
    if p > MAX_TABLE_PRIME:
        raise ValueError(f"p={p} exceeds table bound {MAX_TABLE_PRIME}")
    w = prime_factors(p)[0]
    if w != p:
        raise ValueError(f"p={p} is not prime: divisible by {w}")

    factors = prime_factors(p - 1)
    g = next(c for c in range(2, p) if is_primitive_root(c, p, factors))

    # g^(i s + j) = g^(i s) g^j: s = ceil(sqrt(p-1)) seed powers g^j, then one
    # int64 product mod p (below p^2 <= 1.1e10) per block i
    s = math.isqrt(p - 2) + 1

    def powers(base: int) -> list:  # base^0 .. base^(s-1) mod p
        return list(itertools.accumulate([base] * (s - 1), lambda acc, b: acc * b % p,
                                         initial=1))

    pow_g = (np.multiply.outer(powers(pow(g, s, p)), powers(g)) % p).ravel()[:p - 1]
    dlog = np.full(p, 2 * (p - 1), dtype=np.int64)
    dlog[pow_g] = np.arange(p - 1)
    zech = dlog[(pow_g + 1) % p]
    roots_p = np.exp(2j * np.pi * np.arange(p) / p)
    roots_pm1 = np.exp(2j * np.pi * np.arange(p - 1) / (p - 1))
    return FieldCtx(p=p, g=g, dlog=dlog, pow_g=pow_g, zech=zech,
                    roots_p=roots_p, roots_pm1=roots_pm1)


@lru_cache(maxsize=64)
def _cached_field(p: int) -> FieldCtx:
    return new_field(p)


def cached_field(p: int) -> FieldCtx:
    """new_field(p) through a 64-entry LRU cache keyed by operator.index(p),
    so that 13 and np.int64(13) share one entry."""
    return _cached_field(operator.index(p))


cached_field.cache_info = _cached_field.cache_info
cached_field.cache_clear = _cached_field.cache_clear


@dataclass(frozen=True)
class MultChar:
    """Multiplicative character chi_k with chi(g^a) = e(ka/(p-1)), chi(0) = 1."""

    k: int

    def is_principal(self) -> bool:
        return self.k == 0


# -- vectorized whole-field evaluations -----------------------------------

def mult_char_values(ctx: FieldCtx, chi: MultChar) -> np.ndarray:
    """Array of chi(x) for x = 0..p-1 (chi(0) = 1)."""
    return ctx.roots_pm1[(chi.k % (ctx.p - 1)) * ctx.dlog % (ctx.p - 1)]


def quad_phase_values(ctx: FieldCtx, r: int, s: int) -> np.ndarray:
    """Array of e_p(r*x^2 + s*x) for x = 0..p-1; r = 0 gives the additive
    character e_p(s*x)."""
    x = np.arange(ctx.p, dtype=np.int64)
    return ctx.roots_p[((r % ctx.p) * x * x + (s % ctx.p) * x) % ctx.p]
