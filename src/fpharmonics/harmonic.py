"""Fourier analysis on F_p and the correlation norm hierarchy.

Signals are dense complex functions on F_p under the normalized measure
E_x = (1/p) * sum_x.  Four sup-correlation norms are provided:

  u2+  : sup over additive characters      max_r |f^(r)|
  u2x  : sup over multiplicative characters max_chi |<f, chi>|  (semi-norm:
         it vanishes on some nonzero signals, e.g. f(0) = -f(1) = 1)
  u3+  : sup over quadratic phases e_p(r x^2 + s x)
  QM   : sup over products (quadratic phase) * (multiplicative character)

They satisfy u2+ <= u3+ <= QM <= L1.  All four are exhaustive sups: u3+
transforms f conj(e_p(r x^2)) along x for each r, QM along the discrete-log
axis x = g^a.  A witness is the smallest index within relative 1e-12 of
the max, so exact ties never depend on rounding.

The additive and multiplicative spectra are plain arrays, indexed by the
frequency r and the character index k.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .field import MAX_GRID_PRIME, FieldCtx


@dataclass(frozen=True)
class Signal:
    """A function F_p -> C stored densely, indexed by x = 0..p-1."""

    ctx: FieldCtx
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.ctx.p,):
            raise ValueError(f"expected {self.ctx.p} values, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("signal values must be finite (no NaN or inf)")

    @property
    def p(self) -> int:
        return self.ctx.p

    # Lq norms under the normalized measure E_x.
    def lp_norm(self, q: float) -> float:
        return float(np.mean(np.abs(self.values) ** q) ** (1.0 / q))

    def linf_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def require_same_ctx(*signals: Signal) -> FieldCtx:
    ctx = signals[0].ctx
    for s in signals[1:]:
        if s.ctx.p != ctx.p:
            raise ValueError(f"field mismatch: p={ctx.p} vs p={s.ctx.p}")
    return ctx


def ones(ctx: FieldCtx) -> Signal:
    return Signal(ctx, np.ones(ctx.p, dtype=np.complex128))


def indicator(ctx: FieldCtx, subset) -> Signal:
    """1_S for S any iterable of integers (negative or numpy ones too),
    taken mod p; S may be empty.  A non-integer member is a ValueError."""
    items = list(subset)
    members = np.array(items)
    if members.ndim != 1 or members.dtype.kind not in "iu":  # empty, nested, bool, float or beyond int64
        try:
            members = np.array([operator.index(x) % ctx.p for x in items], dtype=np.int64)
        except TypeError as exc:
            raise ValueError(f"subset members must be integers: {exc}") from None
    vals = np.zeros(ctx.p, dtype=np.complex128)
    vals[members % ctx.p] = 1.0
    return Signal(ctx, vals)


def random_signal(ctx: FieldCtx, rng: np.random.Generator,
                  kind: str = "gaussian", unit_l2: bool = False) -> Signal:
    """Seeded random Signal: complex gaussian, 'signs' (+-1), or 'bounded' (|f|<=1)."""
    if kind == "gaussian":
        vals = rng.standard_normal(ctx.p) + 1j * rng.standard_normal(ctx.p)
    elif kind == "signs":
        vals = rng.choice([-1.0, 1.0], size=ctx.p).astype(np.complex128)
    elif kind == "bounded":
        mag = rng.uniform(0.0, 1.0, size=ctx.p)
        arg = rng.uniform(0.0, 2 * np.pi, size=ctx.p)
        vals = mag * np.exp(1j * arg)
    else:
        raise ValueError(f"unknown signal kind {kind!r}: expected one of "
                         "'gaussian', 'signs', 'bounded'")
    f = Signal(ctx, vals)
    if unit_l2:
        n2 = f.lp_norm(2)
        if n2 > 0:
            f = Signal(ctx, f.values / n2)
    return f


# -- transforms ------------------------------------------------------------

def add_transform(f: Signal) -> np.ndarray:
    """The additive spectrum f^(r) = E_x f(x) e_p(-r x), indexed by r =
    0..p-1.  np.fft matches this sign convention exactly."""
    return np.fft.fft(f.values) / f.p


def add_invert(ctx: FieldCtx, coeffs: np.ndarray) -> Signal:
    """f(x) = sum_r f^(r) e_p(r x), the inverse of add_transform."""
    return Signal(ctx, np.fft.ifft(coeffs) * ctx.p)


def mult_transform(f: Signal) -> np.ndarray:
    """The multiplicative spectrum <f, chi_k> = E_{x in F} f(x) conj(chi_k(x)),
    indexed by k = 0..p-2: the full-field average, with the x = 0 term
    taken as chi(0) = 1.

    With h[a] = f(g^a), <f, chi_k> = (f(0) + sum_a h[a] e(-ka/(p-1))) / p,
    and the sum over a is a length-(p-1) additive transform of h.
    """
    ctx = f.ctx
    return (f.values[0] + np.fft.fft(f.values[ctx.pow_g])) / ctx.p


def convolve(f: Signal, g: Signal) -> Signal:
    """f * g(y) = E_x f(x) g(y - x); satisfies (f*g)^ = f^ g^."""
    ctx = require_same_ctx(f, g)
    vals = np.fft.ifft(np.fft.fft(f.values) * np.fft.fft(g.values)) / ctx.p
    return Signal(ctx, vals)


# -- sup-correlation norms -------------------------------------------------

class NormResult(NamedTuple):
    value: float
    witness: tuple  # maximizer parameters, lexicographically smallest


def _first_near(mags: np.ndarray, top: float) -> int:
    """Smallest flat index of mags within relative 1e-12 of top (the tie rule)."""
    return int(np.argmax(mags >= top * (1 - 1e-12)))


def _sup(mags: np.ndarray) -> NormResult:
    """max of mags, witnessed by its first near-max index."""
    top = float(mags.max())
    return NormResult(top, tuple(int(i) for i in
                                 np.unravel_index(_first_near(mags, top), mags.shape)))


def _require_grid(p: int) -> None:
    if p > MAX_GRID_PRIME:  # checked before any p x p table is built
        raise ValueError(f"p = {p} is too large for p x p tables "
                         f"(field.MAX_GRID_PRIME = {MAX_GRID_PRIME})")


def _quad_demodulated(f: Signal) -> np.ndarray:
    """Matrix [r, x] of f(x) conj(e_p(r x^2)), all r = 0..p-1 at once."""
    p = f.p
    _require_grid(p)
    x = np.arange(p, dtype=np.int64)
    return f.values * f.ctx.roots_p[np.multiply.outer(-x, x * x % p) % p]


def difference_spectrum(v: np.ndarray) -> np.ndarray:
    """Matrix [w, s] of |(Delta_w v)^(s)|^2 for a length-p array v, where
    Delta_w v(x) = v(x+w) conj(v(x)): all p differences in one batched
    transform."""
    p = len(v)
    _require_grid(p)
    shifted = np.lib.stride_tricks.sliding_window_view(np.concatenate((v, v[:-1])), p)
    return np.abs(np.fft.fft(shifted * np.conj(v), axis=1) / p) ** 2


def quad_phase_inner_products(f: Signal) -> np.ndarray:
    """Matrix [r, s] of <f, e_p(r x^2 + s x)>: row r is the additive
    transform of f conj(e_p(r x^2)), all rows in one batched transform."""
    return np.fft.fft(_quad_demodulated(f), axis=1) / f.p


def norm_u2_plus(f: Signal) -> NormResult:
    """max_r |f^(r)|; witness (r,)."""
    return _sup(np.abs(add_transform(f)))


def norm_u2_times(f: Signal) -> NormResult:
    """max_k |<f, chi_k>|; witness (k,).  A semi-norm (see module docstring)."""
    return _sup(np.abs(mult_transform(f)))


def norm_u3_plus(f: Signal) -> NormResult:
    """max over quadratic phases e_p(r x^2 + s x) of |<f, phi>|; witness (r, s)."""
    return _sup(np.abs(quad_phase_inner_products(f)))


def norm_qm(f: Signal) -> NormResult:
    """max over phi*chi, phi in Q(F), chi multiplicative; witness (r, s, k).

    With q = f conj(e_p(r x^2)) and x = g^a, p <f, e_p(r x^2 + s x) chi_k>
    = q(0) + sum_a e_p(-s g^a) q(g^a) e(-ka/(p-1)): one length-(p-1)
    transform per s.  One pass keeps each r's max; only the winning r is
    transformed again to find (s, k).  Every row reuses one set of (p, p-1)
    buffers, allocated once per call.
    """
    ctx, p = f.ctx, f.p
    rows = _quad_demodulated(f)  # first, so an oversized p fails before E
    E = ctx.roots_p[np.multiply.outer(-np.arange(p), ctx.pow_g) % p]
    y, Y, mags = np.empty_like(E), np.empty_like(E), np.empty(E.shape)

    def row_mags(q):  # p |<f, phi chi>| as a matrix [s, k]
        np.multiply(E, q[ctx.pow_g], out=y)
        y[:, 0] += q[0]  # x = 0: one term, added to every k
        return np.abs(np.fft.fft(y, axis=1, out=Y), out=mags)

    top, (r,) = _sup(np.array([row_mags(q).max() for q in rows]))
    s, k = divmod(_first_near(row_mags(rows[r]), top), p - 1)
    return NormResult(top / p, (r, s, k))


def inner_product(f: Signal, g: Signal) -> complex:
    """<f, g> = E_x f(x) conj(g(x))."""
    require_same_ctx(f, g)
    return complex(np.mean(f.values * np.conj(g.values)))


# -- JSON interchange ------------------------------------------------------

def signal_load(path, ctx: FieldCtx) -> Signal:
    """The Signal in a JSON file {"p": p, "values": [[re, im], ...]}.

    ValueError unless p is an exact int equal to ctx.p (no bool or float
    truncated to one) and every value is a pair of real numbers.
    """
    with open(path) as fh:
        obj = json.load(fh)
    obj = obj if isinstance(obj, dict) else {}
    p, vals = obj.get("p"), obj.get("values")
    if type(p) is not int or p != ctx.p:
        raise ValueError(f'a signal file needs "p": the integer {ctx.p}, got {p!r}')
    if not (isinstance(vals, list) and all(
            isinstance(v, list) and len(v) == 2
            and all(type(c) in (int, float) for c in v) for v in vals)):
        raise ValueError('a signal file needs "values": a list of [re, im] '
                         'pairs of real numbers')
    return Signal(ctx, np.array([complex(re, im) for re, im in vals]))
