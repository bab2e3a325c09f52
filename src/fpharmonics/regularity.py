"""Partitions, projections, decompositions, and the energy-increment loop.

Generalised intervals: for R a power of two, the circle R/Z splits into R
half-open intervals [t/R + sqrt2, (t+1)/R + sqrt2) mod 1.  An orbit
coordinate num/den (0 <= num < den) lies in interval t = floor(R num/den
- R sqrt2) mod R.  R den sqrt2 is irrational, so with K = isqrt(2 R^2
den^2) = floor(R den sqrt2) the numerator R num - R den sqrt2 lies strictly
between R num - K - 1 and R num - K, and t = (R num - K - 1) // den mod R:
exact int64 array arithmetic, and no coordinate ever sits on an endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .counting import AUDIT_CONSTANTS, TOL, MarginReport
from .field import FieldCtx, quad_phase_values
from .harmonic import (NormResult, Signal, inner_product, norm_qm, norm_u3_plus,
                       quad_phase_inner_products)
from .qm import QMSystem, TrigPoly, orbit_arrays, compose_signal

MAX_R = 1 << 10


def _check_scale(R: int):
    """The scales of atoms and smooth boxes: powers of two up to MAX_R."""
    if R < 1 or (R & (R - 1)) != 0 or R > MAX_R:
        raise ValueError(f"R must be a power of two <= {MAX_R}, got {R}")


def _interval_codes(nums: np.ndarray, den: int, R: int) -> np.ndarray:
    """floor(R*(num/den - sqrt2)) mod R for each 0 <= num < den, exactly
    (see the module docstring)."""
    K = math.isqrt(2 * (R * den) ** 2)
    return (R * nums - (K + 1)) // den % R


@dataclass(frozen=True)
class PartitionAtoms:
    """Atoms of F_p under the generalised-interval partition of G^d at scale R.

    Atoms are numbered in order of first occurrence along x = 0..p-1:
    labels[x] is the number of x's atom, and codes[j] the interval codes
    (t.., u.., v..) of atom j.  Both follow from (psi, R), so equality
    compares only those."""

    psi: QMSystem
    R: int
    labels: np.ndarray = field(compare=False)
    codes: np.ndarray = field(compare=False)

    @property
    def n_atoms(self) -> int:
        return len(self.codes)

    @cached_property
    def keys(self) -> tuple:
        """Per-x atom key ((t..), (u..), (v..)) of Python ints."""
        d = self.psi.d
        blocks = (self.codes[:, i * d:(i + 1) * d].tolist() for i in range(3))
        atom_keys = list(zip(*(map(tuple, b) for b in blocks)))
        return tuple(map(atom_keys.__getitem__, self.labels.tolist()))

    @cached_property
    def groups(self) -> dict:
        """key -> ascending np.ndarray of the atom's x values, atoms in
        first-occurrence order."""
        xs = np.argsort(self.labels, kind="stable")
        atoms = np.split(xs, np.cumsum(np.bincount(self.labels))[:-1])
        return {self.keys[int(a[0])]: a for a in atoms}


def build_atoms(psi: QMSystem, R: int) -> PartitionAtoms:
    """Assign every x in F_p to its generalised-interval atom: the 3d
    interval codes of Psi(x) form one integer row per x, and equal rows
    are one atom."""
    _check_scale(R)
    p = psi.ctx.p
    th1, th2, v = orbit_arrays(psi)
    codes = np.concatenate([_interval_codes(th1, p, R), _interval_codes(th2, p, R),
                            _interval_codes(v, p - 1, R)], axis=1)
    # each (contiguous) code row as one opaque item, so np.unique sorts p
    # items instead of lexsorting 3d columns; a 0-byte item serves d = 0
    rows = np.ndarray(p, dtype=(np.void, codes.itemsize * codes.shape[1]), buffer=codes)
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return PartitionAtoms(psi, R, rank[inverse], codes[first[order]])


def project(atoms: PartitionAtoms, f: Signal) -> Signal:
    """Conditional expectation onto the atoms (Pi_R^Psi): each atom's mean
    of f, from two bincount sums over the labels."""
    if f.ctx.p != atoms.psi.ctx.p:
        raise ValueError("field mismatch")
    labels = atoms.labels
    sums = (np.bincount(labels, weights=f.values.real)
            + 1j * np.bincount(labels, weights=f.values.imag))
    return Signal(f.ctx, (sums / np.bincount(labels))[labels])


def refines(fine: PartitionAtoms, coarse: PartitionAtoms) -> bool:
    """Every atom of `fine` lies inside a single atom of `coarse`: each fine
    label maps to one coarse label."""
    to_coarse = np.empty(fine.n_atoms, dtype=np.int64)
    to_coarse[fine.labels] = coarse.labels
    return bool(np.array_equal(to_coarse[fine.labels], coarse.labels))


# -- quadratic decomposition --------------------------------------------------

@dataclass(frozen=True)
class QuadDecomposition:
    """f = sum_phi lambda_phi phi + g with phi ranging over retained
    quadratic phases; all lemma conclusions asserted at construction."""

    eps: float
    lambdas: dict          # (r, s) -> complex
    residual: Signal
    residual_u3: float

    def coefficient_mass(self) -> float:
        return float(sum(abs(c) for c in self.lambdas.values()))

    def to_json(self) -> dict:
        return {"eps": self.eps,
                "terms": [{"r": r, "s": s, "lambda": [c.real, c.imag]}
                          for (r, s), c in sorted(self.lambdas.items())],
                "residual_u3": self.residual_u3}


def quad_decompose(f: Signal, eps: float) -> QuadDecomposition:
    """Keep lambda_phi = <f, phi> exactly when |<f, phi>| >= eps/2.

    Requires ||f||_2 <= 1.  The lemma's hypothesis eps >= 4 p^{-1/8} is
    not required: at desk-scale p that threshold exceeds 1, so instead the
    four conclusions (residual u3+ <= eps, energy <= 3, mass <= 4/eps,
    support <= 8/eps^2) are checked and asserted on every accepted input.
    """
    p = f.p
    if not 0 < eps < math.inf:
        raise ValueError(f"eps={eps} must be positive and finite")
    if f.lp_norm(2) > 1 + TOL:
        raise ValueError("||f||_2 > 1")
    inner = quad_phase_inner_products(f)
    keep = np.abs(inner) >= eps / 2
    lambdas = {(int(r), int(s)): complex(inner[r, s])
               for r, s in zip(*np.nonzero(keep))}
    structured = np.zeros(p, dtype=np.complex128)
    for (r, s), lam in lambdas.items():
        structured += lam * quad_phase_values(f.ctx, r, s)
    residual = Signal(f.ctx, f.values - structured)
    res_u3 = norm_u3_plus(residual).value

    MarginReport.check("residual u3+ <= eps", res_u3, eps)
    MarginReport.check("structured energy <= 3", Signal(f.ctx, structured).lp_norm(2) ** 2, 3)
    MarginReport.check("coefficient mass <= 4/eps", sum(abs(c) for c in lambdas.values()),
                       4 / eps)
    MarginReport.check("support <= 8/eps^2", len(lambdas), 8 / eps**2)
    return QuadDecomposition(eps=eps, lambdas=lambdas, residual=residual,
                             residual_u3=res_u3)


def decomposable_unit_signal(ctx: FieldCtx, rng: np.random.Generator) -> Signal:
    """A random unit-L2 signal on which the decomposition is nonempty and
    its conclusions attainable: one dominant quadratic phase plus mild flat
    noise.  At desk scale the lemma's hypothesis eps >= 4 p^{-1/8} can
    never hold for eps <= 1, and generic unit-L2 noise retains hundreds of
    phases (coefficient tails at scale 1/sqrt(p) cross the eps/2 line), so
    the property suite draws from this family instead."""
    p = ctx.p
    r, s = rng.integers(0, p, 2)
    c = 0.85 * np.exp(2j * np.pi * rng.uniform())
    vals = c * quad_phase_values(ctx, r, s)
    nz = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    nz /= np.sqrt(np.mean(np.abs(nz) ** 2))
    vals = vals + 0.15 * nz
    f = Signal(ctx, vals)
    return Signal(ctx, vals / f.lp_norm(2))


# -- correlation finder and the KvN loop --------------------------------------

def correlation_system(ctx: FieldCtx, r: int, s: int, k: int) -> tuple:
    """The dimension-2 system and structured function recovering the QM
    maximizer e_p(r x^2 + s x) chi_k(x): Phi has dims [(r, k), (s/2, k)]
    and F(th1, th1', z1; th2, th2', z2) = e(th1 + th2') z1, so that
    F o Phi = e_p(r x^2 + 2*(s/2)*x) psi(x)."""
    p = ctx.p
    a2 = s * pow(2, p - 2, p) % p
    phi = QMSystem(ctx, [(r, k), (a2, k)])
    F = TrigPoly(2, {((1, 0), (0, 1), (1, 0)): 1.0})
    return phi, F


def _correlating_projection(f: Signal, qm: NormResult, delta: float, R: int):
    """From f's QM norm and maximizer, build the 2-dimensional system Phi
    and g = F o Phi, and certify |<f, Pi_R^Phi g>| >= delta - c ||f||_1 / R
    with c = 6*pi, derived: |F(w) - F(v)| <= 2*pi*(3/R) for F = e(theta1 +
    theta2') z1 and w, v in one atom.  The floor can fail at any p, but
    only where it is positive, so not at the CLI's R = 32, delta = 0.3.
    Requires ||f||_QM >= delta.  Returns (Phi, g, witness, atoms)."""
    if qm.value < delta:
        raise ValueError(f"||f||_QM = {qm.value:.4f} < delta = {delta}")
    r, s, k = qm.witness
    phi, F = correlation_system(f.ctx, r, s, k)
    g = compose_signal(phi, F)
    atoms = build_atoms(phi, R)
    pg = project(atoms, g)
    witness = abs(inner_product(f, pg))
    c = 6 * math.pi * max(1.0, f.lp_norm(1))
    MarginReport.check("witness above the certified floor", delta - c / R, witness)
    return phi, g, witness, atoms


@dataclass(frozen=True)
class KvnResult:
    psi: QMSystem
    iterations: int
    energy_trace: tuple
    atoms: PartitionAtoms


def kvn_energy_increment(fs: Sequence[Signal], psi0: QMSystem, delta: float,
                         R: int) -> KvnResult:
    """Extend psi0 until every residual f_i - Pi_R^Psi f_i has QM norm
    <= delta.  Energy E_j = sum_i ||Pi_j f_i||_2^2 increases by the full
    Pythagoras step each iteration (asserted), so the loop stops within
    ceil(kvn_budget_c * len(fs) / delta^2) iterations, or fails the check
    "iterations used <= budget" with the energy trace.

    Each residual's QM norm is computed once per iteration, and not at all
    when ||h||_1 <= delta (then ||h||_QM <= ||h||_1, as |phi chi| = 1, so h
    cannot be the worst residual while the loop goes on); the worst one's
    norm also yields the correlating system.  An iteration that leaves the
    partition unchanged would repeat forever, so it raises ValueError: R is
    too coarse to resolve the correlating system at this delta.
    """
    if not fs:
        raise ValueError("need at least one signal")
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"need a finite delta > 0, got {delta}")
    for f in fs:
        if f.linf_norm() > 1 + TOL:
            raise ValueError("||f_i||_inf > 1")
    try:  # delta**2, or the budget over it, may underflow to 0 or overflow
        max_iter = math.ceil(AUDIT_CONSTANTS["kvn_budget_c"] * len(fs) / delta**2)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"delta = {delta} gives no finite iteration budget") from None
    psi = psi0
    atoms = build_atoms(psi, R)
    projections = [project(atoms, f) for f in fs]
    energy = sum(g.lp_norm(2) ** 2 for g in projections)
    trace = [energy]
    for it in range(max_iter + 1):
        residuals = [Signal(f.ctx, f.values - g.values)
                     for f, g in zip(fs, projections)]
        # TOL to spare, so rounding in either norm cannot skip a worst residual
        qms = [norm_qm(h) if h.lp_norm(1) > delta - TOL else None for h in residuals]
        values = [-math.inf if qm is None else qm.value for qm in qms]
        worst = int(np.argmax(values))
        if values[worst] <= delta:
            return KvnResult(psi, it, tuple(trace), atoms)
        MarginReport.check("iterations used <= budget", it + 1, max_iter, energy_trace=trace)
        phi = _correlating_projection(residuals[worst], qms[worst], delta, R)[0]
        psi = psi.extended(phi.dims)
        new_atoms = build_atoms(psi, R)
        # psi keeps every old coordinate, so equal atom counts mean equal partitions
        MarginReport.check("new atoms refine the old", int(not refines(new_atoms, atoms)), 0)
        if new_atoms.n_atoms == atoms.n_atoms:
            raise ValueError(f"R = {R} leaves the partition unchanged at iteration "
                             f"{it + 1}, so no residual QM norm can fall to "
                             f"delta = {delta}; use a larger R")
        atoms = new_atoms
        new_projections = [project(atoms, f) for f in fs]
        for g_old, g_new, f in zip(projections, new_projections, fs):
            step = Signal(f.ctx, g_new.values - g_old.values).lp_norm(2) ** 2
            gain = g_new.lp_norm(2) ** 2 - g_old.lp_norm(2) ** 2
            MarginReport.check("Pythagoras identity", abs(gain - step), 0.0,
                               gain=gain, step=step)
        projections = new_projections
        energy = sum(g.lp_norm(2) ** 2 for g in projections)
        MarginReport.check("energy increase", trace[-1], energy)
        trace.append(energy)


# -- smoothed box approximants -------------------------------------------------

def _fejer_power(n: int, k: int) -> tuple:
    """(coefficients over j = -k(n-1)..k(n-1), c) of K_{n,k} = |D_n|^{2k}/c,
    D_n(theta) = sum_{0<=j<n} e(j theta), c = int |D_n|^{2k}: the
    autocorrelation of the coefficients of P^k, P = 1 + x + ... + x^{n-1},
    over its central one.  All sums are positive, and (P/n)^k cannot overflow."""
    a = np.ones(1)
    for _ in range(k):
        a = np.convolve(a, np.full(n, 1.0 / n))
    auto = np.convolve(a, a[::-1])
    centre = auto[len(a) - 1]
    return auto / centre, float(centre) * float(n) ** (2 * k)


@dataclass(frozen=True)
class SmoothInterval:
    """The smoothed indicator of [0, 1/R) that every box coordinate at
    scale R shifts: G = (1_J * K_{n,k})/(1 - tau0), J = [-gamma, 1/R + gamma],
    with K_{n,k} a Fejer power and tau0 the per-factor allowance.  A coordinate
    num/m whose interval starts at lo takes G(num/m - lo), from on_grid(m, lo)."""

    coeffs: np.ndarray  # over j = -deg..deg
    tail: float         # analytic bound on 1 - int_{|u|<=gamma} K_{n,k}

    @property
    def deg(self) -> int:
        return len(self.coeffs) // 2

    def on_grid(self, m: int, lo: float) -> np.ndarray:
        """G(n/m - lo) for n = 0..m-1: c_j e(-j lo) folded mod m, one inverse FFT."""
        js = np.arange(-self.deg, self.deg + 1)
        folded = np.zeros(m, dtype=np.complex128)
        np.add.at(folded, js % m, self.coeffs * np.exp(-2j * np.pi * lo * js))
        return np.real(np.fft.ifft(folded)) * m


def _shared_interval(d: int, R: int, eps: float) -> Optional[SmoothInterval]:
    """The one G of every box at (d, R, eps), None when d = 0.

    Each of the 3d factors may lose tau0 = eps/(10 R^{3d})/(24 d) of kernel
    mass outside [-gamma, gamma], gamma = 1/(4R); K_{n,k} loses at most
    (2 gamma)^{1-2k}/((2k - 1) c_{n,k}), as |sin pi u| >= 2|u| on [-1/2,
    1/2].  c_{n,k} >= (2n/pi)^{2k}/n gives the least n with that bound <=
    tau0 in closed form; k walks up from Jackson's 2 (k = 1 never wins at
    tau0 <= 1/240) while the degree k(n - 1) falls.  G >= 1 on I holds with
    margin tau0 - bound, so tau0 must exceed float64's resolution of G,
    whose l1 mass is at most |J| + (2/pi)(1 + ln deg)."""
    _check_scale(R)
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if d == 0:
        return None
    try:  # R^{3d} may pass float64's range, or tau0 underflow to 0
        tau0 = eps / (10 * R ** (3 * d)) / (8 * 3 * d)
    except OverflowError:
        tau0 = 0.0
    if tau0 == 0.0:
        raise ValueError(f"eps = {eps} at d = {d}, R = {R} leaves tau0 under float64's range")
    gamma = 1.0 / (4 * R)
    width = 1.0 / R + 2 * gamma  # of J
    def least_n(k):
        return math.ceil(2 * R * (math.pi / 2) ** (2 * k / (2 * k - 1))
                         / ((2 * k - 1) * tau0) ** (1 / (2 * k - 1)))
    k, n = 2, least_n(2)
    while (k + 1) * (least_n(k + 1) - 1) < k * (n - 1):
        k, n = k + 1, least_n(k + 1)
    deg = k * (n - 1)
    if tau0 <= np.finfo(float).eps * (width + 2 / math.pi * (1 + math.log(deg))):
        raise ValueError(f"eps = {eps} at d = {d}, R = {R} leaves a tail allowance "
                         f"tau0 = {tau0:.3g} below float64 resolution")
    kc, c = _fejer_power(n, k)
    js = np.arange(-deg, deg + 1)
    bound = (2 * R) ** (2 * k - 1) / ((2 * k - 1) * c)
    # exact trig-poly integral of K outside [-gamma, gamma]
    tail = 1.0 - 2 * gamma * float(np.sum(kc * np.sinc(2 * gamma * js)))
    MarginReport.check("analytic tail over tau0", int(bound > tau0), 0, bound=bound, tau0=tau0)
    MarginReport.check("numerical tail over tau0", int(tail > tau0), 0, tail=tail, tau0=tau0)
    # 1_J hat: the integral of e(-j theta) over J, centred at 1/(2R)
    ind_hat = width * np.sinc(width * js) * np.exp(-1j * np.pi * js / R)
    return SmoothInterval(coeffs=ind_hat * kc / (1 - tau0), tail=bound)


@dataclass(frozen=True)
class SmoothBox:
    """Product over the 3d circle coordinates of shifts of one smoothed
    interval G = (1_J * K_{n,k})/(1 - tau0); F >= 1 on the generalised
    interval I_{R;t,u,v}, F small off the gamma-enlargement, and 0 <= F <=
    1 + eps/(10 R^{3d}).  Kept in factored form and composed on Psi's integer
    grids: no tensor-product coefficient or float orbit coordinate is ever formed."""

    d: int
    R: int
    key: tuple           # (t, u, v) interval indices
    eps: float
    interval: Optional[SmoothInterval]  # the shared G; None when d = 0

    @property
    def los(self) -> tuple:
        """Start t/R + sqrt2 mod 1 of each coordinate's interval, ordered
        th1_1..th1_d, th2_*, v_*."""
        sqrt2_frac = math.sqrt(2.0) - 1.0
        return tuple((idx / self.R + sqrt2_frac) % 1.0 for idx in sum(self.key, ()))

    def compose_signal(self, psi: QMSystem) -> Signal:
        """F o Psi: each coordinate's G on the grid of its denominator, p or p - 1."""
        p = psi.ctx.p
        nums = np.concatenate(orbit_arrays(psi), axis=1)
        dens = [p] * (2 * self.d) + [p - 1] * self.d
        out = np.ones(p)
        for j, (den, lo) in enumerate(zip(dens, self.los)):
            out *= self.interval.on_grid(den, lo)[nums[:, j]]
        return Signal(psi.ctx, out.astype(np.complex128))

    @property
    def ceiling(self) -> float:
        return 1.0 + self.eps / (10 * self.R ** (3 * self.d))

    def trig_norm(self) -> float:
        if self.d == 0:
            return 1.0
        G = self.interval
        return float(max(self.d * G.deg, np.sum(np.abs(G.coeffs)) ** (3 * self.d)))


def smooth_box_approx(d: int, R: int, t: Sequence[int], u: Sequence[int],
                      v: Sequence[int], eps: float) -> SmoothBox:
    """Smoothed indicator of the generalised interval I_{R;t,u,v}, for R a
    power of two <= MAX_R, eps in (0, 1] and t, u, v each d integers in [0, R).

    Explicit construction: each circle coordinate gets the shared
    G = (1_J * K_{n,k})/(1 - tau0) shifted to its interval, with J = [0, 1/R)
    enlarged by gamma = 1/(4R) and K_{n,k} a Fejer power, so 0 <= F <= the
    ceiling, F >= 1 on I, and F <= eps/(10 R^{3d}) at distance > 2*gamma
    from I.  Rejects (d, R, eps) whose tau0 float64 cannot resolve.
    """
    G = _shared_interval(d, R, eps)
    key = (tuple(t), tuple(u), tuple(v))
    for name, idx in zip("tuv", key):
        if len(idx) != d or not all(isinstance(i, (int, np.integer)) and 0 <= i < R
                                    for i in idx):
            raise ValueError(f"{name} must hold d = {d} integers in [0, {R}), got {idx}")
    return SmoothBox(d, R, key, eps, G)


def smooth_majorant(atoms: PartitionAtoms, f: Signal, eps: float):
    """List of (coefficient, SmoothBox) whose composed sum dominates
    Pi_R^Psi f pointwise, for f real and >= 0 (one box per nonempty atom,
    all sharing one smoothed interval)."""
    if not np.all((f.values.imag == 0) & (f.values.real >= 0)):
        raise ValueError("f must be real and >= 0 for a majorant")
    G = _shared_interval(atoms.psi.d, atoms.R, eps)
    pf = project(atoms, f)
    out = []
    for key, xs in atoms.groups.items():
        lam = float(np.real(pf.values[int(xs[0])]))
        if lam != 0.0:
            out.append((lam, SmoothBox(atoms.psi.d, atoms.R, key, eps, G)))
    return out
