"""Partitions, projections, decompositions, and the energy-increment loop.

Generalised intervals: for R a power of two, the circle R/Z splits into R
half-open intervals [t/R + sqrt2, (t+1)/R + sqrt2) mod 1.  The sqrt2
offset guarantees no orbit coordinate (a rational with denominator at
most p <= 1e5) ever hits an endpoint:

    sqrt2 endpoint certificate: the distance from R*theta - R*sqrt2 to the
    nearest integer is at least ||R*den*sqrt2|| / den >= 1/(3*R*den^2)
    >= 1/(3 * 2^10 * 10^10) > 3e-14, using ||m sqrt2|| >= 1/(3m) (verified
    exhaustively by check_sqrt2_gap).  We compute with sqrt2 to 96
    fractional bits, so the fixed-point error R * 2^-96 < 1e-26 can never
    flip a floor; interval membership is therefore exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .calibration import AUDIT_CONSTANTS
from .field import FieldCtx
from .harmonic import (Signal, inner_product, norm_qm, norm_u3_plus,
                       quad_phase_inner_products)
from .qm import QMSystem, TrigPoly, orbit_arrays, compose_signal

SQRT2_BITS = 96
SQRT2_DEN = 1 << SQRT2_BITS
SQRT2_NUM = math.isqrt(2 << (2 * SQRT2_BITS))  # floor(sqrt2 * 2^96)
MAX_R = 1 << 10


def interval_index(num: int, den: int, R: int) -> int:
    """The t with num/den in [t/R + sqrt2, (t+1)/R + sqrt2) mod 1,
    i.e. t = floor(R*(num/den - sqrt2)) mod R, in exact integer arithmetic."""
    q = (R * num * SQRT2_DEN - R * SQRT2_NUM * den) // (den * SQRT2_DEN)
    return q % R


@dataclass(frozen=True)
class PartitionAtoms:
    """Atoms of F_p under the generalised-interval partition of G^d at scale R."""

    psi: QMSystem
    R: int
    keys: tuple                  # per-x atom key ((t..), (u..), (v..))
    groups: dict = field(compare=False)  # key -> np.ndarray of x values

    @property
    def n_atoms(self) -> int:
        return len(self.groups)


def build_atoms(psi: QMSystem, R: int) -> PartitionAtoms:
    """Assign every x in F_p to its generalised-interval atom."""
    if R < 1 or (R & (R - 1)) != 0 or R > MAX_R:
        raise ValueError(f"R must be a power of two <= {MAX_R}, got {R}")
    p = psi.ctx.p
    th1, th2, v = orbit_arrays(psi)
    keys = []
    for x in range(p):
        t = tuple(interval_index(int(th1[x, i]), p, R) for i in range(psi.d))
        u = tuple(interval_index(int(th2[x, i]), p, R) for i in range(psi.d))
        w = tuple(interval_index(int(v[x, i]), p - 1, R) for i in range(psi.d))
        keys.append((t, u, w))
    groups = {}
    for x, key in enumerate(keys):
        groups.setdefault(key, []).append(x)
    groups = {k: np.array(xs, dtype=np.int64) for k, xs in groups.items()}
    return PartitionAtoms(psi, R, tuple(keys), groups)


def project(atoms: PartitionAtoms, f: Signal) -> Signal:
    """Conditional expectation onto the atoms (Pi_R^Psi)."""
    if f.ctx.p != atoms.psi.ctx.p:
        raise ValueError("field mismatch")
    out = np.empty_like(f.values)
    for xs in atoms.groups.values():
        out[xs] = np.mean(f.values[xs])
    return Signal(f.ctx, out)


def refines(fine: PartitionAtoms, coarse: PartitionAtoms) -> bool:
    """Every atom of `fine` lies inside a single atom of `coarse`."""
    for xs in fine.groups.values():
        if len({coarse.keys[int(x)] for x in xs}) != 1:
            return False
    return True


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


def quad_decompose(f: Signal, eps: float, enforce_eps_bound: bool = False,
                   tol: float = 1e-9) -> QuadDecomposition:
    """Keep lambda_phi = <f, phi> exactly when |<f, phi>| >= eps/2.

    Requires ||f||_2 <= 1.  The lemma's hypothesis eps >= 4 p^{-1/8} is
    only enforced when enforce_eps_bound is set: at desk-scale p that
    threshold exceeds 1, yet the four conclusions (residual u3+ <= eps,
    energy <= 3, mass <= 4/eps, support <= 8/eps^2) are still checked and
    asserted on every accepted input.
    """
    p = f.p
    if f.lp_norm(2) > 1 + tol:
        raise ValueError("||f||_2 > 1")
    if enforce_eps_bound and eps < 4 * p ** (-1 / 8):
        raise ValueError(f"eps={eps} too small for p={p} (need >= 4 p^-1/8)")
    inner = quad_phase_inner_products(f)
    keep = np.abs(inner) >= eps / 2
    lambdas = {(int(r), int(s)): complex(inner[r, s])
               for r, s in zip(*np.nonzero(keep))}
    x = np.arange(p, dtype=np.int64)
    structured = np.zeros(p, dtype=np.complex128)
    for (r, s), lam in lambdas.items():
        structured += lam * f.ctx.roots_p[(r * x * x + s * x) % p]
    residual = Signal(f.ctx, f.values - structured)
    res_u3 = norm_u3_plus(residual).value

    if res_u3 > eps + tol:
        raise AssertionError(f"residual u3+ {res_u3} > eps {eps}")
    energy = Signal(f.ctx, structured).lp_norm(2) ** 2
    if energy > 3 + tol:
        raise AssertionError(f"structured energy {energy} > 3")
    mass = sum(abs(c) for c in lambdas.values())
    if mass > 4 / eps + tol:
        raise AssertionError(f"coefficient mass {mass} > 4/eps")
    if len(lambdas) > 8 / eps**2 + tol:
        raise AssertionError(f"support {len(lambdas)} > 8/eps^2")
    return QuadDecomposition(eps=eps, lambdas=lambdas, residual=residual,
                             residual_u3=res_u3)


def decomposable_unit_signal(ctx: FieldCtx, rng: np.random.Generator,
                             amp: float = 0.85, noise: float = 0.15) -> Signal:
    """A random unit-L2 signal on which the decomposition is nonempty and
    its conclusions attainable: one dominant quadratic phase plus mild flat
    noise.  At desk scale the lemma's hypothesis eps >= 4 p^{-1/8} can
    never hold for eps <= 1, and generic unit-L2 noise retains hundreds of
    phases (coefficient tails at scale 1/sqrt(p) cross the eps/2 line), so
    the property suite draws from this family instead."""
    p = ctx.p
    x = np.arange(p, dtype=np.int64)
    r, s = rng.integers(0, p, 2)
    c = amp * np.exp(2j * np.pi * rng.uniform())
    vals = c * ctx.roots_p[(r * x * x + s * x) % p]
    nz = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    nz /= np.sqrt(np.mean(np.abs(nz) ** 2))
    vals = vals + noise * nz
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


def find_correlating_projection(f: Signal, delta: float, R: int,
                                ratio_C: Optional[float] = None,
                                sup_bound: float = 1.0,
                                tol: float = 1e-9):
    """From the QM-norm maximizer of f, build the 2-dimensional system Phi
    and g = F o Phi, and certify |<f, Pi_R^Phi g>| >= delta - c ||f||_1 / R
    with c = 6*pi (the Lipschitz budget of F over one atom).

    Returns (Phi, g, witness, atoms).  ratio_C = None skips the R >= C/delta
    requirement (the KvN loop runs fixtures below that ratio).
    """
    if f.linf_norm() > sup_bound + tol:
        raise ValueError(f"||f||_inf > {sup_bound}")
    if ratio_C is None:
        ratio_C = AUDIT_CONSTANTS["corr_ratio_C"]
    if ratio_C > 0 and R < ratio_C / delta:
        raise ValueError(f"R={R} below required ratio {ratio_C}/delta")
    qm = norm_qm(f)
    if qm.value < delta:
        raise ValueError(f"||f||_QM = {qm.value:.4f} < delta = {delta}")
    r, s, k = qm.witness
    phi, F = correlation_system(f.ctx, r, s, k)
    g = compose_signal(phi, F)
    atoms = build_atoms(phi, R)
    pg = project(atoms, g)
    witness = abs(inner_product(f, pg))
    c = AUDIT_CONSTANTS["lipschitz_c"] * max(1.0, f.lp_norm(1))
    if witness < delta - c / R - tol:
        raise AssertionError(
            f"witness {witness:.4f} below certified floor {delta - c / R:.4f}")
    return phi, g, witness, atoms


@dataclass(frozen=True)
class KvnResult:
    psi: QMSystem
    iterations: int
    energy_trace: tuple
    atoms: PartitionAtoms


def kvn_energy_increment(fs: Sequence[Signal], psi0: QMSystem, delta: float,
                         R: int, budget_c: Optional[float] = None,
                         tol: float = 1e-9) -> KvnResult:
    """Extend psi0 until every residual f_i - Pi_R^Psi f_i has QM norm
    <= delta.  Energy E_j = sum_i ||Pi_j f_i||_2^2 increases by the full
    Pythagoras step each iteration (asserted), so the loop stops within
    ceil(budget_c * r / delta^2) iterations or reports the energy trace.
    """
    if not delta > 0:
        raise ValueError(f"need delta > 0, got {delta}")
    for f in fs:
        if f.linf_norm() > 1 + tol:
            raise ValueError("||f_i||_inf > 1")
    if budget_c is None:
        budget_c = AUDIT_CONSTANTS["kvn_budget_c"]
    r = len(fs)
    max_iter = math.ceil(budget_c * r / delta**2)
    psi = psi0
    atoms = build_atoms(psi, R)
    projections = [project(atoms, f) for f in fs]
    energy = sum(g.lp_norm(2) ** 2 for g in projections)
    trace = [energy]
    for it in range(max_iter + 1):
        residuals = [Signal(f.ctx, f.values - g.values)
                     for f, g in zip(fs, projections)]
        qms = [norm_qm(h).value for h in residuals]
        worst = int(np.argmax(qms))
        if qms[worst] <= delta:
            return KvnResult(psi, it, tuple(trace), atoms)
        if it == max_iter:
            break
        phi, _, _, _ = find_correlating_projection(
            residuals[worst], delta, R, ratio_C=0, sup_bound=2.0)
        psi = psi.extended(phi.dims)
        atoms = build_atoms(psi, R)
        new_projections = [project(atoms, f) for f in fs]
        for g_old, g_new, f in zip(projections, new_projections, fs):
            step = Signal(f.ctx, g_new.values - g_old.values).lp_norm(2) ** 2
            gain = g_new.lp_norm(2) ** 2 - g_old.lp_norm(2) ** 2
            if abs(gain - step) > 1e-9:
                raise AssertionError("Pythagoras identity violated "
                                     f"({gain} vs {step})")
        projections = new_projections
        energy = sum(g.lp_norm(2) ** 2 for g in projections)
        if energy < trace[-1] - 1e-9:
            raise AssertionError("energy decreased")
        trace.append(energy)
    raise RuntimeError(f"iteration budget {max_iter} exceeded; "
                       f"energy trace {trace}")


# -- smoothed box approximants -------------------------------------------------

def _jackson_coeffs(n: int) -> np.ndarray:
    """Fourier coefficients of the normalized Jackson kernel
    K_n(theta) = alpha (sin(n pi theta)/sin(pi theta))^4, degree 2n-2.
    Returned as an array over j = -(2n-2) .. (2n-2), with sum-integral 1."""
    deg = 2 * n - 2
    L = max(4 * n, 8)
    m = np.arange(L)
    theta = m / L
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(n * np.pi * theta) / np.sin(np.pi * theta)
    ratio[0] = n
    k = ratio ** 4
    chat = np.fft.fft(k) / L
    idx = np.arange(-deg, deg + 1) % L
    coeffs = np.real(chat[idx])
    return coeffs / coeffs[deg]  # normalize so the j = 0 coefficient is 1


@dataclass(frozen=True)
class BoxFactor:
    """One smoothed 1-d interval indicator: G/(1-tail) with
    G = 1_J * K_n, J the gamma-enlarged target interval."""

    lo: float       # target interval start (t/R + sqrt2 mod 1)
    width: float    # 1/R
    gamma: float
    coeffs: np.ndarray  # scaled coefficients over j = -deg..deg
    deg: int
    tail: float     # certified t_in = 1 - int_{|u|<=gamma} K

    def eval(self, theta: np.ndarray) -> np.ndarray:
        js = np.arange(-self.deg, self.deg + 1)
        ph = np.exp(2j * np.pi * np.outer(np.atleast_1d(theta), js))
        return np.real(ph @ self.coeffs)

    def coef_mass(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))


def _build_factor(lo: float, width: float, gamma: float, tau0: float,
                  n: int) -> Optional[BoxFactor]:
    """Attempt the construction at kernel parameter n; None if the exact
    tail bound t_in exceeds tau0."""
    kc = _jackson_coeffs(n)
    deg = 2 * n - 2
    js = np.arange(-deg, deg + 1)
    a, b = lo - gamma, lo + width + gamma
    # 1_J hat: integral of e(-j theta) over [a, b]
    ind_hat = np.empty(2 * deg + 1, dtype=np.complex128)
    nz = js != 0
    ind_hat[~nz] = b - a
    ind_hat[nz] = (np.exp(-2j * np.pi * js[nz] * a)
                   - np.exp(-2j * np.pi * js[nz] * b)) / (2j * np.pi * js[nz])
    g_hat = ind_hat * kc
    # exact trig-poly integral of K over [-gamma, gamma]
    inside = 2 * gamma + np.sum(kc[nz] * np.sin(2 * np.pi * js[nz] * gamma)
                                / (np.pi * js[nz]))
    tail = max(0.0, 1.0 - float(inside))
    if tail > tau0:
        return None
    scale = 1.0 / ((1.0 - tail) * (1.0 - 1e-8))
    return BoxFactor(lo=lo, width=width, gamma=gamma, coeffs=g_hat * scale,
                     deg=deg, tail=tail)


@dataclass(frozen=True)
class SmoothBox:
    """Product over the 3d circle coordinates of smoothed interval
    indicators; F >= 1 on the generalised interval I_{R;t,u,v}, F <= the
    small ceiling off the gamma-enlargement, 0 <= F <= 1 + eps/(10 R^{3d}).
    Kept in factored form: the tensor-product coefficients are never
    materialized."""

    d: int
    R: int
    key: tuple           # (t, u, v) interval indices
    eps: float
    gamma: float
    factors: tuple       # 3d BoxFactors, ordered th1_1..th1_d, th2_*, v_*

    def eval_coords(self, coords: np.ndarray) -> np.ndarray:
        """coords: array (N, 3d) of circle coordinates in [0, 1)."""
        coords = np.atleast_2d(coords)
        out = np.ones(coords.shape[0])
        for j, fac in enumerate(self.factors):
            out = out * fac.eval(coords[:, j])
        return out

    def compose_signal(self, psi: QMSystem) -> Signal:
        th1, th2, v = orbit_arrays(psi)
        p = psi.ctx.p
        coords = np.concatenate([th1 / p, th2 / p, v / (p - 1)], axis=1)
        return Signal(psi.ctx, self.eval_coords(coords).astype(np.complex128))

    @property
    def ceiling(self) -> float:
        return 1.0 + self.eps / (10 * self.R ** (3 * self.d))

    @property
    def off_ceiling(self) -> float:
        return self.eps / (10 * self.R ** (3 * self.d))

    def trig_norm(self) -> float:
        if self.d == 0:
            return 1.0
        per_block = [sum(f.deg for f in self.factors[i * self.d:(i + 1) * self.d])
                     for i in range(3)]
        mass = 1.0
        for f in self.factors:
            mass *= f.coef_mass()
        return float(max(max(per_block), mass))


def smooth_box_approx(d: int, R: int, t: Sequence[int], u: Sequence[int],
                      v: Sequence[int], eps: float,
                      gamma: Optional[float] = None) -> SmoothBox:
    """Smoothed indicator of the generalised interval I_{R;t,u,v}.

    Explicit construction: each circle coordinate gets G_j/(1 - t_in), with
    G_j the convolution of the gamma-enlarged interval indicator with a
    Jackson kernel, so 0 <= F, F >= 1 on I, and F <= eps/(10 R^{3d}) at
    distance > 2*gamma from I.  The kernel degree auto-escalates once if
    the certified tail exceeds the per-factor allowance, then errors.
    """
    if d == 0:
        return SmoothBox(0, R, ((), (), ()), eps, 0.0, ())
    if R < 1 or (R & (R - 1)) != 0:
        raise ValueError("R must be a power of two")
    if gamma is None:
        gamma = 1.0 / (4 * R)
    if not 0 < gamma < 1.0 / (2 * R):
        raise ValueError("gamma must lie in (0, 1/(2R))")
    a_ceiling = eps / (10 * R ** (3 * d))
    tau0 = a_ceiling / (8 * 3 * d)
    sqrt2_frac = math.sqrt(2.0) - 1.0
    n0 = max(4, math.ceil((3 / (16 * tau0 * gamma**4)) ** (1 / 3)))
    factors = []
    for idx in list(t) + list(u) + list(v):
        lo = (idx / R + sqrt2_frac) % 1.0
        fac = _build_factor(lo, 1.0 / R, gamma, tau0, n0)
        if fac is None:
            fac = _build_factor(lo, 1.0 / R, gamma, tau0, 2 * n0)  # escalate once
        if fac is None:
            raise RuntimeError("smooth box tail bound not met after escalation")
        factors.append(fac)
    return SmoothBox(d, R, (tuple(t), tuple(u), tuple(v)), eps, gamma,
                     tuple(factors))


def smooth_majorant(atoms: PartitionAtoms, f: Signal, eps: float):
    """List of (coefficient, SmoothBox) whose composed sum dominates
    Pi_R^Psi f pointwise when f >= 0 (one box per nonempty atom)."""
    pf = project(atoms, f)
    out = []
    for key, xs in atoms.groups.items():
        lam = float(np.real(pf.values[int(xs[0])]))
        if lam != 0.0:
            box = smooth_box_approx(atoms.psi.d, atoms.R, *key, eps=eps)
            out.append((lam, box))
    return out


# -- sqrt2 gap ------------------------------------------------------------------

def check_sqrt2_gap(m_max: int = 10**6) -> dict:
    """Verify ||m sqrt2||_{R/Z} >= 1/(3m) for 1 <= m <= m_max, exactly.

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
