"""Audit constants for error terms the source bounds state only as O(.).

Every constant here is an implementation-calibrated stand-in, never a
claim about sharp values: each was obtained by running the fixed seeded
suite below, recording the worst observed ratio, and doubling it.  Each
calibrate_* function re-runs one suite exactly as it was fixed (primes,
sizes and seed are part of the protocol, not parameters) and returns its
worst ratio; the tests hold each constant to at least twice that value.
`fpharmonics verify` does not re-run them.

Fixed (non-calibrated) entries:
  * babycount_single_mode = 6: single off-lattice mode error |E_x F(Psi(x))|
    is at most 6/sqrt(p); baby_count asserts its margin within 6/sqrt(p)
    times the coefficient mass of the off-lattice terms.  Derived from the
    Weil bound: a single mode is a mixed quadratic-multiplicative character
    sum of magnitude at most (2 sqrt(p) + 2)/p <= 6/sqrt(p) for every p >= 3.
  * u3box_weil = 7.0 and u3box_degenerate = 34.0: derived budgets for the
    eight-fold correlation (7 = t-1 at t = 8; 34 = 26 degenerate shift
    planes + 8 for the chi(0) = 1 convention defects).
  * lipschitz_c = 6*pi: the witness floor that each KvN step's correlating
    projection asserts uses |F(w) - F(v)| <= 2*pi*(3/R) per atom for
    F = e(theta1 + theta2') z1.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Calibration protocol: seed 20260823, suites described per constant below.
# Values are MAX OBSERVED on the suite, DOUBLED, then rounded up slightly.
AUDIT_CONSTANTS = {
    # gvn3: max over suite of max(0, |T|^8 - ||f3||_{u3+}^2) * sqrt(p),
    # 198 instances (66 per prime), p in {31, 61, 101}, seed 20260823; the suite never
    # produced a positive excess, so this is a fixed floor, not 2x an
    # observed value.
    "gvn3_C": 0.05,
    # gvnQM: max over suite of |T| / inf_i max(p^{-1/64}, ||f_i||_QM^{1/5}),
    # 120 random instances plus the structured phased-character family,
    # p in {31, 61, 101}, seed 20260823: worst observed 0.9804, doubled.
    "gvnqm_C": 2.0,
    # counting lemma: shared C for margin <= C*(eps*mu(S)*M^4 + M^{9d}/sqrt(p)),
    # seeded suite p in {5, 13, 17, 31, 61, 101}, d in {1, 2},
    # eps in {3/10, 1/2}, 100 draws per cell (2,400), seed 20260823: worst
    # observed ratio 0.06007 (p = 5, d = 1, eps = 1/2), doubled.
    "countlemma_C1": 0.1202,
    "countlemma_C2": 0.1202,
    # mixed quadratic x multiplicative sums: max observed magnitude * p^{1/16},
    # 300 draws over p in {31, 61, 101}, seed 20260823: worst 0.4377, doubled.
    "mixed_sum_c": 0.88,
    # derived constants (see module docstring)
    "babycount_single_mode": 6.0,
    "u3box_weil": 7.0,
    "u3box_degenerate": 34.0,
    "lipschitz_c": 6 * math.pi,
    # KvN loop: iteration budget ceil(kvn_budget_c * r / delta^2)
    "kvn_budget_c": 4.0,
}

CALIBRATION_SEED = 20260823


def calibrate_gvn3():
    """Worst observed (|T|^8 - ||f3||_{u3+}^2) * sqrt(p) over 198 instances,
    66 at each of p = 31, 61 and 101."""
    from .counting import T
    from .field import cached_field
    from .harmonic import norm_u3_plus, random_signal
    rng = np.random.default_rng(CALIBRATION_SEED)
    worst = 0.0
    for p in (31, 61, 101):
        ctx = cached_field(p)
        for _ in range(200 // 3):
            fs = [random_signal(ctx, rng, kind="bounded") for _ in range(4)]
            f3 = random_signal(ctx, rng, unit_l2=True)
            excess = (abs(T(fs[0], fs[1], f3, fs[3]))**8
                      - norm_u3_plus(f3).value**2)
            worst = max(worst, excess * math.sqrt(p))
    return worst


def calibrate_gvnqm():
    """Worst observed |T| / inf_i max(p^{-1/64}, ||f_i||_QM^{1/5}).

    The suite mixes 120 random bounded signals with the structured
    phased-character family, whose T value stays near 1 while all four
    QM norms equal 1; the structured instances dominate the ratio.  The
    infimum is counting.gvnqm_inf's, so the bounded instances, whose
    ||f||_1 settles it, take no QM sup."""
    from .counting import T, gvnqm_inf, phased_character_example
    from .field import cached_field
    from .harmonic import random_signal
    rng = np.random.default_rng(CALIBRATION_SEED)
    worst = 0.0

    def ratio(fs):
        return abs(T(*fs)) / gvnqm_inf(fs)[0]

    for p in (31, 61, 101):
        ctx = cached_field(p)
        worst = max(worst, ratio(phased_character_example(ctx)[:4]))
        for _ in range(120 // 3):
            fs = [random_signal(ctx, rng, kind="bounded") for _ in range(4)]
            worst = max(worst, ratio(fs))
    return worst


def calibrate_mixed_sum():
    """Worst observed |E_x e_p(ax^2+bx) chi(x) chi'(x+h)| * p^{1/16} over
    300 draws."""
    from .charsums import mixed_sum
    from .field import MultChar, cached_field
    rng = np.random.default_rng(CALIBRATION_SEED)
    worst = 0.0
    for p in (31, 61, 101):
        ctx = cached_field(p)
        for _ in range(300 // 3):
            a = int(rng.integers(0, p))
            b = int(rng.integers(0, p))
            k = int(rng.integers(0, p - 1))
            k2 = int(rng.integers(0, p - 1))
            h = int(rng.integers(1, p))
            if a == 0 and b == 0 and k == 0 and k2 == 0:
                a = 1
            _, mag = mixed_sum(ctx, a, b, MultChar(k), MultChar(k2), h)
            worst = max(worst, mag * p**(1 / 16))
    return worst


def calibrate_countlemma():
    """Worst observed margin / (eps*mu(S)*M^4 + M^{9d}/sqrt(p)) over the
    fixed suite p in {5, 13, 17, 31, 61, 101}, d in {1, 2},
    eps in {3/10, 1/2}, 100 draws per cell.  The ratios are read from the
    unchecked terms, so the suite measures its instances whatever the
    constants in force."""
    from .field import cached_field
    from .qm import QMSystem, TrigPoly, bohr_set, counting_lemma_margin
    rng = np.random.default_rng(CALIBRATION_SEED)
    worst = 0.0
    for p in (5, 13, 17, 31, 61, 101):
        ctx = cached_field(p)
        for d in (1, 2):
            for eps in (Fraction(3, 10), Fraction(1, 2)):
                for _ in range(100):
                    psi = QMSystem.random(ctx, d, rng)
                    F = TrigPoly.random(d, rng, n_terms=3, max_freq=1)
                    terms = counting_lemma_margin(psi, F, bohr_set(psi, eps), eps)
                    worst = max(worst, terms["margin"]
                                / (terms["budget_eps"] + terms["budget_p"]))
    return worst

