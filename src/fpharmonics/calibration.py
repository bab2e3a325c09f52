"""Audit constants for error terms the source bounds state only as O(.).

Each constant, and the budget mixed_sum writes inline, is derived (a
standard theorem gives it), fixed (chosen) or calibrated; each entry names
the p at which its claim can fail, as a bound at or above the claim's
trivial ceiling cannot:
  * babycount_single_mode = 6 (derived): a single mode of baby_count is a
    mixed character sum, at most (2 sqrt(p) + 2)/p <= 6/sqrt(p) by Weil.
    Can fail from p = 37, where 6/sqrt(p) drops below 1.
  * u3box_weil = 7 and u3box_degenerate = 34 (derived): u3_box_sum's budget
    7/sqrt(p) + 34/p (t - 1 at t = 8; 26 degenerate shift planes + 8
    chi(0) = 1 defects) exceeds 1 >= ||F||_{U^3}^8 for p <= 103, so it
    cannot fail at any p <= 61 that u3_box_sum admits.
  * lipschitz_c = 6*pi (derived): |F(w) - F(v)| <= 2*pi*(3/R) per atom for
    F = e(theta1 + theta2') z1 gives KvN's witness floor
    delta - lipschitz_c max(1, ||f||_1)/R, which can fail at any p but only
    when it is positive, so not at the CLI's R = 32, delta = 0.3.
  * mixed_sum's (3 sqrt(p) + 2)/p, inline (derived): Weil's bound for mixed
    sums plus two chi(0) = 1 points.  Can fail from p = 13, where it is < 1.
  * kvn_budget_c = 4 (fixed): KvN runs at most ceil(4 r/delta^2) iterations;
    the energy is at most r, but no gain of delta^2/4 a step is certified,
    so it can fail at any p.
  * gvn3_C = 0.05 (calibrated): |T|^8 <= ||f3||_{u3+}^2 + gvn3_C/sqrt(p).
    Can fail at any p.
  * gvnqm_C = 2 (calibrated): |T| <= gvnqm_C inf_i max(p^(-1/64), ...) has
    a right side of at least 2 p^(-1/64) > 1 >= |T| for p < 2^64, so it is
    vacuous at every table prime.
  * countlemma_C1 = countlemma_C2 = 0.1202 (calibrated): the counting
    lemma's budget.  Can fail at any p.

A calibrated constant is the worst ratio observed on a fixed seeded suite
(seed 20260823), doubled.  Each calibrate_* function re-runs its suite
exactly as it was fixed (primes, sizes and seed are part of the protocol,
not parameters) and returns its worst ratio; the tests hold each constant
to at least twice that value.  `fpharmonics verify` does not re-run them.
None of these constants is a claim about sharp values.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# the calibration suites, described per constant: the worst value observed,
# doubled, then rounded up slightly
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
    # derived and fixed constants (see module docstring)
    "babycount_single_mode": 6.0,
    "u3box_weil": 7.0,
    "u3box_degenerate": 34.0,
    "lipschitz_c": 6 * math.pi,
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

