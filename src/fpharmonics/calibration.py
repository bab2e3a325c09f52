"""Audit constants for error terms the source bounds state only as O(.).

Every constant here is an implementation-calibrated stand-in, never a
claim about sharp values: each was obtained by running the fixed seeded
suite below, recording the worst observed ratio, and doubling it.  The
suites are reproducible (seeds recorded next to each value) and can be
re-run via the calibrate_* functions (all four at once with run_all).
`fpharmonics verify` does not re-run them.

Fixed (non-calibrated) entries:
  * babycount_single_mode = 6: single off-lattice mode error |E_x F(Psi(x))|
    is asserted <= 6/sqrt(p).  Derived from the Weil bound: a single mode
    is a mixed quadratic-multiplicative character sum of magnitude at most
    (2 sqrt(p) + 2)/p <= 6/sqrt(p) for every p >= 3.
  * u3box_weil = 7.0 and u3box_degenerate = 34.0: derived budgets for the
    eight-fold correlation (7 = t-1 at t = 8; 34 = 26 degenerate shift
    planes + 8 for the chi(0) = 1 convention defects).
  * lipschitz_c = 6*pi: the correlation-finder witness bound uses
    |F(w) - F(v)| <= 2*pi*(3/R) per atom for F = e(theta1 + theta2') z1.
"""

from __future__ import annotations

import math

import numpy as np

# Calibration protocol: seed 20260823, suites described per constant below.
# Values are MAX OBSERVED on the suite, DOUBLED, then rounded up slightly.
AUDIT_CONSTANTS = {
    # gvn3: max over suite of max(0, |T|^8 - ||f3||_{u3+}^2) * sqrt(p),
    # 200 instances, p in {31, 61, 101}, seed 20260823; the suite never
    # produced a positive excess, so this is a fixed floor, not 2x an
    # observed value.
    "gvn3_C": 0.05,
    # gvnQM: max over suite of |T| / inf_i max(p^{-1/64}, ||f_i||_QM^{1/5}),
    # 120 random instances plus the structured phased-character family,
    # p in {31, 61, 101}, seed 20260823: worst observed 0.9804, doubled.
    "gvnqm_C": 2.0,
    # counting lemma: shared C for margin <= C*(eps*mu(S)*M^4 + M^{9d}/sqrt(p)),
    # seeded suite p in {31, 61, 101}, d in {1, 2}, eps in {0.3, 0.5},
    # seed 20260823: worst observed ratio 0.01741, doubled.
    "countlemma_C1": 0.04,
    "countlemma_C2": 0.04,
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
    # correlation finder default ratio requirement R >= corr_ratio_C / delta
    "corr_ratio_C": 16.0,
}

CALIBRATION_SEED = 20260823


def calibrate_gvn3(ps=(31, 61, 101), n_instances=200, seed=CALIBRATION_SEED):
    """Worst observed (|T|^8 - ||f3||_{u3+}^2) * sqrt(p) over the suite."""
    from .counting import T
    from .field import cached_field
    from .harmonic import Signal, norm_u3_plus, random_signal
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in ps:
        ctx = cached_field(p)
        for _ in range(n_instances // len(ps)):
            fs = [random_signal(ctx, rng, kind="bounded") for _ in range(4)]
            f3 = random_signal(ctx, rng, unit_l2=True)
            excess = (abs(T(fs[0], fs[1], f3, fs[3]))**8
                      - norm_u3_plus(f3).value**2)
            worst = max(worst, excess * math.sqrt(p))
    return worst


def calibrate_gvnqm(ps=(31, 61, 101), n_instances=120, seed=CALIBRATION_SEED):
    """Worst observed |T| / inf_i max(p^{-1/64}, ||f_i||_QM^{1/5}).

    The suite mixes random bounded signals with the structured
    phased-character family, whose T value stays near 1 while all four
    QM norms equal 1; the structured instances dominate the ratio."""
    from .counting import T, phased_character_example
    from .field import cached_field
    from .harmonic import norm_qm, random_signal
    rng = np.random.default_rng(seed)
    worst = 0.0

    def ratio(fs, p):
        t = abs(T(*fs))
        denom = min(max(p**(-1 / 64), norm_qm(f).value**(1 / 5)) for f in fs)
        return t / denom

    for p in ps:
        ctx = cached_field(p)
        f1, f2, f3, f4, _ = phased_character_example(ctx)
        worst = max(worst, ratio([f1, f2, f3, f4], p))
        for _ in range(n_instances // len(ps)):
            fs = [random_signal(ctx, rng, kind="bounded") for _ in range(4)]
            worst = max(worst, ratio(fs, p))
    return worst


def calibrate_mixed_sum(ps=(31, 61, 101), n_draws=300, seed=CALIBRATION_SEED):
    """Worst observed |E_x e_p(ax^2+bx) chi(x) chi'(x+h)| * p^{1/16}."""
    from .charsums import mixed_sum
    from .field import MultChar, cached_field
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in ps:
        ctx = cached_field(p)
        for _ in range(n_draws // len(ps)):
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


def calibrate_countlemma(seed=CALIBRATION_SEED):
    """Worst observed margin / (eps*mu(S)*M^4 + M^{9d}/sqrt(p)) over the
    fixed suite p in {31, 61, 101}, d in {1, 2}."""
    from .field import cached_field
    from .qm import (QMSystem, TrigPoly, bohr_set, counting_lemma_check)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in (31, 61, 101):
        ctx = cached_field(p)
        for d in (1, 2):
            for eps in (0.3, 0.5):
                for _ in range(6):
                    dims = [(int(rng.integers(1, p)),
                             int(rng.integers(0, p - 1))) for _ in range(d)]
                    psi = QMSystem(ctx, dims)
                    F = TrigPoly.random(d, rng, n_terms=3, max_freq=1)
                    S = bohr_set(psi, eps)
                    rep = counting_lemma_check(psi, F, S, eps,
                                               assert_budget=False)
                    budget = (rep.details["budget_eps"]
                              + rep.details["budget_p"])
                    worst = max(worst, rep.lhs / budget)
    return worst


def run_all():
    return {
        "gvn3": calibrate_gvn3(),
        "gvnqm": calibrate_gvnqm(),
        "mixed_sum": calibrate_mixed_sum(),
        "countlemma": calibrate_countlemma(),
    }
