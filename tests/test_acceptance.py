"""End-to-end acceptance suite.

Each test here is a top-level guarantee of the package: exact identities,
zero-violation inequality sweeps over seeded randomized suites, exact
rational combinatorial bounds, and regression-pinned search results, with
runtime guards where a bound is part of the contract.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fpharmonics.calibration import AUDIT_CONSTANTS, CALIBRATION_SEED
from fpharmonics.charsums import check_mixed_sum, gauss_sum, weil_product_sum
from fpharmonics.counting import (T, check_gvn_bounds, check_simple_lemma,
                                  differencing_sup, phased_character_example)
from fpharmonics.field import MultChar, cached_field
from fpharmonics.harmonic import (Signal, add_invert, add_transform, convolve,
                                  inner_product, norm_qm, norm_u2_plus,
                                  norm_u2_times, norm_u3_plus, random_signal)
from fpharmonics.qm import (QMSystem, TrigPoly, baby_count, bohr_set,
                            box_fraction, check_bohr_density,
                            counting_integral_I, counting_integral_direct,
                            counting_lemma_check, trig_norm)
from fpharmonics.ramsey import (FiniteGroup, PairColoring, boolean_cube,
                                dependent_random_choice, eps_r,
                                extremal_coloring, find_rich_color)
from fpharmonics.regularity import (build_atoms, decomposable_unit_signal,
                                    kvn_energy_increment, project,
                                    quad_decompose, refines, smooth_box_approx)
from fpharmonics.search import (check_interval_coloring, fp_coloring_scan,
                                interval_backtrack, interval_sweep)
from reference import check_sqrt2_gap, trig_eval

SEED = CALIBRATION_SEED


def _rng():
    return np.random.default_rng(SEED)


# -- 1: the sums-times-products average on phased character signals ----------

@pytest.mark.parametrize("p", (13, 17, 31))
def test_phased_character_identity(p):
    t0 = time.perf_counter()
    ctx = cached_field(p)
    f1, f2, f3, f4, expected = phased_character_example(ctx)
    value = T(f1, f2, f3, f4)
    assert expected == ((p - 1) ** 2 + 1) / p**2
    assert abs(value - expected) < 1e-9
    assert time.perf_counter() - t0 < 1.0


# -- 2: Fourier analysis identities ------------------------------------------

def test_fourier_roundtrip_parseval_convolution():
    t0 = time.perf_counter()
    rng = _rng()
    for p in (5, 7, 13, 31):
        ctx = cached_field(p)
        for _ in range(100):
            f = random_signal(ctx, rng)
            g = random_signal(ctx, rng)
            spec = add_transform(f)
            back = add_invert(ctx, spec)
            assert np.max(np.abs(back.values - f.values)) < 1e-10
            assert abs(np.sum(np.abs(spec) ** 2) - f.lp_norm(2) ** 2) < 1e-9
            conv = add_transform(convolve(f, g))
            assert np.max(np.abs(conv - spec * add_transform(g))) < 1e-9
    assert time.perf_counter() - t0 < 5.0


# -- 3: inequality suites, zero violations ------------------------------------

PRIMES = (5, 7, 11, 13, 17, 31, 61, 101)


def test_u2plus_bound_suite():
    rng = _rng()
    for p in PRIMES:
        ctx = cached_field(p)
        for _ in range(25):
            fs = [random_signal(ctx, rng, unit_l2=True) for _ in range(4)]
            rep = check_gvn_bounds(*fs, which="u2plus")
            assert rep.ok()


def test_u2times_bound_suite():
    rng = _rng()
    for p in PRIMES:
        ctx = cached_field(p)
        for _ in range(25):
            fs = [random_signal(ctx, rng, unit_l2=True) for _ in range(4)]
            rep = check_gvn_bounds(*fs, which="u2times")
            assert rep.ok()


def test_differencing_suite():
    rng = _rng()
    for p in PRIMES:
        ctx = cached_field(p)
        for _ in range(25):
            f = random_signal(ctx, rng, unit_l2=True)
            assert differencing_sup(f) <= norm_u3_plus(f).value ** 2 + 1e-9


def test_simple_lemma_suite():
    rng = _rng()
    for p in PRIMES:
        ctx = cached_field(p)
        for _ in range(25):
            fs = [random_signal(ctx, rng, kind="bounded") for _ in range(3)]
            S = rng.choice(p, size=max(1, p // 4), replace=False)
            rep = check_simple_lemma(fs[0], fs[1], fs[2],
                                     [int(x) for x in S])
            assert rep.ok()


def test_norm_chain_suite():
    rng = _rng()
    for p in PRIMES:
        ctx = cached_field(p)
        for _ in range(25):
            f = random_signal(ctx, rng)
            u2 = norm_u2_plus(f).value
            u3 = norm_u3_plus(f).value
            qm = norm_qm(f).value
            l1 = f.lp_norm(1)
            assert u2 <= u3 + 1e-12 <= qm + 2e-12 <= l1 + 3e-12


# -- 4: quadratic-phase decomposition -----------------------------------------

def test_decomposition_conclusions():
    t0 = time.perf_counter()
    rng = _rng()
    for p in (61, 101):
        ctx = cached_field(p)
        for eps in (0.4, 0.6):
            for _ in range(50):
                f = decomposable_unit_signal(ctx, rng)
                dec = quad_decompose(f, eps)  # conclusions asserted inside
                assert dec.residual_u3 <= eps + 1e-9
                energy = (Signal(ctx, f.values - dec.residual.values)
                          .lp_norm(2) ** 2)
                assert energy <= 3 + 1e-9
                assert dec.coefficient_mass() <= 4 / eps + 1e-9
                assert len(dec.lambdas) <= 8 / eps**2 + 1e-9
    assert time.perf_counter() - t0 < 60.0


# -- 5: single-system equidistribution averages -------------------------------

def test_baby_count_oracle_equivalence():
    rng = _rng()
    for p in (5, 7, 11):
        ctx = cached_field(p)
        for _ in range(7):
            dims = [(int(rng.integers(1, p)), int(rng.integers(0, p - 1)))]
            psi = QMSystem(ctx, dims)
            F = TrigPoly.random(1, rng, n_terms=4, max_freq=1)
            # rhs is cross-checked against direct H enumeration inside
            baby_count(psi, F)


def test_baby_count_single_mode_error():
    for p in (11, 31, 61):
        psi = QMSystem(cached_field(p), [(1, 1)])
        F = TrigPoly(1, {((1,), (0,), (0,)): 1.0})
        lhs, rhs, margin = baby_count(psi, F)
        assert rhs == 0
        assert abs(lhs) <= AUDIT_CONSTANTS["babycount_single_mode"] / math.sqrt(p)


# -- 6: the counting lemma, both halves ----------------------------------------

def test_counting_integral_dual_agreement():
    rng = _rng()
    for p in (5, 7, 11):
        ctx = cached_field(p)
        for _ in range(5):
            psi = QMSystem(ctx, [(int(rng.integers(1, p)),
                                  int(rng.integers(0, p - 1)))])
            F = TrigPoly.random(1, rng, n_terms=3, max_freq=1)
            coeff = counting_integral_I(psi, F, cross_check=False)
            direct = counting_integral_direct(psi, F)
            assert abs(coeff - direct) < 1e-9


def test_counting_lemma_margin_budget():
    # the 72-draw suite the budget constants were first calibrated on;
    # calibration.calibrate_countlemma holds the suite they come from now
    rng = _rng()
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
                    rep = counting_lemma_check(psi, F, S, eps)
                    assert rep.ok()


# -- 7: exact rational density floors ------------------------------------------

def test_bohr_box_pigeonhole_floors():
    rng = _rng()
    p = 101
    ctx = cached_field(p)
    for d in (1, 2):
        for eps in (Fraction(1, 2), Fraction(1, 4)):
            dims = [(int(rng.integers(1, p)), int(rng.integers(0, p - 1)))
                    for _ in range(d)]
            psi = QMSystem(ctx, dims)
            mu, floor = check_bohr_density(psi, eps)
            assert mu >= floor == Fraction(1, 8) * (eps / 4) ** (3 * d)
            frac, box_floor = box_fraction(psi, eps)
            assert frac >= box_floor == eps ** (3 * d)
    # Gx = Z_10 and Z_12: 2 (n // 4) + 1 of the n values s/n lie within 1/4
    for p, n_in in ((11, 5), (13, 7)):
        frac, box_floor = box_fraction(QMSystem(cached_field(p), [(1, 1)]), Fraction(1, 4))
        assert frac == Fraction(n_in, p) ** 2 * Fraction(n_in, p - 1)
        assert frac >= box_floor == Fraction(1, 64)


# -- 8: character sum magnitudes ------------------------------------------------

def test_gauss_modulus_suite():
    rng = _rng()
    primes = (31, 61, 101, 13, 7)
    for _ in range(50):
        p = int(rng.choice(primes))
        ctx = cached_field(p)
        a = int(rng.integers(1, p))
        b = int(rng.integers(0, p))
        assert abs(abs(gauss_sum(ctx, a, b)) - math.sqrt(p)) < 1e-8


def test_weil_bound_suite():
    rng = _rng()
    primes = (31, 61, 101)
    for _ in range(1000):
        p = int(rng.choice(primes))
        ctx = cached_field(p)
        t = int(rng.integers(2, 5))
        chis = [MultChar(int(rng.integers(0, p - 1))) for _ in range(t)]
        if all(c.is_principal() for c in chis):
            chis[0] = MultChar(1)
        shifts = [int(h) for h in rng.choice(p, size=t, replace=False)]
        s, bound = weil_product_sum(ctx, chis, shifts)  # asserts the bound
        assert abs(s) <= bound + 1e-9
        assert bound == (t - 1) * math.sqrt(p) + t


def test_mixed_sum_budget_suite():
    rng = _rng()
    for p in (31, 61, 101):
        ctx = cached_field(p)
        for _ in range(20):
            a = int(rng.integers(0, p))
            b = int(rng.integers(0, p))
            k = int(rng.integers(0, p - 1))
            k2 = int(rng.integers(0, p - 1))
            if a == 0 and b == 0 and k == 0 and k2 == 0:
                a = 1
            rep = check_mixed_sum(ctx, a, b, MultChar(k), MultChar(k2),
                                  int(rng.integers(1, p)))
            assert rep.ok()


# -- 9: pair colorings, dependent random choice, rich colors --------------------

def _random_total_coloring(group, T_, r, rng):
    diffs = {group.sub(a, b) for a in T_ for b in T_}
    classes = [set() for _ in range(r)]
    for t in T_:
        for u in diffs:
            classes[int(rng.integers(0, r))].add((t, u))
    return PairColoring(group, tuple(T_), tuple(classes))


@pytest.mark.parametrize("r", (1, 2, 3))
def test_extremal_coloring_exact(r):
    col = extremal_coloring(r)  # partition and density claims asserted inside
    assert col.lam(0) == Fraction(1, 4**r)
    for i in range(1, col.r):
        assert col.lam(i) == 0


def test_drc_random_instances():
    import random
    random.seed(SEED)
    for _ in range(100):
        nx = random.randint(2, 12)
        ny = random.randint(2, 12)
        wx = [random.randint(1, 5) for _ in range(nx)]
        wy = [random.randint(1, 5) for _ in range(ny)]
        nux = {i: Fraction(w, sum(wx)) for i, w in enumerate(wx)}
        nuy = {j: Fraction(w, sum(wy)) for j, w in enumerate(wy)}
        A = {(i, j) for i in range(nx) for j in range(ny)
             if random.random() < 0.5} or {(0, 0)}
        eta = Fraction(random.randint(1, 8), 8)
        res = dependent_random_choice(nux, nuy, A, eta)
        # both conclusions re-checked here in exact rationals
        alpha = sum(nux[i] * nuy[j] for i, j in A)
        nu_xp = sum(nux[i] for i in res.x_prime)
        assert nu_xp >= alpha / 2
        bad = sum(nux[i] * nux[j] for i, j in res.bad_pairs
                  if i in res.x_prime and j in res.x_prime)
        assert bad == res.bad_measure_inside
        assert bad <= eta * nu_xp ** 2


def test_rich_color_both_modes():
    t0 = time.perf_counter()
    rng = _rng()
    r = 3
    for group, T_ in ((FiniteGroup((11,)), FiniteGroup((11,)).elements()),
                      (boolean_cube(3), boolean_cube(3).elements())):
        for _ in range(50):
            col = _random_total_coloring(group, T_, r, rng)
            io, vo = find_rich_color(col, mode="oracle")
            ic, vc = find_rich_color(col, mode="constructive")
            assert vo >= eps_r(r) ** 2
            assert vc >= eps_r(r) ** 2
            assert col.lam(ic) >= eps_r(r) ** 2  # oracle validates the pick
    assert time.perf_counter() - t0 < 120.0


# -- 10: regularity machinery -----------------------------------------------------

def test_projection_operator_identities():
    rng = _rng()
    ctx = cached_field(13)
    psi = QMSystem(ctx, [(1, 1)])
    coarse = build_atoms(psi, 2)
    fine = build_atoms(psi.extended([(2, 3)]), 4)
    assert refines(fine, coarse)
    for _ in range(10):
        f = random_signal(ctx, rng)
        g = random_signal(ctx, rng)
        pf = project(coarse, f)
        assert np.max(np.abs(project(coarse, pf).values - pf.values)) < 1e-9
        assert abs(inner_product(f, project(coarse, g))
                   - inner_product(pf, g)) < 1e-9
        assert pf.lp_norm(2) <= f.lp_norm(2) + 1e-9
        nest = project(coarse, project(fine, f))
        assert np.max(np.abs(nest.values - pf.values)) < 1e-9


def test_energy_increment_within_budget():
    from fpharmonics.field import mult_char_values
    ctx = cached_field(61)
    x = np.arange(61)
    f1 = Signal(ctx, mult_char_values(ctx, MultChar(1)))
    f2 = Signal(ctx, ctx.roots_p[x * x % 61])
    delta = 0.3
    res = kvn_energy_increment([f1, f2], QMSystem(ctx, []), delta, 32)
    budget = math.ceil(AUDIT_CONSTANTS["kvn_budget_c"] * 2 / delta**2)
    assert res.iterations <= budget
    trace = np.array(res.energy_trace)
    assert np.all(np.diff(trace) >= -1e-9)
    assert trace[-1] <= 2 + 1e-9


def test_smooth_box_four_properties():
    # one shared G per scale, so each property of a box follows from G on
    # one grid; at d = 2 the ceiling leaves G^6 - 1 only 2.98e-9 (R = 16)
    # and 4.66e-11 (R = 32)
    M = 1 << 14
    thetas = np.arange(M) / M
    for d, R in [(1, 2), (1, 8), (2, 4), (2, 16), (2, 32)]:
        box = smooth_box_approx(d, R, (0,) * d, (R - 1,) * d, (R // 2,) * d, 0.5)
        G = box.interval
        vals = G.on_grid(M, 0.0)
        assert np.max(np.abs(vals[::512] - trig_eval(G.coeffs, thetas[::512]))) < 1e-12
        # nonnegative and real
        assert np.all(vals >= -1e-9)
        # at least 1 on the target interval
        assert np.all(vals[thetas < 1 / R] >= 1 - 1e-9)
        # the product of the 3d factors is bounded by the ceiling
        assert np.max(vals) ** (3 * d) <= box.ceiling, (d, R)
        # small off the gamma-enlargement: one factor beyond 2 gamma of its
        # interval times the other 3d - 1 at their largest
        far = (thetas > 1 / R + 2 / (4 * R)) & (thetas < 1 - 2 / (4 * R))
        if far.any():
            off = np.max(vals[far]) * np.max(vals) ** (3 * d - 1)
            assert off <= box.eps / (10 * box.R ** (3 * box.d)), (d, R)


def test_sqrt2_gap_to_one_million():
    rep = check_sqrt2_gap(10**6)
    assert rep["violations"] == 0


# -- 11: searches ------------------------------------------------------------------

def test_scan_exhaustive_minima():
    assert fp_coloring_scan(cached_field(5), 2)["min"] == 5
    assert fp_coloring_scan(cached_field(7), 2)["min"] == 8


def test_backtrack_certificates_and_frontier():
    sweep = interval_sweep(2, 45)
    last_sat = sweep["last_sat"]
    assert last_sat is not None
    assert last_sat < 252
    statuses = [r.status for r in sweep["results"]]
    assert "unsat" in statuses
    for res in sweep["results"]:
        if res.status == "sat":
            assert not check_interval_coloring(res.coloring)
    # distinct variant certificate also passes the independent checker
    res = interval_backtrack(20, 2, distinct=True)
    if res.status == "sat":
        assert not check_interval_coloring(res.coloring, distinct=True)


def test_distinct_sweep_settles_252():
    # the sweep itself re-verifies every certificate and rejects a sat
    # after an unsat, so this pins 1..251 sat and 252 unsat
    sweep = interval_sweep(2, 252, distinct=True)
    assert sweep["last_sat"] == 251
    assert sweep["results"][-1].status == "unsat"
