from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fpharmonics
from fpharmonics.calibration import AUDIT_CONSTANTS
from fpharmonics.field import cached_field
from fpharmonics.qm import (QMSystem, TrigPoly, _average_over_H,
                            _lattice_residues, as_fraction, baby_count,
                            bohr_set, box_fraction, check_bohr_density,
                            compose_signal, counting_integral_I,
                            counting_integral_direct, counting_lemma_check,
                            enumerate_H, orbit_arrays, trig_norm)
from reference import (average_over_H_pointwise, baby_count_lattice_sum,
                       constant_trig_poly, counting_integral_loop,
                       orbit_metric, pigeon_measure_loop)


def system(p, dims):
    return QMSystem(cached_field(p), dims)


# The two tests below keep their names from the pointwise evaluator they
# first checked; they now check the rows of orbit_arrays, which replaced it.
def test_eval_system_identity_at_zero():
    # Psi(0) = 0 in every coordinate (psi_i(0) = 1)
    assert [row[0].tolist() for row in orbit_arrays(system(5, [(1, 1)]))] == [[0], [0], [0]]


def test_eval_system_p5_fixtures():
    # a=1, k=0, x=2: (4/5, 4/5, 0)
    assert [row[2].tolist() for row in orbit_arrays(system(5, [(1, 0)]))] == [[4], [4], [0]]
    # a=1, k=1, g=2, x=3: (4/5, 1/5, 3/4) since 3 = 2^3
    assert [row[3].tolist() for row in orbit_arrays(system(5, [(1, 1)]))] == [[4], [1], [3]]


def test_enumerate_H_trivial():
    psi = system(5, [(0, 0)])
    assert enumerate_H(psi).size == 1


def test_enumerate_H_p5_full():
    H = enumerate_H(system(5, [(1, 1)]))
    assert len(H.gplus) == 5
    assert len(H.gtimes) == 4
    assert H.size == 100


def test_enumerate_H_gcd_reduction():
    # p=7, d=2, k=(2,4): |Gx| = 6/gcd(2,4,6) = 3
    H = enumerate_H(system(7, [(1, 2), (2, 4)]))
    assert len(H.gtimes) == 3


def _cyclic_orbit_by_dedup(vec, modulus):
    """Oracle: walk s = 0..modulus-1 and keep each new row s*vec mod modulus."""
    seen = {}
    v = np.array(vec, dtype=np.int64)
    for s in range(modulus):
        seen.setdefault(tuple(int(t) for t in s * v % modulus), None)
    return np.array(list(seen), dtype=np.int64).reshape(len(seen), len(vec))


def test_enumerate_H_matches_dedup_orbits(rng):
    n = 0
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        ctx = cached_field(p)
        for d in range(1, 5):
            systems = [[(0, 0)] * d]  # all-zero a and k vectors
            systems += [[(int(rng.integers(0, p)), int(rng.integers(0, p - 1)))
                         for _ in range(d)] for _ in range(49)]
            for dims in systems:
                psi = QMSystem(ctx, dims)
                H = enumerate_H(psi)
                assert np.array_equal(H.gplus, _cyclic_orbit_by_dedup(psi.a_vec, p))
                assert np.array_equal(H.gtimes,
                                      _cyclic_orbit_by_dedup(psi.k_vec, p - 1))
                n += 1
    assert n == 1600


def test_H_annihilates_lattices():
    psi = system(7, [(1, 2), (2, 4)])
    H = enumerate_H(psi)
    xis = [(1, 0), (0, 1), (3, 2), (5, 5), (1, 3), (3, 0)]
    r1, r2, r3, _ = _lattice_residues(psi, TrigPoly(2, {(xi, xi, xi): 1.0 for xi in xis}))
    assert np.array_equal(r1, r2)
    assert 0 < np.count_nonzero(r1 == 0) < len(xis)
    assert 0 < np.count_nonzero(r3 == 0) < len(xis)
    # a vector has residue 0 exactly when it pairs to an integer against
    # every H element
    X = np.array(xis).T
    assert np.array_equal(r1 == 0, np.all(H.gplus @ X % 7 == 0, axis=0))
    assert np.array_equal(r3 == 0, np.all(H.gtimes @ X % 6 == 0, axis=0))


def test_trig_norm_fixtures():
    assert trig_norm(constant_trig_poly(1)) == 1
    F = TrigPoly(1, {((3,), (0,), (0,)): 1.0})
    assert trig_norm(F) == 3


def test_bohr_set_full_cases():
    psi = system(13, [(1, 0)])
    assert bohr_set(psi, 1) == list(range(13))
    assert bohr_set(QMSystem(cached_field(13), []), Fraction(1, 5)) == \
        list(range(13))


def test_bohr_set_p13_fixture():
    psi = system(13, [(1, 0)])
    B = bohr_set(psi, Fraction(1, 5))
    assert 0 in B
    assert B == [0, 1, 12]


def test_box_fraction_floor():
    psi = system(7, [(1, 1)])
    frac, floor = box_fraction(psi, Fraction(1, 2))
    assert frac >= floor


def test_box_fraction_asserts_its_floor(monkeypatch):
    # with every row outside the box, the fraction 0 is below eps^{3d}: this
    # once came back as (0, floor) with nothing checked
    monkeypatch.setattr("fpharmonics.qm._rows_within",
                        lambda rows, den, eps: np.zeros(len(rows), dtype=bool))
    with pytest.raises(AssertionError, match="^pigeonhole projection floor: "):
        box_fraction(system(7, [(1, 1)]), Fraction(1, 2))


def random_system_and_eps(rng, trial):
    """A random system at p in {13, 31, 61, 101}, d <= 3, with a_i = 0 and
    k_i = 0 on about one coordinate in five each, and an eps that is a float
    on odd trials and a Fraction on even ones, with its exact value."""
    p = int(rng.choice([13, 31, 61, 101]))
    d = int(rng.integers(1, 4))
    psi = system(p, [(int(rng.integers(0, p)) * (rng.random() > 0.2),
                      int(rng.integers(0, p - 1)) * (rng.random() > 0.2))
                     for _ in range(d)])
    eps = (float(rng.uniform(0.01, 1.0)) if trial % 2
           else Fraction(int(rng.integers(1, 20)), int(rng.integers(20, 41))))
    exact = Fraction(*eps.as_integer_ratio()) if trial % 2 else eps
    return psi, eps, exact


def test_exact_integer_bohr_and_box_match_fraction_loops(rng):
    """Reference: Bohr membership by the exact Fraction metric of Psi(x)
    from Python ints, box membership by one Fraction comparison per
    coordinate of each row of enumerate_H."""
    for trial in range(40):
        psi, eps, exact = random_system_and_eps(rng, trial)
        p, d = psi.ctx.p, psi.d
        assert bohr_set(psi, eps) == [
            x for x in range(p) if orbit_metric(psi, x) <= exact]

        def inside(rows, den):
            return sum(all(Fraction(min(n, den - n), den) <= exact for n in row)
                       for row in rows.tolist())
        H = enumerate_H(psi)
        expected = Fraction(inside(H.gplus, p) ** 2 * inside(H.gtimes, p - 1),
                            H.size)
        assert box_fraction(psi, eps) == (expected, exact ** (3 * d))


def test_pigeon_projection_matches_the_fraction_loop(rng):
    """Each box factor against the pigeonhole Fraction loop over every s in
    Z_p (resp. Z_{p-1}), which never reads enumerate_H, on 240 systems."""
    for trial in range(240):
        psi, eps, exact = random_system_and_eps(rng, trial)
        p, d = psi.ctx.p, psi.d
        m_plus = pigeon_measure_loop([p], [[Fraction(a, p) for a in psi.a_vec]], exact)
        m_times = pigeon_measure_loop([p - 1], [[Fraction(k, p - 1) for k in psi.k_vec]],
                                      exact)
        assert box_fraction(psi, eps) == (m_plus ** 2 * m_times, exact ** (3 * d))


@pytest.mark.parametrize("eps, dims, name", [
    (-1, [(1, 1)], "eps"),
    (0, [(1, 1)], "eps"),
    (3, [(1, 1)], "eps"),
    (Fraction(1, 2), [], "d >= 1"),
])
def test_box_fraction_rejects_bad_inputs(eps, dims, name):
    with pytest.raises(ValueError, match=name):
        box_fraction(system(5, dims), eps)


def test_bohr_density_p101():
    psi = system(101, [(1, 1)])
    mu, floor = check_bohr_density(psi, Fraction(1, 2))
    assert mu >= floor == Fraction(1, 8) * Fraction(1, 8) ** 3


# The two tests below keep their names from the general pigeonhole walk
# they first checked; they now check box_fraction's factors.
def test_pigeon_projection_z10():
    # Gx = Z_10 at p = 11, k = 1: s/10 within 1/4 for s in {0, 1, 2, 8, 9},
    # and G+ = Z_11: s/11 within 1/4 for s in {0, 1, 2, 9, 10}
    frac, floor = box_fraction(system(11, [(1, 1)]), Fraction(1, 4))
    assert frac == Fraction(5, 11) ** 2 * Fraction(5, 10)
    assert frac >= floor == Fraction(1, 64)


@pytest.mark.parametrize("p", (5, 7, 11))
def test_pigeon_projection_prime_suite(p):
    # k = 0 makes Gx trivial, so the fraction is m+^2 for Z_p -> 1/p
    frac, floor = box_fraction(system(p, [(1, 0)]), Fraction(1, 4))
    assert frac == Fraction(2 * (p // 4) + 1, p) ** 2
    assert frac >= floor


def test_baby_count_constant():
    psi = system(7, [(1, 1)])
    lhs, rhs, margin = baby_count(psi, constant_trig_poly(1))
    assert margin < 1e-12
    assert rhs == pytest.approx(1)


def test_baby_count_off_lattice_mode():
    psi = system(11, [(1, 1)])
    F = TrigPoly(1, {((1,), (0,), (0,)): 1.0})  # xi1 = 1 not in Lambda+
    lhs, rhs, margin = baby_count(psi, F)
    assert rhs == 0
    assert abs(lhs) <= 6 / np.sqrt(11)


def test_baby_count_on_lattice_mode():
    p = 11
    psi = system(p, [(1, 1)])
    # xi1 = xi2 = 0 in Lambda+, xi3 = 0 in Lambdax: the constant direction
    F = TrigPoly(1, {((0,), (0,), (0,)): 1.0})
    lhs, rhs, margin = baby_count(psi, F)
    assert lhs == pytest.approx(1)
    assert rhs == pytest.approx(1)


def test_counting_integral_constant():
    psi = system(7, [(1, 1)])
    assert counting_integral_I(psi, constant_trig_poly(1)) == pytest.approx(1)


def test_counting_integral_all_off_lattice():
    psi = system(5, [(1, 1)])
    F = TrigPoly(1, {((1,), (1,), (1,)): 0.7})
    I = counting_integral_I(psi, F)
    assert I == pytest.approx(0)


def test_counting_integral_dual_agreement(rng):
    psi = system(5, [(1, 1)])
    for _ in range(5):
        F = TrigPoly.random(1, rng, n_terms=3, max_freq=1)
        coeff = counting_integral_I(psi, F, cross_check=False)
        direct = counting_integral_direct(psi, F)
        assert abs(coeff - direct) < 1e-9


def test_counting_lemma_constant():
    psi = system(13, [(1, 1)])
    S = bohr_set(psi, Fraction(1, 2))
    rep = counting_lemma_check(psi, constant_trig_poly(1), S, Fraction(1, 2))
    assert rep.lhs < 1e-9


def test_counting_lemma_rejects_S_outside_bohr():
    psi = system(13, [(1, 1)])
    with pytest.raises(ValueError):
        counting_lemma_check(psi, constant_trig_poly(1), range(13),
                             Fraction(1, 100))


def test_counting_lemma_seeded_budget(rng):
    psi = system(31, [(1, 1)])
    for _ in range(3):
        F = TrigPoly.random(1, rng, n_terms=3, max_freq=1)
        S = bohr_set(psi, Fraction(3, 10))
        rep = counting_lemma_check(psi, F, S, Fraction(3, 10))
        assert rep.ok()


def test_system_extension_prefix():
    psi = system(13, [(1, 1)])
    ext = psi.extended([(2, 3)])
    assert ext.dims[:psi.d] == psi.dims and ext.d == psi.d + 1


def test_compose_signal_unit_modulus():
    psi = system(13, [(1, 1)])
    F = TrigPoly(1, {((1,), (0,), (0,)): 1.0})
    f = compose_signal(psi, F)
    assert np.allclose(np.abs(f.values), 1)


@pytest.mark.parametrize("x", (float("inf"), float("-inf"), float("nan")))
def test_as_fraction_rejects_non_finite(x):
    with pytest.raises(ValueError):
        as_fraction(x)


def test_lattice_residue_sums_match_the_dot_product_loops(rng):
    hits = {"rhs": 0, "I": 0}
    for _ in range(130):
        p = int(rng.choice([5, 7, 11, 13, 17]))
        d = int(rng.integers(1, 4))
        for psi in oracle_systems(p, d, rng):
            F = TrigPoly.random(d, rng, n_terms=int(rng.integers(1, 7)),
                                max_freq=int(rng.integers(1, 3)))
            rhs, _ = baby_count_lattice_sum(psi, F)
            assert abs(baby_count(psi, F)[1] - rhs) <= 1e-12
            I = counting_integral_loop(psi, F)
            assert abs(counting_integral_I(psi, F, cross_check=False) - I) <= 1e-12
            hits["rhs"] += rhs != 0
            hits["I"] += I != 0
    assert min(hits.values()) >= 100, hits


def test_baby_count_asserts_the_single_mode_bound(monkeypatch):
    psi = system(11, [(1, 1)])
    F = TrigPoly(1, {((1,), (0,), (0,)): 1.0, ((0,), (0,), (0,)): 0.5})
    baby_count(psi, F)  # |E_x e(x^2/11)| = 11^{-1/2} <= 6/sqrt(11)
    monkeypatch.setitem(AUDIT_CONSTANTS, "babycount_single_mode", 1e-6)
    with pytest.raises(AssertionError, match="single-mode bound"):
        baby_count(psi, F)


def test_cross_checks_fire_when_the_lattice_test_lies(monkeypatch):
    def every_term_on_the_lattices(psi, F):
        *residues, c = _lattice_residues(psi, F)
        return (*(np.zeros_like(r) for r in residues), c)
    monkeypatch.setattr("fpharmonics.qm._lattice_residues", every_term_on_the_lattices)
    F = TrigPoly(1, {((1,), (0,), (0,)): 1.0})
    with pytest.raises(AssertionError, match="orthogonality mismatch"):
        baby_count(system(11, [(1, 1)]), F)
    with pytest.raises(AssertionError, match="I\\(F\\) mismatch"):
        counting_integral_I(system(5, [(1, 1)]), F, cross_check=True)


def test_baby_count_cross_checks_the_H_average_at_every_p(monkeypatch):
    # the H average costs O(p), but a budget on |H| = p^2 (p - 1) once
    # skipped it from p = 223 on (|H| = 11,039,838), so a wrong average passed
    psi = system(223, [(1, 1)])
    F = TrigPoly(1, {((1,), (0,), (0,)): 1.0, ((0,), (0,), (0,)): 0.5})
    assert enumerate_H(psi).size == 223**2 * 222
    baby_count(psi, F)
    monkeypatch.setattr("fpharmonics.qm._average_over_H", lambda F, H: 1.0)
    with pytest.raises(AssertionError, match="^orthogonality mismatch: "):
        baby_count(psi, F)


# -- the meshgrid evaluation: oracle for the phase-table evaluators ----------

def trig_eval_batch(F, p, TH1, TH2, V):
    """F at N points given numerator arrays (N, d), one np.exp per term."""
    q = p - 1
    total = np.zeros(TH1.shape[0], dtype=np.complex128)
    for (x1, x2, x3), c in F.terms.items():
        n12 = (TH1 @ np.array(x1, dtype=np.int64)
               + TH2 @ np.array(x2, dtype=np.int64)) % p
        n3 = (V @ np.array(x3, dtype=np.int64)) % q
        total += c * np.exp(2j * np.pi * (n12 / p + n3 / q))
    return total


def average_over_H_meshgrid(F, H):
    p = H.psi.ctx.p
    it, iu, iv = (a.ravel() for a in np.meshgrid(
        np.arange(len(H.gplus)), np.arange(len(H.gplus)),
        np.arange(len(H.gtimes)), indexing="ij"))
    return np.mean(trig_eval_batch(F, p, H.gplus[it], H.gplus[iu], H.gtimes[iv]))


def counting_integral_meshgrid(psi, F):
    H = enumerate_H(psi)
    p = psi.ctx.p
    gp, gt = H.gplus, H.gtimes
    n, nt = len(gp), len(gt)
    it, iu, itp, iup, iv, ivp = (a.ravel() for a in np.meshgrid(
        *(np.arange(n),) * 4, np.arange(nt), np.arange(nt), indexing="ij"))
    t, u, tp, up, v, vp = gp[it], gp[iu], gp[itp], gp[iup], gt[iv], gt[ivp]
    return np.mean(trig_eval_batch(F, p, t, u, v)
                   * trig_eval_batch(F, p, (t + up) % p, u, vp)
                   * trig_eval_batch(F, p, tp, up, v))


def oracle_systems(p, d, rng):
    """Four random systems from full orbits to small ones: every other one
    has a = 0 (|G+| = 1), and each k is a multiple of a random divisor of
    p - 1, so |Gx| varies too."""
    divisors = [m for m in range(1, p) if (p - 1) % m == 0]
    for j in range(4):
        m = int(rng.choice(divisors))
        yield system(p, [(0 if j % 2 else int(rng.integers(1, p)),
                          m * int(rng.integers(0, (p - 1) // m))) for _ in range(d)])


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("p", (5, 7, 11, 13, 31))
def test_phase_table_evaluators_match_meshgrid_oracle(p, d, rng):
    # the carrier's I(F) holds the triple A = e(-t), B = e(t), C = e(-u):
    # B's phase at t + u' survives the average only through u', so a wrong
    # shift index changes I(F) whenever a_1 != 0
    z, e1 = (0,) * d, (1,) + (0,) * (d - 1)
    minus = tuple(-x for x in e1)
    carrier = TrigPoly(d, {(minus, z, z): 1.0, (e1, z, z): 0.7, (z, minus, z): 0.5j})
    checked = {"H": 0, "H2": 0}
    for psi in oracle_systems(p, d, rng):
        H = enumerate_H(psi)
        for F in (TrigPoly.random(d, rng, n_terms=4, max_freq=2), carrier):
            oracle = trig_eval_batch(F, p, *orbit_arrays(psi))
            assert np.max(np.abs(compose_signal(psi, F).values - oracle)) < 1e-12
            if H.size <= 3 * 10**4:
                assert abs(_average_over_H(F, H) - average_over_H_meshgrid(F, H)) < 1e-12
                checked["H"] += 1
            if H.size**2 <= 10**5:
                assert abs(counting_integral_direct(psi, F)
                           - counting_integral_meshgrid(psi, F)) < 1e-12
                checked["H2"] += 1
    assert checked["H"] >= 4 and checked["H2"] >= 4, checked


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("p", (61, 101))
def test_average_over_H_matches_the_pointwise_average(p, d, rng):
    # full orbits (|H| = p^2 (p-1): 223,260 and 1,020,100), a = 0 (|G+| = 1),
    # k sharing a factor with p - 1, and k = 0 (|Gx| = 1). The probe terms
    # average to 1 or 0 factor by factor (the constant, and e1 in one block
    # with 0 in the others), so a missing, misplaced or unnormalised orbit
    # mean moves the average.
    z, e1 = (0,) * d, (1,) + (0,) * (d - 1)
    probe = {(z, z, z): 0.3, (e1, z, z): 0.2j, (z, e1, z): -0.25, (z, z, e1): 0.4}
    q = p - 1
    a = [int(x) for x in rng.integers(1, p, d)]
    k = [int(x) for x in rng.integers(0, q, d)]
    systems = [[(a[0], 1)] + list(zip(a[1:], k[1:])),
               [(0, 2 * x % q) for x in k],
               [(x, 6 * y % q) for x, y in zip(a, k)],
               [(0, 0)] * d]
    sizes = []
    for dims in systems:
        H = enumerate_H(system(p, dims))
        F = TrigPoly(d, {**TrigPoly.random(d, rng, n_terms=4, max_freq=2).terms, **probe})
        assert abs(_average_over_H(F, H) - average_over_H_pointwise(F, H)) < 1e-12
        sizes.append(H.size)
    assert sizes[0] == p * p * q and sizes[1] < q and sizes[3] == 1, sizes


@pytest.mark.parametrize("call, p, limit_mb", [("baby_count", 211, 50),
                                                ("counting_integral_direct", 11, 20)])
def test_H_enumerations_hold_bounded_memory(call, p, limit_mb):
    # baby_count covers |H| = 211^2 * 210 = 9.35e6 points from 2 * 211 + 210
    # orbit rows; the H^2 oracle evaluates |H|^2 = 1.46e6 points at p = 11
    script = textwrap.dedent(f"""
        import resource
        import numpy as np
        from fpharmonics.field import cached_field
        from fpharmonics.qm import QMSystem, TrigPoly, {call}
        F = TrigPoly.random(1, np.random.default_rng(0))
        {call}(QMSystem(cached_field(5), [(1, 1)]), F)
        psi = QMSystem(cached_field({p}), [(1, 1)])
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        {call}(psi, F)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
    """)
    src = Path(fpharmonics.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    grown_mb = int(proc.stdout) / (1024**2 if sys.platform == "darwin" else 1024)
    assert grown_mb <= limit_mb
