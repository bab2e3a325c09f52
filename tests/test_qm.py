from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from fpharmonics.field import cached_field
from fpharmonics.qm import (GPoint, LatticeTests, QMSystem, TrigPoly,
                            baby_count, bohr_set, box_fraction,
                            check_bohr_density, check_pigeon_projection,
                            compose_signal, counting_integral_I,
                            counting_integral_direct, counting_lemma_check,
                            enumerate_H, eval_system, trig_norm)


def system(p, dims):
    return QMSystem(cached_field(p), dims)


def test_eval_system_identity_at_zero():
    psi = system(5, [(1, 1)])
    pt = eval_system(psi, 0)
    assert pt.fractions() == ((Fraction(0), Fraction(0), Fraction(0)),)


def test_eval_system_p5_fixtures():
    # a=1, k=0, x=2: (4/5, 4/5, 0)
    pt = eval_system(system(5, [(1, 0)]), 2)
    assert pt.fractions() == ((Fraction(4, 5), Fraction(4, 5), Fraction(0)),)
    # a=1, k=1, g=2, x=3: (4/5, 1/5, 3/4) since 3 = 2^3
    pt = eval_system(system(5, [(1, 1)]), 3)
    assert pt.fractions() == ((Fraction(4, 5), Fraction(1, 5), Fraction(3, 4)),)


def test_metric_symmetric_and_triangle(rng):
    psi = system(13, [(1, 1)])
    pts = [eval_system(psi, int(x)) for x in rng.integers(0, 13, 12)]
    for a in pts[:4]:
        for b in pts[4:8]:
            assert a.sub(b).metric() == b.sub(a).metric()
            for c in pts[8:]:
                assert a.sub(c).metric() <= (a.sub(b).metric()
                                             + b.sub(c).metric())


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


def test_H_annihilates_lattices():
    psi = system(7, [(1, 2), (2, 4)])
    H = enumerate_H(psi)
    lat = LatticeTests(psi)
    # every lattice vector pairs to an integer against every H element
    for xi in [(1, 0), (0, 1), (3, 2), (5, 5)]:
        if lat.in_lambda_plus(xi):
            for row in H.gplus:
                assert sum(x * int(r) for x, r in zip(xi, row)) % 7 == 0
        if lat.in_lambda_times(xi):
            for row in H.gtimes:
                assert sum(x * int(r) for x, r in zip(xi, row)) % 6 == 0


def test_trig_norm_fixtures(rng):
    assert trig_norm(TrigPoly.constant(1)) == 1
    F = TrigPoly(1, {((3,), (0,), (0,)): 1.0})
    assert trig_norm(F) == 3
    # shift invariance
    psi = system(13, [(1, 1)])
    G = TrigPoly.random(1, rng, n_terms=3, max_freq=1)
    h = eval_system(psi, 5)
    assert trig_norm(G.shifted(h)) == pytest.approx(trig_norm(G))


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


def test_exact_integer_bohr_and_box_match_fraction_loops(rng):
    """Reference: Bohr membership by the exact GPoint metric, box membership
    by one Fraction comparison per coordinate."""
    for trial in range(40):
        p = int(rng.choice([13, 31, 61, 101]))
        d = int(rng.integers(1, 4))
        psi = system(p, [(int(rng.integers(0, p)), int(rng.integers(0, p - 1)))
                         for _ in range(d)])
        eps = (float(rng.uniform(0.01, 1.0)) if trial % 2
               else Fraction(int(rng.integers(1, 20)), int(rng.integers(20, 41))))
        exact = Fraction(*eps.as_integer_ratio()) if trial % 2 else eps
        assert bohr_set(psi, eps) == [
            x for x in range(p) if eval_system(psi, x).metric() <= exact]

        def inside(rows, den):
            return sum(all(Fraction(min(n, den - n), den) <= exact for n in row)
                       for row in rows.tolist())
        H = enumerate_H(psi)
        expected = Fraction(inside(H.gplus, p) ** 2 * inside(H.gtimes, p - 1),
                            H.size)
        assert box_fraction(psi, eps) == (expected, exact ** (3 * d))


def test_bohr_density_p101():
    psi = system(101, [(1, 1)])
    mu, floor = check_bohr_density(psi, Fraction(1, 2))
    assert mu >= floor == Fraction(1, 8) * Fraction(1, 8) ** 3


def test_pigeon_projection_z10():
    measure, bound = check_pigeon_projection(
        [10], [(Fraction(1, 10),)], Fraction(1, 4))
    assert measure == Fraction(5, 10)
    assert measure >= bound


@pytest.mark.parametrize("p", (5, 7, 11))
def test_pigeon_projection_prime_suite(p):
    measure, bound = check_pigeon_projection(
        [p], [(Fraction(1, p),)], Fraction(1, 4))
    assert measure >= bound


def test_baby_count_constant():
    psi = system(7, [(1, 1)])
    lhs, rhs, margin = baby_count(psi, TrigPoly.constant(1))
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
    assert counting_integral_I(psi, TrigPoly.constant(1)) == pytest.approx(1)


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
    rep = counting_lemma_check(psi, TrigPoly.constant(1), S, Fraction(1, 2))
    assert rep.lhs < 1e-9


def test_counting_lemma_rejects_S_outside_bohr():
    psi = system(13, [(1, 1)])
    with pytest.raises(ValueError):
        counting_lemma_check(psi, TrigPoly.constant(1), range(13),
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
    assert ext.extends(psi)
    assert not psi.extends(ext)


def test_compose_signal_unit_modulus():
    psi = system(13, [(1, 1)])
    F = TrigPoly(1, {((1,), (0,), (0,)): 1.0})
    f = compose_signal(psi, F)
    assert np.allclose(np.abs(f.values), 1)
