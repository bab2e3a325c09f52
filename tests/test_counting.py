from __future__ import annotations

import numpy as np
import pytest

from fpharmonics.counting import (Coloring, HypothesisError, T,
                                  T_boundary_identity, T_spectral_sums,
                                  T_tilde, census_quadruples, census_triples,
                                  check_gvn_bounds, check_simple_lemma,
                                  check_u2times_star_bound, differencing_sup,
                                  phased_character_example)
from fpharmonics.field import cached_field
from fpharmonics.harmonic import (Signal, add_transform, indicator, ones,
                                  random_signal)


def test_T_all_ones():
    ctx = cached_field(11)
    one = ones(ctx)
    assert T(one, one, one, one) == pytest.approx(1)


@pytest.mark.parametrize("p", (13, 17, 31))
def test_phased_character_example(p):
    ctx = cached_field(p)
    f1, f2, f3, f4, expected = phased_character_example(ctx)
    assert abs(T(f1, f2, f3, f4) - expected) < 1e-9


def test_T_delta_slice(rng):
    ctx = cached_field(11)
    f1, f3, f4 = (random_signal(ctx, rng) for _ in range(3))
    got = T(f1, indicator(ctx, [0]), f3, f4)
    want = np.sum(f1.values * f3.values * f4.values[0]) / 11**2
    assert got == pytest.approx(want)


def test_spectral_sums_match_direct(rng):
    ctx = cached_field(17)
    f1, f2, f3 = (random_signal(ctx, rng) for _ in range(3))
    assert T_spectral_sums(f1, f2, f3) == pytest.approx(
        T(f1, f2, f3, ones(ctx)), abs=1e-9)


def test_spectral_sums_single_character(rng):
    ctx = cached_field(13)
    r = 4
    f3 = Signal(ctx, ctx.roots_p[r * np.arange(13) % 13])
    f1, f2 = random_signal(ctx, rng), random_signal(ctx, rng)
    c1 = add_transform(f1).coeffs
    c2 = add_transform(f2).coeffs
    assert T_spectral_sums(f1, f2, f3) == pytest.approx(
        c1[(-r) % 13] * c2[(-r) % 13], abs=1e-12)


def test_T_tilde_ones():
    ctx = cached_field(11)
    one = ones(ctx)
    assert T_tilde(one, one, one) == pytest.approx(1)


def test_boundary_identity(rng):
    ctx = cached_field(13)
    g1, g2, g4 = (random_signal(ctx, rng) for _ in range(3))
    assert T_boundary_identity(g1, g2, g4) == pytest.approx(
        T(g1, g2, ones(ctx), g4), abs=1e-10)


def test_census_monochrome():
    ctx = cached_field(11)
    cen = census_quadruples(ctx, Coloring(11, 1, np.zeros(11, dtype=int)))
    assert cen.total == 11**2


def test_census_quadratic_residue_regression():
    ctx = cached_field(7)
    qr = {pow(x, 2, 7) for x in range(1, 7)}
    assign = np.array([0 if (x == 0 or x in qr) else 1 for x in range(7)])
    cen = census_quadruples(ctx, Coloring(7, 2, assign))
    assert cen.per_color == (10, 0)
    assert cen.total == 10


def test_census_zero_quadruple_floor(rng):
    ctx = cached_field(13)
    assign = rng.integers(0, 3, size=13)
    cen = census_quadruples(ctx, Coloring(13, 3, assign))
    assert cen.total >= 1


def test_census_rejects_partial():
    ctx = cached_field(7)
    assign = np.full(7, -1, dtype=int)
    with pytest.raises(ValueError):
        census_quadruples(ctx, Coloring(7, 2, assign))


@pytest.mark.parametrize("bad", (-2, -5))
def test_coloring_rejects_colors_below_unassigned(bad):
    assign = np.zeros(7, dtype=int)
    assign[2] = bad
    with pytest.raises(ValueError):
        Coloring(7, 2, assign)


def test_triples_full_field():
    ctx = cached_field(11)
    assert census_triples(ctx, range(11), "shkredov") == 11**2


def test_triples_middle_third_sum_free():
    ctx = cached_field(13)
    mid = [x for x in range(13) if 13 / 3 < x < 26 / 3]
    assert census_triples(ctx, mid, "sum") == 0


def test_triples_qr_regression():
    ctx = cached_field(13)
    a = sorted({pow(x, 2, 13) for x in range(1, 13)} | {0})
    assert census_triples(ctx, a, "shkredov") == 31
    assert census_triples(ctx, a, "sum") == 31


def test_u2plus_bound_random_suite(rng):
    ctx = cached_field(31)
    for _ in range(50):
        fs = [random_signal(ctx, rng, unit_l2=True) for _ in range(4)]
        rep = check_gvn_bounds(*fs, which="u2plus")
        assert rep.ok()


def test_u2times_bound_random_suite(rng):
    ctx = cached_field(31)
    for _ in range(50):
        fs = [random_signal(ctx, rng, unit_l2=True) for _ in range(4)]
        rep = check_gvn_bounds(*fs, which="u2times")
        assert rep.ok()


def test_gvn3_and_qm_bounds(rng):
    ctx = cached_field(31)
    for _ in range(20):
        f1, f2, f4 = (random_signal(ctx, rng, kind="bounded")
                      for _ in range(3))
        # f3 must satisfy both ||f3||_2 <= 1 and ||f3||_inf <= p^{1/16}
        f3 = random_signal(ctx, rng, kind="bounded")
        assert check_gvn_bounds(f1, f2, f3, f4, which="gvn3").ok()
        assert check_gvn_bounds(f1, f2, f4, f4, which="gvnQM").ok()


def test_gvn_hypothesis_rejection():
    ctx = cached_field(13)
    big = Signal(ctx, np.full(13, 5.0, dtype=complex))
    with pytest.raises(HypothesisError):
        check_gvn_bounds(big, big, big, big, which="u2plus")


def test_u2times_star_bound(rng):
    ctx = cached_field(31)
    for _ in range(20):
        gs = [random_signal(ctx, rng, unit_l2=True) for _ in range(3)]
        assert check_u2times_star_bound(*gs).ok()


def test_differencing_lemma(rng):
    from fpharmonics.harmonic import norm_u3_plus
    ctx = cached_field(31)
    for _ in range(20):
        f = random_signal(ctx, rng, unit_l2=True)
        assert differencing_sup(f) <= norm_u3_plus(f).value ** 2 + 1e-9


def test_simple_lemma_empty_S(rng):
    ctx = cached_field(17)
    fs = [random_signal(ctx, rng, unit_l2=True) for _ in range(3)]
    rep = check_simple_lemma(fs[0], fs[1], fs[2], [])
    assert rep.ok()


def test_simple_lemma_ones_full():
    ctx = cached_field(17)
    one = ones(ctx)
    rep = check_simple_lemma(one, one, one, range(17))
    assert rep.lhs == pytest.approx(1)
    assert rep.ok()


def test_simple_lemma_random_suite(rng):
    ctx = cached_field(17)
    for _ in range(30):
        fs = [random_signal(ctx, rng, unit_l2=True) for _ in range(3)]
        s = rng.choice(17, size=3, replace=False)
        assert check_simple_lemma(fs[0], fs[1], fs[2], s.tolist()).ok()
