from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from fpharmonics.charsums import (check_mixed_sum, gauss_sum, mixed_sum,
                                  u3_box_sum, weil_product_sum)
from fpharmonics.field import MultChar, cached_field, mult_char_values
from fpharmonics.harmonic import difference_spectrum


def test_gauss_trivial_cases():
    ctx = cached_field(13)
    assert gauss_sum(ctx, 0, 0) == pytest.approx(13)
    assert gauss_sum(ctx, 0, 3) == pytest.approx(0, abs=1e-12)


def test_gauss_modulus_p13():
    ctx = cached_field(13)
    assert abs(gauss_sum(ctx, 1, 0)) == pytest.approx(math.sqrt(13))


def test_gauss_random_draws(rng):
    for p in (31, 61, 101):
        ctx = cached_field(p)
        for _ in range(10):
            a = int(rng.integers(1, p))
            b = int(rng.integers(0, p))
            assert abs(abs(gauss_sum(ctx, a, b)) - math.sqrt(p)) < 1e-8


def test_weil_single_character():
    ctx = cached_field(13)
    s, bound = weil_product_sum(ctx, [MultChar(1)], [0])
    # sum of chi over F is the chi(0)=1 defect alone
    assert abs(s) <= 1 + 1e-12
    assert bound == pytest.approx(1)


def test_weil_rejects_all_principal():
    ctx = cached_field(13)
    with pytest.raises(ValueError):
        weil_product_sum(ctx, [MultChar(0), MultChar(0)], [0, 1])


def test_weil_rejects_t_at_least_p_naming_both():
    # once "need t < p", where t is no flag of `charsum --p 3`
    with pytest.raises(ValueError, match=r"^need t < p: t = 3 characters at p = 3$"):
        weil_product_sum(cached_field(3), [MultChar(1)] * 3, [0, 1, 2])


def test_weil_rejects_repeated_shifts():
    ctx = cached_field(13)
    with pytest.raises(ValueError):
        weil_product_sum(ctx, [MultChar(1), MultChar(2)], [3, 3])


def test_weil_random_suite(rng):
    ctx = cached_field(31)
    for _ in range(100):
        t = int(rng.integers(2, 4))
        chis = [MultChar(int(rng.integers(0, 30))) for _ in range(t)]
        if all(c.is_principal() for c in chis):
            chis[0] = MultChar(1)
        shifts = rng.choice(31, size=t, replace=False)
        weil_product_sum(ctx, chis, [int(h) for h in shifts])  # asserts bound


def test_mixed_rejects_degenerate():
    ctx = cached_field(13)
    with pytest.raises(ValueError):
        mixed_sum(ctx, 0, 0, MultChar(0), MultChar(0), 1)
    with pytest.raises(ValueError):
        mixed_sum(ctx, 1, 0, MultChar(1), MultChar(1), 0)


def test_mixed_principal_characters_reduce_to_gauss():
    ctx = cached_field(31)
    s, mag = mixed_sum(ctx, 2, 0, MultChar(0), MultChar(0), 5)
    assert mag == pytest.approx(math.sqrt(31) / 31)


def test_mixed_budget_suite(rng):
    for p in (31, 61, 101):
        ctx = cached_field(p)
        for _ in range(10):
            a = int(rng.integers(0, p))
            b = int(rng.integers(0, p))
            k, k2 = (int(rng.integers(0, p - 1)) for _ in range(2))
            if a == 0 and b == 0 and k == 0 and k2 == 0:
                a = 1
            rep = check_mixed_sum(ctx, a, b, MultChar(k), MultChar(k2),
                                  int(rng.integers(1, p)))
            assert rep.ok()


def test_mixed_magnitude_decreasing_trend():
    # matched parameter family across p: mean magnitude must decrease
    means = []
    for p in (31, 61, 101):
        ctx = cached_field(p)
        mags = [mixed_sum(ctx, 1, b, MultChar(1), MultChar(2), 1)[1]
                for b in range(1, 11)]
        means.append(np.mean(mags))
    assert means[0] > means[1] > means[2]


def test_u3_box_quadratic_character():
    ctx = cached_field(13)
    quad_k = (13 - 1) // 2
    val = u3_box_sum(ctx, MultChar(quad_k), MultChar(0), 1)
    assert val <= 7 / math.sqrt(13) + 34 / 13 + 1e-9


@pytest.mark.parametrize("p", (13, 31, 61))
def test_u3_box_budget_sweep(p):
    ctx = cached_field(p)
    val = u3_box_sum(ctx, MultChar(1), MultChar(2), 1)
    assert val <= 7 / math.sqrt(p) + 34 / p + 1e-9


def test_u3_box_rejects_large_p():
    ctx = cached_field(101)
    with pytest.raises(ValueError):
        u3_box_sum(ctx, MultChar(1), MultChar(0), 1)


def u3_box_loop(F):
    """Reference: the eight-fold correlation
    E_{x, z1, z2, z3} prod_{w in {0,1}^3} C^{|w|} F(x + w.z), one (z1, z2)
    at a time with x and z3 vectorized."""
    p = len(F)
    x = np.arange(p, dtype=np.int64)
    xg, z3g = x[:, None], x[None, :]
    total = 0j
    for z1 in range(p):
        for z2 in range(p):
            prod = np.ones((p, p), dtype=np.complex128)
            for w in itertools.product((0, 1), repeat=3):
                f = F[(xg + w[0] * z1 + w[1] * z2 + w[2] * z3g) % p]
                prod *= np.conj(f) if sum(w) % 2 else f
            total += np.sum(prod)
    return float(np.real(total)) / p**4


@pytest.mark.parametrize("p", (13, 31))
def test_u3_box_sum_matches_eightfold_loop(p):
    ctx = cached_field(p)
    x = np.arange(p)
    for k1, k2, h in ((1, 2, 1), ((p - 1) // 2, 0, 1), (3, 5, 7)):
        F = (mult_char_values(ctx, MultChar(k1))
             * mult_char_values(ctx, MultChar(k2))[(x + h) % p])
        assert u3_box_sum(ctx, MultChar(k1), MultChar(k2), h) == pytest.approx(
            u3_box_loop(F), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("p", (13, 31))
def test_gowers_identity_on_difference_spectrum(p, oracle_signals):
    for f in oracle_signals(cached_field(p)):
        D = difference_spectrum(f.values)
        assert np.mean(np.sum(D**2, axis=1)) == pytest.approx(
            u3_box_loop(f.values), rel=1e-12, abs=1e-12)
