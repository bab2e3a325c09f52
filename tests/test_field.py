from __future__ import annotations

import numpy as np
import pytest

from fpharmonics.field import (MultChar, cached_field, mult_char_values,
                               new_field, quad_phase_values)
from reference import ORACLE_PRIMES, field_tables_loop


def test_primitive_root_p7():
    ctx = new_field(7)
    assert ctx.g == 3
    assert ctx.dlog[3] == 1
    assert ctx.dlog[2] == 2


def test_primitive_root_p5():
    ctx = new_field(5)
    assert ctx.g == 2
    # 2 generates {2, 4, 3, 1}
    assert [ctx.pow_g[a] for a in range(4)] == [1, 2, 4, 3]


def test_composite_rejected_with_witness():
    for n, witness in [(9, 3), (4, 2), (25, 5), (91, 7), (100001, 11)]:
        with pytest.raises(ValueError,
                           match=f"^p={n} is not prime: divisible by {witness}$"):
            new_field(n)


def test_add_char_fixtures():
    # e_p(r x) is the quadratic phase with no x^2 term
    assert quad_phase_values(cached_field(7), 0, 0)[5] == pytest.approx(1)
    assert quad_phase_values(cached_field(5), 0, 1)[1] == pytest.approx(
        np.exp(2j * np.pi / 5))
    # r=3, x=2 -> e_p(6)
    assert quad_phase_values(cached_field(7), 0, 3)[2] == pytest.approx(
        np.exp(2j * np.pi * 6 / 7))


def test_mult_char_fixtures():
    ctx5 = cached_field(5)
    assert mult_char_values(cached_field(7), MultChar(0))[4] == pytest.approx(1)
    # dlog_2(4) = 2, e(2*2/4) = 1
    assert mult_char_values(ctx5, MultChar(2))[4] == pytest.approx(1)
    # chi(0) = 1 convention, for every k
    assert mult_char_values(ctx5, MultChar(1))[0] == pytest.approx(1)
    for k in range(-13, 26):
        assert mult_char_values(cached_field(13), MultChar(k))[0] == pytest.approx(1)


@pytest.mark.parametrize("p", [3, 5, 13, 401, 1009])
def test_log_of_zero_is_zero_mod_p_minus_1_and_above_every_log_sum(p):
    # chi(0) = 1 rests on the first; the second keeps 2(p-1) clear of every
    # log of F*, so the pair walk reads zech = dlog 0 at t = -1 as a row of
    # its own
    ctx = cached_field(p)
    assert ctx.dlog[0] % (p - 1) == 0
    assert ctx.dlog[0] > 2 * (p - 2)


@pytest.mark.parametrize("p", ORACLE_PRIMES + (100_003,))
def test_power_log_and_zech_tables_match_the_loop(p):
    ctx = new_field(p)
    pow_g, dlog, zech = field_tables_loop(p, ctx.g)
    assert ctx.pow_g.tolist() == pow_g
    assert ctx.dlog.tolist() == dlog
    assert ctx.zech.tolist() == zech
    # g^zech[c] = 1 + g^c, but for t = g^c = -1 zech is the log of 0
    half = (p - 1) // 2
    assert ctx.zech[half] == ctx.dlog[0] == 2 * (p - 1)
    c = np.flatnonzero(np.arange(p - 1) != half)
    assert np.array_equal(ctx.pow_g[ctx.zech[c]], (ctx.pow_g[c] + 1) % p)


def test_dlog_pow_inverse():
    ctx = cached_field(31)
    for x in range(1, 31):
        assert ctx.pow_g[ctx.dlog[x]] == x


def test_tables_unit_modulus():
    ctx = cached_field(13)
    assert np.allclose(np.abs(ctx.roots_p), 1)
    assert np.allclose(np.abs(ctx.roots_pm1), 1)


def test_cached_field_keys_on_int_value():
    cached_field.cache_clear()
    try:
        assert cached_field(np.int64(13)) is cached_field(13)
        info = cached_field.cache_info()
        assert info.currsize == 1 and info.hits == 1 and info.misses == 1
        with pytest.raises(TypeError):
            cached_field(13.0)
    finally:
        cached_field.cache_clear()
