from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpharmonics.counting import phased_character_example
from fpharmonics.field import MultChar, cached_field, mult_char_values
from fpharmonics.harmonic import (Signal, add_invert, add_transform, convolve,
                                  indicator, inner_product, norm_qm,
                                  norm_u2_plus, norm_u2_times, norm_u3_plus,
                                  ones, quad_phase_inner_products,
                                  random_signal, signal_load)
from reference import qm_basis_signal, signal_to_json

PRIMES = (5, 7, 13, 31)


def test_delta_transform():
    ctx = cached_field(7)
    f = indicator(ctx, [0])
    spec = add_transform(f)
    assert np.allclose(spec, 1 / 7)


def test_ones_transform():
    ctx = cached_field(11)
    spec = add_transform(ones(ctx))
    expected = np.zeros(11, dtype=complex)
    expected[0] = 1
    assert np.allclose(spec, expected)


@pytest.mark.parametrize("p", PRIMES)
def test_roundtrip_and_parseval(p, rng):
    ctx = cached_field(p)
    for _ in range(20):
        f = random_signal(ctx, rng)
        spec = add_transform(f)
        back = add_invert(ctx, spec)
        assert np.max(np.abs(back.values - f.values)) < 1e-10
        assert abs(np.sum(np.abs(spec) ** 2) - f.lp_norm(2) ** 2) < 1e-9


def test_convolution_transform_identity(rng):
    ctx = cached_field(17)
    f = random_signal(ctx, rng)
    g = random_signal(ctx, rng)
    lhs = add_transform(convolve(f, g))
    rhs = add_transform(f) * add_transform(g)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_convolution_of_ones():
    ctx = cached_field(13)
    h = convolve(ones(ctx), ones(ctx))
    assert np.allclose(h.values, 1)


def test_convolution_of_deltas_translates():
    ctx = cached_field(13)
    h = convolve(indicator(ctx, [3]), indicator(ctx, [4]))
    expected = np.zeros(13, dtype=complex)
    expected[7] = 1 / 13
    assert np.allclose(h.values, expected)


def test_norms_of_ones():
    ctx = cached_field(13)
    f = ones(ctx)
    for norm in (norm_u2_plus, norm_u2_times, norm_u3_plus, norm_qm):
        assert norm(f).value == pytest.approx(1, abs=1e-12)


def test_norms_of_quadratic_phase():
    ctx = cached_field(13)
    x = np.arange(13)
    f = Signal(ctx, ctx.roots_p[x * x % 13])
    res = norm_u3_plus(f)
    assert res.value == pytest.approx(1, abs=1e-12)
    assert res.witness == (1, 0)
    assert norm_u2_plus(f).value == pytest.approx(1 / np.sqrt(13), abs=1e-12)


def test_u2_times_of_character():
    from fpharmonics.field import MultChar, mult_char_values
    ctx = cached_field(13)
    f = Signal(ctx, mult_char_values(ctx, MultChar(1)))
    # <chi, chi> = 1 exactly with the chi(0) = 1 convention
    assert norm_u2_times(f).value == pytest.approx(1, abs=1e-12)


def test_u2_times_seminorm_degeneracy():
    ctx = cached_field(13)
    vals = np.zeros(13, dtype=complex)
    vals[0], vals[1] = 1.0, -1.0
    f = Signal(ctx, vals)
    # chi(0) = chi(1) = 1 for every chi, so all inner products vanish
    assert norm_u2_times(f).value == pytest.approx(0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6))
def test_norm_chain(p, seed):
    ctx = cached_field(p)
    f = random_signal(ctx, np.random.default_rng(seed))
    u2 = norm_u2_plus(f).value
    u3 = norm_u3_plus(f).value
    qm = norm_qm(f).value
    l1 = f.lp_norm(1)
    assert u2 <= u3 + 1e-12
    assert u3 <= qm + 1e-12
    assert qm <= l1 + 1e-12


TIE_RTOL = 1e-12


def first_near_max(rows):
    """(max, (i, j)) over a list of arrays: i is the first array holding a
    value within relative TIE_RTOL of the overall max, j the first such
    flat index in it (the tie rule NormResult documents)."""
    top = max(float(row.max()) for row in rows)
    for i, row in enumerate(rows):
        hits = np.flatnonzero(row >= top * (1 - TIE_RTOL))
        if hits.size:
            return top, (i, int(hits[0]))


def u3_plus_loop(f):
    """Reference: one length-p transform per quadratic coefficient r."""
    p = f.p
    x = np.arange(p)
    rows = [np.abs(np.fft.fft(f.values * f.ctx.roots_p[(-r * x * x) % p]) / p)
            for r in range(p)]
    return first_near_max(rows)


def qm_loop(f):
    """Reference: for each r, transform along the x axis, one row per
    character k of the matrix conj(chi_k(x)) f(x) conj(e_p(r x^2))."""
    ctx, p = f.ctx, f.p
    x = np.arange(p)
    C = np.ones((p - 1, p), dtype=np.complex128)
    C[:, 1:] = ctx.roots_pm1[(-np.arange(p - 1)[:, None] * ctx.dlog[1:]) % (p - 1)]
    rows = [np.abs(np.fft.fft(C * (f.values * ctx.roots_p[(-r * x * x) % p]),
                              axis=1)).T / p  # [s, k]
            for r in range(p)]
    top, (r, flat) = first_near_max(rows)
    return top, (r, *divmod(flat, p - 1))


@pytest.mark.parametrize("p", (13, 31, 61, 101))
def test_batched_u3_plus_matches_loop(p, rng):
    ctx = cached_field(p)
    signals = [random_signal(ctx, rng, kind=k, unit_l2=True)
               for k in ("gaussian", "signs", "bounded")]
    signals += list(phased_character_example(ctx)[:4])
    signals += [qm_basis_signal(ctx, 2, 3, 0), qm_basis_signal(ctx, 1, 0, 1),
                ones(ctx)]
    for f in signals:
        value, witness = u3_plus_loop(f)
        res = norm_u3_plus(f)
        assert res.value == pytest.approx(value, rel=1e-12, abs=1e-12)
        assert res.witness == witness
        r, s = witness
        assert abs(quad_phase_inner_products(f)[r, s]) == pytest.approx(
            value, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("p", (13, 31, 61))
def test_norm_qm_matches_x_axis_loop(p, oracle_signals):
    for f in oracle_signals(cached_field(p)):
        value, witness = qm_loop(f)
        res = norm_qm(f)
        assert res.value == pytest.approx(value, rel=1e-12, abs=1e-12)
        assert res.witness == witness


@pytest.mark.parametrize("p", (13, 31, 61))
def test_real_signals_take_the_smaller_conjugate_witness(p):
    """For real f, |<f, psi>| = |<f, conj(psi)>|: the parameters (r, s, k)
    and (-r, -s, -k) tie exactly, and the witness is the smaller one."""
    ctx = cached_field(p)
    rng = np.random.default_rng(p)
    signals = [random_signal(ctx, rng, kind="signs") for _ in range(8)]
    signals.append(Signal(ctx, mult_char_values(ctx, MultChar((p - 1) // 2))))
    moduli = {norm_u2_plus: (p,), norm_u2_times: (p - 1,),
              norm_u3_plus: (p, p), norm_qm: (p, p, p - 1)}
    for f in signals:
        for norm, mods in moduli.items():
            witness = norm(f).witness
            twin = tuple(-c % m for c, m in zip(witness, mods))
            assert witness <= twin, (norm.__name__, witness, twin)


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf, complex(0, np.nan)))
def test_signal_rejects_non_finite(bad, tmp_path):
    ctx = cached_field(7)
    vals = np.ones(7, dtype=np.complex128)
    vals[3] = bad
    with pytest.raises(ValueError):
        Signal(ctx, vals)
    payload = signal_to_json(ones(ctx))
    payload["values"][3] = [complex(bad).real, complex(bad).imag]
    path = tmp_path / "signal.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        signal_load(path, ctx)


def test_qm_norm_attains_basis_signal():
    ctx = cached_field(13)
    f = qm_basis_signal(ctx, 2, 5, 3)
    res = norm_qm(f)
    assert res.value == pytest.approx(1, abs=1e-12)
    assert res.witness == (2, 5, 3)


def test_json_roundtrip(rng, tmp_path):
    ctx = cached_field(11)
    f = random_signal(ctx, rng)
    path = tmp_path / "signal.json"
    path.write_text(json.dumps(signal_to_json(f)))
    g = signal_load(path, ctx)
    assert np.array_equal(f.values, g.values)


def test_inner_product_conjugate_symmetry(rng):
    ctx = cached_field(11)
    f = random_signal(ctx, rng)
    g = random_signal(ctx, rng)
    assert inner_product(f, g) == pytest.approx(np.conj(inner_product(g, f)))
