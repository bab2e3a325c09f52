from __future__ import annotations

import numpy as np
import pytest

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import fpharmonics
from fpharmonics import counting, harmonic
from fpharmonics.counting import (AUDIT_CONSTANTS, TOL, Coloring, MarginReport,
                                  T, T_spectral_sums, T_tilde, _pair_walk,
                                  census_quadruples, census_triples,
                                  check_gvn_bounds, check_simple_lemma,
                                  check_u2times_star_bound, differencing_sup,
                                  monochromatic_counts,
                                  phased_character_example)
from fpharmonics.field import FieldCtx, cached_field
from fpharmonics.harmonic import (Signal, add_transform, indicator, ones,
                                  random_signal)
from fpharmonics.search import fp_coloring_scan
from reference import ORACLE_PRIMES


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
    c1, c2 = add_transform(f1), add_transform(f2)
    assert T_spectral_sums(f1, f2, f3) == pytest.approx(
        c1[(-r) % 13] * c2[(-r) % 13], abs=1e-12)


def test_T_tilde_ones():
    ctx = cached_field(11)
    one = ones(ctx)
    assert T_tilde(one, one, one) == pytest.approx(1)


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


def test_census_rejects_more_colors_than_points():
    with pytest.raises(ValueError, match="at most p classes"):
        census_quadruples(cached_field(7), Coloring(7, 8, np.zeros(7, dtype=int)))


@pytest.mark.parametrize("bad", (-2, -5))
def test_coloring_rejects_colors_below_unassigned(bad):
    assign = np.zeros(7, dtype=int)
    assign[2] = bad
    with pytest.raises(ValueError):
        Coloring(7, 2, assign)


@pytest.mark.parametrize("assign", (
    [0.5, 1.7, 0],  # once truncated to [0, 1, 0]
    np.array([True, False, True]),
    np.array([0, 1, 0], dtype=object),
), ids=("float", "bool", "object"))
def test_coloring_rejects_non_integer_colors(assign):
    with pytest.raises(ValueError, match="integers"):
        Coloring(3, 2, assign)


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


def test_triples_unknown_kind_lists_the_kinds():
    # once ValueError('sums'), which named only what was passed
    with pytest.raises(ValueError, match="expected one of 'sum', 'product', 'shkredov'"):
        census_triples(cached_field(13), [1, 3], "sums")


def _gvn_bound(which):
    ctx = cached_field(13)
    f = random_signal(ctx, np.random.default_rng(0), unit_l2=True)
    return check_gvn_bounds(f, f, f, f, which=which)


@pytest.mark.parametrize("call, listed", [
    (_gvn_bound, "'u2plus', 'u2times', 'gvn3', 'gvnQM'"),
    (lambda kind: random_signal(cached_field(13), np.random.default_rng(0), kind=kind),
     "'gaussian', 'signs', 'bounded'"),
    (lambda kind: cached_field(13).grid(kind), "'add', 'mul'"),
], ids=("check_gvn_bounds", "random_signal", "grid"))
def test_an_unknown_choice_lists_the_choices(call, listed):
    # each once raised ValueError('x'), which named only what was passed
    with pytest.raises(ValueError, match=f"'x': expected one of {listed}$"):
        call("x")


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


def test_gvnqm_on_bounded_signals_takes_no_qm_sup(rng, monkeypatch):
    def no_qm_sup(f):
        raise AssertionError("norm_qm called")

    monkeypatch.setattr(counting, "norm_qm", no_qm_sup)
    p = 101
    ctx = cached_field(p)
    for _ in range(5):
        fs = [random_signal(ctx, rng, kind="bounded") for _ in range(4)]
        rep = check_gvn_bounds(*fs, which="gvnQM")
        assert rep.rhs == AUDIT_CONSTANTS["gvnqm_C"] * p**(-1 / 64)
        assert rep.details["l1_norm"] == fs[rep.details["l1_slot"] - 1].lp_norm(1)
        assert "norms_qm" not in rep.details


def _gvnqm_reference(fs):
    """(lhs, rhs, slack) of the gvnQM audit with every QM sup computed."""
    p = fs[0].p
    lhs = abs(T(*fs))
    rhs = AUDIT_CONSTANTS["gvnqm_C"] * min(
        max(p**(-1 / 64), harmonic.norm_qm(f).value**(1 / 5)) for f in fs)
    return lhs, rhs, rhs - lhs


def _gvnqm_cases(rng):
    """(label, signals, whether ||f||_1 settles the infimum)."""
    for p in (31, 61, 101):
        ctx = cached_field(p)
        yield "bounded", [random_signal(ctx, rng, kind="bounded") for _ in range(4)], True
        yield "signs", [random_signal(ctx, rng, kind="signs") for _ in range(4)], False
        yield "phased", list(phased_character_example(ctx)[:4]), False
        # constant modulus p^{-5/64}: ||f||_1^{1/5} meets the floor, and
        # the 1e-12 margin must send it down the full path
        phases = np.exp(2j * np.pi * rng.uniform(size=(4, p)))
        yield "at floor", [Signal(ctx, p**(-5 / 64) * v) for v in phases], False


def test_gvnqm_report_is_bit_identical_to_the_full_infimum(rng):
    for label, fs, settled in _gvnqm_cases(rng):
        rep = check_gvn_bounds(*fs, which="gvnQM")
        assert (rep.lhs, rep.rhs, rep.slack) == _gvnqm_reference(fs), label
        assert ("l1_slot" in rep.details) is settled, label
        assert ("norms_qm" in rep.details) is not settled, label


def test_gvn_hypothesis_rejection():
    ctx = cached_field(13)
    big = Signal(ctx, np.full(13, 5.0, dtype=complex))
    with pytest.raises(ValueError, match=r"^\|\|f1\|\|_2 > 1$"):
        check_gvn_bounds(big, big, big, big, which="u2plus")


def test_exact_slack_has_no_tolerance():
    # a float slack may fall up to TOL short; an int or Fraction one not at all
    assert MarginReport.check("float", TOL / 2, 0.0).ok()
    with pytest.raises(AssertionError, match="^fraction: "):
        MarginReport.check("fraction", Fraction(1, 10**12), 0)
    with pytest.raises(AssertionError, match="^int: "):
        MarginReport.check("int", 1, 0)


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


def differencing_sup_loop(f):
    """Reference: the mean over z for one (h, r) at a time, from the
    difference spectrum built by rolling f."""
    p = f.p
    v = f.values
    deltas = np.array([np.roll(v, -w) * np.conj(v) for w in range(p)])
    dhat = np.abs(np.fft.fft(deltas, axis=1) / p) ** 2
    zs = np.arange(p)
    return max(float(np.mean(dhat[zs * h % p, zs * r % p]))
               for h in range(1, p) for r in range(p))


@pytest.mark.parametrize("p", (13, 31, 61))
def test_differencing_sup_matches_loop(p, oracle_signals):
    for f in oracle_signals(cached_field(p)):
        assert differencing_sup(f) == pytest.approx(
            differencing_sup_loop(f), rel=1e-12, abs=1e-12)


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


# -- the p x p grid formulas the pair walk replaced, kept as oracles --

TRIPLE_KINDS = ("sum", "product", "shkredov")


def grid_T(f1, f2, f3, f4, add, mul):
    return np.sum(f1.values[:, None] * f2.values[None, :]
                  * f3.values[add] * f4.values[mul]) / f1.p**2


def grid_T_tilde(g1, g2, g4, mul):
    return np.sum(g1.values[1:, None] * g2.values[None, 1:]
                  * g4.values[mul[1:, 1:]]) / (g1.p - 1)**2


def grid_monochromatic_counts(assign, add, mul):
    cx = assign[:, None]
    return np.count_nonzero((cx == assign[None, :]) & (cx == assign[add])
                            & (cx == assign[mul]), axis=1)


def grid_triples(mask, add, mul, kind):
    mx, my = mask[:, None], mask[None, :]
    third = {"sum": my & mask[add], "product": my & mask[mul],
             "shkredov": mask[add] & mask[mul]}[kind]
    return int(np.sum(mx & third))


def assert_close(got, want):
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


def test_oracle_primes_include_an_uneven_block_split():
    """At p = 521 the walk's F* x F* blocks split the 260 rows k of each
    parity unevenly, for complex and for uint8 input, and the row t = -1
    (c = 260 = 2k, k = 130), the only one whose sums x + y are all 0, lies
    inside a block, not at its start.  The last block is the 2p - 1 pairs
    with x = 0 or y = 0."""
    p = 521
    assert p in ORACLE_PRIMES
    ctx = cached_field(p)
    for dtype, sizes, at in ((np.complex128, [7] * 37 + [1], (18, 0, 4)),
                             (np.uint8, [126, 126, 8], (1, 0, 4))):
        ones = np.ones(p, dtype=dtype)
        nonzero = (np.arange(p) != 0).astype(dtype)  # v3(x + y) = 0 only at x + y = 0
        *blocks, edge = _pair_walk(ctx, ones, ones, nonzero, ones)
        assert [S.shape[-3:] for _, _, _, S, _ in blocks] == [(2, k, p - 1) for k in sizes]
        assert [(i, int(e), int(k)) for i, (_, _, _, S, _) in enumerate(blocks)
                for e, k in zip(*np.nonzero(~S.any(axis=-1)))] == [at]
        assert edge[0] == slice(None) and edge[3].shape == (1, 1, 2 * p - 1)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_T_and_T_tilde_match_grid_oracle(p, oracle_signals, pair_grids, monkeypatch):
    """Every input against the grid; a constant fourth slot (1 or 2 - 3j)
    takes the convolution and no walk, a constant third slot the walk."""
    ctx = cached_field(p)
    add, mul = pair_grids(ctx)
    sigs = oracle_signals(ctx)
    walks = []
    monkeypatch.setattr(counting, "_pair_walk", lambda *a: walks.append(a) or _pair_walk(*a))
    constants = (ones(ctx), Signal(ctx, np.full(p, 2 - 3j)))
    for i in range(len(sigs)):
        f1, f2, f3, f4 = (sigs[(i + k) % len(sigs)] for k in range(4))
        assert_close(T(f1, f2, f3, f4), grid_T(f1, f2, f3, f4, add, mul))
        assert_close(T_tilde(f1, f2, f4), grid_T_tilde(f1, f2, f4, mul))
        assert len(walks) == 2 * (i + 1)
        for c in constants:
            got = T(f1, f2, f3, c)
            assert_close(got, grid_T(f1, f2, f3, c, add, mul))
            want = c.values[0] * T_spectral_sums(f1, f2, f3)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        assert len(walks) == 2 * (i + 1)
    f1, f2, f4 = sigs[:3]
    assert_close(T(f1, f2, constants[1], f4), grid_T(f1, f2, constants[1], f4, add, mul))
    assert len(walks) == 2 * len(sigs) + 1


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_censuses_match_grid_oracle(p, rng, pair_grids):
    ctx = cached_field(p)
    add, mul = pair_grids(ctx)
    colorings = {r: rng.integers(0, r, p) for r in (1, 2, 3, p)}
    stack = np.array(list(colorings.values()))
    want = [grid_monochromatic_counts(c, add, mul) for c in stack]
    assert np.array_equal(monochromatic_counts(ctx, stack), want)
    assert np.array_equal(monochromatic_counts(ctx, stack.astype(np.uint64)), want)
    for r, c in colorings.items():
        want = grid_monochromatic_counts(c, add, mul)
        assert np.array_equal(monochromatic_counts(ctx, c), want)
        census = census_quadruples(ctx, Coloring(p, r, c))
        assert census.per_color == tuple(int(want[c == i].sum()) for i in range(r))
        for i in sorted({0, r - 1}):
            for kind in TRIPLE_KINDS:
                assert census_triples(ctx, np.flatnonzero(c == i).tolist(), kind) \
                    == grid_triples(c == i, add, mul, kind)


def test_census_above_the_old_grid_cap_matches_T(rng):
    p = 2053  # the p x p grids stopped at p = 2048
    ctx = cached_field(p)
    c = rng.integers(0, 2, p)
    census = census_quadruples(ctx, Coloring(p, 2, c))
    for i in range(2):
        ind = indicator(ctx, np.flatnonzero(c == i).tolist())
        assert census.per_color[i] == round(p**2 * T(ind, ind, ind, ind).real)


def test_counting_kernels_build_no_grid(monkeypatch, oracle_signals, rng):
    def refuse(self, kind):
        raise RuntimeError(f"p x p {kind} grid requested")
    monkeypatch.setattr(FieldCtx, "grid", refuse)
    ctx = cached_field(13)
    f1, f2, f3, f4 = oracle_signals(ctx)[:4]
    c = rng.integers(0, 3, 13)
    T(f1, f2, f3, f4)
    T(f1, f2, f3, ones(ctx))
    T_tilde(f1, f2, f4)
    monochromatic_counts(ctx, c)
    census_quadruples(ctx, Coloring(13, 3, c))
    for kind in TRIPLE_KINDS:
        census_triples(ctx, [1, 3, 4, 9], kind)
    fp_coloring_scan(cached_field(7), 2)
    fp_coloring_scan(ctx, 3, mode="random", count=20, rng=rng)


def test_census_and_T_at_p2039_stay_small():
    script = textwrap.dedent("""
        import resource
        import numpy as np
        from fpharmonics.counting import Coloring, T, census_quadruples
        from fpharmonics.field import new_field
        from fpharmonics.harmonic import ones, random_signal
        ctx = new_field(2039)
        rng = np.random.default_rng(0)
        fs = [random_signal(ctx, rng) for _ in range(4)]
        coloring = Coloring(2039, 2, rng.integers(0, 2, 2039))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        census_quadruples(ctx, coloring)
        T(*fs)
        T(*fs[:3], ones(ctx))
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
    """)
    src = Path(fpharmonics.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    grown_mb = int(proc.stdout) / (1024**2 if sys.platform == "darwin" else 1024)
    assert grown_mb <= 50
