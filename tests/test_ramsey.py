from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from fpharmonics.ramsey import (FiniteGroup, PairColoring, boolean_cube,
                                cyclic, dependent_random_choice, eps_r,
                                extremal_coloring, find_rich_color,
                                grid_triple_search, lambda_T)


def random_total_coloring(group, T, r, rng):
    diffs = {group.sub(a, b) for a in T for b in T}
    classes = [set() for _ in range(r)]
    for t in T:
        for u in diffs:
            classes[int(rng.integers(0, r))].add((t, u))
    return PairColoring(group, tuple(T), tuple(classes))


def test_eps_recursion_identity():
    for r in range(1, 8):
        assert 64 * r**3 * eps_r(r) == eps_r(r - 1) / 2


def test_eps_values():
    assert eps_r(1) == Fraction(1, 64)
    assert eps_r(2) == Fraction(1, 65536)


def test_lambda_trivial_cases():
    G = cyclic(5)
    T = G.elements()
    full = {(t, u) for t in T for u in T}
    assert lambda_T(G, T, full) == 1
    assert lambda_T(G, T, set()) == 0


def test_lambda_direct_vs_tables(rng):
    G = cyclic(7)
    T = G.elements()
    for _ in range(8):
        A = {(t, u) for t in T for u in T if rng.random() < 0.3}
        assert (lambda_T(G, T, A, method="direct")
                == lambda_T(G, T, A, method="tables"))


def test_lambda_distinct_at_most_full(rng):
    G = cyclic(7)
    T = G.elements()
    A = {(t, u) for t in T for u in T if rng.random() < 0.5}
    assert lambda_T(G, T, A, distinct=True) <= lambda_T(G, T, A)


def test_lambda_restricted_T():
    G = cyclic(11)
    T = [(x,) for x in range(5)]
    A = {((0,), (0,)), ((1,), (0,)), ((2,), (1,))}
    v = lambda_T(G, T, A)
    assert v == lambda_T(G, T, A, method="direct")
    assert v.denominator == 5**5 or 5**5 % v.denominator == 0


@pytest.mark.parametrize("r", (1, 2, 3))
def test_extremal_coloring(r):
    col = extremal_coloring(r)
    assert col.r == 2 * r + 1
    assert col.lam(0) == Fraction(1, 4**r)
    for i in range(1, col.r):
        assert col.lam(i) == 0


def test_drc_trivial_complete():
    nux = {i: Fraction(1, 4) for i in range(4)}
    nuy = {j: Fraction(1, 3) for j in range(3)}
    A = {(i, j) for i in range(4) for j in range(3)}
    res = dependent_random_choice(nux, nuy, A, Fraction(1, 2))
    assert res.x_prime == frozenset(range(4))
    assert not res.bad_pairs
    # no bad pair inside X', and the empty mass is still an exact Fraction
    assert type(res.bad_measure_inside) is Fraction and res.bad_measure_inside == 0


def test_drc_half_bipartite():
    nux = {i: Fraction(1, 4) for i in range(4)}
    nuy = {j: Fraction(1, 3) for j in range(3)}
    A = {(i, j) for i in range(2) for j in range(3)}
    res = dependent_random_choice(nux, nuy, A, Fraction(1, 2))
    assert res.x_prime == frozenset({0, 1})


def test_drc_random_weighted_suite():
    random.seed(11)
    for _ in range(40):
        nx = random.randint(2, 15)
        ny = random.randint(2, 15)
        wx = [random.randint(1, 6) for _ in range(nx)]
        wy = [random.randint(1, 6) for _ in range(ny)]
        nux = {i: Fraction(w, sum(wx)) for i, w in enumerate(wx)}
        nuy = {j: Fraction(w, sum(wy)) for j, w in enumerate(wy)}
        A = {(i, j) for i in range(nx) for j in range(ny)
             if random.random() < 0.5} or {(0, 0)}
        eta = Fraction(random.randint(1, 8), 8)
        dependent_random_choice(nux, nuy, A, eta)  # asserts internally


def test_drc_rejects_bad_eta():
    nux = {0: Fraction(1)}
    nuy = {0: Fraction(1)}
    with pytest.raises(ValueError):
        dependent_random_choice(nux, nuy, {(0, 0)}, Fraction(3, 2))


def test_rich_color_single_color(rng):
    G = cyclic(5)
    col = random_total_coloring(G, G.elements(), 1, rng)
    i, v = find_rich_color(col, mode="oracle")
    assert i == 0
    assert v >= eps_r(1) ** 2


def test_rich_color_extremal_oracle():
    col = extremal_coloring(2)
    i, v = find_rich_color(col, mode="oracle")
    assert i == 0
    assert v == Fraction(1, 16)
    assert v >= eps_r(5) ** 2


def test_rich_color_modes_z11(rng):
    G = cyclic(11)
    for _ in range(5):
        col = random_total_coloring(G, G.elements(), 3, rng)
        io, vo = find_rich_color(col, mode="oracle")
        ic, vc = find_rich_color(col, mode="constructive")
        assert vo >= eps_r(3) ** 2
        assert vc >= eps_r(3) ** 2
        # constructive never returns a color the oracle values below eps_r^2
        assert col.lam(ic) >= eps_r(3) ** 2


def test_rich_color_rejects_large_uncolored():
    G = cyclic(5)
    T = G.elements()
    # leave everything uncolored
    col = PairColoring(G, tuple(T), (frozenset(), frozenset()))
    with pytest.raises(ValueError):
        find_rich_color(col)


def test_grid_search_constant():
    w = grid_triple_search(np.zeros((3, 3), dtype=int))
    assert w is not None
    assert w["t2"] - w["t1"] >= 1


def test_grid_search_checkerboard():
    arr = np.indices((10, 10)).sum(axis=0) % 2
    w = grid_triple_search(arr)
    assert w is not None
    pts = {(w["t1"], w["u"]), (w["t2"], w["u"]), (w["t3"], w["t2"] - w["t1"])}
    assert len(pts) == 3
    for t, u in pts:
        assert arr[t - 1, u - 1] == w["color"]


def test_coloring_json_roundtrip():
    col = extremal_coloring(1)
    col2 = PairColoring.from_json(col.to_json())
    assert col2.group.factors == col.group.factors
    assert col2.classes == col.classes
