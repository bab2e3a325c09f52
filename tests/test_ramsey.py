from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fpharmonics
import fpharmonics.ramsey as ramsey
from fpharmonics.cli import main
from fpharmonics.ramsey import (FiniteGroup, PairColoring, boolean_cube,
                                dependent_random_choice, eps_r,
                                extremal_coloring, find_rich_color, lambda_T)


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
    G = FiniteGroup((5,))
    T = G.elements()
    full = {(t, u) for t in T for u in T}
    assert lambda_T(G, T, full) == 1
    assert lambda_T(G, T, set()) == 0


def test_lambda_direct_vs_tables(rng):
    G = FiniteGroup((7,))
    T = G.elements()
    for _ in range(8):
        A = {(t, u) for t in T for u in T if rng.random() < 0.3}
        assert (lambda_T(G, T, A, method="direct")
                == lambda_T(G, T, A, method="tables"))


def test_lambda_restricted_T():
    G = FiniteGroup((11,))
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


@pytest.mark.parametrize("nux, nuy, A, name", [
    # weights summing to 1 passed the input check: the nu_x cases then
    # failed the claims "bad-pair mass" and "alpha/2 <= nu_x(X')", and the
    # nu_y case returned a result
    ({0: 2, 1: -1}, {0: 1}, {(0, 0)}, "nu_x"),
    ({0: 2, 1: -1}, {0: 1}, {(1, 0)}, "nu_x"),
    ({0: 1}, {0: 2, 1: -1}, {(0, 0)}, "nu_y"),
])
def test_drc_rejects_negative_weights(nux, nuy, A, name):
    with pytest.raises(ValueError, match=f"^{name}: "):
        dependent_random_choice(nux, nuy, A, Fraction(1, 2))


def test_rich_color_single_color(rng):
    G = FiniteGroup((5,))
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
    G = FiniteGroup((11,))
    for _ in range(5):
        col = random_total_coloring(G, G.elements(), 3, rng)
        io, vo = find_rich_color(col, mode="oracle")
        ic, vc = find_rich_color(col, mode="constructive")
        assert vo >= eps_r(3) ** 2
        assert vc >= eps_r(3) ** 2
        # constructive never returns a color the oracle values below eps_r^2
        assert col.lam(ic) >= eps_r(3) ** 2


def test_rich_color_rejects_large_uncolored():
    G = FiniteGroup((5,))
    T = G.elements()
    # leave everything uncolored
    col = PairColoring(G, tuple(T), (frozenset(), frozenset()))
    with pytest.raises(ValueError):
        find_rich_color(col)


def test_coloring_json_roundtrip():
    col = extremal_coloring(1)
    col2 = PairColoring.from_json(col.to_json())
    assert col2.group.factors == col.group.factors
    assert col2.classes == col.classes


def test_repeated_or_foreign_elements_of_T_are_rejected():
    # a repeated element once gave one value by tables and another direct
    G = FiniteGroup((7,))
    A = {(t, u) for t in G.elements() for u in G.elements() if (t[0] + u[0]) % 3}
    for T in ([(0,), (1,), (1,), (3,)], [(0,), (7,)], [(0,), (-1,)], [(0, 1)], []):
        for method in ("tables", "direct"):
            with pytest.raises(ValueError):
                lambda_T(G, T, A, method=method)
        with pytest.raises(ValueError):
            PairColoring(G, tuple(T), ())


def test_extremal_coloring_stops_at_the_budget():
    with pytest.raises(ValueError, match="budget"):
        extremal_coloring(ramsey.EXTREMAL_MAX_R + 1)


# -- the loops the code-based kernels replaced: test-side oracles -------------

def difference_multiset(group, T):
    """N(u) = #{(t4, t5) in T^2 : t4 - t5 = u}, keyed in first-seen order."""
    N = {}
    for t4 in T:
        for t5 in T:
            u = group.sub(t4, t5)
            N[u] = N.get(u, 0) + 1
    return N


def lambda_direct_einsum(group, T, A):
    """The quintuple sum as one exact-integer contraction over T^5."""
    n = len(T)
    E = np.zeros((n, n, n), dtype=np.int64)
    for i, t4 in enumerate(T):
        for j, t5 in enumerate(T):
            u = group.sub(t4, t5)
            for a, t in enumerate(T):
                if (t, u) in A:
                    E[a, i, j] = 1
    return int(np.einsum("aij,bij,cba->", E, E, E, dtype=np.int64))


def lambda_tables_dict(group, T, A):
    """The pair-degree factorization over dicts of columns and degrees."""
    N = difference_multiset(group, T)
    Tset = set(T)
    D, S = {}, {}
    for t, u in A:
        if t in Tset:
            D[u] = D.get(u, 0) + 1
            S.setdefault(u, []).append(t)
    num = 0
    for u, weight in N.items():
        block = 0
        for t1 in S.get(u, ()):
            for t2 in S.get(u, ()):
                v = group.sub(t2, t1)
                block += D.get(v, 0)
        num += weight * block
    return num


def drc_fractions(nu_x, nu_y, A, eta):
    """Dependent random choice in Fractions over sets: the DRCResult fields."""
    eta = Fraction(eta)
    nu_x = {x: Fraction(w) for x, w in nu_x.items() if w != 0}
    nu_y = {y: Fraction(w) for y, w in nu_y.items() if w != 0}
    A = {(x, y) for x, y in A if x in nu_x and y in nu_y}
    alpha = sum((nu_x[x] * nu_y[y] for x, y in A), Fraction(0))
    if alpha == 0:
        return None
    ny, nx = {}, {}
    for x, y in A:
        ny.setdefault(x, set()).add(y)
        nx.setdefault(y, set()).add(x)
    xs = list(nu_x)
    threshold = eta * alpha * alpha / 2
    bad = set()
    for i, x1 in enumerate(xs):
        for x2 in xs[i:]:
            common = sum(nu_y[y] for y in ny.get(x1, set()) & ny.get(x2, set()))
            if common <= threshold:
                bad |= {(x1, x2), (x2, x1)}
    best_y, best_defect = None, None
    for y in nu_y:
        nbhd = nx.get(y, set())
        defect = Fraction(0)
        for x1 in nbhd:
            for x2 in nbhd:
                w = nu_x[x1] * nu_x[x2]
                defect += w - (w / eta if (x1, x2) in bad else 0)
        if best_defect is None or defect > best_defect:
            best_y, best_defect = y, defect
    x_prime = frozenset(nx.get(best_y, set()))
    measure = sum((nu_x[x] for x in x_prime), Fraction(0))
    inside = sum((nu_x[a] * nu_x[b] for a in x_prime for b in x_prime
                  if (a, b) in bad), Fraction(0))
    return (x_prime, best_y, alpha, eta, frozenset(bad), measure, inside)


def _random_T_and_A(group, size, density, rng):
    G = group.elements()
    T = [G[i] for i in rng.choice(len(G), size, replace=False)]
    diffs = list(difference_multiset(group, T))
    A = {(t, u) for t in T for u in diffs if rng.random() < density}
    # pairs outside T x (T - T) count for nothing
    A |= {(G[int(rng.integers(len(G)))], G[int(rng.integers(len(G)))])
          for _ in range(3)}
    return T, A


@pytest.mark.parametrize("block", (ramsey.DIRECT_BLOCK, 1000))
@pytest.mark.parametrize("factors", ((7,), (31,), (5, 6), (3, 4), (2, 2, 2)), ids=str)
def test_lambda_matches_the_loop_oracles(factors, block, rng, monkeypatch):
    # |T|^5 <= 10^6; a block of 1000 points splits every direct count with
    # |T| >= 4 into several blocks
    monkeypatch.setattr(ramsey, "DIRECT_BLOCK", block)
    group = FiniteGroup(factors)
    top = min(group.order, 15)
    for size in sorted({1, 2, top} | {int(k) for k in rng.integers(3, top + 1, 3)}):
        for density in (0.15, 0.5, 0.9):
            T, A = _random_T_and_A(group, size, density, rng)
            n5 = size**5
            assert lambda_T(group, T, A) == Fraction(lambda_tables_dict(group, T, A), n5)
            assert (lambda_T(group, T, A, method="direct")
                    == Fraction(lambda_direct_einsum(group, T, A), n5))


def test_pair_coloring_matches_the_loop_oracles(rng):
    # the ramsey_r_2 coloring and random partial colorings with a proper T
    cols = [extremal_coloring(2)]
    for factors in ((11,), (3, 4), (2, 2, 2)):
        group = FiniteGroup(factors)
        T, _ = _random_T_and_A(group, min(group.order, 9), 0, rng)
        classes = [set(), set(), set()]
        for t in T:
            for u in difference_multiset(group, T):
                c = int(rng.integers(0, 4))  # 3: left uncolored
                if c < 3:
                    classes[c].add((t, u))
        cols.append(PairColoring(group, tuple(T), tuple(classes)))
    for col in cols:
        group, T, n = col.group, col.T, len(col.T)
        N = difference_multiset(group, T)
        domain = {(t, u) for t in T for u in N}
        assert col.uncolored() == domain - set().union(*col.classes)
        for A in col.classes + (col.uncolored(),):
            assert col._index.density(col._index.mask(A)) == Fraction(
                sum(w for u, w in N.items() for t in T if (t, u) in A), n**3)
        for i, cls in enumerate(col.classes):
            assert col.lam(i) == Fraction(lambda_tables_dict(group, list(T), cls), n**5)
        sub = tuple(T[: max(1, n // 2)])
        diffs = set(difference_multiset(group, sub))
        assert col._restrict(sub).classes == tuple(
            frozenset((t, u) for t, u in cls if t in sub and u in diffs)
            for cls in col.classes)


def _drc_inputs(seed):
    """Random weighted instances like perfbench's drc jobs, zero weights and
    ties included."""
    r = random.Random(seed)
    nx, ny = r.randint(1, 16), r.randint(1, 16)
    wx = [r.randint(0, 4) for _ in range(nx)]
    wy = [r.randint(0, 4) for _ in range(ny)]
    wx[0], wy[0] = wx[0] or 1, wy[0] or 1
    nu_x = {i: Fraction(w, sum(wx)) for i, w in enumerate(wx)}
    nu_y = {j: Fraction(w, sum(wy)) for j, w in enumerate(wy)}
    density = r.random()
    A = {(i, j) for i in range(nx) for j in range(ny) if r.random() < density}
    return nu_x, nu_y, A or {(0, 0)}, Fraction(r.randint(1, 16), 16)


def test_drc_matches_the_fraction_oracle(monkeypatch):
    cases = [_drc_inputs(seed) for seed in range(300)]
    # the drc_seed_5 golden's inputs, as the CLI draws them
    seen = []
    monkeypatch.setattr(ramsey, "dependent_random_choice",
                        lambda *args: seen.append(args) or dependent_random_choice(*args))
    assert main(["drc", "--seed", "5", "--out", os.devnull]) == 0
    checked = 0
    for nu_x, nu_y, A, eta in cases + seen:
        want = drc_fractions(nu_x, nu_y, A, eta)
        if want is None:  # A has measure 0
            with pytest.raises(ValueError):
                dependent_random_choice(nu_x, nu_y, A, eta)
            continue
        try:
            got = dependent_random_choice(nu_x, nu_y, A, eta)
        except AssertionError:
            # the conclusion fails for the oracle's pick too
            x_prime, _, alpha, eta, _, measure, inside = want
            assert 2 * measure < alpha or inside > eta * measure**2
            continue
        assert dataclasses.astuple(got) == want
        assert all(type(v) is Fraction for v in (got.alpha, got.x_prime_measure,
                                                 got.bad_measure_inside))
        checked += 1
    assert len(seen) == 1 and checked >= 250


def test_direct_count_holds_bounded_memory():
    # |T| = 48: 48^5 = 2.5e8 points, tested in blocks
    script = textwrap.dedent("""
        import resource
        from fpharmonics.ramsey import FiniteGroup, lambda_T
        G = FiniteGroup((53,))
        T = G.elements()[:48]
        A = {(t, u) for t in T for u in G.elements() if (3 * t[0] + u[0]) % 5 < 2}
        lambda_T(G, T[:3], A, method="direct")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        lambda_T(G, T, A, method="direct")
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
    """)
    src = Path(fpharmonics.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    grown_mb = int(proc.stdout) / (1024**2 if sys.platform == "darwin" else 1024)
    assert grown_mb <= 20
