from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest

from fpharmonics import regularity
from fpharmonics.calibration import AUDIT_CONSTANTS
from fpharmonics.cli import main
from fpharmonics.field import MultChar, cached_field, mult_char_values
from fpharmonics.harmonic import (Signal, inner_product, norm_qm,
                                  norm_u3_plus, random_signal)
from fpharmonics.qm import QMSystem, orbit_arrays
from fpharmonics.regularity import (_correlating_projection, build_atoms,
                                    correlation_system,
                                    decomposable_unit_signal,
                                    kvn_energy_increment, project,
                                    quad_decompose, refines,
                                    smooth_box_approx, smooth_majorant)
from reference import (box_factor_at, check_sqrt2_gap, fejer_power_sampled, qm_basis_signal,
                       trig_eval)


def system(p, dims):
    return QMSystem(cached_field(p), dims)


# -- the per-point loops the label arrays replaced, kept as their oracles ------

SQRT2_BITS = 96
SQRT2_DEN = 1 << SQRT2_BITS
SQRT2_NUM = math.isqrt(2 << (2 * SQRT2_BITS))  # floor(sqrt2 * 2^96)


def interval_index(num: int, den: int, R: int) -> int:
    """floor(R*(num/den - sqrt2)) mod R on Python ints, with sqrt2 to 96
    fractional bits: the fixed-point error R * 2^-96 < 1e-26 is far below
    the 3e-14 endpoint gap that check_sqrt2_gap certifies."""
    q = (R * num * SQRT2_DEN - R * SQRT2_NUM * den) // (den * SQRT2_DEN)
    return q % R


def atoms_loop(psi, R):
    """(per-x keys, key -> list of x in first-occurrence order), point by point."""
    p = psi.ctx.p
    th1, th2, v = orbit_arrays(psi)
    keys = []
    for x in range(p):
        t = tuple(interval_index(int(th1[x, i]), p, R) for i in range(psi.d))
        u = tuple(interval_index(int(th2[x, i]), p, R) for i in range(psi.d))
        w = tuple(interval_index(int(v[x, i]), p - 1, R) for i in range(psi.d))
        keys.append((t, u, w))
    groups = {}
    for x, key in enumerate(keys):
        groups.setdefault(key, []).append(x)
    return tuple(keys), groups


def project_loop(groups, values):
    out = np.empty_like(values)
    for xs in groups.values():
        out[xs] = np.mean(values[xs])
    return out


def refines_loop(fine_groups, coarse_keys):
    return all(len({coarse_keys[x] for x in xs}) == 1 for xs in fine_groups.values())


@pytest.mark.parametrize("R", [1 << e for e in range(11)])
def test_interval_codes_match_big_int_oracle(R):
    dens = list(range(2, 400)) + [1008, 1009, 4099]
    for den in dens:
        want = [interval_index(num, den, R) for num in range(den)]
        got = regularity._interval_codes(np.arange(den, dtype=np.int64), den, R)
        assert got.tolist() == want, (den, R)
    for den in (100002, 100003):
        nums = np.random.default_rng(den + R).integers(0, den, 3000)
        want = [interval_index(int(num), den, R) for num in nums]
        assert regularity._interval_codes(nums, den, R).tolist() == want, (den, R)


@pytest.mark.parametrize("p", [3, 13, 31, 61, 101, 1009])
def test_atoms_projection_and_refinement_match_loops(p):
    ctx = cached_field(p)
    rng = np.random.default_rng(p)
    f = random_signal(ctx, rng)
    outcomes = set()
    for d in range(5):
        psi = QMSystem.random(ctx, d, rng)
        coarse = None
        for R in (1, 2, 8, 32, 1024):
            atoms = build_atoms(psi, R)
            keys, groups = atoms_loop(psi, R)
            assert atoms.keys == keys
            assert atoms.n_atoms == len(groups)
            assert list(atoms.groups) == list(groups)
            for key, xs in groups.items():
                assert atoms.groups[key].tolist() == xs
            assert np.max(np.abs(project(atoms, f).values
                                 - project_loop(groups, f.values))) < 1e-12
            if coarse is not None:  # a larger R only splits atoms
                assert refines_loop(groups, coarse.keys) and refines(atoms, coarse)
                want = refines_loop(coarse.groups, keys)
                assert refines(coarse, atoms) == want
                outcomes.add(want)
            coarse = atoms
    assert outcomes == {True, False}


# -- the KvN loop as it stood before it skipped norms, kept as its oracle ------

def kvn_loop(fs, psi0, delta, R):
    """(psi, iterations, energy trace, per-x keys): every residual's QM norm
    each iteration, atoms and projections from the loops above."""
    max_iter = math.ceil(AUDIT_CONSTANTS["kvn_budget_c"] * len(fs) / delta**2)
    psi = psi0
    keys, groups = atoms_loop(psi, R)
    projections = [project_loop(groups, f.values) for f in fs]
    trace = [sum(float(np.mean(np.abs(g) ** 2)) for g in projections)]
    for it in range(max_iter + 1):
        residuals = [Signal(f.ctx, f.values - g) for f, g in zip(fs, projections)]
        qms = [norm_qm(h) for h in residuals]
        worst = int(np.argmax([qm.value for qm in qms]))
        if qms[worst].value <= delta:
            return psi, it, trace, keys
        phi, _ = correlation_system(psi.ctx, *qms[worst].witness)
        psi = psi.extended(phi.dims)
        keys, groups = atoms_loop(psi, R)
        projections = [project_loop(groups, f.values) for f in fs]
        trace.append(sum(float(np.mean(np.abs(g) ** 2)) for g in projections))
    raise AssertionError("oracle loop over its budget")


def fixture_pair_p61():
    ctx = cached_field(61)
    x = np.arange(61)
    return [Signal(ctx, mult_char_values(ctx, MultChar(1))),
            Signal(ctx, ctx.roots_p[x * x % 61])]


def assert_kvn_matches_loop(res, fs, psi0, delta, R):
    psi, iterations, trace, keys = kvn_loop(fs, psi0, delta, R)
    assert res.iterations == iterations
    assert res.psi.dims == psi.dims
    assert res.atoms.keys == keys
    assert len(res.energy_trace) == len(trace)
    assert np.max(np.abs(np.array(res.energy_trace) - trace)) < 1e-12


def test_kvn_fixture_pair_matches_loop():
    fs = fixture_pair_p61()
    psi0 = QMSystem(fs[0].ctx, [])
    assert_kvn_matches_loop(kvn_energy_increment(fs, psi0, 0.3, 32), fs, psi0, 0.3, 32)


@pytest.mark.parametrize("p, seed, R", [(31, 0, 32), (31, 1, 8), (31, 2, 4),
                                        (61, 0, 32), (61, 1, 8), (61, 2, 16)])
def test_kvn_bounded_pairs_match_loop(p, seed, R):
    ctx = cached_field(p)
    rng = np.random.default_rng(seed)
    fs = [random_signal(ctx, rng, kind="bounded") for _ in range(2)]
    psi0 = QMSystem(ctx, [])
    assert_kvn_matches_loop(kvn_energy_increment(fs, psi0, 0.3, R), fs, psi0, 0.3, R)


def test_kvn_cli_three_classes_matches_loop(tmp_path):
    out = tmp_path / "kvn.json"
    assert main(["kvn", "--r", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    ctx = cached_field(61)
    rng = np.random.default_rng(0)  # the CLI's default --seed
    fs = [random_signal(ctx, rng, kind="bounded") for _ in range(3)]
    psi, iterations, trace, _ = kvn_loop(fs, QMSystem(ctx, []), 0.3, 32)
    assert report["iterations"] == iterations
    assert [(dim["a"], dim["k"]) for dim in report["dims"]] == list(psi.dims)
    assert np.max(np.abs(np.array(report["energy_trace"]) - trace)) < 1e-12


def test_kvn_computes_each_needed_qm_norm_once(monkeypatch):
    calls = []

    def counted(h):
        calls.append(h)
        return norm_qm(h)

    monkeypatch.setattr(regularity, "norm_qm", counted)
    fs = fixture_pair_p61()
    kvn_energy_increment(fs, QMSystem(fs[0].ctx, []), 0.3, 32)
    assert len(calls) == 3


def test_kvn_rejects_a_scale_that_cannot_refine():
    # R = 1 makes one atom of all of F_p whatever the system, so the
    # residuals, and the dimensions added for them, would repeat forever
    ctx = cached_field(31)
    rng = np.random.default_rng(0)
    fs = [random_signal(ctx, rng, kind="bounded") for _ in range(2)]
    with pytest.raises(ValueError, match="R = 1 leaves the partition unchanged"):
        kvn_energy_increment(fs, QMSystem(ctx, []), 0.3, 1)


def test_kvn_fails_a_partition_that_does_not_refine_the_last(monkeypatch):
    # every build after psi0's returns one atom, which cannot refine psi0's
    # several atoms at R = 2
    real_build, calls = regularity.build_atoms, []

    def one_atom_after_the_first(psi, R):
        calls.append(psi)
        atoms = real_build(psi, R)
        if len(calls) == 1:
            return atoms
        return regularity.PartitionAtoms(psi, R, np.zeros(psi.ctx.p, dtype=np.int64),
                                         atoms.codes[:1])

    monkeypatch.setattr(regularity, "build_atoms", one_atom_after_the_first)
    ctx = cached_field(61)
    f = Signal(ctx, ctx.roots_p[np.arange(61) ** 2 % 61])
    psi0 = system(61, [(1, 1)])
    assert real_build(psi0, 2).n_atoms > 1
    with pytest.raises(AssertionError, match="^new atoms refine the old: "):
        kvn_energy_increment([f], psi0, 0.3, 2)


def test_atoms_d0_single():
    atoms = build_atoms(system(13, []), 2)
    assert atoms.n_atoms == 1


def test_atoms_p13_fixture():
    atoms = build_atoms(system(13, [(1, 1)]), 2)
    covered = np.sort(np.concatenate(list(atoms.groups.values())))
    assert np.array_equal(covered, np.arange(13))
    assert atoms.n_atoms <= 8


def test_refinement():
    psi = system(13, [(1, 1)])
    assert refines(build_atoms(psi, 4), build_atoms(psi, 2))


def test_projection_constant():
    psi = system(13, [(1, 1)])
    atoms = build_atoms(psi, 2)
    ctx = cached_field(13)
    f = Signal(ctx, np.full(13, 2.5 + 1j))
    assert np.allclose(project(atoms, f).values, f.values)


def test_projection_identities(rng):
    ctx = cached_field(13)
    psi = system(13, [(1, 1)])
    atoms = build_atoms(psi, 2)
    f = random_signal(ctx, rng)
    g = random_signal(ctx, rng)
    pf = project(atoms, f)
    # idempotent
    assert np.max(np.abs(project(atoms, pf).values - pf.values)) < 1e-12
    # self-adjoint
    assert abs(inner_product(f, project(atoms, g))
               - inner_product(pf, g)) < 1e-10
    # contraction
    assert pf.lp_norm(2) <= f.lp_norm(2) + 1e-12


def test_projection_nesting(rng):
    ctx = cached_field(13)
    psi = system(13, [(1, 1)])
    psi_big = psi.extended([(2, 3)])
    coarse = build_atoms(psi, 2)
    fine = build_atoms(psi_big, 4)
    assert refines(fine, coarse)
    f = random_signal(ctx, rng)
    lhs = project(coarse, project(fine, f))
    rhs = project(coarse, f)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10


def test_quad_decompose_pure_phase():
    ctx = cached_field(61)
    x = np.arange(61)
    f = Signal(ctx, ctx.roots_p[(2 * x * x + 3 * x) % 61])
    dec = quad_decompose(f, 0.5)
    assert (2, 3) in dec.lambdas
    assert dec.lambdas[(2, 3)] == pytest.approx(1)
    assert dec.residual_u3 <= 1 / np.sqrt(61) + 1e-6


def test_quad_decompose_empty_below_threshold(rng):
    ctx = cached_field(61)
    f = random_signal(ctx, rng, unit_l2=True)
    f = Signal(ctx, f.values * 0.05)  # u3+ < eps/2 certainly
    assert norm_u3_plus(f).value < 0.25
    dec = quad_decompose(f, 0.5)
    assert not dec.lambdas
    assert np.array_equal(dec.residual.values, f.values)


def test_quad_decompose_family(rng):
    ctx = cached_field(101)
    for _ in range(5):
        f = decomposable_unit_signal(ctx, rng)
        dec = quad_decompose(f, 0.4)
        assert dec.lambdas
        assert dec.residual_u3 <= 0.4 + 1e-9
        assert dec.coefficient_mass() <= 10 + 1e-9


@pytest.mark.parametrize("eps", (0.0, -0.5, float("nan"), float("inf")))
def test_quad_decompose_rejects_bad_eps(eps):
    ctx = cached_field(13)
    f = Signal(ctx, np.zeros(13, dtype=complex))
    with pytest.raises(ValueError):
        quad_decompose(f, eps)


def test_correlation_pure_qm_signal():
    ctx = cached_field(101)
    f = qm_basis_signal(ctx, 3, 7, 2)
    phi, g, witness, atoms = _correlating_projection(f, norm_qm(f), 0.5, 64)
    assert witness == pytest.approx(1, abs=1e-2)


def test_correlation_fixture_with_noise(rng):
    ctx = cached_field(101)
    base = qm_basis_signal(ctx, 3, 7, 2)
    noise = random_signal(ctx, rng, kind="bounded")
    f = Signal(ctx, (base.values + 0.1 * noise.values) / 1.1)
    phi, g, witness, atoms = _correlating_projection(f, norm_qm(f), 0.5, 64)
    assert witness >= 0.85


def test_correlation_rejects_flat_signal(rng):
    ctx = cached_field(101)
    f = random_signal(ctx, rng, kind="signs")
    assert norm_qm(f).value < 0.5
    with pytest.raises(ValueError):
        _correlating_projection(f, norm_qm(f), 0.5, 64)


def test_kvn_zero_iterations_on_measurable_input():
    ctx = cached_field(13)
    psi = system(13, [(1, 1)])
    atoms = build_atoms(psi, 2)
    f = project(atoms, Signal(ctx, np.cos(np.arange(13.0)) + 0j))
    res = kvn_energy_increment([f], psi, 0.3, 2)
    assert res.iterations == 0


def test_kvn_rejects_empty_signal_list():
    with pytest.raises(ValueError, match="at least one signal"):
        kvn_energy_increment([], system(13, []), 0.3, 2)


@pytest.mark.parametrize("delta", [math.inf, math.nan, 1e-300, 1e-160, 1e200])
def test_kvn_rejects_a_delta_without_a_finite_budget(delta):
    # 1e-300 squared underflows to 0 and once raised ZeroDivisionError;
    # 1e-160 squared is subnormal, and the budget over it overflows;
    # 1e200 squared overflows; inf once ran and reported "delta": Infinity
    ctx = cached_field(13)
    f = Signal(ctx, np.cos(np.arange(13.0)) + 0j)
    with pytest.raises(ValueError, match="delta"):
        kvn_energy_increment([f], system(13, []), delta, 2)


def test_kvn_fixture_p61():
    from fpharmonics.field import MultChar, mult_char_values
    ctx = cached_field(61)
    x = np.arange(61)
    f1 = Signal(ctx, mult_char_values(ctx, MultChar(1)))
    f2 = Signal(ctx, ctx.roots_p[x * x % 61])
    res = kvn_energy_increment([f1, f2], QMSystem(ctx, []), 0.3, 32)
    assert res.iterations <= np.ceil(4 * 2 / 0.3**2)
    trace = np.array(res.energy_trace)
    assert np.all(np.diff(trace) >= -1e-9)
    assert trace[-1] <= 2 + 1e-9


def test_smooth_box_d1_grid_audit():
    box = smooth_box_approx(1, 2, (1,), (0,), (1,), 0.5)
    G = box.interval
    # G is real: its coefficients over j = -deg..deg are conjugate-symmetric
    assert np.max(np.abs(G.coeffs[::-1] - np.conj(G.coeffs))) < 1e-12
    thetas = np.arange(1000) / 1000
    # audit each coordinate's shift of the shared interval over its own circle
    for lo in box.los:
        vals = G.on_grid(1000, lo)
        assert np.all(vals >= -1e-9)
        assert np.max(vals) <= box.ceiling + 1e-9
        inside = np.mod(thetas - lo, 1.0) < 1 / box.R
        assert np.all(vals[inside] >= 1 - 1e-9)
    assert box.trig_norm() < np.inf


@pytest.mark.parametrize("n, k", [(9, 1), (4, 2), (40, 2), (13, 5), (30, 8), (56, 7)])
def test_fejer_power_matches_the_sampled_kernel(n, k):
    coeffs, c = regularity._fejer_power(n, k)
    sampled = fejer_power_sampled(n, k)
    deg = k * (n - 1)
    assert len(coeffs) == len(sampled) == 2 * deg + 1
    assert coeffs[deg] == 1.0 and np.all(coeffs > 0)
    assert c == pytest.approx(sampled[deg], rel=1e-12)
    assert np.max(np.abs(coeffs - sampled / sampled[deg])) <= 1e-12
    if k <= 2:  # c_{n,1} = n and Jackson's c_{n,2} = n(2n^2 + 1)/3
        assert c == pytest.approx([n, n * (2 * n * n + 1) / 3][k - 1], rel=1e-14)


_FEJER = regularity._fejer_power


def _flat_kernel(n, k):
    # K = 1: the right c, but only 2 gamma of the mass inside gamma
    coeffs, c = _FEJER(n, k)
    return np.where(np.arange(len(coeffs)) == len(coeffs) // 2, 1.0, 0.0), c


def test_smooth_box_tail_over_its_bound_is_a_failed_claim(monkeypatch):
    monkeypatch.setattr(regularity, "_fejer_power", _flat_kernel)
    with pytest.raises(AssertionError, match="^numerical tail over tau0: "):
        smooth_box_approx(1, 2, (1,), (0,), (1,), 0.5)


def test_smooth_box_analytic_tail_over_its_bound_is_a_failed_claim(monkeypatch):
    # the right kernel with c_{n,k} a thousandth of its value
    monkeypatch.setattr(regularity, "_fejer_power",
                        lambda n, k: (_FEJER(n, k)[0], _FEJER(n, k)[1] / 1e3))
    with pytest.raises(AssertionError, match="^analytic tail over tau0: "):
        smooth_box_approx(1, 2, (1,), (0,), (1,), 0.5)


@pytest.mark.parametrize("d, R", [(1, 2), (1, 8), (2, 4), (2, 32)])
def test_shared_interval_shifted_matches_the_per_coordinate_construction(d, R):
    box = smooth_box_approx(d, R, (0,) * d, (R - 1,) * d, (R // 2,) * d, 0.5)
    G = box.interval
    sqrt2_frac = math.sqrt(2.0) - 1.0
    los = [(idx / R + sqrt2_frac) % 1.0 for idx in range(R)] + [0.0, 0.3, 0.999]
    assert set(box.los) <= set(los)
    thetas = np.arange(64) / 64
    for lo in los:
        coeffs, tail = box_factor_at(lo, d, R, 0.5)
        assert tail == G.tail and len(coeffs) == len(G.coeffs)
        assert np.max(np.abs(G.on_grid(64, lo) - trig_eval(coeffs, thetas))) < 1e-12
    # the per-coordinate trig norm: the largest block degree, or the product
    # of the 3d coefficient masses
    old_mass = float(np.sum(np.abs(box_factor_at(box.los[0], d, R, 0.5)[0])))
    assert box.trig_norm() == pytest.approx(max(d * G.deg, old_mass ** (3 * d)), rel=1e-12)


def test_smooth_box_evaluates_in_bounded_memory():
    # d = 2, R = 32: G has 2 * 3525 + 1 coefficients, so one phase matrix
    # over the 1009 orbit points would hold 114 MB
    box = smooth_box_approx(2, 32, (0, 1), (2, 31), (16, 0), 0.5)
    assert box.interval.deg <= 4000  # the Jackson build's formula gave 7,459,344
    psi = system(1009, [(953, 630), (690, 904)])
    tracemalloc.start()
    try:
        box.compose_signal(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def box_at_orbit_loop(box, psi, xs):
    """The box at Psi(x) for each x in xs: the direct sum of every term of
    G at each of the 3d float coordinates, multiplied."""
    p = psi.ctx.p
    th1, th2, v = orbit_arrays(psi)
    coords = np.concatenate([th1 / p, th2 / p, v / (p - 1)], axis=1)[xs]
    out = np.ones(len(xs))
    for j, lo in enumerate(box.los):
        out *= trig_eval(box.interval.coeffs, coords[:, j] - lo)
    return out


@pytest.mark.parametrize("p, dims", [(101, [(3, 5), (7, 11)]),
                                     (1009, [(953, 630), (690, 904)])])
def test_compose_signal_matches_the_direct_sum(p, dims):
    # boxes of the majorant of 1 at d = 2, R = 32, each holding orbit points,
    # checked at their own points and at every 8th x
    psi = system(p, dims)
    atoms = build_atoms(psi, 32)
    pieces = smooth_majorant(atoms, Signal(cached_field(p), np.ones(p)), 0.5)
    for _, box in pieces[::len(pieces) // 3]:
        xs = np.union1d(atoms.groups[box.key], np.arange(0, p, 8))
        got = box.compose_signal(psi).values[xs]
        assert np.max(np.abs(got - box_at_orbit_loop(box, psi, xs))) < 1e-12
        assert np.min(got[np.isin(xs, atoms.groups[box.key])]) >= 1


@pytest.mark.parametrize("p, dims, R", [(13, [(1, 1)], 2), (101, [(3, 5), (7, 11)], 4),
                                        (1009, [(953, 630), (690, 904)], 32)])
def test_smooth_majorant_builds_one_kernel_whatever_the_atom_count(monkeypatch, p, dims, R):
    calls = []
    monkeypatch.setattr(regularity, "_fejer_power",
                        lambda n, k: calls.append((n, k)) or _FEJER(n, k))
    atoms = build_atoms(system(p, dims), R)
    pieces = smooth_majorant(atoms, Signal(cached_field(p), np.ones(p)), 0.5)
    assert len(pieces) == atoms.n_atoms
    assert len(calls) == 1
    assert all(box.interval is pieces[0][1].interval for _, box in pieces)


def _majorant_p13(values, eps=0.5):
    atoms = build_atoms(system(13, [(1, 1)]), 2)
    return smooth_majorant(atoms, Signal(cached_field(13), values), eps)


@pytest.mark.parametrize("build, args, name", [
    # eps = 0 once raised ZeroDivisionError and eps = -0.5 TypeError
    (smooth_box_approx, (1, 2, (1,), (0,), (1,), 0), "eps"),
    (smooth_box_approx, (1, 2, (1,), (0,), (1,), -0.5), "eps"),
    (smooth_box_approx, (1, 2, (1,), (0,), (1,), 1.5), "eps"),
    (smooth_box_approx, (1, 2, (1,), (0,), (1,), math.nan), "eps"),
    # t = (1, 2) at d = 1 once built 4 coordinates, and t = (7,) at R = 2 wrapped
    (smooth_box_approx, (1, 2, (1, 2), (0,), (1,), 0.5), "t"),
    (smooth_box_approx, (1, 2, (7,), (0,), (1,), 0.5), "t"),
    (smooth_box_approx, (1, 2, (1,), (0.5,), (1,), 0.5), "u"),
    (smooth_box_approx, (1, 2, (1,), (0,), (-1,), 0.5), "v"),
    # d = 0 once returned before the R check
    (smooth_box_approx, (0, 3, (), (), (), 0.5), "R"),
    (smooth_box_approx, (1, 3, (1,), (0,), (1,), 0.5), "R"),
    (_majorant_p13, (np.r_[-1.0, np.ones(12)],), "f"),
    (_majorant_p13, (np.ones(13) + 1e-3j,), "f"),
    (_majorant_p13, (np.ones(13), 0), "eps"),
    # tau0 = 2.0e-17 is below what float64 resolves in G
    (smooth_box_approx, (3, 32, (0,) * 3, (0,) * 3, (0,) * 3, 0.5), "eps"),
    # R^{3d} past float64's range once raised OverflowError, and a tau0
    # that underflows to 0 ZeroDivisionError
    (smooth_box_approx, (40, 1024, (0,) * 40, (0,) * 40, (0,) * 40, 0.5), "eps"),
    (smooth_box_approx, (1, 2, (1,), (0,), (1,), 5e-324), "eps"),
    # tau0 = 2.4e-16: d = 2 is admitted only up to R = 64
    (smooth_box_approx, (2, 128, (0,) * 2, (0,) * 2, (0,) * 2, 0.5), "eps"),
    # R = 2048 once built for 17 s, past build_atoms' MAX_R = 1024
    (smooth_box_approx, (1, 2048, (0,), (0,), (0,), 0.5), "R"),
])
def test_smooth_boxes_reject_bad_inputs(build, args, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        build(*args)


@pytest.mark.parametrize("d, R, deg", [(2, 64, 8144), (3, 16, 2057)])
def test_smooth_boxes_admit_the_stated_domain(d, R, deg):
    # at eps = 1/2, d = 2 is admitted up to R = 64 and d = 3 up to R = 16;
    # (2, 128) and (3, 32) are among the rejected inputs above
    box = smooth_box_approx(d, R, (0,) * d, (0,) * d, (0,) * d, 0.5)
    assert box.interval.deg == deg


def test_smooth_majorant_dominates_indicator():
    # one atom's indicator at p = 13, and at p = 101, d = 2, R = 32 a weight
    # on each of the 101 atoms, so that every box is composed
    for p, dims, R, weight, n_boxes in [
            (13, [(1, 1)], 2, lambda labels: labels == 0, 1),
            (101, [(3, 5), (7, 11)], 32, lambda labels: 1.0 / (1.0 + labels), 101)]:
        psi = system(p, dims)
        atoms = build_atoms(psi, R)
        vals = weight(atoms.labels).astype(complex)
        pieces = smooth_majorant(atoms, Signal(cached_field(p), vals), 0.5)
        assert len(pieces) == n_boxes
        total = np.zeros(p)
        for lam, box in pieces:
            total += lam * box.compose_signal(psi).values.real
        assert np.all(total >= vals.real - 1e-9)


def test_sqrt2_gap_small_cases():
    rep = check_sqrt2_gap(10**4)
    assert rep["violations"] == 0
    # m = 2 is the tight case: ||2 sqrt2|| = 0.1716 vs 1/6
    assert rep["worst_m"] == 2
