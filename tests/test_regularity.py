from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from fpharmonics.field import cached_field
from fpharmonics.harmonic import (Signal, inner_product, norm_qm,
                                  norm_u3_plus, random_signal)
from fpharmonics.qm import QMSystem
from fpharmonics.regularity import (build_atoms, check_sqrt2_gap,
                                    decomposable_unit_signal,
                                    find_correlating_projection,
                                    kvn_energy_increment, project,
                                    quad_decompose, refines,
                                    smooth_box_approx, smooth_majorant)


def system(p, dims):
    return QMSystem(cached_field(p), dims)


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


def test_quad_decompose_eps_hypothesis_flag():
    ctx = cached_field(61)
    f = Signal(ctx, np.zeros(61, dtype=complex))
    with pytest.raises(ValueError):
        quad_decompose(f, 0.5, enforce_eps_bound=True)


@pytest.mark.parametrize("eps", (0.0, -0.5, float("nan"), float("inf")))
def test_quad_decompose_rejects_bad_eps(eps):
    ctx = cached_field(13)
    f = Signal(ctx, np.zeros(13, dtype=complex))
    with pytest.raises(ValueError):
        quad_decompose(f, eps)


def test_correlation_pure_qm_signal():
    from fpharmonics.harmonic import qm_basis_signal
    ctx = cached_field(101)
    f = qm_basis_signal(ctx, 3, 7, 2)
    phi, g, witness, atoms = find_correlating_projection(f, 0.5, 64)
    assert witness == pytest.approx(1, abs=1e-2)


def test_correlation_fixture_with_noise(rng):
    from fpharmonics.harmonic import qm_basis_signal
    ctx = cached_field(101)
    base = qm_basis_signal(ctx, 3, 7, 2)
    noise = random_signal(ctx, rng, kind="bounded")
    f = Signal(ctx, (base.values + 0.1 * noise.values) / 1.1)
    phi, g, witness, atoms = find_correlating_projection(f, 0.5, 64)
    assert witness >= 0.85


def test_correlation_rejects_flat_signal(rng):
    ctx = cached_field(101)
    f = random_signal(ctx, rng, kind="signs")
    assert norm_qm(f).value < 0.5
    with pytest.raises(ValueError):
        find_correlating_projection(f, 0.5, 64)


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
    ceiling = box.ceiling
    thetas = np.linspace(0, 1, 1000, endpoint=False)
    # audit each coordinate factor over its own circle
    for factor in box.factors:
        vals = np.array([factor.eval(t) for t in thetas])
        assert np.all(vals.real >= -1e-9)
        assert np.all(np.abs(vals.imag) < 1e-9)
        assert np.max(vals.real) <= ceiling + 1e-9
        inside = (np.mod(thetas - factor.lo, 1.0) < factor.width)
        assert np.all(vals.real[inside] >= 1 - 1e-9)
    assert box.trig_norm() < np.inf


def test_smooth_majorant_dominates_indicator():
    ctx = cached_field(13)
    psi = system(13, [(1, 1)])
    atoms = build_atoms(psi, 2)
    vals = np.zeros(13, dtype=complex)
    key = atoms.keys[0]
    vals[atoms.groups[key]] = 1.0
    f = Signal(ctx, vals)
    pieces = smooth_majorant(atoms, f, 0.5)
    total = np.zeros(13)
    for lam, box in pieces:
        total += lam * box.compose_signal(psi).values.real
    assert np.all(total >= vals.real - 1e-9)


def test_sqrt2_gap_small_cases():
    rep = check_sqrt2_gap(10**4)
    assert rep["violations"] == 0
    # m = 2 is the tight case: ||2 sqrt2|| = 0.1716 vs 1/6
    assert rep["worst_m"] == 2
