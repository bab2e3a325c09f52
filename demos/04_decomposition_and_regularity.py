"""Constructive decomposition and the regularity machinery.

Three pieces of the structural toolkit:

  * quad_decompose splits a unit-L2 signal into a few dominant quadratic
    phases plus a residual of small u3+ norm, with exact conclusions
    (residual <= eps, energy <= 3, coefficient mass <= 4/eps, at most
    8/eps^2 terms) asserted at construction.
  * kvn_energy_increment grows a QM system until every input signal is
    within delta (in QM norm) of its projection onto the system's atoms;
    the projected L2 energy increases at each step, so the loop stops
    within an audited iteration budget.
  * smooth_box_approx builds a nonnegative trigonometric majorant of an
    atom indicator, the bridge from measurable colorings to the counting
    lemma's trig-polynomial inputs; here at KvN's scale d = 2, R = 32,
    composed with a QM orbit at p = 1009.
"""

from __future__ import annotations

import numpy as np

from fpharmonics import (QMSystem, Signal, build_atoms, cached_field,
                         decomposable_unit_signal, kvn_energy_increment,
                         project, quad_decompose, smooth_box_approx)
from fpharmonics.field import MultChar, mult_char_values

p = 101
ctx = cached_field(p)
rng = np.random.default_rng(3)

f = decomposable_unit_signal(ctx, rng)
dec = quad_decompose(f, 0.5)
print(f"decomposition of a structured unit signal at p = {p}:")
for (r, s), lam in dec.lambdas.items():
    print(f"  phase e_p({r} x^2 + {s} x): lambda = {lam:.4f}")
print(f"  residual u3+ = {dec.residual_u3:.4f} <= eps = 0.5")
print(f"  coefficient mass = {dec.coefficient_mass():.4f} <= 8.0")

ctx61 = cached_field(61)
x = np.arange(61)
f1 = Signal(ctx61, mult_char_values(ctx61, MultChar(1)))
f2 = Signal(ctx61, ctx61.roots_p[x * x % 61])
res = kvn_energy_increment([f1, f2], QMSystem(ctx61, []), 0.3, 32)
print(f"\nenergy increment on (chi_1, e_p(x^2)) at p = 61:")
print(f"  iterations = {res.iterations}, final system dimension = {res.psi.d}")
print(f"  energy trace = {[round(e, 4) for e in res.energy_trace]}")

atoms = build_atoms(res.psi, 32)
g = project(atoms, f2)
print(f"  atoms in the final partition: {atoms.n_atoms}")
print(f"  ||f2 - proj f2||_2 = "
      f"{Signal(ctx61, f2.values - g.values).lp_norm(2):.4f}")

psi = QMSystem(cached_field(1009), [(953, 630), (690, 904)])
t, u, v = build_atoms(psi, 32).keys[1]
box = smooth_box_approx(2, 32, t, u, v, 0.5)
print(f"\nsmoothed box for the atom of x = 1 under Psi = {psi.dims} at p = 1009, "
      f"d = 2, R = 32:")
print(f"  Fejer-power degree = {box.interval.deg}, ceiling = 1 + {box.ceiling - 1:.3e}, "
      f"trig norm = {box.trig_norm():.1f}")
F = box.compose_signal(psi).values.real
print(f"  composed with Psi: F(Psi(1)) = {F[1]:.6f}, max over F_p = {F.max():.6f}")
