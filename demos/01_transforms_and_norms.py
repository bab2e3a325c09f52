"""Signals on F_p, their two Fourier transforms, and the norm hierarchy.

A Signal is a complex-valued function on the prime field F_p.  It has an
additive spectrum (correlations with x -> e_p(kx)) and a multiplicative
spectrum (correlations with the characters chi_k on F_p*), each a plain
array of coefficients.  Four correlation norms order every signal:

    u2+  <=  u3+  <=  QM  <=  L1

where u2+ tests additive characters, u3+ tests quadratic phases
e_p(r x^2 + s x), and QM tests products of a quadratic phase with a
multiplicative character.  Each norm comes with the witness achieving it.
"""

from __future__ import annotations

import numpy as np

from fpharmonics import (Signal, add_invert, add_transform, cached_field,
                         norm_qm, norm_u2_plus, norm_u2_times, norm_u3_plus,
                         random_signal)

p = 31
ctx = cached_field(p)
print(f"F_{p} with primitive root g = {ctx.g}")

rng = np.random.default_rng(0)
f = random_signal(ctx, rng, unit_l2=True)

spec = add_transform(f)
back = add_invert(ctx, spec)
print("round-trip error:", np.max(np.abs(back.values - f.values)))
print("Parseval defect: ", abs(np.sum(np.abs(spec) ** 2)
                               - f.lp_norm(2) ** 2))

for name, norm in (("u2+", norm_u2_plus), ("u2x", norm_u2_times),
                   ("u3+", norm_u3_plus), ("QM ", norm_qm)):
    res = norm(f)
    print(f"||f||_{name} = {res.value:.6f}  witness {res.witness}")
print(f"||f||_L1  = {f.lp_norm(1):.6f}")

# A pure quadratic phase is maximally structured: u3+ norm exactly 1,
# while its additive correlations are all of size 1/sqrt(p).
x = np.arange(p)
q = Signal(ctx, ctx.roots_p[(3 * x * x + x) % p])
print("\nquadratic phase e_p(3x^2 + x):")
print("  u2+ =", norm_u2_plus(q).value, "(~ 1/sqrt(p) =", 1 / np.sqrt(p), ")")
print("  u3+ =", norm_u3_plus(q).value, " witness", norm_u3_plus(q).witness)
