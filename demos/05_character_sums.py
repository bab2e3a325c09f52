"""Character-sum magnitudes: Gauss, Weil, and mixed sums.

These exponential-sum estimates are the number-theoretic input to every
equidistribution statement in the package: complete quadratic Gauss
sums have modulus exactly sqrt(p); products of multiplicative
characters at shifted arguments obey the Weil bound (t-1) sqrt(p) + t;
and mixed quadratic-times-multiplicative sums obey Weil's bound for
mixed sums, (3 sqrt(p) + 2)/p as an average.
"""

from __future__ import annotations

import math

from fpharmonics import cached_field, gauss_sum, mixed_sum, u3_box_sum, \
    weil_product_sum
from fpharmonics.field import MultChar

p = 61
ctx = cached_field(p)

g = gauss_sum(ctx, 1, 0)
print(f"Gauss sum at p = {p}: |sum e_p(x^2)| = {abs(g):.6f}"
      f" = sqrt(p) = {math.sqrt(p):.6f}")

chis = [MultChar(1), MultChar(2), MultChar(3)]
shifts = [0, 5, 17]
s, bound = weil_product_sum(ctx, chis, shifts)
print(f"\nWeil product sum, t = 3 characters at distinct shifts:")
print(f"  |sum| = {abs(s):.4f} <= (t-1) sqrt(p) + t = {bound:.4f}")

mixed = mixed_sum(ctx, 1, 2, MultChar(1), MultChar(2), 3)
print(f"\nmixed sum E_x e_p(x^2 + 2x) chi_1(x) chi_2(x+3):")
print(f"  |E| = {mixed.lhs:.6f} <= (3 sqrt(p) + 2)/p = {mixed.rhs:.6f}")

box = u3_box_sum(ctx, MultChar(1), MultChar(2), 1)
budget = 7 / math.sqrt(p) + 34 / p
print(f"\neight-fold box correlation of chi chi'_h:")
print(f"  value = {box:.6f} <= budget 7/sqrt(p) + 34/p = {budget:.6f}")
