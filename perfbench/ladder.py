"""The prime ladder: one timed call of each kernel at p = 31, 101, 401, 1009.

A rung the package refuses (u3_box_sum above its cap) or that would take
far too long (see metrics.LADDER_TOO_SLOW) is recorded as skipped, with
the reason, so a change that lifts the cap or the complexity class has a
slot to report into. Inputs come from the seed and are built untimed;
each field's p x p grids are built before T and the census are timed.
"""

from __future__ import annotations

import time

import numpy as np

import fpharmonics.charsums as charsums
import fpharmonics.counting as counting
import fpharmonics.field as field
import fpharmonics.harmonic as harmonic
import fpharmonics.regularity as regularity

from metrics import LADDER_PRIMES, LADDER_TOO_SLOW, ladder_name


def _calls(ctx, rng) -> dict:
    p = ctx.p
    f1, f2, f3, f4 = (harmonic.Signal(ctx, rng.uniform(0, 1, p)
                                      * np.exp(2j * np.pi * rng.uniform(0, 1, p)))
                      for _ in range(4))
    col = counting.Coloring(p, 2, rng.integers(0, 2, p))
    return {
        "T": lambda: counting.T(f1, f2, f3, f4),
        "census_quadruples": lambda: counting.census_quadruples(ctx, col),
        "norm_u3_plus": lambda: harmonic.norm_u3_plus(f1),
        "norm_qm": lambda: harmonic.norm_qm(f1),
        "quad_phase_inner_products": lambda: regularity.quad_phase_inner_products(f1),
        "differencing_sup": lambda: counting.differencing_sup(f1),
        "u3_box_sum": lambda: charsums.u3_box_sum(ctx, field.MultChar(1), field.MultChar(2), 1),
    }


def run(seed: int) -> dict:
    """{ladder metric name: {"ms": time} or {"skipped": reason}}."""
    rng = np.random.default_rng([seed, 1009])
    out = {}
    for p in LADDER_PRIMES:
        t = time.perf_counter()
        ctx = field.new_field(p)
        out[ladder_name("new_field", p)] = {"ms": (time.perf_counter() - t) * 1e3}
        ctx.grid("add")
        ctx.grid("mul")
        for kernel, call in _calls(ctx, rng).items():
            name = ladder_name(kernel, p)
            if (kernel, p) in LADDER_TOO_SLOW:
                out[name] = {"skipped": LADDER_TOO_SLOW[(kernel, p)]}
                continue
            t = time.perf_counter()
            try:
                call()
            except ValueError as exc:  # a documented size cap
                out[name] = {"skipped": f"refused: {exc}"}
                continue
            out[name] = {"ms": (time.perf_counter() - t) * 1e3}
    return out
