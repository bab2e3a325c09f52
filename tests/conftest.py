from __future__ import annotations

import numpy as np
import pytest

from fpharmonics.counting import phased_character_example
from fpharmonics.field import MultChar, cached_field, mult_char_values
from fpharmonics.harmonic import Signal, random_signal
from reference import qm_basis_signal

SEED = 20260823


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def ctx13():
    return cached_field(13)


@pytest.fixture
def ctx31():
    return cached_field(31)


@pytest.fixture
def oracle_signals(rng):
    """Build the signals on which the Fourier kernels are checked against
    their loop oracles: random (gaussian, bounded, +-1), the
    phased-character family, the quadratic character and QM basis signals."""
    def make(ctx):
        p = ctx.p
        f1, _, f3, f4, _ = phased_character_example(ctx)
        return [random_signal(ctx, rng, kind=kind, unit_l2=True)
                for kind in ("gaussian", "bounded", "signs", "signs")] + [
            f1, f3, f4,
            Signal(ctx, mult_char_values(ctx, MultChar((p - 1) // 2))),
            qm_basis_signal(ctx, 2, 3, 1),
            qm_basis_signal(ctx, 1, 0, (p - 1) // 2),
        ]
    return make


@pytest.fixture
def pair_grids():
    """The full p x p index grids (x+y) % p and x*y % p: the test-side
    oracle for the pair-walk counting kernels."""
    def make(ctx):
        x = np.arange(ctx.p, dtype=np.int64)
        return (x[:, None] + x) % ctx.p, (x[:, None] * x) % ctx.p
    return make
