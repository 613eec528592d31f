from __future__ import annotations

import gc

import numpy as np
import pytest

from fpvanish.fp_core import FpMultiset


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def random_multiset(rng, p, n, size, nonzero=False) -> FpMultiset:
    rows = []
    while len(rows) < size:
        v = tuple(int(c) for c in rng.integers(0, p, size=n))
        if nonzero and all(c == 0 for c in v):
            continue
        rows.append(v)
    return FpMultiset.from_coords(p, rows, n=n)


def cyclic_garbage(call) -> int:
    """Objects left in reference cycles by one call of `call()`, counted with gc paused.

    A first call warms anything built once per process, so only what each
    call leaves behind is counted.
    """
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()
