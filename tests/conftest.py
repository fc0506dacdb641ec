"""Shared fixtures."""

import itertools

import numpy as np
import pytest

from peakwave import dynamics


@pytest.fixture
def nan_on_fifth_step(monkeypatch):
    """Make the cached Crank-Nicolson stepper put a NaN into its fifth result."""
    real = dynamics._stepper
    count = itertools.count(1)

    class Poisoned:
        def __init__(self, inner):
            self.inner = inner

        def step(self, u):
            out = self.inner.step(u)
            if next(count) == 5:
                out[len(out) // 3] = np.nan
            return out

    monkeypatch.setattr(dynamics, "_stepper", lambda p, grid, dt: Poisoned(real(p, grid, dt)))
