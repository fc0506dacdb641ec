"""Shared fixtures."""

import itertools

import numpy as np
import pytest

from peakwave import dynamics


@pytest.fixture
def nan_on_fifth_step(monkeypatch):
    """Make the cached Crank-Nicolson stepper put a NaN into its fifth result,
    whether the run advances the full line or an even half."""
    real = dynamics._stepper
    count = itertools.count(1)

    def poison(out):
        if next(count) == 5:
            out[len(out) // 3] = np.nan
        return out

    class Poisoned:
        def __init__(self, inner):
            self.inner = inner

        def step(self, u):
            return poison(self.inner.step(u))

    monkeypatch.setattr(dynamics, "_stepper", lambda *key: Poisoned(real(*key)))
