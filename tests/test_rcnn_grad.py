"""Analytic vs finite-difference gradients for every layer kind."""
import zlib

import numpy as np
import pytest

from helpers import LAYER_TRIALS, numeric_grad, rel_err

TOLERANCE = 1e-4
TRIALS = 20


@pytest.mark.parametrize("kind", sorted(LAYER_TRIALS))
def test_layer_gradients_match_finite_differences(kind):
    # crc32, not hash(): str hashes change with every process, so a failing
    # trial could not be replayed
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    worst = max(LAYER_TRIALS[kind](rng) for _ in range(TRIALS))
    assert worst <= TOLERANCE, f"{kind}: worst relative error {worst:.3e}"


def test_numeric_grad_on_known_function():
    # d/dx sum(x^2) = 2x, so the checker itself is checked
    x = np.array([1.0, -2.0, 0.5])
    g = numeric_grad(lambda: float((x ** 2).sum()), x)
    assert rel_err(2 * x, g) < 1e-8


def test_rel_err_scales():
    a = np.array([1.0, 2.0])
    assert rel_err(a, a) == 0.0
    assert rel_err(a, a * 1.001) == pytest.approx(1e-3, rel=0.05)
