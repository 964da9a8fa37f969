"""Analytic vs finite-difference gradients for every layer kind."""
import zlib

import numpy as np
import pytest

from helpers import LAYER_TRIALS, as_dtype, numeric_grad, rel_err
from trgr.rcnn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    ResidualBlock,
)

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


# one built layer of every trial kind but the loss, and a strided residual
# block, whose shortcut holds a BatchNorm of its own
BUILDERS = {
    "conv": lambda rng: Conv2d(2, 3, (3, 2), (2, 1), (1, 0), rng),
    "batchnorm": lambda rng: BatchNorm2d(3),
    "relu": lambda rng: ReLU(),
    "maxpool": lambda rng: MaxPool2d(2),
    "flatten": lambda rng: Flatten(),
    "linear": lambda rng: Linear(4, 3, rng),
    "residual": lambda rng: ResidualBlock(2, 1, rng),
    "residual_strided": lambda rng: ResidualBlock(2, 2, rng),
}


def test_builders_cover_every_layer_trial():
    assert set(BUILDERS) >= set(LAYER_TRIALS) - {"softmax_cross_entropy"}


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_as_dtype_casts_every_state_array_and_gradient(kind):
    layer = BUILDERS[kind](np.random.default_rng(0))
    before = [a.copy() for a in layer.state()]
    assert as_dtype(layer, np.float64) is layer
    arrays = layer.state() + [p.grad for p in layer.parameters()]
    assert all(a.dtype == np.float64 for a in arrays)
    # float32 values are exact in float64
    assert [a.tolist() for a in layer.state()] == [a.tolist() for a in before]
