"""Shared test machinery: dataset records built from frames, and
finite-difference gradient checks for every layer kind.

Each gradient trial builds a random small layer and input, computes analytic gradients
through one forward/backward pass, then compares every parameter and input
gradient against central finite differences of the scalar objective
sum(forward(x) * G) for a fixed random G.  The network's layers are built in
float32, too coarse for finite differences, so each trial casts its layer to
float64 with `as_dtype`.
"""
from __future__ import annotations

import numpy as np

from trgr.gait import record_dtype
from trgr.rcnn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
    ResidualBlock,
)
from trgr.rcnn.training import cross_entropy


def dataset_records(frames, labels, seeds) -> np.ndarray:
    """(N, T, S) frames as packed dataset records, cast to float32 through a
    ufunc's output as `render_dataset` casts a render into its record: beyond
    float32, inf."""
    frames = np.asarray(frames)
    records = np.empty(len(frames), record_dtype(*frames.shape[1:]))
    records["label"] = list(labels)
    records["episode_seed"] = list(seeds)
    with np.errstate(over="ignore"):
        np.positive(frames, out=records["magnitudes"])
    return records


def as_dtype(layer: Layer, dtype) -> Layer:
    """Cast a built layer's parameters, their gradients and the running
    statistics of every BatchNorm inside it to `dtype`, in place; returns
    the layer."""
    for param in layer.parameters():
        param.data = param.data.astype(dtype)
        param.grad = param.grad.astype(dtype)
    pending = [layer]
    while pending:
        sub = pending.pop()
        if isinstance(sub, BatchNorm2d):
            sub.running_mean = sub.running_mean.astype(dtype)
            sub.running_var = sub.running_var.astype(dtype)
        pending += [v for v in vars(sub).values() if isinstance(v, Layer)]
        pending += getattr(sub, "layers", [])
    return layer


def numeric_grad(f, arr: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = arr[idx]
        arr[idx] = old + eps
        fp = f()
        arr[idx] = old - eps
        fm = f()
        arr[idx] = old
        g[idx] = (fp - fm) / (2.0 * eps)
        it.iternext()
    return g


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    # The scale floor keeps zero-gradient tensors honest: a conv bias feeding a
    # batchnorm has true gradient 0, so both sides are round-off noise and a
    # pure ratio would compare noise against noise.
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-2)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def _keep_off_kinks(x: np.ndarray, margin: float = 0.05) -> np.ndarray:
    """Push entries away from 0 so ReLU's kink cannot sit inside the FD step."""
    small = np.abs(x) < margin
    x[small] = np.where(x[small] >= 0, margin * 2, -margin * 2)
    return x


def _separated(rng: np.random.Generator, shape, gap: float = 1e-3) -> np.ndarray:
    """Random array whose values are pairwise separated (no argmax ties)."""
    flat = rng.permutation(np.arange(np.size(np.empty(shape)), dtype=np.float64))
    return (flat * 0.1 + rng.uniform(0, gap, flat.shape)).reshape(shape)


def _check_layer(layer, x: np.ndarray, rng: np.random.Generator) -> float:
    out = layer.forward(x, training=True)
    upstream = rng.standard_normal(out.shape)
    gx = layer.backward(upstream)

    def objective():
        return float((layer.forward(x, training=True) * upstream).sum())

    worst = rel_err(gx, numeric_grad(objective, x))
    for param in layer.parameters():
        grad = param.grad.copy()
        worst = max(worst, rel_err(grad, numeric_grad(objective, param.data)))
    return worst


def conv_trial(rng: np.random.Generator) -> float:
    kh, kw = rng.integers(1, 4), rng.integers(1, 4)
    sh, sw = rng.integers(1, 3), rng.integers(1, 3)
    ph, pw = rng.integers(0, 2), rng.integers(0, 2)
    oh, ow = rng.integers(1, 4), rng.integers(1, 4)
    h = kh - 2 * ph + sh * (oh - 1)
    w = kw - 2 * pw + sw * (ow - 1)
    if h < 1 or w < 1:
        return conv_trial(rng)
    c_in, c_out, b = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 4)
    layer = as_dtype(Conv2d(c_in, c_out, (kh, kw), (sh, sw), (ph, pw), rng), np.float64)
    x = rng.standard_normal((b, c_in, h, w))
    return _check_layer(layer, x, rng)


def batchnorm_trial(rng: np.random.Generator) -> float:
    c = rng.integers(1, 4)
    b, h, w = rng.integers(2, 5), rng.integers(1, 4), rng.integers(2, 5)
    layer = as_dtype(BatchNorm2d(int(c)), np.float64)
    layer.gamma.data = rng.uniform(0.5, 1.5, c)
    layer.beta.data = rng.standard_normal(c)
    x = rng.standard_normal((b, c, h, w))
    return _check_layer(layer, x, rng)


def relu_trial(rng: np.random.Generator) -> float:
    shape = (rng.integers(1, 4), rng.integers(1, 4), rng.integers(2, 6), rng.integers(2, 6))
    x = _keep_off_kinks(rng.standard_normal(shape))
    return _check_layer(ReLU(), x, rng)


def maxpool_trial(rng: np.random.Generator) -> float:
    k = int(rng.integers(2, 4))
    b, c = rng.integers(1, 3), rng.integers(1, 3)
    h = k * rng.integers(1, 4) + rng.integers(0, k)
    w = k * rng.integers(1, 4) + rng.integers(0, k)
    x = _separated(rng, (int(b), int(c), int(h), int(w)))
    return _check_layer(MaxPool2d(k), x, rng)


def flatten_trial(rng: np.random.Generator) -> float:
    shape = (rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 5), rng.integers(1, 5))
    return _check_layer(Flatten(), rng.standard_normal(shape), rng)


def linear_trial(rng: np.random.Generator) -> float:
    n_in, n_out, b = rng.integers(1, 8), rng.integers(1, 6), rng.integers(1, 5)
    layer = as_dtype(Linear(int(n_in), int(n_out), rng), np.float64)
    x = rng.standard_normal((b, n_in))
    return _check_layer(layer, x, rng)


def residual_trial(rng: np.random.Generator) -> float:
    c = int(rng.integers(1, 3))
    stride = int(rng.integers(1, 3))
    b = int(rng.integers(2, 4))
    h, w = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    layer = as_dtype(ResidualBlock(c, stride, rng), np.float64)
    x = rng.standard_normal((b, c, h, w))
    return _check_layer(layer, x, rng)


def loss_trial(rng: np.random.Generator) -> float:
    b, k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    logits = rng.standard_normal((b, k))
    labels = rng.integers(0, k, b)
    _, analytic = cross_entropy(logits, labels)

    def objective():
        return cross_entropy(logits, labels)[0]

    return rel_err(analytic, numeric_grad(objective, logits))


LAYER_TRIALS = {
    "conv": conv_trial,
    "batchnorm": batchnorm_trial,
    "relu": relu_trial,
    "maxpool": maxpool_trial,
    "flatten": flatten_trial,
    "linear": linear_trial,
    "residual": residual_trial,
    "softmax_cross_entropy": loss_trial,
}


def run_gradient_suite(trials: int = 20, seed: int = 1234) -> dict[str, float]:
    """Worst relative error per layer kind over `trials` randomized checks."""
    rng = np.random.default_rng(seed)
    return {
        name: max(trial(rng) for _ in range(trials))
        for name, trial in LAYER_TRIALS.items()
    }
