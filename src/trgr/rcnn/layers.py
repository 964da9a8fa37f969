"""CNN building blocks with explicit forward/backward passes.

Every layer follows one protocol, `Layer`: a training forward keeps what the
backward reads in `_cache` and an eval forward sets it to None; backward writes
parameter gradients by assignment, one backward per forward; `state()` lists
the arrays a checkpoint persists.  `Chain` is the one walk over a layer
sequence, and `_windows` the one window helper, serving the convolution forward
and backward and both pooling passes.  Convolutions use the cross-correlation
convention with output size floor((H + 2p - k) / s) + 1.

The elementwise layers select by arithmetic, because `np.where` on a
data-dependent mask is slower for the same bytes: ReLU is a maximum, its
backward and MaxPool's a multiply by a cached mask, and MaxPool keeps a
first-hit tap index.  `+= 0.0` turns the -0.0 of a negative gradient
times False back into the select's +0.0.  ReLU so propagates a NaN, which the
select zeroed; the dataset's load check keeps NaN frames out, and a
FloatingPointError inside a training epoch still ends in one `training
diverged` error.  BatchNorm's training statistics centre the input once.

A convolution's weight gradient is one GEMM per frame over the im2col columns
its training forward cached, summed over the batch, because contracting the
batch inside one `tensordot` copies the whole column matrix first.
`Conv2d.parameter_backward` writes the parameter gradients alone; `backward`
calls it, then forms the input gradient, which `RcnnModel.backward` never
asks of the stem.

`TEMP_BYTES` caps the scratch of inference: an eval convolution runs its
im2col GEMM one block of output rows at a time, and `RcnnModel.predict` sizes
its chunks by it.

`folded()` gives the layer an eval forward runs, after dropping the layer's
training cache; a chain folds each BatchNorm2d that follows a Conv2d into that
convolution (Jacob et al., CVPR 2018, section 3.2), so an eval forward skips
BatchNorm's own pass over each activation.  `BatchNorm2d.affine` is the one
definition of BatchNorm's eval map, a per-channel scale and shift in float64
from gamma, beta, the running statistics and BN_EPS.  BatchNorm's own eval
forward applies it, and `BatchNorm2d.fold` builds a new Conv2d with weights
times scale and bias times scale plus shift, both cast to DTYPE.
"""
from __future__ import annotations

import copy
import math

import numpy as np

# the one dtype of the network's parameters, running statistics, activations
# and stacked frames; every layer draws its weights in float64, then casts
DTYPE = np.dtype(np.float32)
BN_EPS = 1e-5       # BatchNorm variance floor
BN_MOMENTUM = 0.1   # BatchNorm running-statistics update weight
# bytes of one eval convolution's column block and of the widest activation
# of a `predict` chunk: glibc maps every array past 32 MiB afresh, so each
# call page-faults it in and unmaps it again
TEMP_BYTES = 4 << 20


class Param:
    """A trainable array and the gradient from the latest backward pass."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = data
        self.grad = np.zeros_like(data)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"convolution output collapsed: size {size}, kernel {kernel}, "
            f"stride {stride}, padding {padding}"
        )
    return out


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, shape).astype(DTYPE)


def _windows(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """Writable (B, C, kh, kw, oh, ow) view, floor sizes: [..., i, j, y, x] is
    x[..., i + sh*y, j + sw*x].  Overlapping windows alias: write one tap at a time."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3), writeable=True)
    return windows[:, :, ::sh, ::sw].transpose(0, 1, 4, 5, 2, 3)


class Layer:
    """The defaults of the layer protocol: no backward state, no parameters."""

    _cache = None

    def parameters(self) -> list[Param]:
        return []

    def state(self) -> list[np.ndarray]:
        """The arrays a checkpoint persists, in checkpoint order."""
        return [p.data for p in self.parameters()]

    def folded(self) -> Layer:
        """The layer an eval forward runs, with this one's training cache dropped."""
        self._cache = None
        return self


class Chain(Layer):
    """Layers run in order, backward in reverse; an empty chain is the identity."""

    def __init__(self, layers=()):
        self.layers = list(layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.parameters()]

    def state(self) -> list[np.ndarray]:
        return [a for layer in self.layers for a in layer.state()]

    def folded(self) -> Chain:
        """A new chain of the folded layers: each BatchNorm2d that follows a
        Conv2d is folded into it."""
        layers = []
        for layer in self.layers:
            if isinstance(layer, BatchNorm2d) and layers and isinstance(layers[-1], Conv2d):
                layers[-1] = layer.fold(layers[-1])
            else:
                layers.append(layer.folded())
        return Chain(layers)


class Conv2d(Layer):
    def __init__(self, c_in: int, c_out: int, kernel, stride, padding,
                 rng: np.random.Generator):
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride, self.padding = tuple(kernel), tuple(stride), tuple(padding)
        fan_in = c_in * kernel[0] * kernel[1]
        self.w = Param(_kaiming_uniform(rng, (c_out, c_in, *kernel), fan_in))
        self.b = Param(np.zeros(c_out, dtype=DTYPE))

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        b, c, h, w = x.shape
        if c != self.c_in:
            raise ValueError(f"expected {self.c_in} input channels, got {c}")
        (kh, kw), (sh, sw), (ph, pw) = self.kernel, self.stride, self.padding
        oh = conv_output_size(h, kh, sh, ph)
        ow = conv_output_size(w, kw, sw, pw)
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
        windows = _windows(xp, kh, kw, sh, sw)
        weights = self.w.data.reshape(self.c_out, -1)
        out = np.empty((b, self.c_out, oh * ow), dtype=np.result_type(weights, xp))
        # the backward reads a training forward's columns, so it builds them in
        # one block; an eval forward builds at most TEMP_BYTES of them at a time
        rows = oh if training else max(1, TEMP_BYTES // (b * c * kh * kw * ow * xp.itemsize))
        for y in range(0, oh, rows):
            cols_mat = windows[..., y:y + rows, :].reshape(b, c * kh * kw, -1)
            np.matmul(weights, cols_mat, out=out[..., y * ow:(y + rows) * ow])
        out += self.b.data.reshape(1, -1, 1)
        self._cache = (cols_mat, xp.shape) if training else None
        return out.reshape(b, self.c_out, oh, ow)

    def parameter_backward(self, grad: np.ndarray) -> None:
        """Write the weight and bias gradients, and form no input gradient."""
        cols_mat, _ = self._cache
        g_mat = grad.reshape(grad.shape[0], self.c_out, -1)
        # (B, c*kh*kw, c_out), one GEMM per frame, then summed over the batch
        per_frame = np.matmul(cols_mat, g_mat.transpose(0, 2, 1))
        self.w.grad = per_frame.sum(axis=0).T.reshape(self.w.data.shape)
        self.b.grad = grad.sum(axis=(0, 2, 3))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.parameter_backward(grad)
        _, padded_shape = self._cache
        b, _, oh, ow = grad.shape
        (kh, kw), (sh, sw), (ph, pw) = self.kernel, self.stride, self.padding
        g_mat = grad.reshape(b, self.c_out, oh * ow)
        dcols = self.w.data.reshape(self.c_out, -1).T @ g_mat
        dcols = dcols.reshape(b, self.c_in, kh, kw, oh, ow)
        dxp = np.zeros(padded_shape, dtype=dcols.dtype)
        windows = _windows(dxp, kh, kw, sh, sw)
        for i, j in np.ndindex(kh, kw):
            windows[:, :, i, j] += dcols[:, :, i, j]
        return dxp[:, :, ph:padded_shape[2] - ph, pw:padded_shape[3] - pw]

    def parameters(self) -> list[Param]:
        return [self.w, self.b]


def _batch_mean(x: np.ndarray) -> np.ndarray:
    """Per-channel mean over (B, H, W), keepdims: `x.mean(axis=(0, 2, 3))`'s
    bytes, an add-reduce divided by the intp count."""
    total = np.add.reduce(x, axis=(0, 2, 3), keepdims=True)
    return np.true_divide(total, np.intp(x.size // x.shape[1]), out=total, casting="unsafe")


class BatchNorm2d(Layer):
    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = Param(np.ones(channels, dtype=DTYPE))
        self.beta = Param(np.zeros(channels, dtype=DTYPE))
        self.running_mean = np.zeros(channels, dtype=DTYPE)
        self.running_var = np.ones(channels, dtype=DTYPE)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training:
            self._cache = None
            dtype = np.result_type(x, self.gamma.data)
            scale, shift = (a.astype(dtype).reshape(1, -1, 1, 1) for a in self.affine())
            out = x * scale
            return np.add(out, shift, out=out)
        # numpy's own mean and var steps, sharing the centred array
        mean = _batch_mean(x)
        xhat = x - mean
        var = _batch_mean(np.square(xhat))
        self.running_mean = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean.ravel()
        self.running_var = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var.ravel()
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std.reshape(1, -1, 1, 1)
        self._cache = (xhat, inv_std)
        out = self.gamma.data.reshape(1, -1, 1, 1) * xhat
        return np.add(out, self.beta.data.reshape(1, -1, 1, 1), out=out)

    def affine(self) -> tuple[np.ndarray, np.ndarray]:
        """The eval map out = scale * x + shift, per channel in float64, from
        gamma, beta and the running statistics."""
        scale = self.gamma.data / np.sqrt(self.running_var.astype(np.float64) + BN_EPS)
        return scale, self.beta.data - self.running_mean * scale

    def fold(self, conv: Conv2d) -> Conv2d:
        """A new Conv2d whose forward is this layer's eval forward of `conv`'s:
        weights times scale, bias times scale plus shift, both cast to DTYPE."""
        self._cache = None
        scale, shift = self.affine()
        folded = copy.copy(conv.folded())
        folded.w = Param((conv.w.data * scale.reshape(-1, 1, 1, 1)).astype(DTYPE))
        folded.b = Param((conv.b.data * scale + shift).astype(DTYPE))
        return folded

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xhat, inv_std = self._cache
        # (inv_std / n) * (n * dxhat - sum_d - xhat * sum_dx) in two full-size
        # arrays; each product keeps or swaps its operands, so the bits hold
        prod = np.multiply(grad, xhat)
        self.gamma.grad = prod.sum(axis=(0, 2, 3))
        self.beta.grad = grad.sum(axis=(0, 2, 3))
        dxhat = grad * self.gamma.data.reshape(1, -1, 1, 1)
        n = grad.shape[0] * grad.shape[2] * grad.shape[3]
        sum_d = dxhat.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        sum_dx = np.multiply(dxhat, xhat, out=prod).sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        dxhat *= n
        dxhat -= sum_d
        dxhat -= np.multiply(xhat, sum_dx, out=prod)
        dxhat *= inv_std.reshape(1, -1, 1, 1) / n
        return dxhat

    def parameters(self) -> list[Param]:
        return [self.gamma, self.beta]

    def state(self) -> list[np.ndarray]:
        # running statistics, so a loaded model can run inference untrained
        return super().state() + [self.running_mean, self.running_var]


class ReLU(Layer):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = x > 0 if training else None
        # maximum(-0.0, 0.0) is +0.0; a NaN passes through
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        dx = np.multiply(grad, self._cache)
        dx += 0.0  # a negative gradient times False is -0.0
        return dx


class MaxPool2d(Layer):
    """Non-overlapping max pooling (stride equals the kernel); trailing rows
    and columns that do not fill a window are dropped (floor output sizes)."""

    def __init__(self, kernel: int = 2):
        self.kernel = kernel

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        k = self.kernel
        h, w = x.shape[2:]
        oh, ow = h // k, w // k
        if oh < 1 or ow < 1:
            raise ValueError(f"pooling window {k} does not fit input {h}x{w}")
        # an elementwise maximum over the taps is an order of magnitude faster
        # than a reduction over two length-k axes of a reshaped view, and the
        # tap comparisons below than an argmax over the stacked taps
        windows = _windows(x, k, k, k, k)
        taps = [windows[:, :, i, j] for i, j in np.ndindex(k, k)]
        out = taps[0].copy()
        for tap in taps[1:]:
            np.maximum(out, tap, out=out)
        self._cache = None
        if training:
            # backward routes each gradient to the window's first tap equal to
            # its maximum, argmax's choice in a window without NaN: the index
            # counts the taps before that first hit, in the smallest unsigned
            # type that holds k*k - 1
            idx = np.zeros(out.shape, dtype=np.min_scalar_type(k * k - 1))
            taken = np.zeros(out.shape, dtype=bool)
            for tap in taps[:-1]:
                taken |= tap == out
                idx += ~taken
            self._cache = (idx, x.shape)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        idx, shape = self._cache
        k = self.kernel
        dx = np.zeros(shape, dtype=grad.dtype)
        windows = _windows(dx, k, k, k, k)
        for t, (i, j) in enumerate(np.ndindex(k, k)):
            np.multiply(grad, idx == t, out=windows[:, :, i, j])
        dx += 0.0  # a negative gradient times False is -0.0
        return dx


class Flatten(Layer):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = x.shape if training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._cache)


class Linear(Layer):
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.in_features, self.out_features = in_features, out_features
        self.w = Param(_kaiming_uniform(rng, (in_features, out_features), in_features))
        self.b = Param(np.zeros(out_features, dtype=DTYPE))

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = x if training else None
        return x @ self.w.data + self.b.data

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.w.grad = self._cache.T @ grad
        self.b.grad = grad.sum(axis=0)
        return grad @ self.w.data.T

    def parameters(self) -> list[Param]:
        return [self.w, self.b]


class ResidualBlock(Layer):
    """conv3x3(s) -> BN -> ReLU -> conv3x3(1) -> BN, added to the shortcut,
    then ReLU.  Stride 1 keeps an identity shortcut (an empty chain); a
    strided block projects it through a 1x1 convolution plus BN.  The main
    path's output and input gradient are fresh arrays nothing else holds, so
    the shortcut's are added onto them in place.  Parameters and checkpoint
    arrays run through the main path, then the shortcut."""

    def __init__(self, channels: int, stride: int, rng: np.random.Generator):
        self.conv1 = Conv2d(channels, channels, (3, 3), (stride, stride), (1, 1), rng)
        self.conv2 = Conv2d(channels, channels, (3, 3), (1, 1), (1, 1), rng)
        self.main = Chain([self.conv1, BatchNorm2d(channels), ReLU(),
                           self.conv2, BatchNorm2d(channels)])
        self.shortcut_conv = None
        self.shortcut = Chain()
        if stride != 1:
            self.shortcut_conv = Conv2d(channels, channels, (1, 1), (stride, stride), (0, 0), rng)
            self.shortcut = Chain([self.shortcut_conv, BatchNorm2d(channels)])
        self.relu_out = ReLU()

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = self.main.forward(x, training)
        out += self.shortcut.forward(x, training)
        return self.relu_out.forward(out, training)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        g = self.relu_out.backward(grad)
        dx = self.main.backward(g)
        dx += self.shortcut.backward(g)
        return dx

    def parameters(self) -> list[Param]:
        return self.main.parameters() + self.shortcut.parameters()

    def state(self) -> list[np.ndarray]:
        return self.main.state() + self.shortcut.state()

    def folded(self) -> ResidualBlock:
        """A new block whose main path and shortcut are folded chains."""
        block = copy.copy(self)
        block.main, block.shortcut = self.main.folded(), self.shortcut.folded()
        block.conv1, _, block.conv2 = block.main.layers
        block.shortcut_conv = block.shortcut.layers[0] if block.shortcut.layers else None
        block.relu_out = self.relu_out.folded()
        return block
