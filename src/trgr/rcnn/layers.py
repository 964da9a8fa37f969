"""CNN building blocks with explicit forward/backward passes.

Layers cache whatever the backward pass needs on forward, compute gradients
for exactly one backward per forward, and write parameter gradients by
assignment (each parameter is touched once per pass, so no accumulation is
needed).  Convolutions use the cross-correlation convention with output size
floor((H + 2p - k) / s) + 1.
"""
from __future__ import annotations

import math

import numpy as np


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


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, shape).astype(dtype)


def _im2col(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int, oh: int, ow: int) -> np.ndarray:
    b, c = xp.shape[:2]
    cols = np.empty((b, c, kh, kw, oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]
    return cols


def _col2im(dcols: np.ndarray, padded_shape, kh: int, kw: int, sh: int, sw: int,
            oh: int, ow: int) -> np.ndarray:
    dxp = np.zeros(padded_shape, dtype=dcols.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += dcols[:, :, i, j]
    return dxp


class Conv2d:
    def __init__(self, c_in: int, c_out: int, kernel=(3, 3), stride=(1, 1), padding=(0, 0),
                 rng: np.random.Generator | None = None, dtype=np.float64):
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride, self.padding = tuple(kernel), tuple(stride), tuple(padding)
        rng = rng or np.random.default_rng(0)
        fan_in = c_in * kernel[0] * kernel[1]
        self.w = Param(_kaiming_uniform(rng, (c_out, c_in, *kernel), fan_in, dtype))
        self.b = Param(np.zeros(c_out, dtype=dtype))
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        b, c, h, w = x.shape
        if c != self.c_in:
            raise ValueError(f"expected {self.c_in} input channels, got {c}")
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        oh = conv_output_size(h, kh, sh, ph)
        ow = conv_output_size(w, kw, sw, pw)
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
        cols = _im2col(xp, kh, kw, sh, sw, oh, ow)
        cols_mat = cols.reshape(b, c * kh * kw, oh * ow)
        out = self.w.data.reshape(self.c_out, -1) @ cols_mat
        out = out.reshape(b, self.c_out, oh, ow) + self.b.data.reshape(1, -1, 1, 1)
        self._cache = (cols_mat, xp.shape, (oh, ow))
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        cols_mat, padded_shape, (oh, ow) = self._cache
        b = grad.shape[0]
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        g_mat = grad.reshape(b, self.c_out, oh * ow)
        self.w.grad = np.tensordot(g_mat, cols_mat, axes=([0, 2], [0, 2])).reshape(self.w.data.shape)
        self.b.grad = grad.sum(axis=(0, 2, 3))
        dcols = self.w.data.reshape(self.c_out, -1).T @ g_mat
        dxp = _col2im(dcols.reshape(b, self.c_in, kh, kw, oh, ow),
                      padded_shape, kh, kw, sh, sw, oh, ow)
        if ph or pw:
            h, w = padded_shape[2] - 2 * ph, padded_shape[3] - 2 * pw
            return dxp[:, :, ph:ph + h, pw:pw + w]
        return dxp

    def params(self) -> list[Param]:
        return [self.w, self.b]


class BatchNorm2d:
    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1,
                 dtype=np.float64):
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Param(np.ones(channels, dtype=dtype))
        self.beta = Param(np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
        self._cache = (xhat, inv_std, training, x.shape)
        return self.gamma.data.reshape(1, -1, 1, 1) * xhat + self.beta.data.reshape(1, -1, 1, 1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xhat, inv_std, training, shape = self._cache
        self.gamma.grad = (grad * xhat).sum(axis=(0, 2, 3))
        self.beta.grad = grad.sum(axis=(0, 2, 3))
        dxhat = grad * self.gamma.data.reshape(1, -1, 1, 1)
        if not training:
            return dxhat * inv_std.reshape(1, -1, 1, 1)
        n = shape[0] * shape[2] * shape[3]
        sum_d = dxhat.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        sum_dx = (dxhat * xhat).sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        return (inv_std.reshape(1, -1, 1, 1) / n) * (n * dxhat - sum_d - xhat * sum_dx)

    def params(self) -> list[Param]:
        return [self.gamma, self.beta]


class ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad, 0.0)

    def params(self) -> list[Param]:
        return []


class MaxPool2d:
    """Non-overlapping max pooling (stride equals the kernel); trailing rows
    and columns that do not fill a window are dropped (floor output sizes)."""

    def __init__(self, kernel: int = 2):
        self.kernel = kernel
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        k = self.kernel
        b, c, h, w = x.shape
        oh, ow = h // k, w // k
        if oh < 1 or ow < 1:
            raise ValueError(f"pooling window {k} does not fit input {h}x{w}")
        windows = (x[:, :, :oh * k, :ow * k]
                   .reshape(b, c, oh, k, ow, k)
                   .transpose(0, 1, 2, 4, 3, 5)
                   .reshape(b, c, oh, ow, k * k))
        idx = windows.argmax(axis=-1)
        out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
        self._cache = (idx, x.shape)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        idx, (b, c, h, w) = self._cache
        k = self.kernel
        oh, ow = h // k, w // k
        dwin = np.zeros((b, c, oh, ow, k * k), dtype=grad.dtype)
        np.put_along_axis(dwin, idx[..., None], grad[..., None], axis=-1)
        dx = np.zeros((b, c, h, w), dtype=grad.dtype)
        dx[:, :, :oh * k, :ow * k] = (dwin.reshape(b, c, oh, ow, k, k)
                                      .transpose(0, 1, 2, 4, 3, 5)
                                      .reshape(b, c, oh * k, ow * k))
        return dx

    def params(self) -> list[Param]:
        return []


class Flatten:
    def __init__(self):
        self._shape = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._shape)

    def params(self) -> list[Param]:
        return []


class Linear:
    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        self.in_features, self.out_features = in_features, out_features
        rng = rng or np.random.default_rng(0)
        self.w = Param(_kaiming_uniform(rng, (in_features, out_features), in_features, dtype))
        self.b = Param(np.zeros(out_features, dtype=dtype))
        self._x = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        return x @ self.w.data + self.b.data

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.w.grad = self._x.T @ grad
        self.b.grad = grad.sum(axis=0)
        return grad @ self.w.data.T

    def params(self) -> list[Param]:
        return [self.w, self.b]


class ResidualBlock:
    """conv3x3(s) -> BN -> ReLU -> conv3x3(1) -> BN, added to the shortcut,
    then ReLU.  Stride 1 keeps an identity shortcut; a strided block projects
    it through a 1x1 convolution plus BN."""

    def __init__(self, channels: int, stride: int = 1,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        self.conv1 = Conv2d(channels, channels, (3, 3), (stride, stride), (1, 1), rng, dtype)
        self.bn1 = BatchNorm2d(channels, dtype=dtype)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(channels, channels, (3, 3), (1, 1), (1, 1), rng, dtype)
        self.bn2 = BatchNorm2d(channels, dtype=dtype)
        if stride == 1:
            self.shortcut_conv = None
            self.shortcut_bn = None
        else:
            self.shortcut_conv = Conv2d(channels, channels, (1, 1), (stride, stride), (0, 0),
                                        rng, dtype)
            self.shortcut_bn = BatchNorm2d(channels, dtype=dtype)
        self.relu_out = ReLU()
        # the layers holding parameters, in parameter and checkpoint order
        self.sublayers = [self.conv1, self.bn1, self.conv2, self.bn2]
        if self.shortcut_conv is not None:
            self.sublayers += [self.shortcut_conv, self.shortcut_bn]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        main = self.conv1.forward(x, training)
        main = self.bn1.forward(main, training)
        main = self.relu1.forward(main, training)
        main = self.conv2.forward(main, training)
        main = self.bn2.forward(main, training)
        if self.shortcut_conv is None:
            shortcut = x
        else:
            shortcut = self.shortcut_bn.forward(self.shortcut_conv.forward(x, training), training)
        return self.relu_out.forward(main + shortcut, training)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        g = self.relu_out.backward(grad)
        gm = self.bn2.backward(g)
        gm = self.conv2.backward(gm)
        gm = self.relu1.backward(gm)
        gm = self.bn1.backward(gm)
        gm = self.conv1.backward(gm)
        if self.shortcut_conv is None:
            gs = g
        else:
            gs = self.shortcut_conv.backward(self.shortcut_bn.backward(g))
        return gm + gs

    def params(self) -> list[Param]:
        return [p for layer in self.sublayers for p in layer.params()]
