"""Residual CNN for classifying CSI magnitude frames.

The architecture is fixed: a strided 3x3 stem, two residual blocks, then three
conv/pool stages that squeeze the subcarrier axis down to a small feature map,
a flatten, and one fully connected layer producing class logits.  Softmax is
applied only by the loss and by `predict`.

`shape_chain` computes every intermediate output size for a given input frame,
which doubles as the construction-time shape check and the `shapes` CLI
command.  Checkpoints are a small binary format: magic, version, input geometry,
a layer table, then all parameters as float32 in declaration order.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..seeds import mix_seeds
from .layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    Param,
    ReLU,
    ResidualBlock,
    conv_output_size,
)

CHECKPOINT_MAGIC = b"TRGRMDL"
CHECKPOINT_VERSION = 1

KIND_CONV = "conv"
KIND_BATCHNORM = "batchnorm"
KIND_RELU = "relu"
KIND_MAXPOOL = "maxpool"
KIND_RESIDUAL = "residual"
KIND_FLATTEN = "flatten"
KIND_FC = "fc"

_KIND_CODES = {
    KIND_CONV: 1,
    KIND_BATCHNORM: 2,
    KIND_RELU: 3,
    KIND_MAXPOOL: 4,
    KIND_RESIDUAL: 5,
    KIND_FLATTEN: 6,
    KIND_FC: 7,
}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}

_HEADER = struct.Struct("<7sHIIHH")
_LAYER_REC = struct.Struct("<BHHHHHHH")


@dataclass(frozen=True)
class LayerSpec:
    """Structural description of one layer, used for the checkpoint table."""

    kind: str
    kernel: tuple[int, int] = (0, 0)
    stride: tuple[int, int] = (0, 0)
    padding: tuple[int, int] = (0, 0)
    channels_out: int = 0

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if any(v < 0 for v in (*self.kernel, *self.stride, *self.padding, self.channels_out)):
            raise ValueError("layer geometry fields must be nonnegative")


def shape_chain(frame_height: int, frame_width: int, class_count: int) -> list[tuple[str, tuple]]:
    """Return (stage name, output shape) pairs for the whole network.

    Raises ValueError if any stage's spatial output would collapse below 1,
    which is how undersized inputs are rejected before any parameters are
    allocated.
    """
    if frame_height < 1 or frame_width < 1:
        raise ValueError("input frame must be at least 1x1")
    if class_count < 2:
        raise ValueError("need at least two classes")

    def conv(hw, k, s, p):
        return (conv_output_size(hw[0], k, s, p), conv_output_size(hw[1], k, s, p))

    def pool(hw):
        oh, ow = hw[0] // 2, hw[1] // 2
        if oh < 1 or ow < 1:
            raise ValueError(f"pooling collapsed a {hw[0]}x{hw[1]} map")
        return (oh, ow)

    chain: list[tuple[str, tuple]] = [("input", (1, frame_height, frame_width))]
    hw = (frame_height, frame_width)
    hw = conv(hw, 3, 2, 0)
    chain.append(("conv1", (8, *hw)))
    hw = conv(hw, 3, 2, 1)
    chain.append(("res_block1", (8, *hw)))
    chain.append(("res_block2", (8, *hw)))
    hw = pool(hw)
    chain.append(("pool1", (8, *hw)))
    hw = conv(hw, 3, 2, 0)
    chain.append(("conv2", (16, *hw)))
    hw = pool(hw)
    chain.append(("pool2", (16, *hw)))
    hw = conv(hw, 3, 2, 1)
    chain.append(("conv3", (8, *hw)))
    hw = pool(hw)
    chain.append(("pool3", (8, *hw)))
    hw = conv(hw, 3, 2, 1)
    chain.append(("conv4", (8, *hw)))
    chain.append(("fc_in", (8 * hw[0] * hw[1],)))
    chain.append(("output", (class_count,)))
    return chain


class RcnnModel:
    """The fixed residual CNN, parameterized by input frame size and K."""

    def __init__(self, frame_height: int, frame_width: int, class_count: int,
                 seed: int = 0, dtype=np.float64):
        chain = shape_chain(frame_height, frame_width, class_count)
        self.frame_height = frame_height
        self.frame_width = frame_width
        self.class_count = class_count
        self.dtype = np.dtype(dtype)
        self.feature_count = chain[-2][1][0]
        rng = np.random.default_rng(mix_seeds(seed, 0x6D6F64656C))
        self.layers = [
            Conv2d(1, 8, (3, 3), (2, 2), (0, 0), rng, dtype),
            BatchNorm2d(8, dtype=dtype),
            ReLU(),
            ResidualBlock(8, stride=2, rng=rng, dtype=dtype),
            ResidualBlock(8, stride=1, rng=rng, dtype=dtype),
            MaxPool2d(2),
            Conv2d(8, 16, (3, 3), (2, 2), (0, 0), rng, dtype),
            BatchNorm2d(16, dtype=dtype),
            ReLU(),
            MaxPool2d(2),
            Conv2d(16, 8, (3, 3), (2, 2), (1, 1), rng, dtype),
            BatchNorm2d(8, dtype=dtype),
            ReLU(),
            MaxPool2d(2),
            Conv2d(8, 8, (3, 3), (2, 2), (1, 1), rng, dtype),
            BatchNorm2d(8, dtype=dtype),
            ReLU(),
            Flatten(),
            Linear(self.feature_count, class_count, rng, dtype),
        ]
        # zero classifier head: a fresh model scores the uniform-softmax
        # baseline (loss ln K) before any updates
        self.layers[-1].w.data[...] = 0.0

    def forward(self, batch: np.ndarray, training: bool = False) -> np.ndarray:
        if batch.ndim != 4 or batch.shape[1] != 1:
            raise ValueError("expected a batch shaped (B, 1, H, W)")
        if batch.shape[2] != self.frame_height or batch.shape[3] != self.frame_width:
            raise ValueError(
                f"frame size {batch.shape[2]}x{batch.shape[3]} does not match the "
                f"model's {self.frame_height}x{self.frame_width}"
            )
        out = batch.astype(self.dtype, copy=False)
        for layer in self.layers:
            out = layer.forward(out, training)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> list[Param]:
        out: list[Param] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def predict_proba(self, batch: np.ndarray, chunk: int = 32) -> np.ndarray:
        from .training import softmax

        parts = [softmax(self.forward(batch[i:i + chunk]))
                 for i in range(0, batch.shape[0], chunk)]
        return np.concatenate(parts, axis=0)

    def predict(self, batch: np.ndarray, chunk: int = 32) -> np.ndarray:
        return self.predict_proba(batch, chunk).argmax(axis=1)

    def layer_specs(self) -> list[LayerSpec]:
        out: list[LayerSpec] = []
        for layer in self.layers:
            if isinstance(layer, Conv2d):
                out.append(LayerSpec(KIND_CONV, layer.kernel, layer.stride,
                                     layer.padding, layer.c_out))
            elif isinstance(layer, BatchNorm2d):
                out.append(LayerSpec(KIND_BATCHNORM, channels_out=layer.channels))
            elif isinstance(layer, ReLU):
                out.append(LayerSpec(KIND_RELU))
            elif isinstance(layer, MaxPool2d):
                out.append(LayerSpec(KIND_MAXPOOL, (layer.kernel, layer.kernel),
                                     (layer.kernel, layer.kernel)))
            elif isinstance(layer, ResidualBlock):
                out.append(LayerSpec(KIND_RESIDUAL, (3, 3), (layer.stride, layer.stride),
                                     (1, 1), layer.channels))
            elif isinstance(layer, Flatten):
                out.append(LayerSpec(KIND_FLATTEN))
            elif isinstance(layer, Linear):
                out.append(LayerSpec(KIND_FC, channels_out=layer.out_features))
            else:  # pragma: no cover - the stack is fixed
                raise TypeError(f"unserializable layer {type(layer).__name__}")
        return out


def _flat_layers(model: RcnnModel) -> list:
    flat = []
    for layer in model.layers:
        if isinstance(layer, ResidualBlock):
            flat += [layer.conv1, layer.bn1, layer.conv2, layer.bn2]
            if layer.shortcut_conv is not None:
                flat += [layer.shortcut_conv, layer.shortcut_bn]
        else:
            flat.append(layer)
    return flat


def _tensor_refs(model: RcnnModel) -> list[tuple[object, str, bool]]:
    """Every persisted array as (owner, attribute, is_trainable) in a fixed
    order.  BatchNorm running statistics ride along so a loaded model can run
    inference without retraining."""
    refs: list[tuple[object, str, bool]] = []
    for layer in _flat_layers(model):
        if isinstance(layer, (Conv2d, Linear)):
            refs += [(layer, "w", True), (layer, "b", True)]
        elif isinstance(layer, BatchNorm2d):
            refs += [(layer, "gamma", True), (layer, "beta", True),
                     (layer, "running_mean", False), (layer, "running_var", False)]
    return refs


def save_model(model: RcnnModel, path) -> None:
    specs = model.layer_specs()
    blob = bytearray()
    blob += _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                         model.frame_height, model.frame_width,
                         model.class_count, len(specs))
    for spec in specs:
        blob += _LAYER_REC.pack(_KIND_CODES[spec.kind], *spec.kernel, *spec.stride,
                                *spec.padding, spec.channels_out)
    for owner, name, trainable in _tensor_refs(model):
        arr = getattr(owner, name).data if trainable else getattr(owner, name)
        blob += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def load_model(path, dtype=np.float64) -> RcnnModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError("checkpoint truncated before the header")
    magic, version, height, width, class_count, layer_count = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    offset = _HEADER.size
    specs: list[LayerSpec] = []
    for _ in range(layer_count):
        if offset + _LAYER_REC.size > len(raw):
            raise ValueError("checkpoint truncated inside the layer table")
        code, kh, kw, sh, sw, ph, pw, cout = _LAYER_REC.unpack_from(raw, offset)
        offset += _LAYER_REC.size
        if code not in _CODE_KINDS:
            raise ValueError(f"unknown layer kind code {code}")
        specs.append(LayerSpec(_CODE_KINDS[code], (kh, kw), (sh, sw), (ph, pw), cout))

    model = RcnnModel(height, width, class_count, dtype=dtype)
    if model.layer_specs() != specs:
        raise ValueError("checkpoint layer table does not match the fixed architecture")
    for owner, name, trainable in _tensor_refs(model):
        target = getattr(owner, name).data if trainable else getattr(owner, name)
        count = target.size
        end = offset + 4 * count
        if end > len(raw):
            raise ValueError("checkpoint truncated inside the parameter block")
        values = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        restored = values.astype(model.dtype).reshape(target.shape)
        if trainable:
            param = getattr(owner, name)
            param.data = restored
            param.grad = np.zeros_like(restored)
        else:
            setattr(owner, name, restored)
        offset = end
    if offset != len(raw):
        raise ValueError("trailing bytes after the parameter block")
    return model
