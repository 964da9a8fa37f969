"""Residual CNN for classifying CSI magnitude frames.

The architecture is fixed: a strided 3x3 stem, two residual blocks, then three
conv/pool stages that squeeze the subcarrier axis down to a small feature map,
a flatten, and one fully connected layer producing class logits.  Softmax is
applied only by the loss and by `predict`.

`shape_chain` walks the same stage table as the layer list to compute every
output size for a given input frame, which doubles as the construction-time
shape check and the `shapes` CLI command.  Checkpoints are a small binary
format: magic, version, input geometry, a layer table, then every parameter
and BatchNorm running statistic as float32 in layer order.
"""
from __future__ import annotations

import struct

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

_HEADER = struct.Struct("<7sHIIHH")
_LAYER_REC = struct.Struct("<BHHHHHHH")
_LAYER_CODES = range(1, 8)  # the kind codes _layer_record writes
_PREDICT_CHUNK = 32


# The stages between the input and the flatten, as (name, kind, output
# channels, stride, padding).  Every convolution is 3x3 and every conv stage
# is conv -> BatchNorm -> ReLU; a residual block keeps its channel count and
# its convolutions pad by 1; a pool halves both axes.
_STAGES = (
    ("conv1", "conv", 8, 2, 0),
    ("res_block1", "residual", 8, 2, 1),
    ("res_block2", "residual", 8, 1, 1),
    ("pool1", "pool", 8, 2, 0),
    ("conv2", "conv", 16, 2, 0),
    ("pool2", "pool", 16, 2, 0),
    ("conv3", "conv", 8, 2, 1),
    ("pool3", "pool", 8, 2, 0),
    ("conv4", "conv", 8, 2, 1),
)


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

    chain: list[tuple[str, tuple]] = [("input", (1, frame_height, frame_width))]
    h, w = frame_height, frame_width
    for name, kind, channels, stride, padding in _STAGES:
        if kind == "pool":
            if h // stride < 1 or w // stride < 1:
                raise ValueError(f"pooling collapsed a {h}x{w} map")
            h, w = h // stride, w // stride
        else:
            h = conv_output_size(h, 3, stride, padding)
            w = conv_output_size(w, 3, stride, padding)
        chain.append((name, (channels, h, w)))
    chain.append(("fc_in", (channels * h * w,)))
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
        self.layers = []
        c_in = 1
        for _, kind, c_out, stride, padding in _STAGES:
            if kind == "conv":
                conv = Conv2d(c_in, c_out, (3, 3), (stride, stride), (padding, padding), rng, dtype)
                self.layers += [conv, BatchNorm2d(c_out, dtype=dtype), ReLU()]
            elif kind == "residual":
                self.layers.append(ResidualBlock(c_out, stride=stride, rng=rng, dtype=dtype))
            else:
                self.layers.append(MaxPool2d(stride))
            c_in = c_out
        self.layers += [Flatten(), Linear(self.feature_count, class_count, rng, dtype)]
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

    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Class indices: softmax then argmax, 32 frames at a time."""
        from .training import softmax

        return np.concatenate([
            softmax(self.forward(batch[i:i + _PREDICT_CHUNK])).argmax(axis=1)
            for i in range(0, batch.shape[0], _PREDICT_CHUNK)
        ])


def _layer_record(layer) -> tuple[int, ...]:
    """One layer's checkpoint table entry: kind code, kernel, stride, padding,
    output channels, with 0 for the fields the kind does not have."""
    if isinstance(layer, Conv2d):
        return (1, *layer.kernel, *layer.stride, *layer.padding, layer.c_out)
    if isinstance(layer, BatchNorm2d):
        return (2, 0, 0, 0, 0, 0, 0, layer.channels)
    if isinstance(layer, ReLU):
        return (3, 0, 0, 0, 0, 0, 0, 0)
    if isinstance(layer, MaxPool2d):
        k = layer.kernel
        return (4, k, k, k, k, 0, 0, 0)
    if isinstance(layer, ResidualBlock):
        conv = layer.conv1
        return (5, *conv.kernel, *conv.stride, *conv.padding, conv.c_out)
    if isinstance(layer, Flatten):
        return (6, 0, 0, 0, 0, 0, 0, 0)
    if isinstance(layer, Linear):
        return (7, 0, 0, 0, 0, 0, 0, layer.out_features)
    raise TypeError(f"unserializable layer {type(layer).__name__}")  # pragma: no cover


def _state_arrays(model: RcnnModel) -> list[np.ndarray]:
    """Every persisted array in checkpoint order: each layer's parameters,
    then, for BatchNorm, its running statistics, so a loaded model can run
    inference without retraining."""
    arrays: list[np.ndarray] = []
    for layer in model.layers:
        for sub in layer.sublayers if isinstance(layer, ResidualBlock) else [layer]:
            arrays += [p.data for p in sub.params()]
            if isinstance(sub, BatchNorm2d):
                arrays += [sub.running_mean, sub.running_var]
    return arrays


def save_model(model: RcnnModel, path) -> None:
    blob = bytearray()
    blob += _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                         model.frame_height, model.frame_width,
                         model.class_count, len(model.layers))
    for layer in model.layers:
        blob += _LAYER_REC.pack(*_layer_record(layer))
    for arr in _state_arrays(model):
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
    table: list[tuple[int, ...]] = []
    for _ in range(layer_count):
        if offset + _LAYER_REC.size > len(raw):
            raise ValueError("checkpoint truncated inside the layer table")
        record = _LAYER_REC.unpack_from(raw, offset)
        offset += _LAYER_REC.size
        if record[0] not in _LAYER_CODES:
            raise ValueError(f"unknown layer kind code {record[0]}")
        table.append(record)

    model = RcnnModel(height, width, class_count, dtype=dtype)
    if table != [_layer_record(layer) for layer in model.layers]:
        raise ValueError("checkpoint layer table does not match the fixed architecture")
    for target in _state_arrays(model):
        end = offset + 4 * target.size
        if end > len(raw):
            raise ValueError("checkpoint truncated inside the parameter block")
        target[...] = np.frombuffer(raw, dtype="<f4", count=target.size,
                                    offset=offset).reshape(target.shape)
        offset = end
    if offset != len(raw):
        raise ValueError("trailing bytes after the parameter block")
    return model
