"""Residual CNN for classifying CSI magnitude frames.

The architecture is fixed: a strided 3x3 stem, two residual blocks, then three
conv/pool stages that squeeze the subcarrier axis down to a small feature map,
a flatten, and one fully connected layer producing class logits.  Softmax is
applied only by the loss and by `predict`, which scores as many frames per
forward as keep the widest activation within `layers.TEMP_BYTES` (13 desk
frames of 150x256).

The network trains and scores in `layers.DTYPE`, float32, the precision its
checkpoint stores, so a checkpoint holds the trained state exactly and a
loaded model scores as the trained one did.  Finite differences need float64:
`tests/helpers.py` casts a built layer to it.

Every eval forward, and so `predict`, `training.evaluate` and the per-epoch
scoring of `training.train`, runs the folded network (`RcnnModel.folded`): a
copy of the model, built from the live parameters and never stored, in which
each of the 9 conv+BatchNorm pairs is one Conv2d on the same blocked eval
forward.  BatchNorm was about 24 % of `predict`.  `predict` folds once per
call, not once per chunk, because a fold costs about 0.2 ms, 4-5 % of a
200-frame desk predict at 16 chunks.  The folded network rounds differently,
so the logits move in their last float32 bits.

`shape_chain` walks the same stage table as the layer list to compute every
output size for a given input frame (the construction-time shape check and
the `shapes` command).  `_layer_table` encodes it as the checkpoint's layer
table; a checkpoint is magic, version, input geometry, that table, then the
state as float32 in layer order.  Loading compares the table bytes and the
state's exact size and rejects a non-finite value or a negative BatchNorm
running variance, whose fold would divide by the square root of a negative
number; saving refuses a state that is not finite in float32.
"""
from __future__ import annotations

import copy
import math
import struct

import numpy as np

from ..seeds import mix_seeds
from .layers import (
    DTYPE,
    TEMP_BYTES,
    BatchNorm2d,
    Chain,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    ResidualBlock,
    conv_output_size,
)

CHECKPOINT_MAGIC = b"TRGRMDL"
CHECKPOINT_VERSION = 1

_HEADER = struct.Struct("<7sHIIHH")
_LAYER_REC = struct.Struct("<BHHHHHHH")


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


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


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


class RcnnModel(Chain):
    """The fixed residual CNN, parameterized by input frame size and K; its
    parameters and checkpoint arrays run in layer order."""

    dtype = DTYPE
    _is_folded = False

    def __init__(self, frame_height: int, frame_width: int, class_count: int, seed: int = 0):
        chain = shape_chain(frame_height, frame_width, class_count)
        self.frame_height = frame_height
        self.frame_width = frame_width
        self.class_count = class_count
        self.feature_count = chain[-2][1][0]
        rng = np.random.default_rng(mix_seeds(seed, 0x6D6F64656C))
        super().__init__()
        c_in = 1
        for _, kind, c_out, stride, padding in _STAGES:
            if kind == "conv":
                conv = Conv2d(c_in, c_out, (3, 3), (stride, stride), (padding, padding), rng)
                self.layers += [conv, BatchNorm2d(c_out), ReLU()]
            elif kind == "residual":
                self.layers.append(ResidualBlock(c_out, stride=stride, rng=rng))
            else:
                self.layers.append(MaxPool2d(stride))
            c_in = c_out
        self.layers += [Flatten(), Linear(self.feature_count, class_count, rng)]
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
        # no local name for the cast frames, so the chain frees them after the stem
        net = self if training or self._is_folded else self.folded()
        return Chain.forward(net, batch.astype(self.dtype, copy=False), training)

    def folded(self) -> RcnnModel:
        """A copy of the model whose layers are `Chain.folded`'s, built from
        the live parameters; its eval forward runs them as they are."""
        net = copy.copy(self)
        net.layers = Chain.folded(self).layers
        net._is_folded = True
        return net

    def backward(self, grad: np.ndarray) -> None:
        """Write every parameter gradient from the loss gradient of the
        logits: the layers after the stem walk back as a chain, then the stem
        convolution writes its weight and bias gradients only, so the
        gradient with respect to the frames, which nothing reads, is never
        formed.  Each convolution's weight gradient is one GEMM per frame
        over its cached im2col columns, summed over the batch: one
        `tensordot` over batch and position copied the whole column matrix
        first, 43.6 MB per residual conv at 150x8192 and B=2."""
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        self.layers[0].parameter_backward(grad)

    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Class indices: softmax then argmax, as many frames per forward as
        keep the widest activation of `shape_chain` within TEMP_BYTES (at
        least one).

        Before the first chunk, one 4 x TEMP_BYTES array is allocated and
        freed untouched.  glibc raises its mmap threshold to the largest
        mapped block freed so far, up to its 32 MiB ceiling, and its heap
        trim threshold to twice that.  In a process that has not trained,
        the largest freed block was a 4 MiB column block, so the heap was
        trimmed and grown again on every chunk: 39,219 minor faults per
        70-frame desk predict, 5 after the 16 MiB block."""
        widest = max(math.prod(shape) for _, shape in
                     shape_chain(self.frame_height, self.frame_width, self.class_count))
        chunk = max(1, TEMP_BYTES // (widest * self.dtype.itemsize))
        net = self.folded()
        np.empty(4 * TEMP_BYTES, dtype=np.uint8)  # raises glibc's thresholds, see above
        return np.concatenate([
            softmax(net.forward(batch[i:i + chunk])).argmax(axis=1)
            for i in range(0, batch.shape[0], chunk)
        ])


def _layer_table(class_count: int) -> bytes:
    """`_STAGES` as the checkpoint's layer table, one record per top-level layer:
    kind code, kernel, stride, padding (each height then width), output
    channels, 0 where a kind has no such field; a residual block records conv1."""
    rows = []
    for _, kind, c, s, p in _STAGES:
        if kind == "conv":
            rows += [(1, 3, 3, s, s, p, p, c), (2, 0, 0, 0, 0, 0, 0, c), (3, 0, 0, 0, 0, 0, 0, 0)]
        elif kind == "residual":
            rows.append((5, 3, 3, s, s, p, p, c))
        else:
            rows.append((4, s, s, s, s, 0, 0, 0))
    rows += [(6, 0, 0, 0, 0, 0, 0, 0), (7, 0, 0, 0, 0, 0, 0, class_count)]
    return b"".join(_LAYER_REC.pack(*row) for row in rows)


def _batchnorms(layers):
    for layer in layers:
        if isinstance(layer, ResidualBlock):
            yield from _batchnorms(layer.main.layers + layer.shortcut.layers)
        elif isinstance(layer, BatchNorm2d):
            yield layer


def save_model(model: RcnnModel, path) -> None:
    """Write the checkpoint, refusing a state that is not finite in float32."""
    with np.errstate(over="ignore"):
        values = np.concatenate([a.ravel() for a in model.state()], dtype="<f4")
    if not np.isfinite(values).all():
        raise ValueError("refusing to save a state that is not finite in float32")
    table = _layer_table(model.class_count)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, model.frame_height,
                              model.frame_width, model.class_count, len(table) // _LAYER_REC.size))
        fh.write(table + values.tobytes())


def load_model(path) -> RcnnModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError("checkpoint truncated before the header")
    magic, version, height, width, class_count, layer_count = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    table = _layer_table(class_count)
    offset = _HEADER.size + len(table)
    if layer_count * _LAYER_REC.size != len(table) or raw[_HEADER.size:offset] != table:
        raise ValueError("checkpoint layer table does not match the fixed architecture")

    # the classifier's fc_in x K weights dwarf every other array: a header
    # that claims more than the file holds must fail before they are allocated
    fc_in = shape_chain(height, width, class_count)[-2][1][0]
    if 4 * fc_in * class_count > len(raw) - offset:
        raise ValueError("checkpoint truncated inside the parameter block")
    model = RcnnModel(height, width, class_count)
    ends = np.cumsum([a.size for a in model.state()])
    if len(raw) - offset != 4 * ends[-1]:
        raise ValueError(f"checkpoint has {len(raw) - offset} parameter bytes, not {4 * ends[-1]}")
    values = np.frombuffer(raw, dtype="<f4", offset=offset)
    if not np.isfinite(values).all():
        raise ValueError("checkpoint holds a non-finite parameter or running statistic")
    for target, chunk in zip(model.state(), np.split(values, ends[:-1])):
        target[...] = chunk.reshape(target.shape)
    # the fold divides by sqrt(running_var + BN_EPS)
    if any((bn.running_var < 0).any() for bn in _batchnorms(model.layers)):
        raise ValueError("checkpoint holds a negative BatchNorm running variance")
    return model
