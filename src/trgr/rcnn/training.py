"""Training loop: Adam, softmax cross-entropy, per-epoch logging.

Batch order is drawn from a generator seeded by the config, so a rerun with
the same config, model seed, and data reproduces the exact same parameter
trajectory.  Frames are stacked, trained on and scored in the network's
float32 `layers.DTYPE`, the checkpoint's precision, so the saved checkpoint
holds the trained state exactly; only the loss runs in float64, over the B x K
logits.  Scoring runs through `RcnnModel.predict`, 13 desk frames per forward,
on the folded network: each BatchNorm is folded into the convolution before
it, from the live parameters, so the per-epoch scores cost about a quarter
less and the trained parameters are untouched.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .layers import DTYPE
from .metrics import Metrics, check_labels, metrics_from_predictions
from .model import RcnnModel


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 8
    epochs: int = 20
    seed: int = 0
    # Adam's moment decays and denominator floor, the same for every run
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be at least 1")


class Adam:
    """Standard Adam with bias correction, one state pair per parameter."""

    def __init__(self, params, learning_rate=1e-3, beta1=TrainConfig.beta1,
                 beta2=TrainConfig.beta2, eps=TrainConfig.eps):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(p.grad)
            p.data -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. the logits, in the
    logits' dtype.  Both are computed in float64, the loss as log-sum-exp
    minus the picked logit, which stays finite however small the picked
    class's probability."""
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError("labels must be a vector matching the batch")
    check_labels(labels, k)
    shifted = logits.astype(np.float64)
    shifted -= shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    loss = float((np.log(total[:, 0]) - shifted[rows, labels]).mean())
    grad = e / total
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad.astype(logits.dtype, copy=False)


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    loss: float
    train_acc: float
    test_acc: float


def write_training_log(logs, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "train_acc", "test_acc"])
        for row in logs:
            writer.writerow([row.epoch, repr(row.loss), repr(row.train_acc),
                             repr(row.test_acc)])


def recordings_to_arrays(recordings) -> tuple[np.ndarray, np.ndarray]:
    """Stack recording magnitudes into a (N, 1, T, S) batch of the network's
    dtype plus labels."""
    if not recordings:
        raise ValueError("no recordings to stack")
    frames = np.stack([rec.magnitudes for rec in recordings], dtype=DTYPE)
    labels = np.array([rec.label for rec in recordings], dtype=np.int64)
    return frames[:, None, :, :], labels


def evaluate(model: RcnnModel, frames: np.ndarray, labels: np.ndarray) -> Metrics:
    """Score a model on (N, 1, T, S) frames; the order of the set is irrelevant."""
    check_labels(labels, model.class_count)
    return metrics_from_predictions(labels, model.predict(frames), model.class_count)


def train(model: RcnnModel, train_set, test_set,
          cfg: TrainConfig) -> tuple[list[EpochLog], Metrics]:
    """Fit the model on the (frames, labels) train set, scoring both sets after
    every epoch; returns the epoch logs and the last epoch's test metrics.
    Raises ValueError, before the update, at a step whose loss or global
    gradient norm is not finite, and at the first float overflow or invalid
    operation of an epoch."""
    x_train, y_train = train_set
    for labels in (y_train, test_set[1]):
        check_labels(labels, model.class_count)
    optimizer = Adam(model.parameters(), cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    n = x_train.shape[0]
    logs: list[EpochLog] = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        try:
            with np.errstate(over="raise", invalid="raise"):
                for start in range(0, n, cfg.batch_size):
                    batch = order[start:start + cfg.batch_size]
                    logits = model.forward(x_train[batch], training=True)
                    loss, grad = cross_entropy(logits, y_train[batch])
                    model.backward(grad)
                    # squares past the float range overflow Adam's second moment too
                    norm = math.sqrt(sum(float(np.vdot(p.grad, p.grad))
                                         for p in optimizer.params))
                    if not (math.isfinite(loss) and math.isfinite(norm)):
                        raise FloatingPointError(f"loss {loss}, gradient norm {norm}")
                    optimizer.step()
                    loss_sum += loss * batch.size
                train_acc = evaluate(model, *train_set).accuracy
                test_metrics = evaluate(model, *test_set)
        except FloatingPointError as exc:
            raise ValueError(f"training diverged in epoch {epoch}: {exc}") from None
        logs.append(EpochLog(epoch, loss_sum / n, train_acc, test_metrics.accuracy))
    return logs, test_metrics
