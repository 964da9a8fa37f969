"""Classification metrics: confusion matrix, accuracy, macro-averaged scores.

Macro averages run over the classes that actually appear in the truth labels.
A class that is never predicted gets precision 0 rather than a divide-by-zero,
and a pair with precision + recall = 0 gets F1 = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Metrics:
    confusion: np.ndarray
    accuracy: float
    macro_recall: float
    macro_precision: float
    macro_f1: float


def check_labels(labels: np.ndarray, class_count: int) -> None:
    """Raise ValueError naming the lowest or highest label when either lies
    outside [0, class_count); an empty set passes."""
    for label in (np.min(labels, initial=0), np.max(labels, initial=0)):
        if not 0 <= label < class_count:
            raise ValueError(f"label {label} out of range for {class_count} classes")


def metrics_from_predictions(y_true, y_pred, class_count: int) -> Metrics:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError("truth and prediction vectors must match")
    if y_true.size == 0:
        raise ValueError("cannot score an empty set")
    check_labels(y_true, class_count)
    check_labels(y_pred, class_count)

    confusion = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(confusion, (y_true, y_pred), 1)

    accuracy = float(np.trace(confusion) / y_true.size)
    true_counts = confusion.sum(axis=1)
    pred_counts = confusion.sum(axis=0)
    diag = np.diag(confusion)

    present = true_counts > 0
    recall = np.zeros(class_count)
    recall[present] = diag[present] / true_counts[present]
    precision = np.where(pred_counts > 0, diag / np.maximum(pred_counts, 1), 0.0)
    pr_sum = precision + recall
    f1 = np.where(pr_sum > 0, 2.0 * precision * recall / np.maximum(pr_sum, 1e-300), 0.0)

    return Metrics(
        confusion=confusion,
        accuracy=accuracy,
        macro_recall=float(recall[present].mean()),
        macro_precision=float(precision[present].mean()),
        macro_f1=float(f1[present].mean()),
    )
