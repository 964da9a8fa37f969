"""Recording preprocessing and dataset handling.

Denoising is a centered moving average whose window clips to the available
samples near the edges (so output length equals input length and constant
series pass through unchanged).  Normalization standardizes each recording
over all T x S entries.  Splitting is stratified per class with a seeded
shuffle and a half-up round(2n/3) train count.

A dataset is one array of `gait.record_dtype` records, the one record layout,
which `save_dataset` writes after the header in one write and `read_records`
reads back in one read.  `split_indices` splits its labels, and
`prepare_frames` smooths and standardizes the chosen records into float32,
PREPARE_BYTES of float64 scratch at a time, since one block of all records
page-faults.  The time sum is T-1 row adds, np.cumsum's steps and bytes
without its slow pass along the time axis; the statistics repeat numpy's own
mean and std.  The per-recording functions wrap these kernels for the benchmark.

Datasets travel as a little-endian binary container:

    magic "TRGR" | u16 version=1 | u32 T | u32 S | u32 record_count
    per record, packed: u16 label (subject id) | u64 episode_seed
                | T*S float32 magnitudes, row-major (time-major)

Saving refuses magnitudes that are not finite in float32; loading rejects a
file whose size disagrees with its header or that holds no frame or empty ones.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .gait import CsiRecording, record_dtype
from .seeds import mix_seeds

DATASET_MAGIC = b"TRGR"
DATASET_VERSION = 1
_HEADER = struct.Struct("<4sHIII")
PREPARE_BYTES = 8 << 20  # float64 scratch of one chunk of `prepare_frames` records


@dataclass(frozen=True)
class FilterSpec:
    """Centered moving-average window; must be odd so the window is symmetric."""

    window: int = 5

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.window % 2 == 0:
            raise ValueError(f"window must be odd, got {self.window}")


def _smooth(x: np.ndarray, window: int) -> np.ndarray:
    """Moving average along axis 1 of the (n, T, S) records `x`, in float64."""
    n, t, s = x.shape
    half = window // 2
    if half == 0:
        return np.array(x, dtype=np.float64)
    prefix = np.zeros((n, t + 1, s))
    prefix[:, 1] = x[:, 0]
    for i in range(1, t):
        np.add(prefix[:, i], x[:, i], out=prefix[:, i + 1])
    idx = np.arange(t)
    lo, hi = np.maximum(idx - half, 0), np.minimum(idx + half + 1, t)
    out = np.empty((n, t, s))
    if t > 2 * half:  # full windows in one slice difference, clipped ones a row each
        np.subtract(prefix[:, 2 * half + 1:], prefix[:, :t - 2 * half], out=out[:, half:t - half])
    for i in idx[(idx < half) | (idx >= t - half)]:
        np.subtract(prefix[:, hi[i]], prefix[:, lo[i]], out=out[:, i])
    return np.divide(out, (hi - lo)[:, None], out=out)


def _standardize(y: np.ndarray, out: np.ndarray) -> None:
    """Write each float64 (T, S) record of `y` standardized to `out`; y keeps the deviations."""
    count = np.intp(y[0].size)
    mean = np.add.reduce(y, axis=(1, 2), keepdims=True)
    np.subtract(y, np.true_divide(mean, count, out=mean), out=y)
    std = np.sqrt(np.add.reduce(np.square(y), axis=(1, 2), keepdims=True) / count)
    np.divide(y, np.where(std == 0.0, 1.0, std), out=out, casting="unsafe")
    out[std[:, 0, 0] == 0.0] = 0.0


def denoise_recording(rec: CsiRecording, spec: FilterSpec) -> CsiRecording:
    """Moving average along the time axis, independently per subcarrier: the
    mean over [i-h, i+h] clipped to the recording's packets."""
    if rec.magnitudes.shape[0] < 1:
        raise ValueError("recording must have at least one packet")
    return CsiRecording(_smooth(rec.magnitudes[None], spec.window)[0], rec.label, rec.episode_seed)


def normalize(rec: CsiRecording) -> CsiRecording:
    """Per-recording standardization; a zero-variance recording maps to all zeros."""
    m = np.array(rec.magnitudes, dtype=np.float64)[None]
    _standardize(m, m)
    return CsiRecording(m[0], rec.label, rec.episode_seed)


def prepare_frames(magnitudes: np.ndarray, order: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """`magnitudes[order]` smoothed and standardized as float32 (N, 1, T, S) frames."""
    _, t, s = magnitudes.shape
    frames = np.empty((len(order), 1, t, s), dtype=np.float32)
    chunk = max(1, PREPARE_BYTES // (3 * 8 * (t + 1) * s))  # prefix, smoothed and squares
    for start in range(0, len(order), chunk):
        rows = order[start:start + chunk]
        _standardize(_smooth(magnitudes[rows], spec.window), frames[start:start + len(rows), 0])
    return frames


@dataclass(frozen=True)
class DatasetSplit:
    train: list[CsiRecording]
    test: list[CsiRecording]


def split_indices(labels, split_seed: int) -> dict[str, np.ndarray]:
    """Stratified split of record indices: per class, a seeded shuffle, then
    round(2n/3) into train; "all" is train then test."""
    labels = np.asarray(labels)
    train, test = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for label in np.unique(labels).tolist():
        idx = np.flatnonzero(labels == label)
        if idx.size < 3:
            raise ValueError(f"class {label} has {idx.size} samples, need at least 3 to split")
        idx = idx[np.random.default_rng(mix_seeds(split_seed, label)).permutation(idx.size)]
        cut = int(math.floor(2.0 * idx.size / 3.0 + 0.5))
        train.append(idx[:cut])
        test.append(idx[cut:])
    train, test = np.concatenate(train), np.concatenate(test)
    return {"train": train, "test": test, "all": np.concatenate([train, test])}


def split_dataset(recs: list[CsiRecording], split_seed: int) -> DatasetSplit:
    """Stratified split: per class, seeded shuffle then round(2n/3) into train."""
    split = split_indices([rec.label for rec in recs], split_seed)
    return DatasetSplit(*([recs[i] for i in split[part]] for part in ("train", "test")))


def save_dataset(path, records: np.ndarray) -> None:
    """Write `record_dtype` records after the header, in one write."""
    if len(records) == 0:
        raise ValueError("refusing to write an empty dataset")
    mags = records["magnitudes"]  # a NaN or an infinity anywhere shows in its extremes
    if not np.isfinite([mags.min(initial=0.0), mags.max(initial=0.0)]).all():
        raise ValueError("refusing to write magnitudes that are not finite in float32")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, *mags.shape[1:], len(records)))
        records.tofile(f)


def read_records(path) -> np.ndarray:
    """Read a dataset file in one read as packed (label, episode_seed, magnitudes) records."""
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"truncated dataset header in {path}")
        magic, version, t, s, count = _HEADER.unpack(head)
        if magic != DATASET_MAGIC:
            raise ValueError(f"bad magic {magic!r} in {path}")
        if version != DATASET_VERSION:
            raise ValueError(f"unsupported dataset version {version}")
        if min(t, s, count) < 1:
            raise ValueError(f"dataset {path} holds {count} frames of {t}x{s}, need at least one of 1x1")
        dtype = record_dtype(t, s)
        size = os.fstat(f.fileno()).st_size
        expected = _HEADER.size + count * dtype.itemsize
        if size < expected:
            raise ValueError(f"truncated dataset {path}: {size} bytes, "
                             f"{count} records of {t}x{s} need {expected}")
        if size > expected:
            raise ValueError(f"{size - expected} trailing bytes after the last record in {path}")
        records = np.fromfile(f, dtype=dtype, count=count)
    if not np.isfinite(records["magnitudes"]).all():
        raise ValueError("magnitudes must be finite")
    return records


def load_dataset(path) -> list[CsiRecording]:
    """Read a dataset file as one recording per record."""
    records = read_records(path)
    return [CsiRecording(m, label, seed) for m, label, seed in zip(records["magnitudes"].astype(
        np.float64), records["label"].tolist(), records["episode_seed"].tolist())]
