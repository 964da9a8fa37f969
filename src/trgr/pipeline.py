"""Recording preprocessing and dataset handling.

Denoising is a centered moving average whose window clips to the available
samples near the edges (so output length equals input length and constant
series pass through unchanged).  Normalization standardizes each recording
over all T x S entries.  Splitting is stratified per class with a seeded
shuffle and a half-up round(2n/3) train count.

Datasets travel as a little-endian binary container:

    magic "TRGR" | u16 version=1 | u32 T | u32 S | u32 record_count
    per record: u16 label (subject id) | u64 episode_seed
                | T*S float32 magnitudes, row-major (time-major)

Saving refuses magnitudes that are not finite in float32; loading rejects a
file whose size disagrees with its header.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .gait import CsiRecording
from .seeds import mix_seeds

DATASET_MAGIC = b"TRGR"
DATASET_VERSION = 1
_HEADER = struct.Struct("<4sHIII")
_RECORD_HEAD = struct.Struct("<HQ")


@dataclass(frozen=True)
class FilterSpec:
    """Centered moving-average window; must be odd so the window is symmetric."""

    window: int = 5

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.window % 2 == 0:
            raise ValueError(f"window must be odd, got {self.window}")


def denoise_recording(rec: CsiRecording, spec: FilterSpec) -> CsiRecording:
    """Moving average along the time axis, independently per subcarrier: the
    mean over [i-h, i+h] clipped to the recording's packets."""
    m = np.asarray(rec.magnitudes, dtype=np.float64)
    n = m.shape[0]
    if n < 1:
        raise ValueError("recording must have at least one packet")
    if spec.window == 1:
        return CsiRecording(m.copy(), rec.label, rec.episode_seed)
    half = spec.window // 2
    prefix = np.concatenate([np.zeros((1, m.shape[1])), np.cumsum(m, axis=0)], axis=0)
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, n)
    counts = (hi - lo).astype(np.float64)[:, None]
    return CsiRecording((prefix[hi] - prefix[lo]) / counts, rec.label, rec.episode_seed)


def normalize(rec: CsiRecording) -> CsiRecording:
    """Per-recording standardization; a zero-variance recording maps to all zeros."""
    m = np.asarray(rec.magnitudes, dtype=np.float64)
    std = m.std()
    out = np.zeros_like(m) if std == 0.0 else (m - m.mean()) / std
    return CsiRecording(out, rec.label, rec.episode_seed)


@dataclass(frozen=True)
class DatasetSplit:
    train: list[CsiRecording]
    test: list[CsiRecording]


def split_dataset(recs: list[CsiRecording], split_seed: int) -> DatasetSplit:
    """Stratified split: per class, seeded shuffle then round(2n/3) into train."""
    by_label: dict[int, list[int]] = {}
    for i, rec in enumerate(recs):
        by_label.setdefault(rec.label, []).append(i)
    for label, idx in by_label.items():
        if len(idx) < 3:
            raise ValueError(f"class {label} has {len(idx)} samples, need at least 3 to split")
    train: list[CsiRecording] = []
    test: list[CsiRecording] = []
    for label in sorted(by_label):
        idx = np.array(by_label[label])
        rng = np.random.default_rng(mix_seeds(split_seed, label))
        perm = rng.permutation(idx.size)
        cut = int(math.floor(2.0 * idx.size / 3.0 + 0.5))
        train.extend(recs[i] for i in idx[perm[:cut]])
        test.extend(recs[i] for i in idx[perm[cut:]])
    return DatasetSplit(train, test)


def save_dataset(path, recordings: list[CsiRecording]) -> None:
    if not recordings:
        raise ValueError("refusing to write an empty dataset")
    t, s = recordings[0].shape
    for rec in recordings:
        if rec.shape != (t, s):
            raise ValueError(f"inconsistent record shape {rec.shape}, expected {(t, s)}")
    with np.errstate(over="ignore"):  # each record's extremes decide its float32 cast
        extremes = np.array([(rec.magnitudes.min(initial=0.0), rec.magnitudes.max(initial=0.0))
                             for rec in recordings], dtype=np.float32)
    if not np.isfinite(extremes).all():
        raise ValueError("refusing to write magnitudes that are not finite in float32")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, t, s, len(recordings)))
        for rec in recordings:
            f.write(_RECORD_HEAD.pack(rec.label, rec.episode_seed & (1 << 64) - 1))
            f.write(np.ascontiguousarray(rec.magnitudes, dtype="<f4").tobytes())


def load_dataset(path) -> list[CsiRecording]:
    """Read a dataset file; a file whose size disagrees with its header is rejected."""
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"truncated dataset header in {path}")
        magic, version, t, s, count = _HEADER.unpack(head)
        if magic != DATASET_MAGIC:
            raise ValueError(f"bad magic {magic!r} in {path}")
        if version != DATASET_VERSION:
            raise ValueError(f"unsupported dataset version {version}")
        block = t * s * 4
        size = os.fstat(f.fileno()).st_size
        expected = _HEADER.size + count * (_RECORD_HEAD.size + block)
        if size < expected:
            raise ValueError(f"truncated dataset {path}: {size} bytes, "
                             f"{count} records of {t}x{s} need {expected}")
        if size > expected:
            raise ValueError(f"{size - expected} trailing bytes after the last record in {path}")
        recordings = []
        for _ in range(count):
            label, episode_seed = _RECORD_HEAD.unpack(f.read(_RECORD_HEAD.size))
            raw = f.read(block)
            mags = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(t, s)
            recordings.append(CsiRecording(mags, label, episode_seed))
    return recordings
