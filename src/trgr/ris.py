"""Configuration search over 1-bit RIS codebooks.

`optimize` runs the alternating line sweep: every sweep walks the columns and
then the rows of the grid, measures the signal strength of the current
configuration, proposes flipping the visited line and keeps the flip only when
the measured strength strictly improves.  `brute_force` is the exhaustive
oracle for small grids.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channel import NoiseSpec, RisChannel, snr
from .codebook import Codebook, line_flip

BRUTE_FORCE_MAX_BITS = 20


@dataclass(frozen=True)
class ObjectiveProbe:
    """Signal-strength measurement used to drive the search.

    `evaluate` maps a codebook to the true strength; a positive
    measurement_noise_std adds seeded Gaussian noise to each reading, the way
    a live received-strength estimate would fluctuate.
    """

    evaluate: Callable[[Codebook], float]
    measurement_noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.measurement_noise_std < 0:
            raise ValueError("measurement noise std must be >= 0")

    def reader(self) -> Callable[[Codebook], float]:
        """Fresh measurement stream; successive calls consume one RNG draw each."""
        if self.measurement_noise_std == 0:
            return lambda cb: float(self.evaluate(cb))
        rng = np.random.default_rng(self.seed)
        std = self.measurement_noise_std
        return lambda cb: float(self.evaluate(cb)) + rng.normal(0.0, std)


def snr_probe(ris: RisChannel, noise: NoiseSpec, measurement_noise_std: float = 0.0,
              seed: int = 0) -> ObjectiveProbe:
    """Probe whose strength is the effective-channel SNR of the given RIS link."""
    return ObjectiveProbe(lambda cb: snr(ris, cb, noise), measurement_noise_std, seed)


@dataclass(frozen=True)
class TraceStep:
    t: int           # outer sweep, 1-based
    i: int           # visit within the sweep, 1-based
    kind: str        # "row" | "column"
    index: int       # line index within its kind
    s_current: float # strength measured on the configuration at this visit
    accepted: bool   # whether the proposed line flip was adopted


@dataclass
class OptimizationTrace:
    steps: list[TraceStep] = field(default_factory=list)
    best_codebook: Codebook | None = None
    best_strength: float = -math.inf

    def accepted_strengths(self) -> list[float]:
        return [s.s_current for s in self.steps if s.accepted]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["t", "i", "kind", "index", "s_current", "accepted"])
            for s in self.steps:
                w.writerow([s.t, s.i, s.kind, s.index, repr(s.s_current), int(s.accepted)])


def optimize(probe: ObjectiveProbe, initial: Codebook, outer_iters: int = 5) -> OptimizationTrace:
    """Alternating line-flip search, column sweep then row sweep per outer iteration.

    The best codebook is tracked from the strengths measured at each visit,
    so it always refers to a configuration that was actually observed.
    """
    if outer_iters < 1:
        raise ValueError("outer_iters must be >= 1")
    measure = probe.reader()
    visits = [("column", c) for c in range(initial.cols)] + [("row", r) for r in range(initial.rows)]
    current = initial
    trace = OptimizationTrace()
    for t in range(1, outer_iters + 1):
        for i, (kind, index) in enumerate(visits, 1):
            s_current = measure(current)
            if s_current > trace.best_strength:
                trace.best_strength = s_current
                trace.best_codebook = current
            candidate = line_flip(current, kind, index)
            s_candidate = measure(candidate)
            accepted = s_candidate > s_current
            if accepted:
                current = candidate
            trace.steps.append(TraceStep(t, i, kind, index, s_current, accepted))
    return trace


def brute_force(probe: ObjectiveProbe, rows: int, cols: int) -> tuple[Codebook, float]:
    """Exact maximizer over all 2^(rows*cols) codebooks.

    Ties keep the earlier candidate, i.e. the smaller row-major binary value.
    """
    n = rows * cols
    if n > BRUTE_FORCE_MAX_BITS:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX_BITS} bits, got {n}")
    measure = probe.reader()
    # row k is k in binary, most significant bit first, as a rows x cols grid
    big_endian = np.arange(1 << n, dtype=">u4").view(np.uint8).reshape(-1, 4)
    table = np.unpackbits(big_endian, axis=1)[:, 32 - n:].reshape(1 << n, rows, cols)
    best_cb = None
    best_s = -math.inf
    for bits in table:
        cb = Codebook(bits)
        s = measure(cb)
        if s > best_s:
            best_s = s
            best_cb = cb
    return best_cb, best_s
