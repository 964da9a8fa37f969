"""Configuration search over 1-bit RIS codebooks.

Probes read stacks of 0/1 grids.  `optimize` runs the alternating line sweep:
every sweep walks the columns and then the rows of the grid, measures the signal
strength of the current configuration, proposes flipping the visited line and
keeps the flip only when the measured strength strictly improves.  `brute_force`
is the exhaustive oracle for small grids, read a fixed block at a time.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channel import NoiseSpec, RisChannel, snr, snr_stack  # noqa: F401 (the tracer wraps ris.snr)
from .codebook import Codebook, line_flip

BRUTE_FORCE_MAX_BITS = 20
BRUTE_FORCE_BLOCK = 1 << 12  # candidates per oracle read: about 1 MiB of (k, n) complex scratch


@dataclass(frozen=True)
class ObjectiveProbe:
    """Signal-strength measurement used to drive the search.

    `evaluate` maps a (k, rows, cols) stack of 0/1 grids to their k true
    strengths; a positive measurement_noise_std adds seeded Gaussian noise to
    each reading, the way a live received-strength estimate would fluctuate.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    measurement_noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.measurement_noise_std < math.inf:
            raise ValueError(f"probe noise std must be finite and >= 0, got {self.measurement_noise_std}")

    def reader(self) -> Callable[[np.ndarray], np.ndarray]:
        """Fresh measurement stream: k grids read k strengths on k RNG draws, in stack
        order, as k one-grid reads would; a reading that is not finite raises ValueError."""
        rng = np.random.default_rng(self.seed)
        std = self.measurement_noise_std

        def read(grids: np.ndarray) -> np.ndarray:
            s = np.asarray(self.evaluate(grids), dtype=np.float64)
            s = s + rng.normal(0.0, std, len(s)) if std else s
            if not np.all(np.isfinite(s)):
                raise ValueError(f"probe reading {s[~np.isfinite(s)][0]} is not finite")
            return s
        return read


def snr_probe(ris: RisChannel, noise: NoiseSpec, measurement_noise_std: float = 0.0,
              seed: int = 0) -> ObjectiveProbe:
    """Probe whose strength is the effective-channel SNR of the given RIS link."""
    return ObjectiveProbe(lambda grids: snr_stack(ris, grids, noise), measurement_noise_std, seed)


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
            s_current = float(measure(current.grid[None])[0])
            if s_current > trace.best_strength:
                trace.best_strength = s_current
                trace.best_codebook = current
            candidate = line_flip(current, kind, index)
            s_candidate = float(measure(candidate.grid[None])[0])
            accepted = s_candidate > s_current
            if accepted:
                current = candidate
            trace.steps.append(TraceStep(t, i, kind, index, s_current, accepted))
    return trace


def brute_force(probe: ObjectiveProbe, rows: int, cols: int) -> tuple[Codebook, float]:
    """Exact maximizer over all 2^(rows*cols) codebooks.

    Candidate k is k in binary, most significant bit first, as a rows x cols grid,
    read BRUTE_FORCE_BLOCK candidates per stack.  Ties keep the earlier candidate,
    the smaller row-major binary value: a block's first maximum must beat the best.
    """
    n = rows * cols
    if min(rows, cols) < 0 or n > BRUTE_FORCE_MAX_BITS:
        raise ValueError(f"brute force needs rows, cols >= 0 and at most {BRUTE_FORCE_MAX_BITS} "
                         f"bits, got {rows}x{cols}")
    measure = probe.reader()
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    best_bits, best_s = None, -math.inf
    for start in range(0, 1 << n, BRUTE_FORCE_BLOCK):
        k = np.arange(start, min(start + BRUTE_FORCE_BLOCK, 1 << n), dtype=np.uint32)
        block = ((k[:, None] >> shifts) & 1).astype(np.uint8).reshape(len(k), rows, cols)
        s = measure(block)
        i = int(np.argmax(s))
        if s[i] > best_s:
            best_bits, best_s = block[i], float(s[i])
    return Codebook(best_bits), best_s
