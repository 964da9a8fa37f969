"""1-bit phase codebooks for a transmissive RIS.

Each element of the R x C surface is either in state 0 (phase shift 0) or
state 1 (phase shift pi).  Every configuration therefore satisfies the
unit-modulus constraint |e^{j*theta_n}| = 1 by construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Codebook:
    """Immutable R x C binary on/off grid; bit b maps to phase b*pi.  The
    entries are checked before the cast to a read-only uint8 copy, and a
    complex grid is rejected whatever its values."""

    grid: np.ndarray

    def __post_init__(self):
        g = np.array(self.grid)
        if g.ndim != 2:
            raise ValueError(f"codebook grid must be 2-D, got shape {g.shape}")
        if np.iscomplexobj(g) or not np.all((g == 0) | (g == 1)):
            raise ValueError("codebook entries must be 0 or 1")
        g = g.astype(np.uint8, copy=False)
        g.flags.writeable = False
        object.__setattr__(self, "grid", g)

    def __reduce__(self):  # copies and unpickled values are rebuilt, so checked and read-only
        return type(self), (self.grid,)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Codebook":
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @property
    def rows(self) -> int:
        return self.grid.shape[0]

    @property
    def cols(self) -> int:
        return self.grid.shape[1]

    def __eq__(self, other):
        return isinstance(other, Codebook) and np.array_equal(self.grid, other.grid)

    def __repr__(self):
        return f"Codebook({self.rows}x{self.cols}, {int(self.grid.sum())} ones)"

    def to_text(self) -> str:
        """R lines of C characters '0'/'1'."""
        return "\n".join("".join(str(b) for b in row) for row in self.grid) + "\n"


def phase_matrix(grids: np.ndarray) -> np.ndarray:
    """Phase shifts theta_n = bit * pi of each grid of a (k, rows, cols) stack, as (k, N)."""
    return grids.reshape(len(grids), -1).astype(np.float64) * np.pi


def line_flip(codebook: Codebook, kind: str, index: int) -> Codebook:
    """Return a new codebook with every bit of one row or column inverted."""
    if kind not in ("row", "column"):
        raise ValueError(f"kind must be 'row' or 'column', got {kind!r}")
    limit = codebook.rows if kind == "row" else codebook.cols
    if not 0 <= index < limit:
        raise IndexError(f"{kind} index {index} out of range for {codebook.rows}x{codebook.cols} grid")
    g = codebook.grid.copy()
    if kind == "row":
        g[index, :] ^= 1
    else:
        g[:, index] ^= 1
    return Codebook(g)
