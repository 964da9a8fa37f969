"""Codebook construction, text layout, phase mapping and line flips."""
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trgr.codebook import Codebook, line_flip, phase_matrix

GRID_SHAPES = st.lists(st.integers(0, 4), max_size=3).map(tuple)  # 0-D to 3-D
SEEDED_GRID = np.random.default_rng(8).integers(0, 2, (5, 4), dtype=np.uint8)


class TestConstruction:
    def test_zero_by_zero_allowed(self):
        cb = Codebook.zeros(0, 0)
        assert cb.grid.size == 0

    def test_non_binary_entries_rejected(self):
        with pytest.raises(ValueError):
            Codebook(np.array([[0, 2]]))

    def test_one_dimensional_grid_rejected(self):
        with pytest.raises(ValueError):
            Codebook(np.array([0, 1, 0]))

    def test_immutable(self):
        cb = Codebook.zeros(2, 2)
        with pytest.raises(ValueError):
            cb.grid[0, 0] = 1
        with pytest.raises(AttributeError):
            cb.grid = np.zeros((2, 2))

    def test_no_attribute_can_be_added(self):
        with pytest.raises(AttributeError):
            Codebook.zeros(2, 2).note = "tuned"

    @given(grid=st.one_of(
               arrays(np.int64, GRID_SHAPES,
                      elements=st.integers(-1, 2) | st.integers(-2**63, 2**63 - 1)),
               arrays(np.float64, GRID_SHAPES, elements=st.sampled_from((0.0, 1.0)) | st.floats())),
           as_list=st.booleans())
    @example(grid=np.array([[-255]]), as_list=True)
    @example(grid=np.array([[257]]), as_list=True)
    @example(grid=np.array([[0.7, 1.9]]), as_list=True)
    @example(grid=np.array([[2**70, 1]]), as_list=True)
    @example(grid=np.array([[True, False]]), as_list=False)
    @example(grid=np.array([[1 + 0j]]), as_list=True)
    @example(grid=np.array([[1 + 1j]]), as_list=True)
    def test_accepts_exactly_2d_grids_of_zeros_and_ones(self, grid, as_list):
        # the entries are checked as given, so none wraps into a bit on a cast
        # and no complex entry loses its imaginary part
        if as_list:
            assume(0 not in grid.shape)  # nested empty lists lose their axes
        given_grid = grid.tolist() if as_list else grid
        if grid.ndim != 2:
            with pytest.raises(ValueError, match="must be 2-D"):
                Codebook(given_grid)
        elif grid.dtype.kind != "c" and np.all((grid == 0) | (grid == 1)):
            assert np.array_equal(Codebook(given_grid).grid, grid)
        else:
            with pytest.raises(ValueError, match="entries must be 0 or 1"):
                Codebook(given_grid)

    def test_pickle_round_trip(self):
        cb = Codebook(SEEDED_GRID)
        assert pickle.loads(pickle.dumps(cb)) == cb

    def test_constructor_copies_input(self):
        src = np.zeros((2, 3), dtype=np.uint8)
        cb = Codebook(src)
        src[0, 0] = 1
        assert cb.grid[0, 0] == 0

    def test_equality_by_contents(self):
        a = Codebook(np.array([[0, 1], [1, 0]]))
        b = Codebook(np.array([[0, 1], [1, 0]]))
        c = Codebook(np.array([[1, 1], [1, 0]]))
        assert a == b
        assert a != c
        assert a != "not a codebook"


class TestTextFormat:
    @given(rows=st.integers(1, 8), cols=st.integers(1, 8), data=st.data())
    def test_round_trip(self, rows, cols, data):
        n = rows * cols
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="bits")
        cb = Codebook(np.array(bits, dtype=np.uint8).reshape(rows, cols))
        text = cb.to_text()
        assert text.endswith("\n")
        # one line per row, one '0'/'1' character per column
        grid = [[int(ch) for ch in line] for line in text.splitlines()]
        assert np.array_equal(np.array(grid, dtype=np.uint8), cb.grid)

    def test_text_layout(self):
        cb = Codebook(np.array([[0, 1], [1, 1]]))
        assert cb.to_text() == "01\n11\n"


class TestPhaseMatrix:
    def test_bits_map_to_zero_and_pi_row_major(self):
        cb = Codebook(np.array([[0, 1], [1, 0]]))
        assert phase_matrix(cb.grid[None]).tolist() == [[0.0, math.pi, math.pi, 0.0]]

    def test_unit_modulus_everywhere(self):
        rng = np.random.default_rng(5)
        cb = Codebook(rng.integers(0, 2, (4, 7), dtype=np.uint8))
        assert np.allclose(np.abs(np.exp(1j * phase_matrix(cb.grid[None]))), 1.0)

    def test_length_matches_size(self):
        assert phase_matrix(np.zeros((2, 3, 5), dtype=np.uint8)).shape == (2, 15)


class TestLineFlip:
    def test_row_flip_inverts_exactly_that_row(self):
        cb = Codebook(np.array([[0, 1, 0], [1, 1, 1]]))
        out = line_flip(cb, "row", 0)
        assert out.grid.tolist() == [[1, 0, 1], [1, 1, 1]]
        assert cb.grid.tolist() == [[0, 1, 0], [1, 1, 1]]  # original untouched

    def test_column_flip_inverts_exactly_that_column(self):
        cb = Codebook(np.array([[0, 1, 0], [1, 1, 1]]))
        out = line_flip(cb, "column", 2)
        assert out.grid.tolist() == [[0, 1, 1], [1, 1, 0]]

    @given(grid=arrays(np.uint8, st.tuples(st.integers(1, 8), st.integers(1, 8)),
                       elements=st.integers(0, 1)),
           kind=st.sampled_from(("row", "column")), index=st.integers(0, 7))
    @example(grid=SEEDED_GRID, kind="row", index=3)
    @example(grid=SEEDED_GRID, kind="column", index=1)
    def test_flip_is_involutive(self, grid, kind, index):
        cb = Codebook(grid)
        index %= grid.shape[0 if kind == "row" else 1]  # any row or column of the grid
        assert line_flip(line_flip(cb, kind, index), kind, index) == cb

    def test_row_and_column_flips_commute(self):
        rng = np.random.default_rng(13)
        cb = Codebook(rng.integers(0, 2, (4, 4), dtype=np.uint8))
        a = line_flip(line_flip(cb, "row", 2), "column", 1)
        b = line_flip(line_flip(cb, "column", 1), "row", 2)
        assert a == b

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            line_flip(Codebook.zeros(2, 2), "diagonal", 0)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(IndexError):
            line_flip(Codebook.zeros(2, 2), "row", 2)
        with pytest.raises(IndexError):
            line_flip(Codebook.zeros(2, 2), "column", -1)
