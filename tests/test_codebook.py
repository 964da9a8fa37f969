"""Codebook construction, text round trips, phase mapping and line flips."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trgr.codebook import Codebook, line_flip, phase_matrix


class TestConstruction:
    def test_zeros_default_is_16_by_16(self):
        cb = Codebook.zeros()
        assert (cb.rows, cb.cols, cb.size) == (16, 16, 256)
        assert cb.grid.sum() == 0

    def test_zero_by_zero_allowed(self):
        cb = Codebook.zeros(0, 0)
        assert cb.size == 0

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
        assert Codebook.from_text(cb.to_text()) == cb

    def test_text_layout(self):
        cb = Codebook(np.array([[0, 1], [1, 1]]))
        assert cb.to_text() == "01\n11\n"

    def test_ragged_lines_rejected(self):
        with pytest.raises(ValueError):
            Codebook.from_text("01\n011\n")

    def test_bad_characters_rejected(self):
        with pytest.raises(ValueError):
            Codebook.from_text("0x\n01\n")

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            Codebook.from_text("\n\n")


class TestPhaseMatrix:
    def test_bits_map_to_zero_and_pi_row_major(self):
        cb = Codebook(np.array([[0, 1], [1, 0]]))
        assert phase_matrix(cb).tolist() == [0.0, math.pi, math.pi, 0.0]

    def test_unit_modulus_everywhere(self):
        rng = np.random.default_rng(5)
        cb = Codebook(rng.integers(0, 2, (4, 7), dtype=np.uint8))
        assert np.allclose(np.abs(np.exp(1j * phase_matrix(cb))), 1.0)

    def test_length_matches_size(self):
        assert phase_matrix(Codebook.zeros(3, 5)).shape == (15,)


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

    def test_flip_is_involutive(self):
        rng = np.random.default_rng(8)
        cb = Codebook(rng.integers(0, 2, (5, 4), dtype=np.uint8))
        for kind, idx in (("row", 3), ("column", 1)):
            assert line_flip(line_flip(cb, kind, idx), kind, idx) == cb

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
