"""Tap arrays, tap combination, frequency response, narrowband gain/SNR."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trgr.channel import (
    NoiseSpec,
    RisChannel,
    SubcarrierGrid,
    Taps,
    combined_taps,
    effective_gain,
    frequency_response,
    snr,
)
from trgr.codebook import Codebook


def two_tap_setup():
    grid = SubcarrierGrid(count=3)
    tau = 1.0 / (2 * 160e6)
    direct = Taps([1.0, 1.0], [0.0, tau])
    return grid, direct


NO_TAPS = Taps([], [])


def small_ris(n: int, seed: int = 3) -> RisChannel:
    rng = np.random.default_rng(seed)
    return RisChannel(
        tx_to_ris=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        ris_to_rx=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        path_delays=np.full(n, 30e-9),
    )


class TestTaps:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Taps([0.5], [-1e-9])

    def test_non_finite_rejected(self):
        for gain, delay in [(math.nan, 0.0), (complex(1.0, math.inf), 0.0), (1.0, math.nan)]:
            with pytest.raises(ValueError):
                Taps([gain], [delay])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            Taps([1.0, 1.0], [0.0])

    def test_arrays_are_read_only_copies(self):
        gain = np.array([1.0 + 1j, 2.0])
        taps = Taps(gain, [0.0, 0.0])
        gain[0] = 9.0
        assert taps.gain[0] == 1.0 + 1j
        with pytest.raises(ValueError):
            taps.delay[0] = 1.0


class TestRisChannel:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            RisChannel(np.ones(3, complex), np.ones(2, complex), np.zeros(3))

    def test_immutability(self):
        ris = small_ris(2)
        with pytest.raises(AttributeError):
            ris.tx_to_ris = np.zeros(2, complex)
        with pytest.raises(ValueError):
            ris.path_delays[0] = 1.0

    def test_no_attribute_can_be_added(self):
        with pytest.raises(AttributeError):
            small_ris(2).note = "measured"

    def test_empty_has_zero_elements(self):
        assert RisChannel.empty().n_elements == 0

    def test_copies_the_callers_arrays(self):
        # already of the stored dtypes, so only an explicit copy separates them
        h_in, h_out = np.ones(3, complex), np.full(3, 2j)
        delays = np.zeros(3)
        ris = RisChannel(h_in, h_out, delays)
        assert all(a.flags.writeable for a in (h_in, h_out, delays))
        h_in[0], h_out[0], delays[0] = 5.0, 7.0, 1.0
        assert ris.tx_to_ris.tolist() == [1.0] * 3
        assert ris.ris_to_rx.tolist() == [2j] * 3
        assert ris.path_delays.tolist() == [0.0] * 3


class TestSubcarrierGrid:
    def test_single_subcarrier_sits_at_center(self):
        grid = SubcarrierGrid(count=1)
        assert grid.frequencies().tolist() == [5.8e9]

    def test_edges_span_bandwidth(self):
        grid = SubcarrierGrid(count=5)
        f = grid.frequencies()
        assert f[0] == pytest.approx(5.8e9 - 80e6)
        assert f[-1] == pytest.approx(5.8e9 + 80e6)
        assert np.allclose(np.diff(f), 40e6)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            SubcarrierGrid(count=0)


class TestFrequencyResponse:
    def test_two_tap_magnitudes_match_hand_computation(self):
        # |1 + exp(-2j pi f tau)| = 2|cos(pi f tau)| with tau = 1/(2B); the three
        # grid frequencies give f*tau of 17.875, 18.125 and 18.375 cycles, hence
        # 2|cos| of 0.875pi, 0.125pi and 0.375pi. Frozen values below.
        grid, direct = two_tap_setup()
        h = frequency_response(direct, grid)
        expected = [1.8477590650225735, 1.8477590650225735, 0.7653668647301796]
        assert np.abs(h) == pytest.approx(expected, abs=1e-9)

    def test_empty_tap_list_gives_zero_response(self):
        grid = SubcarrierGrid(count=4)
        assert np.array_equal(frequency_response(NO_TAPS, grid), np.zeros(4, complex))

    def test_zero_delay_taps_add_coherently(self):
        grid = SubcarrierGrid(count=4)
        taps = Taps([0.3, 0.7], [0.0, 0.0])
        assert np.allclose(frequency_response(taps, grid), 1.0)

    def test_opposite_phases_cancel(self):
        grid = SubcarrierGrid(count=3)
        taps = Taps([0.5, 0.5 * np.exp(1j * math.pi)], [0.0, 0.0])
        assert np.abs(frequency_response(taps, grid)).max() < 1e-12


class TestCombinedTaps:
    def test_direct_taps_come_first_then_one_per_element(self):
        _, direct = two_tap_setup()
        ris = small_ris(4)
        taps = combined_taps(direct, ris, Codebook.zeros(2, 2))
        assert taps.gain.shape == (2 + 4,)
        for field in ("gain", "delay"):
            assert np.array_equal(getattr(taps, field)[:2], getattr(direct, field))
        assert taps.delay[2:].tolist() == [30e-9] * 4
        assert np.array_equal(taps.gain[2:], ris.ris_to_rx * ris.tx_to_ris)

    def test_empty_ris_contributes_nothing(self):
        _, direct = two_tap_setup()
        taps = combined_taps(direct, RisChannel.empty(), Codebook.zeros(0, 0))
        for field in ("gain", "delay"):
            assert np.array_equal(getattr(taps, field), getattr(direct, field))

    def test_codebook_size_must_match_elements(self):
        _, direct = two_tap_setup()
        with pytest.raises(ValueError):
            combined_taps(direct, small_ris(4), Codebook.zeros(1, 3))

    def test_taps_and_gain_reject_a_misfit_codebook_alike(self):
        _, direct = two_tap_setup()
        ris, codebook = small_ris(4), Codebook.zeros(1, 3)
        messages = []
        for call in (lambda: combined_taps(direct, ris, codebook),
                     lambda: effective_gain(ris, codebook)):
            with pytest.raises(ValueError) as info:
                call()
            messages.append(str(info.value))
        assert messages == ["codebook has 3 elements, RIS channel has 4"] * 2

    def test_flipping_a_bit_negates_that_cascade_term(self):
        direct = NO_TAPS
        ris = small_ris(2)
        grid = SubcarrierGrid(count=1)
        h0 = frequency_response(combined_taps(direct, ris, Codebook.zeros(1, 2)), grid)
        flipped = Codebook(np.array([[1, 0]], dtype=np.uint8))
        h1 = frequency_response(combined_taps(direct, ris, flipped), grid)
        c0 = (ris.tx_to_ris[0] * ris.ris_to_rx[0]
              * np.exp(-2j * np.pi * grid.frequencies()[0] * ris.path_delays[0]))
        assert h1[0] == pytest.approx(h0[0] - 2 * c0, abs=1e-9)

    def test_codebook_bits_map_row_major(self):
        direct = NO_TAPS
        ris = small_ris(4)
        bits = np.zeros((2, 2), dtype=np.uint8)
        bits[0, 1] = 1  # row-major element index 1
        taps = combined_taps(direct, ris, Codebook(bits))
        base = combined_taps(direct, ris, Codebook.zeros(2, 2))
        for i in range(4):
            ratio = taps.gain[i] / base.gain[i]
            assert ratio == pytest.approx(-1.0 if i == 1 else 1.0, abs=1e-12)


def polar_response(amps, phases, delays, grid):
    """Reference H[k] = sum_i a_i e^{j phi_i} e^{-j 2 pi f_k tau_i} from polar taps."""
    steering = np.exp(-1j * 2 * np.pi * np.outer(delays, grid.frequencies()))
    return (amps * np.exp(1j * phases)) @ steering


@st.composite
def links(draw):
    """Polar direct taps, a surface of up to 4x4 elements, a codebook and a grid."""
    m = draw(st.integers(0, 4))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    n = rows * cols
    element = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    direct = tuple(draw(arrays(np.float64, m, elements=st.floats(lo, hi)))
                   for lo, hi in ((0.0, 2.0), (-10.0, 10.0), (0.0, 200e-9)))
    ris = RisChannel(draw(arrays(np.complex128, n, elements=element)),
                     draw(arrays(np.complex128, n, elements=element)),
                     draw(arrays(np.float64, n, elements=st.floats(0.0, 200e-9))))
    bits = draw(arrays(np.uint8, (rows, cols), elements=st.integers(0, 1)))
    return direct, ris, Codebook(bits), SubcarrierGrid(count=draw(st.integers(1, 8)))


@settings(max_examples=200, deadline=None)
@given(link=links())
def test_complex_taps_match_the_polar_reference(link):
    (amps, phases, delays), ris, codebook, grid = link
    taps = combined_taps(Taps(amps * np.exp(1j * phases), delays), ris, codebook)
    # RIS tap n in polar form: |h_n||H_n| and arg h_n + arg H_n + theta_n
    thetas = codebook.grid.reshape(-1) * np.pi
    ref = polar_response(
        np.concatenate([amps, np.abs(ris.tx_to_ris) * np.abs(ris.ris_to_rx)]),
        np.concatenate([phases, np.angle(ris.tx_to_ris) + np.angle(ris.ris_to_rx) + thetas]),
        np.concatenate([delays, ris.path_delays]), grid)
    scale = np.sum(np.abs(taps.gain))
    assert np.all(np.abs(frequency_response(taps, grid) - ref) <= 1e-12 * scale)
    # the narrowband gain sums the very cascade the RIS taps carry
    assert effective_gain(ris, codebook) == complex(np.sum(taps.gain[amps.size:]))


class TestEffectiveGainAndSnr:
    def test_gain_is_sum_of_phased_cascades(self):
        ris = small_ris(5)
        cb = Codebook(np.array([[1, 0, 1, 0, 1]], dtype=np.uint8))
        thetas = np.array([1, 0, 1, 0, 1]) * math.pi
        expected = np.sum(ris.tx_to_ris * ris.ris_to_rx * np.exp(1j * thetas))
        assert effective_gain(ris, cb) == pytest.approx(expected, abs=1e-12)

    def test_empty_ris_has_zero_gain(self):
        assert effective_gain(RisChannel.empty(), Codebook.zeros(0, 0)) == 0

    def test_single_element_flip_preserves_magnitude(self):
        # with one element the flip only rotates the phase of the gain
        ris = small_ris(1)
        g0 = effective_gain(ris, Codebook.zeros(1, 1))
        g1 = effective_gain(ris, Codebook(np.array([[1]], dtype=np.uint8)))
        assert abs(g0) == pytest.approx(abs(g1), rel=1e-12)
        assert g1 == pytest.approx(-g0, abs=1e-12)

    def test_two_element_alignment_beats_cancellation(self):
        ris = RisChannel(
            tx_to_ris=np.array([1.0 + 0j, 1.0 + 0j]),
            ris_to_rx=np.array([1.0 + 0j, -1.0 + 0j]),
            path_delays=np.zeros(2),
        )
        cancel = effective_gain(ris, Codebook.zeros(1, 2))
        align = effective_gain(ris, Codebook(np.array([[0, 1]], dtype=np.uint8)))
        assert abs(cancel) == pytest.approx(0.0, abs=1e-12)
        assert abs(align) == pytest.approx(2.0, rel=1e-12)

    def test_snr_scales_inversely_with_noise_variance(self):
        ris = small_ris(3)
        cb = Codebook.zeros(1, 3)
        s1 = snr(ris, cb, NoiseSpec(variance=0.5))
        s2 = snr(ris, cb, NoiseSpec(variance=2.0))
        assert s1 == pytest.approx(4.0 * s2, rel=1e-12)
        assert s1 == pytest.approx(abs(effective_gain(ris, cb)) ** 2 / 0.5, rel=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            snr(small_ris(2), Codebook.zeros(1, 2), NoiseSpec(variance=0.0))

    def test_overflowing_snr_rejected(self):
        # a subnormal variance sends |g|^2 / sigma^2 past float64's range
        with pytest.raises(ValueError, match="not finite"):
            snr(small_ris(3), Codebook.zeros(1, 3), NoiseSpec(variance=1e-320))

    def test_negative_variance_rejected_at_construction(self):
        with pytest.raises(ValueError):
            NoiseSpec(variance=-1.0)
