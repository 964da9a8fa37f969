"""Tap arrays, tap combination, frequency response, narrowband gain/SNR."""
import math

import numpy as np
import pytest

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
    direct = Taps([1.0, 1.0], [0.0, 0.0], [0.0, tau])
    return grid, direct


NO_TAPS = Taps([], [], [])


def small_ris(n: int, seed: int = 3) -> RisChannel:
    rng = np.random.default_rng(seed)
    return RisChannel(
        tx_to_ris=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        ris_to_rx=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        path_delays=np.full(n, 30e-9),
    )


class TestTaps:
    def test_phase_wraps_into_principal_range(self):
        taps = Taps([1.0], [5 * math.pi], [0.0])
        assert 0.0 <= taps.phase[0] < 2 * math.pi
        assert taps.phase[0] == pytest.approx(math.pi)

    def test_negative_phase_wraps_up(self):
        taps = Taps([1.0], [-math.pi / 2], [0.0])
        assert taps.phase[0] == pytest.approx(1.5 * math.pi)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            Taps([0.5, -0.1], [0.0, 0.0], [0.0, 0.0])

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Taps([0.5], [0.0], [-1e-9])

    def test_non_finite_rejected(self):
        for amp, phase, delay in [(math.nan, 0.0, 0.0), (1.0, math.inf, 0.0),
                                  (1.0, 0.0, math.nan)]:
            with pytest.raises(ValueError):
                Taps([amp], [phase], [delay])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            Taps([1.0, 1.0], [0.0], [0.0, 0.0])

    def test_phase_wrap_matches_scalar_fmod(self):
        phases = np.array([-7.0, -1e-17, -0.0, 0.0, 1.0, 2 * math.pi, 13.5, -2 * math.pi])
        taps = Taps(np.ones(phases.size), phases, np.zeros(phases.size))
        for raw, wrapped in zip(phases, taps.phase):
            p = math.fmod(raw, 2 * math.pi)
            assert wrapped == (p + 2 * math.pi if p < 0.0 else p)

    def test_arrays_are_read_only_copies(self):
        amp = np.array([1.0, 2.0])
        taps = Taps(amp, [0.0, 0.0], [0.0, 0.0])
        amp[0] = 9.0
        assert taps.amplitude[0] == 1.0
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
        taps = Taps([0.3, 0.7], [0.0, 0.0], [0.0, 0.0])
        assert np.allclose(frequency_response(taps, grid), 1.0)

    def test_opposite_phases_cancel(self):
        grid = SubcarrierGrid(count=3)
        taps = Taps([0.5, 0.5], [0.0, math.pi], [0.0, 0.0])
        assert np.abs(frequency_response(taps, grid)).max() < 1e-12


class TestCombinedTaps:
    def test_direct_taps_come_first_then_one_per_element(self):
        _, direct = two_tap_setup()
        ris = small_ris(4)
        taps = combined_taps(direct, ris, Codebook.zeros(2, 2))
        assert taps.amplitude.shape == (2 + 4,)
        for field in ("amplitude", "phase", "delay"):
            assert np.array_equal(getattr(taps, field)[:2], getattr(direct, field))
        assert taps.delay[2:].tolist() == [30e-9] * 4
        assert np.allclose(taps.amplitude[2:], np.abs(ris.tx_to_ris * ris.ris_to_rx))

    def test_empty_ris_contributes_nothing(self):
        _, direct = two_tap_setup()
        taps = combined_taps(direct, RisChannel.empty(), Codebook.zeros(0, 0))
        for field in ("amplitude", "phase", "delay"):
            assert np.array_equal(getattr(taps, field), getattr(direct, field))

    def test_codebook_size_must_match_elements(self):
        _, direct = two_tap_setup()
        with pytest.raises(ValueError):
            combined_taps(direct, small_ris(4), Codebook.zeros(1, 3))

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
            delta = (taps.phase[i] - base.phase[i]) % (2 * math.pi)
            assert delta == pytest.approx(math.pi if i == 1 else 0.0, abs=1e-12)


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

    def test_negative_variance_rejected_at_construction(self):
        with pytest.raises(ValueError):
            NoiseSpec(variance=-1.0)
