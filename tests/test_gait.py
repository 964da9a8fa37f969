"""Gait synthesis: subject signatures, episode variation, rendering, datasets."""
import dataclasses
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trgr.channel import (
    NoiseSpec,
    RisChannel,
    SubcarrierGrid,
    Taps,
    combined_taps,
    frequency_response,
)
from trgr.codebook import Codebook
from trgr.gait import (
    DYNAMIC_DELAY_RANGE_S,
    MAX_DOPPLER_HZ,
    CsiRecording,
    ScenarioConfig,
    SubjectProfile,
    _envelopes,
    _gait_draws,
    default_profiles,
    default_scenario,
    dynamic_coupling,
    generate_dataset,
    render_dataset,
    render_recording,
)
from trgr.pipeline import save_dataset
from trgr.seeds import mix_seeds


def make_profile(sid: int = 0, seed: int = 100) -> SubjectProfile:
    return SubjectProfile(
        subject_id=sid,
        cadence_hz=1.1,
        torso_amp=1.0,
        limb_amp=0.5,
        harmonic_weights=(0.6, 0.25),
        signature_seed=seed,
    )


def dynamic_taps(profile: SubjectProfile, t: float, episode_seed: int,
                 path_count: int = 6) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The walker's (amplitudes, phases, delays) t seconds into an episode,
    from the draws the render uses."""
    delays, psi, doppler, phi0, base = _gait_draws(profile, episode_seed, path_count)
    amps = _envelopes(profile, psi, base, np.array([t]))[0]
    return amps, phi0 + 2.0 * math.pi * doppler * t, delays


def tiny_scenario(noise_variance: float = 0.0, wall_db: float = 40.0,
                  n_ris: int = 4, paths: int = 3) -> ScenarioConfig:
    rng = np.random.default_rng(55)
    ris = RisChannel(
        rng.standard_normal(n_ris) + 1j * rng.standard_normal(n_ris),
        rng.standard_normal(n_ris) + 1j * rng.standard_normal(n_ris),
        np.full(n_ris, 40e-9),
    ) if n_ris else RisChannel.empty()
    direct = Taps([0.8 * np.exp(0.3j)], [10e-9])
    return ScenarioConfig(
        direct=direct,
        ris=ris,
        grid=SubcarrierGrid(count=16),
        noise=NoiseSpec(variance=noise_variance, seed=5),
        wall_attenuation_db=wall_db,
        dynamic_path_count=paths,
        packets_per_second=50,
        duration_s=0.5,
    )


class TestSubjectProfile:
    def test_label_space_fits_u16(self):
        assert dataclasses.replace(make_profile(), subject_id=0xFFFF).subject_id == 0xFFFF
        with pytest.raises(ValueError):
            dataclasses.replace(make_profile(), subject_id=0x10000)
        with pytest.raises(ValueError):
            dataclasses.replace(make_profile(), subject_id=-1)

    def test_positive_cadence_required(self):
        with pytest.raises(ValueError):
            dataclasses.replace(make_profile(), cadence_hz=0.0)

    def test_nonnegative_amplitudes_required(self):
        with pytest.raises(ValueError):
            dataclasses.replace(make_profile(), torso_amp=-0.1)

    def test_harmonics_must_be_nonempty(self):
        with pytest.raises(ValueError):
            dataclasses.replace(make_profile(), harmonic_weights=())


class TestScenarioConfig:
    def test_packet_count_rounds_rate_times_duration(self):
        sc = tiny_scenario()
        assert sc.packet_count == 25
        assert dataclasses.replace(sc, duration_s=3.0).packet_count == 150

    def test_negative_wall_attenuation_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(tiny_scenario(), wall_attenuation_db=-1.0)

    def test_negative_path_count_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(tiny_scenario(), dynamic_path_count=-1)


class TestCsiRecording:
    def test_must_be_two_dimensional(self):
        with pytest.raises(ValueError):
            CsiRecording(np.zeros(5), 0, 1)

    def test_must_be_finite(self):
        m = np.zeros((2, 3))
        m[0, 0] = np.inf
        with pytest.raises(ValueError):
            CsiRecording(m, 0, 1)


class TestDynamicTaps:
    def test_path_count_and_delay_range(self):
        amps, _, delays = dynamic_taps(make_profile(), t=0.2, episode_seed=1, path_count=5)
        assert delays.shape == (5,)
        lo, hi = DYNAMIC_DELAY_RANGE_S
        assert np.all((lo <= delays) & (delays <= hi))
        assert np.all(amps >= 0)

    def test_deterministic_per_arguments(self):
        a = dynamic_taps(make_profile(), 0.3, episode_seed=2, path_count=4)
        b = dynamic_taps(make_profile(), 0.3, episode_seed=2, path_count=4)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_episodes_of_one_subject_share_delays_not_phases(self):
        p = make_profile()
        _, phases1, delays1 = dynamic_taps(p, 0.0, episode_seed=1, path_count=4)
        _, phases2, delays2 = dynamic_taps(p, 0.0, episode_seed=2, path_count=4)
        assert np.array_equal(delays1, delays2)
        assert not np.array_equal(phases1, phases2)

    def test_different_subjects_get_different_delays(self):
        _, _, delays1 = dynamic_taps(make_profile(seed=100), 0.0, episode_seed=1, path_count=4)
        _, _, delays2 = dynamic_taps(make_profile(seed=101), 0.0, episode_seed=1, path_count=4)
        assert not np.array_equal(delays1, delays2)

    def test_doppler_rates_bounded_and_episode_stable(self):
        dt = 1e-3
        for sid, ep in [(0, 1), (0, 2), (1, 1), (2, 7)]:
            p = make_profile(sid, seed=100 + sid)
            _, phases0, _ = dynamic_taps(p, 0.0, episode_seed=ep, path_count=4)
            _, phases1, _ = dynamic_taps(p, dt, episode_seed=ep, path_count=4)
            delta = (phases1 - phases0 + math.pi) % (2 * math.pi) - math.pi
            doppler = delta / (2 * math.pi * dt)
            assert np.all(np.abs(doppler) <= MAX_DOPPLER_HZ + 1e-6)

    def test_amplitudes_stay_nonnegative_with_deep_modulation(self):
        p = dataclasses.replace(make_profile(), harmonic_weights=(2.0, 1.5))
        for t in np.linspace(0.0, 2.0, 17):
            assert np.all(dynamic_taps(p, float(t), episode_seed=3, path_count=4)[0] >= 0)


class TestDynamicCoupling:
    def test_empty_ris_reduces_to_wall_leak(self):
        sc = tiny_scenario(n_ris=0, wall_db=40.0)
        assert dynamic_coupling(sc) == pytest.approx(10 ** (-40.0 / 20.0), rel=1e-12)

    def test_ris_adds_incoherent_aperture_flux(self):
        sc = tiny_scenario(n_ris=4, wall_db=40.0)
        leak = 10 ** (-40.0 / 20.0)
        aperture = math.sqrt(float(np.sum(
            np.abs(sc.ris.tx_to_ris * sc.ris.ris_to_rx) ** 2)))
        assert dynamic_coupling(sc) == pytest.approx(leak + aperture, rel=1e-12)

    def test_coupling_ignores_codebook(self):
        # the walker catches the whole transmitted field, not the aimed beam
        sc = tiny_scenario(n_ris=4)
        p = make_profile()
        cb_a = Codebook.zeros(2, 2)
        cb_b = Codebook(np.array([[1, 0], [0, 1]], dtype=np.uint8))
        rec_a = render_recording(p, sc, cb_a, episode_seed=3)
        rec_b = render_recording(p, sc, cb_b, episode_seed=3)
        static_a = frequency_response(combined_taps(
            _attenuated(sc), sc.ris, cb_a), sc.grid)
        static_b = frequency_response(combined_taps(
            _attenuated(sc), sc.ris, cb_b), sc.grid)
        # subtracting each static response leaves the same dynamic field
        vacant = dataclasses.replace(sc, dynamic_path_count=0)
        vac_a = render_recording(p, vacant, cb_a, episode_seed=3)
        vac_b = render_recording(p, vacant, cb_b, episode_seed=3)
        assert np.allclose(vac_a.magnitudes[0], np.abs(static_a))
        assert np.allclose(vac_b.magnitudes[0], np.abs(static_b))
        assert not np.allclose(rec_a.magnitudes, rec_b.magnitudes)


def _attenuated(sc: ScenarioConfig) -> Taps:
    scale = 10 ** (-sc.wall_attenuation_db / 20.0)
    return Taps(sc.direct.gain * scale, sc.direct.delay)


class TestRenderRecording:
    def test_shape_is_packets_by_subcarriers(self):
        sc = tiny_scenario()
        rec = render_recording(make_profile(), sc, Codebook.zeros(2, 2), episode_seed=1)
        assert rec.magnitudes.shape == (sc.packet_count, sc.grid.count)
        assert rec.episode_seed == 1

    def test_vacant_render_is_static(self):
        # a room whose walker has no dynamic paths renders the static response
        sc = tiny_scenario(noise_variance=0.0, paths=0)
        rec = render_recording(make_profile(sid=2), sc, Codebook.zeros(2, 2), episode_seed=1)
        assert rec.label == 2
        assert np.allclose(rec.magnitudes, rec.magnitudes[0])

    def test_noiseless_vacant_matches_static_frequency_response(self):
        sc = tiny_scenario(noise_variance=0.0, paths=0)
        cb = Codebook(np.array([[1, 0], [1, 1]], dtype=np.uint8))
        rec = render_recording(make_profile(), sc, cb, episode_seed=1)
        expected = np.abs(frequency_response(
            combined_taps(_attenuated(sc), sc.ris, cb), sc.grid))
        assert np.allclose(rec.magnitudes, expected[None, :])

    def test_noiseless_rows_are_static_plus_coupled_walker_taps(self):
        sc = tiny_scenario(noise_variance=0.0)
        cb = Codebook(np.array([[0, 1], [1, 0]], dtype=np.uint8))
        p = make_profile()
        rec = render_recording(p, sc, cb, episode_seed=6)
        static = frequency_response(combined_taps(_attenuated(sc), sc.ris, cb), sc.grid)
        coupling = dynamic_coupling(sc)
        for row in range(sc.packet_count):
            amps, phases, delays = dynamic_taps(p, row / sc.packets_per_second, episode_seed=6,
                                                path_count=sc.dynamic_path_count)
            walker = Taps(amps * np.exp(1j * phases), delays)
            expected = np.abs(static + coupling * frequency_response(walker, sc.grid))
            assert np.allclose(rec.magnitudes[row], expected, rtol=1e-9, atol=1e-12)

    def test_walker_modulates_the_rows(self):
        sc = tiny_scenario(noise_variance=0.0)
        rec = render_recording(make_profile(), sc, Codebook.zeros(2, 2), episode_seed=1)
        assert rec.label == 0
        assert not np.allclose(rec.magnitudes[0], rec.magnitudes[-1])

    def test_render_is_deterministic(self):
        sc = tiny_scenario(noise_variance=0.5)
        a = render_recording(make_profile(), sc, Codebook.zeros(2, 2), episode_seed=4)
        b = render_recording(make_profile(), sc, Codebook.zeros(2, 2), episode_seed=4)
        assert np.array_equal(a.magnitudes, b.magnitudes)

    def test_noise_differs_across_episodes(self):
        sc = tiny_scenario(noise_variance=0.5, paths=0)
        a = render_recording(make_profile(), sc, Codebook.zeros(2, 2), episode_seed=1)
        b = render_recording(make_profile(), sc, Codebook.zeros(2, 2), episode_seed=2)
        assert not np.array_equal(a.magnitudes, b.magnitudes)

    def test_high_wall_attenuation_buries_gait_without_ris(self):
        sc = tiny_scenario(noise_variance=0.0, wall_db=60.0, n_ris=0)
        walk = render_recording(make_profile(), sc, Codebook.zeros(0, 0), episode_seed=1)
        vacant = render_recording(make_profile(), dataclasses.replace(sc, dynamic_path_count=0),
                                  Codebook.zeros(0, 0), episode_seed=1)
        ripple = np.abs(walk.magnitudes - vacant.magnitudes).max()
        assert ripple < 10 ** (-60.0 / 20.0) * 20  # bounded by coupling * path budget


class TestGenerateDataset:
    def test_counts_labels_and_order(self):
        sc = tiny_scenario(noise_variance=0.1)
        profiles = [make_profile(0, 100), make_profile(1, 101)]
        recs = generate_dataset(profiles, sc, Codebook.zeros(2, 2),
                                episodes_per_subject=3, base_seed=9)
        assert len(recs) == 6
        assert [r.label for r in recs] == [0, 0, 0, 1, 1, 1]
        assert len({r.episode_seed for r in recs}) == 6

    def test_records_equal_individual_renders(self):
        sc = tiny_scenario(noise_variance=0.1)
        profiles = [make_profile(0, 100), make_profile(1, 101)]
        cb = Codebook(np.array([[1, 0], [0, 1]], dtype=np.uint8))
        for rec in generate_dataset(profiles, sc, cb, episodes_per_subject=2, base_seed=9):
            alone = render_recording(profiles[rec.label], sc, cb, rec.episode_seed)
            # each recording views its float32 record
            assert rec.magnitudes.dtype == np.float32 and not rec.magnitudes.flags.owndata
            assert np.array_equal(rec.magnitudes, alone.magnitudes.astype(np.float32))

    def test_deterministic_by_base_seed(self):
        sc = tiny_scenario(noise_variance=0.1)
        profiles = [make_profile(0, 100)]
        a = generate_dataset(profiles, sc, Codebook.zeros(2, 2), 2, base_seed=9)
        b = generate_dataset(profiles, sc, Codebook.zeros(2, 2), 2, base_seed=9)
        c = generate_dataset(profiles, sc, Codebook.zeros(2, 2), 2, base_seed=10)
        for x, y in zip(a, b):
            assert np.array_equal(x.magnitudes, y.magnitudes)
        assert not np.array_equal(a[0].magnitudes, c[0].magnitudes)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_saved_records_equal_the_per_record_reference(self, data):
        # the reference renders each episode alone and packs its record as the
        # dataset format spells it: <HQ label and seed, then <f4 magnitudes
        surface = data.draw(st.booleans(), label="surface")
        sc = dataclasses.replace(
            tiny_scenario(noise_variance=data.draw(st.sampled_from([0.0, 0.1, 2.0])),
                          n_ris=4 if surface else 0, paths=data.draw(st.integers(0, 3))),
            grid=SubcarrierGrid(count=data.draw(st.integers(1, 8), label="subcarriers")),
            duration_s=data.draw(st.sampled_from([0.02, 0.1, 0.3]), label="duration_s"))
        cb = (Codebook(np.array(data.draw(st.lists(st.integers(0, 1), min_size=4, max_size=4)),
                                dtype=np.uint8).reshape(2, 2)) if surface else Codebook.zeros(0, 0))
        ids = data.draw(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=3, unique=True))
        profiles = [make_profile(sid, 100 + k) for k, sid in enumerate(ids)]
        episodes = data.draw(st.integers(1, 4), label="episodes")
        base_seed = data.draw(st.integers(0, 2**64 - 1), label="base_seed")
        reference = [struct.pack("<4sHIII", b"TRGR", 1, sc.packet_count, sc.grid.count,
                                 len(profiles) * episodes)]
        for profile in profiles:
            for episode in range(episodes):
                seed = mix_seeds(base_seed, profile.subject_id, episode)
                rec = render_recording(profile, sc, cb, seed)
                reference += [struct.pack("<HQ", rec.label, rec.episode_seed),
                              rec.magnitudes.astype("<f4").tobytes()]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.bin"
            save_dataset(path, render_dataset(profiles, sc, cb, episodes, base_seed))
            assert path.read_bytes() == b"".join(reference)

    def test_requires_at_least_one_episode(self):
        with pytest.raises(ValueError):
            generate_dataset([make_profile()], tiny_scenario(), Codebook.zeros(2, 2),
                             episodes_per_subject=0, base_seed=1)


class TestDefaults:
    def test_default_scenario_wiring(self):
        sc = default_scenario()
        assert sc.grid.count == 256
        assert sc.ris.n_elements == 256
        assert sc.packet_count == 150
        assert sc.noise.variance == 0.5
        assert sc.wall_attenuation_db == 45.0

    def test_default_profiles_ladder(self):
        profiles = default_profiles(4, seed=0)
        assert [p.subject_id for p in profiles] == [0, 1, 2, 3]
        cadences = [p.cadence_hz for p in profiles]
        assert all(b > a for a, b in zip(cadences, cadences[1:]))
        assert len({p.signature_seed for p in profiles}) == 4

    def test_default_profiles_deterministic(self):
        assert default_profiles(3, seed=1) == default_profiles(3, seed=1)
        assert default_profiles(3, seed=1) != default_profiles(3, seed=2)

    def test_single_profile_allowed(self):
        assert len(default_profiles(1)) == 1

    def test_zero_profiles_rejected(self):
        with pytest.raises(ValueError):
            default_profiles(0)
