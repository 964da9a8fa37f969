"""Synthetic gait-modulated CSI recordings.

Geometry: the transmitter sits behind a lossy wall; the walking subject and
the receiver share the far room.  Static propagation is the wall-attenuated
direct leak plus, when a transmissive RIS is mounted in the wall, one tap per
surface element under the active codebook.

A walking subject is modeled as a handful of dynamic multipath taps whose
amplitudes breathe at the subject's cadence (plus harmonics) and whose phases
advance at per-episode Doppler rates.  The field that illuminates the walker
must itself cross the wall, so the dynamic response is scaled by the through-
wall coupling: the direct leak plus the incoherent flux through the RIS
aperture (`dynamic_coupling`).  Without the surface, the gait ripple drops to
the leak level and drowns in receiver noise; with it, the ripple rides a
strong carrier and stays legible in the magnitudes.

Per-subject randomness (path delays, harmonic phase offsets) is pinned to the
subject's signature seed so episodes of one person share their envelope
structure, while Doppler rates and initial phases are redrawn per episode.
Rendered output is the magnitude of the per-subcarrier response with optional
AWGN, one row per packet.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import NoiseSpec, RisChannel, SubcarrierGrid, Taps, combined_taps, frequency_response
from .codebook import Codebook
from .seeds import mix_seeds

MAX_DOPPLER_HZ = 18.0          # |per-path Doppler| bound, below Nyquist at 50 pkt/s
DYNAMIC_DELAY_RANGE_S = (10e-9, 120e-9)
PACE_TO_DOPPLER_HZ = 6.5       # torso Doppler per unit cadence (speed scales with step rate)

_SIG_SALT = 0x7369676E61747572   # per-subject signature stream
_EP_SALT = 0x657069736F646531    # per-episode stream
_NOISE_SALT = 0x6E6F697365303030  # per-episode AWGN stream


@dataclass(frozen=True)
class SubjectProfile:
    """Deterministic per-subject gait signature."""

    subject_id: int
    cadence_hz: float
    torso_amp: float
    limb_amp: float
    harmonic_weights: tuple[float, ...]
    signature_seed: int

    def __post_init__(self):
        if not 0 <= self.subject_id <= 0xFFFF:
            raise ValueError(f"subject_id must fit the u16 dataset label, got {self.subject_id}")
        if self.cadence_hz <= 0:
            raise ValueError("cadence must be > 0")
        if self.torso_amp < 0 or self.limb_amp < 0:
            raise ValueError("amplitudes must be >= 0")
        if len(self.harmonic_weights) == 0:
            raise ValueError("harmonic_weights must be nonempty")
        object.__setattr__(self, "harmonic_weights", tuple(float(w) for w in self.harmonic_weights))


@dataclass(frozen=True)
class ScenarioConfig:
    """Static environment a recording is rendered in."""

    direct: Taps
    ris: RisChannel
    grid: SubcarrierGrid
    noise: NoiseSpec
    wall_attenuation_db: float
    dynamic_path_count: int
    packets_per_second: int
    duration_s: float

    def __post_init__(self):
        if self.wall_attenuation_db < 0:
            raise ValueError("wall attenuation must be >= 0 dB")
        if self.dynamic_path_count < 0:
            raise ValueError("dynamic path count must be >= 0")
        if self.packets_per_second <= 0 or self.duration_s <= 0:
            raise ValueError("packet rate and duration must be positive")

    @property
    def packet_count(self) -> int:
        return int(round(self.packets_per_second * self.duration_s))


@dataclass(frozen=True)
class CsiRecording:
    """T x S CSI magnitude tensor for one walking episode."""

    magnitudes: np.ndarray
    label: int
    episode_seed: int

    def __post_init__(self):
        m = np.asarray(self.magnitudes)
        if m.ndim != 2:
            raise ValueError(f"magnitudes must be T x S, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("magnitudes must be finite")
        object.__setattr__(self, "magnitudes", m)

    @property
    def shape(self) -> tuple[int, int]:
        return self.magnitudes.shape


def _gait_draws(profile: SubjectProfile, episode_seed: int, path_count: int):
    """Per-path constants: (delays, psi, doppler, phi0, base amplitudes).

    Delays, harmonic phase offsets and the base Doppler comb depend on the
    signature seed only: path delays fix the subject's interference pattern
    across subcarriers, and the base Doppler rates reflect walking speed,
    which is a gait trait.  The episode stream then modulates that comb with
    a common pace factor, a walking direction sign and small per-path jitter,
    and redraws the initial phases, so no two episodes are identical but the
    subject's structure survives.
    """
    n_harm = len(profile.harmonic_weights)
    sig = np.random.default_rng(mix_seeds(profile.signature_seed, _SIG_SALT))
    lo, hi = DYNAMIC_DELAY_RANGE_S
    delays = sig.uniform(lo, hi, path_count)
    psi = sig.uniform(0.0, 2.0 * math.pi, (path_count, n_harm))
    base_doppler = np.empty(path_count)
    if path_count > 0:
        stride = sig.uniform(0.9, 1.1)  # subject-fixed stride length factor
        torso_doppler = PACE_TO_DOPPLER_HZ * profile.cadence_hz * stride
        base_doppler[0] = torso_doppler
        base_doppler[1:] = torso_doppler * sig.uniform(0.6, 1.8, path_count - 1)

    ep = np.random.default_rng(mix_seeds(profile.signature_seed, episode_seed, _EP_SALT))
    pace = ep.uniform(0.92, 1.08)
    direction = 1.0 if ep.uniform() < 0.5 else -1.0
    jitter = ep.uniform(-0.25, 0.25, path_count)
    doppler = np.clip(direction * pace * base_doppler + jitter,
                      -MAX_DOPPLER_HZ, MAX_DOPPLER_HZ)
    phi0 = ep.uniform(0.0, 2.0 * math.pi, path_count)
    base = np.full(path_count, profile.limb_amp)
    if path_count > 0:
        base[0] = profile.torso_amp  # first path carries the torso return
    return delays, psi, doppler, phi0, base


def _envelopes(profile: SubjectProfile, psi: np.ndarray, base: np.ndarray,
               t: np.ndarray) -> np.ndarray:
    """Amplitude envelope per (time, path): base * (1 + sum_k w_k sin(2 pi k f t + psi)), floored at 0."""
    weights = np.asarray(profile.harmonic_weights)
    k = np.arange(1, weights.size + 1)
    # angles: (T, P, K)
    angles = 2.0 * math.pi * profile.cadence_hz * np.einsum("t,k->tk", t, k)[:, None, :] + psi[None, :, :]
    mod = 1.0 + np.sin(angles) @ weights
    return np.maximum(base[None, :] * mod, 0.0)


def dynamic_coupling(scenario: ScenarioConfig) -> float:
    """Strength of the field available to the walker's scattered paths.

    The walker and receiver share the room behind the wall, so whatever the
    walker re-scatters is limited by what crossed the wall: the attenuated
    direct leak plus the aperture flux of the RIS.  The aperture term sums
    element powers incoherently because the walker catches the surface's
    whole transmitted field, not the receiver-pointed beam, which also makes
    it independent of the codebook.
    """
    leak = 10.0 ** (-scenario.wall_attenuation_db / 20.0)
    ris = scenario.ris
    aperture = math.sqrt(float(np.sum(np.abs(ris.tx_to_ris * ris.ris_to_rx) ** 2)))
    return leak + aperture  # an empty surface adds 0.0


def _static_response(scenario: ScenarioConfig, codebook: Codebook) -> np.ndarray:
    """Per-subcarrier response of the attenuated wall leak plus the RIS cascade."""
    scale = 10.0 ** (-scenario.wall_attenuation_db / 20.0)
    leak = Taps(scenario.direct.amplitude * scale, scenario.direct.phase, scenario.direct.delay)
    return frequency_response(combined_taps(leak, scenario.ris, codebook), scenario.grid)


def _render(profile: SubjectProfile, scenario: ScenarioConfig,
            static_fr: np.ndarray, episode_seed: int) -> CsiRecording:
    """One episode on top of a precomputed static response."""
    grid = scenario.grid
    T = scenario.packet_count
    response = np.broadcast_to(static_fr, (T, grid.count)).copy()
    t = np.arange(T) / scenario.packets_per_second
    delays, psi, doppler, phi0, base = _gait_draws(profile, episode_seed,
                                                   scenario.dynamic_path_count)
    amps = _envelopes(profile, psi, base, t)                          # (T, P)
    phases = phi0[None, :] + 2.0 * math.pi * np.outer(t, doppler)    # (T, P)
    steering = np.exp(-1j * 2.0 * math.pi * np.outer(delays, grid.frequencies()))  # (P, S)
    response += dynamic_coupling(scenario) * (amps * np.exp(1j * phases)) @ steering

    if scenario.noise.variance > 0:
        rng = np.random.default_rng(mix_seeds(scenario.noise.seed, episode_seed, _NOISE_SALT))
        w = rng.standard_normal((2, T, grid.count)) * math.sqrt(scenario.noise.variance / 2.0)
        response += w[0] + 1j * w[1]

    return CsiRecording(np.abs(response), profile.subject_id, episode_seed)


def render_recording(profile: SubjectProfile, scenario: ScenarioConfig,
                     codebook: Codebook, episode_seed: int) -> CsiRecording:
    """Render one episode of `profile` walking through `scenario`."""
    return _render(profile, scenario, _static_response(scenario, codebook), episode_seed)


def generate_dataset(profiles: list[SubjectProfile], scenario: ScenarioConfig,
                     codebook: Codebook, episodes_per_subject: int,
                     base_seed: int) -> list[CsiRecording]:
    """episodes_per_subject renders per profile, in profile order, seeded per episode.

    The static response is the same for every episode, so it is computed once.
    """
    if episodes_per_subject < 1:
        raise ValueError("episodes_per_subject must be >= 1")
    static_fr = _static_response(scenario, codebook)
    recordings = []
    for profile in profiles:
        for episode in range(episodes_per_subject):
            seed = mix_seeds(base_seed, profile.subject_id, episode)
            recordings.append(_render(profile, scenario, static_fr, seed))
    return recordings


# ---------------------------------------------------------------------------
# Default environments: seeded rich-scattering channels and subject pools.

ELEMENT_GAIN_STD = 0.35    # per-hop complex-Gaussian gain std of a surface element
TRANSIT_DELAY_S = 40e-9    # Tx -> element -> Rx delay shared by every element
DIRECT_TAP_COUNT = 3       # through-wall leak taps


def rich_scattering_ris(rows: int, cols: int, seed: int) -> RisChannel:
    """IID complex-Gaussian element gains with a common transit delay.

    A shared delay keeps the codebook phase alignment found on the narrowband
    objective intact at every subcarrier in wideband renders.
    """
    n = rows * cols
    rng = np.random.default_rng(mix_seeds(seed, 0x726973))
    s = ELEMENT_GAIN_STD / math.sqrt(2.0)
    gains = rng.standard_normal((2, 2, n)) * s
    tx_to_ris = gains[0, 0] + 1j * gains[0, 1]
    ris_to_rx = gains[1, 0] + 1j * gains[1, 1]
    return RisChannel(tx_to_ris, ris_to_rx, np.full(n, TRANSIT_DELAY_S))


def leaky_direct_channel(seed: int) -> Taps:
    """Weak unaided through-wall taps (before scenario-level attenuation).

    Draws run tap by tap (amplitude, phase, delay, then the next tap): the
    (DIRECT_TAP_COUNT, 3) draw fills rows in that order.
    """
    rng = np.random.default_rng(mix_seeds(seed, 0x646972))
    draws = rng.uniform((0.4, 0.0, 0.0), (1.0, 2.0 * math.pi, 80e-9), (DIRECT_TAP_COUNT, 3))
    return Taps(draws[:, 0], draws[:, 1], draws[:, 2])


def default_scenario(subcarriers: int = 256, seed: int = 7,
                     noise_variance: float = 0.5, wall_attenuation_db: float = 45.0,
                     dynamic_path_count: int = 3, ris_rows: int = 16,
                     ris_cols: int = 16, packets_per_second: int = 50,
                     duration_s: float = 3.0) -> ScenarioConfig:
    """Seeded 16x16 rich-scattering through-wall scenario at desk scale."""
    if ris_rows < 1 or ris_cols < 1:
        raise ValueError(f"ris_rows and ris_cols must be >= 1, got {ris_rows}x{ris_cols}")
    return ScenarioConfig(
        direct=leaky_direct_channel(seed),
        ris=rich_scattering_ris(ris_rows, ris_cols, seed),
        grid=SubcarrierGrid(count=subcarriers),
        noise=NoiseSpec(variance=noise_variance, seed=mix_seeds(seed, 0x6E6F69)),
        wall_attenuation_db=wall_attenuation_db,
        dynamic_path_count=dynamic_path_count,
        packets_per_second=packets_per_second,
        duration_s=duration_s,
    )


def default_profiles(count: int, seed: int = 0) -> list[SubjectProfile]:
    """Well-separated subject pool: spread cadences, distinct harmonic mixes."""
    if count < 1:
        raise ValueError("count must be >= 1")
    templates = [
        (0.90, 0.15, 0.05),  # smooth single-bump stride
        (0.50, 0.50, 0.10),  # pronounced double support
        (0.70, 0.10, 0.40),  # strong third harmonic
        (0.40, 0.30, 0.30),  # flat harmonic mix
    ]
    profiles = []
    for i in range(count):
        rng = np.random.default_rng(mix_seeds(seed, 0x70726F66, i))
        cadence = 1.0 if count == 1 else 0.8 + 0.4 * i / (count - 1)
        weights = [w + rng.uniform(-0.04, 0.04) for w in templates[i % len(templates)]]
        profiles.append(SubjectProfile(
            subject_id=i,
            cadence_hz=cadence + rng.uniform(-0.02, 0.02),
            torso_amp=1.0 + rng.uniform(-0.15, 0.15),
            limb_amp=0.55 + rng.uniform(-0.1, 0.1),
            harmonic_weights=tuple(weights),
            signature_seed=mix_seeds(seed, 0x736967, i),
        ))
    return profiles
