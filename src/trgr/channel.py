"""Multipath channel model for a Tx -> (wall / transmissive RIS) -> Rx link.

The channel impulse response is a tapped delay line

    h(tau) = sum_m a_m e^{j phi_m} delta(tau - tau_m)            (direct taps)
           + sum_n a_n b_n e^{j(phi_n + theta_n)} delta(tau - tau_n)   (RIS taps)

where theta_n is the 1-bit phase shift applied by RIS element n and the
amplitude shift b_n is fixed at 1.  The narrowband effective gain h Phi H
and the SNR rho = |h Phi H|^2 / sigma^2 use the same per-element channels
without the delay terms.

All operations are pure functions of immutable inputs, so everything here is
safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, phase_matrix

TWO_PI = 2.0 * math.pi
CENTER_FREQUENCY_HZ = 5.8e9
BANDWIDTH_HZ = 160e6


@dataclass(frozen=True, eq=False)
class Taps:
    """Taps of the impulse response as three equal-length read-only arrays.

    Amplitudes and delays must be finite and >= 0; phases are wrapped into
    [0, 2*pi).  An empty Taps (three zero-length arrays) is a valid channel.
    """

    amplitude: np.ndarray
    phase: np.ndarray
    delay: np.ndarray

    def __post_init__(self):
        amp, phase, delay = (np.array(v, dtype=np.float64)
                             for v in (self.amplitude, self.phase, self.delay))
        if amp.ndim != 1 or not amp.shape == phase.shape == delay.shape:
            raise ValueError(f"tap fields must be 1-D with equal length, got "
                             f"{amp.shape}, {phase.shape}, {delay.shape}")
        if not (np.all(np.isfinite(amp)) and np.all(np.isfinite(phase))
                and np.all(np.isfinite(delay))):
            raise ValueError("tap fields must be finite")
        if np.any(amp < 0):
            raise ValueError(f"tap amplitudes must be >= 0, got {amp.min()}")
        if np.any(delay < 0):
            raise ValueError(f"tap delays must be >= 0, got {delay.min()}")
        phase = np.fmod(phase, TWO_PI)
        phase[phase < 0.0] += TWO_PI
        for name, val in (("amplitude", amp), ("phase", phase), ("delay", delay)):
            val.flags.writeable = False
            object.__setattr__(self, name, val)


@dataclass(frozen=True, eq=False)
class RisChannel:
    """Per-element channels through an N-element transmissive RIS.

    tx_to_ris[n] and ris_to_rx[n] are the complex gains of element n on the
    Tx side and Rx side; path_delays[n] is the total Tx->element->Rx delay.
    The per-element amplitude shift is fixed at 1.  Each field is stored as a
    read-only copy.
    """

    tx_to_ris: np.ndarray
    ris_to_rx: np.ndarray
    path_delays: np.ndarray

    def __post_init__(self):
        h_in = np.array(self.tx_to_ris, dtype=np.complex128)
        h_out = np.array(self.ris_to_rx, dtype=np.complex128)
        delays = np.array(self.path_delays, dtype=np.float64)
        if not (h_in.shape == h_out.shape == delays.shape) or h_in.ndim != 1:
            raise ValueError(
                f"tx_to_ris, ris_to_rx and path_delays must be 1-D with equal length, got "
                f"{h_in.shape}, {h_out.shape}, {delays.shape}"
            )
        if not (np.all(np.isfinite(h_in)) and np.all(np.isfinite(h_out))):
            raise ValueError("element gains must be finite")
        if np.any(delays < 0) or not np.all(np.isfinite(delays)):
            raise ValueError("path delays must be finite and >= 0")
        for name, val in (("tx_to_ris", h_in), ("ris_to_rx", h_out), ("path_delays", delays)):
            val.flags.writeable = False
            object.__setattr__(self, name, val)

    @property
    def n_elements(self) -> int:
        return self.tx_to_ris.shape[0]

    @classmethod
    def empty(cls) -> "RisChannel":
        return cls(np.zeros(0, dtype=np.complex128), np.zeros(0, dtype=np.complex128), np.zeros(0))


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean circular complex AWGN with total variance sigma^2."""

    variance: float
    seed: int = 0

    def __post_init__(self):
        if self.variance < 0 or not math.isfinite(self.variance):
            raise ValueError(f"noise variance must be finite and >= 0, got {self.variance}")


@dataclass(frozen=True)
class SubcarrierGrid:
    """Uniform grid of S subcarriers spanning CENTER_FREQUENCY_HZ +/- BANDWIDTH_HZ/2."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("subcarrier count must be >= 1")

    def frequencies(self) -> np.ndarray:
        """Subcarrier k sits at center - bw/2 + k*bw/(S-1); a lone subcarrier sits at center."""
        if self.count == 1:
            return np.array([CENTER_FREQUENCY_HZ])
        k = np.arange(self.count, dtype=np.float64)
        return CENTER_FREQUENCY_HZ - BANDWIDTH_HZ / 2.0 + k * BANDWIDTH_HZ / (self.count - 1)


def _fitted_phases(ris: RisChannel, codebook: Codebook) -> np.ndarray:
    """theta_n of the codebook, which must have one bit per element of the surface."""
    thetas = phase_matrix(codebook)
    if thetas.shape[0] != ris.n_elements:
        raise ValueError(f"codebook has {thetas.shape[0]} elements, RIS channel has {ris.n_elements}")
    return thetas


def combined_taps(direct: Taps, ris: RisChannel, codebook: Codebook) -> Taps:
    """Direct taps followed by one tap per RIS element under the given codebook.

    RIS tap n has amplitude |tx_to_ris[n]| * |ris_to_rx[n]|, phase
    arg(tx_to_ris[n]) + arg(ris_to_rx[n]) + theta_n (mod 2*pi) and delay
    path_delays[n].
    """
    thetas = _fitted_phases(ris, codebook)
    return Taps(
        np.concatenate([direct.amplitude, np.abs(ris.tx_to_ris) * np.abs(ris.ris_to_rx)]),
        np.concatenate([direct.phase, np.angle(ris.tx_to_ris) + np.angle(ris.ris_to_rx) + thetas]),
        np.concatenate([direct.delay, ris.path_delays]),
    )


def frequency_response(taps: Taps, grid: SubcarrierGrid) -> np.ndarray:
    """Per-subcarrier response H[k] = sum_i a_i e^{j phi_i} e^{-j 2 pi f_k tau_i}."""
    gains = taps.amplitude * np.exp(1j * taps.phase)
    resp = gains @ np.exp(-1j * TWO_PI * np.outer(taps.delay, grid.frequencies()))
    if not np.all(np.isfinite(resp)):
        raise ValueError("non-finite frequency response")
    return resp


def effective_gain(ris: RisChannel, codebook: Codebook) -> complex:
    """Narrowband effective channel h Phi H = sum_n ris_to_rx[n] e^{j theta_n} tx_to_ris[n]."""
    thetas = _fitted_phases(ris, codebook)
    return complex(np.sum(ris.ris_to_rx * np.exp(1j * thetas) * ris.tx_to_ris))


def snr(ris: RisChannel, codebook: Codebook, noise: NoiseSpec) -> float:
    """rho = |h Phi H|^2 / sigma^2."""
    if noise.variance == 0:
        raise ValueError("SNR is undefined for zero noise variance")
    return abs(effective_gain(ris, codebook)) ** 2 / noise.variance
