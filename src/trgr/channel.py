"""Multipath channel model for a Tx -> (wall / transmissive RIS) -> Rx link.

The channel impulse response is a tapped delay line of complex tap gains
g = a e^{j phi}:

    h(tau) = sum_m g_m delta(tau - tau_m)                                  (direct taps)
           + sum_n ris_to_rx[n] e^{j theta_n} tx_to_ris[n] delta(tau - tau_n)  (RIS taps)

where theta_n is the 1-bit phase shift applied by RIS element n and the
amplitude shift is fixed at 1.  One cascade computes the RIS tap gains; the
narrowband effective gain h Phi H is their sum, and the SNR is
rho = |h Phi H|^2 / sigma^2.

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
    """Taps of the impulse response as two equal-length read-only arrays:
    complex gains and delays.

    Gains must be finite and delays finite and >= 0.  An empty Taps (two
    zero-length arrays) is a valid channel.
    """

    gain: np.ndarray
    delay: np.ndarray

    def __post_init__(self):
        gain = np.array(self.gain, dtype=np.complex128)
        delay = np.array(self.delay, dtype=np.float64)
        if gain.ndim != 1 or gain.shape != delay.shape:
            raise ValueError(f"tap fields must be 1-D with equal length, got "
                             f"{gain.shape}, {delay.shape}")
        if not (np.all(np.isfinite(gain)) and np.all(np.isfinite(delay))):
            raise ValueError("tap fields must be finite")
        if np.any(delay < 0):
            raise ValueError(f"tap delays must be >= 0, got {delay.min()}")
        for name, val in (("gain", gain), ("delay", delay)):
            val.flags.writeable = False
            object.__setattr__(self, name, val)

    def __reduce__(self):  # copies and unpickled values are rebuilt, so checked and read-only
        return type(self), (self.gain, self.delay)


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

    def __reduce__(self):  # copies and unpickled values are rebuilt, so checked and read-only
        return type(self), (self.tx_to_ris, self.ris_to_rx, self.path_delays)

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


def _cascade(ris: RisChannel, codebook: Codebook) -> np.ndarray:
    """Per-element gains ris_to_rx[n] e^{j theta_n} tx_to_ris[n]; the codebook
    must have one bit per element of the surface."""
    thetas = phase_matrix(codebook)
    if thetas.shape[0] != ris.n_elements:
        raise ValueError(f"codebook has {thetas.shape[0]} elements, RIS channel has {ris.n_elements}")
    return ris.ris_to_rx * np.exp(1j * thetas) * ris.tx_to_ris


def combined_taps(direct: Taps, ris: RisChannel, codebook: Codebook) -> Taps:
    """Direct taps followed by one tap per RIS element under the given codebook,
    with the element's cascade gain and delay path_delays[n]."""
    return Taps(np.concatenate([direct.gain, _cascade(ris, codebook)]),
                np.concatenate([direct.delay, ris.path_delays]))


def frequency_response(taps: Taps, grid: SubcarrierGrid) -> np.ndarray:
    """Per-subcarrier response H[k] = sum_i g_i e^{-j 2 pi f_k tau_i}."""
    resp = taps.gain @ np.exp(-1j * TWO_PI * np.outer(taps.delay, grid.frequencies()))
    if not np.all(np.isfinite(resp)):
        raise ValueError("non-finite frequency response")
    return resp


def effective_gain(ris: RisChannel, codebook: Codebook) -> complex:
    """Narrowband effective channel h Phi H = sum_n ris_to_rx[n] e^{j theta_n} tx_to_ris[n]."""
    return complex(np.sum(_cascade(ris, codebook)))


def snr(ris: RisChannel, codebook: Codebook, noise: NoiseSpec) -> float:
    """rho = |h Phi H|^2 / sigma^2."""
    if noise.variance == 0:
        raise ValueError("SNR is undefined for zero noise variance")
    rho = abs(effective_gain(ris, codebook)) ** 2 / noise.variance
    if not math.isfinite(rho):
        raise ValueError(f"SNR |g|^2/sigma^2 is not finite at noise variance {noise.variance:g}")
    return rho
