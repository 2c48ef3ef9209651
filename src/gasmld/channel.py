"""RIS-assisted frequency-selective channel model.

Each RIS element r sees a cascade h_bi^(r) conv h_iu^(r); the element phases
rotate the cascades so their first taps add coherently, and the sum is the
effective impulse response.  With a cyclic prefix at least as long as that
response, one block obeys y = H x + w with H circulant, which is what every
detector in this package assumes.  R = 0 stands for the no-RIS baseline: a
single Rayleigh direct link with the same total delay spread.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(eq=False)
class RisChannel:
    """Static channel snapshot for one transmission block.

    h_bi, h_iu hold per-element tap vectors (R rows); phases are the unit
    reflection coefficients; h_eff is the aligned effective response.
    """

    R: int
    h_bi: np.ndarray
    h_iu: np.ndarray
    phases: np.ndarray
    h_eff: np.ndarray


def modulate(bits) -> np.ndarray:
    """BPSK: bit 0 -> -1, bit 1 -> +1 (complex baseband)."""
    return (2.0 * np.asarray(bits, dtype=float) - 1.0).astype(complex)


def demodulate(x) -> np.ndarray:
    """Hard decisions on the real part; sign(0) resolves to +1, i.e. bit 1."""
    return (np.real(np.asarray(x)) >= 0).astype(np.int8)


def block_from_bits(bits) -> np.ndarray:
    """The BPSK symbol vector of one block of payload bits, after validation."""
    bits = np.asarray(bits, dtype=np.int8)
    if bits.ndim != 1 or bits.size == 0:
        raise ValueError("bits must be a non-empty vector")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0/1")
    return modulate(bits)


def _cn_taps(shape, tap_variance: float, rng: np.random.Generator) -> np.ndarray:
    scale = np.sqrt(tap_variance / 2.0)
    return rng.normal(scale=scale, size=shape) + 1j * rng.normal(scale=scale, size=shape)


def _cascade(h_bi: np.ndarray, h_iu: np.ndarray) -> np.ndarray:
    """Row-wise linear convolution, exact (no FFT rounding)."""
    R, L_bi = h_bi.shape
    L_iu = h_iu.shape[1]
    out = np.zeros((R, L_bi + L_iu - 1), dtype=complex)
    for k in range(L_bi):
        out[:, k : k + L_iu] += h_bi[:, k : k + 1] * h_iu
    return out


def ris_align(cascades: np.ndarray) -> np.ndarray:
    """Unit phases that cancel each cascade's first-tap argument.

    A cascade whose first tap is exactly zero (probability zero for continuous
    fading) gets phase 1 and a warning, rather than an undefined angle.
    """
    cascades = np.atleast_2d(np.asarray(cascades, dtype=complex))
    first = cascades[:, 0]
    dead = np.abs(first) == 0.0
    if np.any(dead):
        warnings.warn("cascade with zero first tap; using phase 0 for it")
    angles = np.where(dead, 0.0, np.angle(first))
    return np.exp(-1j * angles)


def generate_channel(R: int, L_bi: int, L_iu: int, rng: np.random.Generator) -> RisChannel:
    """Draw one channel realisation.

    Taps are i.i.d. circularly-symmetric complex Gaussian with a uniform power
    profile normalised to unit link energy (variance 1/L per tap).  R >= 1
    gives the aligned RIS cascade sum; R = 0 gives a direct Rayleigh link
    spanning the same L_bi + L_iu - 1 taps.
    """
    if R < 0 or L_bi < 1 or L_iu < 1:
        raise ValueError("need R >= 0 and at least one tap per link")
    L = L_bi + L_iu - 1
    if R == 0:
        h_eff = _cn_taps(L, 1.0 / L, rng)
        return RisChannel(
            R=0,
            h_bi=np.zeros((0, L_bi), dtype=complex),
            h_iu=np.zeros((0, L_iu), dtype=complex),
            phases=np.zeros(0, dtype=complex),
            h_eff=h_eff,
        )
    h_bi = _cn_taps((R, L_bi), 1.0 / L_bi, rng)
    h_iu = _cn_taps((R, L_iu), 1.0 / L_iu, rng)
    cascades = _cascade(h_bi, h_iu)
    phases = ris_align(cascades)
    h_eff = (cascades * phases[:, None]).sum(axis=0)
    return RisChannel(R=R, h_bi=h_bi, h_iu=h_iu, phases=phases, h_eff=h_eff)


def first_column(h, N: int) -> np.ndarray:
    """Each response on the last axis of ``h`` zero-padded to N taps, a
    circulant's first column; N must cover the delay spread."""
    h = np.asarray(h, dtype=complex)
    if h.ndim == 0 or h.shape[-1] == 0:
        raise ValueError("h must hold at least one tap")
    if N < h.shape[-1]:
        raise ValueError(f"block length {N} shorter than the {h.shape[-1]}-tap response")
    padded = np.zeros(h.shape[:-1] + (N,), dtype=complex)
    padded[..., : h.shape[-1]] = h
    return padded


@lru_cache(maxsize=None)
def _lag(N: int) -> np.ndarray:
    """(i - j) mod N at row i, column j, read-only: shared by every size-N circulant."""
    idx = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    idx.flags.writeable = False
    return idx


def circulant_matrix(h, N: int) -> np.ndarray:
    """The (..., N, N) circulant channels whose first columns are the (..., L)
    responses ``h`` zero-padded to N (``first_column``)."""
    return first_column(h, N)[..., _lag(N)]


def transmit(x: np.ndarray, H: np.ndarray, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """y = H x + w with w ~ CN(0, sigma2 I): variance sigma2/2 per quadrature."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be non-negative")
    y = H @ x
    if sigma2 > 0:
        y = y + _cn_taps(x.shape[0], sigma2, rng)
    return y


def snr_db_to_sigma2(snr_db: float) -> float:
    """SNR = 1/sigma2 with unit-energy symbols and unit-power links."""
    return float(10.0 ** (-snr_db / 10.0))
