"""Threshold-search operators on top of the statevector engine.

The value register estimates the phase of each key's shifted cost a_b, so
the prepared state A|0> holds, on every key branch, the inverse QFT of the
phase ramp e^{2 pi i j a_b / 2^m}; it is written in closed form by one FFT
of the ramp, which is built as the product of two small exponential tables,
and the sign bit of the readout drives the oracle.  The search iteration
runs as a reflection about A|0>.  Negative values rely on two's-complement
wraparound of the readout.  ``tests/oracles.py`` keeps the gate-built
preparation (Hadamards, controlled phases, inverse QFT) as the reference.

The readout of one key is a Fejer kernel (``fejer_distribution``), and the
analytic engine needs only its mass on the negative half, the chance that
the key is marked: ``fejer_upper_mass`` evaluates that for every key at once
as a trigonometric polynomial with cached coefficients, with no per-bin row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qcore
from .qcore import Statevector

_EXP_SPLIT = 64  # width of the smaller table in _exp_tables
_MASS_CHUNK = 64  # keys per contraction in fejer_upper_mass: bounds its temporaries


@dataclass
class GasCircuitSpec:
    """Geometry of one search circuit: n key qubits, m value qubits, and
    ``values[b]``, the shifted cost of key b that the value register reads."""

    n: int
    m: int
    values: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one key qubit")
        if self.m < 2:
            raise ValueError("value register needs at least 2 qubits (sign + magnitude)")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (1 << self.n,):
            raise ValueError("need one shifted cost per key")

    @property
    def total_qubits(self) -> int:
        return self.n + self.m

    @property
    def key_register(self) -> list[int]:
        return list(range(self.n))


def _value_table(state: Statevector, spec: GasCircuitSpec) -> np.ndarray:
    """The amplitudes as a (2^m, 2^n) view: index = key + 2^n * value."""
    if state.num_qubits != spec.total_qubits:
        raise ValueError("state size does not match the circuit spec")
    return state.amps.reshape(1 << spec.m, 1 << spec.n)


def _cis(phase: np.ndarray) -> np.ndarray:
    """e^{i phase} by np.cos and np.sin, which run as fast as a complex np.exp;
    that exp, with np.tan, added about 0.2 MiB to a fig2 sweep's peak RSS."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _exp_tables(step: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """e^{i step_b j} for every j < size, as two small tables.

    With V = min(64, size) and j = V u + v, the entry is high[b, u] * low[b, v]:
    ``high`` is (len(step), size / V) and ``low`` is (len(step), V), so only
    size / V + V exponentials run per step instead of size.  ``size`` is a
    power of two.
    """
    V = min(_EXP_SPLIT, size)
    return (_cis(np.multiply.outer(step, np.arange(0, size, V))),
            _cis(np.multiply.outer(step, np.arange(V))))


def _phase_ramp(spec: GasCircuitSpec, out: np.ndarray, sign: float) -> np.ndarray:
    """e^{sign 2 pi i j a_b / 2^m} at [j, b], written into ``out`` as the
    product of the two small tables of ``_exp_tables``."""
    M = 1 << spec.m
    high, low = _exp_tables(spec.values * (sign * 2.0 * np.pi / M), M)
    # out is C-contiguous, so the split j = V u + v is a view of it
    np.multiply(high.T[:, None, :], low.T[None, :, :],
                out=out.reshape(high.shape[1], low.shape[1], out.shape[1]))
    return out


def apply_state_preparation(state: Statevector, spec: GasCircuitSpec) -> Statevector:
    """A|0>: key b, value l holds fft_j(e^{2 pi i j a_b / M})[l] / (M sqrt(2^n)).

    This is Hadamards everywhere, the phase e^{2 pi i j a_b / M} on every
    |b>|j>, then the inverse QFT of the value register, in closed form.  The
    ramp is built in the state's own buffer, so the FFT output is the only
    state-sized temporary.  Only |0...0> is accepted as input.
    """
    table = _value_table(state, spec)
    if state.amps[0] != 1.0 or np.any(state.amps[1:]):
        raise ValueError("state preparation expects the input |0...0>")
    spectrum = np.fft.fft(_phase_ramp(spec, table, 1.0), axis=0)
    np.multiply(spectrum, 1.0 / ((1 << spec.m) * np.sqrt(1 << spec.n)), out=table)
    return state


def apply_state_preparation_inverse(state: Statevector, spec: GasCircuitSpec) -> Statevector:
    """A^dagger on any state: the value-register QFT (by FFT), the conjugate
    cost phases, then Hadamards everywhere."""
    table = _value_table(state, spec)
    # the QFT's e^{+2 pi i u j / M} / sqrt(M) is sqrt(M) times numpy's ifft
    spectrum = np.fft.ifft(table, axis=0)
    _phase_ramp(spec, table, -1.0)
    table *= spectrum
    table *= np.sqrt(1 << spec.m)
    return qcore.hadamard_all(state)


def grover_power(state: Statevector, spec: GasCircuitSpec, power: int,
                 axis: np.ndarray | None = None) -> Statevector:
    """Apply (A D A^dagger O)^power in place, as reflections about A|0>.

    With D = 2|0><0| - I, the conjugated diffusion is A D A^dagger =
    2|psi><psi| - I for psi = A|0>, and the oracle O phase-flips the
    branches whose sign qubit, the MSB of the index, is 1.  One iteration
    is therefore F = -O (flip the sign of the lower half of the amplitudes)
    followed by the Householder reflection I - 2|psi><psi|, with no gates:
    one inner product with psi and one axpy.

    ``axis`` holds the amplitudes of psi, kept apart from the state that is
    overwritten.  Without it the input state is taken to be A|0> and copied
    as the axis.
    """
    if power < 0:
        raise ValueError("power must be non-negative")
    if state.num_qubits != spec.total_qubits:
        raise ValueError("state size does not match the circuit spec")
    if power == 0:
        return state
    amps = state.amps
    if axis is None:
        axis = amps.copy()
    elif axis.shape != amps.shape:
        raise ValueError("reflection axis size does not match the state")
    elif np.may_share_memory(axis, amps):
        raise ValueError("reflection axis must not share memory with the state")
    half = amps.shape[0] // 2
    scratch = np.empty_like(amps)  # reused: a fresh temporary per iteration costs twice the time
    for _ in range(power):
        amps[:half] *= -1.0
        # <psi|amps> summed by numpy rather than np.vdot, whose OpenBLAS
        # threads doubled the CPU time on a 2-core host and ran 15-25x slower
        # while another process kept the second core busy
        np.conjugate(amps, out=scratch)
        scratch *= axis
        overlap = np.conj(scratch.sum())
        np.multiply(axis, 2.0 * overlap, out=scratch)
        amps -= scratch
    return state


def fejer_distribution(theta: float, m: int) -> np.ndarray:
    """Value-register distribution produced by phase angle ``theta``.

    Closed form of |<g(2 pi l / 2^m), g(theta)>|^2 with
    g(phi) = [1, e^{i phi}, ..., e^{i (M-1) phi}]/sqrt(M): a Fejer kernel
    sampled on the M bins.  Integer multiples of 2 pi / 2^m give an exact
    point mass.
    """
    M = 1 << m
    delta = theta - 2.0 * np.pi * np.arange(M) / M
    half = 0.5 * delta
    denom = np.sin(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(M * half) / (M * denom)
    # the removable singularity at delta = 0 (mod 2 pi) has limit 1; the loose
    # atol only ever fires within ~1e-17 of that limit, so it is lossless
    on_bin = np.abs(denom) < 1e-12
    ratio = np.where(on_bin, 1.0, ratio)
    return ratio**2


@functools.lru_cache(maxsize=None)
def _upper_mass_coefficients(m: int) -> np.ndarray:
    """(2/M^2)(M - d)(1 - i cot(pi d / M)) for the odd d = 1 + 2(V u + v) < M,
    at [u, v] with V = min(64, M/2); read-only, as the cache shares it."""
    M = 1 << m
    d = 1.0 + 2.0 * np.arange(M // 2)
    angle = np.pi * d / M
    coeffs = (2.0 / M**2) * (M - d) * (1.0 - 1j * np.cos(angle) / np.sin(angle))
    coeffs = coeffs.reshape(-1, min(_EXP_SPLIT, M // 2))
    coeffs.flags.writeable = False
    return coeffs


def fejer_upper_mass(a: np.ndarray, m: int) -> np.ndarray:
    """Mass of ``fejer_distribution(2 pi a_b / 2^m, m)`` on the bins l >= 2^m / 2,
    for every a_b of the 1-D array ``a``: the chance that key b reads negative.

    Summing the Fejer kernel over the upper half-band cancels every even
    frequency but 0, which leaves, with M = 2^m and theta = 2 pi a / M,

        f(a) = 1/2 - (2/M^2) Re sum_{odd d < M} (M - d)(1 - i cot(pi d / M)) e^{i d theta}.

    The coefficients are cached per m.  With d = 1 + 2(V u + v), each key
    needs only the two small tables of ``_exp_tables`` for the step 2 theta,
    and the sum is one contraction against the coefficients, run with plain
    ``np.einsum`` (a BLAS product would start threads) in chunks of
    ``_MASS_CHUNK`` keys to keep the temporaries small.  The result is
    clipped to [0, 1], which rounding leaves by about 1e-16 at a bin.
    """
    a = np.asarray(a, dtype=float)
    M = 1 << m
    coeffs = _upper_mass_coefficients(m)
    theta = a * (2.0 * np.pi / M)
    odd_sum = np.empty(a.shape[0])
    for start in range(0, a.shape[0], _MASS_CHUNK):
        chunk = theta[start:start + _MASS_CHUNK]
        high, low = _exp_tables(2.0 * chunk, M // 2)
        inner = np.einsum("uv,bv->bu", coeffs, low)
        # each d = 1 + 2k carries one e^{i theta} beyond the tables' e^{2 i theta k}
        total = _cis(chunk) * np.einsum("bu,bu->b", inner, high)
        odd_sum[start:start + _MASS_CHUNK] = total.real
    return np.clip(0.5 - odd_sum, 0.0, 1.0)

