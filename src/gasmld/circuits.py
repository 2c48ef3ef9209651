"""Threshold-search operators on top of the statevector engine.

The value register estimates the phase of each key's shifted cost a_b, so
the prepared state A|0> holds, on every key branch, the inverse QFT of the
phase ramp e^{2 pi i j a_b / 2^m}; it is written in closed form by one FFT
of the cost table, and the sign bit of the readout drives the oracle.  The
search iteration runs as a reflection about A|0>.  Negative values rely on
two's-complement wraparound of the readout.  ``tests/oracles.py`` keeps the
gate-built preparation (Hadamards, controlled phases, inverse QFT) as the
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qcore
from .qcore import Statevector


def bit_patterns(n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """(stop - start, n) array of bit vectors; row k holds the bits of the
    integer start + k.  The default range covers all 2^n patterns."""
    values = np.arange(start, (1 << n) if stop is None else stop)
    return ((values[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int8)


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

    @property
    def value_register(self) -> list[int]:
        return list(range(self.n, self.n + self.m))

    @property
    def sign_qubit(self) -> int:
        # MSB of the value register, the two's-complement sign bit
        return self.n + self.m - 1


def _value_table(state: Statevector, spec: GasCircuitSpec) -> np.ndarray:
    """The amplitudes as a (2^m, 2^n) view: index = key + 2^n * value."""
    if state.num_qubits != spec.total_qubits:
        raise ValueError("state size does not match the circuit spec")
    return state.amps.reshape(1 << spec.m, 1 << spec.n)


def _phase_ramp(spec: GasCircuitSpec, out: np.ndarray, sign: float) -> np.ndarray:
    """e^{sign 2 pi i j a_b / 2^m} at [j, b], written into ``out``."""
    M = 1 << spec.m
    np.multiply.outer(np.arange(M) * (sign * 2j * np.pi / M), spec.values, out=out)
    return np.exp(out, out=out)


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


def conditional_value_distributions(state: Statevector, spec: GasCircuitSpec) -> np.ndarray:
    """(2^n, 2^m) array: row b is the value-register distribution given key b.

    Rows with (numerically) zero key probability are returned as zeros.
    """
    joint = np.abs(state.amps) ** 2
    # index = key + 2^n * value, so a (2^m, 2^n) reshape puts value on axis 0
    table = joint.reshape(1 << spec.m, 1 << spec.n).T.copy()
    totals = table.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0.0, totals, 1.0)
    return np.where(totals > 0.0, table / safe, 0.0)
