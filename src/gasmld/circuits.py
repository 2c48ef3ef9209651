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
the key is marked.  ``fejer_upper_mass`` evaluates that for every key at once
in O(W) work per key, W = 16, whatever m, with no per-bin row: it sums the
kernel's csc^2 form over the 2W + 1 bins nearest the key's pole one by one,
and the two smooth tails of the half-band by the Euler-Maclaurin formula.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qcore
from .qcore import Statevector

_EXP_SPLIT = 64  # width of the smaller table in _exp_tables
_WINDOW = 16  # W: bins summed term by term on each side of a key's pole in fejer_upper_mass
_WINDOW_KEYS = 256  # keys per block in fejer_upper_mass: bounds its (keys, 2W + 1) temporaries


@dataclass(eq=False)
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
def _band_window(m: int):
    """Cached terms of ``fejer_upper_mass`` at M = 2^m: the window offsets j
    in [-lo, hi] with sin(pi j / M) and cos(pi j / M), read-only as the cache
    shares them, and the coefficients of Q(c) = c (q1 + q3 c^2 + q5 c^4 + q7 c^6).

    The window holds 2W + 1 bins, or all M when M < 2W + 2, each once.  Q is
    the antiderivative -c / h of csc^2 with c = cot(h t) and h = pi / M, plus
    the midpoint Euler-Maclaurin corrections -(1/24) h g' + (7/5760) h^3 g'''
    - (31/967680) h^5 g^(5), each derivative of g = 1 + c^2 written in c.
    """
    M = 1 << m
    lo, hi = min(_WINDOW, M // 2), min(_WINDOW, M // 2 - 1)
    j = np.arange(-lo, hi + 1)[:, None]
    h = np.pi / M
    sin_j, cos_j = np.sin(h * j), np.cos(h * j)
    for table in (j, sin_j, cos_j):
        table.flags.writeable = False
    poly = (527 * h**5 / 60480 - 7 * h**3 / 360 + h / 12 - 1 / h,
            341 * h**5 / 8640 - 7 * h**3 / 144 + h / 12,
            31 * h**5 / 576 - 7 * h**3 / 240,
            31 * h**5 / 1344)
    return j, sin_j, cos_j, poly, lo, hi


def fejer_upper_mass(a: np.ndarray, m: int) -> np.ndarray:
    """Mass of ``fejer_distribution(2 pi a_b / 2^m, m)`` on the bins l >= 2^m / 2,
    for every a_b of the 1-D array ``a``: the chance that key b reads negative.

    Bin l of the readout is sin^2(pi a) / (M sin(pi (l - a) / M))^2 with
    M = 2^m, so the mass is

        f(a) = sin^2(pi a) / M^2 * sum_{l = M/2}^{M-1} csc^2(pi (l - a) / M),

    summed here in O(W) per key with W = 16, whatever m.  The key is reduced
    exactly: with n = rint(a) and delta = a - n, bin l contributes
    csc^2(pi (j - delta) / M) for the integer j = l - n, whose pole is
    j = 0 (mod M), and sin^2(pi a) = sin^2(pi delta).  The band bins with
    j in [-W, W] are summed term by term, their sines built by angle addition
    from cached sin and cos of pi j / M.  The rest of the band is at most two
    runs of bins, each at least W from every pole; a run p..q sums by the
    midpoint Euler-Maclaurin formula to Q(q + 1/2) - Q(p - 1/2), with Q the
    odd polynomial in cot of ``_band_window``.  Its truncation error stays
    below 1e-13 for every m; an empty run reads Q twice at one point, away
    from every pole, and cancels exactly.  When M < 2W + 2 the window holds
    every bin and both runs are empty.  Keys go in blocks of
    ``_WINDOW_KEYS`` to bound the temporaries, and the result is clipped to
    [0, 1], which rounding leaves by about 1e-16 at a bin.
    """
    a = np.asarray(a, dtype=float)
    mass = np.empty(a.shape[0])
    for start in range(0, a.shape[0], _WINDOW_KEYS):
        mass[start:start + _WINDOW_KEYS] = _block_mass(a[start:start + _WINDOW_KEYS], m)
    return np.clip(mass, 0.0, 1.0, out=mass)


def _block_mass(key: np.ndarray, m: int) -> np.ndarray:
    """``fejer_upper_mass`` of one block of keys, unclipped; its temporaries
    are freed on return."""
    M = 1 << m
    j, sin_j, cos_j, (q1, q3, q5, q7), lo, hi = _band_window(m)
    n = np.rint(key)
    delta = key - n
    # the band's first bin, counted from bin n: it runs to s + M/2 - 1
    s = (M // 2 - n.astype(np.int64)) & (M - 1)
    step = delta * (np.pi / M)
    sin_d, cos_d = np.sin(step), np.cos(step)
    pre = np.sin(np.pi * delta) / M
    # window bin j lies in the band iff (j - s) mod M < M/2, a clear bit m - 1
    inside = ((j - s) & (M // 2)) == 0
    sines = sin_j * cos_d  # sin(pi (j - delta) / M) at [j, key]
    ratio = cos_j * sin_d
    sines -= ratio
    # bin n itself at delta = 0 is 0/0, with limit 1
    np.copyto(ratio, inside)
    np.divide(pre, sines, out=ratio, where=inside & (sines != 0.0))
    window = np.einsum("jk,jk->k", ratio, ratio)
    # the runs [max(s, hi + 1), min(e, M - lo - 1)] and [M + hi + 1, e]
    # with e = s + M/2 - 1, by their half-integer ends
    ends = np.empty((4, key.shape[0]))
    np.maximum(s - 0.5, hi + 0.5, out=ends[0])
    np.minimum(s + (M / 2 - 0.5), M - lo - 0.5, out=ends[1])
    np.maximum(ends[1], ends[0], out=ends[1])
    ends[2] = M + hi + 0.5
    np.maximum(s + (M / 2 - 0.5), M + hi + 0.5, out=ends[3])
    ends -= delta
    ends *= np.pi / M
    # cos / sin, not 1 / tan: np.tan's code pages added 0.15 MiB to a fig2 sweep's peak RSS
    cot = np.cos(ends)
    cot /= np.sin(ends)
    sq = cot * cot
    poly = ((q7 * sq + q5) * sq + q3) * sq + q1
    poly *= cot
    tails = (poly[1] - poly[0]) + (poly[3] - poly[2])
    return window + pre * pre * tails
