"""Dense statevector engine.

Holds a full complex128 amplitude vector and applies gates in place through
strided numpy views, so no gate ever materialises a 2^n x 2^n matrix.  Qubit 0
is the least-significant bit of the basis-state index throughout the package.
Measurement is sampling only: the state is never collapsed, callers re-prepare
instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

# 2**26 complex128 amplitudes = 1 GiB; allocation guard, not a physics limit.
MAX_QUBITS = 26


class CapacityError(ValueError):
    """Requested register size exceeds the engine's allocation cap."""


@dataclass(eq=False)
class Statevector:
    """Amplitude vector over ``num_qubits`` qubits.

    The amplitude of |b_{n-1} ... b_1 b_0> sits at index sum_i b_i * 2**i,
    i.e. qubit 0 is the LSB of the index.
    """

    num_qubits: int
    amps: np.ndarray

    def copy(self) -> "Statevector":
        return Statevector(self.num_qubits, self.amps.copy())


def zero_state(num_qubits: int) -> Statevector:
    """Allocate |0...0> on ``num_qubits`` qubits."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise CapacityError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}")
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[0] = 1.0
    return Statevector(num_qubits, amps)


def _check_qubit(q: int, n: int) -> None:
    if not 0 <= q < n:
        raise ValueError(f"qubit index {q} out of range for {n} qubits")


def _check_unitary(gate: np.ndarray) -> None:
    g = np.asarray(gate, dtype=complex)
    if g.shape != (2, 2):
        raise ValueError(f"expected a 2x2 gate, got shape {g.shape}")
    if not np.allclose(g.conj().T @ g, np.eye(2), atol=1e-10):
        raise ValueError("gate is not unitary within 1e-10")


# Read-only and checked once here, so apply_1q can skip the per-call check
# for these two objects; every other gate is checked on every call.
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
HADAMARD = np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _gate in (HADAMARD, PAULI_Z):
    _check_unitary(_gate)
    _gate.setflags(write=False)
del _gate


def apply_1q(state: Statevector, gate: np.ndarray, target: int) -> Statevector:
    """Apply a single-qubit unitary to ``target``, in place."""
    if gate is not HADAMARD and gate is not PAULI_Z:
        _check_unitary(gate)
    _check_qubit(target, state.num_qubits)
    g = np.asarray(gate, dtype=complex)
    # view axes: (high bits, target bit, low bits)
    v = state.amps.reshape(-1, 2, 1 << target)
    lo, hi = v[:, 0, :], v[:, 1, :]
    new_lo = g[0, 0] * lo + g[0, 1] * hi
    v[:, 1, :] = g[1, 0] * lo + g[1, 1] * hi
    v[:, 0, :] = new_lo
    return state


def _axis_select(n: int, ones: set[int]) -> tuple:
    # ndarray axis k addresses qubit n-1-k once amps is reshaped to [2]*n
    return tuple(1 if (n - 1 - ax) in ones else slice(None) for ax in range(n))


def apply_controlled_phase(
    state: Statevector, controls, target: int, theta: float
) -> Statevector:
    """Multiply by e^{i*theta} every basis state with target=1 and all controls=1.

    ``controls`` may be empty, which makes this a plain phase gate on ``target``.
    """
    n = state.num_qubits
    ctrl = set(int(c) for c in controls)
    _check_qubit(target, n)
    for c in ctrl:
        _check_qubit(c, n)
    if target in ctrl:
        raise ValueError("target qubit listed among the controls")
    sel = _axis_select(n, ctrl | {target})
    state.amps.reshape([2] * n)[sel] *= np.exp(1.0j * theta)
    return state


def apply_swap(state: Statevector, qubit1: int, qubit2: int) -> Statevector:
    """Exchange two qubits, in place."""
    n = state.num_qubits
    _check_qubit(qubit1, n)
    _check_qubit(qubit2, n)
    if qubit1 == qubit2:
        return state
    v = state.amps.reshape([2] * n)
    swapped = np.swapaxes(v, n - 1 - qubit1, n - 1 - qubit2)
    state.amps = np.ascontiguousarray(swapped).reshape(-1)
    return state


def hadamard_all(state: Statevector) -> Statevector:
    """Apply H to every qubit."""
    for q in range(state.num_qubits):
        apply_1q(state, HADAMARD, q)
    return state


def _check_register(register, n: int) -> list[int]:
    regs = [int(q) for q in register]
    if not regs:
        raise ValueError("register must contain at least one qubit")
    if len(set(regs)) != len(regs):
        raise ValueError("register contains duplicate qubits")
    for q in regs:
        _check_qubit(q, n)
    return regs


def apply_qft(state: Statevector, register) -> Statevector:
    """Quantum Fourier transform on ``register`` (LSB-first qubit order).

    Maps |u> on the register to (1/sqrt(M)) sum_j e^{+2pi i u j / M} |j>,
    M = 2**len(register).  Built from the standard H / controlled-phase
    ladder followed by the qubit-reversal swaps; cost O(m^2) gates.
    """
    regs = _check_register(register, state.num_qubits)
    m = len(regs)
    for k in range(m - 1, -1, -1):
        apply_1q(state, HADAMARD, regs[k])
        for l in range(k - 1, -1, -1):
            apply_controlled_phase(state, {regs[l]}, regs[k], pi / (1 << (k - l)))
    for t in range(m // 2):
        apply_swap(state, regs[t], regs[m - 1 - t])
    return state


def apply_iqft(state: Statevector, register) -> Statevector:
    """Inverse QFT on ``register``: the exact gate-by-gate inverse of apply_qft."""
    regs = _check_register(register, state.num_qubits)
    m = len(regs)
    for t in range(m // 2):
        apply_swap(state, regs[t], regs[m - 1 - t])
    for k in range(m):
        for l in range(k):
            apply_controlled_phase(state, {regs[l]}, regs[k], -pi / (1 << (k - l)))
        apply_1q(state, HADAMARD, regs[k])
    return state


def register_distribution(state: Statevector, register) -> np.ndarray:
    """Marginal probability over the register's values.

    ``register`` lists qubits LSB-first, so entry v of the result is the
    probability that the register reads the integer v.
    """
    n = state.num_qubits
    regs = _check_register(register, n)
    probs = np.abs(state.amps.reshape([2] * n)) ** 2
    keep = set(regs)
    other_axes = tuple(ax for ax in range(n) if (n - 1 - ax) not in keep)
    marg = probs.sum(axis=other_axes) if other_axes else probs
    # surviving axes run over qubits in descending index order; permute so the
    # register's own MSB comes first and the flattened index equals the value
    current = sorted(regs, reverse=True)
    desired = list(reversed(regs))
    marg = marg.transpose([current.index(q) for q in desired])
    return np.ascontiguousarray(marg).reshape(-1)


def sample_index(cumulative: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Draw one index per row of the stacked running sums ``cumulative``
    ((S, K), each row ``np.cumsum`` of one distribution) with the row's
    uniform in ``u`` (S,): the first index whose running sum exceeds the
    uniform times the row's total, clamped to the last index.  On a
    non-decreasing row, the count of sums at or below that mark is
    ``searchsorted(side="right")``."""
    marks = u * cumulative[:, -1]
    drawn = np.add.reduce(cumulative <= marks[:, None], axis=1)
    return np.minimum(drawn, cumulative.shape[1] - 1)
