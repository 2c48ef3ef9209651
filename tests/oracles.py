"""Independent reference implementations used to check the package.

Everything here is deliberately naive: dense Kronecker-product operators,
explicit DFT matrices, exhaustive enumeration.  Slow but obviously correct,
which is the point.
"""

from __future__ import annotations

import numpy as np

from gasmld import qcore
from gasmld.circuits import apply_state_preparation, apply_state_preparation_inverse
from gasmld.qubo import QuboProblem, evaluate_all_costs

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def dense_1q(gate: np.ndarray, target: int, n: int) -> np.ndarray:
    """Full 2^n x 2^n matrix for a single-qubit gate (qubit 0 = index LSB)."""
    op = np.array([[1.0]], dtype=complex)
    for q in range(n - 1, -1, -1):
        factor = np.asarray(gate, dtype=complex) if q == target else np.eye(2)
        op = np.kron(op, factor)
    return op


def dense_controlled_phase(controls, target: int, theta: float, n: int) -> np.ndarray:
    """Diagonal matrix applying e^{i theta} where target and all controls are 1."""
    dim = 1 << n
    need = (1 << target) | sum(1 << c for c in controls)
    diag = np.ones(dim, dtype=complex)
    idx = np.arange(dim)
    diag[(idx & need) == need] = np.exp(1.0j * theta)
    return np.diag(diag)


def dense_qft(m: int) -> np.ndarray:
    """Unitary DFT with positive exponent: F[j, u] = e^{+2pi i j u / M}/sqrt(M)."""
    M = 1 << m
    j, u = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    return np.exp(2.0j * np.pi * j * u / M) / np.sqrt(M)


def embed_on_register(op_small: np.ndarray, register, n: int) -> np.ndarray:
    """Lift an operator on ``register`` (LSB-first qubit list) to n qubits."""
    regs = list(register)
    m = len(regs)
    dim = 1 << n
    op = np.zeros((dim, dim), dtype=complex)
    others = [q for q in range(n) if q not in regs]
    for x in range(dim):
        xv = sum(((x >> q) & 1) << k for k, q in enumerate(regs))
        rest = x & ~sum(1 << q for q in regs)
        for yv in range(1 << m):
            y = rest | sum(((yv >> k) & 1) << q for k, q in enumerate(regs))
            op[y, x] = op_small[yv, xv]
    del others
    return op


def apply_oracle(state, spec):
    """Phase-flip branches whose cost readout is negative.

    In two's complement that is exactly the branches whose sign qubit is 1,
    so a single Z gate does the whole job.
    """
    return qcore.apply_1q(state, qcore.PAULI_Z, spec.sign_qubit)


def apply_diffusion(state):
    """Reflect about |0...0> on the full register: 2|0><0| - I.

    Conjugating with the state preparation (A D A^dagger) turns this into the
    reflection about the prepared state.
    """
    state.amps[1:] *= -1.0
    return state


def grover_power_gates(state, spec, power: int):
    """(A D A^dagger O)^power gate by gate, rightmost operator first: the
    reference for the reflection form of ``circuits.grover_power``."""
    for _ in range(power):
        apply_oracle(state, spec)
        apply_state_preparation_inverse(state, spec)
        apply_diffusion(state)
        apply_state_preparation(state, spec)
    return state


def basis_phase_vector(theta: float, m: int) -> np.ndarray:
    """g(theta) = [1, e^{i theta}, ..., e^{i (M-1) theta}] / sqrt(M)."""
    M = 1 << m
    return np.exp(1.0j * theta * np.arange(M)) / np.sqrt(M)


def value_distribution_reference(theta: float, m: int) -> np.ndarray:
    """Probability over value-register bins l: |<g(2 pi l / M), g(theta)>|^2."""
    M = 1 << m
    g_t = basis_phase_vector(theta, m)
    out = np.empty(M)
    for l in range(M):
        g_l = basis_phase_vector(2.0 * np.pi * l / M, m)
        out[l] = abs(np.vdot(g_l, g_t)) ** 2
    return out


def brute_force_min(q: QuboProblem) -> tuple[np.ndarray, float]:
    """Exhaustive minimum over the QUBO cost table; ties resolve to the
    smallest bit-pattern integer."""
    costs = evaluate_all_costs(q)
    v = int(np.argmin(costs))  # argmin returns the first, i.e. smallest, index
    bits = np.array([(v >> i) & 1 for i in range(q.n)], dtype=np.int8)
    return bits, float(costs[v])


def qfunc(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    from math import erfc, sqrt

    return 0.5 * erfc(x / sqrt(2.0))
