"""Independent reference implementations used to check the package.

Everything here is deliberately naive: dense Kronecker-product operators,
explicit DFT matrices, circuits applied gate by gate, exhaustive enumeration.  Slow but obviously correct,
which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gasmld import qcore
from gasmld.circuits import GasCircuitSpec
from gasmld.qubo import QuboProblem, bits_of, evaluate_all_costs

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


@dataclass
class PhasePolynomial:
    """Binary polynomial sum_i<j quad[i,j] b_i b_j + sum_i lin[i] b_i + const.

    ``quadratic`` must be strictly upper triangular; diagonal quadratic terms
    make no sense over bits (b^2 = b) and belong in ``linear``.
    """

    constant: float
    linear: np.ndarray
    quadratic: np.ndarray

    def __post_init__(self):
        self.linear = np.asarray(self.linear, dtype=float)
        self.quadratic = np.asarray(self.quadratic, dtype=float)
        n = self.linear.shape[0]
        if self.quadratic.shape != (n, n):
            raise ValueError("quadratic must be n x n to match linear")
        if np.any(self.quadratic != np.triu(self.quadratic, k=1)):
            raise ValueError("quadratic must be strictly upper triangular")

    @property
    def n(self) -> int:
        return self.linear.shape[0]

    def evaluate_all(self) -> np.ndarray:
        """Values over every bit pattern, indexed by sum_i b_i 2^i."""
        patterns = bits_of(np.arange(1 << self.n), self.n)
        return (
            np.einsum("ki,ij,kj->k", patterns, self.quadratic, patterns)
            + patterns @ self.linear
            + self.constant
        )


def shifted_cost_polynomial(q: QuboProblem, threshold: float) -> PhasePolynomial:
    """E(b) - threshold as a polynomial read off the QUBO's coefficients."""
    return PhasePolynomial(q.offset - threshold, np.diag(q.Q) + q.c, 2.0 * np.triu(q.Q, k=1))


def spec_of(poly: PhasePolynomial, m: int) -> GasCircuitSpec:
    """The circuit spec whose shifted cost table is the polynomial's values."""
    return GasCircuitSpec(poly.n, m, poly.evaluate_all())


def _monomials(poly: PhasePolynomial):
    """Yield (coefficient, key-qubit list) with zero coefficients dropped."""
    if poly.constant != 0.0:
        yield poly.constant, []
    for i in range(poly.n):
        if poly.linear[i] != 0.0:
            yield float(poly.linear[i]), [i]
    rows, cols = np.nonzero(poly.quadratic)
    for i, j in zip(rows, cols):
        yield float(poly.quadratic[i, j]), [int(i), int(j)]


def apply_value_encoding(state, poly: PhasePolynomial, m: int, invert: bool = False):
    """Write e^{i 2 pi j E(b) / 2^m} onto every |b>|j> branch, gate by gate.

    Expects the value register already in uniform superposition.  Each
    monomial becomes a ladder of m controlled rotations with doubling angles;
    value qubit t (weight 2^t) receives 2^t times the base angle.
    """
    sign = -1.0 if invert else 1.0
    for coeff, keys in _monomials(poly):
        # base angle 2 pi a / 2^m, deliberately not reduced mod 2 pi; the
        # complex exponential in the gate application takes care of that
        base = sign * (2.0 * np.pi * coeff / (1 << m))
        for t in range(m):
            qcore.apply_controlled_phase(state, keys, poly.n + t, base * (1 << t))
    return state


def state_preparation_gates(state, poly: PhasePolynomial, m: int):
    """A from gates: Hadamards everywhere, phase-encode the polynomial, IQFT
    the value register; the reference for ``circuits.apply_state_preparation``."""
    qcore.hadamard_all(state)
    apply_value_encoding(state, poly, m)
    qcore.apply_iqft(state, range(poly.n, poly.n + m))
    return state


def state_preparation_inverse_gates(state, poly: PhasePolynomial, m: int):
    """A^dagger from gates, the exact inverse of state_preparation_gates."""
    qcore.apply_qft(state, range(poly.n, poly.n + m))
    apply_value_encoding(state, poly, m, invert=True)
    qcore.hadamard_all(state)
    return state


def apply_oracle(state, sign_qubit: int):
    """Phase-flip branches whose cost readout is negative.

    In two's complement that is exactly the branches whose sign qubit is 1,
    so a single Z gate does the whole job.
    """
    return qcore.apply_1q(state, qcore.PAULI_Z, sign_qubit)


def apply_diffusion(state):
    """Reflect about |0...0> on the full register: 2|0><0| - I.

    Conjugating with the state preparation (A D A^dagger) turns this into the
    reflection about the prepared state.
    """
    state.amps[1:] *= -1.0
    return state


def grover_power_gates(state, poly: PhasePolynomial, m: int, power: int):
    """(A D A^dagger O)^power gate by gate, rightmost operator first: the
    reference for the reflection form of ``circuits.grover_power``."""
    for _ in range(power):
        apply_oracle(state, poly.n + m - 1)
        state_preparation_inverse_gates(state, poly, m)
        apply_diffusion(state)
        state_preparation_gates(state, poly, m)
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


def conditional_value_distributions(state, spec: GasCircuitSpec) -> np.ndarray:
    """(2^n, 2^m) array: row b is the value-register distribution given key b.

    Rows with (numerically) zero key probability are returned as zeros.
    """
    joint = np.abs(state.amps) ** 2
    # index = key + 2^n * value, so a (2^m, 2^n) reshape puts value on axis 0
    table = joint.reshape(1 << spec.m, 1 << spec.n).T.copy()
    totals = table.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0.0, totals, 1.0)
    return np.where(totals > 0.0, table / safe, 0.0)


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
