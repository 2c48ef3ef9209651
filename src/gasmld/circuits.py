"""Threshold-search operators on top of the statevector engine.

A shifted cost polynomial over key bits is written into the phases of a value
register (one controlled rotation ladder per monomial), the inverse QFT turns
those phases into a binary cost readout, and the sign bit of that readout
drives the oracle.  The search iteration runs as a reflection about the
prepared state A|0>.  Negative values rely on two's-complement wraparound of
the readout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qcore
from .qcore import Statevector

# Brute-force validation of the value-register range is exact up to this key size.
_RANGE_CHECK_MAX_N = 20


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
        patterns = bit_patterns(self.n)
        return (
            np.einsum("ki,ij,kj->k", patterns, self.quadratic, patterns)
            + patterns @ self.linear
            + self.constant
        )

    def is_integer(self, tol: float = 1e-9) -> bool:
        coeffs = np.concatenate(([self.constant], self.linear, self.quadratic.ravel()))
        return bool(np.all(np.abs(coeffs - np.round(coeffs)) <= tol))


def bit_patterns(n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """(stop - start, n) array of bit vectors; row k holds the bits of the
    integer start + k.  The default range covers all 2^n patterns."""
    values = np.arange(start, (1 << n) if stop is None else stop)
    return ((values[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int8)


@dataclass
class GasCircuitSpec:
    """Geometry of one search circuit: n key qubits, m value qubits, and the
    shifted cost polynomial encoded on the value register."""

    n: int
    m: int
    poly: PhasePolynomial
    _validated: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one key qubit")
        if self.m < 2:
            raise ValueError("value register needs at least 2 qubits (sign + magnitude)")
        if self.poly.n != self.n:
            raise ValueError("polynomial size does not match n")

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

    def validate_range(self) -> None:
        """For integer polynomials, check every value fits the signed readout.

        A value outside [-2^{m-1}, 2^{m-1}) would alias onto the wrong sign,
        so this is rejected outright.  Exhaustive up to n = 20 keys; real
        (non-integer) polynomials are the caller's job to pre-scale.
        """
        if self._validated or not self.poly.is_integer():
            return
        if self.n > _RANGE_CHECK_MAX_N:
            return
        values = self.poly.evaluate_all()
        half = 1 << (self.m - 1)
        if values.min() < -half or values.max() >= half:
            raise ValueError(
                f"polynomial range [{values.min()}, {values.max()}] exceeds the "
                f"signed capacity [-{half}, {half}) of {self.m} value qubits"
            )
        self._validated = True


def _monomials(spec: GasCircuitSpec):
    """Yield (coefficient, key-qubit list) with zero coefficients dropped."""
    poly = spec.poly
    if poly.constant != 0.0:
        yield poly.constant, []
    for i in range(spec.n):
        if poly.linear[i] != 0.0:
            yield float(poly.linear[i]), [i]
    rows, cols = np.nonzero(poly.quadratic)
    for i, j in zip(rows, cols):
        yield float(poly.quadratic[i, j]), [int(i), int(j)]


def apply_value_encoding(state: Statevector, spec: GasCircuitSpec, invert: bool = False) -> Statevector:
    """Write e^{i 2 pi j E(b) / 2^m} onto every |b>|j> branch.

    Expects the value register already in uniform superposition.  Each
    monomial becomes a ladder of m controlled rotations with doubling angles;
    value qubit t (weight 2^t) receives 2^t times the base angle.
    """
    spec.validate_range()
    sign = -1.0 if invert else 1.0
    for coeff, keys in _monomials(spec):
        # base angle 2 pi a / 2^m, deliberately not reduced mod 2 pi; the
        # complex exponential in the gate application takes care of that
        base = sign * (2.0 * np.pi * coeff / (1 << spec.m))
        for t in range(spec.m):
            qcore.apply_controlled_phase(state, keys, spec.n + t, base * (1 << t))
    return state


def apply_state_preparation(state: Statevector, spec: GasCircuitSpec) -> Statevector:
    """A: Hadamards everywhere, phase-encode the cost, IQFT the value register."""
    qcore.hadamard_all(state)
    apply_value_encoding(state, spec)
    qcore.apply_iqft(state, spec.value_register)
    return state


def apply_state_preparation_inverse(state: Statevector, spec: GasCircuitSpec) -> Statevector:
    """Exact inverse of apply_state_preparation."""
    qcore.apply_qft(state, spec.value_register)
    apply_value_encoding(state, spec, invert=True)
    qcore.hadamard_all(state)
    return state


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
