"""Detection cost to binary optimization.

The squared residual ||y - H x||^2 over BPSK symbols x in {-1,+1}^N expands
into a real quadratic form, and substituting x = 2b - 1 turns it into a QUBO
over bits.  The conversion preserves the cost of each candidate exactly,
which the tests lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import bit_patterns

BRUTE_FORCE_MAX_N = 24
_CHUNK = 1 << 18


@dataclass
class MldInstance:
    """One detection problem: circulant channel matrix, received block, noise power."""

    H: np.ndarray
    y: np.ndarray
    sigma2: float

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=complex)
        self.y = np.asarray(self.y, dtype=complex)
        N = self.H.shape[0]
        if self.H.shape != (N, N):
            raise ValueError("H must be square")
        if self.y.shape != (N,):
            raise ValueError("y length must match H")
        finite = np.isfinite(np.concatenate((self.H.ravel(), self.y))).all()
        if not (finite and math.isfinite(self.sigma2)):
            raise ValueError("H, y and sigma2 must be finite")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be non-negative")
        # circulant check is exact: row i is row 0 rolled right by i
        lag = (np.arange(N) - np.arange(N)[:, None]) % N
        if not np.array_equal(self.H, self.H[0][lag]):
            raise ValueError("H is not circulant")

    @property
    def N(self) -> int:
        return self.H.shape[0]


@dataclass
class QuboProblem:
    """Cost b^T Q b + c^T b + offset over bits b in {0,1}^n."""

    Q: np.ndarray
    c: np.ndarray
    offset: float

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.shape[0]
        if self.Q.shape != (n, n):
            raise ValueError("Q must be n x n")
        finite = np.isfinite(np.concatenate((self.Q.ravel(), self.c))).all()
        if not (finite and math.isfinite(self.offset)):
            raise ValueError("Q, c and offset must be finite")
        if not np.allclose(self.Q, self.Q.T, atol=0):
            raise ValueError("Q must be symmetric")

    @property
    def n(self) -> int:
        return self.c.shape[0]


def mld_to_qubo(inst: MldInstance) -> QuboProblem:
    """Residual cost over x down to a QUBO over bits.

    Over bipolar x the cost is x^T G x + v^T x + ||y||^2 with G = Re(H^H H)
    and v = -2 Re(H^H y); the imaginary parts of the Hermitian Gram matrix
    cancel against real x, so nothing is lost.  Substituting x = 2b - 1 gives
    Q = 4G, c = 2v - 4 G 1, and the offset picks up the rest.
    """
    G = np.real(inst.H.conj().T @ inst.H)
    v = -2.0 * np.real(inst.H.conj().T @ inst.y)
    const = float(np.real(np.vdot(inst.y, inst.y)))
    ones = np.ones(G.shape[0])
    return QuboProblem(
        Q=4.0 * G,
        c=2.0 * v - 4.0 * (G @ ones),
        offset=float(const + ones @ G @ ones - v @ ones),
    )


def evaluate_cost(q: QuboProblem, bits) -> float:
    """E(b) = b^T Q b + c^T b + offset for one bit vector."""
    b = np.asarray(bits, dtype=float)
    return float(b @ q.Q @ b + q.c @ b + q.offset)


def evaluate_all_costs(q: QuboProblem) -> np.ndarray:
    """Costs for every bit pattern, indexed by the integer sum_i b_i 2^i."""
    if q.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"exhaustive evaluation capped at n = {BRUTE_FORCE_MAX_N}")
    total = 1 << q.n
    out = np.empty(total)
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        B = bit_patterns(q.n, start, stop).astype(float)
        out[start:stop] = np.einsum("ki,ij,kj->k", B, q.Q, B) + B @ q.c + q.offset
    return out


__all__ = [
    "MldInstance",
    "QuboProblem",
    "evaluate_cost",
    "evaluate_all_costs",
    "mld_to_qubo",
]
