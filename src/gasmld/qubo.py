"""Detection cost to binary optimization.

The squared residual ||y - H x||^2 over BPSK symbols x in {-1,+1}^N expands
into a real quadratic form, and substituting x = 2b - 1 turns it into a QUBO
over bits.  The conversion preserves the cost of each candidate exactly,
which the tests lean on.

The search's cost table and exhaustive detection share one expansion
(``qubo_terms``), one evaluator (``cost_chunks``) and one index codec
(``bits_of``); a stack's offset alone may round a few ulps off one instance's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import circulant_matrix, first_column
from .qcore import CapacityError

BRUTE_FORCE_MAX_N = 24
_CHUNK = 1 << 16  # entries per cost array: bounds every exhaustive pass


@dataclass(eq=False)
class MldInstance:
    """One detection problem: response h (stored zero-padded to N = len(y)),
    block y, noise power sigma2; ``H`` is the circulant with first column h."""

    h: np.ndarray
    y: np.ndarray
    sigma2: float

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=complex)
        if self.y.ndim != 1 or np.ndim(self.h) != 1:
            raise ValueError("h and y must be vectors")
        self.h = first_column(self.h, self.y.shape[0])
        finite = np.isfinite(np.concatenate((self.h, self.y))).all()
        if not (finite and math.isfinite(self.sigma2)):
            raise ValueError("h, y and sigma2 must be finite")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be non-negative")

    @cached_property
    def H(self) -> np.ndarray:  # built on first use
        return circulant_matrix(self.h, self.N)

    @property
    def N(self) -> int:
        return self.y.shape[0]


@dataclass(eq=False)
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
        # np.allclose(Q, Q.T, atol=0) on finite Q, without its overhead
        if not np.all(np.abs(self.Q - self.Q.T) <= 1e-5 * np.abs(self.Q.T)):
            raise ValueError("Q must be symmetric")

    @property
    def n(self) -> int:
        return self.c.shape[0]


def bits_of(values, n: int) -> np.ndarray:
    """Bits b_0 .. b_{n-1} of each integer sum_i b_i 2^i in ``values``, on a
    new last axis: the index codec of every cost table."""
    return ((np.asarray(values)[..., None] >> np.arange(n)) & 1).astype(np.int8)


def qubo_terms(H: np.ndarray, y: np.ndarray):
    """Q, c and offset of the residual cost for (..., N, N) channels ``H``
    and (..., N) blocks ``y``.

    Over bipolar x the cost is x^T G x + v^T x + ||y||^2 with G = Re(H^H H)
    and v = -2 Re(H^H y); the imaginary parts of the Hermitian Gram matrix
    cancel against real x, so nothing is lost.  Substituting x = 2b - 1 gives
    Q = 4G, c = 2v - 4 G 1, and the offset picks up the rest.
    """
    HH = np.conj(np.swapaxes(H, -1, -2))
    G = np.real(HH @ H)
    v = -2.0 * np.real(HH @ y[..., None])[..., 0]
    const = np.real(np.conj(y)[..., None, :] @ y[..., :, None])[..., 0, 0]
    ones = np.ones(G.shape[-1])
    return 4.0 * G, 2.0 * v - 4.0 * (G @ ones), const + ones @ G @ ones - v @ ones


def mld_to_qubo(inst: MldInstance) -> QuboProblem:
    """Residual cost over x down to a QUBO over bits: ``qubo_terms`` of one instance."""
    Q, c, offset = qubo_terms(inst.H, inst.y)
    return QuboProblem(Q=Q, c=c, offset=float(offset))


def evaluate_cost(q: QuboProblem, bits) -> float:
    """E(b) = b^T Q b + c^T b + offset for one bit vector."""
    b = np.asarray(bits, dtype=float)
    return float(b @ q.Q @ b + q.c @ b + q.offset)


def cost_chunks(Q: np.ndarray, c: np.ndarray, offset: np.ndarray):
    """Every pattern's cost under the T stacked QUBOs (T, n, n), (T, n), (T,).

    Yields ``(rows, start, costs)``: ``costs[r, k]`` is the cost of pattern
    start + k under QUBO ``rows.start + r``.  Patterns run in ascending
    order, and no cost array holds more than ``_CHUNK`` entries; where a
    whole table fits, one array takes as many QUBOs as fit beside it.
    """
    T, n = c.shape
    if n > BRUTE_FORCE_MAX_N:
        raise CapacityError(f"exhaustive evaluation capped at n = {BRUTE_FORCE_MAX_N}")
    width = min(1 << n, _CHUNK)
    per = _CHUNK // width  # QUBOs per cost array
    for start in range(0, 1 << n, width):
        B = bits_of(np.arange(start, start + width), n).astype(float)
        for lo in range(0, T, per):
            rows = slice(lo, lo + per)
            yield rows, start, (np.einsum("ki,tij,kj->tk", B, Q[rows], B)
                                + (B @ c[rows, :, None])[..., 0] + offset[rows, None])


def evaluate_all_costs(q: QuboProblem) -> np.ndarray:
    """Costs for every bit pattern, indexed by the integer sum_i b_i 2^i."""
    chunks = cost_chunks(q.Q[None], q.c[None], np.array([q.offset]))
    return np.concatenate([costs[0] for _, _, costs in chunks])


__all__ = [
    "MldInstance",
    "QuboProblem",
    "bits_of",
    "cost_chunks",
    "evaluate_cost",
    "evaluate_all_costs",
    "mld_to_qubo",
    "qubo_terms",
]
