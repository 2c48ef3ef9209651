"""Detection cost to binary optimization.

The squared residual ||y - H x||^2 over BPSK symbols x in {-1,+1}^N expands
into a real quadratic form, and substituting x = 2b - 1 turns it into a QUBO
over bits.  The conversion preserves the cost of each candidate exactly,
which the tests lean on.

The search's cost table and exhaustive detection share one expansion
(``qubo_terms``), one evaluator (``cost_chunks``) and one index codec
(``bits_of``).  A block takes its costs from one pass of the two over its
stacked instances, and its exhaustive search and every search read the same
rows: a stack's Q, c and offset may each round a few ulps off the
one-instance expansion's, and so may its costs.
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


def check_finite(h, y, sigma2) -> None:
    """An instance's rules, also checked once on a stack: finite ``h`` and ``y``,
    and a finite, non-negative ``sigma2`` (a scalar, or one per row)."""
    if not (np.isfinite(h).all() and np.isfinite(y).all() and np.isfinite(sigma2).all()):
        raise ValueError("h, y and sigma2 must be finite")
    if np.min(sigma2) < 0:
        raise ValueError("sigma2 must be non-negative")


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
        check_finite(self.h, self.y, self.sigma2)

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
    start + k under QUBO ``rows.start + r``.  The QUBOs come in order and
    each one's patterns in ascending order, and no cost array holds more
    than ``_CHUNK`` entries: where a whole table fits, one array takes as
    many QUBOs as fit beside it, and beyond that an array is a run of one
    QUBO's patterns.

    A pattern splits into its l = n // 2 low and n - l high bits, key
    lo + 2^l hi.  As b_i^2 = b_i the linear terms join the diagonal,
    M = Q + diag(c), and the cost is

        E = A[lo] + B[hi] + x_hi^T (2 M_hl) x_lo,

    A and B the low and high halves' own 2^l- and 2^(n-l)-entry tables (B
    with the offset), so a table costs O(2^n n) rather than O(2^n n^2).
    Every product is a two-operand ``einsum`` with the QUBO axis last, the
    one long axis of a small table's stack, and none is a BLAS call.
    """
    T, n = c.shape
    if n > BRUTE_FORCE_MAX_N:
        raise CapacityError(f"exhaustive evaluation capped at n = {BRUTE_FORCE_MAX_N}")
    low = min(n // 2, _CHUNK.bit_length() - 1)  # a high half's row fits in one array
    X_lo = bits_of(np.arange(1 << low), low).astype(float)
    width = min(1 << n, _CHUNK)
    per = _CHUNK // width  # QUBOs per cost array
    span = width >> low  # high halves per cost array
    M = np.transpose(Q, (1, 2, 0)).copy()  # (n, n, T), C order
    M[range(n), range(n)] += c.T
    for first in range(0, T, per):
        rows = slice(first, first + per)
        M_rows = M[..., rows]
        A = np.einsum("kjt,kj->kt", np.einsum("ki,ijt->kjt", X_lo, M_rows[:low, :low]), X_lo)
        for hi in range(0, 1 << (n - low), span):
            X_hi = bits_of(np.arange(hi, hi + span), n - low).astype(float)
            R = np.einsum("ki,ijt->kjt", X_hi, M_rows[low:])  # x_hi^T M[high bits], (span, n, T')
            B = np.einsum("kjt,kj->kt", R[:, low:], X_hi) + offset[rows]
            costs = np.einsum("kjt,lj->klt", R[:, :low], 2.0 * X_lo)
            costs += B[:, None]
            costs += A
            del R, B  # only the yielded array stays alive while the caller reads it
            costs = np.ascontiguousarray(costs.reshape(-1, costs.shape[2]).T)
            yield rows, hi << low, costs


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
