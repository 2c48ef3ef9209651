"""Block detectors: exhaustive search, frequency-domain equalizer, hybrid.

All detectors consume an MldInstance and emit a DetectionReport whose cost
is the achieved squared residual of the hard decision.  The hybrid keeps
the equalizer decision as the search incumbent, so it can match but never
trail the equalizer on any single instance.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .channel import demodulate, modulate
from .circuits import bit_patterns
from .gas import GasConfig, run_gas
from .qcore import CapacityError
from .qubo import BRUTE_FORCE_MAX_N, MldInstance, mld_to_qubo

METHODS = ("MLD", "MMSE", "GAS_random", "GAS_warm")
_CHUNK = 1 << 16


@dataclass
class DetectionReport:
    x_hat: np.ndarray
    bits_hat: np.ndarray
    method: str
    oracle_queries: int
    cost: float


def residual_cost(inst: MldInstance, x: np.ndarray) -> float:
    return float(np.sum(np.abs(inst.y - inst.H @ x) ** 2))


def _report(inst: MldInstance, x: np.ndarray, method: str, queries: int) -> DetectionReport:
    x = np.asarray(x, dtype=complex)
    return DetectionReport(
        x_hat=x,
        bits_hat=demodulate(x),
        method=method,
        oracle_queries=queries,
        cost=residual_cost(inst, x),
    )


def mld_detect(inst: MldInstance) -> DetectionReport:
    """Exhaustive minimum-distance search over every bipolar vector.

    Ties break toward the lowest bit-pattern integer: strict less-than
    updates over an ascending enumeration.
    """
    N = inst.N
    if N > BRUTE_FORCE_MAX_N:
        raise CapacityError(f"exhaustive search over {N} bits exceeds the cap")
    G = np.real(inst.H.conj().T @ inst.H)
    v = np.real(inst.H.conj().T @ inst.y)
    base = float(np.sum(np.abs(inst.y) ** 2))
    best_cost = np.inf
    best_index = -1
    total = 1 << N
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        bits = bit_patterns(N, start, stop).astype(float)
        X = 2.0 * bits - 1.0
        costs = base - 2.0 * (X @ v) + np.einsum("ki,ij,kj->k", X, G, X)
        local = int(np.argmin(costs))
        if costs[local] < best_cost:
            best_cost = float(costs[local])
            best_index = start + local
    x = modulate(bit_patterns(N, best_index, best_index + 1)[0])
    return _report(inst, x, "MLD", 0)


def mmse_filter(inst: MldInstance) -> np.ndarray:
    """Per-bin taps conj(lam)/(|lam|^2 + sigma^2); zero bins stay zero."""
    lam = np.fft.fft(inst.H[:, 0])
    denom = np.abs(lam) ** 2 + inst.sigma2
    phi = np.zeros_like(lam)
    dead = denom == 0.0
    if np.any(dead):
        warnings.warn("zero-energy frequency bin with no noise floor; tap set to 0")
    phi[~dead] = np.conj(lam[~dead]) / denom[~dead]
    return phi


def mmse_equalize(inst: MldInstance) -> np.ndarray:
    """Soft equalized symbols: IDFT(filter * DFT(y))."""
    return np.fft.ifft(mmse_filter(inst) * np.fft.fft(inst.y))


def mmse_detect(inst: MldInstance) -> DetectionReport:
    soft = mmse_equalize(inst)
    x = modulate(demodulate(soft))
    return _report(inst, x, "MMSE", 0)


def _run_search(inst: MldInstance, cfg: GasConfig, warm_bits, method: str,
                rng: np.random.Generator | None) -> DetectionReport:
    q = mld_to_qubo(inst)
    cfg = replace(cfg, warm_start=warm_bits)
    result = run_gas(q, cfg, rng)
    x = modulate(result.best_bits)
    return _report(inst, x, method, result.oracle_queries)


def gas_detect(inst: MldInstance, cfg: GasConfig, rng: np.random.Generator | None = None) -> DetectionReport:
    """Plain adaptive search from a uniformly sampled starting point."""
    return _run_search(inst, cfg, None, "GAS_random", rng)


def hybrid_detect(inst: MldInstance, cfg: GasConfig, rng: np.random.Generator | None = None) -> DetectionReport:
    """Equalize, hard-decide, then search with that decision as incumbent."""
    warm = demodulate(mmse_equalize(inst))
    return _run_search(inst, cfg, warm, "GAS_warm", rng)
