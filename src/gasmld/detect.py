"""Block detectors: exhaustive search, frequency-domain equalizer, hybrid.

All detectors consume an MldInstance and emit a DetectionReport whose cost
is the achieved squared residual of the hard decision.  The exhaustive
search and the equalizer are written for a stack of instances
(``mld_decisions``, ``mmse_soft``), which is how a sweep runs them; the
one-instance detectors are the stack of one.  The exhaustive search is an
argmin over ``qubo``'s costs, a search's table but for a few ulps.  The
searches run on a ``gas.SearchContext`` of the instance's QUBO, which a sweep
builds once per trial for both; the one-instance detectors build their own.
The hybrid keeps the equalizer decision as the search incumbent, so it can
match but never trail the equalizer on any single instance.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .channel import demodulate, modulate
from .gas import GasConfig, SearchContext, run_gas
from .qubo import MldInstance, bits_of, cost_chunks, mld_to_qubo, qubo_terms

METHODS = ("MLD", "MMSE", "GAS_random", "GAS_warm")


@dataclass(eq=False)
class DetectionReport:
    x_hat: np.ndarray
    bits_hat: np.ndarray
    method: str
    oracle_queries: int
    cost: float


def residual_cost(inst: MldInstance, x: np.ndarray) -> float:
    return float(np.sum(np.abs(inst.y - inst.H @ x) ** 2))


def _report(inst: MldInstance, bits: np.ndarray, method: str, queries: int) -> DetectionReport:
    """The report of decided ``bits``: their symbols and residual cost."""
    x = modulate(bits)
    return DetectionReport(
        x_hat=x,
        bits_hat=bits,
        method=method,
        oracle_queries=queries,
        cost=residual_cost(inst, x),
    )


def mld_decisions(H: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exhaustive minimum-distance bits for a stack of instances.

    ``H`` is (T, N, N) and ``y`` is (T, N); row t of the (T, N) result holds
    the bits of the pattern whose QUBO cost, ||y_t - H_t x||^2, is least.
    Ties break toward the lowest bit-pattern integer: a row-wise argmin over
    ``qubo.cost_chunks``, whose patterns ascend, kept only on a strict
    improvement.
    """
    best_cost = np.full(y.shape[0], np.inf)
    best_index = np.zeros(y.shape[0], dtype=np.int64)
    for rows, start, costs in cost_chunks(*qubo_terms(H, y)):
        local = np.argmin(costs, axis=1)
        cost = costs[np.arange(local.size), local]
        better = cost < best_cost[rows]
        best_cost[rows] = np.where(better, cost, best_cost[rows])
        best_index[rows] = np.where(better, start + local, best_index[rows])
    return bits_of(best_index, y.shape[-1])


def mld_detect(inst: MldInstance) -> DetectionReport:
    """Exhaustive search on one instance: ``mld_decisions`` of a stack of one."""
    return _report(inst, mld_decisions(inst.H[None], inst.y[None])[0], "MLD", 0)


def mmse_taps(h: np.ndarray, sigma2) -> np.ndarray:
    """Per-bin taps conj(lam)/(|lam|^2 + sigma^2) of the circulant channels
    whose first columns are the rows of ``h`` (any leading shape, bins on the
    last axis) at noise power ``sigma2``, a scalar or an array that
    broadcasts against them; zero bins stay zero and warn once per call."""
    lam = np.fft.fft(h, axis=-1)
    denom = np.abs(lam) ** 2 + sigma2
    phi = np.zeros_like(lam)
    dead = denom == 0.0
    if np.any(dead):
        warnings.warn("zero-energy frequency bin with no noise floor; tap set to 0")
    phi[~dead] = np.conj(lam[~dead]) / denom[~dead]
    return phi


def mmse_soft(h: np.ndarray, y: np.ndarray, sigma2) -> np.ndarray:
    """Soft equalized symbols IDFT(taps * DFT(y)), one FFT pair per call
    along the last axis of the stacked first columns ``h`` and blocks ``y``."""
    return np.fft.ifft(mmse_taps(h, sigma2) * np.fft.fft(y, axis=-1), axis=-1)


def mmse_equalize(inst: MldInstance) -> np.ndarray:
    """Soft equalized symbols of one instance."""
    return mmse_soft(inst.h, inst.y, inst.sigma2)


def mmse_detect(inst: MldInstance) -> DetectionReport:
    return _report(inst, demodulate(mmse_equalize(inst)), "MMSE", 0)


def _run_search(inst: MldInstance, cfg: GasConfig, warm_bits, method: str,
                rng: np.random.Generator) -> DetectionReport:
    cfg = replace(cfg, warm_start=warm_bits)
    result = run_gas(SearchContext(mld_to_qubo(inst), cfg), cfg, rng)
    return _report(inst, result.best_bits, method, result.oracle_queries)


def gas_detect(inst: MldInstance, cfg: GasConfig, rng: np.random.Generator) -> DetectionReport:
    """Plain adaptive search from a uniformly sampled starting point."""
    return _run_search(inst, cfg, None, "GAS_random", rng)


def hybrid_detect(inst: MldInstance, cfg: GasConfig, rng: np.random.Generator) -> DetectionReport:
    """Equalize, hard-decide, then search with that decision as incumbent."""
    return _run_search(inst, cfg, demodulate(mmse_equalize(inst)), "GAS_warm", rng)
