"""Block detectors: exhaustive search, frequency-domain equalizer, hybrid.

One path decides: ``decide`` runs a block of instances through the listed
detectors, as a sweep does, and the one-instance detectors are a block of
one that adds the symbols and residual cost of the decision
(``DetectionReport``).  The exhaustive search and the equalizer run on the
stacked block (``mld_decisions``, ``mmse_soft``); the exhaustive search is an
argmin over ``qubo``'s costs, a search's table but for a few ulps.  Both
searches of an instance run on one ``gas.SearchContext`` of its QUBO, and
the block's analytic searches run in groups on ``gas.run_searches``.  The
hybrid keeps the equalizer decision as the search incumbent, so it can
match but never trail the equalizer on any single instance.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .channel import circulant_matrix, demodulate, modulate
from .gas import GasConfig, SearchContext, run_gas, run_searches
from .qubo import _CHUNK, MldInstance, bits_of, cost_chunks, mld_to_qubo, qubo_terms

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


def decide(insts, detectors, cfg: GasConfig | None, rng_for) -> dict:
    """Each of ``detectors``' decisions on the block ``insts``, instances of
    one length N: ``{detector: (bits, queries)}``, int8 bits (T, N) and
    oracle queries (T,).

    The searches read ``cfg`` and the generators ``rng_for(detector, row)``,
    one per search.  The equalizer runs once over the block and gives
    GAS_warm its warm starts.  A trial's searches share one
    ``SearchContext``, and the driver runs them in groups, in trial order:
    on the analytic engine a group holds at most ``qubo._CHUNK`` = 2^16 key
    entries, 2^N per search, so from N = 16 a search runs alone; on the
    statevector engine every search runs alone, GAS_random before GAS_warm,
    so one A|0> is alive and the second search can reuse the first one's
    slot.  MLD runs last, over the block.  The circulants are stacked once,
    only for MLD or a search, and each instance's ``H`` becomes its row of
    them.
    """
    T, N = len(insts), insts[0].N
    h = np.array([inst.h for inst in insts])
    y = np.array([inst.y for inst in insts])
    out = {det: (np.zeros((T, N), dtype=np.int8), np.zeros(T, dtype=np.int64))
           for det in detectors}
    searches = [det for det in ("GAS_random", "GAS_warm") if det in out]
    if "MMSE" in out or "GAS_warm" in out:
        mmse = demodulate(mmse_soft(h, y, np.array([[inst.sigma2] for inst in insts])))
        if "MMSE" in out:
            out["MMSE"][0][:] = mmse
    if searches or "MLD" in out:
        H = circulant_matrix(h, N)
        for inst, H_t in zip(insts, H):
            inst.H = H_t  # what its cached H would build
    # searches per driver call, and the trials whose contexts are built together
    size = 1 if searches and cfg.engine == "statevector" else max(1, _CHUNK >> N)
    per = -(-size // max(1, len(searches)))
    for start in range(0, T if searches else 0, per):
        keys, group = [], []
        for row in range(start, min(start + per, T)):
            ctx = SearchContext(mld_to_qubo(insts[row]), cfg)
            for det in searches:
                keys.append((det, row))
                group.append((ctx, replace(cfg, warm_start=mmse[row] if det == "GAS_warm" else None),
                              rng_for(det, row)))
        for first in range(0, len(group), size):
            part = group[first:first + size]
            # a group of one goes through run_gas, the call the benchmark's tracer observes
            results = run_searches(part) if len(part) > 1 else [run_gas(*part[0])]
            for (det, row), result in zip(keys[first:first + size], results):
                out[det][0][row] = result.best_bits
                out[det][1][row] = result.oracle_queries
    # MLD last: run before the searches, its block-sized temporaries raised
    # block10_serial's peak RSS by 0.06-0.08 MiB
    if "MLD" in out:  # N <= 24
        out["MLD"][0][:] = mld_decisions(H, y)
    return out


def _report(inst: MldInstance, method: str, cfg: GasConfig | None = None,
            rng: np.random.Generator | None = None) -> DetectionReport:
    """``method`` on ``inst`` as a block of one: its decision, that
    decision's symbols and their residual cost."""
    (bits,), (queries,) = decide([inst], [method], cfg, lambda det, row: rng)[method]
    x = modulate(bits)
    return DetectionReport(x_hat=x, bits_hat=bits, method=method,
                           oracle_queries=int(queries), cost=residual_cost(inst, x))


def mld_detect(inst: MldInstance) -> DetectionReport:
    """Exhaustive search on one instance."""
    return _report(inst, "MLD")


def mmse_detect(inst: MldInstance) -> DetectionReport:
    return _report(inst, "MMSE")


def gas_detect(inst: MldInstance, cfg: GasConfig, rng: np.random.Generator) -> DetectionReport:
    """Plain adaptive search from a uniformly sampled starting point."""
    return _report(inst, "GAS_random", cfg, rng)


def hybrid_detect(inst: MldInstance, cfg: GasConfig, rng: np.random.Generator) -> DetectionReport:
    """Equalize, hard-decide, then search with that decision as incumbent."""
    return _report(inst, "GAS_warm", cfg, rng)
