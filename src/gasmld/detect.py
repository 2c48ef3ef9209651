"""Block detectors: exhaustive search, frequency-domain equalizer, hybrid.

One path decides: ``decide`` runs a block of instances, given as stacked
arrays of responses and received blocks, through the listed detectors, as a
sweep does, and the one-instance detectors pass an ``MldInstance`` as a
block of one and add the symbols and residual cost of the decision
(``DetectionReport``).  The equalizer runs on the stacked block
(``mmse_soft``).  The block's costs come from one ``qubo`` pass over its
stacked QUBOs: the exhaustive search is a row-wise argmin over them, and
both searches of an instance run on one ``gas.SearchContext`` of its row,
so the two read one table.  The block's searches run in groups on
``gas.run_searches``, all under the one ``GasConfig``.  The hybrid hands
its search the equalizer decision as the start, the first incumbent, so
it can match but never trail the equalizer on any single instance.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import circulant_matrix, demodulate, modulate
from .gas import GasConfig, SearchContext, check_registers, run_searches
from .qubo import _CHUNK, MldInstance, bits_of, check_finite, cost_chunks, qubo_terms

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


def _whole_rows(chunks, N: int):
    """``qubo.cost_chunks``' arrays as whole tables of 2^N costs: a table
    that fits in one array is that array, and a larger one is joined from
    its runs of patterns."""
    for rows, start, costs in chunks:
        if costs.shape[1] == 1 << N:
            yield rows, start, costs
            continue
        if start == 0:
            table = np.empty((costs.shape[0], 1 << N))
        table[:, start:start + costs.shape[1]] = costs
        if start + costs.shape[1] == 1 << N:
            yield rows, 0, table


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


def decide(h, y, sigma2, detectors, cfg: GasConfig | None, rng_for) -> dict:
    """Each of ``detectors``' decisions on a block of T instances of one
    length N, as arrays: responses ``h`` padded to N taps and blocks ``y``,
    both (T, N), and noise power ``sigma2``, a scalar or (T,), all checked
    once by ``MldInstance``'s rules.  Returns ``{detector: (bits, queries)}``,
    int8 bits (T, N) and oracle queries (T,).

    Every search runs under the one schedule ``cfg`` and draws from its
    generator ``rng_for(detector, row)``; their register errors are raised
    before any cost is evaluated.  The equalizer runs once over the block,
    and its decision on a row is GAS_warm's start there; GAS_random starts
    uniformly.  When MLD or a search is listed, one
    ``circulant_matrix`` call, one ``qubo_terms`` call and one
    ``cost_chunks`` pass give every trial's costs.  MLD is a row-wise argmin
    over them, ties to the lowest pattern as the patterns ascend, kept only
    on a strict improvement.  A trial's searches share one ``SearchContext``
    of its row, and ``gas.run_searches`` runs them in groups, one call per
    group, in trial order: on the analytic engine a group holds at most
    ``qubo._CHUNK`` = 2^16 key entries, 2^N per search, so from N = 16 a
    search runs alone; on the statevector engine every search runs alone,
    GAS_random before GAS_warm, so one A|0> is alive and the second search
    can reuse the first one's slot.
    """
    if np.ndim(h) != 2 or np.shape(y) != np.shape(h) or np.shape(sigma2) not in ((), (len(h),)):
        raise ValueError("h and y must be (T, N) stacks of one shape, and sigma2 a scalar or (T,)")
    check_finite(h, y, sigma2)
    T, N = np.shape(h)
    out = {det: (np.zeros((T, N), dtype=np.int8), np.zeros(T, dtype=np.int64))
           for det in detectors}
    searches = [det for det in ("GAS_random", "GAS_warm") if det in out]
    if searches:
        check_registers(N, cfg)
    if "MMSE" in out or "GAS_warm" in out:
        mmse = demodulate(mmse_soft(h, y, np.reshape(sigma2, (-1, 1))))
        if "MMSE" in out:
            out["MMSE"][0][:] = mmse
    if not (searches or "MLD" in out):
        return out
    H = circulant_matrix(h, N)
    # searches per driver call, and the trials whose contexts are built together
    size = 1 if searches and cfg.engine == "statevector" else max(1, _CHUNK >> N)
    per = -(-size // max(1, len(searches)))
    least = np.full(T, np.inf)
    best = np.zeros(T, dtype=np.int64)
    chunks = cost_chunks(*qubo_terms(H, y))  # N <= 24
    for rows, start, costs in _whole_rows(chunks, N) if searches else chunks:
        if "MLD" in out:
            local = np.argmin(costs, axis=1)
            cost = costs[np.arange(local.size), local]
            better = cost < least[rows]
            least[rows] = np.where(better, cost, least[rows])
            best[rows] = np.where(better, start + local, best[rows])
        if not searches:
            continue
        stop = min(rows.stop, T)
        for first in range(rows.start, stop, per):
            keys, group = [], []
            for row in range(first, min(first + per, stop)):
                ctx = SearchContext(costs[row - rows.start], cfg)
                for det in searches:
                    keys.append((det, row))
                    group.append((ctx, rng_for(det, row), mmse[row] if det == "GAS_warm" else None))
            for at in range(0, len(group), size):
                results = run_searches(cfg, group[at:at + size])
                for (det, row), result in zip(keys[at:at + size], results):
                    out[det][0][row] = result.best_bits
                    out[det][1][row] = result.oracle_queries
    if "MLD" in out:
        out["MLD"][0][:] = bits_of(best, N)
    return out


def _report(inst: MldInstance, method: str, cfg: GasConfig | None = None,
            rng: np.random.Generator | None = None) -> DetectionReport:
    """``method`` on ``inst`` as a block of one: its decision, that
    decision's symbols and their residual cost."""
    (bits,), (queries,) = decide(inst.h[None], inst.y[None], inst.sigma2, [method], cfg,
                                 lambda det, row: rng)[method]
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
