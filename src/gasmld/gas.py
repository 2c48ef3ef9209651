"""Adaptive threshold search over QUBO costs with amplitude amplification.

The driver repeats: sample a rotation count L from the current schedule,
amplify states whose encoded cost falls below the incumbent threshold,
measure the key register, and re-evaluate the candidate classically.  An
improvement lowers the threshold and resets the schedule; otherwise the
schedule grows geometrically up to sqrt(2^n).

Two interchangeable sampling engines are provided.  The statevector engine
writes A|0> in closed form, one FFT of the shifted cost table, and runs each
Grover iteration on the full statevector as a reflection about it.  The
analytic engine evaluates the same measurement distribution in closed form:
the Grover operator keeps the state inside the plane spanned by the
normalised marked and unmarked components, so after L iterations the
key-register distribution is

    P_L(b) = sin^2((2L+1) alpha) w_good(b) / p0
           + cos^2((2L+1) alpha) w_bad(b) / (1 - p0),

with alpha = arcsin(sqrt(p0)) and w_good(b) the joint weight of key b and a
negative encoded value.  Marked and unmarked components occupy disjoint
value bins, so no cross terms survive the marginalisation.  Both engines
draw identically from the supplied generator (one integer for L, one
uniform for the measurement per round), which makes their traces directly
comparable seed for seed.

A search computes its cost table once and takes the cost bounds (n <= 16),
the automatic value-register size, the real-encoding scale and both engines'
input from it.  Per threshold both engines read the same shifted table
a_b = scale (E(b) - threshold), checked once against the integer encoding,
and one per-threshold cache serves both: the statevector engine prepares
A|0> from the table, the analytic engine w_good, w_bad, p0.
"""

from dataclasses import dataclass, field

import numpy as np

from .circuits import GasCircuitSpec, bit_patterns, fejer_distribution
from .circuits import apply_state_preparation, grover_power
from .qcore import CapacityError, MAX_QUBITS, register_distribution, sample_index, zero_state
from .qubo import QuboProblem, evaluate_all_costs, evaluate_cost

ENCODINGS = ("integer", "real_direct")
ENGINES = ("statevector", "analytic")
BOUNDS_BRUTE_FORCE_MAX_N = 16


@dataclass
class GasConfig:
    """Knobs for one adaptive search run.

    ``m=None`` sizes the value register automatically from the cost range.
    ``warm_start`` replaces the uniform initial sample with a supplied bit
    vector whose cost becomes the initial threshold.
    """

    m: int | None = 12
    growth_factor: float = 8.0 / 7.0
    max_rounds: int = 50
    stall_rounds: int = 15
    seed: int | None = None
    warm_start: np.ndarray | None = None
    encoding: str = "real_direct"
    engine: str = "statevector"

    def __post_init__(self):
        if self.m is not None and self.m < 2:
            raise ValueError("value register needs at least 2 qubits")
        if not self.growth_factor > 1.0:
            raise ValueError("growth factor must exceed 1")
        if self.max_rounds < 1 or self.stall_rounds < 1:
            raise ValueError("round caps must be positive")
        if self.encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {self.encoding!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.warm_start is not None:
            ws = np.asarray(self.warm_start, dtype=np.int8)
            if ws.ndim != 1 or not np.all((ws == 0) | (ws == 1)):
                raise ValueError("warm start must be a flat 0/1 vector")
            self.warm_start = ws


@dataclass
class GasResult:
    best_bits: np.ndarray
    best_cost: float
    rounds: int
    oracle_queries: int
    measurements: int
    stop_reason: str  # "stall": stall_rounds without improvement; "max_rounds": the round cap
    threshold_trace: list = field(default_factory=list)  # (round, threshold)


def sample_rotation_count(k: float, rng: np.random.Generator) -> int:
    """Draw L uniformly from the integers in [0, k-1].

    For fractional k the support therefore holds ceil(k-1) values; the top
    count only becomes reachable once k actually exceeds it by a full unit.
    """
    if k < 1.0:
        raise ValueError("rotation schedule parameter must be >= 1")
    high = int(np.floor(k - 1.0))
    return int(rng.integers(0, high + 1))


def grow_k(k: float, growth_factor: float, n: int) -> float:
    """Schedule update after a non-improving round: min(growth*k, sqrt(2^n))."""
    return min(growth_factor * k, float(np.sqrt(2.0 ** n)))


def cost_bounds(q: QuboProblem, costs: np.ndarray | None = None) -> tuple[float, float]:
    """Lower/upper bounds on the cost; exact for n <= 16 (read off the cost
    table ``costs`` when the caller has it), L1 bound beyond."""
    if q.n <= BOUNDS_BRUTE_FORCE_MAX_N:
        if costs is None:
            costs = evaluate_all_costs(q)
        return float(costs.min()), float(costs.max())
    lin = np.diag(q.Q) + q.c
    quad = 2.0 * np.triu(q.Q, k=1)
    lo = q.offset + np.minimum(lin, 0.0).sum() + np.minimum(quad, 0.0).sum()
    hi = q.offset + np.maximum(lin, 0.0).sum() + np.maximum(quad, 0.0).sum()
    return float(lo), float(hi)


def required_value_qubits(q: QuboProblem, encoding: str = "integer",
                          bounds: tuple[float, float] | None = None) -> int:
    """Smallest value register that cannot alias any shifted cost.

    Thresholds are always attained costs, so the worst shift spans
    [lo - hi, hi - lo].  Integer encoding needs the exact span strictly
    inside the signed window; real encoding reserves a factor-2 margin so
    spectral side lobes stay clear of the sign boundary.  The search stops
    at the qubits the engine cap leaves beside the n key qubits.  ``bounds``
    is ``cost_bounds(q)`` when the caller already has it.
    """
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown encoding {encoding!r}")
    lo, hi = bounds if bounds is not None else cost_bounds(q)
    spread = hi - lo
    # half the window, 2^{m-1}, must hold spread + 1 (integer) or 2 * spread (real)
    need = spread + 1.0 if encoding == "integer" else 2.0 * spread
    for m in range(2, MAX_QUBITS - q.n + 1):
        if (1 << (m - 1)) >= need:
            return m
    raise CapacityError(f"cost spread {spread:g} needs more than {MAX_QUBITS - q.n} value qubits")


class _Engine:
    """One search's setup and the per-threshold cache both engines share: a
    subclass supplies ``_prepare(shifted)``, run once per threshold on the
    shifted cost table, and ``_evolve(prepared, L)``, the key distribution
    after L rotations."""

    def __init__(self, costs: np.ndarray, m: int, encoding: str, scale: float):
        self._costs = costs  # the search's cost table, indexed by key
        self._m = m
        self._encoding = encoding
        self._scale = scale
        self._cache: dict[float, object] = {}

    def key_distribution(self, threshold: float, L: int) -> np.ndarray:
        prepared = self._cache.get(threshold)
        if prepared is None:
            prepared = self._cache[threshold] = self._prepare(self._shifted(threshold))
        return self._evolve(prepared, L)

    def _shifted(self, threshold: float) -> np.ndarray:
        """a_b = scale (E(b) - threshold) for every key.  The integer encoding
        writes each a_b as an exact bin, so there it must be an integer inside
        the signed window [-2^{m-1}, 2^{m-1}), or it would alias onto the
        wrong sign; it is returned rounded."""
        shifted = self._scale * (self._costs - threshold)
        if self._encoding != "integer":
            return shifted
        bins = np.round(shifted)
        if np.any(np.abs(shifted - bins) > 1e-9):
            raise ValueError("integer encoding requires integer costs")
        half = 1 << (self._m - 1)
        if bins.min() < -half or bins.max() >= half:
            raise ValueError(
                f"shifted cost range [{bins.min():g}, {bins.max():g}] exceeds the signed "
                f"capacity [-{half}, {half}) of {self._m} value qubits"
            )
        return bins


class _StatevectorEngine(_Engine):
    """Runs the search on a statevector; prepares A|0> per threshold from the
    shifted cost table, and reflects about it in every Grover iteration."""

    def _prepare(self, shifted: np.ndarray):
        spec = GasCircuitSpec(shifted.shape[0].bit_length() - 1, self._m, shifted)
        return spec, apply_state_preparation(zero_state(spec.total_qubits), spec)

    def _evolve(self, prepared, L: int) -> np.ndarray:
        spec, base = prepared
        # the cached A|0> is the reflection axis; only L > 0 needs a working copy
        state = grover_power(base.copy() if L else base, spec, L, axis=base.amps)
        return register_distribution(state, spec.key_register)


class _AnalyticEngine(_Engine):
    """Closed-form twin of the statevector engine (see module docstring);
    prepares the w_good/w_bad/p0 weights per threshold from the shifted table."""

    def _prepare(self, shifted: np.ndarray):
        M = 1 << self._m
        n_keys = shifted.shape[0]
        if self._encoding == "integer":
            # an exact bin inside the signed window reads negative iff it is
            w_good = (shifted < 0).astype(float)
        else:
            w_good = np.empty(n_keys)
            for idx, a in enumerate(shifted):
                dist = fejer_distribution(2.0 * np.pi * a / M, self._m)
                w_good[idx] = dist[M // 2 :].sum()
        w_good /= n_keys
        w_bad = 1.0 / n_keys - w_good
        p0 = float(np.clip(w_good.sum(), 0.0, 1.0))
        return w_good, np.maximum(w_bad, 0.0), p0

    def _evolve(self, prepared, L: int) -> np.ndarray:
        w_good, w_bad, p0 = prepared
        if p0 <= 0.0:
            return w_good + w_bad
        if p0 >= 1.0:
            return w_good.copy()
        angle = (2 * L + 1) * np.arcsin(np.sqrt(p0))
        return np.sin(angle) ** 2 * w_good / p0 + np.cos(angle) ** 2 * w_bad / (1.0 - p0)


def run_gas(q: QuboProblem, cfg: GasConfig, rng: np.random.Generator | None = None) -> GasResult:
    """Algorithm driver; see the module docstring for the round structure."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n = q.n
    if n < 1:
        raise ValueError("need at least one key qubit")
    # the one cost table of this search: bounds, auto m, scale, engine input
    costs = evaluate_all_costs(q) if n <= BOUNDS_BRUTE_FORCE_MAX_N else None
    lo, hi = cost_bounds(q, costs)
    m = cfg.m if cfg.m is not None else required_value_qubits(q, cfg.encoding, (lo, hi))
    if n + m > MAX_QUBITS:
        raise CapacityError(f"{n} key + {m} value qubits exceed the {MAX_QUBITS}-qubit cap")
    # integer mode encodes costs verbatim; real mode stretches the worst-case
    # shifted range onto [-2^{m-2}, 2^{m-2}], half the representable window
    scale = 1.0
    if cfg.encoding == "real_direct" and hi > lo:
        scale = float(2 ** (m - 2)) / (hi - lo)
    if costs is None:
        if cfg.engine == "analytic":
            raise CapacityError("analytic engine needs the full cost table (n <= 16)")
        costs = evaluate_all_costs(q)  # n + m <= MAX_QUBITS keeps n within its cap
    engine_cls = _StatevectorEngine if cfg.engine == "statevector" else _AnalyticEngine
    engine = engine_cls(costs, m, cfg.encoding, scale)
    patterns = bit_patterns(n)

    if cfg.warm_start is not None:
        if cfg.warm_start.shape[0] != n:
            raise ValueError("warm start length does not match problem size")
        best_bits = cfg.warm_start.copy()
    else:
        best_bits = rng.integers(0, 2, size=n).astype(np.int8)
    threshold = evaluate_cost(q, best_bits)  # always the cost of best_bits
    trace = [(0, threshold)]

    k = 1.0
    queries = 0
    stall = 0
    rounds = 0
    while rounds < cfg.max_rounds and stall < cfg.stall_rounds:
        rounds += 1
        L = sample_rotation_count(k, rng)
        dist = engine.key_distribution(threshold, L)
        idx = sample_index(dist, rng)
        queries += L
        candidate = patterns[idx]
        cost = evaluate_cost(q, candidate)
        if cost < threshold:
            threshold = cost
            best_bits = candidate.copy()
            k = 1.0
            stall = 0
        else:
            k = grow_k(k, cfg.growth_factor, n)
            stall += 1
        trace.append((rounds, threshold))

    return GasResult(
        best_bits=best_bits,
        best_cost=threshold,
        rounds=rounds,
        oracle_queries=queries,
        measurements=rounds,  # one key-register measurement per round
        stop_reason="stall" if stall >= cfg.stall_rounds else "max_rounds",
        threshold_trace=trace,
    )
