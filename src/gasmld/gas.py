"""Adaptive threshold search over QUBO costs with amplitude amplification.

The driver repeats: sample a rotation count L from the current schedule,
amplify states whose encoded cost falls below the incumbent threshold,
measure the key register, and look the candidate's cost up classically.  An
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
negative encoded value, 2^-n times the upper-half mass of the key's Fejer
readout, which ``circuits.fejer_upper_mass`` gives for all keys at once.
Marked and unmarked components occupy disjoint value bins, so no cross terms
survive the marginalisation.  Both engines draw identically from the
supplied generator (one integer for L, one uniform for the measurement per
round), which makes their traces directly comparable seed for seed.

A search computes its cost table once and takes the exact cost bounds, the
automatic value-register size, the real-encoding scale and both engines'
input from it.  The incumbent is a key index into that table: each round
compares the measured key's table entry with the threshold, and the bits of
the best key are decoded once, at return.  Per threshold both engines read
the same shifted table a_b = scale (E(b) - threshold), checked once against
the integer encoding, and a one-slot cache holds the latest threshold's
preparation: the statevector engine's A|0>, the analytic engine's w_good,
w_bad, p0.  Beside it the cache keeps the key distribution of each rotation
count already drawn at that threshold, so a search evolves each
(threshold, L) pair once however many rounds draw it.
"""

from dataclasses import dataclass, field

import numpy as np

from .circuits import GasCircuitSpec, apply_state_preparation, fejer_upper_mass, grover_power
from .qcore import CapacityError, MAX_QUBITS, register_distribution, sample_index, zero_state
from .qubo import QuboProblem, bits_of, evaluate_all_costs

ENCODINGS = ("integer", "real_direct")
ENGINES = ("statevector", "analytic")


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


@dataclass(eq=False)
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


def cost_bounds(costs: np.ndarray) -> tuple[float, float]:
    """Exact lower/upper bounds on the cost: the least and greatest entry of
    the cost table."""
    return float(costs.min()), float(costs.max())


def required_value_qubits(n: int, bounds: tuple[float, float], encoding: str) -> int:
    """Smallest value register that cannot alias any shifted cost of an
    n-bit problem whose ``cost_bounds`` are ``bounds``.

    Thresholds are always attained costs, so the worst shift spans
    [lo - hi, hi - lo].  Integer encoding needs the exact span strictly
    inside the signed window; real encoding reserves a factor-2 margin so
    spectral side lobes stay clear of the sign boundary.  The search stops
    at the qubits the engine cap leaves beside the n key qubits.
    """
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown encoding {encoding!r}")
    lo, hi = bounds
    spread = hi - lo
    # half the window, 2^{m-1}, must hold spread + 1 (integer) or 2 * spread (real)
    need = spread + 1.0 if encoding == "integer" else 2.0 * spread
    for m in range(2, MAX_QUBITS - n + 1):
        if (1 << (m - 1)) >= need:
            return m
    raise CapacityError(f"cost spread {spread:g} needs more than {MAX_QUBITS - n} value qubits")


class _Engine:
    """One search's setup and the threshold cache both engines share: a
    subclass supplies ``_prepare(shifted)``, run once per threshold on the
    shifted cost table, and ``_evolve(prepared, L)``, the key distribution
    after L rotations.

    The cache holds one threshold's preparation and, per rotation count L
    drawn at that threshold, the distribution ``_evolve`` returned, read-only:
    a later round with the same (threshold, L) reads the same array, so every
    draw, and hence every trace, is what re-evaluating it would give.  Both
    are dropped when the threshold falls.  At most stall_rounds rounds run at
    one threshold and L < k <= sqrt(2^n), so the memo holds at most
    min(stall_rounds, max_rounds, floor(2^(n/2))) float64 arrays of 2^n
    entries: two 8-entry arrays at n = 3, and at n = 10 with the default
    caps fifteen, 120 KiB."""

    def __init__(self, costs: np.ndarray, m: int, encoding: str, scale: float):
        self._costs = costs  # the search's cost table, indexed by key
        self._m = m
        self._encoding = encoding
        self._scale = scale
        # (threshold, prepared, {L: key distribution}): the threshold only ever falls
        self._cache = None

    def key_distribution(self, threshold: float, L: int) -> np.ndarray:
        if self._cache is None or self._cache[0] != threshold:
            self._cache = None  # release the old preparation before building the next
            self._cache = (threshold, self._prepare(self._shifted(threshold)), {})
        _, prepared, evolved = self._cache
        if L not in evolved:
            evolved[L] = self._evolve(prepared, L)
            evolved[L].flags.writeable = False  # shared by every later round with this L
        return evolved[L]

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
        n_keys = shifted.shape[0]
        if self._encoding == "integer":
            # an exact bin inside the signed window reads negative iff it is
            w_good = (shifted < 0).astype(float)
        else:
            w_good = fejer_upper_mass(shifted, self._m)
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
    if cfg.warm_start is not None and cfg.warm_start.shape[0] != n:
        raise ValueError("warm start length does not match problem size")
    # checked before the 2^n table is built; the automatic m takes at least 2 qubits
    least_m = cfg.m if cfg.m is not None else 2
    if n + least_m > MAX_QUBITS:
        raise CapacityError(f"{n} key + {least_m} value qubits exceed the {MAX_QUBITS}-qubit cap")
    # the one cost table of this search: bounds, auto m, scale, engine input
    # and every cost the search compares
    costs = evaluate_all_costs(q)
    lo, hi = cost_bounds(costs)
    m = cfg.m if cfg.m is not None else required_value_qubits(n, (lo, hi), cfg.encoding)
    # integer mode encodes costs verbatim; real mode stretches the worst-case
    # shifted range onto [-2^{m-2}, 2^{m-2}], half the representable window
    scale = 1.0
    if cfg.encoding == "real_direct" and hi > lo:
        scale = float(2 ** (m - 2)) / (hi - lo)
    engine_cls = _StatevectorEngine if cfg.engine == "statevector" else _AnalyticEngine
    engine = engine_cls(costs, m, cfg.encoding, scale)

    # the incumbent is a key index; a random start is still drawn as n bits,
    # the draw that every seeded sweep's stream goes through
    bits = cfg.warm_start if cfg.warm_start is not None else rng.integers(0, 2, size=n)
    best = int(bits @ (1 << np.arange(n)))
    threshold = float(costs[best])  # always the cost of best
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
        if costs[idx] < threshold:
            threshold = float(costs[idx])
            best = idx
            k = 1.0
            stall = 0
        else:
            k = grow_k(k, cfg.growth_factor, n)
            stall += 1
        trace.append((rounds, threshold))

    return GasResult(
        best_bits=bits_of(best, n),
        best_cost=threshold,
        rounds=rounds,
        oracle_queries=queries,
        measurements=rounds,  # one key-register measurement per round
        stop_reason="stall" if stall >= cfg.stall_rounds else "max_rounds",
        threshold_trace=trace,
    )
