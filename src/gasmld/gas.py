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
readout, which ``circuits.fejer_upper_mass`` gives for all keys at once; on
a shift that falls exactly on a bin it reads 1 below zero, else 0.
Marked and unmarked components occupy disjoint value bins, so no cross terms
survive the marginalisation.  Both engines make the same draws from the
supplied generator (one integer for L, which reads nothing while k < 2,
and one uniform for the measurement per round), which makes their traces
directly comparable seed for seed.

A search runs on a ``SearchContext``, the one object per QUBO that every
search on it and both engines read: its read-only cost table, the exact cost
bounds and the scale, fixed when the context is built from the table, and
the config's value-register size m.  Every search on the same problem, such
as a sweep trial's random-start and warm-started search, runs on one
context, and a sweep builds it on its trial's row of the block's one
exhaustive pass, the row its exhaustive search reads.  The incumbent is a key index into the
table: each round compares the measured key's table entry with the
threshold, and the bits of the best key are decoded once, at return.  Per
threshold both engines read the context's shifted table
a_b = scale (E(b) - threshold).  The search encodes real costs only, as the
detection QUBO's Gaussian coefficients give: the scale maps the cost spread,
the widest shift an attained threshold can make, to 2^(m-2), so every
|a_b| <= 2^(m-2) stays clear of the sign boundary at 2^(m-1) whatever the
threshold, and nothing needs checking where a threshold moves.  So m is
fixed, not sized to the costs: costs scaled by a power of two (short of
overflow) give the same shifted table, bit for bit, and the same search.

One driver, ``run_searches``, runs a group of searches round by round
together under one ``GasConfig``, and ``run_gas`` is its group of one.  A
search is its context, its generator and its start: a warm start's bits, or
None for a uniform one.  Each running search makes its own two draws per
round from its own generator.  A search that drew L = 0 measures A|0>
itself, whose key register is uniform, P_0(b) = 2^-n (in the closed form
sin^2(alpha) / p0 = cos^2(alpha) / (1 - p0) = 1): its key is int(u 2^n),
the count of (b + 1) / 2^n at or below u, and it reads no engine.  The
running sums of the searches that rotate are drawn from in one
``qcore.sample_index`` call, one row per search.  So a search's draws, and
its result, are what it would reach alone.  An L = 0 key agrees with the
draw from the running sum of A|0>'s key marginal, which is uniform only up
to a few ulps, in practice, not by construction: the two could differ only
where u 2^n falls within a few ulps of an integer.

A round takes one of two paths, chosen by the group's size, which give
every search the same result and leave its generator in the same state.  A
group of fewer than ``_ARRAY_GROUP`` searches walks its running searches in
group order (``_run``), each decoding its draws from its own words
(``_Draws``) and updating its own scalars.  A larger group keeps its state
as arrays (``_run_arrays``): incumbent keys, thresholds, stall and query
counts, and each search's raw words, one row of a buffer (``_Words``).  A
round is then a fixed set of numpy calls over the running rows, whatever
their number: the rows' draws are decoded together, a row whose first
Lemire try may reject drawing again alone, the costs are gathered from the
group's stacked tables, the rows are updated by masks, and the round's
thresholds become one row of the trace.  An array round costs tens of
microseconds whatever its rows, a row of the loop a few, so the arrays pay
from about 64 searches, where the two paths were measured to cross at
n = 3; at n = 10 they tie up to 64, the most one sweep group holds there.
A one-worker fig2 block runs 384.  Both paths return ``GasResults``, arrays
from which a search's ``GasResult``, trace included, is built when read.

A search draws from a PCG64 generator, numpy's default, and any other is
refused before any search of the group draws.  Its draws are numpy's own,
bit for bit: a random start's n bits, ``integers(0, 2, size=n)``, then per
round L, ``integers(0, top + 1)`` with top = floor(k - 1), and u,
``random()``.  The driver decodes them from the raw words that each search
pulls from its generator a few at a time.  numpy takes a draw
on a range below 2^32 from one 32-bit half of a word, the low half of a
fresh word or else the high half carried from the last one: a start bit is
a half's top bit, and L is Lemire's multiply-and-reject on a half.  u is a
fresh word's top 53 bits over 2^53.  k is 1 after every improvement and
grows alike after each, so top is read off a table indexed by the rounds
since the last improvement (``rotation_tops``).  When the group returns,
each generator is left where numpy's own draws would leave it: its state,
read once when the search starts, is stepped past the words read, not
those pulled, and holds the carry that the draws leave, written back in
one assignment.

A threshold is prepared only when a round rotates a search whose
threshold moved: a search whose threshold moves is marked stale, and a
round that rotates a stale search prepares every stale search of the group
that still runs, in one good-mass call, so a group whose rounds all draw
L = 0 costs no preparation.  Each engine's group is built from the
searches' contexts and reads only what they hold.  The analytic engine
evolves the group's rotating rows as one stack (``_Lockstep``), prepared in
one good-mass call.  The statevector engine runs a group of one
(``_Slots``): its context's ``slot`` holds the latest rotated-at threshold's
A|0>, read-only, and the running sums already drawn there, per rotation
count L >= 1, so each (threshold, L) pair is evolved once however many
rounds draw it, and a search that starts where the previous one on the
context stopped reuses them.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .channel import bit_vector
from .circuits import GasCircuitSpec, apply_state_preparation, fejer_upper_mass, grover_power
from .qcore import CapacityError, MAX_QUBITS, register_distribution, sample_index, zero_state
from .qubo import bits_of

ENGINES = ("statevector", "analytic")


@dataclass
class GasConfig:
    """The schedule every search of a group runs under, the ``gas.*`` sweep
    keys; a search's generator and start are arguments of ``run_searches``.

    ``m`` is the value register's fixed size, an integer of at least 2: the
    scale maps any cost spread to 2^(m-2) bins.  ``encoding`` has one legal
    value, ``real_direct``: the search encodes real costs only.
    ``__post_init__`` only checks, so a caller can re-run it on a config
    whose fields were set after construction.
    """

    m: int = 12
    growth_factor: float = 8.0 / 7.0
    max_rounds: int = 50
    stall_rounds: int = 15
    encoding: str = "real_direct"
    engine: str = "statevector"

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 2:
            raise ValueError(f"value register needs at least 2 qubits, got m = {self.m!r}")
        if not isinstance(self.growth_factor, numbers.Real) or not self.growth_factor > 1.0:
            raise ValueError(f"growth factor must be a real number above 1, "
                             f"got {self.growth_factor!r}")
        for name in ("max_rounds", "stall_rounds"):
            cap = getattr(self, name)
            if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
                raise ValueError(f"{name} must be an int of at least 1, got {cap!r}")
        if self.encoding != "real_direct":
            raise ValueError(f"encoding {self.encoding!r} is not available: the search "
                             "encodes real costs only, use real_direct")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")


@dataclass(eq=False)
class GasResult:
    best_bits: np.ndarray
    best_cost: float
    rounds: int
    oracle_queries: int
    measurements: int
    stop_reason: str  # "stall": stall_rounds without improvement; "max_rounds": the round cap
    threshold_trace: list = field(default_factory=list)  # (round, threshold)


@dataclass(eq=False)
class GasResults:
    """A group's results as arrays, search i's in row i: the incumbents'
    ``bits`` (S, n) int8 and ``cost``, the ``rounds``, oracle ``queries``,
    whether a search ``stalled`` (else it met the round cap) and ``trace``
    (R + 1, S), the thresholds after rounds 0..R.  ``results[i]`` builds
    search i's ``GasResult`` when read; ``len`` and iteration read as a list."""
    bits: np.ndarray
    cost: np.ndarray
    rounds: np.ndarray
    queries: np.ndarray
    stalled: np.ndarray
    trace: np.ndarray

    def __len__(self) -> int:
        return self.cost.shape[0]

    def __getitem__(self, i: int) -> GasResult:
        # numpy's indexing counts negative indices from the end and raises IndexError past it
        k = int(self.rounds[i])  # the search's rounds, one key-register measurement each
        return GasResult(self.bits[i], float(self.cost[i]), k, int(self.queries[i]), k,
                         "stall" if self.stalled[i] else "max_rounds",
                         list(enumerate(self.trace[:k + 1, i].tolist())))


_LOW = 0xFFFFFFFF  # a 32-bit half of a raw word
_ULP = 2.0 ** -53
_CHUNK = 8  # raw words a search pulls from its generator at a time
_ROW_WORDS = 32  # raw words a search of an array group pulls at a time, its row of the buffer
# The fewest searches whose group runs its rounds as arrays: the two round
# paths' measured crossover at n = 3 (at n = 10 they tie up to 64)
_ARRAY_GROUP = 64
_LCG_MASK = (1 << 128) - 1  # PCG64 steps a 128-bit LCG state


def _lcg_steps() -> list:
    """(a, b) for 2^j steps of PCG64's LCG, j = 0..127: those steps take
    the state s with increment inc to a s + b inc mod 2^128."""
    a, b, steps = 0x2360ED051FC65DA44385DF649FCCF645, 1, []  # one step: s -> a s + inc
    for _ in range(128):
        steps.append((a, b))
        a, b = a * a & _LCG_MASK, (a + 1) * b & _LCG_MASK
    return steps


_LCG_STEPS = _lcg_steps()


class _Draws:
    """A search's draws from its PCG64 generator, decoded from the raw words
    it pulls ``_CHUNK`` at a time, bit for bit numpy's own: ``bits(n)`` is
    ``integers(0, 2, size=n)``, and ``round(top)`` is a round's
    ``integers(0, top + 1)`` and ``random()``.  numpy hands a draw on a
    range below 2^32 one 32-bit half of a word: the low half of a fresh
    word, or else the high half that the last fresh word left, the carry
    (the state's ``has_uint32`` and ``uinteger``, read once, here), which
    ``random()`` neither reads nor clears.  The generator runs ahead of the
    draws until ``release`` leaves it where numpy's own draws would: the
    state read here stepped past the words read, holding the carry they
    leave, written back in one assignment."""

    __slots__ = ("_bg", "_held", "_pulled", "_words", "_at", "_has", "_carry")

    def __init__(self, rng: np.random.Generator):
        bg = getattr(rng, "bit_generator", None)
        if not isinstance(bg, np.random.PCG64):
            raise ValueError("a search decodes its draws from the raw words of a PCG64 "
                             f"generator, got {type(bg if bg is not None else rng).__name__}")
        state = bg.state
        self._bg = bg
        self._has, self._carry = state["has_uint32"], state["uinteger"]
        # the LCG state and increment the generator holds until released
        self._held = (state["state"]["state"], state["state"]["inc"])
        self._pulled = 0  # the words pulled since then
        self._words, self._at = [], 0  # the pulled words, and the index of the next unread one

    def pull(self, count: int) -> np.ndarray:
        """The generator's next ``count`` raw words."""
        self._pulled += count
        return self._bg.random_raw(count)

    def _word(self) -> int:
        at = self._at
        if at == len(self._words):
            self._words, at = self.pull(_CHUNK).tolist(), 0
        self._at = at + 1
        return self._words[at]

    def _half(self) -> int:
        if self._has:
            self._has = 0
            return self._carry
        word = self._word()
        self._has, self._carry = 1, word >> 32
        return word & _LOW

    def bits(self, n: int) -> list:
        """``integers(0, 2, size=n)``: Lemire's draw on a range of 2, which
        never rejects, is the top bit of one half."""
        return [self._half() >> 31 for _ in range(n)]

    def round(self, top: int) -> tuple[int, float]:
        """One round's draws: L, ``integers(0, top + 1)`` for 0 <= top <
        2^32, which draws nothing at top = 0, by Lemire's multiply-and-reject
        on one half per try, as numpy draws it; then u, ``random()``, a fresh
        word's top 53 bits over 2^53.  ``_half`` and ``_word`` are inlined
        on the first try: every running search draws a round each round."""
        words, at = self._words, self._at
        L = 0
        if top:
            span = top + 1
            if self._has:
                self._has = 0
                m = self._carry * span
            else:
                if at == len(words):
                    self._words = words = self.pull(_CHUNK).tolist()
                    at = 0
                word = words[at]
                at += 1
                self._has, self._carry = 1, word >> 32
                m = (word & _LOW) * span
            if m & _LOW < span:  # only a low part below span can need a retry
                self._at = at
                floor = (_LOW - top) % span  # 2^32 mod span
                while m & _LOW < floor:
                    m = self._half() * span
                words, at = self._words, self._at
            L = m >> 32
        if at == len(words):
            self._words = words = self.pull(_CHUNK).tolist()
            at = 0
        self._at = at + 1
        return L, (words[at] >> 11) * _ULP

    def release(self) -> None:
        """Leave the generator where numpy's own draws would: its state,
        as read, stepped once per word read, with the carry they leave."""
        s, inc = self._held
        read = self._pulled - (len(self._words) - self._at)
        for a, b in _LCG_STEPS[:read.bit_length()]:
            if read & 1:
                s = (a * s + b * inc) & _LCG_MASK
            read >>= 1
        self._bg.state = {"bit_generator": "PCG64", "state": {"state": s, "inc": inc},
                          "has_uint32": self._has, "uinteger": self._carry}
        self._held, self._pulled, self._words, self._at = (s, inc), 0, [], 0


class _Words:
    """The draws of an array group's searches, ``_Draws``' state for every
    search at once: an (S, ``_ROW_WORDS``) buffer of raw words, one row per
    search, with each row's read position and carry.  A search pulls a
    whole row from its generator at a time, when its row runs out.
    ``bits`` and ``round`` make each asked-for row's draws, bit for bit
    ``_Draws.bits`` and ``_Draws.round``, and ``settle`` hands each row back
    to its ``_Draws``, whose ``release`` leaves the generator where numpy's
    own draws would."""

    def __init__(self, draws: list):
        self._draws = draws
        self._buf = np.array([d.pull(_ROW_WORDS) for d in draws], dtype=np.uint64)
        self._flat = self._buf.reshape(-1)
        width = self._buf.shape[1]
        self._end = np.arange(1, len(draws) + 1) * width  # each row's end in ``_flat``
        self._at = self._end - width  # each row's next unread word in ``_flat``
        self._has = np.array([d._has for d in draws], dtype=bool)
        self._carry = np.array([d._carry for d in draws], dtype=np.uint64)

    def _words(self, rows: np.ndarray) -> np.ndarray:
        """Each row's next fresh word."""
        at = self._at[rows]
        out = at == self._end[rows]
        if np.count_nonzero(out):
            width = self._buf.shape[1]
            for i in rows[out].tolist():
                self._buf[i] = self._draws[i].pull(width)
            at[out] -= width
        self._at[rows] = at + 1
        return self._flat[at]

    def _halves(self, rows: np.ndarray) -> np.ndarray:
        """Each row's next 32-bit half: its carry, or else the low half of
        a fresh word, whose high half it then carries."""
        has = self._has[rows]
        half = self._carry[rows]
        fresh = ~has
        pulled = rows[fresh]
        word = self._words(pulled)
        half[fresh] = word & _LOW
        self._carry[pulled] = word >> 32
        self._has[rows] = fresh
        return half

    def bits(self, rows: np.ndarray, n: int) -> np.ndarray:
        """Each row's ``integers(0, 2, size=n)``, (rows, n): the top bit of
        each of its next n halves."""
        return np.array([self._halves(rows) >> 31 for _ in range(n)], dtype=np.int64).T

    def round(self, rows: np.ndarray, top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's round draws, as ``_Draws.round`` makes them at its
        ``top`` (uint64): L, by Lemire's multiply-and-reject on the row's
        next half where top > 0, and u's word, u = (word >> 11) 2^-53.  A
        row whose first try may reject draws again alone."""
        L = np.zeros(rows.size, dtype=np.int64)
        draw = top.nonzero()[0]  # top = 0 draws nothing
        if draw.size:
            span = top[draw] + 1
            m = self._halves(rows[draw]) * span
            L[draw] = m >> 32
            for j in (m & _LOW < span).nonzero()[0].tolist():  # only these can need a retry
                s, m_j = int(span[j]), int(m[j])
                floor = (_LOW - s + 1) % s  # 2^32 mod span
                while m_j & _LOW < floor:
                    m_j = int(self._halves(rows[draw[j:j + 1]])[0]) * s
                L[draw[j]] = m_j >> 32
        return L, self._words(rows)

    def settle(self) -> None:
        """Hand each row's words, read position and carry to its ``_Draws``."""
        at = (self._at - self._end + self._buf.shape[1]).tolist()
        for d, words, at, has, carry in zip(self._draws, self._buf, at, self._has.tolist(),
                                            self._carry.tolist()):
            d._words, d._at, d._has, d._carry = words, at, int(has), carry


def cost_bounds(costs: np.ndarray) -> tuple[float, float]:
    """Exact lower/upper bounds on the cost: the least and greatest entry of
    the cost table."""
    return float(costs.min()), float(costs.max())


def check_registers(n: int, cfg: GasConfig) -> None:
    """Raise the errors of a search on n key bits under ``cfg`` that need
    no cost table, so a caller can raise them before it builds one: no key
    qubit, or n key and ``cfg.m`` value qubits over the qubit cap."""
    if n < 1:
        raise ValueError("need at least one key qubit")
    if n + cfg.m > MAX_QUBITS:
        raise CapacityError(f"{n} key + {cfg.m} value qubits exceed the {MAX_QUBITS}-qubit cap")


class SearchContext:
    """The search work of one QUBO, built once from its cost table
    ``costs`` (the cost of every key, 2^n entries, as ``qubo.cost_chunks``
    gives a row) for the ``m`` and engine of ``cfg``, and read by every
    search on it and by both engines' groups: a read-only view of the table,
    ``costs``, its exact ``bounds``, the config's value-register size ``m``
    and the ``scale`` that maps the bounds' spread to 2^(m-2).  ``slot`` is
    the statevector engine's one threshold slot (see ``_Slots``), None until
    a round rotates."""

    def __init__(self, costs: np.ndarray, cfg: GasConfig):
        costs = np.asarray(costs, dtype=float)
        n = costs.size.bit_length() - 1
        if costs.ndim != 1 or costs.size < 1 or costs.size != 1 << n:
            raise ValueError("a cost table holds one cost per key, 2^n entries")
        check_registers(n, cfg)
        self.n = n
        self.settings = (cfg.m, cfg.engine)
        self.costs = costs.view()
        self.costs.flags.writeable = False  # shared by every search and group row on the context
        self.bounds = cost_bounds(self.costs)
        lo, hi = self.bounds
        if not (math.isfinite(lo) and math.isfinite(hi)):  # min and max propagate NaN
            raise ValueError("a cost table must be finite")
        self.m = cfg.m
        # the widest shift, the cost spread, maps to 2^{m-2}: the window's middle half
        self.scale = float(2 ** (self.m - 2)) / (hi - lo) if hi > lo else 1.0
        self.slot = None

    def shifted(self, threshold: float) -> np.ndarray:
        """a_b = scale (E(b) - threshold) for every key."""
        return self.scale * (self.costs - threshold)


def _prepare(shifted: np.ndarray, m: int):
    """A|0> for the shifted cost table on m value qubits, read-only, with
    its circuit spec."""
    spec = GasCircuitSpec(shifted.shape[0].bit_length() - 1, m, shifted)
    base = apply_state_preparation(zero_state(spec.total_qubits), spec)
    base.amps.flags.writeable = False
    return spec, base


def _evolve(prepared, L: int) -> np.ndarray:
    """The key distribution after L Grover iterations on ``_prepare``'s A|0>."""
    spec, base = prepared
    # the cached A|0> is the reflection axis; only L > 0 needs a working copy
    state = grover_power(base.copy() if L else base, spec, L, axis=base.amps)
    return register_distribution(state, spec.key_register)


class _Slots:
    """The running sums of a group on the statevector engine: each row reads
    its own context's threshold slot, so a group holds one search.  A row
    moves to its threshold by the first round that rotates there, and
    ``cumulative`` prepares the slot's A|0> on its first call there.

    A context's ``slot`` is (threshold, (spec, A|0>), {L: running sum}): the
    latest rotated-at threshold's A|0>, read-only, as every search on the
    context reads it, and beside it, per rotation count already drawn at
    that threshold, the read-only running sum of the key distribution, which
    is all a draw reads.  So a later round with the same (threshold, L), in
    this search or in a later one on the context, reads the same array, and
    every trace is what re-evaluating it would give.  A round asks only for
    L >= 1 (an L = 0 round draws its key without a state), and
    1 <= L < k <= sqrt(2^n), so the slot holds at most floor(2^(n/2)) - 1
    sums of 2^n float64 entries; with the default growth 8/7 the at most
    stall_rounds = 15 rounds a search runs at one threshold reach only
    k < 6.5, so five."""

    def __init__(self, ctxs):
        self._ctxs = ctxs
        self._at = [None] * len(ctxs)  # each row's threshold

    def move(self, rows: list, thresholds: list) -> None:
        for r, t in zip(rows, thresholds):
            self._at[r] = t

    def sums(self, rows: list, L: list) -> np.ndarray:
        return np.array([self.cumulative(self._ctxs[r], self._at[r], l) for r, l in zip(rows, L)])

    @staticmethod
    def cumulative(ctx: SearchContext, threshold: float, L: int) -> np.ndarray:
        """The running sum of the key distribution after L rotations at
        ``threshold``, what ``qcore.sample_index`` draws from, off the
        context's slot, which first prepares ``threshold`` if it holds
        another."""
        if ctx.slot is None or ctx.slot[0] != threshold:
            ctx.slot = None  # release the old preparation before building the next
            ctx.slot = (threshold, _prepare(ctx.shifted(threshold), ctx.m), {})
        _, prepared, sums = ctx.slot
        if L not in sums:
            sums[L] = np.cumsum(_evolve(prepared, L))
            sums[L].flags.writeable = False  # shared by every later round with this L
        return sums[L]


class _Lockstep:
    """The running sums of a group on the analytic engine, every row at once.

    Each row keeps its threshold's weights w_good and w_bad (see the module
    docstring), read off its context's shifted table, in one (2, S, 2^n)
    stack, with p0 and 1 - p0 beside them.  The driver moves the stale
    rows, those whose threshold no preparation has read, in a round that
    rotates one of them: every stale row that still runs moves, shifted by
    ``SearchContext.shifted``'s operations in one broadcast off the stacked
    ``table``, and they are prepared together in one ``fejer_upper_mass``
    call, since a key's mass does not depend on the other keys of the call.
    A round evolves the rows it rotates as one stack, one row-wise
    ``cumsum``.  Every row's arithmetic is the one-search closed form's,
    operation for operation: the squares of sin and cos go through
    ``np.float_power``, which rounds as the scalar ``**`` does, where the
    array ``**`` (x * x) differs in about 0.1% of angles."""

    def __init__(self, ctxs, table=None):
        if table is None:  # a group of one reads its context's table, not a copy
            table = ctxs[0].costs[None] if len(ctxs) == 1 else np.stack([c.costs for c in ctxs])
        self._table = table
        self._scale = np.array([ctx.scale for ctx in ctxs])
        self._m = ctxs[0].m  # a group's contexts share the config's m
        self._weights = np.empty((2, *self._table.shape))  # w_good, w_bad
        self._split = np.empty((2, len(ctxs)))  # p0 and 1 - p0, the divisors of w_good and w_bad
        self._alpha = np.empty(len(ctxs))  # arcsin(sqrt(p0))
        self._at = np.full(len(ctxs), np.nan)  # each row's threshold

    def move(self, rows, thresholds) -> None:
        shifted = self._scale[rows, None] * (self._table[rows] - np.asarray(thresholds)[:, None])
        w_good = fejer_upper_mass(shifted.ravel(), self._m).reshape(shifted.shape)
        n_keys = w_good.shape[1]
        w_good /= n_keys
        self._weights[0, rows] = w_good
        p0 = np.clip(w_good.sum(axis=1), 0.0, 1.0)
        np.subtract(1.0 / n_keys, w_good, out=w_good)  # now w_bad
        self._weights[1, rows] = np.maximum(w_good, 0.0, out=w_good)
        # p0 = 0 only where every w_good is 0, and there alpha = 0: over a
        # divisor of 1 the row reads w_bad, the one-search form's
        # w_good + w_bad.  p0 stays below 1, as the incumbent's own key,
        # shifted to 0, reads no mass.
        self._split[0, rows] = np.where(p0 > 0.0, p0, 1.0)
        self._split[1, rows] = 1.0 - p0
        self._alpha[rows] = np.arcsin(np.sqrt(p0))
        self._at[rows] = thresholds

    def sums(self, rows, L) -> np.ndarray:
        angle = (2 * np.asarray(L) + 1) * self._alpha[rows]
        scale = np.empty((2, len(rows), 1))
        np.sin(angle, out=scale[0, :, 0])
        np.cos(angle, out=scale[1, :, 0])
        np.float_power(scale, 2, out=scale)
        dist = self._weights[:, rows]
        dist *= scale
        dist /= self._split[:, rows, None]
        return np.add(dist[0], dist[1], out=dist[0]).cumsum(axis=1)


def run_gas(ctx: SearchContext, cfg: GasConfig, rng: np.random.Generator, start=None) -> GasResult:
    """One search on the context ``ctx`` from ``start``, drawing from ``rng``
    only: the group of one of ``run_searches``."""
    return run_searches(cfg, [(ctx, rng, start)])[0]


def run_searches(cfg: GasConfig, searches) -> GasResults:
    """Run a group of searches, ``(ctx, rng, start)`` each, round by round
    together under ``cfg``; see the module docstring.  ``start`` is n bits,
    whose cost is the first threshold, or None for a uniform start.  The
    contexts share n and were built for the m and engine of ``cfg``, and
    each search draws from its own generator only, so its result is the one
    it would reach alone: row i of the ``GasResults`` returned, whose
    ``results[i]`` builds its ``GasResult``, trace included, on demand."""
    if not searches:
        raise ValueError("a group needs at least one search")
    ctxs, rngs, starts = zip(*searches)
    n = ctxs[0].n
    asked = (cfg.m, cfg.engine)
    for ctx in ctxs:
        if asked != ctx.settings:
            raise ValueError(f"search asks for (m, engine) = {asked}, "
                             f"the context was built for {ctx.settings}")
        if ctx.n != n:
            raise ValueError("a group's searches share the key count")
    if len({id(rng) for rng in rngs}) < len(rngs):
        raise ValueError("each search of a group needs its own generator")
    given = [np.asarray(s) for s in starts if s is not None]
    if given:
        message = "warm start must be a flat 0/1 vector"
        if any(s.ndim != 1 for s in given):
            raise ValueError(message)
        bits = bit_vector(np.concatenate(given), message)  # one check for the group's warm starts
        if any(s.shape[0] != n for s in given):
            raise ValueError("warm start length does not match problem size")
        rows = iter(bits.reshape(-1, n))
        starts = [s if s is None else next(rows) for s in starts]

    draws = [_Draws(rng) for rng in rngs]  # each generator is checked before any draw
    try:
        return (_run if len(draws) < _ARRAY_GROUP else _run_arrays)(cfg, ctxs, draws, starts)
    finally:
        for d in draws:
            d.release()


def rotation_tops(cfg: GasConfig, n: int) -> list:
    """floor(k - 1), the top of a round's L, after s = 0, 1, ... rounds
    without improvement: k is 1 at s = 0, as an improvement resets it, and
    then min(growth_factor k, sqrt(2^n)).  The table stops where k reaches
    sqrt(2^n), so a later s reads its last entry, or where s reaches a
    round cap, past which no round runs."""
    cap = math.sqrt(2.0 ** n)
    k, tops = 1.0, [0]
    while k < cap and len(tops) < min(cfg.stall_rounds, cfg.max_rounds):
        k = min(cfg.growth_factor * k, cap)
        tops.append(math.floor(k - 1.0))
    return tops


def _run(cfg: GasConfig, ctxs, draws: list, starts: list) -> GasResults:
    """``run_searches``' rounds for a group of fewer than ``_ARRAY_GROUP``
    searches, one search at a time, from each search's start."""
    n, S = ctxs[0].n, len(ctxs)
    # the incumbent is a key index; a random start is still drawn as n
    # bits, the draw that every seeded sweep's stream goes through
    starts = [d.bits(n) if s is None else s for s, d in zip(starts, draws)]
    best = (np.array(starts) @ (1 << np.arange(n))).tolist()
    threshold = [ctx.costs.item(b) for ctx, b in zip(ctxs, best)]  # always the cost of best
    trace = threshold.copy()  # every search's threshold, round by round, flat
    group = (_Slots if cfg.engine == "statevector" else _Lockstep)(ctxs)
    stale = set(range(S))  # the searches whose threshold the group has not prepared
    queries, stall, rounds = [0] * S, [0] * S, [0] * S
    tops = rotation_tops(cfg, n)
    size = len(tops)
    n_keys = 1 << n
    rows, r = list(range(S)), 0  # the searches still running, and the round they run
    while rows:
        r += 1
        L, u = [], []
        for i in rows:
            s = stall[i]
            L_i, u_i = draws[i].round(tops[s] if s < size else tops[-1])
            L.append(L_i)
            u.append(u_i)
        keys = [int(x * n_keys) for x in u]  # L = 0: the uniform key of A|0>
        turn = [j for j, l in enumerate(L) if l]
        if turn:
            rotating = [rows[j] for j in turn]
            if not stale.isdisjoint(rotating):  # then every stale row moves, in one call
                fresh = [i for i in rows if i in stale]
                group.move(fresh, [threshold[i] for i in fresh])
                stale.difference_update(fresh)
            drawn = sample_index(group.sums(rotating, [L[j] for j in turn]),
                                 np.array([u[j] for j in turn]))
            for j, key in zip(turn, drawn.tolist()):
                keys[j] = key
        running = []
        for i, L_i, key in zip(rows, L, keys):
            cost = ctxs[i].costs.item(key)
            queries[i] += L_i
            better = cost < threshold[i]
            if better:
                threshold[i], best[i], stall[i] = cost, key, 0
            else:
                stall[i] += 1
            if r < cfg.max_rounds and stall[i] < cfg.stall_rounds:
                running.append(i)
                if better:  # the next round runs at the new threshold
                    stale.add(i)
            else:
                rounds[i] = r
        trace += threshold
        rows = running
    return GasResults(bits_of(best, n), np.array(threshold), np.array(rounds), np.array(queries),
                      np.array(stall) >= cfg.stall_rounds, np.array(trace).reshape(-1, S))


def _run_arrays(cfg: GasConfig, ctxs, draws: list, starts: list) -> GasResults:
    """``_run``'s rounds for a group of at least ``_ARRAY_GROUP`` searches,
    each round a fixed set of numpy calls over the running searches, with
    the draws of ``_Words``: a random start's n bits, then per round L and
    u, and the rows' updates by masks.  Each round's thresholds go into one
    row of the trace."""
    n, S = ctxs[0].n, len(ctxs)
    words = _Words(draws)
    try:
        uniform = np.array([i for i, s in enumerate(starts) if s is None], dtype=np.intp)
        drawn = iter(words.bits(uniform, n) if uniform.size else ())
        start = np.array([next(drawn) if s is None else s for s in starts], dtype=np.int64)
        best = start @ (1 << np.arange(n))
        table = np.stack([ctx.costs for ctx in ctxs])  # the engine's stack too, built once
        threshold = table[np.arange(S), best]  # always the cost of best
        trace = [threshold.copy()]
        group = _Slots(ctxs) if cfg.engine == "statevector" else _Lockstep(ctxs, table)
        stale = np.ones(S, dtype=bool)  # the searches whose threshold the group has not prepared
        queries, stall, rounds = (np.zeros(S, dtype=np.int64) for _ in range(3))
        tops = np.array(rotation_tops(cfg, n), dtype=np.uint64)  # read with indices clipped
        rows, r = np.arange(S), 0  # the searches still running, and the round they run
        while rows.size:
            r += 1
            L, word = words.round(rows, np.take(tops, stall[rows], mode="clip"))
            keys = (word >> (64 - n)).astype(np.intp)  # L = 0: int(u 2^n), the uniform key of A|0>
            turn = L.nonzero()[0]
            if turn.size:
                rotating = rows[turn]
                if np.count_nonzero(stale[rotating]):  # then every stale row moves, in one call
                    fresh = rows[stale[rows]]
                    group.move(fresh, threshold[fresh])
                    stale[fresh] = False
                keys[turn] = sample_index(group.sums(rotating, L[turn]), (word[turn] >> 11) * _ULP)
                queries[rotating] += L[turn]
            cost = table[rows, keys]
            better = cost < threshold[rows]
            won = rows[better]
            threshold[won], best[won] = cost[better], keys[better]
            stall[rows] += 1
            stall[won] = 0
            stale[won] = True  # the next round runs at the new threshold
            rounds[rows] = r
            trace.append(threshold.copy())
            if r == cfg.max_rounds:
                break
            rows = rows[stall[rows] < cfg.stall_rounds]
    finally:
        words.settle()
    return GasResults(bits_of(best, n), threshold, rounds, queries, stall >= cfg.stall_rounds,
                      np.stack(trace))
