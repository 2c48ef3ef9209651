"""Adaptive search driver: schedule, sizing, draws, traces, engine agreement."""

import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gasmld.circuits
import gasmld.gas
import gasmld.qubo
from gasmld.gas import (
    _ARRAY_GROUP,
    ENGINES,
    GasConfig,
    SearchContext,
    _Draws,
    _Lockstep,
    _Slots,
    _Words,
    _evolve,
    _prepare,
    check_registers,
    cost_bounds,
    rotation_tops,
    run_gas,
    run_searches,
)
from gasmld.qcore import CapacityError, register_distribution
from gasmld.qubo import QuboProblem, evaluate_all_costs, evaluate_cost, mld_to_qubo, MldInstance
from gasmld.channel import circulant_matrix
from gasmld.circuits import fejer_distribution

from oracles import (brute_force_min, grow_k, reference_run_gas, reference_running_sum,
                     replayed_rotation_counts, sample_rotation_count)


def search(q, cfg, rng, start=None):
    """One search on a fresh context of ``q``, from ``start``."""
    return run_gas(SearchContext(evaluate_all_costs(q), cfg), cfg, rng, start)


def reader(ctx):
    """The key distribution that a search on the context ``ctx`` draws from
    at (threshold, L), read off the running sums of one group of one
    search, which keeps whatever it holds from one threshold to the next."""
    _, engine = ctx.settings
    group = (_Slots if engine == "statevector" else _Lockstep)([ctx])

    def distribution(threshold, L):
        group.move([0], [float(threshold)])
        return np.diff(group.sums([0], [L])[0], prepend=0.0)

    return distribution


def distribution(ctx, threshold, L):
    """The key distribution a search on ``ctx`` draws from at (threshold, L)."""
    return reader(ctx)(threshold, L)


def contexts(q, **settings):
    """One context of ``q`` per engine, statevector first."""
    return [SearchContext(evaluate_all_costs(q), GasConfig(engine=engine, **settings))
            for engine in ENGINES]


def toy_problem():
    # E(b) = (2b - 4)^2: E(0)=16, E(1)=4
    return QuboProblem(Q=np.array([[4.0]]), c=np.array([-16.0]), offset=16.0)


def random_integer_qubo(rng, n=3, span=4):
    upper = np.triu(rng.integers(-span, span + 1, size=(n, n)).astype(float), k=1)
    Q = upper + upper.T + np.diag(rng.integers(-span, span + 1, size=n).astype(float))
    c = rng.integers(-span, span + 1, size=n).astype(float)
    return QuboProblem(Q=Q, c=c, offset=float(rng.integers(0, span)))


def random_real_qubo(rng, n):
    upper = np.triu(rng.normal(size=(n, n)), k=1)
    return QuboProblem(Q=upper + upper.T + np.diag(rng.normal(size=n)), c=rng.normal(size=n),
                       offset=float(rng.normal()))


def test_rotation_count_singleton():
    rng = np.random.default_rng(0)
    assert all(sample_rotation_count(1.0, rng) == 0 for _ in range(20))
    with pytest.raises(ValueError):
        sample_rotation_count(0.99, rng)


def test_rotation_count_uniform():
    rng = np.random.default_rng(1)
    draws = np.array([sample_rotation_count(2.0, rng) for _ in range(10_000)])
    assert set(draws) == {0, 1}
    assert abs(np.mean(draws == 0) - 0.5) < 0.02


def test_rotation_count_support():
    rng = np.random.default_rng(2)
    draws = {sample_rotation_count(3.5, rng) for _ in range(5_000)}
    assert draws == {0, 1, 2}


def test_growth_schedule():
    lam, cap = 8.0 / 7.0, np.sqrt(8.0)
    k = grow_k(1.0, lam, cap)
    assert k == pytest.approx(lam)
    for _ in range(100):
        k = grow_k(k, lam, cap)
    assert k == pytest.approx(np.sqrt(8.0))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 24), growth_factor=st.sampled_from([8.0 / 7.0, 1.0001, 2.0, math.inf])
       | st.floats(1.0, 10.0, exclude_min=True), stall_rounds=st.integers(1, 80),
       max_rounds=st.integers(1, 80))
def test_rotation_tops_follow_the_schedule(n, growth_factor, stall_rounds, max_rounds):
    # the top of a round's L after s rounds without improvement is floor(k - 1)
    # of the k that grow_k reaches in s steps from 1, for every s a round runs at
    cfg = GasConfig(growth_factor=growth_factor, stall_rounds=stall_rounds, max_rounds=max_rounds)
    tops = rotation_tops(cfg, n)
    assert 1 <= len(tops) <= min(stall_rounds, max_rounds)
    k = 1.0
    for s in range(min(stall_rounds, max_rounds)):
        assert tops[min(s, len(tops) - 1)] == math.floor(k - 1.0)
        k = grow_k(k, growth_factor, math.sqrt(2.0 ** n))


CARRIES = ("none", "held", "spent")
# tops where Lemire's draw rejects often: 2^32 mod (top + 1) is about half,
# a quarter and a third of 2^32; and the widest ranges
HARD_TOPS = (2**31, 3 * 2**30, 5 * 2**29 + 7, 2**32 - 2, 2**32 - 1)


def _carrying(seed: int, carry: str) -> np.random.Generator:
    """A PCG64 generator of ``seed`` after a few draws, which leave it with
    no carried half ("none"), a carried half ("held") or a spent one,
    has_uint32 = 0 beside a non-zero uinteger ("spent")."""
    rng = np.random.default_rng(seed)
    rng.random()
    rng.integers(0, 2, size=CARRIES.index(carry))
    return rng


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), carry=st.sampled_from(CARRIES),
       tops=st.lists(st.integers(0, 40) | st.integers(1, 2**32 - 2) | st.sampled_from(HARD_TOPS),
                     min_size=1, max_size=40))
def test_round_draws_are_numpys(seed, carry, tops):
    # each round's L and u, decoded from raw words, are numpy's own
    # integers(0, top + 1) and random() on a twin generator, from either
    # carry state, and the generator is left where numpy's draws leave it
    rng, twin = _carrying(seed, carry), _carrying(seed, carry)
    draws = _Draws(rng)
    for top in tops:
        assert draws.round(top) == (int(twin.integers(0, top + 1)), twin.random())
    draws.release()
    assert rng.bit_generator.state == twin.bit_generator.state


def _words_read(start: dict, bg) -> int:
    """How many raw words ``bg`` is past the PCG64 state ``start``."""
    probe = np.random.PCG64()
    probe.state = start
    for words in range(10_000):
        if probe.state["state"] == bg.state["state"]:
            return words
        probe.advance(1)
    raise AssertionError("more than 10,000 words apart")


@pytest.mark.parametrize("top", HARD_TOPS[:3])
def test_round_draws_reject_as_numpy_does(top):
    # at these tops Lemire's draw throws away a quarter to a half of its
    # halves; the decoder draws again exactly where numpy does
    rng, twin = np.random.default_rng(17), np.random.default_rng(17)
    start = rng.bit_generator.state
    draws = _Draws(rng)
    rounds = [draws.round(top) for _ in range(200)]
    draws.release()
    assert rounds == [(int(twin.integers(0, top + 1)), twin.random()) for _ in range(200)]
    assert rng.bit_generator.state == twin.bit_generator.state
    # 200 words for u and 100 for 200 unrejected halves: the rest were rejected
    assert _words_read(start, rng.bit_generator) > 300 + 20


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), carry=st.sampled_from(CARRIES), n=st.integers(1, 64))
def test_random_start_bits_are_numpys(seed, carry, n):
    # a random start's n bits are numpy's integers(0, 2, size=n), and the
    # carry they leave is the one the next round's L reads
    rng, twin = _carrying(seed, carry), _carrying(seed, carry)
    draws = _Draws(rng)
    assert draws.bits(n) == twin.integers(0, 2, size=n).tolist()
    assert draws.round(5) == (int(twin.integers(0, 6)), twin.random())
    draws.release()
    assert rng.bit_generator.state == twin.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(engine=st.sampled_from(ENGINES), n=st.sampled_from([1, 3, 5]), warm=st.booleans(),
       carry=st.sampled_from(CARRIES), seed=st.integers(0, 2**32 - 1),
       max_rounds=st.sampled_from([1, 4, 50]), stall_rounds=st.sampled_from([2, 15]),
       size=st.sampled_from([1, _ARRAY_GROUP + 1]))
def test_search_leaves_its_generator_as_numpys_draws_do(engine, n, warm, carry, seed, max_rounds,
                                                        stall_rounds, size):
    # after a search its generator is where the reference's own numpy
    # draws leave a twin generator, carry included, so a caller that draws
    # on reads the same stream; in a group of one, and in a group large
    # enough to run as arrays, whose searches take every carry state and
    # both kinds of start
    q = random_real_qubo(np.random.default_rng(seed), n)
    cfg = GasConfig(m=6, engine=engine, max_rounds=max_rounds, stall_rounds=stall_rounds)
    ctx = SearchContext(evaluate_all_costs(q), cfg)
    carries = [CARRIES[(CARRIES.index(carry) + i) % 3] for i in range(size)]
    starts = [np.random.default_rng(seed + 1 + i).integers(0, 2, size=n) if warm and i % 2 == 0
              else None for i in range(size)]
    rngs = [_carrying(seed + i, c) for i, c in enumerate(carries)]
    twins = [_carrying(seed + i, c) for i, c in enumerate(carries)]
    results = run_searches(cfg, [(ctx, rng, start) for rng, start in zip(rngs, starts)])
    for res, twin, start in zip(results, twins, starts):
        ref = reference_run_gas(SearchContext(evaluate_all_costs(q), cfg), cfg, twin, start)
        assert _result(res) == _result(ref)
    assert [rng.bit_generator.state for rng in rngs] == [twin.bit_generator.state for twin in twins]


_TOPS = st.integers(0, 40) | st.integers(1, 2**32 - 2) | st.sampled_from(HARD_TOPS)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.sampled_from(CARRIES), st.booleans()),
                     min_size=1, max_size=5),
       n=st.integers(1, 8), width=st.sampled_from([1, 2, 3, gasmld.gas._ROW_WORDS]),
       data=st.data())
def test_array_draws_are_numpys(rows, n, width, data):
    # an array group's decoder makes each row's draws as _Draws and numpy
    # make them: a random start's n bits, then each round's L and u at the
    # row's own top, for rows in any carry state, at tops where Lemire's
    # draw rejects often, and with rows of 1 to 3 words, which run out
    # between a round's L and its u; then each generator is left where
    # numpy's own draws leave it
    twins = [_carrying(seed, carry) for seed, carry, _ in rows]
    singles = [_Draws(_carrying(seed, carry)) for seed, carry, _ in rows]
    rngs = [_carrying(seed, carry) for seed, carry, _ in rows]
    uniform = np.array([i for i, (_, _, random) in enumerate(rows) if random], dtype=np.intp)
    with patch.object(gasmld.gas, "_ROW_WORDS", width):
        draws = [_Draws(rng) for rng in rngs]
        words = _Words(draws)
        if uniform.size:
            bits = words.bits(uniform, n).tolist()
            assert bits == [twins[i].integers(0, 2, size=n).tolist() for i in uniform]
            assert bits == [singles[i].bits(n) for i in uniform]
        for _ in range(data.draw(st.integers(1, 12))):
            # a round runs a subset of the rows, in order, each at its own top
            running = [i for i in range(len(rows)) if data.draw(st.booleans())]
            tops = [data.draw(_TOPS) for _ in running]
            L, word = words.round(np.array(running, dtype=np.intp), np.array(tops, dtype=np.uint64))
            drawn = list(zip(L.tolist(), ((word >> 11) * 2.0 ** -53).tolist()))
            assert drawn == [(int(twins[i].integers(0, top + 1)), twins[i].random())
                             for i, top in zip(running, tops)]
            assert drawn == [singles[i].round(top) for i, top in zip(running, tops)]
        words.settle()
        for d in draws:
            d.release()
    assert [rng.bit_generator.state for rng in rngs] == [twin.bit_generator.state for twin in twins]


def test_search_needs_a_pcg64_generator():
    # the draws are decoded from PCG64 words: any other generator is refused
    # before any search of the group draws
    cfg = GasConfig(m=6, engine="analytic")
    ctx = SearchContext(evaluate_all_costs(toy_problem()), cfg)
    for other in (np.random.Generator(np.random.MT19937(0)), np.random.RandomState(0)):
        pcg, twin = np.random.default_rng(1), np.random.default_rng(1)
        with pytest.raises(ValueError, match="PCG64"):
            run_gas(ctx, cfg, other)
        with pytest.raises(ValueError, match="PCG64"):
            run_searches(cfg, [(ctx, pcg, None), (ctx, other, None)])
        assert pcg.bit_generator.state == twin.bit_generator.state
    mt, twin = (np.random.Generator(np.random.MT19937(0)) for _ in range(2))
    with pytest.raises(ValueError, match="PCG64"):
        run_gas(ctx, cfg, mt)
    assert mt.random() == twin.random()


def test_cost_bounds_exact():
    assert cost_bounds(evaluate_all_costs(toy_problem())) == (4.0, 16.0)
    n = 20  # exact at every n the table reaches: E(b) = 5 - popcount(b)
    q = QuboProblem(Q=np.zeros((n, n)), c=-np.ones(n), offset=5.0)
    assert cost_bounds(evaluate_all_costs(q)) == (-15.0, 5.0)


def test_toy_trace():
    q = toy_problem()
    reached = 0
    for seed in range(5):
        cfg = GasConfig(m=6, max_rounds=30)
        res = search(q, cfg, np.random.default_rng(seed), np.array([0]))
        values = [y for _, y in res.threshold_trace]
        assert values[0] == 16.0
        assert all(v in (16.0, 4.0) for v in values)
        assert values == sorted(values, reverse=True)
        if res.best_cost == 4.0:
            assert res.best_bits.tolist() == [1]
            reached += 1
        assert res.best_cost == evaluate_cost(q, res.best_bits)
    assert reached >= 4


def test_warm_start_at_optimum_never_moves():
    rng = np.random.default_rng(3)
    q = random_integer_qubo(rng)
    best_bits, best_cost = brute_force_min(q)
    cfg = GasConfig(m=7)
    res = search(q, cfg, np.random.default_rng(11), best_bits)
    assert res.best_cost == best_cost
    assert np.array_equal(res.best_bits, best_bits)
    assert all(y == best_cost for _, y in res.threshold_trace)
    assert res.rounds == cfg.stall_rounds  # nothing to find, stalls out


def test_stop_reason():
    rng = np.random.default_rng(3)
    q = random_integer_qubo(rng)
    best_bits, _ = brute_force_min(q)
    for engine in ENGINES:
        capped = search(q, GasConfig(m=7, max_rounds=1, engine=engine), np.random.default_rng(5))
        assert (capped.rounds, capped.stop_reason) == (1, "max_rounds")
        # nothing beats the warm start, so the search stalls out
        cfg = GasConfig(m=7, engine=engine)
        stalled = search(q, cfg, np.random.default_rng(5), best_bits)
        assert (stalled.rounds, stalled.stop_reason) == (cfg.stall_rounds, "stall")
        # when both caps are reached in the same round the stall wins
        cfg.max_rounds = cfg.stall_rounds
        assert search(q, cfg, np.random.default_rng(5), best_bits).stop_reason == "stall"
        # an improvement inside the last stall_rounds rounds leaves the cap to stop it
        improved = [search(toy_problem(), GasConfig(m=6, max_rounds=3, stall_rounds=3,
                                                    engine=engine),
                           np.random.default_rng(seed), np.array([0]))
                    for seed in range(8)]
        improved = [res for res in improved if res.best_cost < 16.0]
        assert improved
        assert all((res.rounds, res.stop_reason) == (3, "max_rounds") for res in improved)


def test_determinism():
    rng = np.random.default_rng(4)
    q = random_integer_qubo(rng)
    cfg = GasConfig(m=8)
    a = search(q, cfg, np.random.default_rng(42))
    b = search(q, cfg, np.random.default_rng(42))
    assert a.threshold_trace == b.threshold_trace
    assert np.array_equal(a.best_bits, b.best_bits)
    assert (a.oracle_queries, a.measurements, a.rounds) == (
        b.oracle_queries,
        b.measurements,
        b.rounds,
    )


def test_engines_agree_real_direct():
    rng = np.random.default_rng(6)
    for seed in range(6):
        h = rng.normal(size=2) + 1j * rng.normal(size=2)
        x = 2.0 * rng.integers(0, 2, size=3) - 1.0
        y = circulant_matrix(h, 3) @ x + 0.3 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        q = mld_to_qubo(MldInstance(h=h, y=y, sigma2=0.1))
        runs = []
        for engine in ("statevector", "analytic"):
            cfg = GasConfig(m=8, engine=engine)
            runs.append(search(q, cfg, np.random.default_rng(seed)))
        a, b = runs
        assert a.threshold_trace == b.threshold_trace
        assert np.array_equal(a.best_bits, b.best_bits)
        assert a.oracle_queries == b.oracle_queries


def test_engine_distributions_match():
    rng = np.random.default_rng(7)
    q = random_integer_qubo(rng)
    costs = sorted({evaluate_cost(q, b) for b in np.ndindex(2, 2, 2)})
    sv, an = (reader(ctx) for ctx in contexts(q, m=8))
    for y in costs[1:]:
        for L in (0, 1, 2):
            assert np.allclose(sv(y, L), an(y, L), atol=1e-9)


def test_correct_marking_probability():
    # after one iteration the miss probability matches cos^2(3 arcsin sqrt(p0));
    # the costs 0, 1, 2, 3, 5, 6, 7, 8 spread 8, so the scale 2^(m-2) / 8
    # puts every shift on an exact bin and the marking is exact
    q = QuboProblem(Q=np.zeros((3, 3)), c=np.array([1.0, 2.0, 5.0]), offset=0.0)
    by_index = np.array(
        [evaluate_cost(q, [(v >> s) & 1 for s in range(3)]) for v in range(8)]
    )
    # one engine of each kind, threshold after threshold, so a cache entry
    # kept past its threshold shows
    engines = [reader(ctx) for ctx in contexts(q, m=10)]
    for y in np.unique(by_index)[1:]:
        p0 = np.mean(by_index < y)
        predicted_miss = np.cos(3.0 * np.arcsin(np.sqrt(p0))) ** 2
        for engine in engines:
            dist = engine(float(y), 1)
            assert abs(dist[by_index >= y].sum() - predicted_miss) < 1e-6


def test_reaches_optimum_small_problems():
    rng = np.random.default_rng(9)
    hits = 0
    for seed in range(20):
        q = random_integer_qubo(rng)
        _, best = brute_force_min(q)
        res = search(q, GasConfig(m=6), np.random.default_rng(seed))
        hits += res.best_cost == best
        assert all(y2 <= y1 for (_, y1), (_, y2) in zip(res.threshold_trace, res.threshold_trace[1:]))
    assert hits >= 19


def test_validation_errors():
    with pytest.raises(ValueError):
        GasConfig(growth_factor=1.0)
    with pytest.raises(ValueError):
        GasConfig(m=1)
    for encoding in ("decimal", "integer"):
        with pytest.raises(ValueError, match="real costs only, use real_direct"):
            GasConfig(encoding=encoding)
    with pytest.raises(ValueError):
        GasConfig(engine="tensor")
    # the round caps are ints of at least 1, not bools, and the growth a
    # real number above 1, at construction and when set afterwards
    for name, value in (("stall_rounds", 2.5), ("max_rounds", None), ("growth_factor", "2"),
                        ("max_rounds", True), ("stall_rounds", 0), ("max_rounds", np.int64(5)),
                        ("growth_factor", math.nan), ("growth_factor", None)):
        with pytest.raises(ValueError, match=name.replace("growth_factor", "growth factor")):
            GasConfig(**{name: value})
        cfg = GasConfig()
        setattr(cfg, name, value)
        with pytest.raises(ValueError):
            cfg.__post_init__()
    with pytest.raises(ValueError):
        search(toy_problem(), GasConfig(m=6), np.random.default_rng(0), np.array([0, 2]))
    with pytest.raises(CapacityError):
        search(toy_problem(), GasConfig(m=26), np.random.default_rng(0))


@pytest.mark.parametrize("warm_start", [[0.7, 1.2], [257.0, 1.0], [np.nan, 1.0], [[0, 1]]])
def test_warm_start_checked_before_cast(warm_start):
    # an int8 cast would read [0.7, 1.2] as [0, 1], [257.0, 1.0] as [1, 1]
    # and NaN as 0
    cfg = GasConfig(m=5)
    ctx = SearchContext(evaluate_all_costs(random_integer_qubo(np.random.default_rng(3), n=2)), cfg)
    with pytest.raises(ValueError, match="warm start must be a flat 0/1 vector"):
        run_gas(ctx, cfg, np.random.default_rng(0), start=warm_start)


def test_warm_start_cast_after_check():
    # a float start reads as the bits it holds: its cost is the first threshold
    cfg = GasConfig(m=7, max_rounds=1)
    q = random_integer_qubo(np.random.default_rng(3))
    ctx = SearchContext(evaluate_all_costs(q), cfg)
    res = run_gas(ctx, cfg, np.random.default_rng(0), start=[1.0, 0.0, 1.0])
    assert res.threshold_trace[0][1] == evaluate_cost(q, np.array([1, 0, 1]))


def test_engine_twin_above_n16():
    n, m = 17, 3
    rng = np.random.default_rng(12)
    q = random_real_qubo(rng, n)
    statevector, analytic = contexts(q, m=m)
    threshold = float(np.median(statevector.costs))
    sv = distribution(statevector, threshold, 1)
    an = distribution(analytic, threshold, 1)
    assert np.max(np.abs(sv - an)) <= 1e-9
    runs = [_outcome(q, GasConfig(m=m, max_rounds=2, engine=engine), 0) for engine in ENGINES]
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == 3  # the start and two rounds


def test_capacity_checked_before_cost_table():
    # the register errors need no table, so a caller raises them before it
    # builds one (``detect.decide`` does, see test_detect); a context built
    # on a table checks them again
    for n, m in ((25, 2), (1, 26)):
        with pytest.raises(CapacityError, match="26-qubit cap"):
            check_registers(n, GasConfig(m=m))
    with pytest.raises(ValueError, match="at least one key qubit"):
        check_registers(0, GasConfig())
    for engine in ENGINES:
        with pytest.raises(CapacityError, match="26-qubit cap"):
            search(toy_problem(), GasConfig(m=26, engine=engine), np.random.default_rng(0))
    for table in (np.zeros(1), np.zeros(3), np.zeros((2, 2)), np.zeros(0)):
        with pytest.raises(ValueError):
            SearchContext(table, GasConfig())


def test_analytic_engine_makes_no_fejer_rows(monkeypatch):
    # the analytic engine reads its good mass off fejer_upper_mass, never a row
    calls = []

    def counted(theta, m):
        calls.append(m)
        return fejer_distribution(theta, m)

    # patched wherever the engine could look it up, as the traced benchmark does
    for module in (gasmld.circuits, gasmld.gas):
        monkeypatch.setattr(module, "fejer_distribution", counted, raising=False)
    q = random_real_qubo(np.random.default_rng(13), 3)
    for m in (3, 12):
        search(q, GasConfig(m=m, engine="analytic"), np.random.default_rng(0))
    assert calls == []


def test_warm_start_length_checked():
    with pytest.raises(ValueError, match="length does not match"):
        search(toy_problem(), GasConfig(m=6), np.random.default_rng(0), start=np.array([0, 1]))


def test_search_reads_costs_off_its_table(monkeypatch):
    # every cost the search compares is a table entry, never a second evaluation
    calls = []

    def counted(q, bits):
        calls.append(bits)
        return evaluate_cost(q, bits)

    for module in (gasmld.qubo, gasmld.gas):
        monkeypatch.setattr(module, "evaluate_cost", counted, raising=False)
    q = random_integer_qubo(np.random.default_rng(14))
    for m in (6, 8):
        for engine in ENGINES:
            for start in (None, np.array([1, 0, 1])):
                search(q, GasConfig(m=m, engine=engine), np.random.default_rng(0), start)
    assert calls == []


def test_one_cost_table_per_search(monkeypatch):
    # a context reads the table it is built on in place and evaluates no
    # cost, however many searches run on it
    table = evaluate_all_costs(random_integer_qubo(np.random.default_rng(10)))
    calls = []
    for name in ("cost_chunks", "evaluate_all_costs", "evaluate_cost"):
        monkeypatch.setattr(gasmld.qubo, name, lambda *args, name=name: calls.append(name))
    for m in (6, 8):
        for engine in ENGINES:
            cfg = GasConfig(m=m, engine=engine)
            ctx = SearchContext(table, cfg)
            for start in (None, np.array([1, 0, 1])):
                run_gas(ctx, cfg, np.random.default_rng(0), start)
            assert np.shares_memory(ctx.costs, table), (m, engine)
    assert calls == [] and table.flags.writeable


def test_search_settings_match_context():
    cfg = GasConfig(m=6)
    ctx = SearchContext(evaluate_all_costs(toy_problem()), cfg)
    for other in (replace(cfg, m=8), replace(cfg, engine="analytic")):
        with pytest.raises(ValueError, match="context was built for"):
            run_gas(ctx, other, np.random.default_rng(0))
    # a context fixes only (m, engine): the caps, the growth and the start are the run's
    res = run_gas(ctx, replace(cfg, max_rounds=2, growth_factor=2.0), np.random.default_rng(0), [1])
    assert res.rounds == 2 and res.best_cost == 4.0


def test_prepared_state_is_read_only():
    # every search on a context reflects about the slot's A|0>: a stray write raises
    q = random_real_qubo(np.random.default_rng(15), 3)
    ctx = SearchContext(evaluate_all_costs(q), GasConfig(m=6))
    threshold = float(np.median(ctx.costs))
    _Slots.cumulative(ctx, threshold, 1)
    _, (_, base), _ = ctx.slot
    before = base.amps.copy()
    with pytest.raises(ValueError):
        base.amps[0] = 0.0
    for L in (0, 2):
        _Slots.cumulative(ctx, threshold, L)  # L > 0 evolves a copy
    assert np.array_equal(base.amps, before)
    assert ctx.slot[1][1] is base


@pytest.mark.parametrize("engine", ENGINES)
def test_cost_table_is_read_only(engine):
    # both searches of a trial and every row of a group read the context's
    # table in place: a stray write raises
    q = random_integer_qubo(np.random.default_rng(16))
    cfg = GasConfig(m=7, engine=engine)
    ctx = SearchContext(evaluate_all_costs(q), cfg)
    for seed in range(2):
        run_gas(ctx, cfg, np.random.default_rng(seed))
    with pytest.raises(ValueError):
        ctx.costs[0] = 0.0
    assert np.array_equal(ctx.costs, evaluate_all_costs(q))


def _outcome(q, cfg, seed, ctx=None, start=None):
    """A search's result as ``_result`` gives it, on the generator of
    ``seed`` from ``start``, or the type of error it raised; on the context
    ``ctx``, or on a fresh one."""
    try:
        res = run_gas(ctx or SearchContext(evaluate_all_costs(q), cfg), cfg,
                      np.random.default_rng(seed), start)
    except ValueError as exc:
        return type(exc)
    return _result(res)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.sampled_from([6, 8]),
       st.integers(0, 2**32 - 1))
def test_engine_twin_property(n, problem_seed, m, seed):
    # same seed, same trace, on integer-valued costs, whose ties the
    # real-valued property below never draws
    q = random_integer_qubo(np.random.default_rng(problem_seed), n=n)
    sv, an = (_outcome(q, GasConfig(m=m, engine=engine), seed) for engine in ENGINES)
    assert isinstance(sv, tuple)
    assert sv == an


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.sampled_from([6, 8]),
       st.integers(0, 2**32 - 1))
def test_engine_twin_property_real(n, problem_seed, m, seed):
    # real-valued costs; up to n = 5 the schedule reaches L >= 2
    q = random_real_qubo(np.random.default_rng(problem_seed), n)
    sv, an = (_outcome(q, GasConfig(m=m, engine=engine), seed) for engine in ENGINES)
    assert sv == an
    # the best cost is the table entry of the best bits, and their cost
    _, bits, _, best_cost, *_ = sv
    assert best_cost == evaluate_all_costs(q)[int(np.dot(bits, 1 << np.arange(n)))]
    assert abs(best_cost - evaluate_cost(q, bits)) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([("analytic", 3), ("analytic", 6), ("analytic", 10),
                        ("statevector", 3), ("statevector", 5)]),
       st.integers(0, 2**32 - 1), st.sampled_from([6, 12]), st.integers(0, 2**32 - 1))
def test_search_does_not_depend_on_the_costs_scale(case, problem_seed, m, seed):
    # the scale maps any cost spread to 2^(m-2) bins of the fixed m, so costs
    # scaled by 2^k give the shifted table bit for bit, and the same search:
    # the same bits, queries and rounds, and the trace scaled by 2^k
    engine, n = case
    costs = evaluate_all_costs(random_real_qubo(np.random.default_rng(problem_seed), n))
    cfg = GasConfig(m=m, engine=engine)
    base = _result(run_gas(SearchContext(costs, cfg), cfg, np.random.default_rng(seed)))
    trace, bits, queries, best_cost, *rest = base
    for k in (-8, 3, 20):
        res = run_gas(SearchContext(np.ldexp(costs, k), cfg), cfg, np.random.default_rng(seed))
        assert _result(res) == ([(r, np.ldexp(y, k)) for r, y in trace], bits, queries,
                                np.ldexp(best_cost, k), *rest)


def _evolve_every_round(ctx, threshold, L):
    """``_Slots.cumulative`` without the context's threshold slot or the
    memo: every round prepares and evolves afresh."""
    return np.cumsum(_evolve(_prepare(ctx.shifted(threshold), ctx.m), L))


def _prepare_every_round(self, rows, L, sums=_Lockstep.sums):
    """``_Lockstep.sums`` that prepares its rows afresh first, in place of
    the weights they kept since their threshold last moved."""
    self._weights[:] = np.nan
    self.move(rows, self._at[rows].tolist())
    return sums(self, rows, L)


def _without_memo(patch):
    """Switch off what both engines keep between rounds."""
    patch.setattr(_Slots, "cumulative", staticmethod(_evolve_every_round))
    patch.setattr(_Lockstep, "sums", _prepare_every_round)


@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("engine", ENGINES)
def test_memo_changes_no_search(monkeypatch, n, engine):
    # a small m keeps the N = 10 statevector small
    q = random_integer_qubo(np.random.default_rng(30 + n), n=n, span=1)
    shared = None
    for seed in range(3):
        start = np.arange(n) % 2 if seed == 2 else None
        cfg = GasConfig(m=4 if n == 3 else 7, engine=engine)
        memoized = _outcome(q, cfg, seed, start=start)
        assert isinstance(memoized, tuple)
        # nor does the slot the previous seeds' searches left on one context
        shared = shared or SearchContext(evaluate_all_costs(q), cfg)
        assert _outcome(q, cfg, seed, shared, start) == memoized
        with monkeypatch.context() as patch:
            _without_memo(patch)
            assert _outcome(q, cfg, seed, start=start) == memoized


@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("engine", ENGINES)
def test_shared_context_changes_no_search(n, engine):
    # a sweep trial's two searches: the second starts from the first one's
    # best key, the threshold whose preparation and sums the statevector
    # slot still holds, or from a random key; on the analytic engine the
    # two also run as one group on the context
    q = random_integer_qubo(np.random.default_rng(50 + n), n=n, span=1)
    cfg = GasConfig(m=4 if n == 3 else 7, engine=engine)
    reused = 0
    for seed in range(4):
        ctx = SearchContext(evaluate_all_costs(q), cfg)
        first = run_gas(ctx, cfg, np.random.default_rng(seed))
        if engine == "statevector":
            reused += ctx.slot[0] == first.best_cost
        for start in (first.best_bits, None):
            assert (_outcome(q, cfg, seed + 10, ctx, start)
                    == _outcome(q, cfg, seed + 10, start=start))
        if engine == "analytic":
            pair = run_searches(cfg, [(ctx, np.random.default_rng(seed), None),
                                      (ctx, np.random.default_rng(seed + 10), first.best_bits)])
            assert _result(pair[0]) == _outcome(q, cfg, seed)
            assert _result(pair[1]) == _outcome(q, cfg, seed + 10, start=first.best_bits)
            reused += 1
    assert reused > 0


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.sampled_from([6, 8]),
       st.sampled_from(ENGINES), st.integers(0, 2**32 - 1))
def test_memo_changes_no_search_property(n, problem_seed, m, engine, seed):
    # the engine-twin draw: real-valued costs, where up to n = 5 L >= 2 is drawn
    q = random_real_qubo(np.random.default_rng(problem_seed), n)
    cfg = GasConfig(m=m, engine=engine)
    memoized = _outcome(q, cfg, seed)
    with pytest.MonkeyPatch.context() as patch:
        _without_memo(patch)
        assert _outcome(q, cfg, seed) == memoized


def _rotated(results, draws):
    """The (threshold, L) of every round of ``results``, searches run one
    after another, that rotates: round r runs at the threshold its trace
    holds after round r - 1 and draws the r-th of its search's ``draws``."""
    levels = [y for res in results for _, y in res.threshold_trace[:-1]]
    assert len(levels) == len(draws)
    return [(y, L) for y, L in zip(levels, draws) if L]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("n, growth_factor", [(3, 8.0 / 7.0), (10, 4.0)])
def test_each_threshold_and_rotation_count_evolves_once(monkeypatch, engine, n, growth_factor):
    # every threshold that a round rotates at is prepared once (on the
    # statevector engine once per context, on the analytic engine once per
    # search), and no other threshold is; the statevector engine evolves
    # each (threshold, L >= 1) pair of a context once, and the analytic
    # engine each rotating round once
    evolutions, memo_sizes, prepared = [], [], []

    def counted(prepared, L, evolve=_evolve):
        evolutions.append(L)
        return evolve(prepared, L)

    monkeypatch.setattr(gasmld.gas, "_evolve", counted)

    memoized = _Slots.cumulative

    def checked(ctx, threshold, L):
        previous = ctx.slot
        sums = memoized(ctx, threshold, L)
        if ctx.slot is not previous:  # the slot prepared this threshold
            prepared.append(threshold)
        slot_threshold, _, by_rotation = ctx.slot
        assert slot_threshold == threshold and by_rotation[L] is sums
        # the memo keeps one float64 running sum per L >= 1 and nothing beside it
        assert L >= 1
        assert all(type(a) is np.ndarray and a.dtype == np.float64 and a.shape == (1 << n,)
                   for a in by_rotation.values())
        with pytest.raises(ValueError):
            sums[0] = 0.0  # no caller can corrupt the memo
        if previous is not None and previous[0] != threshold:
            assert list(by_rotation) == [L]  # a new threshold starts an empty memo
        memo_sizes.append(len(by_rotation))
        return sums

    monkeypatch.setattr(_Slots, "cumulative", staticmethod(checked))

    def lockstep_move(self, rows, thresholds, move=_Lockstep.move):
        prepared.extend(thresholds)
        return move(self, rows, thresholds)

    def lockstep_sums(self, rows, L, sums=_Lockstep.sums):
        evolutions.extend(L)
        out = sums(self, rows, L)
        assert out.shape == (len(rows), 1 << n) and out.dtype == np.float64
        return out

    monkeypatch.setattr(_Lockstep, "move", lockstep_move)
    monkeypatch.setattr(_Lockstep, "sums", lockstep_sums)
    q = random_real_qubo(np.random.default_rng(40 + n), n)
    cfg = GasConfig(m=6, engine=engine, growth_factor=growth_factor)
    # a trial's two searches on one context, the second from the first one's best key
    ctx = SearchContext(evaluate_all_costs(q), cfg)
    first = run_gas(ctx, cfg, np.random.default_rng(3))
    second = run_gas(ctx, cfg, np.random.default_rng(4), first.best_bits)
    # each round's L, replayed with numpy's own draws on twin generators
    draws = replayed_rotation_counts(first, cfg, n, np.random.default_rng(3))
    split = len(draws)
    draws += replayed_rotation_counts(second, cfg, n, np.random.default_rng(4), first.best_bits)
    rotated = _rotated([first, second], draws)
    assert len(draws) == first.rounds + second.rounds
    assert 0 < len(rotated) < len(draws)
    if engine == "analytic":
        # each search is a group of one and prepares the levels it rotates at
        per_search = [{y for y, _ in _rotated([res], part)}
                      for res, part in ((first, draws[:split]), (second, draws[split:]))]
        assert sorted(prepared) == sorted(y for levels in per_search for y in levels)
        assert evolutions == [L for _, L in rotated]
        return
    # the two searches' thresholds never rise, so the slot never returns to one
    assert sorted(prepared) == sorted({y for y, _ in rotated})
    assert sorted(evolutions) == sorted(L for _, L in set(rotated))
    assert max(memo_sizes) <= int(np.floor(2 ** (n / 2))) - 1
    if n == 3:
        assert len(evolutions) < len(rotated)
        # some thresholds only L = 0 rounds visit, and none of them is prepared
        assert {y for res in (first, second) for _, y in res.threshold_trace[:-1]} > set(prepared)
    else:
        assert max(memo_sizes) > 6  # past the L <= 6 that growth 8/7 reaches in 15 rounds


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 3, 5, 10]), st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, 2**10 - 1), min_size=1, max_size=3))
def test_zero_rotations_leave_the_key_register_uniform(n, problem_seed, picks):
    # A|0> holds the key register in uniform superposition, at any
    # threshold, the argmin's p0 = 0 among them: its key marginal is 2^-n
    # up to the rounding of the 2^m value bins summed into it, and the
    # running sum that an L = 0 draw would read is (b + 1) / 2^n within an
    # ulp or two, so int(u 2^n) is that draw but within ulps of an integer
    q = random_real_qubo(np.random.default_rng(problem_seed), n)
    statevector, analytic = contexts(q, m=8 if n < 10 else 6)
    costs = statevector.costs
    thresholds = [float(costs.min())] + [float(costs[p % costs.shape[0]]) for p in picks]
    uniform = 2.0 ** -n
    for t in thresholds:
        spec, base = _prepare(statevector.shifted(t), statevector.m)
        marginal = register_distribution(base, spec.key_register)
        assert np.all(np.abs(marginal - uniform) <= 4 * spec.m * np.spacing(uniform))
    group = _Lockstep([analytic] * len(thresholds))
    rows = list(range(len(thresholds)))
    group.move(rows, thresholds)
    steps = np.arange(1, (1 << n) + 1) * uniform
    assert np.all(np.abs(group.sums(rows, [0] * len(rows)) - steps) <= 2 * np.spacing(1.0))


def test_zero_rotation_rounds_read_no_state(monkeypatch):
    # a round whose running searches all draw L = 0 calls no engine: every
    # key comes from its uniform, and only the rounds where some search
    # rotates prepare or evolve anything, only at the thresholds they rotate
    # at; each round's L is replayed with numpy's own draws on a twin
    # generator of its search
    calls, prepared = [], []

    def spy(name, function):
        def called(*args):
            calls.append(name)
            return function(*args)
        return called

    def lockstep_move(self, rows, thresholds, move=_Lockstep.move):
        prepared.extend(zip(rows, thresholds))
        return move(self, rows, thresholds)

    def lockstep_sums(self, rows, L, sums=_Lockstep.sums):
        calls.append(("sums", list(rows), list(L)))
        return sums(self, rows, L)

    monkeypatch.setattr(_Lockstep, "move", spy("move", lockstep_move))
    monkeypatch.setattr(_Lockstep, "sums", lockstep_sums)
    monkeypatch.setattr(_Slots, "cumulative", staticmethod(spy("cumulative", _Slots.cumulative)))
    monkeypatch.setattr(gasmld.gas, "fejer_upper_mass",
                        spy("kernel", gasmld.circuits.fejer_upper_mass))
    problems = [random_real_qubo(np.random.default_rng(80 + i), 3) for i in range(3)]
    cfg = GasConfig(m=6, engine="analytic")
    ctxs = [SearchContext(evaluate_all_costs(q), cfg) for q in problems]
    searches = [(0, 1, None), (0, 2, brute_force_min(problems[0])[0]), (1, 3, None)]
    results = run_searches(cfg, [(ctxs[i], np.random.default_rng(seed), start)
                                 for i, seed, start in searches])
    own = [replayed_rotation_counts(res, cfg, 3, np.random.default_rng(seed), start)
           for res, (_, seed, start) in zip(results, searches)]
    # round r runs every search that runs r rounds or more, in group order;
    # a round that rotates a stale search, one whose threshold was not
    # prepared, prepares every stale running search at its threshold, each
    # threshold of a search once, in one kernel call, and then draws from
    # the rotating searches' sums; a round that rotates none calls nothing
    expected, expected_prepared, stale, rotating = [], [], set(range(len(results))), 0
    for r in range(1, max(res.rounds for res in results) + 1):
        rows = [i for i, res in enumerate(results) if res.rounds >= r]
        level = {i: results[i].threshold_trace[r - 1][1] for i in rows}
        turn = [i for i in rows if own[i][r - 1]]
        if turn:
            rotating += 1
            if stale & set(turn):
                expected += ["move", "kernel"]
                expected_prepared.extend((i, level[i]) for i in rows if i in stale)
                stale.difference_update(rows)
            expected.append(("sums", turn, [own[i][r - 1] for i in turn]))
        stale.update(i for i in rows if results[i].threshold_trace[r][1] < level[i])
    assert calls == expected
    assert 0 < rotating < max(res.rounds for res in results)
    assert prepared == expected_prepared
    for row, res in enumerate(results):
        assert {y for y, _ in _rotated([res], own[row])} <= {t for i, t in prepared if i == row}
    # a search that only draws L = 0, as k < 2 for six rounds, reads no
    # engine, on either engine
    alone = []
    for engine in ENGINES:
        capped = GasConfig(m=6, max_rounds=6, engine=engine)
        calls.clear()
        res = run_gas(SearchContext(evaluate_all_costs(problems[2]), capped), capped,
                      np.random.default_rng(4))
        assert res.rounds == 6 and res.oracle_queries == 0 and calls == []
        alone.append(_result(res))
    assert alone[0] == alone[1]


def _result(res):
    """Every field of a search's result, as a comparable tuple."""
    return (res.threshold_trace, res.best_bits.tolist(), res.oracle_queries, res.best_cost,
            res.rounds, res.stop_reason, res.measurements)


@st.composite
def search_groups(draw, large=False):
    """A group of searches under one config, its caps, growth and m drawn
    once, on contexts of one n and engine: a random start, a warm start of
    random bits or one at the table's argmin, each with its own seed.  A
    small group holds one or two searches on each of one to three contexts;
    a ``large`` one holds one search fewer than ``_ARRAY_GROUP``, exactly
    as many or a few more, spread over one to six contexts, so its rounds
    run on either path."""
    engine = draw(st.sampled_from(ENGINES))
    # the reference prepares every round afresh: keep its statevectors small
    sizes = {("statevector", False): [1, 3, 5], ("analytic", False): [1, 3, 5, 10],
             ("statevector", True): [1, 3], ("analytic", True): [1, 3, 5]}
    n = draw(st.sampled_from(sizes[engine, large]))
    cfg = GasConfig(m=6 if large and engine == "statevector" else draw(st.sampled_from([6, 8])),
                    engine=engine, max_rounds=draw(st.sampled_from([1, 2, 3, 50])),
                    stall_rounds=draw(st.sampled_from([3, 15])),
                    growth_factor=draw(st.sampled_from([8.0 / 7.0, 2.0])))
    problems = [random_real_qubo(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
                for _ in range(draw(st.integers(1, 6 if large else 3)))]
    if large:
        count = _ARRAY_GROUP + draw(st.sampled_from([-1, 0, 5]))
        on = [draw(st.integers(0, len(problems) - 1)) for _ in range(count)]
    else:
        on = [i for i in range(len(problems)) for _ in range(draw(st.integers(1, 2)))]
    searches = []
    for index in on:
        seed = draw(st.integers(0, 2**32 - 1))
        kind = draw(st.sampled_from(["random", "warm", "argmin"]))
        start = {"random": None, "warm": np.random.default_rng(seed + 1).integers(0, 2, size=n),
                 "argmin": brute_force_min(problems[index])[0]}[kind]
        searches.append((index, seed, start))
    return problems, cfg, searches


def _group_matches_the_reference(group):
    """Every search of ``group`` reaches the result that the one-search
    reference gives it alone, on a fresh context, from the same seed, and
    leaves its generator where its own numpy draws leave a twin."""
    problems, cfg, searches = group
    ctxs = [SearchContext(evaluate_all_costs(q), cfg) for q in problems]
    twins = [np.random.default_rng(seed) for _, seed, _ in searches]
    alone = [_result(reference_run_gas(SearchContext(evaluate_all_costs(problems[index]), cfg), cfg,
                                       twin, start))
             for (index, _, start), twin in zip(searches, twins)]
    rngs = [np.random.default_rng(seed) for _, seed, _ in searches]
    together = run_searches(cfg, [(ctxs[index], rng, start)
                                  for (index, _, start), rng in zip(searches, rngs)])
    assert [_result(res) for res in together] == alone
    assert [rng.bit_generator.state for rng in rngs] == [twin.bit_generator.state for twin in twins]


@settings(max_examples=60, deadline=None)
@given(search_groups())
def test_group_driver_matches_the_one_search_reference(group):
    # every search of a group reaches the result that the one-search driver
    # gives it alone: each search keeps its own draws, whatever the others
    # in its group do
    _group_matches_the_reference(group)


@settings(max_examples=40, deadline=None)
@given(search_groups(large=True))
def test_large_group_driver_matches_the_one_search_reference(group):
    # as above, on groups on both sides of the size from which a group runs
    # its rounds as arrays
    _group_matches_the_reference(group)


@pytest.mark.parametrize("engine", ENGINES)
def test_group_driver_matches_the_reference_at_n10(engine):
    # 1,024 keys per row, where a stacked row sum or running sum that
    # rounded apart from a single row's would show
    problems = [random_real_qubo(np.random.default_rng(60 + i), 10) for i in range(2)]
    cfg = GasConfig(m=6, engine=engine, max_rounds=30)
    ctxs = [SearchContext(evaluate_all_costs(q), cfg) for q in problems]
    searches = [(0, 1, None), (0, 2, np.arange(10) % 2), (1, 3, None)]
    if engine == "statevector":
        searches = searches[:1]
    together = run_searches(cfg, [(ctxs[i], np.random.default_rng(seed), start)
                                  for i, seed, start in searches])
    for res, (i, seed, start) in zip(together, searches):
        alone = reference_run_gas(SearchContext(evaluate_all_costs(problems[i]), cfg), cfg,
                                  np.random.default_rng(seed), start)
        assert _result(res) == _result(alone)


@pytest.mark.parametrize("n", [1, 3, 5, 10])
def test_lockstep_sums_are_the_one_search_sums(n):
    # bit for bit: every row of a stacked round is the running sum that the
    # one-search closed form gives its threshold and L, rows of different
    # contexts under one m, thresholds and rotation counts side by side, the
    # argmin's p0 = 0 among them
    rng = np.random.default_rng(70 + n)
    ctxs = [SearchContext(evaluate_all_costs(random_real_qubo(rng, n)),
                          GasConfig(m=6, engine="analytic"))
            for _ in range(6)]
    group = _Lockstep(ctxs)
    for _ in range(150):
        rows = sorted(rng.choice(6, size=rng.integers(1, 7), replace=False).tolist())
        thresholds = [float(rng.choice(ctxs[r].costs)) for r in rows]
        L = rng.integers(0, 1 + int(2 ** (n / 2)), size=len(rows)).tolist()
        group.move(rows, thresholds)
        sums = group.sums(rows, L)
        for row, r, t, l in zip(sums, rows, thresholds, L):
            assert np.array_equal(row, reference_running_sum(ctxs[r], t, l))


def test_group_checks_its_searches():
    cfg = GasConfig(m=6, engine="analytic")
    ctx = SearchContext(evaluate_all_costs(toy_problem()), cfg)
    rng = np.random.default_rng(0)
    # a shared generator would interleave two searches' draws
    with pytest.raises(ValueError, match="own generator"):
        run_searches(cfg, [(ctx, rng, None), (ctx, rng, None)])
    other = SearchContext(evaluate_all_costs(random_integer_qubo(np.random.default_rng(1))), cfg)
    with pytest.raises(ValueError, match="share the key count"):
        run_searches(cfg, [(ctx, rng, None), (other, np.random.default_rng(1), None)])
