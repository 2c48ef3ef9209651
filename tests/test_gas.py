"""Adaptive search driver: schedule, sizing, traces, engine agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gasmld.circuits
import gasmld.gas
import gasmld.qubo
from gasmld.gas import (
    ENCODINGS,
    ENGINES,
    GasConfig,
    _AnalyticEngine,
    _Engine,
    _StatevectorEngine,
    cost_bounds,
    grow_k,
    required_value_qubits,
    run_gas,
    sample_rotation_count,
)
from gasmld.qcore import CapacityError
from gasmld.qubo import QuboProblem, evaluate_all_costs, evaluate_cost, mld_to_qubo, MldInstance
from gasmld.channel import circulant_matrix
from gasmld.circuits import fejer_distribution

from oracles import brute_force_min


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
    lam = 8.0 / 7.0
    k = grow_k(1.0, lam, 3)
    assert k == pytest.approx(lam)
    for _ in range(100):
        k = grow_k(k, lam, 3)
    assert k == pytest.approx(np.sqrt(8.0))


def test_required_value_qubits_integer():
    # costs {0, 3}: shifted range [-3, 3] sits strictly inside [-4, 4)
    assert required_value_qubits(1, (0.0, 3.0), "integer") == 3
    toy = cost_bounds(evaluate_all_costs(toy_problem()))
    assert required_value_qubits(1, toy, "integer") == 5  # spread 12 needs 2^{m-1} >= 13
    # spread 1e9 needs 31 (integer) or 32 (real) value qubits: past the cap beside 3 keys
    for encoding in ("integer", "real_direct"):
        with pytest.raises(CapacityError):
            required_value_qubits(3, (0.0, 1e9), encoding)
    with pytest.raises(ValueError, match="unknown encoding"):
        required_value_qubits(1, (0.0, 3.0), "bcd")


def test_required_value_qubits_degenerate_and_real():
    assert required_value_qubits(1, (7.0, 7.0), "integer") == 2
    assert required_value_qubits(1, (0.0, 3.9), "real_direct") == 4


def test_cost_bounds_exact():
    assert cost_bounds(evaluate_all_costs(toy_problem())) == (4.0, 16.0)
    n = 20  # exact at every n the table reaches: E(b) = 5 - popcount(b)
    q = QuboProblem(Q=np.zeros((n, n)), c=-np.ones(n), offset=5.0)
    assert cost_bounds(evaluate_all_costs(q)) == (-15.0, 5.0)


def test_toy_trace():
    q = toy_problem()
    reached = 0
    for seed in range(5):
        cfg = GasConfig(m=None, seed=seed, warm_start=np.array([0]), max_rounds=30, encoding="integer")
        res = run_gas(q, cfg)
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
    cfg = GasConfig(m=None, seed=11, warm_start=best_bits, encoding="integer")
    res = run_gas(q, cfg)
    assert res.best_cost == best_cost
    assert np.array_equal(res.best_bits, best_bits)
    assert all(y == best_cost for _, y in res.threshold_trace)
    assert res.rounds == cfg.stall_rounds  # nothing to find, stalls out


def test_stop_reason():
    rng = np.random.default_rng(3)
    q = random_integer_qubo(rng)
    best_bits, _ = brute_force_min(q)
    for engine in ENGINES:
        capped = run_gas(q, GasConfig(m=None, seed=5, max_rounds=1, engine=engine))
        assert (capped.rounds, capped.stop_reason) == (1, "max_rounds")
        # nothing beats the warm start, so the search stalls out
        cfg = GasConfig(m=None, seed=5, warm_start=best_bits, engine=engine)
        stalled = run_gas(q, cfg)
        assert (stalled.rounds, stalled.stop_reason) == (cfg.stall_rounds, "stall")
        # when both caps are reached in the same round the stall wins
        cfg.max_rounds = cfg.stall_rounds
        assert run_gas(q, cfg).stop_reason == "stall"
        # an improvement inside the last stall_rounds rounds leaves the cap to stop it
        improved = [run_gas(toy_problem(), GasConfig(m=None, seed=seed, warm_start=np.array([0]),
                                                     max_rounds=3, stall_rounds=3,
                                                     encoding="integer", engine=engine))
                    for seed in range(8)]
        improved = [res for res in improved if res.best_cost < 16.0]
        assert improved
        assert all((res.rounds, res.stop_reason) == (3, "max_rounds") for res in improved)


def test_determinism():
    rng = np.random.default_rng(4)
    q = random_integer_qubo(rng)
    cfg = GasConfig(m=8, seed=42, encoding="integer")
    a = run_gas(q, cfg)
    b = run_gas(q, cfg)
    assert a.threshold_trace == b.threshold_trace
    assert np.array_equal(a.best_bits, b.best_bits)
    assert (a.oracle_queries, a.measurements, a.rounds) == (
        b.oracle_queries,
        b.measurements,
        b.rounds,
    )


def test_engines_agree_integer():
    rng = np.random.default_rng(5)
    for seed in range(12):
        q = random_integer_qubo(rng)
        runs = []
        for engine in ("statevector", "analytic"):
            cfg = GasConfig(m=8, seed=seed, engine=engine, encoding="integer")
            runs.append(run_gas(q, cfg))
        a, b = runs
        assert a.threshold_trace == b.threshold_trace
        assert np.array_equal(a.best_bits, b.best_bits)
        assert a.oracle_queries == b.oracle_queries
        assert a.measurements == b.measurements


def test_engines_agree_real_direct():
    rng = np.random.default_rng(6)
    for seed in range(6):
        h = rng.normal(size=2) + 1j * rng.normal(size=2)
        H = circulant_matrix(h, 3)
        x = 2.0 * rng.integers(0, 2, size=3) - 1.0
        y = H @ x + 0.3 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        q = mld_to_qubo(MldInstance(H=H, y=y, sigma2=0.1))
        runs = []
        for engine in ("statevector", "analytic"):
            cfg = GasConfig(m=8, seed=seed, encoding="real_direct", engine=engine)
            runs.append(run_gas(q, cfg))
        a, b = runs
        assert a.threshold_trace == b.threshold_trace
        assert np.array_equal(a.best_bits, b.best_bits)
        assert a.oracle_queries == b.oracle_queries


def test_engine_distributions_match():
    rng = np.random.default_rng(7)
    q = random_integer_qubo(rng)
    costs = sorted({evaluate_cost(q, b) for b in np.ndindex(2, 2, 2)})
    sv = _StatevectorEngine(evaluate_all_costs(q), 8, "integer", 1.0)
    an = _AnalyticEngine(evaluate_all_costs(q), 8, "integer", 1.0)
    for y in costs[1:]:
        for L in (0, 1, 2):
            assert np.allclose(sv.key_distribution(y, L), an.key_distribution(y, L), atol=1e-9)


def test_correct_marking_probability():
    # after one iteration the miss probability matches cos^2(3 arcsin sqrt(p0))
    rng = np.random.default_rng(8)
    q = random_integer_qubo(rng)
    by_index = np.array(
        [evaluate_cost(q, [(v >> s) & 1 for s in range(3)]) for v in range(8)]
    )
    # one engine of each kind, threshold after threshold, so a cache entry
    # kept past its threshold shows
    engines = (_StatevectorEngine(evaluate_all_costs(q), 10, "integer", 1.0),
               _AnalyticEngine(evaluate_all_costs(q), 10, "integer", 1.0))
    for y in np.unique(by_index)[1:]:
        p0 = np.mean(by_index < y)
        predicted_miss = np.cos(3.0 * np.arcsin(np.sqrt(p0))) ** 2
        for engine in engines:
            dist = engine.key_distribution(float(y), 1)
            assert abs(dist[by_index >= y].sum() - predicted_miss) < 1e-6


def test_reaches_optimum_small_problems():
    rng = np.random.default_rng(9)
    hits = 0
    for seed in range(20):
        q = random_integer_qubo(rng)
        _, best = brute_force_min(q)
        res = run_gas(q, GasConfig(m=None, seed=seed, encoding="integer"))
        hits += res.best_cost == best
        assert all(y2 <= y1 for (_, y1), (_, y2) in zip(res.threshold_trace, res.threshold_trace[1:]))
    assert hits >= 19


def test_validation_errors():
    with pytest.raises(ValueError):
        GasConfig(growth_factor=1.0)
    with pytest.raises(ValueError):
        GasConfig(m=1)
    with pytest.raises(ValueError):
        GasConfig(encoding="decimal")
    with pytest.raises(ValueError):
        GasConfig(engine="tensor")
    with pytest.raises(ValueError):
        GasConfig(warm_start=np.array([0, 2]))
    with pytest.raises(CapacityError):
        run_gas(toy_problem(), GasConfig(m=26, seed=0, encoding="integer"))
    q = QuboProblem(Q=np.array([[0.5]]), c=np.array([0.25]), offset=0.0)
    for engine in ENGINES:
        # non-integer coefficients, and costs spread 12 past the [-4, 4) window of m = 3
        with pytest.raises(ValueError):
            run_gas(q, GasConfig(m=6, seed=0, encoding="integer", engine=engine))
        with pytest.raises(ValueError):
            run_gas(toy_problem(), GasConfig(m=3, seed=0, encoding="integer", engine=engine))


def test_integer_window_edge():
    # m = 3 reads [-4, 4): a shifted cost of -4 is the last one that fits
    for engine_cls in (_StatevectorEngine, _AnalyticEngine):
        dist = engine_cls(np.array([-4.0, 0.0]), 3, "integer", 1.0).key_distribution(0.0, 0)
        assert np.allclose(dist, [0.5, 0.5], atol=1e-12)
        with pytest.raises(ValueError, match="capacity"):
            engine_cls(np.array([0.0, 4.0]), 3, "integer", 1.0).key_distribution(0.0, 0)


def test_engine_twin_above_n16():
    n, m = 17, 3
    rng = np.random.default_rng(12)
    q = random_real_qubo(rng, n)
    costs = evaluate_all_costs(q)
    scale = 2.0 ** (m - 2) / (costs.max() - costs.min())
    threshold = float(np.median(costs))
    sv = _StatevectorEngine(costs, m, "real_direct", scale).key_distribution(threshold, 1)
    an = _AnalyticEngine(costs, m, "real_direct", scale).key_distribution(threshold, 1)
    assert np.max(np.abs(sv - an)) <= 1e-9
    runs = [_outcome(q, GasConfig(m=m, seed=0, max_rounds=2, engine=engine)) for engine in ENGINES]
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == 3  # the start and two rounds


def test_capacity_checked_before_cost_table(monkeypatch):
    def refuse(q):
        raise AssertionError("cost table built past the qubit cap")

    monkeypatch.setattr(gasmld.gas, "evaluate_all_costs", refuse)
    # 25 key qubits leave fewer than the 2 value qubits the automatic m needs
    q = QuboProblem(Q=np.zeros((25, 25)), c=np.zeros(25), offset=0.0)
    for engine in ENGINES:
        with pytest.raises(CapacityError, match="26-qubit cap"):
            run_gas(q, GasConfig(m=None, seed=0, engine=engine))
    with pytest.raises(CapacityError, match="26-qubit cap"):
        run_gas(toy_problem(), GasConfig(m=26, seed=0))


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
        run_gas(q, GasConfig(m=m, seed=0, engine="analytic"))
    assert calls == []


def test_warm_start_length_checked():
    with pytest.raises(ValueError):
        run_gas(toy_problem(), GasConfig(m=None, seed=0, warm_start=np.array([0, 1])))


def test_search_reads_costs_off_its_table(monkeypatch):
    # every cost the search compares is a table entry, never a second evaluation
    calls = []

    def counted(q, bits):
        calls.append(bits)
        return evaluate_cost(q, bits)

    for module in (gasmld.qubo, gasmld.gas):
        monkeypatch.setattr(module, "evaluate_cost", counted, raising=False)
    q = random_integer_qubo(np.random.default_rng(14))
    for m in (None, 8):
        for engine in ENGINES:
            for encoding in ENCODINGS:
                for warm_start in (None, np.array([1, 0, 1])):
                    run_gas(q, GasConfig(m=m, seed=0, engine=engine, encoding=encoding,
                                         warm_start=warm_start))
    assert calls == []


def test_one_cost_table_per_search(monkeypatch):
    calls = []

    def counted(q):
        calls.append(q)
        return evaluate_all_costs(q)

    monkeypatch.setattr(gasmld.gas, "evaluate_all_costs", counted)
    q = random_integer_qubo(np.random.default_rng(10))
    for m in (None, 8):
        for engine in ENGINES:
            for encoding in ENCODINGS:
                calls.clear()
                run_gas(q, GasConfig(m=m, seed=0, engine=engine, encoding=encoding))
                assert len(calls) <= 1, (m, engine, encoding)


def _outcome(q, cfg):
    """A search's trace, picks, query count, best cost, round count and stop
    reason, or the type of error it raised."""
    try:
        res = run_gas(q, cfg)
    except ValueError as exc:
        return type(exc)
    return (res.threshold_trace, res.best_bits.tolist(), res.oracle_queries, res.best_cost,
            res.rounds, res.stop_reason)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.sampled_from([6, 8]),
       st.sampled_from(ENCODINGS), st.integers(0, 2**32 - 1))
def test_engine_twin_property(n, problem_seed, m, encoding, seed):
    # same seed, same trace, or the same error where integer costs overflow m = 6
    q = random_integer_qubo(np.random.default_rng(problem_seed), n=n)
    sv, an = (_outcome(q, GasConfig(m=m, seed=seed, encoding=encoding, engine=engine))
              for engine in ENGINES)
    assert sv == an


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.sampled_from([6, 8]),
       st.integers(0, 2**32 - 1))
def test_engine_twin_property_real(n, problem_seed, m, seed):
    # real-valued costs; up to n = 5 the schedule reaches L >= 2
    q = random_real_qubo(np.random.default_rng(problem_seed), n)
    sv, an = (_outcome(q, GasConfig(m=m, seed=seed, engine=engine)) for engine in ENGINES)
    assert sv == an
    # the best cost is the table entry of the best bits, and their cost
    _, bits, _, best_cost, *_ = sv
    assert best_cost == evaluate_all_costs(q)[int(np.dot(bits, 1 << np.arange(n)))]
    assert abs(best_cost - evaluate_cost(q, bits)) <= 1e-9


def _evolve_every_round(self, threshold, L):
    """``key_distribution`` without the threshold cache or the memo: every
    round prepares and evolves afresh."""
    return self._evolve(self._prepare(self._shifted(threshold)), L)


@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("engine", ENGINES)
def test_memo_changes_no_search(monkeypatch, n, encoding, engine):
    # span 1 keeps the automatic m, and so the N = 10 statevector, small
    q = random_integer_qubo(np.random.default_rng(30 + n), n=n, span=1)
    for seed in range(3):
        warm_start = np.arange(n) % 2 if seed == 2 else None
        cfg = GasConfig(m=None, seed=seed, encoding=encoding, engine=engine, warm_start=warm_start)
        memoized = _outcome(q, cfg)
        assert isinstance(memoized, tuple)
        with monkeypatch.context() as patch:
            patch.setattr(_Engine, "key_distribution", _evolve_every_round)
            assert _outcome(q, cfg) == memoized


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.sampled_from([6, 8]),
       st.sampled_from(ENGINES), st.integers(0, 2**32 - 1))
def test_memo_changes_no_search_property(n, problem_seed, m, engine, seed):
    # the engine-twin draw: real-valued costs, where up to n = 5 L >= 2 is drawn
    q = random_real_qubo(np.random.default_rng(problem_seed), n)
    cfg = GasConfig(m=m, seed=seed, engine=engine)
    memoized = _outcome(q, cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Engine, "key_distribution", _evolve_every_round)
        assert _outcome(q, cfg) == memoized


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("n, growth_factor", [(3, 8.0 / 7.0), (10, 4.0)])
def test_each_threshold_and_rotation_count_evolves_once(monkeypatch, engine, n, growth_factor):
    draws, evolutions, memo_sizes = [], [], []

    def recorded_draw(k, rng):
        draws.append(sample_rotation_count(k, rng))
        return draws[-1]

    monkeypatch.setattr(gasmld.gas, "sample_rotation_count", recorded_draw)
    for cls in (_StatevectorEngine, _AnalyticEngine):
        def counted(self, prepared, L, evolve=cls._evolve):
            evolutions.append(L)
            return evolve(self, prepared, L)

        monkeypatch.setattr(cls, "_evolve", counted)

    memoized = _Engine.key_distribution

    def checked(self, threshold, L):
        previous = self._cache
        dist = memoized(self, threshold, L)
        cached_threshold, _, by_rotation = self._cache
        assert cached_threshold == threshold and by_rotation[L] is dist
        with pytest.raises(ValueError):
            dist[0] = 0.0  # no caller can corrupt the memo
        if previous is not None and previous[0] != threshold:
            assert list(by_rotation) == [L]  # a new threshold starts an empty memo
        memo_sizes.append(len(by_rotation))
        return dist

    monkeypatch.setattr(_Engine, "key_distribution", checked)
    q = random_real_qubo(np.random.default_rng(40 + n), n)
    cfg = GasConfig(m=6, seed=3, engine=engine, growth_factor=growth_factor)
    res = run_gas(q, cfg)
    # round r runs at the threshold the trace holds after round r - 1
    pairs = set(zip((y for _, y in res.threshold_trace[:-1]), draws))
    assert len(draws) == res.rounds
    assert len(evolutions) == len(pairs)
    assert max(memo_sizes) <= min(cfg.stall_rounds, int(np.floor(2 ** (n / 2))))
    if n == 3:
        assert len(evolutions) < res.rounds
    else:
        assert max(memo_sizes) > 7  # past the L <= 6 that growth 8/7 reaches in 15 rounds
