"""Detector checks: optimality, equalizer algebra, hybrid guarantees."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gasmld.bench
import gasmld.detect
import gasmld.gas
import gasmld.qubo
from gasmld.channel import (
    block_from_bits,
    circulant_matrix,
    demodulate,
    generate_channel,
    modulate,
    snr_db_to_sigma2,
    transmit,
)
from gasmld.bench import SweepConfig
from gasmld.detect import (
    METHODS,
    DetectionReport,
    decide,
    gas_detect,
    hybrid_detect,
    mld_detect,
    mmse_detect,
    mmse_equalize,
    mmse_soft,
    mmse_taps,
    residual_cost,
)
from gasmld.gas import ENGINES, GasConfig, SearchContext, run_gas, run_searches
from gasmld.qcore import CapacityError
from gasmld.qubo import MldInstance, bits_of, evaluate_all_costs, mld_to_qubo, qubo_terms

from oracles import brute_force_min, reference_cost_table, reference_run_gas


def random_instance(rng, N=3, R=2, L_bi=2, L_iu=2, snr_db=4.0):
    ch = generate_channel(R=R, L_bi=L_bi, L_iu=L_iu, rng=rng)
    bits = rng.integers(0, 2, size=N)
    sigma2 = snr_db_to_sigma2(snr_db)
    y = transmit(block_from_bits(bits), circulant_matrix(ch.h_eff, N), sigma2, rng)
    return MldInstance(h=ch.h_eff, y=y, sigma2=sigma2), bits


def test_mld_scalar_example():
    inst = MldInstance(h=[1.0 + 0j], y=[3.0 + 0j], sigma2=1.0)
    rep = mld_detect(inst)
    assert rep.x_hat[0] == 1.0 + 0j
    assert rep.cost == pytest.approx(4.0)
    assert rep.oracle_queries == 0
    assert rep.method == "MLD"


def test_mld_noiseless_recovers_input():
    rng = np.random.default_rng(0)
    for _ in range(10):
        inst, bits = random_instance(rng, snr_db=200.0)
        rep = mld_detect(inst)
        assert np.array_equal(rep.bits_hat, bits)
        assert rep.cost < 1e-15


def test_mld_matches_qubo_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(200):
        inst, _ = random_instance(rng, snr_db=rng.uniform(-5, 10))
        rep = mld_detect(inst)
        bits_min, cost_min = brute_force_min(mld_to_qubo(inst))
        assert np.array_equal(rep.bits_hat, bits_min)
        assert rep.cost == pytest.approx(cost_min, abs=1e-9)


def test_mld_capacity():
    inst = MldInstance(h=[1.0], y=np.zeros(25, dtype=complex), sigma2=1.0)
    with pytest.raises(CapacityError):
        mld_detect(inst)


def test_decide_checks_the_stack_by_the_instance_rules():
    # a block is checked once, before any detector runs, and a bad row
    # fails with the message its own instance gives: a non-finite response
    # or block, a non-finite or negative noise power
    rng = np.random.default_rng(16)
    h, y, sigma2 = stacked([random_instance(rng)[0] for _ in range(3)])

    def spoiled(array, row, value):
        array = array.copy()
        array[(row,) + (0,) * (array.ndim - 1)] = value
        return array

    for args in ((spoiled(h, 1, np.nan), y, sigma2), (h, spoiled(y, 2, np.inf), sigma2),
                 (h, y, spoiled(sigma2, 0, -0.5)), (h, y, spoiled(sigma2, 2, np.nan)),
                 (h, y, -1.0), (h, y, np.inf)):
        with pytest.raises(ValueError) as stack:
            decide(*args, ["MLD", "MMSE"], None, None)
        with pytest.raises(ValueError) as one:
            for t, s2 in enumerate(np.broadcast_to(args[2], 3)):
                MldInstance(h=args[0][t], y=args[1][t], sigma2=float(s2))
        assert str(stack.value) == str(one.value)
    for args in ((h[:, :2], y, sigma2), (h, y, sigma2[:2]), (h[0], y[0], sigma2[0])):
        with pytest.raises(ValueError, match=r"h and y must be \(T, N\) stacks of one shape"):
            decide(*args, ["MMSE"], None, None)


def test_searches_read_whole_tables_beyond_one_array(monkeypatch):
    # at N = 17 a trial's costs come in runs of its patterns: its searches'
    # context reads them joined into one table, whose argmin is MLD's, and
    # MLD listed alone, streaming over the runs, decides the same
    rng = np.random.default_rng(17)
    insts = [random_instance(rng, N=17, R=4, snr_db=5.0)[0] for _ in range(2)]
    contexts = []

    def context(costs, search):
        contexts.append(SearchContext(costs, search))
        return contexts[-1]

    monkeypatch.setattr(gasmld.detect, "SearchContext", context)
    cfg = GasConfig(m=3, max_rounds=2, engine="analytic")
    block = decide(*stacked(insts), ["MLD", "GAS_random"], cfg,
                   lambda det, row: np.random.default_rng(row))
    assert [ctx.costs.shape for ctx in contexts] == [(1 << 17,)] * 2
    H, y = _stack(insts)
    ref = reference_cost_table(*qubo_terms(H, y))
    for row, ctx in enumerate(contexts):
        scale = np.abs(ref[row]).max()
        assert np.all(np.abs(ctx.costs - ref[row]) <= 16 * np.finfo(float).eps * scale)
        assert np.array_equal(block["MLD"][0][row], bits_of(np.argmin(ctx.costs), 17))
    assert np.array_equal(mld_block(insts), block["MLD"][0])


def test_search_capacity_raised_before_any_cost_pass(monkeypatch):
    # 15 key + 12 value qubits exceed the cap: both searches raise before
    # the block's costs exist, which at N = 15 would be 256 KiB a trial
    passes = []
    for name in ("qubo_terms", "cost_chunks"):
        monkeypatch.setattr(gasmld.detect, name, lambda *args, name=name: passes.append(name))
    inst = MldInstance(h=[1.0, 0.5], y=np.ones(15, dtype=complex), sigma2=1.0)
    for detect in (gas_detect, hybrid_detect):
        with pytest.raises(CapacityError, match="26-qubit cap"):
            detect(inst, GasConfig(m=12, engine="analytic"), np.random.default_rng(0))
    assert passes == []


def _stack(instances):
    H = np.array([inst.H for inst in instances])
    y = np.array([inst.y for inst in instances])
    return H, y


def stacked(instances):
    """A list of instances as the arrays ``decide`` reads: responses,
    blocks and noise powers, one row each."""
    return (np.array([inst.h for inst in instances]), np.array([inst.y for inst in instances]),
            np.array([inst.sigma2 for inst in instances]))


def mld_block(instances):
    """MLD's decisions on a block of instances, (T, N) bits."""
    return decide(*stacked(instances), ["MLD"], None, None)["MLD"][0]


def test_batched_decisions_match_single_instance():
    rng = np.random.default_rng(11)
    instances = [random_instance(rng, snr_db=rng.uniform(-5, 10))[0] for _ in range(200)]
    mld = np.array([mld_detect(inst).bits_hat for inst in instances])
    mmse = np.array([mmse_detect(inst).bits_hat for inst in instances])
    H, y = _stack(instances)
    sigma2 = np.array([inst.sigma2 for inst in instances])[:, None]
    for block in (1, 7, 200):
        for lo in range(0, len(instances), block):
            t = slice(lo, lo + block)
            assert np.array_equal(mld_block(instances[t]), mld[t])
            assert np.array_equal(demodulate(mmse_soft(H[t, :, 0], y[t], sigma2[t])), mmse[t])


def test_batched_mld_chunking(monkeypatch):
    # cost arrays capped at 2 or 4 entries split both the patterns and the
    # trials; the decisions must not move
    rng = np.random.default_rng(12)
    instances = [random_instance(rng, N=3)[0] for _ in range(30)]
    ref = mld_block(instances)
    for cap in (2, 4):
        monkeypatch.setattr(gasmld.qubo, "_CHUNK", cap)
        assert np.array_equal(mld_block(instances), ref)


def test_batched_mld_tie_goes_to_lowest_index(monkeypatch):
    # y = 0 on h = [1, -1]: x = (-1, -1) and (+1, +1) both cost 0, and the
    # lowest pattern 0 must win, in a batch and across pattern chunks
    rng = np.random.default_rng(13)
    tie = MldInstance(h=[1.0 + 0j, -1.0],
                      y=np.zeros(2, dtype=complex), sigma2=0.1)
    other = random_instance(rng, N=2, R=1, L_bi=1, L_iu=1)[0]
    for cap in (gasmld.qubo._CHUNK, 2):
        monkeypatch.setattr(gasmld.qubo, "_CHUNK", cap)
        bits = mld_block([other, tie, tie])
        assert np.array_equal(bits[1:], [[0, 0], [0, 0]])
        assert np.array_equal(bits[0], mld_detect(other).bits_hat)
    assert np.array_equal(mld_detect(tie).bits_hat, [0, 0])


def test_mld_decisions_minimise_direct_residual(monkeypatch):
    # an oracle apart from the QUBO: the least residual ||y - H modulate(b)||^2
    # over symbol vectors enumerated with itertools; each row of a stacked
    # decision must reach it, whatever the block and the chunk bound
    rng = np.random.default_rng(15)

    def residual(inst, bits):
        return float(np.sum(np.abs(inst.y - inst.H @ modulate(bits)) ** 2))

    for N in (3, 4):
        instances = [random_instance(rng, N=N, snr_db=rng.uniform(-5, 10))[0] for _ in range(200)]
        least = [min(residual(inst, b) for b in itertools.product((0, 1), repeat=N))
                 for inst in instances]
        for cap in (gasmld.qubo._CHUNK, 2, 4):
            monkeypatch.setattr(gasmld.qubo, "_CHUNK", cap)
            for block in (1, 7, 200):
                for lo in range(0, len(instances), block):
                    t = slice(lo, lo + block)
                    for inst, bits, best in zip(instances[t], mld_block(instances[t]), least[t]):
                        assert residual(inst, bits) <= best + 1e-9 * max(1.0, best)
    # the index codec: bits_of(v, n) is the n-bit expansion of v, LSB first
    for n in range(1, 25):
        v = np.concatenate(([0, (1 << n) - 1], rng.integers(0, 1 << n, size=50)))
        bits = bits_of(v, n)
        assert bits.shape == (v.size, n) and np.all((bits == 0) | (bits == 1))
        assert np.array_equal(bits @ (1 << np.arange(n)), v)


def test_stacked_terms_agree_with_each_instance():
    # on these blocks a stack's Q and c are each instance's own, bit for
    # bit, and its offset rounds within a few ulps of the instance's
    # (matmul sums in another order; on other blocks Q and c can too); the
    # stacked decisions are the argmins of each instance's own table
    for N, seed in ((3, 31), (4, 32), (10, 33)):
        rng = np.random.default_rng(seed)
        instances = [random_instance(rng, N=N, R=4, snr_db=rng.uniform(-5, 10))[0]
                     for _ in range(100)]
        H, y = _stack(instances)
        Q, c, offset = qubo_terms(H, y)
        decisions = mld_block(instances)
        for t, inst in enumerate(instances):
            q = mld_to_qubo(inst)
            assert np.array_equal(Q[t], q.Q) and np.array_equal(c[t], q.c)
            assert offset[t] == pytest.approx(q.offset, rel=1e-12, abs=0)
            costs = evaluate_all_costs(q)
            assert np.array_equal(decisions[t], bits_of(np.argmin(costs), N))


def test_equalizer_reads_the_response():
    # the instance's stored response is H's first column, so the equalizer
    # gives what it gave when it read H[:, 0]
    rng = np.random.default_rng(34)
    for N in (3, 5, 8):
        for _ in range(50):
            inst, _ = random_instance(rng, N=N, snr_db=rng.uniform(-5, 10))
            assert np.array_equal(mmse_equalize(inst), mmse_soft(inst.H[:, 0], inst.y, inst.sigma2))


def test_batched_mmse_dead_bin_warns():
    rng = np.random.default_rng(14)
    dead = MldInstance(h=[1.0 + 0j, -1.0],
                       y=np.array([0.5 + 0j, -0.5]), sigma2=0.0)
    block = [MldInstance(h=inst.h, y=inst.y, sigma2=0.0)
             for inst, _ in (random_instance(rng, N=2, R=1, L_bi=1, L_iu=1) for _ in range(4))]
    block.insert(2, dead)
    H, y = _stack(block)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        soft = mmse_soft(H[:, :, 0], y, 0.0)
    assert len(caught) == 1
    assert np.all(np.isfinite(soft))
    for row, inst in zip(soft, block):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert np.array_equal(row, mmse_equalize(inst))


def test_mmse_scalar_tap():
    inst = MldInstance(h=[2.0 + 0j], y=[1.0 + 0j], sigma2=1.0)
    assert mmse_taps(inst.h, inst.sigma2)[0] == pytest.approx(0.4)


def test_mmse_identity_noiseless_equals_mld():
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, size=4)
    y = transmit(block_from_bits(bits), np.eye(4, dtype=complex), 0.0, rng)
    inst = MldInstance(h=[1.0], y=y, sigma2=0.0)
    assert np.allclose(mmse_taps(inst.h, inst.sigma2), 1.0)
    rep = mmse_detect(inst)
    assert np.array_equal(rep.bits_hat, mld_detect(inst).bits_hat)


def test_mmse_dead_bin_flagged():
    # h = [1, -1] on N=2 puts a spectral null at DC
    inst = MldInstance(h=[1.0 + 0j, -1.0], y=[0.5 + 0j, -0.5], sigma2=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phi = mmse_taps(inst.h, inst.sigma2)
    assert len(caught) == 1
    assert phi[0] == 0.0
    with pytest.warns(UserWarning, match="zero-energy frequency bin"):
        soft = mmse_equalize(inst)
    assert np.all(np.isfinite(soft))


def test_mmse_matches_time_domain_form():
    rng = np.random.default_rng(3)
    for _ in range(20):
        inst, _ = random_instance(rng, N=4, snr_db=rng.uniform(-3, 12))
        soft = mmse_equalize(inst)
        H = inst.H
        direct = np.linalg.solve(
            H.conj().T @ H + inst.sigma2 * np.eye(4), H.conj().T @ inst.y
        )
        assert np.allclose(soft, direct, atol=1e-8)


def test_report_invariants_all_methods():
    rng = np.random.default_rng(4)
    inst, _ = random_instance(rng)
    cfg = GasConfig(engine="analytic")
    reports = [
        mld_detect(inst),
        mmse_detect(inst),
        gas_detect(inst, cfg, np.random.default_rng(7)),
        hybrid_detect(inst, cfg, np.random.default_rng(7)),
    ]
    for rep in reports:
        assert isinstance(rep, DetectionReport)
        assert rep.cost == pytest.approx(residual_cost(inst, rep.x_hat), abs=1e-9)
        assert np.array_equal(rep.bits_hat, (np.real(rep.x_hat) > 0).astype(np.int8))
    assert [r.method for r in reports] == ["MLD", "MMSE", "GAS_random", "GAS_warm"]
    assert reports[0].oracle_queries == 0 and reports[1].oracle_queries == 0


def test_hybrid_never_worse_than_mmse():
    rng = np.random.default_rng(5)
    for trial in range(500):
        inst, _ = random_instance(rng, snr_db=rng.uniform(-6, 10))
        hyb = hybrid_detect(inst, GasConfig(engine="analytic"), np.random.default_rng(trial))
        ref = mmse_detect(inst)
        assert hyb.cost <= ref.cost + 1e-9


def test_hybrid_keeps_optimal_warm_start():
    rng = np.random.default_rng(6)
    inst, _ = random_instance(rng, snr_db=20.0)
    mld = mld_detect(inst)
    if not np.array_equal(mmse_detect(inst).bits_hat, mld.bits_hat):
        pytest.skip("seed no longer gives an optimal equalizer decision")
    rep = hybrid_detect(inst, GasConfig(engine="analytic"), np.random.default_rng(0))
    assert np.array_equal(rep.bits_hat, mld.bits_hat)
    assert rep.cost == pytest.approx(mld.cost, abs=1e-9)


def test_hybrid_tracks_mld():
    rng = np.random.default_rng(7)
    match = 0
    for trial in range(100):
        inst, _ = random_instance(rng, R=4, snr_db=4.0)
        mld = mld_detect(inst)
        hyb = hybrid_detect(inst, GasConfig(engine="analytic"), np.random.default_rng(trial))
        match += np.array_equal(hyb.bits_hat, mld.bits_hat)
    assert match >= 95


def test_gas_random_runs_and_reports_queries():
    rng = np.random.default_rng(8)
    inst, _ = random_instance(rng)
    rep = gas_detect(inst, GasConfig(engine="analytic"), np.random.default_rng(3))
    assert rep.method == "GAS_random"
    assert rep.oracle_queries >= 0
    assert set(rep.bits_hat.tolist()) <= {0, 1}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1 << 32), N=st.sampled_from([3, 5]), engine=st.sampled_from(ENGINES),
       T=st.integers(1, 3))
def test_block_equals_its_blocks_of_one(seed, N, engine, T):
    # each row of a block is the one-instance detector's decision on that
    # instance from the same generator, and a search's row is the search of
    # the instance's own QUBO, warm from its own equalizer decision or not
    rng = np.random.default_rng(seed)
    insts = [random_instance(rng, N=N, snr_db=rng.uniform(-5.0, 10.0))[0] for _ in range(T)]
    cfg = GasConfig(m=8, engine=engine)

    def stream(det, row):
        return np.random.default_rng((seed, row, METHODS.index(det)))

    block = decide(*stacked(insts), METHODS, cfg, stream)
    for row, inst in enumerate(insts):
        alone = {"MLD": mld_detect(inst), "MMSE": mmse_detect(inst),
                 "GAS_random": gas_detect(inst, cfg, stream("GAS_random", row)),
                 "GAS_warm": hybrid_detect(inst, cfg, stream("GAS_warm", row))}
        for det, rep in alone.items():
            assert np.array_equal(block[det][0][row], rep.bits_hat)
            assert block[det][1][row] == rep.oracle_queries
        own = MldInstance(h=inst.h, y=inst.y, sigma2=inst.sigma2)
        for det, start in (("GAS_random", None), ("GAS_warm", demodulate(mmse_equalize(own)))):
            result = run_gas(SearchContext(evaluate_all_costs(mld_to_qubo(own)), cfg), cfg,
                             stream(det, row), start)
            assert np.array_equal(block[det][0][row], result.best_bits)
            assert block[det][1][row] == result.oracle_queries


@pytest.mark.parametrize("engine", ENGINES)
def test_sweep_block_builds_no_search_config(monkeypatch, engine):
    # a search's start is its argument, so every search of a sweep job runs
    # under the sweep's one config: the job builds no GasConfig, not one
    # copy per warm start
    cfg = SweepConfig(snr_db_list=[0.0, 5.0], detectors=["GAS_random", "GAS_warm"], N=3,
                      trials_per_point=4, gas=GasConfig(m=8, engine=engine)).validate()
    built = []
    check = GasConfig.__post_init__
    monkeypatch.setattr(GasConfig, "__post_init__", lambda self: built.append(self) or check(self))
    gasmld.bench._run_block((cfg, 0, 8))
    assert built == []
    GasConfig()  # the spy sees a config built
    assert len(built) == 1


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("cap", [8, 24, 40, 1 << 16])
def test_search_groups_split_at_the_key_bound(monkeypatch, engine, cap):
    # an analytic group holds at most cap key entries, 2^N per search: at
    # N = 3 one search, three, five or a whole block of them; statevector
    # searches run one at a time, in trial order.  Every row is the
    # one-search reference on that row's own context and stream.
    rng = np.random.default_rng(cap)
    insts = [random_instance(rng, N=3, snr_db=rng.uniform(-5.0, 10.0))[0] for _ in range(7)]
    cfg = GasConfig(m=8, engine=engine)
    groups = []
    monkeypatch.setattr(gasmld.detect, "_CHUNK", cap)
    monkeypatch.setattr(gasmld.detect, "run_searches", lambda cfg, searches:
                        groups.append(len(searches)) or run_searches(cfg, searches))

    def stream(det, row):
        return np.random.default_rng((cap, row, METHODS.index(det)))

    block = decide(*stacked(insts), ["GAS_random", "GAS_warm"], cfg, stream)
    size = 1 if engine == "statevector" else min(cap >> 3, 14)
    assert max(groups) == size and sum(groups) == 14
    for row, inst in enumerate(insts):
        own = MldInstance(h=inst.h, y=inst.y, sigma2=inst.sigma2)
        for det, start in (("GAS_random", None), ("GAS_warm", demodulate(mmse_equalize(own)))):
            result = reference_run_gas(SearchContext(evaluate_all_costs(mld_to_qubo(own)), cfg), cfg,
                                       stream(det, row), start)
            assert np.array_equal(block[det][0][row], result.best_bits)
            assert block[det][1][row] == result.oracle_queries


@pytest.mark.parametrize(("engine", "T"), [("analytic", 32), ("analytic", 3), ("statevector", 3)])
def test_decide_builds_no_per_search_result(monkeypatch, engine, T):
    # a block's searches come back as arrays, whose rows ``decide`` writes
    # directly: no search of the block builds a ``GasResult``, neither in a
    # 64-search group that runs as arrays nor in the per-row loop, and the
    # decisions are those of the unguarded run
    rng = np.random.default_rng(90 + T)
    insts = [random_instance(rng, N=3, snr_db=rng.uniform(-5.0, 10.0))[0] for _ in range(T)]
    cfg = GasConfig(m=8, engine=engine)

    def stream(det, row):
        return np.random.default_rng((T, row, METHODS.index(det)))

    expected = decide(*stacked(insts), METHODS, cfg, stream)

    def refused(*args, **kwargs):
        raise AssertionError("a per-search GasResult was built")

    monkeypatch.setattr(gasmld.gas, "GasResult", refused)
    ctx = SearchContext(evaluate_all_costs(mld_to_qubo(insts[0])), cfg)
    with pytest.raises(AssertionError, match="per-search"):
        run_gas(ctx, cfg, stream("GAS_random", 0))  # the guard sees a result read
    sizes = []
    monkeypatch.setattr(gasmld.detect, "run_searches", lambda cfg, searches:
                        sizes.append(len(searches)) or run_searches(cfg, searches))
    block = decide(*stacked(insts), METHODS, cfg, stream)
    assert sizes == ([2 * T] if engine == "analytic" else [1] * 2 * T)
    assert (max(sizes) >= gasmld.gas._ARRAY_GROUP) == (T == 32)
    for det in METHODS:
        assert np.array_equal(block[det][0], expected[det][0])
        assert np.array_equal(block[det][1], expected[det][1])
