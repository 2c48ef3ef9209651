"""Sweep harness: seeding/pairing, CSV contract, config grammar, CLI."""

import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gasmld.bench
import gasmld.detect
import gasmld.gas
import gasmld.qubo
from conftest import child_env
from oracles import reference_detector_rng, reference_stream, reference_trial_instance
from gasmld.bench import (
    BLOCK_TRIALS,
    BerRecord,
    ConfigError,
    SweepConfig,
    config_settings,
    detector_rng,
    emit_csv,
    fig_recipe,
    format_config,
    parse_config,
    random_bits,
    run_sweep,
    seeded_stream,
    stream_words,
    trial_block,
    trial_instance,
)
from gasmld.cli import main
from gasmld.detect import (
    METHODS,
    gas_detect,
    hybrid_detect,
    mld_detect,
    mmse_detect,
)
from gasmld.gas import ENGINES, GasConfig, check_registers
from gasmld.qcore import MAX_QUBITS, CapacityError
from gasmld.qubo import BRUTE_FORCE_MAX_N, bits_of


@pytest.fixture
def identity_channel(monkeypatch):
    """Every trial's channel is H = I: ``channel_stack`` is patched where
    the sweep looks it up, on one worker so no other process imports it
    afresh.  The taps are still drawn, so the bits and noise keep their
    places in each stream."""
    monkeypatch.setenv("GASMLD_THREADS", "1")
    monkeypatch.setattr(gasmld.bench, "channel_stack",
                        lambda z, R, L_bi, L_iu: SimpleNamespace(h_eff=np.ones((len(z), 1), complex)))


def small_config(**kw):
    base = dict(
        snr_db_list=[0.0],
        detectors=["MMSE"],
        R_list=[0],
        N=3,
        trials_per_point=20,
        master_seed=9,
        gas=GasConfig(engine="analytic"),
    )
    base.update(kw)
    return SweepConfig(**base)


def test_trial_instances_are_detector_independent():
    cfg = small_config(detectors=["MLD", "MMSE", "GAS_warm"])
    a, bits_a = trial_instance(cfg, 0, 0, 5)
    b, bits_b = trial_instance(cfg, 0, 0, 5)
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(bits_a, bits_b)
    c, _ = trial_instance(cfg, 0, 0, 6)
    assert not np.array_equal(a.y, c.y)


@pytest.mark.parametrize("N", [3, 5, 10, 16])
@pytest.mark.parametrize("R", [0, 1, 4])
@pytest.mark.parametrize("snr_db", [0.0, math.inf])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1 << 32), start=st.integers(1, 5000),
       links=st.sampled_from([(2, 2), (1, 1), (1, 3), (3, 2)]))
def test_trial_block_matches_the_one_trial_reference(N, R, snr_db, seed, start, links):
    # every row of a block's stacked arrays, and a trial's instance (the
    # block of one), is bit for bit what the one-trial reference builds from
    # the trial's stream: padded h, y and bits; noiseless at N = 5 is where
    # a product over stacked circulants rounds an ulp apart
    assume(N >= links[0] + links[1] - 1)
    cfg = small_config(snr_db_list=[snr_db], R_list=[R], N=N, L_bi=links[0], L_iu=links[1],
                       master_seed=seed)
    for first, size in ((start, 1), (0, 9), (start, 9), (start, 40)):
        h, y, sigma2, bits = trial_block(cfg, 0, 0, first, first + size)
        assert h.shape == y.shape == bits.shape == (size, N)
        for row, trial in enumerate(range(first, first + size)):
            ref, ref_bits = reference_trial_instance(cfg, 0, 0, trial)
            inst, inst_bits = trial_instance(cfg, 0, 0, trial)
            for got_h, got_y, got_bits in ((h[row], y[row], bits[row]),
                                           (inst.h, inst.y, inst_bits)):
                assert got_h.tobytes() == ref.h.tobytes()
                assert got_y.tobytes() == ref.y.tobytes()
                assert got_bits.tobytes() == ref_bits.tobytes()
            assert sigma2 == inst.sigma2 == ref.sigma2


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), N=st.integers(1, 40), taps=st.integers(0, 12))
def test_trial_bits_are_numpys_draws(seed, N, taps):
    # a trial's bits, decoded from the ceil(N/2) raw words between its two
    # normal draws, are numpy's integers(0, 2, N), and the noise normals
    # after them are numpy's: ziggurat neither reads nor sets the carry that
    # an odd N leaves
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert ours.standard_normal(taps).tobytes() == ref.standard_normal(taps).tobytes()
    words = ours.bit_generator.random_raw((N + 1) // 2)
    bits = random_bits(words, N)
    assert bits.tolist() == ref.integers(0, 2, size=N).tolist()
    assert random_bits(words[None], N).tolist() == [bits.tolist()]  # a block's stacked rows
    assert ours.standard_normal(2 * N).tobytes() == ref.standard_normal(2 * N).tobytes()


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
def test_trial_block_rejects_a_bad_noise_power(snr_db):
    # NaN and -inf dB give sigma2 = NaN and inf; the block's noise check is
    # transmit's own
    cfg = small_config(snr_db_list=[snr_db])
    with pytest.raises(ValueError, match="sigma2 must be finite and non-negative"):
        trial_block(cfg, 0, 0, 0, 3)


def _assert_numpys_stream(rng, key):
    # the same PCG64 state and increment, and the same first draws of each
    # kind the sweep reads, as numpy's own stream of the key
    ref = reference_stream(key)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.standard_normal() == ref.standard_normal()
    assert np.array_equal(rng.integers(0, 2, 7), ref.integers(0, 2, 7))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("seed", [0, (1 << 32) - 1, 1 << 32, (1 << 64) + 3])
def test_streams_hashed_together_are_numpys(seed):
    # a sweep grid of keys over every detector tag, hashed in one pass with
    # trial indices on both sides of 2^32, so keys of two and three word
    # counts share the call
    grid = [(s, r, t, tag) for s in range(2) for r in range(3)
            for t in (0, 1, 499, (1 << 32) - 1, 1 << 32, (1 << 40) + 7)
            for tag in range(1 + len(METHODS))]
    words = stream_words(seed, *np.array(grid).T)
    assert words.shape == (len(grid), 4) and words.dtype == np.uint64
    for row, key in zip(words, grid):
        _assert_numpys_stream(seeded_stream(row), (seed, *key))


@settings(max_examples=200, deadline=None)
@given(key=st.tuples(*[st.integers(0, 1 << 70)] * 5))
def test_any_key_hashes_as_numpys(key):
    # any non-negative 5-tuple, as shared entries; and the entries below
    # 2^63 as one-key arrays, so an array entry takes numpy's word count
    _assert_numpys_stream(seeded_stream(stream_words(*key)[0]), key)
    entries = [np.array([v]) if v < 1 << 63 else v for v in key]
    _assert_numpys_stream(seeded_stream(stream_words(*entries)[0]), key)


def test_one_key_streams_are_numpys():
    # the one-key case: each randomized detector's stream of a trial, and
    # the trial streams of a block whose indices cross 2^32
    cfg = small_config(master_seed=(1 << 32) + 9, snr_db_list=[0.0, 5.0], R_list=[0, 4])
    for det in METHODS:
        key = (cfg.master_seed, 1, 1, 3, 1 + METHODS.index(det))
        _assert_numpys_stream(detector_rng(cfg, 1, 1, 3, det), key)
    first = (1 << 32) - 2
    h, y, _, bits = trial_block(cfg, 1, 0, first, first + 4)
    for row, trial in enumerate(range(first, first + 4)):
        ref, ref_bits = reference_trial_instance(cfg, 1, 0, trial)
        assert (h[row].tobytes(), y[row].tobytes(), bits[row].tobytes()) == \
            (ref.h.tobytes(), ref.y.tobytes(), ref_bits.tobytes())


def test_stream_keys_must_be_non_negative_ints():
    for key in ((-1, 0), (0, np.array([3, -2])), (0, np.array([0.5])),
                (0, np.array([1 << 63], dtype=np.uint64))):
        with pytest.raises(ValueError, match="non-negative"):
            stream_words(*key)


@pytest.mark.parametrize("engine", ENGINES)
def test_sweep_streams_skip_numpys_per_key_seeding(monkeypatch, engine):
    # every stream of a sweep, trial and search alike, comes from the job's
    # hashed words: numpy's per-key constructors are never called
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep stream was seeded one key at a time")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setenv("GASMLD_THREADS", "1")
    cfg = small_config(detectors=list(METHODS), R_list=[0, 4], trials_per_point=5,
                       gas=GasConfig(m=8, engine=engine))
    assert len(run_sweep(cfg)) == 2 * len(METHODS)


def test_sweep_noiseless_mld_perfect():
    cfg = small_config(detectors=["MLD"], snr_db_list=[60.0], R_list=[4])
    (rec,) = run_sweep(cfg)
    assert rec.bit_errors == 0
    assert rec.ber == 0.0
    assert rec.mean_queries == 0.0


def test_sweep_records_and_query_accounting():
    cfg = small_config(detectors=["MLD", "MMSE", "GAS_warm"], trials_per_point=10)
    records = run_sweep(cfg)
    assert [r.detector for r in records] == ["GAS_warm", "MLD", "MMSE"]  # sorted
    by_det = {r.detector: r for r in records}
    assert by_det["MLD"].mean_queries == 0.0
    assert by_det["MMSE"].mean_queries == 0.0
    for rec in records:
        assert 0.0 <= rec.ber <= 1.0
        assert rec.trials == 10
        assert rec.bit_errors == round(rec.ber * rec.trials * cfg.N)


def test_block_boundaries_keep_each_column(monkeypatch):
    # three blocks per point, the last one partial: every trial's instance is
    # built once, and each detector's row is the row it gets when swept alone
    cfg = small_config(detectors=list(METHODS), trials_per_point=2 * BLOCK_TRIALS + 7,
                       R_list=[4], master_seed=21)
    built = []

    def counted(cfg, snr_idx, r_idx, start, stop):
        built.extend(range(start, stop))
        return trial_block(cfg, snr_idx, r_idx, start, stop)

    monkeypatch.setenv("GASMLD_THREADS", "1")
    monkeypatch.setattr(gasmld.bench, "trial_block", counted)
    together = {r.detector: r for r in run_sweep(cfg)}
    assert built == list(range(cfg.trials_per_point))
    for det in cfg.detectors:
        (alone,) = run_sweep(small_config(detectors=[det], trials_per_point=cfg.trials_per_point,
                                          R_list=[4], master_seed=21))
        assert together[det] == alone
    # and the block's columns count every trial once, as the one-instance
    # detectors do on the trial's own stream
    one = {"MLD": lambda inst, rng: mld_detect(inst),
           "MMSE": lambda inst, rng: mmse_detect(inst),
           "GAS_random": lambda inst, rng: gas_detect(inst, cfg.gas, rng),
           "GAS_warm": lambda inst, rng: hybrid_detect(inst, cfg.gas, rng)}
    for det, detect in one.items():
        errors = queries = 0
        for trial in range(cfg.trials_per_point):
            inst, bits = trial_instance(cfg, 0, 0, trial)
            rep = detect(inst, reference_detector_rng(cfg, 0, 0, trial, det))
            errors += int(np.sum(rep.bits_hat != bits))
            queries += rep.oracle_queries
        assert (together[det].bit_errors, together[det].mean_queries) == \
            (errors, queries / cfg.trials_per_point)


def test_block_channels_are_each_trials_own(monkeypatch):
    # the block's one cost pass sees each trial's own circulant H, built
    # from the stacked responses in one call
    cfg = small_config(detectors=["MLD", "MMSE"], R_list=[4], N=5, trials_per_point=9)
    seen = []

    def capture(H, y):
        seen.append((H.copy(), y.copy()))
        return gasmld.qubo.qubo_terms(H, y)

    monkeypatch.setenv("GASMLD_THREADS", "1")
    monkeypatch.setattr(gasmld.detect, "qubo_terms", capture)
    run_sweep(cfg)
    ((H, y),) = seen
    assert H.shape == (9, 5, 5)
    for trial in range(9):
        inst, _ = trial_instance(cfg, 0, 0, trial)
        assert np.array_equal(H[trial], inst.H)
        assert np.array_equal(y[trial], inst.y)


def _counted(monkeypatch, module, name, calls):
    """Patch ``module.name`` with a wrapper that appends to ``calls``."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_one_search_context_per_trial(monkeypatch):
    # a block's costs come from one expansion and one exhaustive pass, which
    # MLD and both searches of a trial read through one context; every
    # trial's warm start comes from one equalizer pass per block, and a
    # block's circulants are built in one call (each trial's transmission
    # gathers its own, ``trial_block``)
    cfg = small_config(detectors=["MLD", "GAS_random", "GAS_warm"],
                       trials_per_point=BLOCK_TRIALS + 3, R_list=[4], master_seed=5)
    calls = []
    monkeypatch.setenv("GASMLD_THREADS", "1")
    for module, name in ((gasmld.detect, "qubo_terms"), (gasmld.detect, "cost_chunks"),
                         (gasmld.detect, "SearchContext"), (gasmld.qubo, "mld_to_qubo"),
                         (gasmld.qubo, "evaluate_all_costs"),
                         (gasmld.detect, "mmse_soft"), (gasmld.detect, "circulant_matrix"),
                         (gasmld.qubo, "circulant_matrix")):
        _counted(monkeypatch, module, name, calls)
    run_sweep(cfg)
    trials, blocks = cfg.trials_per_point, 2
    assert calls.count("qubo_terms") == calls.count("cost_chunks") == blocks
    assert calls.count("SearchContext") == trials
    assert calls.count("mld_to_qubo") == calls.count("evaluate_all_costs") == 0
    assert calls.count("mmse_soft") == blocks
    assert calls.count("circulant_matrix") == blocks  # none lazily in qubo


@pytest.mark.parametrize("detectors", [["MMSE"], list(METHODS)])
def test_sweep_builds_no_instance(monkeypatch, detectors):
    # a block stays stacked arrays from ``trial_block`` to ``decide``: no
    # trial becomes an ``MldInstance`` on the sweep path
    built = []
    post_init = gasmld.qubo.MldInstance.__post_init__
    monkeypatch.setattr(gasmld.qubo.MldInstance, "__post_init__",
                        lambda inst: built.append(inst) or post_init(inst))
    monkeypatch.setenv("GASMLD_THREADS", "1")
    run_sweep(small_config(detectors=detectors, R_list=[0, 4]))
    assert built == []
    trial_instance(small_config(), 0, 0, 0)  # the spy sees the block of one
    assert len(built) == 1


def test_contexts_read_the_rows_mld_reads(monkeypatch):
    # every search context's table is a view of the row of the cost array
    # that MLD took its argmin from, so the two read one table by construction
    cfg = small_config(detectors=["MLD", "GAS_random", "GAS_warm"], N=4,
                       trials_per_point=11, R_list=[4], master_seed=6).validate()
    arrays, contexts = [], []

    def chunks(*terms):
        for rows, start, costs in gasmld.qubo.cost_chunks(*terms):
            arrays.append((rows, start, costs))
            yield rows, start, costs

    def context(costs, search):
        contexts.append(gasmld.gas.SearchContext(costs, search))
        return contexts[-1]

    monkeypatch.setattr(gasmld.detect, "cost_chunks", chunks)
    monkeypatch.setattr(gasmld.detect, "SearchContext", context)
    h, y, sigma2, _ = trial_block(cfg, 0, 0, 0, cfg.trials_per_point)
    out = gasmld.detect.decide(h, y, sigma2, cfg.detectors, cfg.gas,
                               lambda det, row: detector_rng(cfg, 0, 0, row, det))
    ((rows, start, costs),) = arrays
    assert (rows.start, start, costs.shape) == (0, 0, (11, 16))
    assert len(contexts) == 11
    for row, ctx in enumerate(contexts):
        assert np.shares_memory(ctx.costs, costs[row]) and np.array_equal(ctx.costs, costs[row])
        assert np.array_equal(out["MLD"][0][row], bits_of(np.argmin(costs[row]), cfg.N))


def test_warm_starts_are_each_trials_equalizer_decision(monkeypatch):
    # at every point, each search column is the one-instance search on each
    # trial's own stream: GAS_warm from the trial's equalizer decision, which
    # test_detect checks row by row, and GAS_random from none
    cfg = small_config(detectors=["GAS_random", "GAS_warm"], snr_db_list=[-5.0, 10.0],
                       R_list=[0, 4], trials_per_point=25, master_seed=17)
    monkeypatch.setenv("GASMLD_THREADS", "1")
    records = {(r.snr_db, r.R, r.detector): r for r in run_sweep(cfg)}
    for snr_idx, snr in enumerate(cfg.snr_db_list):
        for r_idx, R in enumerate(cfg.R_list):
            for det, detect in (("GAS_random", gas_detect), ("GAS_warm", hybrid_detect)):
                errors = queries = 0
                for trial in range(cfg.trials_per_point):
                    inst, bits = trial_instance(cfg, snr_idx, r_idx, trial)
                    rep = detect(inst, cfg.gas,
                                 reference_detector_rng(cfg, snr_idx, r_idx, trial, det))
                    errors += int(np.sum(rep.bits_hat != bits))
                    queries += rep.oracle_queries
                rec = records[snr, R, det]
                assert (rec.bit_errors, rec.mean_queries) == (errors, queries / cfg.trials_per_point)


def test_equalizer_only_block_holds_no_dense_channel():
    # an MMSE-only block reads each trial's response, never a held N x N
    # circulant: its heap peak stays within a few dense channels, where one
    # pinned per trial would take a hundred
    cfg = small_config(detectors=["MMSE"], N=256, trials_per_point=100, R_list=[4])
    dense = cfg.N * cfg.N * 16
    tracemalloc.start()
    try:
        gasmld.bench._run_block((cfg.validate(), 0, cfg.trials_per_point))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * dense


def _spied_blocks(monkeypatch):
    """Patch ``trial_block`` and ``decide`` where the sweep looks them up;
    returns the slices built, ``(snr_idx, r_idx, start, stop)``, and the
    row count of each ``decide`` call."""
    built, decided = [], []

    def block(cfg, snr_idx, r_idx, start, stop):
        built.append((snr_idx, r_idx, start, stop))
        return trial_block(cfg, snr_idx, r_idx, start, stop)

    def decide(h, *args):
        decided.append(len(h))
        return gasmld.detect.decide(h, *args)

    monkeypatch.setattr(gasmld.bench, "trial_block", block)
    monkeypatch.setattr(gasmld.bench, "decide", decide)
    return built, decided


def test_a_serial_sweep_of_small_points_is_one_block(monkeypatch):
    # 12 points of 16 trials make one job: each point's slice built once,
    # in (point, trial) order, and one ``decide`` call on all 192 rows
    cfg = small_config(detectors=["MLD", "GAS_random", "GAS_warm"],
                       snr_db_list=[-5.0, 0.0, 5.0, 10.0], R_list=[0, 4, 8], trials_per_point=16)
    monkeypatch.setenv("GASMLD_THREADS", "1")
    built, decided = _spied_blocks(monkeypatch)
    run_sweep(cfg)
    assert decided == [192]
    assert built == [(s, r, 0, 16) for s in range(4) for r in range(3)]


def test_jobs_cross_point_edges(monkeypatch):
    # 3 points of 300 trials make two jobs of 450 rows: the first ends
    # inside the second point, whose rest opens the next job
    cfg = small_config(detectors=["MLD", "MMSE"], R_list=[0, 4, 8], trials_per_point=300)
    monkeypatch.setenv("GASMLD_THREADS", "1")
    built, decided = _spied_blocks(monkeypatch)
    records = run_sweep(cfg)
    assert decided == [450, 450]
    assert built == [(0, 0, 0, 300), (0, 1, 0, 150), (0, 1, 150, 300), (0, 2, 0, 300)]
    # and the records are those of jobs cut at every point's edge, or at
    # every seventh row
    for size in (300, 7):
        monkeypatch.setattr(gasmld.bench, "BLOCK_TRIALS", size)
        assert run_sweep(cfg) == records


@pytest.mark.parametrize("threads, trials, jobs", [
    ("2", 300, [450] * 8),  # 3,600 rows: 4 jobs a worker, none over BLOCK_TRIALS
    ("2", 200, [400] * 6),
    ("3", 1, [4] * 3),
    ("4", 20, [60] * 4),
    ("16", 1, [1] * 12),  # fewer rows than workers: a job each
])
def test_pooled_jobs_are_equal_and_whole_per_worker(monkeypatch, threads, trials, jobs):
    # the jobs a pool is handed, on the 12 points of the fig2 grid
    cfg = small_config(snr_db_list=[-5.0, 0.0, 5.0, 10.0], R_list=[0, 4, 8],
                       trials_per_point=trials)
    seen = []

    class Pool:
        def __init__(self, max_workers):
            self.workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, todo):
            todo = list(todo)
            seen.append((self.workers, [stop - start for _, start, stop in todo]))
            return map(fn, todo)

    monkeypatch.setenv("GASMLD_THREADS", threads)
    monkeypatch.setattr(gasmld.bench, "ProcessPoolExecutor", Pool)
    run_sweep(cfg)
    assert seen == [(min(int(threads), len(jobs)), jobs)]


@pytest.mark.parametrize("name, digest", [
    ("fig2", "1759feab3cd6a276378fc41af4b9a66ac0d00a95be8e7ef6cd438bdb63aab0de"),
    ("fig3", "34659bc667f3d5d30dd8055f374f548e2ebe6026d42b696244e933a542cf8bc7"),
])
def test_recipe_bytes(monkeypatch, tmp_path, capsys, name, digest):
    # the recipes' CSV bytes at 200 trials on one worker, as first recorded
    out = tmp_path / f"{name}.csv"
    monkeypatch.setenv("GASMLD_THREADS", "1")
    assert main(["sweep", "--recipe", name, "--trials", "200", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_n10_search_bytes(monkeypatch, tmp_path):
    # an analytic sweep over 1,024-key tables, as first recorded: a stacked
    # row sum or running sum that rounded apart from one search's would
    # move a search's picks and so these bytes
    out = tmp_path / "n10.csv"
    monkeypatch.setenv("GASMLD_THREADS", "1")
    cfg = SweepConfig(snr_db_list=[0.0], detectors=["MLD", "GAS_random", "GAS_warm"],
                      R_list=[4], N=10, trials_per_point=10, master_seed=1234,
                      gas=GasConfig(m=12, max_rounds=50, stall_rounds=15, engine="analytic"),
                      output_path=str(out))
    emit_csv(run_sweep(cfg.validate()), cfg.output_path)
    digest = "50ee5d53d0faa1d2719bffdfec688a0314c5edaff384ba641946cba61e8c222d"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_n10_array_group_bytes(monkeypatch, tmp_path):
    # as above, 32 trials, recorded before large groups ran as arrays: the
    # trials' 64 searches, the most that one group holds at N = 10, run as
    # one group at least as large as the array path's threshold, so an
    # array round that decoded a draw or moved a row apart from the per-row
    # loop would move these bytes
    out = tmp_path / "n10_array.csv"
    monkeypatch.setenv("GASMLD_THREADS", "1")
    sizes = []
    inner = gasmld.detect.run_searches

    def spy(cfg, searches):
        sizes.append(len(searches))
        return inner(cfg, searches)

    monkeypatch.setattr(gasmld.detect, "run_searches", spy)
    cfg = SweepConfig(snr_db_list=[0.0], detectors=["MLD", "GAS_random", "GAS_warm"],
                      R_list=[4], N=10, trials_per_point=32, master_seed=1234,
                      gas=GasConfig(m=12, max_rounds=50, stall_rounds=15, engine="analytic"),
                      output_path=str(out))
    emit_csv(run_sweep(cfg.validate()), cfg.output_path)
    assert sizes == [64] and sizes[0] >= gasmld.gas._ARRAY_GROUP
    digest = "1634342ce70be116ec7405e0befa05c74596925bde009d1d52dae7e33b949fdd"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_n18_mld_bytes(monkeypatch, tmp_path):
    # an exhaustive-only sweep over 2^18-key tables, as first recorded: each
    # trial's costs come as runs of its patterns, 2^16 at a time, so an
    # argmin that moved across the runs would move these bytes
    out = tmp_path / "n18.csv"
    monkeypatch.setenv("GASMLD_THREADS", "1")
    cfg = SweepConfig(snr_db_list=[0.0, 10.0], detectors=["MLD"], R_list=[4], N=18,
                      trials_per_point=3, master_seed=1234, output_path=str(out))
    emit_csv(run_sweep(cfg.validate()), cfg.output_path)
    digest = "541b1b9e85745080364ffe8c83bec730212e9711537062c5b1bdd54ebb84e496"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_statevector_search_bytes(monkeypatch, tmp_path):
    # a statevector sweep, as first recorded: its searches run one at a
    # time on the context's threshold slot, and their L = 0 rounds draw
    # without a state, so a slot or a zero-rotation key that moved a pick
    # would move these bytes
    out = tmp_path / "statevector.csv"
    monkeypatch.setenv("GASMLD_THREADS", "1")
    cfg = SweepConfig(snr_db_list=[0.0], detectors=["GAS_random", "GAS_warm"], R_list=[4], N=3,
                      trials_per_point=6, master_seed=1234,
                      gas=GasConfig(m=12, max_rounds=50, stall_rounds=15, engine="statevector"),
                      output_path=str(out))
    emit_csv(run_sweep(cfg.validate()), cfg.output_path)
    digest = "db2a183ed893764af4ca56dbde04dcb7efb8b65c1d521e422c93e37b498aa045"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_identity_channel_bookkeeping(identity_channel):
    # on H = I every detector decides by the sign of Re(y), so a shared
    # instance gives every column the same errors, summed over two blocks
    cfg = small_config(detectors=["MLD", "MMSE", "GAS_warm"], trials_per_point=BLOCK_TRIALS + 3,
                       snr_db_list=[0.0, 60.0])
    records = run_sweep(cfg)
    assert len(records) == 6
    for snr in cfg.snr_db_list:
        row = [r for r in records if r.snr_db == snr]
        assert {r.bit_errors for r in row} == {row[0].bit_errors}
        assert all(r.trials == cfg.trials_per_point for r in row)
    assert records[0].bit_errors > 0 and records[-1].bit_errors == 0


@contextmanager
def worker_cap(value: str):
    saved = os.environ.get("GASMLD_THREADS")
    os.environ["GASMLD_THREADS"] = value
    try:
        yield
    finally:
        if saved is None:
            del os.environ["GASMLD_THREADS"]
        else:
            os.environ["GASMLD_THREADS"] = saved


@st.composite
def small_sweeps(draw):
    detectors = draw(st.lists(st.sampled_from(METHODS), min_size=1, max_size=3, unique=True))
    searches = {"GAS_random", "GAS_warm"} & set(detectors)
    return small_config(
        snr_db_list=draw(st.lists(st.sampled_from([-5.0, 0.0, 5.0]), min_size=1, max_size=2,
                                  unique=True)),
        detectors=detectors,
        # two points at least, so that two workers both get a job, which
        # may straddle the two
        R_list=draw(st.lists(st.sampled_from([0, 4, 8]), min_size=2, max_size=2, unique=True)),
        N=draw(st.integers(3, 4)),
        # only the classical detectors are cheap enough to cross a block edge
        trials_per_point=draw(st.integers(1, 12 if searches else BLOCK_TRIALS + 40)),
        master_seed=draw(st.integers(0, 1 << 32)),
    )


@settings(max_examples=10, deadline=None)
@given(small_sweeps())
def test_csv_independent_of_worker_count(tmp_path_factory, cfg):
    out = tmp_path_factory.mktemp("workers")
    blobs = []
    for threads in ("1", "2"):
        path = out / f"{threads}.csv"
        with worker_cap(threads):
            emit_csv(run_sweep(cfg), str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("N, engine, trials", [(10, "analytic", 30), (3, "statevector", 5)])
def test_csv_independent_of_worker_count_across_points(tmp_path, N, engine, trials):
    # three points of a search sweep, cut into jobs that straddle points:
    # one job on one worker (at N = 10 split into lockstep groups of 64
    # searches, 32 trials, across point edges), jobs of half or a quarter of
    # the rows on two or four
    cfg = small_config(detectors=["MLD", "GAS_random", "GAS_warm"], snr_db_list=[-5.0, 0.0, 5.0],
                       R_list=[4], N=N, trials_per_point=trials, master_seed=77,
                       gas=GasConfig(m=12, max_rounds=50, stall_rounds=15, engine=engine))
    blobs = []
    for threads in ("1", "2", "4"):
        path = tmp_path / f"{threads}.csv"
        with worker_cap(threads):
            emit_csv(run_sweep(cfg), str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_awgn_ber_matches_closed_form(identity_channel):
    # identity channel: BPSK over AWGN, BER = Q(sqrt(2 snr))
    snr_db = 0.0
    cfg = small_config(
        detectors=["MMSE"], snr_db_list=[snr_db], trials_per_point=4000, master_seed=3
    )
    (rec,) = run_sweep(cfg)
    snr = 10 ** (snr_db / 10)
    q_func = 0.5 * math.erfc(math.sqrt(2 * snr) / math.sqrt(2))
    assert abs(rec.ber - q_func) <= 3 * rec.ci95


def test_csv_bytes_and_roundtrip(tmp_path):
    cfg = small_config(detectors=["MLD", "MMSE"], snr_db_list=[0.0, 5.0])
    paths = [tmp_path / f"out{i}.csv" for i in (0, 1)]
    for p in paths:
        emit_csv(run_sweep(cfg), str(p))
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1]
    rows = list(csv.DictReader(io.StringIO(blobs[0].decode())))
    assert len(rows) == 4
    assert set(rows[0]) == {
        "snr_db", "detector", "R", "trials", "bit_errors", "ber", "mean_queries", "ci95",
    }
    for row in rows:
        assert float(row["ber"]) <= 1.0


def test_emit_csv_empty_and_single(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path))
    assert path.read_text() == "snr_db,detector,R,trials,bit_errors,ber,mean_queries,ci95\n"
    rec = BerRecord(
        snr_db=1.25, detector="MLD", R=4, trials=7, bit_errors=3,
        ber=3 / 21, mean_queries=0.0, ci95=0.01,
    )
    emit_csv([rec], str(path))
    row = next(csv.DictReader(io.StringIO(path.read_text())))
    assert float(row["snr_db"]) == 1.25
    assert int(row["bit_errors"]) == 3
    assert float(row["ber"]) == pytest.approx(1 / 7, abs=1e-9)


def test_emit_csv_failed_write_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    records = run_sweep(small_config(detectors=["MLD"], snr_db_list=[0.0]))
    emit_csv(records, str(path))
    before = path.read_bytes()

    class HalfWriter:
        """Passes half of what is written on to the real file, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError("disk full")

    real_open = open
    monkeypatch.setattr(gasmld.bench, "open", lambda *a, **k: HalfWriter(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        emit_csv([], str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_fig_recipes():
    fig2 = fig_recipe("fig2")
    assert fig2.detectors == ["MLD", "GAS_random", "GAS_warm"]
    assert fig2.R_list == [0, 4, 8]
    assert fig2.N == 3
    fig3 = fig_recipe("fig3")
    assert fig3.detectors == ["MLD", "MMSE", "GAS_warm"]
    assert fig3.R_list == [0, 4, 8]
    with pytest.raises(ConfigError):
        fig_recipe("fig9")


def test_config_roundtrip_and_errors():
    cfg = fig_recipe("fig2")
    cfg.gas.m = 7
    text = format_config(cfg)
    again = parse_config(text)
    assert again == cfg
    with pytest.raises(ConfigError):
        parse_config("snr_db 0,5")
    with pytest.raises(ConfigError):
        parse_config("unknown_key = 3")
    with pytest.raises(ConfigError):
        parse_config("trials = many")
    with pytest.raises(ConfigError):
        parse_config("trials = 0")
    with pytest.raises(ConfigError):
        parse_config("detectors = MLD,ZF")
    with pytest.raises(ConfigError):
        parse_config("n = 1")  # below the delay spread


@st.composite
def sweep_configs(draw):
    """Valid SweepConfigs over every key the config grammar carries, with N
    and m within the caps of the detectors listed."""
    small = st.integers(1, 50)
    detectors = draw(st.lists(st.sampled_from(METHODS), min_size=1, unique=True))
    searches = {"GAS_random", "GAS_warm"} & set(detectors)
    # MLD and the searches enumerate all 2^N keys; a search also holds N + m qubits
    N = draw(st.integers(1, BRUTE_FORCE_MAX_N if searches or "MLD" in detectors else 150))
    L_bi = draw(st.integers(1, min(N, 50)))
    L_iu = draw(st.integers(1, min(N - L_bi + 1, 50)))
    gas = GasConfig(
        m=draw(st.integers(2, MAX_QUBITS - N if searches else MAX_QUBITS)),
        growth_factor=draw(st.floats(1.0, 1e6, exclude_min=True)),
        max_rounds=draw(small),
        stall_rounds=draw(small),
        engine=draw(st.sampled_from(ENGINES)),
    )
    return SweepConfig(
        snr_db_list=draw(st.lists(st.floats(-3000.0, allow_infinity=False), min_size=1,
                                  unique=True)),
        detectors=detectors,
        R_list=draw(st.lists(st.integers(0, 1 << 40), min_size=1, unique=True)),
        N=N,
        L_bi=L_bi,
        L_iu=L_iu,
        trials_per_point=draw(st.integers(1, 1 << 40)),
        master_seed=draw(st.integers(0, 1 << 64)),
        gas=gas,
        output_path=draw(st.text("abcXYZ019._-/", min_size=1)),
    ).validate()


@settings(max_examples=200, deadline=None)
@given(sweep_configs())
def test_config_roundtrip_property(cfg):
    assert parse_config(format_config(cfg)) == cfg


def test_readme_config_example_parses():
    # README's --config example names every key and parses as it stands,
    # so the docs cannot drift from the grammar unnoticed
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("`sweep` also accepts `--config FILE`", 1)[1].split("```\n", 2)[1]
    assert [key for _, key, _ in config_settings(example)] == list(gasmld.bench._KEYS)
    cfg = parse_config(example)
    assert (cfg.N, cfg.trials_per_point, cfg.gas) == (3, 2000, GasConfig(m=12, engine="analytic"))


def test_search_config_is_the_gas_keys():
    # every GasConfig field is a gas.* sweep key, so no per-search state
    # (a start, a generator) rides on the config that a group shares
    keyed = {name for key, (name, _, _) in gasmld.bench._KEYS.items() if key.startswith("gas.")}
    assert {f.name for f in fields(GasConfig)} == keyed


def test_config_comments_and_precedence():
    text = "# comment\nsnr_db = 1,2 # trailing\ntrials = 5\ntrials = 6\n"
    cfg = parse_config(text)
    assert cfg.snr_db_list == [1.0, 2.0]
    assert cfg.trials_per_point == 6


def test_cli_recipe_and_sweep(tmp_path, capsys):
    assert main(["recipe", "fig3"]) == 0
    text = capsys.readouterr().out
    assert "detectors = MLD,MMSE,GAS_warm" in text

    out = tmp_path / "cli.csv"
    code = main([
        "sweep", "--snr", "0", "--detector", "MMSE", "--ris", "0",
        "--trials", "5", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    assert out.read_text().startswith("snr_db,")


def test_cli_config_file_and_overrides(tmp_path, capsys):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text("snr_db = 0\ndetectors = MMSE\nris = 0\ntrials = 4\nseed = 1\n")
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().count("\n") == 2  # header + one record


def test_cli_flags_override_the_file_before_validation(tmp_path, capsys):
    # the file's lines and the flags are applied together and validated
    # once: n = 40 is past MLD's exhaustive cap, but the flags list only
    # MMSE, so the sweep runs and writes what one file with both would
    base = "n = 40\nsnr_db = 0\nris = 0,4\ntrials = 6\nseed = 3\n"
    (tmp_path / "file.cfg").write_text(base)
    (tmp_path / "one.cfg").write_text(base + f"detectors = MMSE\nout = {tmp_path / 'one.csv'}\n")
    assert main(["sweep", "--config", str(tmp_path / "one.cfg")]) == 0
    assert main(["sweep", "--config", str(tmp_path / "file.cfg"), "--detector", "MMSE",
                 "--out", str(tmp_path / "flags.csv")]) == 0
    assert (tmp_path / "flags.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    # so does a recipe under a file: fig2 lists MLD, the flag drops it
    assert main(["sweep", "--recipe", "fig2", "--config", str(tmp_path / "file.cfg"),
                 "--detector", "MMSE", "--out", str(tmp_path / "recipe.csv")]) == 0
    capsys.readouterr()
    # a file valid alone that a flag makes invalid still fails, as before
    (tmp_path / "valid.cfg").write_text(base + "detectors = MMSE\n")
    assert main(["sweep", "--config", str(tmp_path / "valid.cfg"), "--detector", "MLD,MMSE",
                 "--out", str(tmp_path / "never.csv")]) == 1
    assert capsys.readouterr().err == (f"config error: n = 40 exceeds the exhaustive cap of "
                                       f"{BRUTE_FORCE_MAX_N} bits that MLD and GAS detectors need\n")
    assert not (tmp_path / "never.csv").exists()


def test_qubit_cap_has_one_message(tmp_path, capsys):
    # validate, the CLI and the search's own register check give one message
    with pytest.raises(CapacityError) as search:
        check_registers(15, GasConfig(m=12))
    with pytest.raises(ConfigError) as config:
        small_config(detectors=["GAS_warm"], N=15, gas=GasConfig(m=12)).validate()
    (tmp_path / "cap.cfg").write_text("n = 15\ngas.m = 12\ndetectors = GAS_warm\n")
    assert main(["sweep", "--config", str(tmp_path / "cap.cfg"), "--trials", "1",
                 "--out", str(tmp_path / "never.csv")]) == 1
    assert str(search.value) == str(config.value) == \
        "15 key + 12 value qubits exceed the 26-qubit cap"
    assert capsys.readouterr().err == f"config error: {search.value}\n"


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    binary = tmp_path / "binary.cfg"  # not UTF-8 text: a config error, not a runtime one
    binary.write_bytes(b"\xd0\xcf\x11\xe0")
    assert main(["sweep", "--config", str(binary)]) == 1
    assert capsys.readouterr().err.startswith("config error: cannot read config file: ")
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert main(["sweep", "--detector", "bogus", "--trials", "1"]) == 1
    assert main(["bogus-command"]) == 1
    assert main(["sweep", "--trials", "-3"]) == 1
    assert main(["sweep", "--recipe", "fig2", "--trials", "99999999999999999999",
                 "--out", str(tmp_path / "never.csv")]) == 1
    assert "config error: trials must be at most 2^63" in capsys.readouterr().err
    for flags in (["--snr", "abc"], ["--ris", "x"]):
        assert main(["sweep", *flags, "--trials", "1"]) == 1
        assert "config error: " + flags[0] in capsys.readouterr().err
    bad = tmp_path / "never.csv"
    for flags in (["--snr", "nan"], ["--snr=-inf"], ["--snr=-4000"], ["--seed", "-1"]):
        assert main(["sweep", *flags, "--detector", "MMSE", "--ris", "0", "--trials", "1",
                     "--out", str(bad)]) == 1
        assert "config error: " in capsys.readouterr().err
    assert main(["sweep", "--snr=-3080", "--detector", "MLD,MMSE,GAS_warm", "--ris", "0",
                 "--trials", "2", "--out", str(bad)]) == 1
    assert "config error: SNR points must be at least -3000 dB" in capsys.readouterr().err
    assert main(["sweep", "--detector", "MLD,MLD", "--ris", "0", "--trials", "5",
                 "--out", str(bad)]) == 1
    assert "config error: detector listed twice" in capsys.readouterr().err
    for flags, what in ((["--snr", "0,0", "--ris", "4,4"], "SNR point"),
                        (["--snr", "0,-0.0", "--ris", "4"], "SNR point"),
                        (["--snr", "0", "--ris", "4,0,4"], "RIS element count")):
        assert main(["sweep", *flags, "--detector", "MLD", "--trials", "50",
                     "--out", str(bad)]) == 1
        assert f"config error: {what} listed twice" in capsys.readouterr().err
    for text in ("l_bi = 0\n", "gas.encoding = integer\ndetectors = GAS_warm\n",
                 "gas.encoding = integer\ndetectors = MLD\n",
                 "n = 30\ndetectors = MLD\n", "n = 10\ndetectors = GAS_warm\ngas.m = 20\n",
                 "gas.m = auto\ndetectors = GAS_warm\n"):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(text + "trials = 1\nris = 0\nsnr_db = 0\n")
        assert main(["sweep", "--config", str(cfg_file), "--out", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "config error: " in err
        assert ("real_direct" in err) == ("gas.encoding" in text)
    assert not bad.exists()
    out = tmp_path / "threads.csv"
    for threads in ("two", "0", "-3"):
        monkeypatch.setenv("GASMLD_THREADS", threads)
        assert main(["sweep", "--snr", "0,1", "--detector", "MMSE", "--ris", "0",
                     "--trials", "1", "--out", str(out)]) == 1
        assert "config error: GASMLD_THREADS must be a positive integer" in capsys.readouterr().err
        assert not out.exists()


def test_cli_subprocess_determinism(tmp_path):
    args = [
        sys.executable, "-m", "gasmld", "sweep",
        "--snr", "0,4", "--detector", "MLD,GAS_warm", "--ris", "4",
        "--trials", "6", "--seed", "11",
    ]
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        proc = subprocess.run(
            args + ["--out", str(path)], capture_output=True, text=True,
            cwd=str(tmp_path), env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert b"GAS_warm" in outs[0]


def test_sweep_config_validation():
    with pytest.raises(ConfigError):
        small_config(detectors=[]).validate()
    with pytest.raises(ConfigError):
        small_config(trials_per_point=0).validate()
    # a trial's index keys its streams, which hold indices below 2^63
    for trials in (2**63 + 1, 10**20):
        with pytest.raises(ConfigError, match="at most 2\\^63"):
            small_config(trials_per_point=trials).validate()
    small_config(trials_per_point=2**63).validate()
    with pytest.raises(ConfigError):
        small_config(R_list=[-1]).validate()
    with pytest.raises(ConfigError):
        small_config(N=2).validate()  # L_bi + L_iu - 1 = 3
    with pytest.raises(ConfigError):
        small_config(output_path="").validate()
    with pytest.raises(ConfigError, match="listed twice"):
        small_config(detectors=["MLD", "MMSE", "MLD"]).validate()
    # numerically equal SNR points and repeated R values name one point twice
    for snr in ([0.0, 0.0], [0.0, -0.0], [5.0, math.inf, 5]):
        with pytest.raises(ConfigError, match="SNR point listed twice"):
            small_config(snr_db_list=snr).validate()
    with pytest.raises(ConfigError, match="RIS element count listed twice"):
        small_config(R_list=[4, 0, 4]).validate()
    # below -3000 dB sigma2 passes 1e300 and the costs overflow
    for snr in (math.nan, -math.inf, -4000.0, -3080.0, -3000.5):
        with pytest.raises(ConfigError, match="at least -3000 dB"):
            small_config(snr_db_list=[0.0, snr]).validate()
    small_config(snr_db_list=[-3000.0, math.inf]).validate()  # noiseless stays valid
    with pytest.raises(ConfigError):
        small_config(master_seed=-1).validate()
    for taps in ({"L_bi": 0}, {"L_iu": 0}):
        with pytest.raises(ConfigError):
            small_config(**taps).validate()
    # the search encodes real costs only, so no detector list takes the
    # integer encoding
    for detectors in ("MLD", "MLD,GAS_random", "MLD,GAS_warm"):
        with pytest.raises(ConfigError, match="real costs only, use real_direct"):
            parse_config(f"gas.encoding = integer\ndetectors = {detectors}\n")
    # a search field set after construction is checked too, before any work
    for name, value, message in (("m", 1, "at least 2 qubits"), ("m", None, "at least 2 qubits"),
                                 ("encoding", "integer", "real costs only"),
                                 ("stall_rounds", 2.5, "stall_rounds must be an int"),
                                 ("max_rounds", None, "max_rounds must be an int"),
                                 ("growth_factor", "2", "real number above 1")):
        cfg = small_config(detectors=["GAS_warm"], gas=GasConfig(m=8)).validate()
        setattr(cfg.gas, name, value)
        with pytest.raises(ConfigError, match=message):
            cfg.validate()
    # past the exhaustive cap for MLD and the searches, or the qubit cap for a fixed m
    for det in ("MLD", "GAS_random", "GAS_warm"):
        least_m = GasConfig(m=2)
        with pytest.raises(ConfigError, match="exhaustive cap"):
            small_config(detectors=[det], N=BRUTE_FORCE_MAX_N + 1, gas=least_m).validate()
        small_config(detectors=[det], N=BRUTE_FORCE_MAX_N, gas=least_m).validate()
    small_config(detectors=["MMSE"], N=10 * BRUTE_FORCE_MAX_N).validate()
    for det in ("GAS_random", "GAS_warm"):
        with pytest.raises(ConfigError, match="qubit cap"):
            small_config(detectors=[det], N=10, gas=GasConfig(m=MAX_QUBITS - 9)).validate()
        small_config(detectors=[det], N=10, gas=GasConfig(m=MAX_QUBITS - 10)).validate()
    small_config(detectors=["MLD", "MMSE"], N=10, gas=GasConfig(m=MAX_QUBITS)).validate()
