"""Detector checks: optimality, equalizer algebra, hybrid guarantees."""

import itertools
import warnings

import numpy as np
import pytest

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
from gasmld.detect import (
    DetectionReport,
    gas_detect,
    hybrid_detect,
    mld_decisions,
    mld_detect,
    mmse_detect,
    mmse_equalize,
    mmse_soft,
    mmse_taps,
    residual_cost,
)
from gasmld.gas import GasConfig
from gasmld.qcore import CapacityError
from gasmld.qubo import MldInstance, bits_of, mld_to_qubo

from oracles import brute_force_min


def random_instance(rng, N=3, R=2, L_bi=2, L_iu=2, snr_db=4.0):
    ch = generate_channel(R=R, L_bi=L_bi, L_iu=L_iu, rng=rng)
    H = circulant_matrix(ch.h_eff, N)
    bits = rng.integers(0, 2, size=N)
    sigma2 = snr_db_to_sigma2(snr_db)
    y = transmit(block_from_bits(bits), H, sigma2, rng)
    return MldInstance(H=H, y=y, sigma2=sigma2), bits


def test_mld_scalar_example():
    inst = MldInstance(H=np.array([[1.0 + 0j]]), y=np.array([3.0 + 0j]), sigma2=1.0)
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
    H = np.eye(25, dtype=complex)
    inst = MldInstance(H=H, y=np.zeros(25, dtype=complex), sigma2=1.0)
    with pytest.raises(CapacityError):
        mld_detect(inst)


def _stack(instances):
    H = np.array([inst.H for inst in instances])
    y = np.array([inst.y for inst in instances])
    return H, y


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
            assert np.array_equal(mld_decisions(H[t], y[t]), mld[t])
            assert np.array_equal(demodulate(mmse_soft(H[t, :, 0], y[t], sigma2[t])), mmse[t])


def test_batched_mld_chunking(monkeypatch):
    # cost arrays capped at 2 or 4 entries split both the patterns and the
    # trials; the decisions must not move
    rng = np.random.default_rng(12)
    H, y = _stack([random_instance(rng, N=3)[0] for _ in range(30)])
    ref = mld_decisions(H, y)
    for cap in (2, 4):
        monkeypatch.setattr(gasmld.qubo, "_CHUNK", cap)
        assert np.array_equal(mld_decisions(H, y), ref)


def test_batched_mld_tie_goes_to_lowest_index(monkeypatch):
    # y = 0 on h = [1, -1]: x = (-1, -1) and (+1, +1) both cost 0, and the
    # lowest pattern 0 must win, in a batch and across pattern chunks
    rng = np.random.default_rng(13)
    tie = MldInstance(H=circulant_matrix(np.array([1.0 + 0j, -1.0]), 2),
                      y=np.zeros(2, dtype=complex), sigma2=0.1)
    other = random_instance(rng, N=2, R=1, L_bi=1, L_iu=1)[0]
    H, y = _stack([other, tie, tie])
    for cap in (gasmld.qubo._CHUNK, 2):
        monkeypatch.setattr(gasmld.qubo, "_CHUNK", cap)
        bits = mld_decisions(H, y)
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
        H, y = _stack(instances)
        for cap in (gasmld.qubo._CHUNK, 2, 4):
            monkeypatch.setattr(gasmld.qubo, "_CHUNK", cap)
            for block in (1, 7, 200):
                for lo in range(0, len(instances), block):
                    t = slice(lo, lo + block)
                    for inst, bits, best in zip(instances[t], mld_decisions(H[t], y[t]), least[t]):
                        assert residual(inst, bits) <= best + 1e-9 * max(1.0, best)
    # the index codec: bits_of(v, n) is the n-bit expansion of v, LSB first
    for n in range(1, 25):
        v = np.concatenate(([0, (1 << n) - 1], rng.integers(0, 1 << n, size=50)))
        bits = bits_of(v, n)
        assert bits.shape == (v.size, n) and np.all((bits == 0) | (bits == 1))
        assert np.array_equal(bits @ (1 << np.arange(n)), v)


def test_batched_mmse_dead_bin_warns():
    rng = np.random.default_rng(14)
    dead = MldInstance(H=circulant_matrix(np.array([1.0 + 0j, -1.0]), 2),
                       y=np.array([0.5 + 0j, -0.5]), sigma2=0.0)
    block = [MldInstance(H=inst.H, y=inst.y, sigma2=0.0)
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
    inst = MldInstance(H=np.array([[2.0 + 0j]]), y=np.array([1.0 + 0j]), sigma2=1.0)
    assert mmse_taps(inst.H[:, 0], inst.sigma2)[0] == pytest.approx(0.4)


def test_mmse_identity_noiseless_equals_mld():
    rng = np.random.default_rng(2)
    H = np.eye(4, dtype=complex)
    bits = rng.integers(0, 2, size=4)
    y = transmit(block_from_bits(bits), H, 0.0, rng)
    inst = MldInstance(H=H, y=y, sigma2=0.0)
    assert np.allclose(mmse_taps(inst.H[:, 0], inst.sigma2), 1.0)
    rep = mmse_detect(inst)
    assert np.array_equal(rep.bits_hat, mld_detect(inst).bits_hat)


def test_mmse_dead_bin_flagged():
    # h = [1, -1] on N=2 puts a spectral null at DC
    H = circulant_matrix(np.array([1.0 + 0j, -1.0]), 2)
    inst = MldInstance(H=H, y=np.array([0.5 + 0j, -0.5]), sigma2=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phi = mmse_taps(inst.H[:, 0], inst.sigma2)
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
    cfg = GasConfig(seed=7, engine="analytic")
    reports = [
        mld_detect(inst),
        mmse_detect(inst),
        gas_detect(inst, cfg),
        hybrid_detect(inst, cfg),
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
        cfg = GasConfig(seed=trial, engine="analytic")
        hyb = hybrid_detect(inst, cfg)
        ref = mmse_detect(inst)
        assert hyb.cost <= ref.cost + 1e-9


def test_hybrid_keeps_optimal_warm_start():
    rng = np.random.default_rng(6)
    inst, _ = random_instance(rng, snr_db=20.0)
    mld = mld_detect(inst)
    if not np.array_equal(mmse_detect(inst).bits_hat, mld.bits_hat):
        pytest.skip("seed no longer gives an optimal equalizer decision")
    rep = hybrid_detect(inst, GasConfig(seed=0, engine="analytic"))
    assert np.array_equal(rep.bits_hat, mld.bits_hat)
    assert rep.cost == pytest.approx(mld.cost, abs=1e-9)


def test_hybrid_tracks_mld():
    rng = np.random.default_rng(7)
    match = 0
    for trial in range(100):
        inst, _ = random_instance(rng, R=4, snr_db=4.0)
        mld = mld_detect(inst)
        hyb = hybrid_detect(inst, GasConfig(seed=trial, engine="analytic"))
        match += np.array_equal(hyb.bits_hat, mld.bits_hat)
    assert match >= 95


def test_gas_random_runs_and_reports_queries():
    rng = np.random.default_rng(8)
    inst, _ = random_instance(rng)
    rep = gas_detect(inst, GasConfig(seed=3, engine="analytic"))
    assert rep.method == "GAS_random"
    assert rep.oracle_queries >= 0
    assert set(rep.bits_hat.tolist()) <= {0, 1}
