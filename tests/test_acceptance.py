"""End-to-end checks of the package's headline guarantees.

Every test records one summary line (printed after the session by the
conftest hook) before making its assertions, so the pass/fail table is
complete even when a criterion goes red.  Numbers in the lines are the
measured quantities, and each line carries the wall time of its check.
"""

import subprocess
import sys
import time

import numpy as np
from scipy import stats

from conftest import child_env, record_criterion
from gasmld.bench import SweepConfig, detector_rng, run_sweep, trial_instance
from gasmld.channel import block_from_bits, circulant_matrix, snr_db_to_sigma2, transmit
from gasmld.circuits import (
    GasCircuitSpec,
    apply_state_preparation,
    fejer_distribution,
)
from gasmld.detect import (
    gas_detect,
    hybrid_detect,
    mld_detect,
    mmse_detect,
    mmse_equalize,
    residual_cost,
)
from gasmld.gas import GasConfig, cost_bounds, required_value_qubits, run_gas
from gasmld.qcore import hadamard_all, zero_state
from gasmld.qubo import (
    MldInstance,
    QuboProblem,
    evaluate_all_costs,
    mld_to_qubo,
)

from oracles import (
    PhasePolynomial,
    brute_force_min,
    conditional_value_distributions,
    shifted_cost_polynomial,
    spec_of,
    state_preparation_gates,
)


def _line(label, status, detail, t0):
    record_criterion(f"[{status}] {label}: {detail} ({time.perf_counter() - t0:.1f}s)")


def _random_integer_qubo(rng, n):
    off = np.triu(rng.integers(-4, 5, size=(n, n)), k=1).astype(float)
    diag = rng.integers(-4, 5, size=n).astype(float)
    c = rng.integers(-4, 5, size=n).astype(float)
    offset = float(rng.integers(0, 5))
    return QuboProblem(Q=off + off.T + np.diag(diag), c=c, offset=offset)


def _random_mld_instance(rng, n_max=4):
    N = int(rng.integers(1, n_max + 1))
    L = int(rng.integers(1, N + 1))
    h = (rng.normal(size=L) + 1j * rng.normal(size=L)) / np.sqrt(2.0)
    H = circulant_matrix(h, N)
    bits = rng.integers(0, 2, size=N)
    sigma2 = float(10.0 ** rng.uniform(-1.0, 1.0))
    y = transmit(block_from_bits(bits), H, sigma2, rng)
    return MldInstance(H=H, y=y, sigma2=sigma2), bits


# -- A01 ------------------------------------------------------------------


def _amplification_success(n, iterations, target=1):
    state = hadamard_all(zero_state(n))
    for _ in range(iterations):
        state.amps[target] *= -1.0
        state = hadamard_all(state)
        state.amps[1:] *= -1.0
        state = hadamard_all(state)
    return float(np.abs(state.amps[target]) ** 2)


def test_a01_amplification_law():
    """Success probability follows sin^2((2L+1) theta), theta = asin(2^{-n/2}),
    exactly; and for n = 2, 3, 4 the count the law gives, L* = floor(pi/(4 theta)),
    reaches success at least 1 - 2^{-n} (|(2L*+1) theta - pi/2| <= theta, the
    Boyer-Brassard-Hoyer-Tapp bound) and maximises success over
    0..ceil((pi/4) 2^{n/2}).  The ceiled count is reported, not asserted: it
    overshoots the optimal angle on small registers."""
    t0 = time.perf_counter()
    law_err = 0.0
    pinned = {}
    ceiled = {}
    argmax_ok = {}
    for n in (2, 3, 4):
        theta = np.arcsin(2.0 ** (-n / 2.0))
        success = [_amplification_success(n, L) for L in range(7)]
        for L, p in enumerate(success):
            law_err = max(law_err, abs(p - np.sin((2 * L + 1) * theta) ** 2))
        L_star = int(np.floor(np.pi / (4.0 * theta)))
        pinned[n] = (L_star, success[L_star])
        L_ceil = int(np.ceil((np.pi / 4.0) * 2.0 ** (n / 2.0)))
        ceiled[n] = (L_ceil, success[L_ceil])
        argmax_ok[n] = success[L_star] >= max(success[:L_ceil + 1]) - 1e-12
    bound_ok = all(p >= 1.0 - 2.0 ** -n for n, (_, p) in pinned.items())
    ok = law_err < 1e-6 and bound_ok and all(argmax_ok.values())
    detail = (
        f"law max err {law_err:.1e}; success at L*=floor(pi/(4 theta)) vs 1-2^-n "
        + ", ".join(f"n={n}: L*={L} p={p:.3f}>={1.0 - 2.0 ** -n:.3f}"
                    for n, (L, p) in pinned.items())
        + "; ceiled count (info) "
        + ", ".join(f"n={n}: L={L} p={p:.3f}" for n, (L, p) in ceiled.items())
    )
    _line("A01 amplification law", "PASS" if ok else "FAIL", detail, t0)
    assert law_err < 1e-6
    assert bound_ok, (
        "success at L* = floor(pi/(4 theta)) below 1 - 2^-n: "
        + ", ".join(f"n={n}: p({L})={p:.4f}" for n, (L, p) in pinned.items())
    )
    assert all(argmax_ok.values()), (
        f"L* is not the best count up to the ceiled count for n in "
        f"{[n for n, good in argmax_ok.items() if not good]}"
    )


# -- A02 ------------------------------------------------------------------


def test_a02_integer_cost_readout():
    """50 random integer problems: the prepared state reads (E(b) - y) mod 2^m
    on the value register with probability 1, on every key branch, both as
    the engine writes it from the cost table and as the gates build it from
    the QUBO's coefficients."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        q = _random_integer_qubo(rng, n)
        costs = evaluate_all_costs(q)
        y = float(costs[rng.integers(0, costs.size)])
        m = required_value_qubits(n, cost_bounds(costs), "integer")
        spec = GasCircuitSpec(n, m, costs - y)
        for state in (apply_state_preparation(zero_state(n + m), spec),
                      state_preparation_gates(zero_state(n + m), shifted_cost_polynomial(q, y), m)):
            cond = conditional_value_distributions(state, spec)
            for b in range(1 << n):
                target_bin = int(round(costs[b] - y)) % (1 << m)
                worst = max(worst, abs(cond[b, target_bin] - 1.0))
    ok = worst <= 1e-9
    _line("A02 integer cost readout", "PASS" if ok else "FAIL",
          f"50 problems, worst point-mass deviation {worst:.1e}", t0)
    assert worst <= 1e-9


# -- A03 ------------------------------------------------------------------


def test_a03_real_cost_readout():
    """20 random real-coefficient polynomials: every key branch's value
    distribution matches the squared-Fejer closed form bin by bin, in the
    FFT-written state and in the gate-built one."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 6))
        poly = PhasePolynomial(
            float(rng.normal() * 2.0),
            rng.normal(size=n) * 2.0,
            np.triu(rng.normal(size=(n, n)) * 2.0, k=1),
        )
        spec = spec_of(poly, m)
        for state in (apply_state_preparation(zero_state(n + m), spec),
                      state_preparation_gates(zero_state(n + m), poly, m)):
            cond = conditional_value_distributions(state, spec)
            for b in range(1 << n):
                ref = fejer_distribution(2.0 * np.pi * spec.values[b] / (1 << m), m)
                worst = max(worst, float(np.max(np.abs(cond[b] - ref))))
    ok = worst <= 1e-9
    _line("A03 real cost readout", "PASS" if ok else "FAIL",
          f"20 polynomials, worst bin deviation {worst:.1e}", t0)
    assert worst <= 1e-9


# -- A04 ------------------------------------------------------------------


def test_a04_exhaustive_detector_optimality():
    """500 random instances (N <= 4): the exhaustive detector returns exactly
    the minimizer and minimum of the equivalent binary quadratic."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(500):
        inst, _ = _random_mld_instance(rng)
        rep = mld_detect(inst)
        bb_bits, bb_cost = brute_force_min(mld_to_qubo(inst))
        assert np.array_equal(rep.bits_hat, bb_bits)
        worst = max(worst, abs(rep.cost - bb_cost))
    ok = worst <= 1e-9
    _line("A04 exhaustive detector optimality", "PASS" if ok else "FAIL",
          f"500 instances, worst cost gap {worst:.1e}", t0)
    assert worst <= 1e-9


# -- A05 ------------------------------------------------------------------


def test_a05_adaptive_search_convergence():
    """100 seeded statevector runs on random 3-bit integer problems with
    default caps: at least 99 finish at the global minimum."""
    t0 = time.perf_counter()
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(np.random.SeedSequence((23, trial)))
        q = _random_integer_qubo(rng, 3)
        optimum = float(evaluate_all_costs(q).min())
        cfg = GasConfig(m=None, seed=trial, encoding="integer", engine="statevector")
        res = run_gas(q, cfg)
        hits += res.best_cost <= optimum + 1e-9
    ok = hits >= 99
    _line("A05 adaptive search convergence", "PASS" if ok else "FAIL",
          f"{hits}/100 runs reached the optimum", t0)
    assert hits >= 99


# -- A06 ------------------------------------------------------------------


def test_a06_warm_start_query_advantage():
    """2000 paired instances (1000 per SNR in {0, 4} dB, R = 4): the
    equalizer-warmed search spends fewer oracle queries than the random-start
    search, paired one-sided t-test p < 0.05."""
    t0 = time.perf_counter()
    cfg = SweepConfig(
        snr_db_list=[0.0, 4.0],
        detectors=["GAS_random", "GAS_warm"],
        R_list=[4],
        trials_per_point=1000,
        master_seed=42,
        gas=GasConfig(engine="analytic"),
    ).validate()
    q_random, q_warm = [], []
    for snr_idx in range(2):
        for trial in range(cfg.trials_per_point):
            inst, _ = trial_instance(cfg, snr_idx, 0, trial)
            rr = gas_detect(inst, cfg.gas, detector_rng(cfg, snr_idx, 0, trial, "GAS_random"))
            rw = hybrid_detect(inst, cfg.gas, detector_rng(cfg, snr_idx, 0, trial, "GAS_warm"))
            q_random.append(rr.oracle_queries)
            q_warm.append(rw.oracle_queries)
    q_random = np.asarray(q_random, dtype=float)
    q_warm = np.asarray(q_warm, dtype=float)
    test = stats.ttest_rel(q_warm, q_random, alternative="less")
    ok = test.pvalue < 0.05 and q_warm.mean() < q_random.mean()
    _line("A06 warm start query advantage", "PASS" if ok else "FAIL",
          f"mean queries warm {q_warm.mean():.2f} vs random {q_random.mean():.2f}, "
          f"paired p={test.pvalue:.1e} over {q_warm.size} pairs", t0)
    assert q_warm.mean() < q_random.mean()
    assert test.pvalue < 0.05


# -- A07 ------------------------------------------------------------------


def test_a07_hybrid_tracks_exhaustive_ber():
    """Full sweep at SNR {0, 5, 10} dB, R = 4, 2000 trials: the warm-started
    search matches the exhaustive detector's BER within the joint 95% interval
    and never exceeds the linear equalizer's BER; on 200 individual instances
    its residual cost is never worse than the equalizer decision's."""
    t0 = time.perf_counter()
    cfg = SweepConfig(
        snr_db_list=[0.0, 5.0, 10.0],
        detectors=["MLD", "MMSE", "GAS_warm"],
        R_list=[4],
        trials_per_point=2000,
        master_seed=77,
        gas=GasConfig(engine="analytic"),
    )
    records = {(r.snr_db, r.detector): r for r in run_sweep(cfg)}
    gaps = []
    ok = True
    for snr in cfg.snr_db_list:
        mld = records[(snr, "MLD")]
        mmse = records[(snr, "MMSE")]
        hyb = records[(snr, "GAS_warm")]
        joint = np.hypot(mld.ci95, hyb.ci95)
        gaps.append(f"{snr:g}dB |d|={abs(hyb.ber - mld.ber):.2e}<={joint:.2e}")
        ok = ok and abs(hyb.ber - mld.ber) <= joint and hyb.ber <= mmse.ber
    worse = 0
    for trial in range(200):
        inst, _ = trial_instance(cfg, 0, 0, trial)
        c_h = hybrid_detect(inst, cfg.gas, detector_rng(cfg, 0, 0, trial, "GAS_warm")).cost
        c_m = residual_cost(inst, mmse_detect(inst).x_hat)
        worse += c_h > c_m + 1e-9
    ok = ok and worse == 0
    _line("A07 hybrid tracks exhaustive BER", "PASS" if ok else "FAIL",
          "; ".join(gaps) + f"; cost worse than equalizer on {worse}/200 instances", t0)
    for snr in cfg.snr_db_list:
        mld = records[(snr, "MLD")]
        mmse = records[(snr, "MMSE")]
        hyb = records[(snr, "GAS_warm")]
        assert abs(hyb.ber - mld.ber) <= np.hypot(mld.ci95, hyb.ci95)
        assert hyb.ber <= mmse.ber
    assert worse == 0


# -- A08 ------------------------------------------------------------------


def test_a08_surface_gain_at_low_snr():
    """-5 dB, 20000 trials per point: BER drops monotonically in the surface
    size R over {0, 4, 8} for both detectors, every gap clears 3x the wider
    interval half-width, and R 4 -> 8 cuts BER by at least 3x."""
    t0 = time.perf_counter()
    cfg = SweepConfig(
        snr_db_list=[-5.0],
        detectors=["MLD", "GAS_warm"],
        R_list=[0, 4, 8],
        trials_per_point=20000,
        master_seed=2024,
        gas=GasConfig(engine="analytic"),
    )
    records = {(r.detector, r.R): r for r in run_sweep(cfg)}
    ok = True
    parts = []
    for det in cfg.detectors:
        r0, r4, r8 = (records[(det, R)] for R in (0, 4, 8))
        mono = r8.ber < r4.ber < r0.ber
        gap04 = (r0.ber - r4.ber) > 3.0 * max(r0.ci95, r4.ci95)
        gap48 = (r4.ber - r8.ber) > 3.0 * max(r4.ci95, r8.ci95)
        ratio = r4.ber / r8.ber
        ok = ok and mono and gap04 and gap48 and ratio >= 3.0
        parts.append(f"{det} ber {r0.ber:.4f}/{r4.ber:.4f}/{r8.ber:.4f} ratio {ratio:.1f}")
    _line("A08 surface gain at low SNR", "PASS" if ok else "FAIL", "; ".join(parts), t0)
    for det in cfg.detectors:
        r0, r4, r8 = (records[(det, R)] for R in (0, 4, 8))
        assert r8.ber < r4.ber < r0.ber
        assert (r0.ber - r4.ber) > 3.0 * max(r0.ci95, r4.ci95)
        assert (r4.ber - r8.ber) > 3.0 * max(r4.ci95, r8.ci95)
        assert r4.ber / r8.ber >= 3.0


# -- A09 ------------------------------------------------------------------


def test_a09_linear_equalizer_identity():
    """200 random circulant instances: the frequency-domain equalizer output
    equals the dense time-domain solve (H*H + sigma2 I)^{-1} H* y."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(25)
    worst = 0.0
    for _ in range(200):
        N = int(rng.integers(2, 9))
        L = int(rng.integers(1, N + 1))
        h = (rng.normal(size=L) + 1j * rng.normal(size=L)) / np.sqrt(2.0)
        H = circulant_matrix(h, N)
        sigma2 = float(10.0 ** rng.uniform(-1.3, 0.3))
        y = (rng.normal(size=N) + 1j * rng.normal(size=N)) / np.sqrt(2.0)
        inst = MldInstance(H=H, y=y, sigma2=sigma2)
        ref = np.linalg.solve(
            H.conj().T @ H + sigma2 * np.eye(N), H.conj().T @ y
        )
        worst = max(worst, float(np.max(np.abs(mmse_equalize(inst) - ref))))
    ok = worst <= 1e-8
    _line("A09 linear equalizer identity", "PASS" if ok else "FAIL",
          f"200 instances, worst deviation {worst:.1e}", t0)
    assert worst <= 1e-8


# -- A10 ------------------------------------------------------------------


def test_a10_pipeline_determinism(tmp_path):
    """The CLI sweep, run twice from the same config file (quantum detector
    included), produces byte-identical CSV output."""
    t0 = time.perf_counter()
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(
        "snr_db = 0, 4\n"
        "detectors = MLD, MMSE, GAS_warm\n"
        "ris = 0, 4\n"
        "trials = 6\n"
        "seed = 11\n"
        "gas.engine = analytic\n"
    )
    outputs = []
    for run in range(2):
        out = tmp_path / f"run{run}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "gasmld", "sweep",
             "--config", str(cfg_file), "--out", str(out)],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _line("A10 pipeline determinism", "PASS" if ok else "FAIL",
          f"two CLI runs, {len(outputs[0])} bytes each, identical={outputs[0] == outputs[1]}", t0)
    assert outputs[0] == outputs[1]
    assert outputs[0].decode().startswith("snr_db,detector,R,")
