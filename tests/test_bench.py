"""Sweep harness: seeding/pairing, CSV contract, config grammar, CLI."""

import csv
import io
import math
import os
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gasmld.bench
from conftest import child_env
from gasmld.bench import (
    BLOCK_TRIALS,
    BerRecord,
    ConfigError,
    SweepConfig,
    emit_csv,
    fig_recipe,
    format_config,
    parse_config,
    run_sweep,
    trial_instance,
)
from gasmld.cli import main
from gasmld.detect import METHODS, mld_detect, mmse_detect
from gasmld.gas import ENCODINGS, ENGINES, GasConfig
from gasmld.qcore import MAX_QUBITS
from gasmld.qubo import BRUTE_FORCE_MAX_N


def identity_channel(rng, R, L_bi, L_iu, N):
    return np.eye(N, dtype=complex)


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
    assert np.array_equal(a.H, b.H)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(bits_a, bits_b)
    c, _ = trial_instance(cfg, 0, 0, 6)
    assert not np.array_equal(a.y, c.y)


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
    cfg = small_config(detectors=["MLD", "MMSE", "GAS_warm"], trials_per_point=2 * BLOCK_TRIALS + 7,
                       R_list=[4], master_seed=21)
    built = []

    def counted(cfg, snr_idx, r_idx, trial, channel_factory=None):
        built.append(trial)
        return trial_instance(cfg, snr_idx, r_idx, trial, channel_factory)

    monkeypatch.setenv("GASMLD_THREADS", "1")
    monkeypatch.setattr(gasmld.bench, "trial_instance", counted)
    together = {r.detector: r for r in run_sweep(cfg)}
    assert built == list(range(cfg.trials_per_point))
    for det in cfg.detectors:
        (alone,) = run_sweep(small_config(detectors=[det], trials_per_point=cfg.trials_per_point,
                                          R_list=[4], master_seed=21))
        assert together[det] == alone
    # and the batched columns count every trial once, as the one-instance detectors do
    for det, detect in (("MLD", mld_detect), ("MMSE", mmse_detect)):
        errors = 0
        for trial in range(cfg.trials_per_point):
            inst, bits = trial_instance(cfg, 0, 0, trial)
            errors += int(np.sum(detect(inst).bits_hat != bits))
        assert together[det].bit_errors == errors


def test_identity_channel_bookkeeping():
    # on H = I every detector decides by the sign of Re(y), so a shared
    # instance gives every column the same errors, summed over two blocks
    cfg = small_config(detectors=["MLD", "MMSE", "GAS_warm"], trials_per_point=BLOCK_TRIALS + 3,
                       snr_db_list=[0.0, 60.0])
    records = run_sweep(cfg, channel_factory=identity_channel)
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
        # two points at least, so that two workers both get a job
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


def test_awgn_ber_matches_closed_form():
    # identity channel: BPSK over AWGN, BER = Q(sqrt(2 snr))
    snr_db = 0.0
    cfg = small_config(
        detectors=["MMSE"], snr_db_list=[snr_db], trials_per_point=4000, master_seed=3
    )
    (rec,) = run_sweep(cfg, channel_factory=identity_channel)
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
    cfg.gas.m = None
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
    """Valid SweepConfigs over every key the config grammar carries; the
    integer encoding comes only with detector lists that run no search, and
    N and m stay within the caps of the detectors listed."""
    small = st.integers(1, 50)
    detectors = draw(st.lists(st.sampled_from(METHODS), min_size=1, unique=True))
    searches = {"GAS_random", "GAS_warm"} & set(detectors)
    # MLD and the searches enumerate all 2^N keys; a search also holds N + m qubits
    N = draw(st.integers(1, BRUTE_FORCE_MAX_N if searches or "MLD" in detectors else 150))
    L_bi = draw(st.integers(1, min(N, 50)))
    L_iu = draw(st.integers(1, min(N - L_bi + 1, 50)))
    gas = GasConfig(
        m=draw(st.none() | st.integers(2, MAX_QUBITS - N if searches else MAX_QUBITS)),
        growth_factor=draw(st.floats(1.0, 1e6, exclude_min=True)),
        max_rounds=draw(small),
        stall_rounds=draw(small),
        encoding=draw(st.just("real_direct") if searches else st.sampled_from(ENCODINGS)),
        engine=draw(st.sampled_from(ENGINES)),
    )
    return SweepConfig(
        snr_db_list=draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
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


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert main(["sweep", "--detector", "bogus", "--trials", "1"]) == 1
    assert main(["bogus-command"]) == 1
    assert main(["sweep", "--trials", "-3"]) == 1
    for flags in (["--snr", "abc"], ["--ris", "x"]):
        assert main(["sweep", *flags, "--trials", "1"]) == 1
        assert "config error: " + flags[0] in capsys.readouterr().err
    bad = tmp_path / "never.csv"
    for flags in (["--snr", "nan"], ["--snr=-inf"], ["--seed", "-1"]):
        assert main(["sweep", *flags, "--detector", "MMSE", "--ris", "0", "--trials", "1",
                     "--out", str(bad)]) == 1
        assert "config error: " in capsys.readouterr().err
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
                 "n = 30\ndetectors = MLD\n", "n = 10\ndetectors = GAS_warm\ngas.m = 20\n"):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(text + "trials = 1\nris = 0\nsnr_db = 0\n")
        assert main(["sweep", "--config", str(cfg_file), "--out", str(bad)]) == 1
        assert "config error: " in capsys.readouterr().err
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
    for snr in (math.nan, -math.inf):
        with pytest.raises(ConfigError):
            small_config(snr_db_list=[0.0, snr]).validate()
    small_config(snr_db_list=[math.inf]).validate()  # noiseless stays valid
    with pytest.raises(ConfigError):
        small_config(master_seed=-1).validate()
    for taps in ({"L_bi": 0}, {"L_iu": 0}):
        with pytest.raises(ConfigError):
            small_config(**taps).validate()
    # sweep channels never give the integer costs the integer encoding needs
    for det in ("GAS_random", "GAS_warm"):
        with pytest.raises(ConfigError):
            small_config(detectors=["MLD", det], gas=GasConfig(encoding="integer")).validate()
    small_config(detectors=["MLD", "MMSE"], gas=GasConfig(encoding="integer")).validate()
    # past the exhaustive cap for MLD and the searches, or the qubit cap for a fixed m
    for det in ("MLD", "GAS_random", "GAS_warm"):
        auto_m = GasConfig(m=None)
        with pytest.raises(ConfigError, match="exhaustive cap"):
            small_config(detectors=[det], N=BRUTE_FORCE_MAX_N + 1, gas=auto_m).validate()
        small_config(detectors=[det], N=BRUTE_FORCE_MAX_N, gas=auto_m).validate()
    small_config(detectors=["MMSE"], N=10 * BRUTE_FORCE_MAX_N).validate()
    for det in ("GAS_random", "GAS_warm"):
        with pytest.raises(ConfigError, match="qubit cap"):
            small_config(detectors=[det], N=10, gas=GasConfig(m=MAX_QUBITS - 9)).validate()
        small_config(detectors=[det], N=10, gas=GasConfig(m=MAX_QUBITS - 10)).validate()
    small_config(detectors=["MLD", "MMSE"], N=10, gas=GasConfig(m=MAX_QUBITS)).validate()
