"""Monte-Carlo BER/query sweeps with reproducible seeding and CSV output.

Seeding contract: the channel, payload bits, and noise of a trial are drawn
from a stream keyed by (master_seed, snr index, R index, trial, 0), which
does not mention the detector.  Every detector therefore faces the exact
same instance sequence and comparisons are paired.  Randomized detectors
get their own stream keyed by the same tuple with the detector's global
index in METHODS appended, so adding or reordering detectors in a config
never perturbs any other column.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (
    block_from_bits,
    circulant_matrix,
    demodulate,
    generate_channel,
    snr_db_to_sigma2,
    transmit,
)
from .detect import METHODS, gas_detect, hybrid_detect, mld_decisions, mmse_soft
from .gas import GasConfig
from .qcore import MAX_QUBITS
from .qubo import BRUTE_FORCE_MAX_N, MldInstance

CSV_HEADER = "snr_db,detector,R,trials,bit_errors,ber,mean_queries,ci95"
# Trials per job: enough to batch MLD and MMSE well, few enough that a pool
# stays busy on a short sweep and a job's arrays stay small at 1e5 trials.
BLOCK_TRIALS = 500


class ConfigError(ValueError):
    """Invalid sweep configuration or config-file syntax."""


@dataclass
class SweepConfig:
    snr_db_list: list = field(default_factory=lambda: [0.0])
    detectors: list = field(default_factory=lambda: ["MLD", "MMSE"])
    R_list: list = field(default_factory=lambda: [4])
    N: int = 3
    L_bi: int = 2
    L_iu: int = 2
    trials_per_point: int = 2000
    master_seed: int = 1234
    gas: GasConfig = field(default_factory=lambda: GasConfig(engine="analytic"))
    output_path: str = "sweep.csv"

    def validate(self) -> "SweepConfig":
        if not self.snr_db_list or not self.detectors or not self.R_list:
            raise ConfigError("snr_db, detectors, and ris lists must be nonempty")
        for det in self.detectors:
            if det not in METHODS:
                raise ConfigError(f"unknown detector {det!r}; choose from {METHODS}")
        if len(set(self.detectors)) < len(self.detectors):
            raise ConfigError(f"detector listed twice in {self.detectors}")
        if any(math.isnan(s) or s == -math.inf for s in self.snr_db_list):
            raise ConfigError("SNR points must be numbers or inf (noiseless), not nan or -inf")
        # 0 and -0.0 are one point: a set keeps numerically equal values once
        if len(set(self.snr_db_list)) < len(self.snr_db_list):
            raise ConfigError(f"SNR point listed twice in {self.snr_db_list}")
        if len(set(self.R_list)) < len(self.R_list):
            raise ConfigError(f"RIS element count listed twice in {self.R_list}")
        if self.master_seed < 0:
            raise ConfigError("seed must be non-negative")
        searches = bool({"GAS_random", "GAS_warm"} & set(self.detectors))
        if self.gas.encoding == "integer" and searches:
            raise ConfigError("gas.encoding = integer needs integer cost coefficients, which "
                              "the sweep's Gaussian channels never give; use real_direct")
        if self.trials_per_point < 1:
            raise ConfigError("trials must be positive")
        if min(self.R_list) < 0:
            raise ConfigError("RIS element counts must be non-negative")
        if self.L_bi < 1 or self.L_iu < 1:
            raise ConfigError("each link needs at least one tap (l_bi, l_iu >= 1)")
        if self.N < self.L_bi + self.L_iu - 1:
            raise ConfigError("block length must cover the channel delay spread")
        # MLD and the searches enumerate all 2^N keys; a search also holds
        # N key and m value qubits
        if (searches or "MLD" in self.detectors) and self.N > BRUTE_FORCE_MAX_N:
            raise ConfigError(f"n = {self.N} exceeds the exhaustive cap of {BRUTE_FORCE_MAX_N} "
                              "bits that MLD and GAS detectors need")
        if searches and self.gas.m is not None and self.N + self.gas.m > MAX_QUBITS:
            raise ConfigError(f"{self.N} key + {self.gas.m} value qubits exceed the "
                              f"{MAX_QUBITS}-qubit cap")
        if not self.output_path:
            raise ConfigError("output path must be nonempty")
        return self


@dataclass
class BerRecord:
    snr_db: float
    detector: str
    R: int
    trials: int
    bit_errors: int
    ber: float
    mean_queries: float
    ci95: float


def default_channel(rng: np.random.Generator, R: int, L_bi: int, L_iu: int, N: int) -> np.ndarray:
    ch = generate_channel(R=R, L_bi=L_bi, L_iu=L_iu, rng=rng)
    return circulant_matrix(ch.h_eff, N)


def trial_instance(cfg: SweepConfig, snr_idx: int, r_idx: int, trial: int,
                   channel_factory=None):
    """The (instance, true bits) pair a given trial presents to every detector."""
    factory = channel_factory or default_channel
    rng = np.random.default_rng(
        np.random.SeedSequence((cfg.master_seed, snr_idx, r_idx, trial, 0))
    )
    H = factory(rng, cfg.R_list[r_idx], cfg.L_bi, cfg.L_iu, cfg.N)
    bits = rng.integers(0, 2, size=cfg.N)
    sigma2 = snr_db_to_sigma2(cfg.snr_db_list[snr_idx])
    y = transmit(block_from_bits(bits), H, sigma2, rng)
    return MldInstance(H=H, y=y, sigma2=sigma2), bits


def detector_rng(cfg: SweepConfig, snr_idx: int, r_idx: int, trial: int, detector: str):
    return np.random.default_rng(
        np.random.SeedSequence(
            (cfg.master_seed, snr_idx, r_idx, trial, 1 + METHODS.index(detector))
        )
    )


def _run_block(job) -> list[tuple[int, int]]:
    """One job: trials [start, stop) of one (snr, R) point.

    Each trial's instance is built once and shown to every detector.  The
    searches run trial by trial on their own streams; MLD and MMSE run once
    over the whole block.  Returns (bit errors, oracle queries) per detector,
    in ``cfg.detectors`` order.
    """
    cfg, snr_idx, r_idx, start, stop, channel_factory = job
    tallies = {det: [0, 0] for det in cfg.detectors}
    searches = [(det, fn) for det, fn in (("GAS_random", gas_detect), ("GAS_warm", hybrid_detect))
                if det in tallies]
    size, N = stop - start, cfg.N
    truth = np.empty((size, N), dtype=np.int8)
    y = np.empty((size, N), dtype=complex)
    h = np.empty((size, N), dtype=complex)  # first columns, all that MMSE needs
    H = np.empty((size, N, N), dtype=complex) if "MLD" in tallies else None  # N <= 24
    for row, trial in enumerate(range(start, stop)):
        inst, bits = trial_instance(cfg, snr_idx, r_idx, trial, channel_factory)
        truth[row], y[row], h[row] = bits, inst.y, inst.H[:, 0]
        if H is not None:
            H[row] = inst.H
        for det, search in searches:
            rep = search(inst, cfg.gas, detector_rng(cfg, snr_idx, r_idx, trial, det))
            tallies[det][0] += int(np.sum(rep.bits_hat != bits))
            tallies[det][1] += rep.oracle_queries
    if H is not None:
        tallies["MLD"][0] = int(np.sum(mld_decisions(H, y) != truth))
    if "MMSE" in tallies:
        soft = mmse_soft(h, y, snr_db_to_sigma2(cfg.snr_db_list[snr_idx]))
        tallies["MMSE"][0] = int(np.sum(demodulate(soft) != truth))
    return [tuple(tallies[det]) for det in cfg.detectors]


def _record(cfg: SweepConfig, snr_idx: int, r_idx: int, detector: str,
            errors: int, queries: int) -> BerRecord:
    nbits = cfg.trials_per_point * cfg.N
    ber = errors / nbits
    ci95 = 1.96 * np.sqrt(ber * (1.0 - ber) / nbits)
    return BerRecord(
        snr_db=float(cfg.snr_db_list[snr_idx]),
        detector=detector,
        R=int(cfg.R_list[r_idx]),
        trials=cfg.trials_per_point,
        bit_errors=errors,
        ber=ber,
        mean_queries=queries / cfg.trials_per_point,
        ci95=float(ci95),
    )


def _worker_count(jobs: int) -> int:
    env = os.environ.get("GASMLD_THREADS", "").strip()
    try:
        cap = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"GASMLD_THREADS must be a positive integer, got {env!r}")
    return max(1, min(cap, jobs))


def run_sweep(cfg: SweepConfig, channel_factory=None) -> list[BerRecord]:
    cfg.validate()
    points = [(snr_idx, r_idx) for snr_idx in range(len(cfg.snr_db_list))
              for r_idx in range(len(cfg.R_list))]
    jobs = [
        (cfg, snr_idx, r_idx, start, min(start + BLOCK_TRIALS, cfg.trials_per_point),
         channel_factory)
        for snr_idx, r_idx in points
        for start in range(0, cfg.trials_per_point, BLOCK_TRIALS)
    ]
    workers = _worker_count(len(jobs))
    if workers == 1:
        results = [_run_block(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_block, jobs))
    totals = {point: [[0, 0] for _ in cfg.detectors] for point in points}
    for (_, snr_idx, r_idx, *_), tallies in zip(jobs, results):
        for acc, (errors, queries) in zip(totals[snr_idx, r_idx], tallies):
            acc[0] += errors
            acc[1] += queries
    records = [
        _record(cfg, snr_idx, r_idx, det, errors, queries)
        for (snr_idx, r_idx), accs in totals.items()
        for det, (errors, queries) in zip(cfg.detectors, accs)
    ]
    records.sort(key=lambda r: (r.snr_db, r.detector, r.R))
    return records


def emit_csv(records: list[BerRecord], path: str) -> None:
    """Write the records sorted by (snr_db, detector, R).

    The text goes to a temporary file beside ``path`` that then replaces it,
    so a write that fails partway leaves any earlier CSV at ``path`` intact.
    """
    lines = [CSV_HEADER]
    ordered = sorted(records, key=lambda r: (r.snr_db, r.detector, r.R))
    for r in ordered:
        lines.append(
            f"{r.snr_db:.10g},{r.detector},{r.R},{r.trials},{r.bit_errors},"
            f"{r.ber:.10g},{r.mean_queries:.10g},{r.ci95:.10g}"
        )
    # named by process id rather than made by tempfile, whose 0600 mode the
    # CSV would keep after the rename
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def fig_recipe(name: str) -> SweepConfig:
    """Desk-scale presets for the two benchmark detector line-ups.

    2000 trials per point at N = 3 is 6,000 bits: a BER of 1e-2 is about
    60 errors with a ci95 of +-25%, one of 1e-3 about 6 errors and +-80%, so
    the presets resolve BER down to roughly 1e-2.  Floors near 1e-4 need
    1e5+ trials.
    """
    if name == "fig2":
        detectors = ["MLD", "GAS_random", "GAS_warm"]
    elif name == "fig3":
        detectors = ["MLD", "MMSE", "GAS_warm"]
    else:
        raise ConfigError(f"unknown recipe {name!r}; expected fig2 or fig3")
    return SweepConfig(
        snr_db_list=[-5.0, 0.0, 5.0, 10.0],
        detectors=detectors,
        R_list=[0, 4, 8],
        N=3,
        L_bi=2,
        L_iu=2,
        trials_per_point=2000,
        master_seed=1234,
        gas=GasConfig(engine="analytic"),
        output_path=f"{name}.csv",
    ).validate()


def _parse_list(raw: str, conv):
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"empty list value {raw!r}")
    return [conv(s) for s in items]


# key -> (field, parser, formatter whose text the parser reads back exactly);
# "gas." keys set fields of the GasConfig
_KEYS = {
    "snr_db": ("snr_db_list", lambda v: _parse_list(v, float),
               lambda v: ",".join(repr(float(s)) for s in v)),
    "detectors": ("detectors", lambda v: _parse_list(v, str), ",".join),
    "ris": ("R_list", lambda v: _parse_list(v, int), lambda v: ",".join(str(int(r)) for r in v)),
    "n": ("N", int, str),
    "l_bi": ("L_bi", int, str),
    "l_iu": ("L_iu", int, str),
    "trials": ("trials_per_point", int, str),
    "seed": ("master_seed", int, str),
    "out": ("output_path", str, str),
    "gas.m": ("m", lambda v: None if v == "auto" else int(v),
              lambda v: "auto" if v is None else str(v)),
    "gas.lambda": ("growth_factor", float, repr),
    "gas.max_rounds": ("max_rounds", int, str),
    "gas.stall_rounds": ("stall_rounds", int, str),
    "gas.encoding": ("encoding", str, str),
    "gas.engine": ("engine", str, str),
}


def apply_settings(base: SweepConfig, settings) -> SweepConfig:
    """A validated copy of ``base`` with ``(where, key, value)`` text settings
    applied in order; ``where`` names the source in error messages."""
    cfg = replace(base)
    gas = replace(cfg.gas)
    for where, key, value in settings:
        if key not in _KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        name, conv, _ = _KEYS[key]
        try:
            setattr(gas if key.startswith("gas.") else cfg, name, conv(value))
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc
    try:
        cfg.gas = replace(gas)  # re-runs GasConfig validation
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.validate()


def parse_config(text: str, base: SweepConfig | None = None) -> SweepConfig:
    """Flat `key = value` lines; '#' starts a comment; later keys win."""
    settings = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        settings.append((f"line {lineno}", key, value))
    return apply_settings(base if base is not None else SweepConfig(), settings)


def format_config(cfg: SweepConfig) -> str:
    """Inverse of parse_config: every key of the grammar, in ``_KEYS`` order."""
    lines = []
    for key, (name, _, fmt) in _KEYS.items():
        owner = cfg.gas if key.startswith("gas.") else cfg
        lines.append(f"{key} = {fmt(getattr(owner, name))}")
    return "\n".join(lines) + "\n"
