"""Monte-Carlo BER/query sweeps with reproducible seeding and CSV output.

Seeding contract: the channel, payload bits, and noise of a trial are drawn
from a stream keyed by (master_seed, snr index, R index, trial, 0), which
does not mention the detector.  The stream is read in that order: one
``standard_normal`` call for every channel tap (``channel.channel_normals``),
``integers(0, 2, N)`` for the bits, then, when sigma2 > 0, one
``standard_normal(2N)`` for the noise; a block of trials reads each stream
so (``trial_block``, which decodes the bits from the ceil(N/2) raw words
that ``integers`` reads, ``random_bits``) and stays stacked arrays, never
per-trial instances, until ``detect.decide`` has decided it.  Every
detector therefore faces the exact same instance sequence and comparisons
are paired.  Randomized detectors
get their own stream keyed by the same tuple with the detector's global
index in METHODS appended, so adding or reordering detectors in a config
never perturbs any other column.

Each stream is numpy's ``default_rng(SeedSequence(key))``, a PCG64 stream,
bit for bit; the sweep only hashes its keys a job at a time
(``stream_words``): numpy's ``SeedSequence`` hash runs once on all of a
block's keys, and each stream's PCG64 seeds itself from its key's words
(``seeded_stream``).  The bytes so rest on numpy keeping that hash,
PCG64's seeding and its bounded-integer draw fixed, as every seeded numpy
stream does, and the tests compare the streams and the decoded draws with
numpy's own, so a change there fails loudly.

A sweep's job is a run of consecutive trials in (point, trial) order that
may cross from one (snr, R) point into the next: it stacks each point's
block, with each row's noise power, and decides the rows at once, and a
row's place in its job changes none of its streams.
"""

import functools
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .channel import (_lag, add_noise, channel_normals, channel_stack, first_column, modulate,
                      noise_normals, snr_db_to_sigma2)
from .detect import METHODS, decide
from .gas import GasConfig, check_registers
from .qcore import CapacityError
from .qubo import BRUTE_FORCE_MAX_N, MldInstance

CSV_HEADER = "snr_db,detector,R,trials,bit_errors,ber,mean_queries,ci95"
# Most trials per job: enough to batch MLD and MMSE well, few enough that a
# pool stays busy on a short sweep and a job's arrays stay small at 1e5 trials.
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
        try:
            self.gas.__post_init__()  # its fields may have been set after construction
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not self.snr_db_list or not self.detectors or not self.R_list:
            raise ConfigError("snr_db, detectors, and ris lists must be nonempty")
        for det in self.detectors:
            if det not in METHODS:
                raise ConfigError(f"unknown detector {det!r}; choose from {METHODS}")
        if len(set(self.detectors)) < len(self.detectors):
            raise ConfigError(f"detector listed twice in {self.detectors}")
        # sigma2 = 10^(-snr/10) stays at most 1e300, where every cost is finite
        if any(not s >= -3000.0 for s in self.snr_db_list):
            raise ConfigError("SNR points must be at least -3000 dB or inf (noiseless)")
        # 0 and -0.0 are one point: a set keeps numerically equal values once
        if len(set(self.snr_db_list)) < len(self.snr_db_list):
            raise ConfigError(f"SNR point listed twice in {self.snr_db_list}")
        if len(set(self.R_list)) < len(self.R_list):
            raise ConfigError(f"RIS element count listed twice in {self.R_list}")
        if self.master_seed < 0:
            raise ConfigError("seed must be non-negative")
        searches = bool({"GAS_random", "GAS_warm"} & set(self.detectors))
        if self.trials_per_point < 1:
            raise ConfigError("trials must be positive")
        if self.trials_per_point > 2**63:  # a trial's index keys its streams, below 2^63
            raise ConfigError("trials must be at most 2^63")
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
        if searches:
            try:
                check_registers(self.N, self.gas)
            except CapacityError as exc:
                raise ConfigError(str(exc)) from exc
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of 4
# 32-bit lanes, hashed with two constant sequences, A into the pool and B out
# of it, each word x_{k+1} = x_k * mult mod 2^32, whatever the data
_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(first: int, mult: int, count: int) -> np.ndarray:
    words = [first]
    for _ in range(count):
        words.append(words[-1] * mult & _MASK32)
    return np.array(words, dtype=np.uint32)


_STATE_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)[:, None]


@functools.lru_cache
def _pool_steps(words: int) -> list:
    """Sequence A's pairs (x_k, x_{k+1}), as (4, 1) columns, of each hash
    of the pool's lanes for an entropy of ``words`` words: filling it; then
    for each source lane in turn, hashing it into the other three (the
    source's own pair is not used); then mixing in each word past the
    fourth."""
    a = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * max(words, 4))
    ks = [[0, 1, 2, 3]]
    ks += [[4 + 3 * src + dst - (dst > src) for dst in range(4)] for src in range(4)]
    ks += [[4 * word + lane for lane in range(4)] for word in range(4, words)]
    return [(a[k][:, None], a[k + 1][:, None]) for k in np.array(ks)]


def _hashmix(value, x: np.ndarray, x_next: np.ndarray) -> np.ndarray:
    value = (value ^ x) * x_next
    return value ^ (value >> 16)


def _mix(x, y) -> np.ndarray:
    mixed = x * _MIX_L - y * _MIX_R
    return mixed ^ (mixed >> 16)


def _pcg64_words(entropy: np.ndarray) -> np.ndarray:
    """(T, 4) uint64 ``SeedSequence.generate_state(4, np.uint64)`` of the T
    keys whose 32-bit entropy words are the columns of ``entropy``, (W, T)
    uint32: the pool's 4 lanes are one (4, T) array, and the 8 state words
    one (8, T) array."""
    W, T = entropy.shape
    fill, *cross = _pool_steps(W)
    pool = np.zeros((4, T), dtype=np.uint32)
    pool[:min(W, 4)] = entropy[:4]
    pool = _hashmix(pool, *fill)
    for src, step in enumerate(cross[:4]):
        mixed = _mix(pool, _hashmix(pool[src], *step))
        mixed[src] = pool[src]
        pool = mixed
    for word, step in zip(entropy[4:], cross[4:]):
        pool = _mix(pool, _hashmix(word, *step))
    state = _hashmix(np.concatenate([pool, pool]), _STATE_B[:8], _STATE_B[1:])
    # as numpy does: the words read little-endian, pairs as native uint64
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def _int_words(n: int) -> list:
    """numpy's 32-bit words of a non-negative int, least significant first."""
    if n < 0:
        raise ValueError(f"stream key entries must be non-negative, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def stream_words(*key) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)``, PCG64's seed words,
    for T keys at once, as a (T, 4) uint64 array.  Each entry of ``key`` is
    a non-negative int every key shares or a (T,) array of ints in
    [0, 2^63), one per key.  As in numpy, an entry of 2^32 or more takes
    more words; keys of one layout are hashed together."""
    arrays = [np.asarray(entry) for entry in key if np.ndim(entry)]
    if any(entry.dtype.kind not in "iu" for entry in arrays):
        raise ValueError("stream key entries must be non-negative ints")
    T = len(arrays[0]) if arrays else 1
    per_key = np.array(arrays, dtype=np.int64).reshape(len(arrays), T)
    if per_key.size and per_key.min() < 0:
        raise ValueError("stream key entries must be non-negative ints below 2^63")
    low, high = per_key & _MASK32, per_key >> 32
    layout = (1 << np.arange(len(arrays))) @ (high != 0)  # bit j: array entry j takes 2 words
    words = np.empty((T, 4), dtype=np.uint64)
    # np.bincount, not np.unique: unique's first call imports numpy.ma (8 ms
    # and 1.5 MiB on a 2-core Xeon), more than a short sweep's streams cost
    for group in np.flatnonzero(np.bincount(layout)):
        keys = layout == group
        lines, j = [], 0
        for entry in key:
            if np.ndim(entry):
                lines += [low[j, keys]] + [high[j, keys]] * int(group >> j & 1)
                j += 1
            else:
                lines += _int_words(operator.index(entry))
        entropy = np.empty((len(lines), np.count_nonzero(keys)), dtype=np.uint32)
        for row, line in enumerate(lines):
            entropy[row] = line
        words[keys] = _pcg64_words(entropy)
    return words


class _Seeded(ISeedSequence):
    """A seed sequence whose PCG64 seed words are already hashed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("PCG64 no longer seeds from generate_state(4, np.uint64)")
        return self.words


def seeded_stream(words: np.ndarray) -> np.random.Generator:
    """The PCG64 stream of one row of ``stream_words``: bit for bit
    ``np.random.default_rng(np.random.SeedSequence(key))``."""
    return np.random.Generator(np.random.PCG64(_Seeded(words)))


def random_bits(words: np.ndarray, count: int) -> np.ndarray:
    """numpy's ``integers(0, 2, size=count)`` on a PCG64 stream that carries
    no half, from the stream's next ceil(count / 2) raw ``words`` along the
    last axis: each draw reads one 32-bit half, low half first, and Lemire's
    draw on a range of 2, which never rejects, is its top bit."""
    return np.asarray(words, dtype="<u8").view("<u4")[..., :count] >> 31


def trial_block(cfg: SweepConfig, snr_idx: int, r_idx: int, start: int, stop: int):
    """Trials [start, stop) of one point as ``detect.decide`` reads them:
    ``(h, y, sigma2, bits)``, the padded responses, the received blocks and
    the true bits, each (T, N), and the point's noise power.

    Each trial draws from its own stream, in the contract's order; the
    arithmetic then runs once on the block's stacked draws, but each trial's
    y = H x takes its own freshly gathered circulant: a product on a view of
    a stack can round one ulp apart, as its memory alignment picks the
    kernel's path, and no (T, N, N) stack is held."""
    R, N, T = cfg.R_list[r_idx], cfg.N, stop - start
    sigma2 = snr_db_to_sigma2(cfg.snr_db_list[snr_idx])
    taps = np.empty((T, channel_normals(R, cfg.L_bi, cfg.L_iu)))
    raw = np.empty((T, (N + 1) // 2), dtype=np.uint64)  # the words the bits are drawn from
    noise = np.empty((T, noise_normals(N, sigma2)))
    for row, words in enumerate(stream_words(cfg.master_seed, snr_idx, r_idx,
                                             np.arange(start, stop), 0)):
        rng = seeded_stream(words)
        rng.standard_normal(out=taps[row])
        raw[row] = rng.bit_generator.random_raw(raw.shape[1])
        rng.standard_normal(out=noise[row])
    # a fresh stream carries no half, and ziggurat normals neither read nor
    # set the carry, so these are integers(0, 2, N)'s bits and the noise is
    # drawn from the words numpy's own draw leaves
    bits = random_bits(raw, N).astype(np.int64)
    h = first_column(channel_stack(taps, R, cfg.L_bi, cfg.L_iu).h_eff, N)
    x = modulate(bits)
    lag = _lag(N)  # h_t[lag] is circulant_matrix(h_t, N), without its padding copy
    y = add_noise(np.array([h_t[lag] @ x_t for h_t, x_t in zip(h, x)]), noise, sigma2)
    return h, y, sigma2, bits


def trial_instance(cfg: SweepConfig, snr_idx: int, r_idx: int, trial: int):
    """The (instance, true bits) pair a given trial presents to every
    detector: ``trial_block``'s block of one."""
    h, y, sigma2, bits = trial_block(cfg, snr_idx, r_idx, trial, trial + 1)
    return MldInstance(h=h[0], y=y[0], sigma2=sigma2), bits[0]


def detector_rng(cfg: SweepConfig, snr_idx: int, r_idx: int, trial: int, detector: str):
    """A trial's stream for a randomized detector: the sweep's key of one."""
    (words,) = stream_words(cfg.master_seed, snr_idx, r_idx, trial, 1 + METHODS.index(detector))
    return seeded_stream(words)


def _run_block(job) -> np.ndarray:
    """One job: rows [start, stop) of the sweep's trials in (point, trial)
    order, which may cross from one (snr, R) point into the next.  Each
    point's slice is built by ``trial_block``, and the slices, stacked with
    each row's noise power, are shown once to every detector
    (``detect.decide``), each search on its row's own stream: the job's
    search keys are hashed in one ``stream_words`` pass, and each stream is
    built from its words when its search starts.  Returns the
    (detectors, 2, T) bit errors and oracle queries of each row."""
    cfg, start, stop = job
    n = cfg.trials_per_point
    # (snr_idx, r_idx, first trial, stop trial) of each point the rows cross
    slices = [(*divmod(point, len(cfg.R_list)), max(start - point * n, 0), min(stop - point * n, n))
              for point in range(start // n, -(-stop // n))]
    blocks = [trial_block(cfg, *piece) for piece in slices]
    if len(blocks) == 1:
        ((h, y, sigma2, truth),) = blocks
    else:
        h, y, truth = (np.concatenate([block[k] for block in blocks]) for k in (0, 1, 3))
        sigma2 = np.repeat([block[2] for block in blocks], [len(block[0]) for block in blocks])
    # every search's key of every row, (seed, snr_idx, r_idx, trial, tag)
    searches = [det for det in cfg.detectors if det in ("GAS_random", "GAS_warm")]
    point, trial = np.divmod(np.tile(np.arange(start, stop), len(searches)), n)
    tags = np.repeat(np.array([1 + METHODS.index(det) for det in searches], dtype=np.int64),
                     stop - start)
    words = stream_words(cfg.master_seed, *np.divmod(point, len(cfg.R_list)), trial, tags)
    words = words.reshape(len(searches), stop - start, 4)
    decided = decide(h, y, sigma2, cfg.detectors, cfg.gas,
                     lambda det, row: seeded_stream(words[searches.index(det), row]))
    return np.array([(np.sum(decided[det][0] != truth, axis=1), decided[det][1])
                     for det in cfg.detectors])


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


def _worker_cap() -> int:
    env = os.environ.get("GASMLD_THREADS", "").strip()
    try:
        cap = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"GASMLD_THREADS must be a positive integer, got {env!r}")
    return cap


def run_sweep(cfg: SweepConfig) -> list[BerRecord]:
    """Every (snr, detector, R) record of the sweep.  Its trials run in
    (point, trial) order as jobs of consecutive rows that may cross points:
    k = cap * ceil(total / (cap * BLOCK_TRIALS)) jobs of ceil(total / k)
    rows, the last one shorter, for a worker cap ``cap``, so a job holds at
    most ``BLOCK_TRIALS`` rows, a pool's workers get equally many jobs, and
    a serial sweep of small points makes one block, whose searches share
    lockstep groups across the points.  Each point's errors and queries are
    summed from the jobs' per-row tallies."""
    cfg.validate()
    n = cfg.trials_per_point
    total = len(cfg.snr_db_list) * len(cfg.R_list) * n
    cap = _worker_cap()
    size = -(-total // (cap * -(-total // (cap * BLOCK_TRIALS))))
    jobs = [(cfg, start, min(start + size, total)) for start in range(0, total, size)]
    workers = min(cap, len(jobs))
    if workers == 1:
        results = [_run_block(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_block, jobs))
    # (detector, errors and queries, point): the sums of the jobs' rows
    sums = np.concatenate(results, axis=2).reshape(len(cfg.detectors), 2, -1, n).sum(axis=3)
    records = [_record(cfg, *divmod(point, len(cfg.R_list)), det, int(errors), int(queries))
               for det, tallies in zip(cfg.detectors, sums)
               for point, (errors, queries) in enumerate(tallies.T)]
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
    "gas.m": ("m", int, str),
    "gas.lambda": ("growth_factor", float, repr),
    "gas.max_rounds": ("max_rounds", int, str),
    "gas.stall_rounds": ("stall_rounds", int, str),
    "gas.encoding": ("encoding", str, str),
    "gas.engine": ("engine", str, str),
}


def apply_settings(base: SweepConfig, settings) -> SweepConfig:
    """A validated copy of ``base`` with ``(where, key, value)`` text settings
    applied in order; ``where`` names the source in error messages."""
    cfg = replace(base, gas=replace(base.gas))
    for where, key, value in settings:
        if key not in _KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        name, conv, _ = _KEYS[key]
        try:
            setattr(cfg.gas if key.startswith("gas.") else cfg, name, conv(value))
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc
    return cfg.validate()


def config_settings(text: str) -> list:
    """``(where, key, value)`` of each flat `key = value` line; '#' starts a comment."""
    settings = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        settings.append((f"line {lineno}", key, value))
    return settings


def parse_config(text: str) -> SweepConfig:
    """``config_settings(text)`` on the defaults, validated; later keys win."""
    return apply_settings(SweepConfig(), config_settings(text))


def format_config(cfg: SweepConfig) -> str:
    """Inverse of parse_config: every key of the grammar, in ``_KEYS`` order."""
    lines = []
    for key, (name, _, fmt) in _KEYS.items():
        owner = cfg.gas if key.startswith("gas.") else cfg
        lines.append(f"{key} = {fmt(getattr(owner, name))}")
    return "\n".join(lines) + "\n"
