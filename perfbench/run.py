"""Sweep benchmark of gasmld, driven through ``gasmld.cli.main`` from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from any directory of a plain checkout: the package is imported from
the checkout's ``src`` with no install.  Every sweep runs in a fresh
interpreter (``child.py``).  The load is a closed-loop batch job: a sweep
starts its next trial when the previous one ends, in one process or in a
pool of ``GASMLD_THREADS`` workers, and the benchmark starts its next sweep
when the previous one ends.

``--trace 0`` sweeps the workload's pieces in turn while the next sweep
still fits in ``--seconds`` and reports the end-to-end metrics
(``untraced``).  Their times are scaled to a reference host speed by a
calibration kernel that each child runs next to its timed work (``scaled``,
``child.calibrate``): measured on a shared 2-core host, the speed drifted
by up to 60% within an hour and the unscaled throughput of ten seeds spread
by 26% between quartiles, against 6% once scaled.

``--trace 1`` runs one sweep with every function of ``spans.WRAPPED``
wrapped, repeats it untraced on one worker for the rest of the time, and
reports the per-layer metrics (``traced``).

Both check every CSV (``csvcheck``) and print, before the result line, one
JSON line with the environment, the raw samples and the sha256 of the
reference CSVs.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``, counted in sweep points.

To record new reference hashes after a change that alters the CSV bytes on
purpose, run each workload with ``--seed 1234`` under both trace settings
and copy ``run_sha256`` (one per piece) and ``trace_sha256`` from the
summary line into ``reference_sha256.json``.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import csvcheck
import spans
from workloads import DEFAULT_SEED, WORKLOADS, config_text, piece_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
# Every time is scaled to a host on which child.calibrate() takes this long,
# about what it takes on the 2-core host the benchmark was sized on when idle.
CALIBRATION_REFERENCE_S = 0.09
CHILD_TIMEOUT_S = 150


class Session:
    """One benchmark run: its workload, seed, scratch directory and checks."""

    def __init__(self, name, seed, workdir):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._count = 0
        table = json.loads((HERE / "reference_sha256.json").read_text())
        self.sha = table[name] if seed == DEFAULT_SEED else {}

    def config(self, kind, trials, seed):
        """Write a config file; the sweep's CSV goes next to it."""
        path = self.workdir / f"{kind}.cfg"
        path.write_text(config_text(self.w, trials, seed, str(path.with_suffix(".csv"))))
        return path

    def child(self, config, threads, *extra):
        """Run child.py to completion; its result dict, or None if it failed."""
        self._count += 1
        result = self.workdir / f"result-{self._count}.json"
        env = dict(os.environ, GASMLD_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--config", str(config),
               "--result", str(result), *extra, "--spawn-ns", str(time.monotonic_ns())]
        proc = subprocess.Popen(cmd, env=env, cwd=self.workdir, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers
            proc.communicate()
            self.errors.append(f"timed out after {CHILD_TIMEOUT_S} s")
            return None
        if proc.returncode != 0 or not result.exists():
            self.errors.append(err.decode(errors="replace")[-400:])
            return None
        return json.loads(result.read_text())

    def count(self, trials, data, reference=None, sha=None):
        """Add a sweep's points to the attempted ones and its wrong points to the failed."""
        self.attempted += self.w.points
        self.failed += csvcheck.failed_points(self.w, trials, data, reference, sha)

    def sweep(self, config, trials, threads, reference=None, sha=None):
        """One untraced, checked sweep: (child result or None, CSV bytes or None)."""
        out = self.child(config, threads)
        if out is not None and out["rc"] != 0:
            self.errors.append(f"gasmld sweep exited with code {out['rc']}")
            out = None
        data = take_csv(config.with_suffix(".csv"), out is not None)
        self.count(trials, data, reference, sha)
        return out, data


def take_csv(path, ok):
    """The CSV a child wrote, or None if it failed; the file is removed."""
    data = path.read_bytes() if ok and path.exists() else None
    path.unlink(missing_ok=True)
    return data


def untraced(s, seconds):
    """End-to-end metrics of one run.

    The pieces are swept in turn, again and again while the next sweep still
    fits in ``seconds``; every piece is swept at least once.  The first CSV
    of a piece is the reference of its repeats; a pooled workload first
    sweeps each piece on one worker for that.  Each time is scaled to the
    reference host speed (``scaled``) and a piece counts with the median of
    its sweeps.  Set-up time is the median over all sweeps, and over
    set-up-only runs when there were fewer than ``SETUP_SAMPLES`` sweeps.
    """
    w = s.w
    start = time.perf_counter()
    configs = [s.config(f"run{i}", w.trials, piece_seed(s.seed, i)) for i in range(w.pieces)]
    hashes = s.sha.get("run", [None] * w.pieces)
    refs = [None] * w.pieces
    if w.threads > 1:
        refs = [s.sweep(c, w.trials, 1, sha=h)[1] for c, h in zip(configs, hashes)]
    samples = [[] for _ in configs]
    setup = []
    done, last = 0, 0.0
    while done < w.pieces or time.perf_counter() - start + last <= seconds:
        i = done % w.pieces
        began = time.perf_counter()
        out, data = s.sweep(configs[i], w.trials, w.threads, refs[i], hashes[i])
        last = time.perf_counter() - began
        done += 1
        if refs[i] is None:
            refs[i] = data
        if out is None:
            return {"samples": samples}, None
        samples[i].append(out)
        setup.append(scaled(out["setup_s"], out["calib_s"][:1]))
    while len(setup) < SETUP_SAMPLES:
        out = s.child(configs[0], w.threads, "--setup-only")
        if out is None:
            return {"samples": samples}, None
        setup.append(scaled(out["setup_s"], out["calib_s"]))
    work = w.detector_trials(w.trials) * w.pieces

    def total(key):
        return sum(statistics.median(scaled(o[key], o["calib_s"]) for o in piece)
                   for piece in samples)

    metrics = {
        "trials_per_s": work / total("wall_s"),
        "cpu_ms_per_trial": 1e3 * total("cpu_s") / work,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for piece in samples for o in piece),
    }
    return {"run_sha256": [csvcheck.sha256(r) for r in refs], "samples": samples}, metrics


def scaled(seconds, calib):
    """A time measured in a child, scaled to the reference host speed.

    The calibration kernel ran in the same process (before, and for a sweep
    also after, the timed work); ``calib`` holds its times.
    """
    return seconds * CALIBRATION_REFERENCE_S / statistics.fmean(calib)


def traced(s, seconds):
    """Per-layer metrics from one traced sweep, set against untraced ones.

    The traced CSVs (one worker, and the pool for a pooled workload) must
    equal the untraced one-worker CSV: instrumentation must not change results.
    The untraced sweeps repeat while time is left; their median, scaled to
    the host speed of the traced sweep, is the base of ``trace.overhead``.
    """
    w, trials = s.w, s.w.trace_trials
    start = time.perf_counter()
    config = s.config("trace", trials, s.seed)
    span_file = s.workdir / "spans.json"
    pooled_csv = s.workdir / "pooled.csv"
    out = s.child(config, 1, "--trace", str(span_file),
                  "--pool-threads", str(w.threads), "--pool-out", str(pooled_csv))
    ok = out is not None and out["rc"] == 0 and out.get("pool_rc", 0) == 0
    if out is not None and not ok:
        s.errors.append(f"traced gasmld sweep exited with {out['rc']}, {out.get('pool_rc')}")
    traced_csvs = [take_csv(config.with_suffix(".csv"), ok)]
    if w.threads > 1:
        traced_csvs.append(take_csv(pooled_csv, ok))
    rates = []
    reference = None
    last = 0.0
    while not rates or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        sample, data = s.sweep(config, trials, 1, reference, s.sha.get("trace"))
        last = time.perf_counter() - began
        reference = data if reference is None else reference
        if sample is None:
            break
        rates.append(w.detector_trials(trials) / scaled(sample["wall_s"], sample["calib_s"]))
    for data in traced_csvs:
        s.count(trials, data if reference is not None else None, reference)
    if not ok or not rates:
        return {"untraced_trials_per_s": rates}, None
    record = json.loads(span_file.read_text())
    # the untraced rate at the host speed the traced sweep saw
    untraced = statistics.median(rates) * CALIBRATION_REFERENCE_S / statistics.fmean(out["calib_s"])
    metrics = spans.per_layer_metrics(record["spans"], record["notes"], w, trials, untraced)
    return {"trace_sha256": csvcheck.sha256(reference), "untraced_trials_per_s": rates,
            "spans": len(record["spans"])}, metrics


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment(s):
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(index / "size").strip()
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_cache": caches.get("l2", "unknown"),
        "l3_cache": caches.get("l3", "unknown"),
        "GASMLD_THREADS": s.w.threads,
        "git_commit": git_commit(),
        "seed": s.seed,
    }


def git_commit():
    """HEAD of the checkout's own .git, if it has one; a plain checkout has none."""
    git = ROOT / ".git"
    head = _read(git / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    commit = _read(git / ref).strip()
    if commit:
        return commit
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gasmld" / "cli.py").is_file():
        print(f"perfbench: no gasmld sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        s = Session(args.workload, args.seed, workdir)
        extra, values = (traced if args.trace else untraced)(s, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # unless another run still uses it
        except OSError:
            pass
    if values is None or set(values) != set(units):
        s.errors.append("no metrics" if values is None else "metric names differ from "
                        f"BENCHMARK.json: {sorted(set(values) ^ set(units))}")
        values = dict.fromkeys(units, 0.0)
    correct = s.failed == 0 and not s.errors
    print(json.dumps({
        "workload": args.workload,
        "environment": environment(s),
        "point_error_rate": s.failed / max(1, s.attempted),
        "errors": s.errors,
        "samples": extra,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, s.attempted),
        "failed": s.failed if s.attempted else 1,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
