"""One sweep in a fresh interpreter, measured from outside the package.

    python3 child.py --src SRC --config FILE --result OUT.json --spawn-ns NS
                     [--setup-only] [--trace SPANS.json --pool-threads K --pool-out CSV]

Set-up ends when ``gasmld`` is imported and the config file is parsed and
validated; it is timed from ``--spawn-ns``, the parent's CLOCK_MONOTONIC
reading just before it started this process (``time.monotonic_ns`` reads the
same clock in every process on Linux).  The sweep is one call of
``gasmld.cli.main(["sweep", "--config", FILE])``, timed until it returns with
the CSV written.  With ``--trace`` the call runs with every function in
``spans.WRAPPED`` wrapped; with ``--pool-threads K`` (K > 1) a second traced
call then runs the same config on a pool of K workers, so that the pool's
efficiency can be set against the one-worker run.

Right after set-up, and again after the sweep, the child times a fixed
numpy and interpreter kernel (``calibrate``) that does not touch gasmld.
The parent scales every time by it, so that a host that slows down for a
while, as a shared one does, does not read as a slower program.
"""

import argparse
import json
import os
import resource
import sys
import time


def _cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


def calibrate():
    """Seconds a fixed numpy and interpreter kernel takes on this host right now."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 4096)
    z = np.ones(1 << 15, dtype=complex)
    acc = 0.0
    t0 = time.perf_counter_ns()
    for i in range(1000):
        acc += float(np.sin(x * i).sum())
        z *= np.exp(1e-3j)
        for j in range(300):
            acc += j * 0.5
    return (time.perf_counter_ns() - t0) / 1e9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("--pool-threads", type=int, default=1)
    parser.add_argument("--pool-out")
    args = parser.parse_args(argv)

    # The checkout's own sources come first, whatever is installed and
    # whichever directory this runs from; pool workers inherit this path.
    sys.path.insert(0, args.src)
    import gasmld.cli
    from gasmld.bench import parse_config

    with open(args.config) as fh:
        parse_config(fh.read())
    result = {"setup_s": (time.monotonic_ns() - args.spawn_ns) / 1e9}

    result["calib_s"] = [calibrate()]
    if not args.setup_only:
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter_ns()
        result["rc"] = gasmld.cli.main(["sweep", "--config", args.config])
        t1 = time.perf_counter_ns()
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        result["wall_s"] = (t1 - t0) / 1e9
        result["cpu_s"] = _cpu_s(self1) - _cpu_s(self0) + _cpu_s(kids1) - _cpu_s(kids0)
        # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the reaped pool workers
        result["peak_rss_mb"] = max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0
        result["calib_s"].append(calibrate())
        if tracer is not None and args.pool_threads > 1:
            os.environ["GASMLD_THREADS"] = str(args.pool_threads)
            tracer.run = 1
            result["pool_rc"] = gasmld.cli.main(
                ["sweep", "--config", args.config, "--out", args.pool_out])
        if tracer is not None:
            with open(args.trace, "w") as fh:
                json.dump({"spans": tracer.spans, "notes": tracer.notes}, fh)

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
