"""Output check behind the point error count.

A sweep point is wrong when its CSV row is missing, duplicated, internally
inconsistent, or differs from the same row of the one-worker reference run
of the same config and seed.  At the default seed the whole file must also
match the sha256 recorded in ``reference_sha256.json``.  A run that exits
non-zero, raises, or writes no CSV counts every point as failed.
"""

import hashlib
import math

HEADER = "snr_db,detector,R,trials,bit_errors,ber,mean_queries,ci95"
SEARCHES = ("GAS_random", "GAS_warm")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expected_keys(w):
    """(snr_db, detector, R) fields of every row, in the order the CSV lists them."""
    return sorted(
        ((f"{s:.10g}", d, str(r)) for s in w.snr_db for d in w.detectors for r in w.ris),
        key=lambda k: (float(k[0]), k[1], int(k[2])),
    )


def _row_ok(fields, trials, n):
    """Internal consistency of one row; the columns follow ``gasmld.bench.emit_csv``."""
    try:
        _, det, _, t, errors, ber, queries, ci95 = fields
        t, errors, queries_value = int(t), int(errors), float(queries)
    except ValueError:
        return False
    nbits = trials * n
    if t != trials or not 0 <= errors <= nbits:
        return False
    rate = errors / nbits
    if ber != f"{rate:.10g}" or ci95 != f"{1.96 * math.sqrt(rate * (1.0 - rate) / nbits):.10g}":
        return False
    if det in SEARCHES:
        return math.isfinite(queries_value) and queries_value >= 0.0
    return queries == "0"


def failed_points(w, trials, data, reference=None, sha=None):
    """Number of the workload's sweep points whose row in ``data`` is wrong.

    ``data`` is the CSV as bytes, or None when the run produced none.
    ``reference`` is the one-worker CSV of the same config and seed, and
    ``sha`` the recorded sha256 of that CSV; either may be None.  A file
    whose rows are not exactly the expected points in order fails them all.
    """
    keys = expected_keys(w)
    if data is None or (sha is not None and sha256(data) != sha):
        return len(keys)
    try:
        lines = data.decode("ascii").split("\n")
    except UnicodeDecodeError:
        return len(keys)
    rows = lines[1:-1]
    if lines[0] != HEADER or lines[-1] != "" or [_key(r) for r in rows] != keys:
        return len(keys)
    ref = {} if reference is None else {_key(r): r for r in reference.decode("ascii").split("\n")}
    return sum(
        not (_row_ok(row.split(","), trials, w.n) and (reference is None or ref.get(key) == row))
        for key, row in zip(keys, rows)
    )


def _key(row):
    return tuple(row.split(",")[:3])
