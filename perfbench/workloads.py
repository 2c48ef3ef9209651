"""The four sweep workloads and the config files that drive them.

Every workload keeps the recipe's seeding, ``gas.m = 12`` and the
``real_direct`` encoding; only the grid, the detectors, the engine and the
worker count differ.  Each package layer has one workload where it does most
of the work and one where it does almost none (see ``why`` in
BENCHMARK.json), so a later change can show a gain on one and no change on
the other.

A run measures ``pieces`` distinct sweeps of ``trials`` trials each, every
one with its own master seed derived from the run's seed.  The time of a
sweep differs from seed to seed because the inputs differ, and from repeat
to repeat because the host's speed drifts; run.py scales each time by a
calibration kernel and takes the median over the repeats of a piece.
``fig2_serial`` and ``classical_pool2`` spread their work over 12 points and
need one piece; ``statevector_n3`` and ``block10_serial`` have one point
each, and the cost of a GAS search varies by about a third from search to
search, so they need several pieces before the trials per second of two
seeds agree within a few percent.  ``trace_trials`` sizes the traced run,
which needs exact counts, not a steady rate.
"""

from dataclasses import dataclass

# The master seed of the fig2/fig3 recipes; the sha256 table is kept for it.
DEFAULT_SEED = 1234
VALUE_QUBITS = 12


@dataclass(frozen=True)
class Workload:
    snr_db: tuple
    detectors: tuple
    ris: tuple
    n: int
    engine: str
    threads: int
    trials: int
    pieces: int
    trace_trials: int

    @property
    def points(self) -> int:
        """CSV rows of one sweep: one per (snr, detector, R)."""
        return len(self.snr_db) * len(self.detectors) * len(self.ris)

    def detector_trials(self, trials: int) -> int:
        return self.points * trials


def piece_seed(seed: int, piece: int) -> int:
    """Master seed of one piece of a run; piece 0 uses the run's seed itself."""
    return seed + 1_000_000 * piece


WORKLOADS = {
    "fig2_serial": Workload(
        snr_db=(-5.0, 0.0, 5.0, 10.0), detectors=("MLD", "GAS_random", "GAS_warm"),
        ris=(0, 4, 8), n=3, engine="analytic", threads=1, trials=16, pieces=1, trace_trials=8,
    ),
    "classical_pool2": Workload(
        snr_db=(-5.0, 0.0, 5.0, 10.0), detectors=("MLD", "MMSE"),
        ris=(0, 4, 8), n=3, engine="analytic", threads=2, trials=300, pieces=1, trace_trials=150,
    ),
    "statevector_n3": Workload(
        snr_db=(0.0,), detectors=("GAS_random", "GAS_warm"),
        ris=(4,), n=3, engine="statevector", threads=1, trials=6, pieces=8, trace_trials=6,
    ),
    "block10_serial": Workload(
        snr_db=(0.0,), detectors=("MLD", "GAS_warm"),
        ris=(4,), n=10, engine="analytic", threads=1, trials=10, pieces=8, trace_trials=10,
    ),
}


def config_text(w: Workload, trials: int, seed: int, out: str) -> str:
    """The flat ``key = value`` file that ``gasmld sweep --config`` reads."""
    return "\n".join([
        "snr_db = " + ", ".join(repr(v) for v in w.snr_db),
        "detectors = " + ", ".join(w.detectors),
        "ris = " + ", ".join(str(v) for v in w.ris),
        f"n = {w.n}",
        "l_bi = 2",
        "l_iu = 2",
        f"trials = {trials}",
        f"seed = {seed}",
        f"out = {out}",
        f"gas.m = {VALUE_QUBITS}",
        "gas.lambda = 1.1428571428571428",
        "gas.max_rounds = 50",
        "gas.stall_rounds = 15",
        "gas.encoding = real_direct",
        f"gas.engine = {w.engine}",
    ]) + "\n"
