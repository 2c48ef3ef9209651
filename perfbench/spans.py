"""Spans recorded from outside the package, and the per-layer numbers they give.

A traced run replaces each public function named in ``TRACED`` in every
``gasmld`` module namespace that binds it, which is where its callers look it
up (``gasmld.bench.mld_detect``, ``gasmld.gas.fejer_distribution``,
``gasmld.qcore.apply_controlled_phase`` ...).  The wrapper records a span
``[name, start_ns, end_ns, parent, run]`` in a list kept in memory; the run
writes the list out once, at the end.  Spans are named by the defining
module, so a function imported into another module keeps its layer.

All counts below come from call tallies and from the objects the package
returns, never from timers, so they repeat exactly for a given seed.
"""

import math
import sys
import time

from workloads import VALUE_QUBITS

LAYERS = ("cli", "bench", "channel", "qubo", "detect", "gas", "circuits", "qcore")

TRACED = (
    "cli.main",
    "bench.run_sweep", "bench.trial_instance", "bench.detector_rng", "bench.emit_csv",
    "channel.generate_channel", "channel.circulant_matrix", "channel.block_from_bits",
    "channel.transmit",
    "qubo.MldInstance", "qubo.mld_to_qubo", "qubo.evaluate_all_costs", "qubo.evaluate_cost",
    "detect.mld_detect", "detect.mmse_detect", "detect.mmse_equalize", "detect.gas_detect",
    "detect.hybrid_detect",
    "gas.run_gas", "gas.cost_bounds",
    "circuits.fejer_distribution", "circuits.apply_state_preparation",
    "circuits.apply_state_preparation_inverse", "circuits.grover_power",
    "qcore.apply_controlled_phase", "qcore.apply_qft", "qcore.apply_iqft", "qcore.hadamard_all",
    "qcore.register_distribution", "qcore.sample_index", "qcore.zero_state",
)
# Wrapped only so that gates can be counted; they report no metrics of their own.
GATES = ("qcore.apply_1q", "qcore.apply_controlled_phase", "qcore.apply_swap")
WRAPPED = TRACED + tuple(g for g in GATES if g not in TRACED)

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self.notes = []  # (span index, dict) from the observers
        self.run = 0
        self._stack = []

    def wrap(self, name, fn, observe=None):
        spans, stack, notes = self.spans, self._stack, self.notes
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.run]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                notes.append((idx, observe(args, kwargs, result)))
            return result

        return wrapper


def install(tracer):
    """Wrap each ``layer.attr`` of WRAPPED in every loaded gasmld module that binds it."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "gasmld" or key.startswith("gasmld."))]
    for name in WRAPPED:
        layer, attr = name.split(".")
        target = getattr(sys.modules["gasmld." + layer], attr)
        wrapper = tracer.wrap(name, target, OBSERVERS.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is target:
                    setattr(module, key, wrapper)


def observe_run_gas(args, kwargs, result):
    """Exact per-search counts from the returned GasResult."""
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    levels = [t for _, t in result.threshold_trace]
    warm = cfg.warm_start is not None
    return {
        "rounds": result.rounds,
        "queries": result.oracle_queries,
        "thresholds": len(set(levels)),
        "improving": sum(1 for a, b in zip(levels, levels[1:]) if b < a),
        "warm": warm,
        "kept": bool(warm and (result.best_bits == cfg.warm_start).all()),
    }


def observe_grover_power(args, kwargs, result):
    return {"power": args[2] if len(args) > 2 else kwargs["power"]}


OBSERVERS = {"gas.run_gas": observe_run_gas, "circuits.grover_power": observe_grover_power}


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q of the samples at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def self_times(spans):
    """Per span: its duration minus the part of it that its child spans cover."""
    children = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0
        reach = lo
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append(hi - lo - covered)
    return out


def has_ancestor(spans, name):
    """Per span: whether some enclosing span is called ``name``.

    A parent is always recorded before its children, so one pass suffices.
    """
    flags = []
    for span in spans:
        parent = span[PARENT]
        flags.append(parent >= 0 and (spans[parent][NAME] == name or flags[parent]))
    return flags


def per_layer_metrics(spans, notes, w, trials, untraced_trials_per_s):
    """Every per-layer metric of one traced run, by name.

    Run 0 is the one-worker sweep; for a pooled workload run 1 is the same
    sweep on ``w.threads`` workers, whose spans inside the workers are lost
    and of which only the ``bench.run_sweep`` wall time is used.
    """
    own = self_times(spans)
    durations = {}
    layer_ns = dict.fromkeys(LAYERS, 0)
    pooled_ns = 0
    for span, self_ns in zip(spans, own):
        name = span[NAME]
        if span[RUN] == 0:
            durations.setdefault(name, []).append(span[END] - span[START])
            layer_ns[name.split(".", 1)[0]] += self_ns
        elif name == "bench.run_sweep":
            pooled_ns += span[END] - span[START]
    out = {}
    for name in TRACED:
        times = durations.get(name, [])
        out[f"{name}.calls"] = len(times)
        out[f"{name}.p50_us"] = percentile(times, 0.50) / 1e3
        out[f"{name}.p99_us"] = percentile(times, 0.99) / 1e3
    wall_ns = sum(durations.get("cli.main", ())) or 1
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_ns[layer] / 1e9
        out[f"{layer}.share"] = layer_ns[layer] / wall_ns

    def calls(name):
        return len(durations.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    searches = [note for idx, note in notes
                if spans[idx][RUN] == 0 and spans[idx][NAME] == "gas.run_gas"]
    warm = [s for s in searches if s["warm"]]
    rounds = sum(s["rounds"] for s in searches)
    thresholds = sum(s["thresholds"] for s in searches)
    iterations = sum(note["power"] for idx, note in notes
                     if spans[idx][RUN] == 0 and spans[idx][NAME] == "circuits.grover_power")
    below_grover = has_ancestor(spans, "circuits.grover_power")
    gates = sum(1 for span, below in zip(spans, below_grover)
                if below and span[RUN] == 0 and span[NAME] in GATES)
    busy_ns = sum(durations.get("bench.run_sweep", ()))

    out["bench.instances_per_trial"] = ratio(calls("bench.trial_instance"),
                                             len(w.snr_db) * len(w.ris) * trials)
    pooled_ns = pooled_ns if w.threads > 1 else busy_ns
    out["bench.pool_efficiency"] = ratio(busy_ns, w.threads * pooled_ns)
    out["gas.rounds_per_search"] = ratio(rounds, len(searches))
    out["gas.queries_per_search"] = ratio(sum(s["queries"] for s in searches), len(searches))
    out["gas.thresholds_per_search"] = ratio(thresholds, len(searches))
    out["gas.improving_round_ratio"] = ratio(sum(s["improving"] for s in searches), rounds)
    out["gas.warm_start_kept_ratio"] = ratio(sum(s["kept"] for s in warm), len(warm))
    out["gas.round_us"] = ratio(sum(durations.get("gas.run_gas", ())), rounds) / 1e3
    out["qubo.cost_tables_per_search"] = ratio(calls("qubo.evaluate_all_costs"), len(searches))
    out["circuits.fejer_calls_per_threshold"] = ratio(calls("circuits.fejer_distribution"),
                                                      thresholds)
    out["circuits.grover_iteration_ms"] = ratio(sum(durations.get("circuits.grover_power", ())),
                                                iterations) / 1e6
    # computed from the sizes, not measured: one float64 Fejer row of 2^m bins
    # per key, and one complex128 amplitude per basis state
    out["circuits.weight_kernel_bytes"] = (2 ** w.n * 2 ** VALUE_QUBITS * 8
                                           if calls("circuits.fejer_distribution") else 0)
    out["qcore.statevector_bytes"] = (2 ** (w.n + VALUE_QUBITS) * 16
                                      if calls("qcore.zero_state") else 0)
    out["qcore.gates_per_grover_iteration"] = ratio(gates, iterations)
    traced_trials_per_s = w.detector_trials(trials) / (wall_ns / 1e9)
    out["trace.overhead"] = ratio(traced_trials_per_s, untraced_trials_per_s)
    return out
