"""The benchmark's hook points and inputs exist in the package.

``perfbench/spans.py`` wraps every ``layer.attr`` of its ``WRAPPED`` list by
name and reads the rotation count of ``circuits.grover_power`` from its
third positional argument.  A rename or move that breaks either makes the
traced benchmark fail with an AttributeError or a wrong count.
``perfbench/workloads.py`` reaches the package only through the config text
it writes and the CLI, so a removed config key or a broken channel draw
would fail every benchmark run as a config error.
"""

import importlib
import inspect
from pathlib import Path

from gasmld import circuits
from gasmld.bench import parse_config, trial_instance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_wrapped_functions_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert spans.WRAPPED
    for name in spans.WRAPPED:
        layer, attr = name.split(".")
        module = importlib.import_module("gasmld." + layer)
        assert callable(getattr(module, attr, None)), f"{name} does not resolve"


def test_grover_power_takes_power_third():
    params = list(inspect.signature(circuits.grover_power).parameters)
    assert params[:3] == ["state", "spec", "power"]


def test_workload_configs_parse_and_build(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert workloads.WORKLOADS
    for name, w in workloads.WORKLOADS.items():
        text = workloads.config_text(w, w.trials, workloads.DEFAULT_SEED, str(tmp_path / "w.csv"))
        cfg = parse_config(text).validate()
        assert cfg.N == w.n and cfg.detectors == list(w.detectors), name
        inst, bits = trial_instance(cfg, 0, 0, 0)
        assert inst.y.shape == bits.shape == (w.n,), name
