"""The benchmark's hook points and inputs exist in the package.

``perfbench/spans.py`` wraps every ``layer.attr`` of its ``WRAPPED`` list by
name and reads the rotation count of ``circuits.grover_power`` from its
third positional argument.  A rename or move that breaks either makes the
traced benchmark fail with an AttributeError or a wrong count.
``perfbench/workloads.py`` reaches the package only through the config text
it writes and the CLI, so a removed config key or a broken channel draw
would fail every benchmark run as a config error.  The observers read the
wrapped calls' arguments and results, so every workload's sweep also runs
once with the tracer installed.
"""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

from conftest import child_env
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


TRACED_SWEEPS = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import gasmld.cli
import spans
from workloads import DEFAULT_SEED, WORKLOADS, config_text

tracer = spans.Tracer()
spans.install(tracer)
codes = {}
for name, w in WORKLOADS.items():
    path = os.path.join(sys.argv[2], name + ".cfg")
    with open(path, "w") as fh:
        fh.write(config_text(w, 2, DEFAULT_SEED, path + ".csv"))
    os.environ["GASMLD_THREADS"] = str(w.threads)  # no pool past the workload's own
    codes[name] = gasmld.cli.main(["sweep", "--config", path])
print(json.dumps({"codes": codes, "sweeps": sum(s[0] == "cli.main" for s in tracer.spans)}))
"""


def test_traced_sweeps_run(monkeypatch, tmp_path):
    # a traced benchmark run wraps every WRAPPED name, and its observers read
    # the wrapped calls' arguments and results: every workload's sweep must
    # still run through them, here at 2 trials, in a fresh interpreter
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    proc = subprocess.run([sys.executable, "-c", TRACED_SWEEPS, str(PERFBENCH), str(tmp_path)],
                          env=child_env(), cwd=tmp_path, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == {name: 0 for name in workloads.WORKLOADS}, proc.stderr[-2000:]
    assert out["sweeps"] == len(workloads.WORKLOADS)
