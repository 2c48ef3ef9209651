"""The benchmark's hook points exist in the package.

``perfbench/spans.py`` wraps every ``layer.attr`` of its ``WRAPPED`` list by
name and reads the rotation count of ``circuits.grover_power`` from its
third positional argument.  A rename or move that breaks either makes the
traced benchmark fail with an AttributeError or a wrong count.
"""

import importlib
import inspect
from pathlib import Path

from gasmld import circuits

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
