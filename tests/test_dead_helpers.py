"""No helper in ``src/gasmld`` outlives its callers.

Every top-level function and class of the package must be referenced in
``src/`` outside its own definition, be exported in ``gasmld.__all__``, or be
wrapped by name by the benchmark's tracer (``perfbench/spans.WRAPPED``), which
looks it up on its module.  A helper that is none of these has no caller: it
should go, or move to ``tests/oracles.py`` if it is a test oracle.

A reference is a name or an attribute with the helper's name, so a method
that shares the name of a top-level function counts for it; imports do not
count.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import gasmld

SRC = Path(gasmld.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _names(node) -> Counter:
    """How often each name and attribute name is used inside ``node``."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def _uncalled(trees: dict, exempt: set) -> list:
    """``module.name`` of every top-level function or class in the parsed
    modules ``trees`` that no other code in them references, unless exempt."""
    used = sum((_names(tree) for tree in trees.values()), Counter())
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and used[node.name] == _names(node)[node.name]
            and node.name not in exempt and f"{module}.{node.name}" not in exempt]


def test_guard_finds_an_uncalled_helper():
    # f calls itself and is called by g; nothing calls g, and h is exempt
    tree = ast.parse("from x import g\ndef f():\n    return f()\ndef g():\n    return f()\n"
                     "class h:\n    pass\n")
    assert _uncalled({"m": tree}, {"m.h"}) == ["m.g"]


def test_every_helper_has_a_caller(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wrapped = set(importlib.import_module("spans").WRAPPED)
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert _uncalled(trees, set(gasmld.__all__) | wrapped) == []
