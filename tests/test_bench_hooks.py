"""The benchmark tracer's hook table against the package it traces."""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"
WORKLOADS = ROOT / "bench" / "workloads.py"


def hook_table():
    """``HOOKS`` of ``bench/spans.py``, read from its source without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "HOOKS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no HOOKS")


@pytest.mark.skipif(not SPANS.exists(), reason="benchmark sources not in this checkout")
def test_every_hook_resolves():
    # a renamed or deleted target would leave its per-layer metric silently empty
    missing = []
    for name, module_name, attr in hook_table():
        owner = importlib.import_module(module_name)
        try:
            for part in attr.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{name}: {module_name}.{attr}")
    assert not missing


@pytest.mark.skipif(not WORKLOADS.exists(), reason="benchmark sources not in this checkout")
def test_workloads_import(monkeypatch):
    # bench/run.py imports workloads.py as the top-level module ``workloads``; a package name it imports that has
    # moved would otherwise fail only a benchmark run
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert {w["name"] for w in declared} <= set(workloads.WORKLOADS)
