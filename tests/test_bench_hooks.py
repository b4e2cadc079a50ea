"""The benchmark tracer's hook table against the package it traces."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
