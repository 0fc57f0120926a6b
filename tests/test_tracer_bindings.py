"""The benchmark tracer (perfbench/tracing.py) wraps package functions by
module and attribute name; a binding that no longer resolves would make every
traced run fail while the rest of the suite stays green."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _bindings():
    """The literal ``BINDINGS`` tuple, read from the file without running it."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no BINDINGS in {TRACING}")


@pytest.mark.parametrize("site, attr, span", _bindings())
def test_binding_resolves(site, attr, span):
    # the span "<layer>.<function>" names where the wrapped callee is defined
    layer, function = span.split(".", 1)
    bound = getattr(importlib.import_module(f"neumann_rigidity.{site}"), attr)
    assert callable(bound)
    assert bound is getattr(importlib.import_module(f"neumann_rigidity.{layer}"), function)
