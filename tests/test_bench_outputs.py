"""The benchmark's workloads (perfbench/run.py) pass the benchmark's own
output checks (perfbench/checks.py).

A benchmark operation whose output fails those checks counts as failed, so
an output file that breaks them would fail the benchmark while the rest of
the suite stays green.  Both files are read here and left unchanged: the
workload table is parsed without running run.py, and checks.py, which uses
only the standard library, is loaded by path.
"""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

from neumann_rigidity.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _literals(path: Path, *names: str) -> list:
    """The literal values assigned to ``names`` at the top of a module."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    found[target.id] = ast.literal_eval(node.value)
    return [found[name] for name in names]


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE_CONFIG, WORKLOADS = _literals(PERFBENCH / "run.py", "BASE_CONFIG", "WORKLOADS")
checks = _load_checks()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_output_passes_checks(tmp_path, workload):
    command, extra = WORKLOADS[workload]
    cfg = {**BASE_CONFIG, **extra, "seed": 0}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert main([command, "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path)]) == 0
    assert checks.check_output(command, cfg, tmp_path) == []
