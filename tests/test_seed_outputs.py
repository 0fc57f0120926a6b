"""The seed-output writer in tools/seed_outputs.py."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "seed_outputs.py"


def test_writes_eigen_workload_outputs(tmp_path):
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path), "--workload", "eigen-sq128"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eigen-sq128"]
    out = tmp_path / "eigen-sq128"
    assert (out / "eigen.json").is_file() and (out / "eigen_phi1.field").is_file()


def test_writes_cli_set_outputs(tmp_path):
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path), "--workload", "cli-sq20"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    out = tmp_path / "cli-sq20"
    assert sorted(p.name for p in out.iterdir()) == [
        "check", "config.json", "constants", "solve-eig", "solve-noise", "sweep-unsorted"]
    assert (out / "constants" / "constants.json").is_file()
    for solve in ("solve-eig", "solve-noise"):
        assert (out / solve / "solution.field").is_file()
    check = json.loads((out / "check" / "check.json").read_text())
    # a relative path, so the file is the same in every checkout
    assert check["field"] == "../solve-noise/solution.field" and check["epsilon"] == 1.0
    assert (out / "check" / "stdout.txt").read_text().strip() == \
        (out / "check" / "check.json").read_text().strip()


def test_writes_pattern_set_outputs(tmp_path):
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path), "--workload", "cli-pattern"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    out = tmp_path / "cli-pattern"
    assert sorted(p.name for p in out.iterdir()) == ["check", "config.json", "solve-eig"]
    solution = json.loads((out / "solve-eig" / "solution.json").read_text())
    check = json.loads((out / "check" / "check.json").read_text())
    # the start lands on a patterned state, so its report holds a real
    # spectral-gap ratio and energy pair, which check reproduces
    assert solution["classification"] == "nonconstant" and solution["sup_fluct"] > 0.5
    assert check["field"] == "../solve-eig/solution.field"
    assert check["poincare_ratio"] > 1.0 and check["energy_lhs"] > 0.0
    for key, value in solution["diagnostics"].items():
        assert check[key] == value, key


def test_writes_disk_set_outputs(tmp_path):
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path), "--workload", "cli-disk5"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    out = tmp_path / "cli-disk5"
    assert sorted(p.name for p in out.iterdir()) == [
        "config.json", "constants", "eigen", "solve-noise"]
    config = json.loads((out / "config.json").read_text())
    assert (config["domain"], config["radius"], config["refinement"]) == ("disk", 1.0, 5)
    assert (out / "eigen" / "eigen.json").is_file()
    assert (out / "solve-noise" / "solution.field").is_file()


def test_writes_fine_disk_set_outputs(tmp_path):
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path), "--workload", "cli-disk7"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    out = tmp_path / "cli-disk7"
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "eigen"]
    config = json.loads((out / "config.json").read_text())
    assert (config["domain"], config["radius"], config["refinement"]) == ("disk", 1.0, 7)
    assert json.loads((out / "eigen" / "eigen.json").read_text())["n_nodes"] == 12_481


@pytest.mark.parametrize("name, domain", [("cli-tiny", "rectangle"), ("cli-huge", "disk")])
def test_writes_scale_set_outputs(tmp_path, name, domain):
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path), "--workload", name],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    out = tmp_path / name
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "constants", "eigen"]
    config = json.loads((out / "config.json").read_text())
    assert config["domain"] == domain
    side = config["lx"] if domain == "rectangle" else config["radius"]
    constants = json.loads((out / "constants" / "constants.json").read_text())
    eigen = json.loads((out / "eigen" / "eigen.json").read_text())
    assert constants["mu1"] == eigen["mu1"]
    # mu1 * side**2: the unit square's pi**2, the unit disk's j'11**2, as discretized
    target = np.pi**2 if domain == "rectangle" else 1.8411837813406593**2
    assert eigen["mu1"] * side**2 == pytest.approx(target, rel=0.02)
    assert eigen["degenerate"] == (domain == "disk")
