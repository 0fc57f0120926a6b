"""The seed-output writer in tools/seed_outputs.py."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "seed_outputs.py"


def test_writes_eigen_workload_outputs(tmp_path):
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path), "--workload", "eigen-sq128"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eigen-sq128"]
    out = tmp_path / "eigen-sq128"
    assert (out / "eigen.json").is_file() and (out / "eigen_phi1.field").is_file()
