"""Every demo script, and the README's library quick start, runs to
completion against the package source, the README's config example is a
valid config, and its command lines parse.

Each runs in its own interpreter with ``src`` on the path and, like the
rest of the suite, with ``RuntimeWarning`` turned into an error, in a
temporary working directory, so a demo's output files (demo 04 writes
``branch.csv``) land outside the checkout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from neumann_rigidity.cli import ExperimentConfig, build_parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_python(cwd, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    proc = run_python(tmp_path, str(script))
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python(tmp_path, "-c", code)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "constant 1.2564" in proc.stdout


def test_readme_config_example_parses():
    # a key the config no longer has would exit 2 for a reader who copies it
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = ExperimentConfig.from_dict(json.loads(example))
    assert cfg.domain == "rectangle"


def test_readme_command_lines_parse():
    # a flag or command the parser no longer has would exit 2 for a reader
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    lines = [words for words in lines if words]
    assert len(lines) == 7 and all(words[0] == "neumann-lab" for words in lines)
    for words in lines:
        args = build_parser().parse_args(words[1:])
        assert args.config == "cfg.json"
