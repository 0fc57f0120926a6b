"""Write the seed-0 output files of the benchmark workloads.

    python tools/seed_outputs.py OUT_DIR [--workload NAME ...]

Each workload of perfbench/run.py (all of them unless ``--workload`` names
some) runs its neumann-lab command once, at seed 0, from the ``src/`` of
the checkout this file is in, in a fresh interpreter with BLAS and OpenMP
pinned to one thread, as a benchmark operation does.  OUT_DIR/NAME gets the
command's config, its output files and its standard output (``stdout.txt``).
``WORKLOADS``, ``BASE_CONFIG`` and ``THREAD_VARS`` are read from run.py
without running it.  Two checkouts give the same results when

    diff -r OUT_A OUT_B

finds nothing.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"


def run_literals(*names: str) -> list:
    """The literal values assigned to ``names`` at the top of run.py."""
    found = {}
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    found[target.id] = ast.literal_eval(node.value)
    return [found[name] for name in names]


def main(argv: list[str] | None = None) -> int:
    base, workloads, thread_vars = run_literals("BASE_CONFIG", "WORKLOADS", "THREAD_VARS")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--workload", action="append", choices=sorted(workloads),
                        help="run only this workload (repeatable)")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in thread_vars})
    failed = 0
    for name in args.workload or sorted(workloads):
        command, extra = workloads[name]
        out = args.out_dir / name
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(json.dumps({**base, **extra, "seed": 0}))
        with open(out / "stdout.txt", "w") as fh:
            rc = subprocess.call([sys.executable, "-m", "neumann_rigidity.cli", command,
                                  "--config", str(out / "config.json"), "--out", str(out)],
                                 cwd=ROOT, env=env, stdout=fh)
        if rc != 0:
            print(f"{name}: {command} exited {rc}", file=sys.stderr)
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
