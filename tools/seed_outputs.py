"""Write the seed-0 output files of the benchmark workloads and of the
single-state commands.

    python tools/seed_outputs.py OUT_DIR [--workload NAME ...]

Each workload of perfbench/run.py, and the extra sets ``cli-sq20``,
``cli-disk5`` and ``cli-disk7`` (all of them unless ``--workload`` names
some), runs its neumann-lab commands once, at seed 0, from the ``src/`` of the checkout
this file is in, in a fresh interpreter with BLAS and OpenMP pinned to one thread, as a benchmark
operation does.  OUT_DIR/NAME gets the config; each command writes its
output files and its standard output (``stdout.txt``) to its own directory
under it, which for a benchmark workload is OUT_DIR/NAME itself.
``cli-sq20`` runs ``constants``, ``solve`` from ``eig:0.3`` and from
``noise:5``, and ``check`` on the ``noise:5`` solution, at eps 1 on the
20x20 square, with ``m_values`` at both ends of their range and between,
and ``sweep`` over a grid given out of order, whose files list it in
ascending eps.  ``cli-disk5`` runs ``constants``, ``eigen`` and ``solve``
from ``noise:5`` at eps 1 on the unit disk at refinement 5, and
``cli-disk7`` runs ``eigen`` on the refinement-7 unit disk, whose 64 rings
reach ring stitches that the 16 of refinement 5 do not.
Each command runs from inside its output directory, so ``check`` reads
the solution by a relative path and ``check.json`` echoes the same path in
every checkout.  ``WORKLOADS``, ``BASE_CONFIG`` and ``THREAD_VARS`` are
read from run.py without running it.  Two checkouts give the same results
when

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

# the sets of commands outside the benchmark: name -> (config on top of
# BASE_CONFIG, [(output subdirectory, command, its extra arguments)])
CLI_SETS = {
    "cli-sq20": (
        {"nx": 20, "ny": 20, "eps": 1.0, "m_values": [0.0, 2.0, 700.0], "eps_grid": [0.3, 0.12, 1.0]},
        [("constants", "constants", []),
         ("solve-eig", "solve", ["--start", "eig:0.3"]),
         ("solve-noise", "solve", ["--start", "noise:5"]),
         ("check", "check", ["--field", "../solve-noise/solution.field"]),
         ("sweep-unsorted", "sweep", [])],
    ),
    "cli-disk5": (
        {"domain": "disk", "radius": 1.0, "refinement": 5, "eps": 1.0},
        [("constants", "constants", []),
         ("eigen", "eigen", []),
         ("solve-noise", "solve", ["--start", "noise:5"])],
    ),
    "cli-disk7": (
        {"domain": "disk", "radius": 1.0, "refinement": 7},
        [("eigen", "eigen", [])],
    ),
}


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
    # name -> (config, [(output subdirectory, command, its extra arguments)])
    sets = {name: ({**base, **extra}, [("", command, [])])
            for name, (command, extra) in workloads.items()}
    sets.update({name: ({**base, **extra}, commands)
                 for name, (extra, commands) in CLI_SETS.items()})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--workload", action="append", choices=sorted(sets),
                        help="run only this workload (repeatable)")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in thread_vars})
    failed = 0
    for name in args.workload or sorted(sets):
        config, commands = sets[name]
        out = args.out_dir.resolve() / name
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(json.dumps({**config, "seed": 0}))
        for sub, command, extra_args in commands:
            run_dir = out / sub
            run_dir.mkdir(exist_ok=True)
            with open(run_dir / "stdout.txt", "w") as fh:
                rc = subprocess.call([sys.executable, "-m", "neumann_rigidity.cli", command,
                                      "--config", str(out / "config.json"),
                                      "--out", str(run_dir), *extra_args],
                                     cwd=run_dir, env=env, stdout=fh)
            if rc != 0:
                print(f"{name}: {command} exited {rc}", file=sys.stderr)
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
