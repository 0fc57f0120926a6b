"""Benchmark of the neumann-lab commands behind the paper's headline results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each operation runs one command,
``neumann_rigidity.cli.main(argv)`` on a generated config, in a fresh
interpreter with BLAS and OpenMP pinned to one thread that is moved round
the machine's cores while it runs, and checks the files it wrote.  Operations repeat until the next one would end after
``--seconds``; every metric is the median over them.  With ``--trace 1``
each round runs the command once plainly and once with the layer tracer,
and the per-layer metrics come from the traced runs.  The last line of
standard output is the JSON result; the line before it records the
environment and every operation.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5      # timed fresh-interpreter imports per run, after one warm-up
RUN_LIMIT_S = 170.0    # a run must end within 180 s, whatever --seconds says
ROTATE_S = 0.5         # a child moves on to the next core this often
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BASE_CONFIG = {"a": 2.0, "q": 4.0, "domain": "rectangle", "lx": 1.0, "ly": 1.0,
               "threads": 1}

# name -> (neumann-lab command, config on top of BASE_CONFIG); README.md says why
WORKLOADS = {
    "sweep-sq20": ("sweep", {"nx": 20, "ny": 20, "n_starts": 50,
                             "eps_grid": [0.08, 0.12, 0.3, 1.0, 10.0]}),
    "bifurcate-sq64": ("bifurcate", {"nx": 64, "ny": 64, "bracket_lo": 0.10,
                                     "bracket_hi": 0.20, "bif_tol": 1e-8}),
    "eigen-sq128": ("eigen", {"nx": 128, "ny": 128}),
}


@dataclass
class Op:
    """One command run: its cost, its output check and, if traced, its layer metrics."""

    index: int
    traced: bool
    rc: int
    elapsed_s: float                 # seen from here, interpreter start included
    wall_s: float | None = None      # around cli.main, measured in the child
    cpu_s: float | None = None
    peak_rss_mb: float | None = None
    problems: list[str] = field(default_factory=list)
    versions: dict = field(default_factory=dict)
    census: dict = field(default_factory=dict)
    layers: dict | None = None

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def rotate_cores(pid: int, stop: threading.Event) -> None:
    """Move pid round the cores this process may use, one step every ROTATE_S.

    A shared host slows each core it lends at its own times.  A child that
    visits every core in turn runs at their average speed, not at the speed
    of whichever core it happened to start on.  See README.md, Steadiness.
    """
    cores = sorted(os.sched_getaffinity(0))
    step = 0
    while len(cores) > 1 and not stop.wait(ROTATE_S):
        step += 1
        try:
            os.sched_setaffinity(pid, {cores[step % len(cores)]})
        except OSError:  # it has just exited
            return


def spawn(argv: list[str], log: Path, timeout: float) -> tuple[int, object, float]:
    """Run argv to completion; returns (exit code, its rusage, elapsed seconds).

    The rusage comes from wait4 on this child alone: RUSAGE_CHILDREN would
    report the largest peak RSS of every earlier child.  The child is not
    reaped before its core rotation stops, so the rotation never touches a
    reused pid.
    """
    t0 = time.perf_counter()
    with open(log, "w") as fh:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    stop = threading.Event()
    rotation = threading.Thread(target=rotate_cores, args=(proc.pid, stop))
    timer.start()
    rotation.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        stop.set()
        rotation.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted or terminated: leave no child behind
        stop.set()
        rotation.join()
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, time.perf_counter() - t0


def measure_setup(work: Path) -> list[float]:
    """Times for a fresh interpreter to import neumann_rigidity.cli."""
    argv = [sys.executable, "-c", "import neumann_rigidity.cli"]
    times = []
    for i in range(SETUP_SAMPLES + 1):
        rc, _, elapsed = spawn(argv, work / f"setup{i}.log", RUN_LIMIT_S)
        if rc != 0:
            raise SystemExit(f"importing neumann_rigidity.cli failed:\n"
                             f"{(work / f'setup{i}.log').read_text()}")
        times.append(elapsed)
    return times[1:]  # the first import compiles bytecode


def run_op(index: int, command: str, cfg: dict, work: Path, traced: bool,
           timeout: float) -> Op:
    out = work / f"op{index}"
    out.mkdir()
    (out / "config.json").write_text(json.dumps(cfg))
    result, spans = out / "result.json", out / "spans.json"
    argv = [sys.executable, str(HERE / "child.py"), str(result),
            str(spans) if traced else "-",
            command, "--config", str(out / "config.json"), "--out", str(out)]
    rc, usage, elapsed = spawn(argv, out / "child.log", timeout)
    op = Op(index, traced, rc, elapsed, peak_rss_mb=usage.ru_maxrss / 1024.0)
    if rc == 0:
        child = json.loads(result.read_text())
        op.rc, op.wall_s, op.cpu_s = child.pop("rc"), child.pop("wall_s"), child.pop("cpu_s")
        op.versions = child
    if op.rc != 0:
        op.problems = [f"exit code {op.rc}: " + (out / "child.log").read_text()[-2000:]]
        return op
    op.problems = checks.check_output(command, cfg, out)
    if command == "sweep" and not op.problems:
        distinct, failed, attempted = checks.sweep_census(out)
        op.census = {"distinct_states": distinct, "failed_start_frac": failed / attempted,
                     "failed_starts": failed, "attempted_starts": attempted}
    if traced:
        op.layers = tracing.layer_metrics(tracing.load_spans(json.loads(spans.read_text())))
    return op


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def median_of(ops: list[Op], name: str) -> float:
    return statistics.median(getattr(op, name) for op in ops)


def end_to_end(ops: list[Op], setup_s: float) -> dict:
    plain = [op for op in ops if not op.traced and op.wall_s is not None]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": median_of(plain, "wall_s"), "unit": "s"},
        "cpu_s": {"value": median_of(plain, "cpu_s"), "unit": "s"},
        "peak_rss_mb": {"value": median_of(plain, "peak_rss_mb"), "unit": "MB"},
    }


def per_layer(ops: list[Op]) -> dict:
    units = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    traced = [op for op in ops if op.layers is not None]
    values = tracing.median_metrics([op.layers for op in traced])
    census = next((op.census for op in traced if op.census), None)
    values["distinct_states"] = census["distinct_states"] if census else 0
    values["failed_start_frac"] = census["failed_start_frac"] if census else 0.0
    plain = [op.wall_s for op in ops if not op.traced and op.wall_s is not None]
    values["trace.overhead_s"] = (statistics.median(op.wall_s for op in traced)
                                  - statistics.median(plain))
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    begin = time.perf_counter()
    if not (SRC / "neumann_rigidity" / "cli.py").is_file():
        print(f"no neumann_rigidity source under {SRC}", file=sys.stderr)
        return 2
    command, extra = WORKLOADS[args.workload]
    cfg = {**BASE_CONFIG, **extra, "seed": args.seed}

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_samples = measure_setup(work)
        ops: list[Op] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            round_start = time.perf_counter()
            for traced in (False, True)[: 1 + args.trace]:
                left = RUN_LIMIT_S - (time.perf_counter() - begin)
                ops.append(run_op(len(ops), command, cfg, work, traced, left))
            now = time.perf_counter()
            next_end = now + (now - round_start)
            if any(op.wall_s is None for op in ops) or next_end > deadline \
                    or next_end - begin > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(), "commit": git_commit(),
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "versions": next((op.versions for op in ops if op.versions), {}),
        "setup_samples_s": setup_samples,
        "ops": [{"index": op.index, "traced": op.traced, "rc": op.rc, "ok": op.ok,
                 "wall_s": op.wall_s, "cpu_s": op.cpu_s, "peak_rss_mb": op.peak_rss_mb,
                 "elapsed_s": op.elapsed_s, "problems": op.problems, **op.census}
                for op in ops],
    }
    print(json.dumps({"record": record}))
    for op in ops:
        for problem in op.problems:
            print(f"operation {op.index} failed its check: {problem}", file=sys.stderr)
    if all(op.wall_s is None for op in ops if not op.traced) \
            or (args.trace and all(op.layers is None for op in ops)):
        print("no operation produced a timing", file=sys.stderr)
        return 1
    failed = sum(1 for op in ops if not op.ok)
    metrics = per_layer(ops) if args.trace else end_to_end(ops, statistics.median(setup_samples))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # turn termination into SystemExit, so that spawn() stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
