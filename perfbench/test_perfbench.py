"""Tests of the benchmark itself, on tiny configs.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import csv
import importlib
import json
import os
import sys

import pytest

import checks
import run
import tracing
from neumann_rigidity import cli

TINY = {
    "sweep": {"nx": 8, "ny": 8, "eps_grid": [0.08, 1.0], "n_starts": 12},
    "bifurcate": {"nx": 12, "ny": 12, "bracket_lo": 0.10, "bracket_hi": 0.20,
                  "bif_tol": 1e-8},
    "eigen": {"nx": 16, "ny": 16},
}


def run_tiny(command, out_dir):
    cfg = {**run.BASE_CONFIG, **TINY[command], "seed": 0}
    (out_dir / "config.json").write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(out_dir / "config.json"),
                     "--out", str(out_dir)]) == 0
    return cfg


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    done = {}
    for command in TINY:
        out = tmp_path_factory.mktemp(command)
        done[command] = (run_tiny(command, out), out)
    return done


def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def edit_json(path, **changes):
    data = json.loads(path.read_text())
    data.update(changes)
    path.write_text(json.dumps(data))


@pytest.fixture()
def copy_of(outputs, tmp_path):
    def make(command):
        cfg, out = outputs[command]
        for f in out.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        return cfg, tmp_path
    return make


@pytest.mark.parametrize("command", sorted(TINY))
def test_checker_accepts_real_outputs(outputs, command):
    cfg, out = outputs[command]
    assert checks.check_output(command, cfg, out) == []


def test_checker_rejects_relative_gap(copy_of):
    cfg, out = copy_of("bifurcate")
    edit_json(out / "bifurcation.json", relative_gap=1e-3)
    assert any("relative_gap" in p for p in checks.check_output("bifurcate", cfg, out))


def test_checker_rejects_unmerged_upward_branch(copy_of):
    cfg, out = copy_of("bifurcate")

    def unmerge(rows):
        rows[-1]["sup_fluct"] = "0.1"
        return rows

    rewrite_csv(out / "branch.csv", unmerge)
    assert checks.check_output("bifurcate", cfg, out) != []


def test_checker_rejects_nonconstant_state_at_eps_1(copy_of):
    cfg, out = copy_of("sweep")
    summary = json.loads((out / "sweep_summary.json").read_text())
    for row in summary["rows"]:
        if row["epsilon"] == 1.0:
            row["any_nonconstant"] = True
            row["n_distinct"] += 1
    (out / "sweep_summary.json").write_text(json.dumps(summary))

    def add_pattern(rows):
        pattern = dict(rows[-1], classification="nonconstant", mean="0.9", sup_fluct="0.3")
        return rows + [pattern]

    rewrite_csv(out / "diagnostics_summary.csv", add_pattern)
    problems = checks.check_output("sweep", cfg, out)
    assert any("pattern found at eps=1.0" in p for p in problems)
    assert any("exactly the constants" in p for p in problems)


def test_checker_rejects_broken_identity(copy_of):
    cfg, out = copy_of("sweep")

    def break_identity(rows):
        rows[0]["zero_avg_residual"] = "1e-6"
        return rows

    rewrite_csv(out / "diagnostics_summary.csv", break_identity)
    assert any("zero-average" in p for p in checks.check_output("sweep", cfg, out))


def test_checker_rejects_wrong_eigenvalue(copy_of):
    cfg, out = copy_of("eigen")
    eigen = json.loads((out / "eigen.json").read_text())
    edit_json(out / "eigen.json", mu1=1.05 * eigen["mu1"])
    assert checks.check_output("eigen", cfg, out) != []


def test_checker_reports_missing_output(copy_of):
    cfg, out = copy_of("eigen")
    (out / "eigen.json").unlink()
    assert checks.check_output("eigen", cfg, out)[0].startswith("cannot read")


def test_self_time_of_nested_spans():
    S = tracing.Span
    spans = [
        S("cli.main", "cli", 0.0, 10.0),
        S("newton.newton_solve", "newton", 1.0, 4.0, parent=0),
        S("linsolve.solve_projected", "newton", 2.0, 3.0, parent=1),
        S("newton.newton_solve", "newton", 5.0, 9.0, parent=0),
        S("linsolve.solve_projected", "newton", 5.5, 7.0, parent=3),
        S("linsolve.solve_projected", "newton", 6.5, 8.0, parent=3),  # overlaps its sibling
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.5, 1.5])
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["newton.self_s"] == pytest.approx(3.5)
    assert metrics["linsolve.solve.s"] == pytest.approx(4.0)


def test_wrappers_restore_originals():
    def bound():
        return [getattr(importlib.import_module(f"neumann_rigidity.{mod}"), attr)
                for mod, attr, _ in tracing.BINDINGS]

    before = bound()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            assert all(now is not old for now, old in zip(bound(), before))
            1 / 0
    assert all(now is old for now, old in zip(bound(), before))
    assert cli.main is before[0]


def test_traced_counts_match_the_command_output(tmp_path):
    with tracing.Tracer() as tracer:
        run_tiny("sweep", tmp_path)
    metrics = tracing.layer_metrics(tracer.spans)
    distinct, failed, attempted = checks.sweep_census(tmp_path)
    assert metrics["newton.solve.calls"] == attempted == 24
    assert metrics["newton.solve.calls"] - metrics["newton.solve.converged"] == failed
    assert metrics["meshing.calls"] == 2
    assert metrics["linsolve.solve.calls"] > metrics["newton.iters"] > 0
    assert metrics["diagnostics.calls"] == distinct
    assert sum(1 for s in tracer.spans if s.name == "cli.main") == 1


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two cores")
def test_spawn_moves_the_child_round_the_cores(tmp_path):
    watch = ("import os, time\n"
             "seen = set()\n"
             "end = time.time() + 4 * %r\n"
             "while time.time() < end:\n"
             "    seen.add(frozenset(os.sched_getaffinity(0)))\n"
             "print(len([s for s in seen if len(s) == 1]))\n" % run.ROTATE_S)
    rc, usage, elapsed = run.spawn([sys.executable, "-c", watch], tmp_path / "log", 60)
    assert rc == 0 and usage.ru_maxrss > 0
    assert int((tmp_path / "log").read_text()) >= 2


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(monkeypatch, capsys, trace):
    monkeypatch.setitem(run.WORKLOADS, "sweep-tiny", ("sweep", TINY["sweep"]))
    assert run.main(["--workload", "sweep-tiny", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
    record = json.loads(lines[-2])["record"]
    assert record["seed"] == 3 and record["ops"][0]["attempted_starts"] == 24
