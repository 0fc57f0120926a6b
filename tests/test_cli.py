"""Command-line harness: config validation, the six verbs, exit codes,
output files, and determinism."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import neumann_rigidity
from neumann_rigidity import (assemble, build_disk_mesh, build_rectangle_mesh, cli, find_xi,
                              first_eigenpair, linsolve, meshing, write_field, write_mesh)
from neumann_rigidity.cli import load_config, main
from neumann_rigidity.errors import ConfigError, NumericalError

XI = find_xi(2.0)


def _mesh_text(mesh) -> str:
    """A mesh file's text, as write_mesh writes it."""
    return (f"nodes {mesh.n_nodes}\n"
            + "".join(f"{x!r} {y!r}\n" for x, y in mesh.nodes.tolist())
            + f"triangles {mesh.n_triangles}\n"
            + "".join(f"{i} {j} {k}\n" for i, j, k in mesh.triangles.tolist()))


def _reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def _count_calls(monkeypatch, module, calls: dict) -> None:
    """Replace each function that ``calls`` names on ``module`` by a wrapper
    that counts its calls in ``calls``."""
    def counted(name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(module, name, counted(name))


def make_config(tmp_path, **overrides):
    data = {
        "a": 2.0, "q": 4.0,
        "domain": "rectangle", "lx": 1.0, "ly": 1.0, "nx": 20, "ny": 20,
        "eps": 1.0, "eps_grid": [0.5, 1.0], "n_starts": 10, "seed": 0,
        "bracket_lo": 0.10, "bracket_hi": 0.20, "bif_tol": 1e-6,
        "m_values": [2.0],
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestConfig:
    def test_missing_required(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"a": 2.0, "q": 4.0}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path = make_config(tmp_path, typo_key=1)
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("bad", [
        {"a": 1.0}, {"q": 2.0}, {"nx": 1}, {"eps": -0.5},
        {"eps_grid": []}, {"n_starts": 0}, {"domain": "pentagon"},
        {"bif_tol": 0.0}, {"amplitude": 0.0},
        {"nx": "4"}, {"a": "2"}, {"eps_grid": [0.1, "x"]}, {"n_starts": 2.5},
        {"bracket_lo": 0.2, "bracket_hi": 0.1},
        {"eps": np.inf}, {"eps_grid": [np.nan, 1.0]}, {"a": np.inf}, {"q": np.inf},
        {"seed": -1}, {"eps_grid": [0.3, 0.3]}, {"newton_tol": 0.0}, {"newton_tol": -1.0},
        {"m_values": [-1.0]}, {"m_values": [1e308]}, {"m_values": [2.0, 700.5]},
        {"domain": "disk", "radius": 1.0, "refinement": 11}, {"out_dir": "out"},
        {"nx": 887, "ny": 888},
    ])
    def test_constraints(self, tmp_path, bad):
        path = make_config(tmp_path, **bad)
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("bad, command", [
        ({"eps": np.inf}, "solve"), ({"eps_grid": [np.nan, 1.0]}, "sweep"),
        ({"a": np.inf}, "solve"), ({"q": np.inf}, "solve"),
    ], ids=["eps", "eps_grid", "a", "q"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, bad, command):
        # JSON's Infinity and NaN parse as floats that pass every "> 0" test
        cfg = make_config(tmp_path, **bad)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + (["--start", "const:0.5"] if command == "solve" else [])) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, build", [
        ({"nx": 1}, lambda: build_rectangle_mesh(1, 20, 1.0, 1.0)),
        ({"nx": 887, "ny": 888}, lambda: build_rectangle_mesh(887, 888, 1.0, 1.0)),
        ({"ly": 0.0}, lambda: build_rectangle_mesh(20, 20, 1.0, 0.0)),
        ({"domain": "disk", "radius": 1.0, "refinement": 0}, lambda: build_disk_mesh(0, 1.0)),
        ({"domain": "disk", "radius": -1.0, "refinement": 2}, lambda: build_disk_mesh(2, -1.0)),
    ], ids=["nx", "node_budget", "side", "refinement", "radius"])
    def test_mesh_arguments_checked_by_the_builder_rule(self, tmp_path, bad, build):
        # the config refuses exactly what the mesh builder refuses, in its words
        with pytest.raises(ValueError) as built:
            build()
        with pytest.raises(ConfigError) as loaded:
            load_config(make_config(tmp_path, **bad))
        assert str(loaded.value) == str(built.value)


class TestExitCodes:
    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(mesh):
            raise MemoryError("Unable to allocate 16.8 GiB for an array")

        monkeypatch.setattr(cli, "assemble", exhausted)
        assert main(["eigen", "--config", str(make_config(tmp_path))]) == 3
        assert capsys.readouterr().err == (
            "out of memory: Unable to allocate 16.8 GiB for an array\n")

    @pytest.mark.parametrize("error", NumericalError.__subclasses__(),
                             ids=lambda cls: cls.__name__)
    def test_numerical_errors_exit_3(self, tmp_path, capsys, monkeypatch, error):
        def failing_build(cfg):
            raise error("solver gave up")

        monkeypatch.setattr(cli, "build_operator", failing_build)
        assert main(["eigen", "--config", str(make_config(tmp_path))]) == 3
        assert capsys.readouterr().err == "numerical failure: solver gave up\n"

    @pytest.mark.parametrize("command, key", [
        ("solve", "eps"), ("sweep", "eps_grid"),
        ("bifurcate", "bracket_lo"), ("bifurcate", "bracket_hi"),
    ])
    def test_missing_key_exits_2_before_meshing(self, tmp_path, capsys, monkeypatch,
                                                command, key):
        def no_build(cfg):
            pytest.fail("the mesh was built for a config that lacks a needed key")

        monkeypatch.setattr(cli, "build_operator", no_build)
        cfg = make_config(tmp_path)
        data = json.loads(cfg.read_text())
        del data[key]
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        assert main(argv + (["--start", "const:xi"] if command == "solve" else [])) == 2
        assert f"needs {key}" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("overrides, message", [
        ({"lx": 1e-170, "ly": 1e-170, "nx": 4, "ny": 4},
         "triangulation contains inverted or flat triangles"),
        ({"lx": 1e200, "ly": 1e200, "nx": 4, "ny": 4},
         "triangle areas overflow: node coordinates are too large"),
        ({"lx": 1e300, "ly": 1e300, "nx": 8, "ny": 8},
         "triangle areas overflow: node coordinates are too large"),
        ({"lx": 1.2e-161, "ly": 1.2e-161, "nx": 4, "ny": 4},
         "triangulation contains inverted or flat triangles"),
        ({"lx": 1.5e-161, "ly": 1.5e-161, "nx": 4, "ny": 4},
         "triangulation contains inverted or flat triangles"),
        ({"lx": 3e-160, "ly": 3e-160, "nx": 4, "ny": 4},
         "triangulation contains inverted or flat triangles"),
        ({"domain": "disk", "radius": 1e-200, "refinement": 2},
         "triangulation contains inverted or flat triangles"),
        ({"domain": "disk", "radius": 1e-158, "refinement": 3},
         "triangulation contains inverted or flat triangles"),
        ({"domain": "disk", "radius": 1e300, "refinement": 2},
         "triangle areas overflow: node coordinates are too large"),
        ({"lx": 2.5e154, "ly": 2.5e154, "nx": 2, "ny": 2},
         "triangle areas overflow: node coordinates are too large"),
    ], ids=["rectangle_flat", "rectangle_overflow", "rectangle_overflow_8x8",
            "rectangle_mass_underflow", "rectangle_subnormal_area_1.5e-161",
            "rectangle_subnormal_area_3e-160", "disk_flat", "disk_subnormal_area",
            "disk_overflow", "rectangle_diameter_overflow"])
    def test_config_mesh_failing_its_checks_exits_2(self, tmp_path, capsys, overrides, message):
        # the config's numbers made the mesh and no file was read: the mesh
        # checks' message, as a configuration error, from every command, and
        # no output directory is made
        cfg = make_config(tmp_path, **overrides)
        out = tmp_path / "out"
        for command, (_, _, _, option) in cli.COMMANDS.items():
            argv = [command, "--config", str(cfg), "--out", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv + ([option[0], "x"] if option else [])) == 2, command
            assert capsys.readouterr().err == f"configuration error: {message}\n"
            assert not out.exists()

    def test_mesh_file_with_flat_triangle_exits_4(self, tmp_path, capsys):
        mesh_path = tmp_path / "flat.mesh"
        mesh_path.write_text("nodes 3\n0 0\n1 0\n2 0\ntriangles 1\n0 1 2\n")
        cfg = make_config(tmp_path, domain="mesh_file", mesh_path=str(mesh_path))
        out = tmp_path / "out"
        assert main(["eigen", "--config", str(cfg), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "i/o error: triangulation contains inverted or flat triangles\n")
        assert not out.exists()


class TestParser:
    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_verb_takes_exactly_its_table_option(self, name):
        parser = cli.build_parser()
        option = cli.COMMANDS[name][3]
        own = [option[0]] if option else []
        assert own == {"solve": ["--start"], "check": ["--field"]}.get(name, [])
        argv = [name, "--config", "c.json"] + [arg for flag in own for arg in (flag, "x")]
        args = parser.parse_args(argv)
        assert all(getattr(args, flag[2:]) == "x" for flag in own)
        refused = [argv + [flag, "x"] for flag in ("--start", "--field") if flag not in own]
        if own:  # a verb's own option is required
            refused.append(argv[:3])
        for bad in refused:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(bad)
            assert exc.value.code == 2


class TestConstantsCommand:
    def test_json_payload(self, tmp_path, capsys):
        cfg = make_config(tmp_path)
        out = tmp_path / "out"
        assert main(["constants", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "constants.json").read_text())
        assert payload["xi_a"] == pytest.approx(XI, abs=1e-10)
        assert payload["c0"] == pytest.approx(2 * np.log(2) - 1, abs=1e-12)
        assert payload["eps0_of_q"] == pytest.approx(4 * payload["c1"] / np.pi, abs=1e-12)
        assert payload["eps_star_linear"] == pytest.approx(0.153285, rel=0.01)
        assert payload["threshold_of_m"]["2.0"] == pytest.approx(
            (np.exp(2) - 2) / payload["mu1"], rel=1e-10)
        assert set(payload) == {
            "a", "q", "area", "diameter", "xi_a", "c0", "c1", "eps0_of_q", "c2_bound",
            "mu1", "mu1_degenerate", "eps_star_linear", "lipschitz_k_of_m", "threshold_of_m"}

    def test_m_values_range_ends(self, tmp_path):
        cfg = make_config(tmp_path, nx=4, ny=4, m_values=[0.0, 700.0])
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["constants", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "constants.json").read_text(), parse_constant=_reject)
        assert payload["lipschitz_k_of_m"]["0.0"] == pytest.approx(1.0)  # a - 1
        assert 0.0 < payload["threshold_of_m"]["0.0"] < payload["threshold_of_m"]["700.0"]

    def test_bad_a_exits_2(self, tmp_path, capsys):
        cfg = make_config(tmp_path, a=1.0)
        assert main(["constants", "--config", str(cfg)]) == 2
        assert "a must exceed 1" in capsys.readouterr().err

    def test_large_a(self, tmp_path):
        cfg = make_config(tmp_path, a=1e7)
        out = tmp_path / "out"
        assert main(["constants", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "constants.json").read_text())
        assert np.isfinite(payload["xi_a"]) and payload["xi_a"] > np.log(1e7)

    def test_missing_mesh_file_exits_4(self, tmp_path):
        cfg = make_config(tmp_path, domain="mesh_file", mesh_path=str(tmp_path / "no.mesh"))
        assert main(["constants", "--config", str(cfg)]) == 4

    def test_mesh_file_domain(self, tmp_path):
        mesh_path = tmp_path / "disk.mesh"
        write_mesh(mesh_path, build_disk_mesh(3, 1.0))
        cfg = make_config(tmp_path, domain="mesh_file", mesh_path=str(mesh_path))
        assert main(["constants", "--config", str(cfg)]) == 0


class TestEigenCommand:
    def test_writes_field(self, tmp_path):
        cfg = make_config(tmp_path)
        out = tmp_path / "out"
        assert main(["eigen", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "eigen.json").read_text())
        assert payload["mu1"] == pytest.approx(np.pi**2, rel=0.01)
        assert (out / "eigen_phi1.field").exists()

    @pytest.mark.parametrize("text", [
        "nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 3\n",
        "nodes 3\n0 0\n1 0\n0 1\ntriangles 0\n",
        "nodes 6\n0 0\n1 0\n0 1\n2 0\n3 0\n2 1\ntriangles 2\n0 1 2\n3 4 5\n",
        "nodes 3\n0 0\n1 0\nnan 1\ntriangles 1\n0 1 2\n",
        "nodes 3\n0 0\n1 0\ninf 1\ntriangles 1\n0 1 2\n",
        "nodes 3\n0 0\n1e200 0\n0 1e200\ntriangles 1\n0 1 2\n",
        _mesh_text(build_rectangle_mesh(4, 4, 1.0, 1.0)) + "triangles 2\n0 1 5\n1 6 5\nstray\n",
        "nodes 3\n0 0\n1 0\n0 1\ntriangles 2\n0 1 2\n0 1 2\n",
        "nodes 3\n0 0\n1e-160 0\n0 1e-160\ntriangles 1\n0 1 2\n",
        "nodes 3\n0 0\n1000 0\n0 1.4e-310\ntriangles 1\n0 1 2\n",
    ], ids=["index_ge_n", "zero_triangles", "disconnected", "nan_node", "inf_node",
            "overflowing_area", "trailing_content", "repeated_triangle", "subnormal_area",
            "needle"])
    def test_bad_mesh_file_exits_4(self, tmp_path, capsys, text):
        mesh_path = tmp_path / "bad.mesh"
        mesh_path.write_text(text)
        cfg = make_config(tmp_path, domain="mesh_file", mesh_path=str(mesh_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eigen", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["constants", "eigen"])
    def test_huge_square_scales_mu1(self, tmp_path, capsys, command):
        # areas near 1e298: the masses enter the Poisson solves scaled by a
        # power of two, so mu1 * side**2 is the unit square's mu1
        unit = first_eigenpair(assemble(build_rectangle_mesh(8, 8, 1.0, 1.0))).mu1
        cfg = make_config(tmp_path, lx=1e150, ly=1e150, nx=8, ny=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=_reject)
        assert payload["mu1"] * 1e150**2 == pytest.approx(unit, rel=1e-12)

    @pytest.mark.parametrize("domain", ["rectangle", "disk", "mesh_file"])
    def test_one_triangulation_check_per_command(self, tmp_path, monkeypatch, domain):
        mesh_path = tmp_path / "disk.mesh"
        write_mesh(mesh_path, build_disk_mesh(3, 1.0))
        overrides = {
            "rectangle": {"nx": 8, "ny": 8},
            "disk": {"domain": "disk", "radius": 1.0, "refinement": 3},
            "mesh_file": {"domain": "mesh_file", "mesh_path": str(mesh_path)},
        }[domain]
        calls = {"_edge_census": 0, "connected_components": 0}
        _count_calls(monkeypatch, meshing, calls)
        assert main(["eigen", "--config", str(make_config(tmp_path, **overrides))]) == 0
        assert calls == {"_edge_census": 1, "connected_components": 1}

    def test_mesh_layer_called_through_cli_names(self, tmp_path, monkeypatch):
        # the benchmark tracer wraps cli.build_rectangle_mesh and cli.assemble
        # by attribute; a builder held anywhere else would escape it
        calls = {"build_rectangle_mesh": 0, "assemble": 0}
        _count_calls(monkeypatch, cli, calls)
        assert main(["eigen", "--config", str(make_config(tmp_path, nx=4, ny=4))]) == 0
        assert calls == {"build_rectangle_mesh": 1, "assemble": 1}

    def test_wrongly_typed_value_exits_2(self, tmp_path, capsys):
        cfg = make_config(tmp_path, nx="4")
        assert main(["eigen", "--config", str(cfg)]) == 2
        assert "wrong type" in capsys.readouterr().err


class TestSolveCommand:
    def test_constant_start(self, tmp_path):
        cfg = make_config(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out),
                     "--start", "const:0"]) == 0
        payload = json.loads((out / "solution.json").read_text())
        assert payload["classification"] == "constant"
        assert abs(payload["mean"]) < 1e-8
        assert "diagnostics" in payload
        assert set(payload) == {"epsilon", "residual_norm", "newton_iters", "factorizations",
                                "classification", "mean", "sup_fluct", "diagnostics", "start"}

    def test_xi_start(self, tmp_path):
        cfg = make_config(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out),
                     "--start", "const:xi"]) == 0
        payload = json.loads((out / "solution.json").read_text())
        assert payload["mean"] == pytest.approx(XI, abs=1e-8)

    def test_eig_start_below_bifurcation(self, tmp_path):
        cfg = make_config(tmp_path, eps=0.14)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out),
                     "--start", "eig:0.3"]) == 0
        payload = json.loads((out / "solution.json").read_text())
        assert payload["classification"] == "nonconstant"
        assert payload["sup_fluct"] > 0.01

    def test_bad_start_spec(self, tmp_path):
        cfg = make_config(tmp_path)
        assert main(["solve", "--config", str(cfg), "--start", "wobble:1"]) == 2

    def test_negative_noise_seed_exits_2(self, tmp_path, capsys):
        cfg = make_config(tmp_path)
        assert main(["solve", "--config", str(cfg), "--start", "noise:-3"]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["const:inf", "const:nan", "eig:-inf", "eig:nan"])
    def test_non_finite_start_exits_2(self, tmp_path, capsys, spec):
        cfg = make_config(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", str(cfg), "--start", spec]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_singular_start_exits_3(self, tmp_path):
        cfg = make_config(tmp_path)
        assert main(["solve", "--config", str(cfg), "--start", "const:log_a"]) == 3

    def test_no_convergence_reports_one_line(self, tmp_path, capsys):
        # a start of 1e300 has an infinite residual norm that no damped
        # step reduces, so Newton refuses it before any step
        cfg = make_config(tmp_path)
        assert main(["solve", "--config", str(cfg), "--start", "const:1e300"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numerical failure: start residual inf is not finite")

    @pytest.mark.parametrize("spec, eps", [
        ("const:1e308", 1.0), ("const:-1e308", 1.0), ("eig:1e308", 1.0),
        ("noise:5", 1e308), ("const:0.5", 1e308),
    ], ids=["const_huge", "const_huge_negative", "eig_huge", "eps_huge_noise",
            "eps_huge_const"])
    def test_overflow_exits_3_without_warning(self, tmp_path, capsys, spec, eps):
        # the reaction, eps*A*u or the Jacobian fill overflows; Newton
        # refuses the start or the step, and no RuntimeWarning leaks
        cfg = make_config(tmp_path, nx=8, ny=8, eps=eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", str(cfg), "--start", spec]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure:")
        if (spec, eps) == ("const:0.5", 1e308):  # the band fill eps*A overflows
            assert "overflow" in err[0] and "singular" not in err[0]


class TestSweepCommand:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = make_config(tmp_path, eps_grid=[0.5, 1.0], n_starts=8, nx=16, ny=16)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
        summary = json.loads((out1 / "sweep_summary.json").read_text())
        assert summary["eps_hat"] == 0.5
        assert summary["eps_hat_uncertainty"] is None  # no pattern below the grid's bottom
        assert summary["m_emp"] == pytest.approx(XI, rel=1e-6)
        runs = (out1 / "runs.csv").read_text().splitlines()
        assert runs[0] == "epsilon,start_id,converged,classification,mean,sup_fluct,residual_norm,iters"
        assert len(runs) == 1 + 2 * 8
        assert (out1 / "diagnostics_summary.csv").exists()

    def test_worker_processes_match_serial(self, tmp_path):
        out1, out2 = tmp_path / "serial", tmp_path / "workers"
        for threads, out in ((1, out1), (2, out2)):
            cfg = make_config(tmp_path, eps_grid=[0.08, 1.0], n_starts=6, nx=8, ny=8,
                              threads=threads)
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("runs.csv", "sweep_summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        # the grid yields both kinds of state; a constant one has sup_fluct 0.0 exactly
        for name in ("runs.csv", "diagnostics_summary.csv"):
            rows = list(csv.DictReader((out1 / name).read_text().splitlines()))
            kinds = [r["classification"] for r in rows]
            assert "constant" in kinds and "nonconstant" in kinds
            for r in rows:
                if r["classification"] == "constant":
                    assert float(r["sup_fluct"]) == 0.0
                elif r["classification"] == "nonconstant":
                    assert float(r["sup_fluct"]) > 0.0

    def test_uncertainty_is_gap_below_eps_hat(self, tmp_path):
        # a pattern at 0.12 and none at 0.3 bracket the threshold in (0.12, 0.3]
        cfg = make_config(tmp_path, eps_grid=[0.12, 0.3], n_starts=50)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert [r["any_nonconstant"] for r in summary["rows"]] == [True, False]
        assert summary["eps_hat"] == 0.3
        assert summary["eps_hat_uncertainty"] == pytest.approx(0.18)

    def test_rows_in_ascending_eps(self, tmp_path):
        cfg = make_config(tmp_path, eps_grid=[1.0, 0.5], n_starts=4, nx=8, ny=8)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert [r["epsilon"] for r in summary["rows"]] == [0.5, 1.0]
        for name in ("sweep.csv", "runs.csv"):
            rows = list(csv.DictReader((out / name).read_text().splitlines()))
            eps = [float(r["epsilon"]) for r in rows]
            assert eps == sorted(eps) and set(eps) == {0.5, 1.0}

    def test_needs_grid(self, tmp_path):
        cfg = make_config(tmp_path, eps_grid=None)
        data = json.loads(cfg.read_text())
        data.pop("eps_grid", None)
        cfg.write_text(json.dumps(data))
        assert main(["sweep", "--config", str(cfg)]) == 2


class TestBifurcateCommand:
    def test_report_files(self, tmp_path):
        cfg = make_config(tmp_path, bif_tol=1e-7)
        out = tmp_path / "out"
        assert main(["bifurcate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "bifurcation.json").read_text())
        assert payload["relative_gap"] <= 1e-4
        assert payload["eps_star_detected"] == pytest.approx(0.153285, rel=0.02)
        assert set(payload) == {
            "eps_star_detected", "eps_star_predicted", "relative_gap", "mu1", "mu1_degenerate",
            "switch_amplitude", "switch_direction", "n_branch_points", "n_upward_points"}
        branch = (out / "branch.csv").read_text().splitlines()
        assert branch[0].startswith("direction,epsilon,mean,sup_fluct")
        assert len(branch) > 3
        assert (out / "switch_eigenvector.field").exists()

    def test_bad_bracket_exits_3(self, tmp_path):
        cfg = make_config(tmp_path, bracket_lo=0.5, bracket_hi=1.0)
        assert main(["bifurcate", "--config", str(cfg)]) == 3

    def test_missing_bracket_exits_2(self, tmp_path):
        cfg = make_config(tmp_path)
        data = json.loads(cfg.read_text())
        del data["bracket_lo"]
        cfg.write_text(json.dumps(data))
        assert main(["bifurcate", "--config", str(cfg)]) == 2

    def test_arpack_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def failing_eigsh(*args, **kwargs):
            raise linsolve.ArpackError(-9)

        monkeypatch.setattr(linsolve, "eigsh", failing_eigsh)
        cfg = make_config(tmp_path, nx=8, ny=8)
        assert main(["bifurcate", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure: shift-invert Lanczos failed")

    def test_huge_bracket_names_round_off(self, tmp_path, capsys):
        # at eps = 1e50 or 1e300 the unit shift margin of the stability
        # pencil is far below the round-off of eps*A, so the bound is not
        # what failed
        for bracket_hi in (1e50, 1e300):
            cfg = make_config(tmp_path, nx=8, ny=8, bracket_lo=0.1, bracket_hi=bracket_hi)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["bifurcate", "--config", str(cfg)]) == 3
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "round-off" in err[0], bracket_hi


class TestCheckCommand:
    def test_constant_field_all_pass(self, tmp_path):
        cfg = make_config(tmp_path)
        field = tmp_path / "u.field"
        write_field(field, np.zeros(21 * 21), epsilon=1.0, a=2.0)
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out),
                     "--field", str(field)]) == 0
        payload = json.loads((out / "check.json").read_text())
        flags = {k: v for k, v in payload.items() if isinstance(v, bool)}
        assert flags == dict.fromkeys(
            ["zero_avg_ok", "l1_ok", "mean_in_bounds", "energy_ok", "poincare_ok",
             "representation_ok"], True)
        assert payload["zero_avg_residual"] <= 1e-12
        assert set(payload) == {
            "field", "epsilon", "a", "zero_avg_residual", "zero_avg_ok", "l1_norm_f", "l1_bound",
            "l1_ok", "mean_u", "mean_in_bounds", "exp_integral_q", "energy_lhs", "energy_rhs",
            "energy_ok", "poincare_ratio", "poincare_ok", "representation_error",
            "representation_ok", "sup_norm"}

    def test_stored_solution_passes(self, tmp_path):
        cfg = make_config(tmp_path, eps=0.14)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out),
                     "--start", "eig:0.3"]) == 0
        assert main(["check", "--config", str(cfg), "--out", str(out),
                     "--field", str(out / "solution.field")]) == 0
        payload = json.loads((out / "check.json").read_text())
        assert payload["representation_error"] <= 1e-6
        assert payload["l1_norm_f"] <= payload["l1_bound"]

    @pytest.mark.parametrize("offset", [-1e10, 1e20])
    def test_huge_constant_offset(self, tmp_path, offset):
        # the round-off of the mean is of order ulp(offset), far above the
        # fluctuation; the 1e20 field also saturates the reaction
        cfg = make_config(tmp_path)
        field = tmp_path / "u.field"
        noise = np.random.default_rng(0).standard_normal(21 * 21)
        write_field(field, offset + noise, epsilon=1.0, a=2.0)
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out),
                     "--field", str(field)]) == 0
        payload = json.loads((out / "check.json").read_text())
        assert payload["poincare_ok"]
        assert not payload["mean_in_bounds"]

    def test_infinite_value_written_as_null(self, tmp_path, capsys):
        # e^(q|u - mean|) overflows at one node of 200; at 1e200 the quadratic
        # forms of the energy and spectral-gap checks overflow too.  Strict
        # JSON has no Infinity, and no overflow warning leaks.
        cfg = make_config(tmp_path, nx=4, ny=4)
        for spike in (200.0, 1e200):
            field = tmp_path / "u.field"
            values = np.zeros(25)
            values[12] = spike
            write_field(field, values, epsilon=1.0, a=2.0)
            out = tmp_path / f"out{spike:g}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["check", "--config", str(cfg), "--out", str(out),
                             "--field", str(field)]) == 0
            payload = json.loads((out / "check.json").read_text(), parse_constant=_reject)
            assert payload["exp_integral_q"] is None
            assert payload["sup_norm"] == spike
            assert json.loads(capsys.readouterr().out, parse_constant=_reject) == payload
        assert payload["energy_lhs"] is None and not payload["energy_ok"]
        assert not payload["poincare_ok"]

    def test_overflowing_field_exits_3_without_warning(self, tmp_path, capsys):
        # f(u) overflows to inf and -inf, so the zero-average sum is NaN and
        # the representation solve meets non-finite values; no warning leaks
        cfg = make_config(tmp_path, nx=8, ny=8)
        field = tmp_path / "u.field"
        write_field(field, np.where(np.arange(81) % 2, 1e308, -1e308), epsilon=1.0, a=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--config", str(cfg), "--field", str(field)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["numerical failure: linear solve produced non-finite values"]

    def test_field_with_bad_a_exits_4(self, tmp_path, capsys):
        cfg = make_config(tmp_path)
        field = tmp_path / "u.field"
        write_field(field, np.zeros(21 * 21), epsilon=1.0, a=1.0)
        assert main(["check", "--config", str(cfg), "--field", str(field)]) == 4
        assert "a must exceed 1" in capsys.readouterr().err

    def test_field_with_nan_epsilon_exits_4(self, tmp_path, capsys):
        cfg = make_config(tmp_path)
        field = tmp_path / "u.field"
        write_field(field, np.zeros(21 * 21), epsilon=float("nan"), a=2.0)
        assert main(["check", "--config", str(cfg), "--field", str(field)]) == 4
        assert "epsilon must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("header, body", [
        ("epsilon 1.0 a 2.0", ["nan"] * 441),
        ("epsilon 1.0 a 2.0", ["inf"] + ["0.0"] * 440),
        ("epsilon 1.0 a inf", ["0.0"] * 441),
        ("epsilon inf a 2.0", ["0.0"] * 441),
    ], ids=["nan_values", "inf_value", "inf_a", "inf_epsilon"])
    def test_non_finite_field_exits_4(self, tmp_path, capsys, header, body):
        cfg = make_config(tmp_path)
        field = tmp_path / "bad.field"
        field.write_text(f"field 441 {header}\n" + "\n".join(body) + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--config", str(cfg), "--out", str(out),
                         "--field", str(field)]) == 4
        assert "finite" in capsys.readouterr().err
        assert not (out / "check.json").exists()

    def test_truncated_field_exits_4(self, tmp_path):
        cfg = make_config(tmp_path)
        field = tmp_path / "bad.field"
        field.write_text("field 441 epsilon 1.0 a 2.0\n0.0\n0.1\n")
        assert main(["check", "--config", str(cfg), "--field", str(field)]) == 4

    def test_wrong_length_exits_4(self, tmp_path):
        cfg = make_config(tmp_path)
        field = tmp_path / "short.field"
        write_field(field, np.zeros(10), epsilon=1.0, a=2.0)
        assert main(["check", "--config", str(cfg), "--field", str(field)]) == 4


class TestSeedOverride:
    def test_cli_seed_changes_noise(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for seed, out in ((1, out1), (2, out2)):
            cfg = make_config(tmp_path, eps_grid=[1.0], n_starts=10, nx=16, ny=16, seed=seed)
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        # same distinct solutions either way, different raw run logs
        s1 = json.loads((out1 / "sweep_summary.json").read_text())
        s2 = json.loads((out2 / "sweep_summary.json").read_text())
        assert s1["rows"][0]["n_distinct"] == s2["rows"][0]["n_distinct"] == 2


class TestImportPath:
    def test_cli_import_loads_only_linalg_and_sparse(self):
        # every command starts a fresh interpreter and pays for what it
        # imports: of scipy's public subpackages, only these two
        code = ("import sys, neumann_rigidity.cli, scipy; "
                "print([m for m in scipy.__all__ if 'scipy.' + m in sys.modules])")
        src = Path(neumann_rigidity.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "['linalg', 'sparse']"
