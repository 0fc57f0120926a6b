"""Command-line harness: config validation, the six verbs, exit codes,
output files, and determinism."""

import json

import numpy as np
import pytest

from neumann_rigidity import build_disk_mesh, find_xi, write_field, write_mesh
from neumann_rigidity.cli import ExperimentConfig, load_config, main
from neumann_rigidity.errors import ConfigError

XI = find_xi(2.0)


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
    def test_roundtrip_idempotent(self, tmp_path):
        path = make_config(tmp_path)
        cfg = load_config(path)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert ExperimentConfig.from_dict(again.to_dict()) == again

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
    ])
    def test_constraints(self, tmp_path, bad):
        path = make_config(tmp_path, **bad)
        with pytest.raises(ConfigError):
            load_config(path)


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

    def test_bad_a_exits_2(self, tmp_path, capsys):
        cfg = make_config(tmp_path, a=1.0)
        assert main(["constants", "--config", str(cfg)]) == 2
        assert "a must exceed 1" in capsys.readouterr().err

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

    def test_singular_start_exits_3(self, tmp_path):
        cfg = make_config(tmp_path)
        assert main(["solve", "--config", str(cfg), "--start", "const:log_a"]) == 3

    def test_no_convergence_reports_one_line(self, tmp_path, capsys):
        # a residual target below round-off cannot be met
        cfg = make_config(tmp_path, newton_tol=1e-300)
        assert main(["solve", "--config", str(cfg), "--start", "const:0.5"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numerical failure: ")


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
        assert summary["m_emp"] == pytest.approx(XI, rel=1e-6)
        runs = (out1 / "runs.csv").read_text().splitlines()
        assert runs[0] == "epsilon,start_id,converged,classification,mean,sup_fluct,residual_norm,iters"
        assert len(runs) == 1 + 2 * 8
        assert (out1 / "diagnostics_summary.csv").exists()

    def test_worker_processes_match_serial(self, tmp_path):
        cfg = make_config(tmp_path, eps_grid=[0.08, 1.0], n_starts=6, nx=8, ny=8)
        out1, out2 = tmp_path / "serial", tmp_path / "workers"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--threads", "2"]) == 0
        for name in ("runs.csv", "sweep_summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

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


class TestCheckCommand:
    def test_constant_field_all_pass(self, tmp_path):
        cfg = make_config(tmp_path)
        field = tmp_path / "u.field"
        write_field(field, np.zeros(21 * 21), epsilon=1.0, a=2.0)
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out),
                     "--field", str(field)]) == 0
        payload = json.loads((out / "check.json").read_text())
        assert payload["mean_in_bounds"] is True
        assert payload["zero_avg_residual"] <= 1e-12

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
        cfg = make_config(tmp_path, eps_grid=[1.0], n_starts=10, nx=16, ny=16)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1), "--seed", "1"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--seed", "2"]) == 0
        # same distinct solutions either way, different raw run logs
        s1 = json.loads((out1 / "sweep_summary.json").read_text())
        s2 = json.loads((out2 / "sweep_summary.json").read_text())
        assert s1["rows"][0]["n_distinct"] == s2["rows"][0]["n_distinct"] == 2
