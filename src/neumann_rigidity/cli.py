"""Command-line front end: configuration loading, the experiment verbs
(constants, eigen, solve, sweep, bifurcate, check) and their file outputs.

Exit codes: 0 success, 2 configuration/validation, 3 numerical failure,
4 input/output.  All commands are deterministic given config and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .continuation import build_bifurcation_report, rigidity_sweep
from .diagnostics import run_diagnostics
from .errors import (
    BranchLostError,
    ConfigError,
    FellBackToConstantError,
    InvalidBracketError,
    MeshFormatError,
    NoConvergenceError,
    SingularJacobianError,
    ZeroFieldError,
)
from .linsolve import first_eigenpair
from .meshing import (
    DiscreteOperator,
    assemble,
    build_disk_mesh,
    build_rectangle_mesh,
    read_field,
    read_mesh,
    write_field,
)
from .model import ModelParams, bifurcation_epsilon, constant_chain, find_xi, rigidity_threshold
from .newton import (
    Constant,
    NewtonOpts,
    default_tol,
    newton_solve,
    sup_fluct_of,
    switch_directions,
    weighted_mean,
)

_NUMERICAL_ERRORS = (
    NoConvergenceError, SingularJacobianError, InvalidBracketError,
    BranchLostError, FellBackToConstantError, ZeroFieldError,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration; a, q and the domain are never defaulted."""

    a: float
    q: float
    domain: str                      # "rectangle" | "disk" | "mesh_file"
    lx: float | None = None
    ly: float | None = None
    nx: int | None = None
    ny: int | None = None
    radius: float | None = None
    refinement: int | None = None
    mesh_path: str | None = None
    eps: float | None = None
    eps_grid: list[float] | None = None
    n_starts: int = 50
    seed: int = 0
    newton_tol: float | None = None  # None: 1e-10*(1 + total mass)
    eig_tol: float = 1e-10
    diag_tol: float = 1e-6
    bracket_lo: float | None = None
    bracket_hi: float | None = None
    bif_tol: float = 1e-8
    amplitude: float | None = None
    m_values: list[float] | None = None
    out_dir: str | None = None
    threads: int = 1

    def validate(self) -> None:
        if not self.a > 1.0:
            raise ConfigError("a must exceed 1")
        if not self.q > 2.0:
            raise ConfigError("q must exceed 2")
        if self.domain == "rectangle":
            if None in (self.lx, self.ly, self.nx, self.ny):
                raise ConfigError("rectangle domain needs lx, ly, nx, ny")
            if self.nx < 2 or self.ny < 2:
                raise ConfigError("nx and ny must both be at least 2")
            if self.lx <= 0 or self.ly <= 0:
                raise ConfigError("lx and ly must be positive")
        elif self.domain == "disk":
            if None in (self.radius, self.refinement):
                raise ConfigError("disk domain needs radius and refinement")
            if self.refinement < 1:
                raise ConfigError("refinement must be at least 1")
            if self.radius <= 0:
                raise ConfigError("radius must be positive")
        elif self.domain == "mesh_file":
            if not self.mesh_path:
                raise ConfigError("mesh_file domain needs mesh_path")
        else:
            raise ConfigError(f"unknown domain type {self.domain!r}")
        if self.eps is not None and not self.eps > 0.0:
            raise ConfigError("eps must be positive")
        if self.eps_grid is not None:
            if len(self.eps_grid) == 0:
                raise ConfigError("eps_grid must not be empty")
            if any(e <= 0.0 for e in self.eps_grid):
                raise ConfigError("eps_grid values must be positive")
        if self.n_starts < 1:
            raise ConfigError("n_starts must be at least 1")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")

    def require_eps(self) -> float:
        if self.eps is None:
            raise ConfigError("this command needs eps in the config")
        return self.eps

    def require_grid(self) -> list[float]:
        if self.eps_grid is None:
            raise ConfigError("this command needs eps_grid in the config")
        return list(self.eps_grid)

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"a", "q", "domain"} - set(data)
        if missing:
            raise ConfigError(f"missing required config keys: {sorted(missing)}")
        cfg = ExperimentConfig(**data)
        cfg.validate()
        return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MeshFormatError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return ExperimentConfig.from_dict(data)


def build_operator(cfg: ExperimentConfig) -> DiscreteOperator:
    if cfg.domain == "rectangle":
        mesh = build_rectangle_mesh(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
    elif cfg.domain == "disk":
        mesh = build_disk_mesh(cfg.refinement, cfg.radius)
    else:
        mesh = read_mesh(cfg.mesh_path)
    return assemble(mesh)


def _newton_opts(cfg: ExperimentConfig, mu1: float | None = None) -> NewtonOpts:
    return NewtonOpts(tol=cfg.newton_tol, q=cfg.q, mu1=mu1)


def _emit_json(payload: dict, out_dir: Path | None, name: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if out_dir is not None:
        (out_dir / name).write_text(text + "\n")


def _record_payload(rec, op) -> dict:
    cls = rec.classification
    payload = {
        "epsilon": rec.epsilon,
        "residual_norm": rec.residual_norm,
        "newton_iters": rec.newton_iters,
        "classification": "constant" if isinstance(cls, Constant) else "nonconstant",
        "mean": weighted_mean(rec.u, op.lumped_mass),
        "sup_fluct": sup_fluct_of(rec),
    }
    if rec.diagnostics is not None:
        payload["diagnostics"] = rec.diagnostics.as_dict()
    return payload


def cmd_constants(cfg: ExperimentConfig, out_dir: Path | None) -> int:
    op = build_operator(cfg)
    params = ModelParams(a=cfg.a, epsilon=cfg.eps if cfg.eps is not None else 1.0, q=cfg.q)
    chain = constant_chain(params, op.area, op.diameter)
    pair = first_eigenpair(op, tol=cfg.eig_tol)
    thresholds = {
        str(m): rigidity_threshold(m, cfg.a, pair.mu1) for m in (cfg.m_values or [])
    }
    payload = {
        "a": cfg.a,
        "q": cfg.q,
        "area": op.area,
        "diameter": op.diameter,
        "xi_a": chain.xi_a,
        "c0": chain.c0,
        "c1": chain.c1,
        "eps0_of_q": chain.eps0_of_q,
        "c2_bound": chain.c2_bound,
        "mu1": pair.mu1,
        "mu1_degenerate": pair.degenerate,
        "eps_star_linear": bifurcation_epsilon(cfg.a, pair.mu1),
        "lipschitz_k_of_m": {str(m): chain.lipschitz_k(m) for m in (cfg.m_values or [])},
        "threshold_of_m": thresholds,
    }
    _emit_json(payload, out_dir, "constants.json")
    return 0


def cmd_eigen(cfg: ExperimentConfig, out_dir: Path | None) -> int:
    op = build_operator(cfg)
    pair = first_eigenpair(op, tol=cfg.eig_tol)
    payload = {
        "mu1": pair.mu1,
        "mu2_estimate": pair.mu2,
        "degenerate": pair.degenerate,
        "n_nodes": op.n,
        "area": op.area,
        "diameter": op.diameter,
    }
    _emit_json(payload, out_dir, "eigen.json")
    if out_dir is not None:
        write_field(out_dir / "eigen_phi1.field", pair.phi1, epsilon=0.0, a=cfg.a)
    return 0


def _start_state(spec: str, cfg: ExperimentConfig, op: DiscreteOperator) -> np.ndarray:
    xi = find_xi(cfg.a)
    kind, _, arg = spec.partition(":")
    if kind == "const":
        if arg == "xi":
            return np.full(op.n, xi)
        if arg == "log_a":
            return np.full(op.n, np.log(cfg.a))
        try:
            return np.full(op.n, float(arg))
        except ValueError as exc:
            raise ConfigError(f"bad constant start {spec!r}") from exc
    if kind == "eig":
        try:
            amp = float(arg)
        except ValueError as exc:
            raise ConfigError(f"bad eigen start {spec!r}") from exc
        # the emerging branch follows a specific combination of a (near-)
        # degenerate pair, the same one branch switching would try next
        dirs = switch_directions(op)
        d = dirs[1][1] if len(dirs) > 1 else dirs[0][1]
        return xi + amp * d
    if kind == "noise":
        try:
            noise_seed = int(arg) if arg else cfg.seed
        except ValueError as exc:
            raise ConfigError(f"bad noise start {spec!r}") from exc
        rng = np.random.default_rng(noise_seed)
        return rng.uniform(-2.0, xi + 2.0, size=op.n)
    raise ConfigError(f"unknown start spec {spec!r} (use const:/eig:/noise:)")


def cmd_solve(cfg: ExperimentConfig, out_dir: Path | None, start_spec: str) -> int:
    op = build_operator(cfg)
    eps = cfg.require_eps()
    pair = first_eigenpair(op, tol=cfg.eig_tol)
    u0 = _start_state(start_spec, cfg, op)
    rec = newton_solve(u0, eps, cfg.a, op, _newton_opts(cfg, pair.mu1))
    payload = _record_payload(rec, op)
    payload["start"] = start_spec
    _emit_json(payload, out_dir, "solution.json")
    if out_dir is not None:
        write_field(out_dir / "solution.field", rec.u, epsilon=eps, a=cfg.a)
    return 0


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path | None) -> int:
    op = build_operator(cfg)
    grid = cfg.require_grid()
    pair = first_eigenpair(op, tol=cfg.eig_tol)
    result = rigidity_sweep(grid, cfg.a, op, cfg.n_starts, cfg.seed,
                            opts=_newton_opts(cfg, pair.mu1), threads=cfg.threads)
    spacing = min(np.diff(sorted(grid))) if len(grid) > 1 else 0.0
    payload = {
        "eps_hat": result.eps_hat,
        "eps_hat_uncertainty": float(spacing),
        "m_emp": result.m_emp,
        "mu1": pair.mu1,
        "sufficient_threshold_from_m_emp": rigidity_threshold(result.m_emp, cfg.a, pair.mu1)
        if result.m_emp > 0 else None,
        "rows": [asdict(r) for r in result.rows],
    }
    _emit_json(payload, out_dir, "sweep_summary.json")
    if out_dir is not None:
        with open(out_dir / "sweep.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epsilon", "n_distinct", "any_nonconstant", "n_failed"])
            for r in result.rows:
                w.writerow([r.epsilon, r.n_distinct, int(r.any_nonconstant), r.n_failed])
        with open(out_dir / "runs.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epsilon", "start_id", "converged", "classification",
                        "mean", "sup_fluct", "residual_norm", "iters"])
            for r in result.runs:
                w.writerow([r.epsilon, r.start_id, int(r.converged),
                            r.classification or r.failure or "",
                            r.mean, r.sup_fluct, r.residual_norm, r.iters])
        with open(out_dir / "diagnostics_summary.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epsilon", "classification", "mean", "sup_fluct",
                        "zero_avg_residual", "l1_norm_f", "l1_bound",
                        "energy_gap", "representation_error", "exp_integral_q", "sup_norm"])
            for eps in sorted(result.solutions):
                for rec in result.solutions[eps]:
                    d = rec.diagnostics
                    w.writerow([
                        eps,
                        "constant" if isinstance(rec.classification, Constant) else "nonconstant",
                        weighted_mean(rec.u, op.lumped_mass), sup_fluct_of(rec),
                        d.zero_avg_residual, d.l1_norm_f, d.l1_bound,
                        abs(d.energy_lhs - d.energy_rhs),
                        d.representation_error, d.exp_integral_q, d.sup_norm,
                    ])
    return 0


def cmd_bifurcate(cfg: ExperimentConfig, out_dir: Path | None) -> int:
    op = build_operator(cfg)
    if cfg.bracket_lo is None or cfg.bracket_hi is None:
        raise ConfigError("bifurcate needs bracket_lo and bracket_hi in the config")
    report = build_bifurcation_report(
        cfg.a, op, (cfg.bracket_lo, cfg.bracket_hi), tol=cfg.bif_tol,
        amplitude=cfg.amplitude, opts=_newton_opts(cfg, None),
    )
    payload = {
        "eps_star_detected": report.eps_star_detected,
        "eps_star_predicted": report.eps_star_predicted,
        "relative_gap": report.relative_gap,
        "mu1": report.mu1,
        "mu1_degenerate": report.mu1_degenerate,
        "switch_amplitude": report.switch_amplitude,
        "switch_direction": report.switch_direction,
        "n_branch_points": len(report.branch),
        "n_upward_points": len(report.upward_branch),
    }
    _emit_json(payload, out_dir, "bifurcation.json")
    if out_dir is not None:
        write_field(out_dir / "switch_eigenvector.field", report.switch_eigenvector,
                    epsilon=report.eps_star_detected, a=cfg.a)
        with open(out_dir / "branch.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["direction", "epsilon", "mean", "sup_fluct",
                        "stability_indicator", "residual_norm"])
            for direction, points in (("down", report.branch), ("up", report.upward_branch)):
                for bp in points:
                    w.writerow([
                        direction, bp.epsilon,
                        weighted_mean(bp.solution.u, op.lumped_mass),
                        sup_fluct_of(bp.solution), bp.stability_indicator,
                        bp.solution.residual_norm,
                    ])
    return 0


def cmd_check(cfg: ExperimentConfig, out_dir: Path | None, field_path: str) -> int:
    op = build_operator(cfg)
    values, eps, a = read_field(field_path)
    if values.shape[0] != op.n:
        raise MeshFormatError(
            f"field has {values.shape[0]} values but the mesh has {op.n} nodes"
        )
    if eps <= 0.0:
        eps = cfg.require_eps()
    pair = first_eigenpair(op, tol=cfg.eig_tol)
    params = ModelParams(a=a, epsilon=eps, q=cfg.q)
    tol = cfg.newton_tol if cfg.newton_tol is not None else default_tol(op)
    report = run_diagnostics(values, eps, params, op, pair.mu1, newton_tol=tol,
                             diag_tol=cfg.diag_tol)
    payload = {"field": str(field_path), "epsilon": eps, "a": a}
    payload.update(report.as_dict())
    _emit_json(payload, out_dir, "check.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neumann-lab",
        description="Steady states and rigidity checks for -eps*Lap(u) = e^u - 1 - a*u "
                    "with no-flux boundary conditions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("constants", "print the constant chain, mu1 and the linear threshold"),
        ("eigen", "compute the first nonzero no-flux eigenpair"),
        ("solve", "run one Newton solve from a start state"),
        ("sweep", "multi-start rigidity sweep over eps_grid"),
        ("bifurcate", "detect the primary bifurcation and trace the branch"),
        ("check", "run the diagnostics suite on a stored field"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory (created)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=None, help="override config threads")
        if name == "solve":
            p.add_argument("--start", required=True,
                           help="start state: const:<v>|const:xi|const:log_a|eig:<amp>|noise:<seed>")
        if name == "check":
            p.add_argument("--field", required=True, help="path to the field file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "seed": args.seed})
        if args.threads is not None:
            cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "threads": args.threads})
        out_dir = None
        if args.out is not None or cfg.out_dir is not None:
            out_dir = Path(args.out if args.out is not None else cfg.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "constants":
            return cmd_constants(cfg, out_dir)
        if args.command == "eigen":
            return cmd_eigen(cfg, out_dir)
        if args.command == "solve":
            return cmd_solve(cfg, out_dir, args.start)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir)
        if args.command == "bifurcate":
            return cmd_bifurcate(cfg, out_dir)
        if args.command == "check":
            return cmd_check(cfg, out_dir, args.field)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (MeshFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
