"""Command-line front end: configuration loading, the experiment verbs
(constants, eigen, solve, sweep, bifurcate, check) and their file outputs.

``COMMANDS`` defines each verb whole: its function, the config keys it needs,
its help line and its own required option (``solve``'s ``--start``,
``check``'s ``--field``).  ``main`` loads the config, refuses a missing key,
builds the operator and calls the function, which returns nothing; ``main``
alone sets the exit status.  Exit codes: 0 success, 2
configuration/validation (``ConfigError``, also for a mesh built from the
config that fails the mesh checks), 3 numerical failure (any
``NumericalError``) or memory exhausted (``MemoryError``), 4 input/output (a
file that cannot be read or breaks its format).  All commands are
deterministic given the config, whose ``seed`` and ``threads`` keys set the
noise seed and the sweep's worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .continuation import BIF_TOL, build_bifurcation_report, rigidity_sweep
from .diagnostics import run_diagnostics
from .errors import ConfigError, MeshFormatError, NumericalError
from .linsolve import first_eigenpair
from .meshing import (
    DiscreteOperator,
    assemble,
    build_disk_mesh,
    build_rectangle_mesh,
    check_disk_args,
    check_rectangle_args,
    read_field,
    read_mesh,
    write_field,
)
from .model import (SATURATION_EXPONENT, bifurcation_epsilon, constant_chain, find_xi,
                    lipschitz_bound, rigidity_threshold)
from .newton import attach_diagnostics, newton_solve, noise_start, switch_directions

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
    bracket_lo: float | None = None
    bracket_hi: float | None = None
    bif_tol: float = BIF_TOL
    m_values: list[float] | None = None
    threads: int = 1

    def validate(self) -> None:
        for name, value in asdict(self).items():
            if any(isinstance(v, float) and not np.isfinite(v)
                   for v in (value if isinstance(value, list) else [value])):
                raise ConfigError(f"{name} must be finite")
        if not self.a > 1.0:
            raise ConfigError("a must exceed 1")
        if not self.q > 2.0:
            raise ConfigError("q must exceed 2")
        try:  # the mesh builder's own argument checks, before any meshing
            if self.domain == "rectangle":
                if None in (self.lx, self.ly, self.nx, self.ny):
                    raise ConfigError("rectangle domain needs lx, ly, nx, ny")
                check_rectangle_args(self.nx, self.ny, self.lx, self.ly)
            elif self.domain == "disk":
                if None in (self.radius, self.refinement):
                    raise ConfigError("disk domain needs radius and refinement")
                check_disk_args(self.refinement, self.radius)
            elif self.domain == "mesh_file":
                if not self.mesh_path:
                    raise ConfigError("mesh_file domain needs mesh_path")
            else:
                raise ConfigError(f"unknown domain type {self.domain!r}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.eps is not None and not self.eps > 0.0:
            raise ConfigError("eps must be positive")
        if self.eps_grid is not None:
            if len(self.eps_grid) == 0:
                raise ConfigError("eps_grid must not be empty")
            if any(e <= 0.0 for e in self.eps_grid):
                raise ConfigError("eps_grid values must be positive")
            if len(set(self.eps_grid)) < len(self.eps_grid):
                raise ConfigError("eps_grid values must be distinct")
        if self.n_starts < 1:
            raise ConfigError("n_starts must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        if not self.bif_tol > 0.0:
            raise ConfigError("bif_tol must be positive")
        if None not in (self.bracket_lo, self.bracket_hi) and not (
                0.0 < self.bracket_lo < self.bracket_hi):
            raise ConfigError("need 0 < bracket_lo < bracket_hi")
        if self.m_values is not None and not all(
                0.0 <= m <= SATURATION_EXPONENT for m in self.m_values):
            raise ConfigError(f"m_values must lie in [0, {SATURATION_EXPONENT:g}]")

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"a", "q", "domain"} - set(data)
        if missing:
            raise ConfigError(f"missing required config keys: {sorted(missing)}")
        hints = get_type_hints(ExperimentConfig)
        wrong = sorted(k for k, v in data.items() if not _fits(v, hints[k]))
        if wrong:
            raise ConfigError(f"config values of the wrong type: {wrong}")
        cfg = ExperimentConfig(**data)
        cfg.validate()
        return cfg


def _fits(value, hint) -> bool:
    """Whether a JSON value has the field type ``hint``; a bool is not a number."""
    args = get_args(hint)
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if args:  # a union such as float | None
        return any(_fits(value, h) for h in args)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


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
    if cfg.domain == "mesh_file":
        return assemble(read_mesh(cfg.mesh_path))
    try:  # no file was read: a mesh built from the config fails as the config
        if cfg.domain == "rectangle":
            return assemble(build_rectangle_mesh(cfg.nx, cfg.ny, cfg.lx, cfg.ly))
        return assemble(build_disk_mesh(cfg.refinement, cfg.radius))
    except MeshFormatError as exc:
        raise ConfigError(str(exc)) from exc


def _write_csv(path: Path, header: list[str] | tuple[str, ...], rows) -> None:
    """Write a header and rows; a bool cell is written as 0 or 1."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([int(v) if isinstance(v, bool) else v for v in row] for row in rows)


def _emit_json(payload: dict, out_dir: Path | None, name: str) -> None:
    """Print the payload as strict JSON and write it to ``out_dir/name``
    when an output directory is given.  Strict JSON has no Infinity or NaN,
    so a round trip through the parser turns each non-finite float into null."""
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    print(text)
    if out_dir is not None:
        (out_dir / name).write_text(text + "\n")


def cmd_constants(cfg: ExperimentConfig, op: DiscreteOperator, out_dir: Path | None,
                  args: argparse.Namespace) -> None:
    pair = first_eigenpair(op)
    m_values = cfg.m_values or []
    payload = {
        **asdict(constant_chain(cfg.a, cfg.q, op.area, op.diameter)),
        "mu1": pair.mu1,
        "mu1_degenerate": pair.degenerate,
        "eps_star_linear": bifurcation_epsilon(cfg.a, pair.mu1),
        "lipschitz_k_of_m": {str(m): lipschitz_bound(m, cfg.a) for m in m_values},
        "threshold_of_m": {str(m): rigidity_threshold(m, cfg.a, pair.mu1) for m in m_values},
    }
    _emit_json(payload, out_dir, "constants.json")


def cmd_eigen(cfg: ExperimentConfig, op: DiscreteOperator, out_dir: Path | None,
              args: argparse.Namespace) -> None:
    pair = first_eigenpair(op)
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


def _finite_start_value(spec: str, arg: str, kind: str) -> float:
    try:
        value = float(arg)
    except ValueError as exc:
        raise ConfigError(f"bad {kind} start {spec!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"bad {kind} start {spec!r}: not finite")
    return value


def _start_state(spec: str, cfg: ExperimentConfig, op: DiscreteOperator) -> np.ndarray:
    xi = find_xi(cfg.a)
    kind, _, arg = spec.partition(":")
    if kind == "const":
        if arg == "xi":
            return np.full(op.n, xi)
        if arg == "log_a":
            return np.full(op.n, np.log(cfg.a))
        return np.full(op.n, _finite_start_value(spec, arg, "constant"))
    if kind == "eig":
        amp = _finite_start_value(spec, arg, "eigen")
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
        if noise_seed < 0:
            raise ConfigError(f"bad noise start {spec!r}: seed must be non-negative")
        return noise_start(np.random.default_rng(noise_seed), xi, op.n)
    raise ConfigError(f"unknown start spec {spec!r} (use const:/eig:/noise:)")


def cmd_solve(cfg: ExperimentConfig, op: DiscreteOperator, out_dir: Path | None,
              args: argparse.Namespace) -> None:
    u0 = _start_state(args.start, cfg, op)
    rec = newton_solve(u0, cfg.eps, cfg.a, op)
    rec = attach_diagnostics(rec, cfg.a, cfg.q, op)
    payload = {k: v for k, v in asdict(rec).items() if k != "u"}
    payload.update(classification=rec.classification, start=args.start)
    _emit_json(payload, out_dir, "solution.json")
    if out_dir is not None:
        write_field(out_dir / "solution.field", rec.u, epsilon=cfg.eps, a=cfg.a)


# the MultiStartResult attributes of a sweep row: the sweep.csv columns and
# the keys of each sweep_summary.json row
SWEEP_COLUMNS = ("epsilon", "n_distinct", "any_nonconstant", "n_failed")


def cmd_sweep(cfg: ExperimentConfig, op: DiscreteOperator, out_dir: Path | None,
              args: argparse.Namespace) -> None:
    pair = first_eigenpair(op)
    result = rigidity_sweep(cfg.eps_grid, cfg.a, op, cfg.n_starts, cfg.seed, q=cfg.q,
                            threads=cfg.threads)
    sweep_rows = [[getattr(r, c) for c in SWEEP_COLUMNS] for r in result.rows]
    payload = {
        "eps_hat": result.eps_hat,
        "eps_hat_uncertainty": result.eps_hat_uncertainty,
        "m_emp": result.m_emp,
        "mu1": pair.mu1,
        "sufficient_threshold_from_m_emp": rigidity_threshold(result.m_emp, cfg.a, pair.mu1)
        if result.m_emp > 0 else None,
        "rows": [dict(zip(SWEEP_COLUMNS, row)) for row in sweep_rows],
    }
    _emit_json(payload, out_dir, "sweep_summary.json")
    if out_dir is not None:
        _write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, sweep_rows)
        _write_csv(out_dir / "runs.csv",
                   ["epsilon", "start_id", "converged", "classification",
                    "mean", "sup_fluct", "residual_norm", "iters"],
                   ([row.epsilon, r.start_id, r.converged, r.classification or r.failure,
                     r.mean, r.sup_fluct, r.residual_norm, r.iters]
                    for row in result.rows for r in row.runs))
        _write_csv(out_dir / "diagnostics_summary.csv",
                   ["epsilon", "classification", "mean", "sup_fluct",
                    "zero_avg_residual", "l1_norm_f", "l1_bound",
                    "energy_gap", "representation_error", "exp_integral_q", "sup_norm"],
                   ([row.epsilon, rec.classification, rec.mean, rec.sup_fluct,
                     d.zero_avg_residual, d.l1_norm_f, d.l1_bound,
                     abs(d.energy_lhs - d.energy_rhs),
                     d.representation_error, d.exp_integral_q, d.sup_norm]
                    for row in result.rows
                    for rec in row.distinct
                    for d in [rec.diagnostics]))


def cmd_bifurcate(cfg: ExperimentConfig, op: DiscreteOperator, out_dir: Path | None,
                  args: argparse.Namespace) -> None:
    report = build_bifurcation_report(
        cfg.a, op, (cfg.bracket_lo, cfg.bracket_hi), tol=cfg.bif_tol)
    # the fields are read, not copied: asdict would deep-copy the branch states
    payload = {f.name: getattr(report, f.name) for f in fields(report)
               if f.name not in ("branch", "upward_branch", "switch_eigenvector")}
    payload.update(n_branch_points=len(report.branch),
                   n_upward_points=len(report.upward_branch))
    _emit_json(payload, out_dir, "bifurcation.json")
    if out_dir is not None:
        write_field(out_dir / "switch_eigenvector.field", report.switch_eigenvector,
                    epsilon=report.eps_star_detected, a=cfg.a)
        _write_csv(out_dir / "branch.csv",
                   ["direction", "epsilon", "mean", "sup_fluct",
                    "stability_indicator", "residual_norm"],
                   ([direction, bp.solution.epsilon, bp.solution.mean,
                     bp.solution.sup_fluct, bp.stability_indicator, bp.solution.residual_norm]
                    for direction, points in (("down", report.branch),
                                              ("up", report.upward_branch))
                    for bp in points))


def cmd_check(cfg: ExperimentConfig, op: DiscreteOperator, out_dir: Path | None,
              args: argparse.Namespace) -> None:
    values, eps, a = read_field(args.field)
    if values.shape[0] != op.n:
        raise MeshFormatError(
            f"field has {values.shape[0]} values but the mesh has {op.n} nodes"
        )
    if eps <= 0.0:  # a field without epsilon (eigen writes 0) takes the config's
        if cfg.eps is None:
            raise ConfigError("check needs eps in the config for a field without epsilon")
        eps = cfg.eps
    if not 1.0 < a < np.inf:
        raise MeshFormatError(f"field file {args.field}: a must exceed 1 and be finite")
    if not 0.0 < eps < np.inf:
        raise MeshFormatError(f"field file {args.field}: epsilon must be positive and finite")
    report = run_diagnostics(values, eps, a, cfg.q, op, first_eigenpair(op).mu1)
    payload = {"field": str(args.field), "epsilon": eps, "a": a, **asdict(report)}
    _emit_json(payload, out_dir, "check.json")


# name -> (function, config keys it needs, help line, the verb's own
# required option as (flag, help) or None)
COMMANDS = {
    "constants": (cmd_constants, (), "print the constant chain, mu1 and the linear threshold",
                  None),
    "eigen": (cmd_eigen, (), "compute the first nonzero no-flux eigenpair", None),
    "solve": (cmd_solve, ("eps",), "run one Newton solve from a start state",
              ("--start", "start state: const:<v>|const:xi|const:log_a|eig:<amp>|noise:<seed>")),
    "sweep": (cmd_sweep, ("eps_grid",), "multi-start rigidity sweep over eps_grid", None),
    "bifurcate": (cmd_bifurcate, ("bracket_lo", "bracket_hi"),
                  "detect the primary bifurcation and trace the branch", None),
    "check": (cmd_check, (), "run the diagnostics suite on a stored field",
              ("--field", "path to the field file")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neumann-lab",
        description="Steady states and rigidity checks for -eps*Lap(u) = e^u - 1 - a*u "
                    "with no-flux boundary conditions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, helptext, option) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", type=Path, default=None, help="output directory (created)")
        if option is not None:
            p.add_argument(option[0], required=True, help=option[1])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command, needs, _, _ = COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        missing = [key for key in needs if getattr(cfg, key) is None]
        if missing:
            raise ConfigError(f"{args.command} needs {' and '.join(missing)} in the config")
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
        command(cfg, build_operator(cfg), args.out, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # the computation, not the files: a mesh too large for the host
        print(f"out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return 3
    except (MeshFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
