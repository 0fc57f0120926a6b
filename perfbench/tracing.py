"""Spans around the calls into each layer of neumann_rigidity, recorded from
outside the package.

The package binds its functions with ``from .x import y``, so a function is
wrapped at every module that calls it, not only where it is defined.  Spans
stay in memory while the command runs and are written out at the end; the
per-layer metrics are computed from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import asdict, dataclass

# (module holding the binding, attribute, span name).  A span name is
# "<layer>.<function>"; the layer is the package module the callee lives in.
BINDINGS = (
    ("cli", "main", "cli.main"),
    ("cli", "build_rectangle_mesh", "meshing.build_rectangle_mesh"),
    ("cli", "assemble", "meshing.assemble"),
    ("cli", "rigidity_sweep", "continuation.rigidity_sweep"),
    ("cli", "build_bifurcation_report", "continuation.build_bifurcation_report"),
    ("continuation", "stability_indicator", "continuation.stability_indicator"),
    ("continuation", "multi_start", "newton.multi_start"),
    ("continuation", "newton_solve", "newton.newton_solve"),
    ("newton", "newton_solve", "newton.newton_solve"),
    ("newton", "residual", "newton.residual"),
    ("newton", "run_diagnostics", "diagnostics.run_diagnostics"),
    ("newton", "solve_projected", "linsolve.solve_projected"),
    ("diagnostics", "solve_projected", "linsolve.solve_projected"),
    ("continuation", "restricted_smallest_eigen", "linsolve.restricted_smallest_eigen"),
    ("linsolve", "smallest_nonzero_eigen", "linsolve.smallest_nonzero_eigen"),
)

EIGEN_SPANS = ("linsolve.smallest_nonzero_eigen", "linsolve.restricted_smallest_eigen")


@dataclass
class Span:
    """One call: ``site`` is the module whose binding was called, ``parent``
    the index of the enclosing span, ``error`` the exception type it raised
    and ``iters`` the Newton iteration count of a returned solution record."""

    name: str
    site: str
    start: float
    end: float = 0.0
    parent: int | None = None
    error: str | None = None
    iters: int | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans for the wrapped bindings while installed.

    Use as a context manager: entering wraps every binding in ``BINDINGS``,
    leaving puts the original functions back.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, site: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, site, clock(), parent=stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            span.iters = getattr(result, "newton_iters", None)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for mod_name, attr, span_name in BINDINGS:
            module = importlib.import_module(f"neumann_rigidity.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, mod_name))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def dump_spans(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]


def load_spans(rows: list[dict]) -> list[Span]:
    return [Span(**row) for row in rows]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for k in sorted(kids, key=lambda k: spans[k].start):
            lo, hi = max(spans[k].start, reach), min(spans[k].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced command."""
    own = self_times(spans)

    def pick(*names, site=None):
        return [s for s in spans if s.name in names and (site is None or s.site == site)]

    def total(chosen):
        return sum((s.end - s.start for s in chosen), 0.0)

    def self_of(layer):
        return sum((t for s, t in zip(spans, own) if s.layer == layer), 0.0)

    solves = pick("linsolve.solve_projected")
    eigs = pick(*EIGEN_SPANS)
    newtons = pick("newton.newton_solve")
    converged = [s for s in newtons if s.error is None]
    indicators = pick("continuation.stability_indicator")
    diagnostics = pick("diagnostics.run_diagnostics")
    return {
        "linsolve.solve.calls": len(solves),
        "linsolve.solve.s": total(solves),
        "linsolve.solve.failed": sum(1 for s in solves if s.error is not None),
        "linsolve.eig.calls": len(eigs),
        "linsolve.eig.s": total(eigs),
        "newton.solve.calls": len(newtons),
        "newton.solve.converged": len(converged),
        "newton.solve.failed.no_convergence":
            sum(1 for s in newtons if s.error == "NoConvergenceError"),
        "newton.solve.failed.singular_jacobian":
            sum(1 for s in newtons if s.error == "SingularJacobianError"),
        # a workload without Newton solves has no useful outcome to count
        "newton.useful_ratio": len(converged) / len(newtons) if newtons else 0.0,
        "newton.iters": sum(s.iters or 0 for s in converged),
        "newton.residual.calls": len(pick("newton.residual")),
        "newton.failed_s": total(s for s in newtons if s.error is not None),
        "newton.self_s": self_of("newton"),
        "continuation.indicator.calls": len(indicators),
        "continuation.indicator.s": total(indicators),
        "continuation.newton.failed": sum(
            1 for s in pick("newton.newton_solve", site="continuation") if s.error is not None
        ),
        "continuation.self_s": self_of("continuation"),
        "diagnostics.calls": len(diagnostics),
        "diagnostics.self_s": self_of("diagnostics"),
        "diagnostics.solve.s": total(pick("linsolve.solve_projected", site="diagnostics")),
        "meshing.calls": len(pick("meshing.build_rectangle_mesh", "meshing.assemble")),
        "meshing.self_s": self_of("meshing"),
        "cli.self_s": self_of("cli"),
    }


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Metric-by-metric median over several traced commands."""
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}
