"""Experiment runner, replication grids, and the CLI.

Runs the solver over a grid of inexactness levels and stopping tolerances,
mirroring the benchmark tables: one row of the rendered grid per tolerance
pair, one column per theta, counts of forward solves or Jacobian products in
the cells, a dash where the budget ran out. A sweep cell and ``iclsq solve``
run through the same cell runner, so both trace to JSONL alike and end a
failed run's trace with its exception.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import io
import json
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .burgers import BurgersProblem
from .core import EvalCounters, ImplicitProblem
from .elliptic import EllipticProblem
from .solver import HESSIAN_MODES, SolverConfig, SolveStatus, solve

__all__ = [
    "DEFAULT_THETA_GRID",
    "PROBLEMS",
    "ExperimentSpec",
    "ExperimentRow",
    "default_control",
    "run_experiment",
    "render_table",
    "summary_csv",
    "main",
]

DEFAULT_THETA_GRID = (0.0, 1e-6, 1e-4, 1e-2, 1e-1, 5e-1)

PROBLEMS = {"elliptic": EllipticProblem, "burgers": BurgersProblem}

_SOLVER_FIELDS = {f.name for f in fields(SolverConfig)}

# Conventions recorded atop every emitted CSV.
CSV_PREAMBLE = (
    "# jvp counts every application of the reduced Jacobian or its transpose,\n"
    "# so one Gauss-Newton curvature product costs 2; the initial gradient's\n"
    "# transpose application is included, curvature-norm probes are not.\n"
    "# pde_solves includes the solve at the starting control.\n"
)


@dataclass
class ExperimentSpec:
    """One table-style sweep: a problem plus tolerance and theta grids.

    ``problem_params`` are the keyword arguments of the problem's
    constructor (``PROBLEMS[problem]``), so the sizes are required: ``N`` for
    elliptic, ``nx`` and ``nt`` for Burgers. The solver fields default to
    ``SolverConfig``'s. Every cell is checked before any runs: a setting
    ``SolverConfig`` rejects, or two cells whose output files would share a
    name, raise ``ValueError``.
    """

    problem: str
    problem_params: dict = field(default_factory=dict)
    theta_grid: tuple = DEFAULT_THETA_GRID
    eps_grid: tuple = ()
    max_iter: int = SolverConfig.max_iter
    hessian_mode: str = SolverConfig.hessian_mode
    eta: float = SolverConfig.eta
    gamma_min: float = SolverConfig.gamma_min
    out_dir: Path | None = None

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if len(self.theta_grid) == 0:
            raise ValueError("theta grid must not be empty")
        if len(self.eps_grid) == 0:
            raise ValueError("tolerance grid must not be empty")
        tags = set()
        for eps_r, eps_g in self.eps_grid:
            for theta in self.theta_grid:
                self._solver_config(theta, eps_r, eps_g)
                tag = _cell_tag(self, theta, eps_r, eps_g)
                if tag in tags:
                    raise ValueError(f"two grid cells share the name {tag!r}")
                tags.add(tag)

    def _solver_config(self, theta: float, eps_r: float, eps_g: float) -> SolverConfig:
        shared = {f.name: getattr(self, f.name) for f in fields(self) if f.name in _SOLVER_FIELDS}
        return SolverConfig(eps_R=eps_r, eps_g=eps_g, theta=theta, **shared)


@dataclass
class ExperimentRow:
    problem: str
    theta: float
    eps_r: float
    eps_g: float
    status: str
    iterations: int
    successes: int
    pde_solves: int
    adjoint_solves: int
    jvp: int
    cg_iters: int
    final_residual_norm: float
    final_scaled_gradient: float
    error_type: str  # exception class name of a failed cell, else empty
    error_message: str  # str() of that exception, else empty
    wall_ms: float


SUMMARY_COLUMNS = tuple(f.name for f in fields(ExperimentRow))
# summary.csv renders floats with :g, except these
_SUMMARY_FLOAT_FORMATS = {
    "final_residual_norm": ".9e",
    "final_scaled_gradient": ".9e",
    "wall_ms": ".3f",
}


def default_control(problem: ImplicitProblem, name: str) -> np.ndarray:
    """Benchmark starting controls: all ones (elliptic) or zero (burgers)."""
    return np.ones(problem.n) if name == "elliptic" else np.zeros(problem.n)


def _cell_tag(spec: ExperimentSpec, theta: float, eps_r: float, eps_g: float) -> str:
    return f"{spec.problem}_theta{theta:g}_epsr{eps_r:g}_epsg{eps_g:g}"


def _run_cell(
    problem: ImplicitProblem, name: str, config: SolverConfig, trace_path: Path | None
) -> tuple[ExperimentRow, Exception | None]:
    """Solve from ``default_control``, one JSONL record per iteration to
    ``trace_path`` if given. An exception of the solve is returned with the
    row, not raised, and ends the trace with an ``{"error_type",
    "error_message"}`` record; an unwritable ``trace_path`` raises
    ``OSError`` before the solve starts."""
    with open(trace_path, "w") if trace_path is not None else contextlib.nullcontext() as trace:

        def write(record: dict):
            trace.write(json.dumps(record, sort_keys=True) + "\n")

        sink = None if trace is None else lambda rec: write(rec.to_dict())
        u0 = default_control(problem, name)
        counters = EvalCounters()
        start = time.perf_counter()
        try:
            outcome = solve(problem, u0, config, counters=counters, trace_sink=sink)
            error = None
        except Exception as exc:
            outcome = None
            error = exc
        wall_ms = 1000.0 * (time.perf_counter() - start)
        if error is not None and trace is not None:
            write({"error_type": type(error).__name__, "error_message": str(error)})
    failed = error is not None
    row = ExperimentRow(
        problem=name,
        theta=config.theta,
        eps_r=config.eps_R,
        eps_g=config.eps_g,
        status="error" if failed else outcome.status.value,
        iterations=0 if failed else outcome.iterations,
        successes=0 if failed else outcome.successes,
        pde_solves=counters.forward_solves,
        adjoint_solves=counters.adjoint_solves,
        jvp=counters.jacobian_applies,
        cg_iters=counters.cg_iterations,
        final_residual_norm=float("nan") if failed else outcome.residual_norm,
        final_scaled_gradient=float("nan") if failed else outcome.scaled_gradient,
        error_type=type(error).__name__ if failed else "",
        error_message=str(error) if failed else "",
        wall_ms=wall_ms,
    )
    return row, error


def run_experiment(spec: ExperimentSpec) -> list[ExperimentRow]:
    """Run every grid cell with fresh counters; write CSVs and traces.

    Cells are independent; a failing cell is recorded with status "error"
    and its exception's class and message in ``error_type`` and
    ``error_message``, its trace ends with an ``{"error_type",
    "error_message"}`` record, and the sweep continues.
    Output is deterministic apart from wall times.
    """
    problem = PROBLEMS[spec.problem](**spec.problem_params)
    out_dir = Path(spec.out_dir) if spec.out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[ExperimentRow] = []
    for eps_r, eps_g in spec.eps_grid:
        for theta in spec.theta_grid:
            trace_path = None
            if out_dir is not None:
                trace_path = out_dir / f"trace_{_cell_tag(spec, theta, eps_r, eps_g)}.jsonl"
            config = spec._solver_config(theta, eps_r, eps_g)
            rows.append(_run_cell(problem, spec.problem, config, trace_path)[0])
    if out_dir is not None:
        (out_dir / "summary.csv").write_text(summary_csv(rows))
        for metric in ("pde_solves", "jvp"):
            (out_dir / f"table_{metric}.csv").write_text(render_table(rows, metric))
    return rows


def _summary_cell(column: str, value) -> str:
    if isinstance(value, float):
        return format(value, _SUMMARY_FLOAT_FORMATS.get(column, "g"))
    return str(value)


def summary_csv(rows: list[ExperimentRow]) -> str:
    """The rows under the preamble; a field with a comma, quote or line
    break (an error message, say) is quoted as ``csv`` does."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(SUMMARY_COLUMNS)
    writer.writerows([_summary_cell(c, getattr(r, c)) for c in SUMMARY_COLUMNS] for r in rows)
    return CSV_PREAMBLE + text.getvalue()


def render_table(rows: list[ExperimentRow], metric: str) -> str:
    """Pivot rows into the benchmark-table layout as CSV text.

    One line per tolerance pair in first-seen order, one column per theta in
    ascending order. Cells whose run did not satisfy a stopping condition
    render as a dash.
    """
    if metric not in ("pde_solves", "jvp"):
        raise ValueError(f"metric must be 'pde_solves' or 'jvp', got {metric!r}")
    thetas = sorted({r.theta for r in rows})
    pairs: list[tuple[float, float]] = []
    for r in rows:
        if (r.eps_r, r.eps_g) not in pairs:
            pairs.append((r.eps_r, r.eps_g))
    cell = {(r.eps_r, r.eps_g, r.theta): r for r in rows}
    lines = [CSV_PREAMBLE + "eps_r,eps_g," + ",".join(f"theta={t:g}" for t in thetas)]
    for eps_r, eps_g in pairs:
        vals = []
        converged_statuses = (
            SolveStatus.CONVERGED_RESIDUAL.value,
            SolveStatus.CONVERGED_SCALED_GRADIENT.value,
        )
        for t in thetas:
            r = cell.get((eps_r, eps_g, t))
            if r is not None and r.status in converged_statuses:
                vals.append(str(getattr(r, metric)))
            else:
                vals.append("-")
        lines.append(f"{eps_r:g},{eps_g:g}," + ",".join(vals))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command line


# sizes of an unset size flag; every other unset flag keeps the constructor's default
_SIZE_DEFAULTS = {"elliptic": {"N": 20}, "burgers": {"nx": 16, "nt": 16}}


def _add_problem_args(parser):
    # dests are constructor keywords; problem_flags maps each to its flag
    parser.add_argument("problem", choices=list(PROBLEMS))
    flags = [
        parser.add_argument("--n-mesh", dest="N", type=int,
                            help="elliptic mesh subdivisions (default 20)"),
        parser.add_argument("--lambda", dest="lam", type=float,
                            help="elliptic control regularization"),
        parser.add_argument("--z", dest="z_choice", choices=["zero", "one"],
                            help="elliptic desired state"),
        parser.add_argument("--nx", type=int, help="burgers spatial resolution (default 16)"),
        parser.add_argument("--nt", type=int, help="burgers time steps (default 16)"),
        parser.add_argument("--nu", type=float, help="burgers viscosity"),
        parser.add_argument("--omega", type=float, help="burgers control regularization"),
    ]
    parser.set_defaults(problem_flags={a.dest: a.option_strings[0] for a in flags})


def _add_solver_args(parser):
    # dests are SolverConfig fields; an unset flag leaves SolverConfig's default
    parser.add_argument("--eta", type=float)
    parser.add_argument("--gamma-min", type=float)
    parser.add_argument("--max-iter", type=int)
    parser.add_argument("--hessian", dest="hessian_mode", choices=HESSIAN_MODES,
                        type=lambda mode: mode.replace("-", "_"))


def _set_args(args, names) -> dict:
    """The flags among ``names`` that are set, by name."""
    return {k: v for k, v in vars(args).items() if k in names and v is not None}


def _problem_params(args) -> dict:
    """The chosen problem's constructor keywords: its size defaults and the
    set problem flags. Set flags that it does not take raise ``ValueError``."""
    params = _set_args(args, args.problem_flags)
    taken = inspect.signature(PROBLEMS[args.problem]).parameters
    foreign = [args.problem_flags[name] for name in params if name not in taken]
    if foreign:
        raise ValueError(f"the {args.problem} problem takes no {', '.join(foreign)}")
    return _SIZE_DEFAULTS[args.problem] | params


def _default_eps_grid(problem: str, z_choice: str | None) -> tuple:
    if problem == "burgers":
        return ((1e-2, 1e-3), (1e-2, 1e-4), (1e-2, 1e-6))
    if z_choice == "one":
        return ((1e-2, 1e-4), (1e-2, 1e-6), (1e-2, 1e-8))
    return ((1e-3, 1e-4), (1e-6, 1e-4), (1e-9, 1e-4))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="iclsq",
        description="Regularized Gauss-Newton experiments for implicitly "
        "constrained least squares",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a single configuration")
    _add_problem_args(p_solve)
    _add_solver_args(p_solve)
    p_solve.add_argument("--theta", type=float)
    p_solve.add_argument("--eps-r", dest="eps_R", type=float)
    p_solve.add_argument("--eps-g", type=float)
    p_solve.add_argument("--jsonl", type=Path, default=None,
                         help="write the iteration trace to this file")

    p_sweep = sub.add_parser("sweep", help="run a tolerance x theta grid")
    _add_problem_args(p_sweep)
    _add_solver_args(p_sweep)
    p_sweep.add_argument("--grid-file", type=Path, default=None,
                         help="JSON file with 'theta' and 'eps' (pairs) lists")
    p_sweep.add_argument("--out-dir", type=Path, required=True)

    args = parser.parse_args(argv)

    if args.command == "solve":
        # a failed solve comes back with the row; what escapes _run_cell is a
        # bad setting or an unwritable trace path, refused before any solve
        try:
            problem = PROBLEMS[args.problem](**_problem_params(args))
            config = SolverConfig(**_set_args(args, _SOLVER_FIELDS))
            row, error = _run_cell(problem, args.problem, config, args.jsonl)
        except (OSError, ValueError) as exc:
            return _setting_error(exc)
        if error is not None:
            print(f"solver error: {error}", file=sys.stderr)
            return 2
        print(
            f"{row.problem}: {row.status} after {row.iterations} "
            f"iterations ({row.successes} successful), "
            f"pde_solves={row.pde_solves}, adjoint_solves={row.adjoint_solves}, "
            f"jvp={row.jvp}, cg_iters={row.cg_iters}, "
            f"final |R|={row.final_residual_norm:.3e}, "
            f"scaled gradient={row.final_scaled_gradient:.3e}"
        )
        return 0

    # sweep: every cell records its own failure, so what escapes
    # run_experiment is a bad setting, grid file or output directory
    try:
        if args.grid_file is not None:
            theta_grid, eps_grid = _read_grid(args.grid_file)
        else:
            theta_grid = DEFAULT_THETA_GRID
            eps_grid = _default_eps_grid(args.problem, args.z_choice)
        spec = ExperimentSpec(
            problem=args.problem,
            problem_params=_problem_params(args),
            theta_grid=theta_grid,
            eps_grid=eps_grid,
            out_dir=args.out_dir,
            **_set_args(args, _SOLVER_FIELDS),
        )
        rows = run_experiment(spec)
    except (OSError, ValueError) as exc:
        return _setting_error(exc)
    print(render_table(rows, "pde_solves"))
    if any(r.status == "error" for r in rows):
        return 2
    return 0


def _read_grid(path: Path) -> tuple[tuple, tuple]:
    """(theta grid, tolerance pairs) from a JSON grid file."""
    grid = json.loads(path.read_text())
    try:
        theta_grid = tuple(float(theta) for theta in grid["theta"])
        eps_grid = tuple((float(a), float(b)) for a, b in grid["eps"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"grid file {path} needs a 'theta' list and an 'eps' list of pairs ({exc!r})"
        ) from exc
    return theta_grid, eps_grid


def _setting_error(exc: Exception) -> int:
    """Report an invalid setting as one line on stderr; exit code 2."""
    print(f"error: {exc}", file=sys.stderr)
    return 2
