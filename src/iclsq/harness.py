"""Experiment runner, replication grids, and the CLI.

Runs the solver over a grid of inexactness levels and stopping tolerances,
mirroring the benchmark tables: one row of the rendered grid per tolerance
pair, one column per theta, counts of forward solves or Jacobian products in
the cells, a dash where the budget ran out. ``ExperimentSpec._cells`` is
the one list of a sweep's cells. A sweep's cells share one trajectory, which
runs one stream of iterates per theta, every stream from the one start at
u0. A sweep cell and ``iclsq solve`` run through the same cell runner, so
both trace to JSONL alike and end a failed run's trace with its exception. Each command has one sub-parser per
problem, which takes only that problem's flags.
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
from .solver import HESSIAN_MODES, SolverConfig, SolveStatus, Trajectory, solve

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
# each problem's constructor keywords (the dests of its flags) and their defaults
_KEYWORDS = {name: {k: p.default for k, p in inspect.signature(cls).parameters.items()}
             for name, cls in PROBLEMS.items()}

_SOLVER_FIELDS = {f.name for f in fields(SolverConfig)}

# Conventions recorded atop every emitted CSV.
CSV_PREAMBLE = (
    "# jvp counts every application of the reduced Jacobian or its transpose,\n"
    "# so one Gauss-Newton curvature product costs 2; the initial gradient's\n"
    "# transpose application is included, curvature-norm probes are not.\n"
    "# pde_solves includes the solve at the starting control.\n"
)

# a table shows the count of a cell whose run ended with one of these
_CONVERGED = (SolveStatus.CONVERGED_RESIDUAL.value, SolveStatus.CONVERGED_SCALED_GRADIENT.value)


@dataclass
class ExperimentSpec:
    """One table-style sweep: a problem plus tolerance and theta grids.

    ``problem_params`` are the keyword arguments of the problem's
    constructor (``PROBLEMS[problem]``), so the sizes are required: ``N`` for
    elliptic, ``nx`` and ``nt`` for Burgers. The solver fields default to
    ``SolverConfig``'s. Every cell is checked before any runs, by building
    ``_cells``: a setting ``SolverConfig`` rejects, or two cells whose output
    files would share a name, raise ``ValueError``.
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
        self._cells()

    def _cells(self) -> dict[str, SolverConfig]:
        """``{trace tag: SolverConfig}`` of every cell in run order: tolerance
        pairs outer, theta inner. Built anew on each call, since the spec is
        mutable; a repeated tag raises ``ValueError``."""
        shared = {f.name: getattr(self, f.name) for f in fields(self) if f.name in _SOLVER_FIELDS}
        cells = {}
        for eps_r, eps_g in self.eps_grid:
            for theta in self.theta_grid:
                config = SolverConfig(eps_R=eps_r, eps_g=eps_g, theta=theta, **shared)
                tag = (f"{self.problem}_theta{config.theta:g}"
                       f"_epsr{config.eps_R:g}_epsg{config.eps_g:g}")
                if tag in cells:
                    raise ValueError(f"two grid cells share the name {tag!r}")
                cells[tag] = config
        return cells


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


def _run_cell(
    problem: ImplicitProblem, name: str, config: SolverConfig, trace_path: Path | None,
    trajectory: Trajectory | None = None,
) -> ExperimentRow:
    """Solve from ``default_control``, one JSONL record per iteration to
    ``trace_path`` if given, reading the result off ``trajectory`` if given.
    An exception of the solve is not raised: the row gets status "error" and
    its class and message, and the trace ends with an ``{"error_type",
    "error_message"}`` record. An unwritable ``trace_path`` raises
    ``OSError`` before the solve starts. ``wall_ms`` is the solve's wall
    time, or with a trajectory its stream's elapsed time at this cell's stop."""
    with open(trace_path, "w") if trace_path is not None else contextlib.nullcontext() as trace:

        def write(record: dict):
            trace.write(json.dumps(record, sort_keys=True) + "\n")

        sink = None if trace is None else lambda rec: write(rec.to_dict())
        u0 = default_control(problem, name)
        counters = EvalCounters()
        start = time.perf_counter()
        try:
            outcome = solve(problem, u0, config, counters=counters, trace_sink=sink,
                            trajectory=trajectory)
            error = None
        except Exception as exc:
            outcome = None
            error = exc
        wall_ms = 1000.0 * (time.perf_counter() - start if trajectory is None
                            else trajectory.wall_s)
        if error is not None and trace is not None:
            write({"error_type": type(error).__name__, "error_message": str(error)})
    failed = error is not None
    return ExperimentRow(
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


def run_experiment(spec: ExperimentSpec) -> list[ExperimentRow]:
    """Run the cells of ``spec._cells()`` in order, each through ``_run_cell``
    with fresh counters; write CSVs and traces.

    Every cell reads its result off one ``Trajectory``. The cells of one
    theta differ only in their tolerances, so the trajectory runs one stream
    of iterates per theta, and each cell reads its row and trace off its
    stream at its own stop. The streams share the trajectory's one start,
    the work before the first step (the state solve, linearization and
    gradient at u0, and the first curvature-norm estimate), done once for
    the sweep. A cell's ``wall_ms`` is its stream's elapsed time at that
    stop. Each row keeps the paper's per-cell counts, those of an
    independent run of the cell, start included, so their sum exceeds the
    work the sweep did. A failing cell is recorded with status "error" and
    its exception's class and message in ``error_type`` and
    ``error_message``, its trace ends with an ``{"error_type",
    "error_message"}`` record, and the sweep continues. Output is
    deterministic apart from wall times.
    """
    cells = spec._cells()
    problem = PROBLEMS[spec.problem](**spec.problem_params)
    out_dir = Path(spec.out_dir) if spec.out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    trajectory = Trajectory()  # one stream per theta, all from one start at u0
    rows = [
        _run_cell(problem, spec.problem, config,
                  None if out_dir is None else out_dir / f"trace_{tag}.jsonl", trajectory)
        for tag, config in cells.items()
    ]
    if out_dir is not None:
        (out_dir / "summary.csv").write_text(summary_csv(rows))
        for metric in ("pde_solves", "jvp"):
            (out_dir / f"table_{metric}.csv").write_text(render_table(rows, metric))
    return rows


def _summary_cell(column: str, value) -> str:
    if isinstance(value, float):
        return format(value, _SUMMARY_FLOAT_FORMATS.get(column, "g"))
    return str(value)


def _csv(header, lines) -> str:
    """``header`` and ``lines`` under the preamble; a field with a comma,
    quote or line break (an error message, say) is quoted as ``csv`` does."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(lines)
    return CSV_PREAMBLE + text.getvalue()


def summary_csv(rows: list[ExperimentRow]) -> str:
    """One line per row, every ``ExperimentRow`` field a column."""
    return _csv(SUMMARY_COLUMNS, ([_summary_cell(c, getattr(r, c)) for c in SUMMARY_COLUMNS]
                                  for r in rows))


def render_table(rows: list[ExperimentRow], metric: str) -> str:
    """Pivot rows into the benchmark-table layout as CSV text.

    One line per tolerance pair in first-seen order, one column per theta in
    ascending order. Cells whose run did not satisfy a stopping condition
    render as a dash.
    """
    if metric not in ("pde_solves", "jvp"):
        raise ValueError(f"metric must be 'pde_solves' or 'jvp', got {metric!r}")
    thetas = sorted({r.theta for r in rows})
    pairs = dict.fromkeys((r.eps_r, r.eps_g) for r in rows)
    shown = {(r.eps_r, r.eps_g, r.theta): str(getattr(r, metric)) if r.status in _CONVERGED
             else "-" for r in rows}
    return _csv(
        ["eps_r", "eps_g", *(f"theta={t:g}" for t in thetas)],
        ([f"{eps_r:g}", f"{eps_g:g}", *(shown.get((eps_r, eps_g, t), "-") for t in thetas)]
         for eps_r, eps_g in pairs),
    )


# ---------------------------------------------------------------------------
# command line


# add_argument's arguments: each problem's flags, the solver flags of every
# command, and each command's own. The dests are constructor keywords and
# SolverConfig fields; an unset flag without a default keeps their default.
_FLAGS = {
    "elliptic": [
        ("--n-mesh", dict(dest="N", type=int, default=20, help="mesh subdivisions (default 20)")),
        ("--lambda", dict(dest="lam", type=float, help="control regularization "
                          f"(default {_KEYWORDS['elliptic']['lam']:g})")),
        ("--z", dict(dest="z_choice", choices=["zero", "one"], help="desired state "
                     f"(default {_KEYWORDS['elliptic']['z_choice']})")),
    ],
    "burgers": [
        ("--nx", dict(type=int, default=16, help="spatial resolution (default 16)")),
        ("--nt", dict(type=int, default=16, help="time steps (default 16)")),
        ("--nu", dict(type=float, help=f"viscosity (default {_KEYWORDS['burgers']['nu']:g})")),
        ("--omega", dict(type=float, help="control regularization "
                         f"(default {_KEYWORDS['burgers']['omega']:g})")),
    ],
    "solver": [
        ("--eta", dict(type=float, help="least ratio of actual to predicted decrease that "
                       f"accepts a step (default {SolverConfig.eta:g})")),
        ("--gamma-min", dict(type=float, help="floor of the regularization weight "
                             f"(default {SolverConfig.gamma_min:g})")),
        ("--max-iter", dict(type=int, help="iteration budget "
                            f"(default {SolverConfig.max_iter})")),
        ("--hessian", dict(dest="hessian_mode", choices=HESSIAN_MODES,
                           type=lambda mode: mode.replace("-", "_"),
                           help=f"model curvature (default {SolverConfig.hessian_mode})")),
    ],
    "solve": [
        ("--theta", dict(type=float, help="relative inexactness of the CG steps, 0 for exact "
                         f"steps (default {SolverConfig.theta:g})")),
        ("--eps-r", dict(dest="eps_R", type=float, help="residual norm tolerance "
                         f"(default {SolverConfig.eps_R:g})")),
        ("--eps-g", dict(type=float, help="scaled gradient tolerance "
                         f"(default {SolverConfig.eps_g:g})")),
        ("--jsonl", dict(type=Path, help="write the iteration trace to this file")),
    ],
    "sweep": [
        ("--grid-file", dict(type=Path, help="JSON file with 'theta' and 'eps' (pairs) lists")),
        ("--out-dir", dict(type=Path, required=True,
                           help="directory for summary.csv, the table CSVs and the traces")),
    ],
}


def _set_args(args, names) -> dict:
    """The flags among ``names`` that are set, by name."""
    return {k: v for k, v in vars(args).items() if k in names and v is not None}


def _default_eps_grid(problem: str, params: dict) -> tuple:
    if problem == "burgers":
        return ((1e-2, 1e-3), (1e-2, 1e-4), (1e-2, 1e-6))
    if params.get("z_choice") == "one":
        return ((1e-2, 1e-4), (1e-2, 1e-6), (1e-2, 1e-8))
    return ((1e-3, 1e-4), (1e-6, 1e-4), (1e-9, 1e-4))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="iclsq",
        description="Regularized Gauss-Newton experiments for implicitly "
        "constrained least squares",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, command_help in (("solve", "run a single configuration"),
                                  ("sweep", "run a tolerance x theta grid")):
        problems = commands.add_parser(command, help=command_help).add_subparsers(
            dest="problem", required=True)
        for name in PROBLEMS:
            p_problem = problems.add_parser(name, help=f"the {name} problem")
            for flag, kwargs in _FLAGS[name] + _FLAGS["solver"] + _FLAGS[command]:
                p_problem.add_argument(flag, **kwargs)

    args = parser.parse_args(argv)
    params = _set_args(args, _KEYWORDS[args.problem])
    settings = _set_args(args, _SOLVER_FIELDS)

    # every cell records its own failure, so what escapes is a bad setting,
    # grid file, trace path or output directory, refused before any solve
    try:
        if args.command == "solve":
            problem = PROBLEMS[args.problem](**params)
            rows = [_run_cell(problem, args.problem, SolverConfig(**settings), args.jsonl)]
        else:
            if args.grid_file is not None:
                theta_grid, eps_grid = _read_grid(args.grid_file)
            else:
                theta_grid, eps_grid = DEFAULT_THETA_GRID, _default_eps_grid(args.problem, params)
            rows = run_experiment(ExperimentSpec(
                problem=args.problem, problem_params=params, theta_grid=theta_grid,
                eps_grid=eps_grid, out_dir=args.out_dir, **settings))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "sweep":
        print(render_table(rows, "pde_solves"), end="")
    elif rows[0].status == "error":
        print(f"solver error: {rows[0].error_message}", file=sys.stderr)
    else:
        [row] = rows
        print(
            f"{row.problem}: {row.status} after {row.iterations} "
            f"iterations ({row.successes} successful), "
            f"pde_solves={row.pde_solves}, adjoint_solves={row.adjoint_solves}, "
            f"jvp={row.jvp}, cg_iters={row.cg_iters}, "
            f"final |R|={row.final_residual_norm:.3e}, "
            f"scaled gradient={row.final_scaled_gradient:.3e}"
        )
    return 2 if any(r.status == "error" for r in rows) else 0


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

