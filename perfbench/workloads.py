"""The benchmark's workloads: problem, starting control, solver settings, reference.

Each workload is one closed-loop client in one single-threaded process: a
single ``iclsq.solve`` or a single ``iclsq.run_experiment`` sweep at a time.
Only the stable surface of the package is used here (``iclsq.solve``,
``SolverConfig``, ``EllipticProblem``, ``BurgersProblem``, ``ExperimentSpec``,
``run_experiment``, ``EvalCounters``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import iclsq
import numpy as np

# Seed 0 starts from the paper's control; any other seed adds a seeded
# perturbation of this amplitude to it.
PERTURBATION = 1e-3

# Relative tolerance on the final objective 0.5*||R||^2 against the value
# recorded at seed 0. The perturbation moves the start, not the minimizer,
# so converged runs from any seed land within it.
OBJECTIVE_RTOL = 1e-3


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration.

    ``problem`` and ``params`` name the problem constructor and its keyword
    arguments. A workload with ``sweep`` set runs ``run_experiment`` over
    ``sweep = (theta_grid, eps_grid)``; otherwise it runs one ``solve`` with
    ``solver`` as the ``SolverConfig`` keywords. ``reference`` is the final
    objective at seed 0 of every solve or cell, keyed by ``cell_key``.
    """

    name: str
    problem: str
    params: dict
    solver: dict = field(default_factory=dict)
    sweep: tuple | None = None
    reference: dict = field(default_factory=dict)

    def build(self):
        if self.problem == "elliptic":
            return iclsq.EllipticProblem(**self.params)
        return iclsq.BurgersProblem(**self.params)

    def start(self, n: int, seed: int) -> np.ndarray:
        """Paper start (ones for elliptic, zeros for Burgers), perturbed if seed != 0."""
        u0 = np.ones(n) if self.problem == "elliptic" else np.zeros(n)
        if seed != 0:
            u0 = u0 + PERTURBATION * np.random.default_rng(seed).standard_normal(n)
        return u0

    def cells(self) -> list[dict]:
        """SolverConfig keywords of every solve the workload runs, in order."""
        if self.sweep is None:
            return [dict(self.solver)]
        theta_grid, eps_grid = self.sweep
        return [
            dict(self.solver, theta=theta, eps_R=eps_r, eps_g=eps_g)
            for eps_r, eps_g in eps_grid
            for theta in theta_grid
        ]


def cell_key(cfg: dict) -> str:
    return f"theta={cfg['theta']:g},eps_R={cfg['eps_R']:g},eps_g={cfg['eps_g']:g}"


# Why each workload is here is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="elliptic-n80",
            problem="elliptic",
            params=dict(N=80, z_choice="one"),
            solver=dict(theta=1e-2, eps_R=1e-2, eps_g=1e-4, hessian_mode="gauss_newton"),
            reference={"theta=0.01,eps_R=0.01,eps_g=0.0001": 0.24108436646},
        ),
        Workload(
            name="burgers-n128-gn",
            problem="burgers",
            params=dict(nx=128, nt=32, nu=0.01),
            solver=dict(theta=1e-2, eps_R=1e-2, eps_g=1e-6, hessian_mode="gauss_newton"),
            reference={"theta=0.01,eps_R=0.01,eps_g=1e-06": 0.063112524127},
        ),
        Workload(
            name="burgers-n128-zero",
            problem="burgers",
            params=dict(nx=128, nt=32, nu=0.01),
            solver=dict(theta=1e-2, eps_R=1e-2, eps_g=1e-5, hessian_mode="zero"),
            reference={"theta=0.01,eps_R=0.01,eps_g=1e-05": 0.063112689388},
        ),
        Workload(
            name="burgers-sweep",
            problem="burgers",
            params=dict(nx=16, nt=16, nu=0.01),
            solver=dict(hessian_mode="gauss_newton"),
            sweep=((0.0, 1e-4, 1e-2, 0.5), ((1e-2, 1e-4), (1e-2, 1e-6))),
            reference={
                "theta=0,eps_R=0.01,eps_g=0.0001": 0.045476769249,
                "theta=0.0001,eps_R=0.01,eps_g=0.0001": 0.045476769249,
                "theta=0.01,eps_R=0.01,eps_g=0.0001": 0.045476769869,
                "theta=0.5,eps_R=0.01,eps_g=0.0001": 0.045476786983,
                "theta=0,eps_R=0.01,eps_g=1e-06": 0.045476377694,
                "theta=0.0001,eps_R=0.01,eps_g=1e-06": 0.045476377694,
                "theta=0.01,eps_R=0.01,eps_g=1e-06": 0.045476377694,
                "theta=0.5,eps_R=0.01,eps_g=1e-06": 0.045476377693,
            },
        ),
    )
}

# Tiny variants of the workloads' shapes, for the benchmark's self-test.
TINY = {
    "tiny-elliptic": Workload(
        name="tiny-elliptic",
        problem="elliptic",
        params=dict(N=8, z_choice="one"),
        solver=dict(theta=1e-2, eps_R=1e-2, eps_g=1e-4, hessian_mode="gauss_newton"),
        reference={"theta=0.01,eps_R=0.01,eps_g=0.0001": 0.13591856449},
    ),
    "tiny-burgers-zero": Workload(
        name="tiny-burgers-zero",
        problem="burgers",
        params=dict(nx=8, nt=4, nu=0.01),
        solver=dict(theta=1e-2, eps_R=1e-2, eps_g=1e-5, hessian_mode="zero"),
        reference={"theta=0.01,eps_R=0.01,eps_g=1e-05": 0.032156687755},
    ),
    "tiny-sweep": Workload(
        name="tiny-sweep",
        problem="burgers",
        params=dict(nx=8, nt=4, nu=0.01),
        solver=dict(hessian_mode="gauss_newton"),
        sweep=((0.0, 1e-2), ((1e-2, 1e-4),)),
        reference={
            "theta=0,eps_R=0.01,eps_g=0.0001": 0.032156695757,
            "theta=0.01,eps_R=0.01,eps_g=0.0001": 0.032156695766,
        },
    ),
}
