"""Harness: experiment sweeps, table rendering, CLI; and the test oracles."""

import csv
import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import iclsq
import iclsq.solver as solver_mod
from iclsq import harness
from iclsq.burgers import BurgersProblem
from iclsq.elliptic import EllipticProblem
from iclsq.harness import (
    DEFAULT_THETA_GRID,
    ExperimentRow,
    ExperimentSpec,
    main,
    render_table,
    run_experiment,
    summary_csv,
)
from iclsq.solver import SolverConfig, solve

from conftest import IdentityProblem, dense_jacobian_oracle, fd_gradient_oracle, solve_traced


class TestFdOracle:
    def test_quadratic_reduced_map(self, rng):
        prob = IdentityProblem(5)
        u = rng.standard_normal(5)
        grad = fd_gradient_oracle(prob, u, step=1e-6)
        np.testing.assert_allclose(grad, u, atol=1e-9)

    def test_step_sensitivity_elliptic(self):
        prob = EllipticProblem(5, z_choice="one")
        u = np.ones(prob.n)
        g_a = fd_gradient_oracle(prob, u, step=1e-5)
        g_b = fd_gradient_oracle(prob, u, step=5e-6)
        rel = np.linalg.norm(g_a - g_b) / (1 + np.linalg.norm(g_b))
        assert rel < 1e-7

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            fd_gradient_oracle(IdentityProblem(2), np.zeros(2), step=0.0)


class TestDenseOracle:
    def test_identity_problem(self):
        dense = dense_jacobian_oracle(IdentityProblem(4), np.zeros(4))
        np.testing.assert_allclose(dense, np.eye(4), atol=1e-14)

    def test_transpose_consistency(self, rng):
        from iclsq.adjoint import ReducedJacobian

        for N in (4, 7):  # N = 7 is 36 x 504, under the 10^5-entry cap
            prob = EllipticProblem(N, z_choice="one")
            u = rng.standard_normal(prob.n)
            dense = dense_jacobian_oracle(prob, u)
            jac = ReducedJacobian(prob, prob.linearize(prob.solve_state(u), u))
            w = rng.standard_normal(prob.m)
            np.testing.assert_allclose(jac.apply_transpose(w), dense.T @ w, atol=1e-10)

    def test_size_guard(self):
        prob = EllipticProblem(13)  # 144 * 964 entries, over the cap
        with pytest.raises(ValueError):
            dense_jacobian_oracle(prob, np.zeros(prob.n))


def make_row(theta, eps_r=1e-3, eps_g=1e-4, status="converged_residual", pde=7, jvp=20):
    return ExperimentRow(
        problem="elliptic",
        theta=theta,
        eps_r=eps_r,
        eps_g=eps_g,
        status=status,
        iterations=pde - 1,
        successes=pde - 1,
        pde_solves=pde,
        adjoint_solves=pde,
        jvp=jvp,
        cg_iters=5,
        final_residual_norm=1e-4,
        final_scaled_gradient=1e-2,
        error_type="",
        error_message="",
        wall_ms=1.0,
    )


class TestRenderTable:
    def test_single_cell(self):
        text = render_table([make_row(0.0)], "pde_solves")
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body == ["eps_r,eps_g,theta=0", "0.001,0.0001,7"]

    def test_budget_exhausted_renders_dash(self):
        rows = [make_row(0.0), make_row(0.5, status="budget_exhausted")]
        text = render_table(rows, "jvp")
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body[-1] == "0.001,0.0001,20,-"

    def test_bad_metric(self):
        with pytest.raises(ValueError):
            render_table([make_row(0.0)], "wall_ms")

    def test_empty_theta_grid_fails_at_spec_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="elliptic", theta_grid=(), eps_grid=((1e-3, 1e-4),))
        with pytest.raises(ValueError):
            ExperimentSpec(problem="elliptic", eps_grid=())


class TestExperimentSpec:
    def test_unknown_problem_is_rejected(self):
        with pytest.raises(ValueError, match="unknown problem 'heat'"):
            ExperimentSpec(problem="heat", eps_grid=((1e-3, 1e-4),))

    @pytest.mark.parametrize(
        "theta_grid,eps_grid",
        [
            ((0.01, 0.01), ((1e-2, 1e-4),)),
            ((1e-6, 1.0000001e-6), ((1e-2, 1e-4),)),  # equal under :g
            ((0.0,), ((1e-2, 1e-4), (1e-2, 1e-4))),
        ],
    )
    def test_cells_sharing_a_file_name_are_rejected(self, theta_grid, eps_grid):
        with pytest.raises(ValueError, match="share"):
            ExperimentSpec(
                problem="burgers",
                problem_params={"nx": 4, "nt": 4},
                theta_grid=theta_grid,
                eps_grid=eps_grid,
            )

    def test_problem_params_are_constructor_keywords(self, monkeypatch):
        solved = []

        def recording_solve(problem, *args, **kwargs):
            solved.append(problem)
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(harness, "solve", recording_solve)
        spec = ExperimentSpec(
            problem="elliptic",
            problem_params={"N": 6, "z_choice": "one"},
            theta_grid=(0.1,),
            eps_grid=((1e-2, 1e-4),),
        )
        (row,) = run_experiment(spec)
        (problem,) = solved
        assert problem.N == 6
        np.testing.assert_array_equal(problem.z, np.ones(25))
        direct = solve(
            EllipticProblem(6, z_choice="one"),
            np.ones(25),
            SolverConfig(eps_R=1e-2, eps_g=1e-4, theta=0.1),
        )
        assert (row.iterations, row.pde_solves, row.jvp) == (
            direct.iterations,
            direct.counters.forward_solves,
            direct.counters.jacobian_applies,
        )

    def test_unknown_problem_param_fails_before_any_cell(self, monkeypatch, tmp_path):
        monkeypatch.setattr(harness, "solve", lambda *a, **k: pytest.fail("a cell ran"))
        out_dir = tmp_path / "out"
        spec = ExperimentSpec(
            problem="burgers",
            problem_params={"nx": 8, "nt": 4, "nu_typo": 1.0},
            theta_grid=(0.0,),
            eps_grid=((1e-2, 1e-4),),
            out_dir=out_dir,
        )
        with pytest.raises(TypeError, match="nu_typo"):
            run_experiment(spec)
        assert not out_dir.exists()

    def test_non_integer_max_iter_fails_before_any_cell(self, monkeypatch):
        monkeypatch.setattr(harness, "solve", lambda *a, **k: pytest.fail("a cell ran"))
        with pytest.raises(ValueError, match="max_iter"):
            ExperimentSpec(
                problem="burgers",
                problem_params={"nx": 4, "nt": 4},
                theta_grid=(0.0,),
                eps_grid=((1e-2, 1e-4),),
                max_iter=2.5,
            )


@pytest.fixture(scope="module")
def small_spec(tmp_path_factory):
    return ExperimentSpec(
        problem="elliptic",
        problem_params={"N": 5, "z_choice": "one"},
        theta_grid=(0.0, 1e-1),
        eps_grid=((1e-2, 1e-4), (1e-2, 1e-6)),
        max_iter=200,
        out_dir=tmp_path_factory.mktemp("sweep"),
    )


class TestRunExperiment:
    def test_grid_shape_and_counters(self, small_spec):
        rows = run_experiment(small_spec)
        assert len(rows) == 4
        for row in rows:
            assert row.status in (
                "converged_residual",
                "converged_scaled_gradient",
                "budget_exhausted",
            )
            assert row.pde_solves == row.iterations + 1

    def test_one_trajectory_one_stream_per_theta(self, small_spec, monkeypatch):
        built = []

        def counted(cls):
            class Counted(cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    built.append(cls.__name__)
            return Counted

        monkeypatch.setattr(harness, "Trajectory", counted(harness.Trajectory))
        monkeypatch.setattr(solver_mod, "_Stream", counted(solver_mod._Stream))
        rows = run_experiment(dataclasses.replace(small_spec, out_dir=None))
        assert len(rows) == 4 and len(small_spec.theta_grid) == 2
        assert sorted(built) == ["Trajectory", "_Stream", "_Stream"]

    def test_artifacts_written_and_parseable(self, small_spec):
        out_dir = small_spec.out_dir
        run_experiment(small_spec)
        summary = (out_dir / "summary.csv").read_text()
        header = [l for l in summary.splitlines() if not l.startswith("#")][0]
        assert header == (
            "problem,theta,eps_r,eps_g,status,iterations,successes,pde_solves,"
            "adjoint_solves,jvp,cg_iters,final_residual_norm,"
            "final_scaled_gradient,error_type,error_message,wall_ms"
        )
        assert (out_dir / "table_pde_solves.csv").exists()
        assert (out_dir / "table_jvp.csv").exists()
        traces = sorted(out_dir.glob("trace_*.jsonl"))
        assert len(traces) == 4
        records = [json.loads(line) for line in traces[0].read_text().splitlines()]
        assert records
        for rec in records:
            assert set(rec) >= {
                "k", "gamma", "residual_norm", "grad_norm", "scaled_gradient",
                "model_decrease", "actual_decrease", "rho", "success",
                "cg_iters", "counters", "h_norm_estimate", "cg_tolerance",
                "curvature_seen",
            }
            assert {
                "norm_estimates", "norm_probe_applies", "curvature_raises",
                "newton_iters", "trajectory_newton_iters", "predictor_solves",
            } <= set(rec["counters"])
        ks = [rec["k"] for rec in records]
        assert ks == list(range(len(ks)))

    def test_determinism(self, small_spec, tmp_path):
        rows_a = run_experiment(small_spec)
        rows_b = run_experiment(small_spec)
        assert render_table(rows_a, "pde_solves") == render_table(rows_b, "pde_solves")
        assert render_table(rows_a, "jvp") == render_table(rows_b, "jvp")

        def strip_wall(rows):
            return [summary_csv([r]).rsplit(",", 1)[0] for r in rows]

        assert strip_wall(rows_a) == strip_wall(rows_b)

    def test_paper_grid_shape(self, tmp_path):
        spec = ExperimentSpec(
            problem="elliptic",
            problem_params={"N": 4, "z_choice": "zero"},
            eps_grid=((1e-3, 1e-4), (1e-6, 1e-4), (1e-9, 1e-4)),
            max_iter=200,
        )
        rows = run_experiment(spec)
        text = render_table(rows, "pde_solves")
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(body) == 4  # header + one line per tolerance pair
        assert body[0].count("theta=") == len(DEFAULT_THETA_GRID)


class TestErrorRows:
    def test_failed_cell_recorded_and_sweep_continues(self, monkeypatch, tmp_path):
        import iclsq.harness as harness_mod

        real_solve = harness_mod.solve
        calls = {"count": 0}
        message = 'synthetic failure, "quoted"\non two lines'

        def flaky_solve(problem, u0, config, counters=None, trace_sink=None, trajectory=None):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError(message)
            return real_solve(problem, u0, config, counters=counters, trace_sink=trace_sink,
                              trajectory=trajectory)

        monkeypatch.setattr(harness_mod, "solve", flaky_solve)
        spec = ExperimentSpec(
            problem="elliptic",
            problem_params={"N": 4, "z_choice": "one"},
            theta_grid=(0.0, 1e-1),
            eps_grid=((1e-2, 1e-4),),
            out_dir=tmp_path,
        )
        rows = run_experiment(spec)
        assert [r.status for r in rows] == ["error", "converged_scaled_gradient"]
        table = render_table(rows, "pde_solves")
        assert table.splitlines()[-1].split(",")[2] == "-"

        # The failed cell says why, in its row, in summary.csv and in its trace.
        assert [r.error_type for r in rows] == ["RuntimeError", ""]
        with open(tmp_path / "summary.csv", newline="") as f:
            summary = list(csv.reader(line for line in f if not line.startswith("#")))
        assert summary[0][-3:] == ["error_type", "error_message", "wall_ms"]
        assert [line[-3:-1] for line in summary[1:]] == [["RuntimeError", message], ["", ""]]
        trace = tmp_path / "trace_elliptic_theta0_epsr0.01_epsg0.0001.jsonl"
        last = json.loads(trace.read_text().splitlines()[-1])
        assert last == {"error_type": "RuntimeError", "error_message": message}
        ok_trace = tmp_path / "trace_elliptic_theta0.1_epsr0.01_epsg0.0001.jsonl"
        assert "error_type" not in json.loads(ok_trace.read_text().splitlines()[-1])

    def test_overflowing_curvature_estimate_fails_the_cell(self, tmp_path):
        # ||J^T J v|| overflows at the first norm estimate, after the solve at u0
        trace = tmp_path / "trace.jsonl"
        problem = BurgersProblem(4, 2, omega=1e200)
        row = harness._run_cell(problem, "burgers", SolverConfig(), trace)
        assert (row.status, row.error_type, row.pde_solves) == ("error", "FloatingPointError", 1)
        assert "overflowed" in row.error_message
        last = json.loads(trace.read_text().splitlines()[-1])
        assert last == {"error_type": "FloatingPointError", "error_message": row.error_message}


class TestNearExactPostHoc:
    def test_exact_variant_satisfies_tight_inexactness_rule(self):
        # Accepted steps of the theta = 0 variant must satisfy the relative
        # termination rule with theta' = 1e-10 and the true curvature norm.
        prob = EllipticProblem(6, z_choice="one")
        cfg = SolverConfig(eps_R=1e-2, eps_g=1e-4, theta=0.0)
        out, trace = solve_traced(prob, np.ones(prob.n), cfg)
        assert out.successes > 0
        for t in trace:
            if not t.success:
                continue
            dense = dense_jacobian_oracle(prob, t.u)
            h_norm = float(np.linalg.norm(dense, 2)) ** 2
            tol = 1e-10 * math.sqrt(t.gamma / (h_norm + t.gamma)) * t.grad_norm
            assert t.step_residual_norm <= tol


class TestCli:
    # in a fresh interpreter, so each problem's lazy imports (pocketfft's
    # for elliptic) run there too
    @pytest.mark.parametrize("argv", [
        ["solve", "burgers", "--nx", "4", "--nt", "2", "--max-iter", "2"],
        ["solve", "elliptic", "--n-mesh", "2"],
    ], ids=["burgers", "elliptic"])
    def test_module_entry_runs_without_warnings(self, argv, tmp_path):
        src = str(Path(iclsq.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "iclsq", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert f"{argv[1]}:" in proc.stdout

    @pytest.mark.parametrize("settings,status", [
        (["elliptic", "--n-mesh", "5", "--z", "one",
          "--eps-r", "1e-2", "--eps-g", "1e-4", "--theta", "0.01"],
         "converged_scaled_gradient"),
        (["burgers", "--nx", "8", "--nt", "4"], "converged_scaled_gradient"),
        # past 32 nodes Burgers solves c_y per time step, not by one band LU
        (["burgers", "--nx", "40", "--nt", "2"], "converged_scaled_gradient"),
        # the edge cases of the stencils' index arithmetic: one interior
        # node, and one off-diagonal per block over one time step
        (["elliptic", "--n-mesh", "2"], "converged_residual"),
        (["burgers", "--nx", "2", "--nt", "1"], "converged_scaled_gradient"),
    ], ids=["elliptic5", "burgers8x4", "burgers40x2", "elliptic2", "burgers2x1"])
    def test_solve_command(self, settings, status, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(["solve", *settings, "--jsonl", str(trace)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith(f"{settings[0]}: {status} after ")
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records and not any("error_type" in record for record in records)

    def test_sweep_command(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"theta": [0.0, 0.1], "eps": [[1e-2, 1e-4]]}))
        out_dir = tmp_path / "out"
        code = main([
            "sweep", "burgers", "--nx", "6", "--nt", "6",
            "--grid-file", str(grid), "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "summary.csv").exists()
        assert len(list(out_dir.glob("trace_*.jsonl"))) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "burgers", "--gamma-min", "nan"],
            ["solve", "burgers", "--nu", "-1"],
            ["solve", "burgers", "--nu", "nan"],
            ["solve", "burgers", "--nx", "1"],
            ["solve", "elliptic", "--lambda", "inf"],
            ["solve", "burgers", "--theta", "1"],
        ],
    )
    def test_solve_rejects_bad_setting(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_removed_seed_flag_is_refused(self, command, capsys, tmp_path):
        # the cold norm estimate always starts from the same vector
        argv = [command, "elliptic", "--n-mesh", "4", "--seed", "1"]
        if command == "sweep":
            argv += ["--out-dir", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize(
        "settings",
        [
            ["elliptic", "--n-mesh", "4", "--nu", "5"],
            ["elliptic", "--n-mesh", "4", "--omega", "-3"],
            ["burgers", "--nx", "4", "--nt", "2", "--lambda", "-1"],
            ["burgers", "--nx", "4", "--nt", "2", "--n-mesh", "0"],
            ["burgers", "--nx", "4", "--nt", "2", "--z", "one"],
        ],
        ids=lambda settings: f"{settings[0]}{settings[-2]}",
    )
    def test_rejects_flag_of_other_problem(self, command, settings, capsys, monkeypatch, tmp_path):
        # the flag of the other problem is the one before last; each problem's
        # sub-parser knows only its own flags, so argparse refuses it
        flag = settings[-2]
        monkeypatch.setattr(harness, "solve", lambda *a, **k: pytest.fail("a cell ran"))
        argv = [command, *settings]
        if command == "sweep":
            argv += ["--out-dir", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize(
        "problem,own,other",
        [
            ("elliptic", ["--n-mesh", "--lambda", "--z"], ["--nx", "--nt", "--nu", "--omega"]),
            ("burgers", ["--nx", "--nt", "--nu", "--omega"], ["--n-mesh", "--lambda", "--z"]),
        ],
        ids=["elliptic", "burgers"],
    )
    def test_help_lists_only_the_problems_flags(self, command, problem, own, other, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, problem, "--help"])
        assert exit_info.value.code == 0
        words = capsys.readouterr().out.replace("[", " ").replace("]", " ").split()
        assert all(flag in words for flag in own)
        assert not any(flag in words for flag in other)

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("problem", ["elliptic", "burgers"])
    def test_every_flag_has_help_and_shows_the_solver_defaults(self, command, problem, capsys):
        # solver flag -> the SolverConfig field whose default its help shows
        fields = {"--eta": "eta", "--gamma-min": "gamma_min", "--max-iter": "max_iter",
                  "--hessian": "hessian_mode", "--theta": "theta", "--eps-r": "eps_R",
                  "--eps-g": "eps_g"}
        with pytest.raises(SystemExit) as exit_info:
            main([command, problem, "--help"])
        assert exit_info.value.code == 0
        options = capsys.readouterr().out.split("options:\n", 1)[1]
        helps = {}
        for entry in re.split(r"\n(?=  -)", options.strip("\n")):
            # the flag's invocation, then its help after a gap or on the next line
            invocation, *text = re.split(r"\s{2,}", entry.strip(), maxsplit=1)
            assert text and text[0].strip(), f"no help for {invocation!r}"
            helps[invocation.split()[0].rstrip(",")] = " ".join(text[0].split())
        solver_flags = [flag for flag in fields if flag in helps]
        assert solver_flags == list(fields)[:4] + (list(fields)[4:] if command == "solve" else [])
        # problem flag -> the constructor default its help shows
        problem_defaults = {"elliptic": {"--lambda": 0.001, "--z": "zero"},
                            "burgers": {"--nu": 0.1, "--omega": 0.05}}[problem]
        defaults = {flag: getattr(SolverConfig, fields[flag]) for flag in solver_flags}
        for flag, default in {**defaults, **problem_defaults}.items():
            shown = re.search(r"\(default (\S+)\)", helps[flag])
            assert shown, f"{flag} shows no default: {helps[flag]!r}"
            assert shown[1] == default if isinstance(default, str) else float(shown[1]) == default

    @pytest.mark.parametrize("problem, sizes", [("elliptic", ["--n-mesh", "3"]),
                                                ("burgers", ["--nx", "3", "--nt", "2"])])
    def test_unset_problem_flags_pass_nothing(self, problem, sizes, capsys, monkeypatch):
        built, cls = [], harness.PROBLEMS[problem]

        @functools.wraps(cls)  # keeps the constructor's signature
        def recording(**params):
            built.append(params)
            return cls(**params)

        monkeypatch.setitem(harness.PROBLEMS, problem, recording)
        assert main(["solve", problem, *sizes, "--max-iter", "1"]) == 0
        assert built == [{"N": 3} if problem == "elliptic" else {"nx": 3, "nt": 2}]

    def test_sweep_runs_the_default_burgers_grid(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["sweep", "burgers", "--nx", "4", "--nt", "2", "--out-dir", str(out_dir)]) == 0
        assert len(list(out_dir.glob("trace_*.jsonl"))) == 18
        table = (out_dir / "table_pde_solves.csv").read_text()
        body = [line for line in table.splitlines() if not line.startswith("#")]
        pairs = [line.split(",")[:2] for line in body[1:]]
        assert pairs == [["0.01", "0.001"], ["0.01", "0.0001"], ["0.01", "1e-06"]]
        assert capsys.readouterr().out == table

    @pytest.mark.parametrize(
        ("z", "pairs"),
        [
            ("zero", [["0.001", "0.0001"], ["1e-06", "0.0001"], ["1e-09", "0.0001"]]),
            ("one", [["0.01", "0.0001"], ["0.01", "1e-06"], ["0.01", "1e-08"]]),
        ],
    )
    def test_sweep_runs_the_default_elliptic_grid(self, z, pairs, capsys, tmp_path):
        out_dir = tmp_path / "out"
        argv = ["sweep", "elliptic", "--n-mesh", "3", "--z", z, "--out-dir", str(out_dir)]
        assert main(argv) == 0
        assert len(list(out_dir.glob("trace_*.jsonl"))) == 18
        table = (out_dir / "table_pde_solves.csv").read_text()
        body = [line for line in table.splitlines() if not line.startswith("#")]
        assert [line.split(",")[:2] for line in body[1:]] == pairs
        assert capsys.readouterr().out == table

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_failed_run_exits_2_and_reports_its_error(self, command, capsys, tmp_path):
        # Newton does not converge at the starting control of this problem
        argv = [command, "burgers", "--nx", "12", "--nt", "1", "--nu", "1e-4"]
        out_dir = tmp_path / "out"
        assert main(argv + (["--out-dir", str(out_dir)] if command == "sweep" else [])) == 2
        captured = capsys.readouterr()
        if command == "solve":
            assert captured.out == ""
            assert captured.err.startswith("solver error: Newton failed")
        else:  # every cell of the default grid fails after its one state solve
            with open(out_dir / "summary.csv", newline="") as f:
                rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
            assert len(rows) == 18
            assert all(row["error_message"] and row["pde_solves"] == "1" for row in rows)

    @pytest.mark.parametrize(("settings", "error_type", "start"), [
        (["burgers", "--nx", "12", "--nt", "1", "--nu", "1e-4"],
         "StateSolveError", "Newton failed at time step 1: residual"),
        # the first gradient norm overflows
        (["elliptic", "--n-mesh", "4", "--lambda", "1e300"],
         "FloatingPointError", "the gradient at u0 overflowed"),
    ], ids=["newton", "overflow"])
    def test_failed_solve_ends_its_trace_with_the_error(self, settings, error_type, start,
                                                        capsys, tmp_path):
        # as a failed sweep cell's trace does; both fail at u0, so the error
        # record is the whole trace
        trace = tmp_path / "run.jsonl"
        assert main(["solve", *settings, "--jsonl", str(trace)]) == 2
        message = capsys.readouterr().err.removeprefix("solver error: ").rstrip("\n")
        # a failed time step is named once
        assert message.startswith(start) and message.count("time step") <= 1
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records == [{"error_type": error_type, "error_message": message}]

    def test_solve_traces_as_its_sweep_cell_does(self, capsys, tmp_path):
        settings = ["elliptic", "--n-mesh", "4", "--z", "one", "--hessian", "zero"]
        trace = tmp_path / "run.jsonl"
        assert main(["solve", *settings, "--theta", "0.1", "--eps-r", "1e-2",
                     "--eps-g", "1e-4", "--jsonl", str(trace)]) == 0
        printed = capsys.readouterr().out
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"theta": [0.1], "eps": [[1e-2, 1e-4]]}))
        out_dir = tmp_path / "out"
        assert main(["sweep", *settings, "--grid-file", str(grid), "--out-dir", str(out_dir)]) == 0
        [cell] = out_dir.glob("trace_*.jsonl")
        assert trace.read_text() == cell.read_text() != ""
        [row] = [l.split(",") for l in (out_dir / "summary.csv").read_text().splitlines()
                 if l.startswith("elliptic,")]
        status, iterations, pde_solves = row[4], row[5], row[7]
        assert printed.startswith(f"elliptic: {status} after {iterations} iterations")
        assert f"pde_solves={pde_solves}," in printed

    def test_solve_rejects_unwritable_trace(self, capsys, tmp_path):
        assert main(["solve", "burgers", "--nx", "4", "--jsonl", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "extra,grid",
        [
            (["--eta", "2"], None),
            (["--nx", "1"], None),
            (["--nu", "-1"], None),
            ([], {"theta": [0.0, 1.5], "eps": [[1e-2, 1e-4]]}),
            ([], {"theta": [0.0], "eps": [[1e-2, -1.0]]}),
            ([], {"theta": [0.0]}),
            ([], {"theta": [0.0], "eps": [1e-2]}),
        ],
    )
    def test_sweep_rejects_bad_setting(self, extra, grid, capsys, tmp_path):
        argv = ["sweep", "burgers", "--nx", "4", "--nt", "4", *extra]
        if grid is not None:
            grid_file = tmp_path / "grid.json"
            grid_file.write_text(json.dumps(grid))
            argv += ["--grid-file", str(grid_file)]
        out_dir = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not list(out_dir.glob("*"))  # no cell ran

    @pytest.mark.parametrize(
        "grid",
        [
            {"theta": [0.0, 0.01, 0.01], "eps": [[1e-2, 1e-4]]},
            {"theta": [0.0, -0.0], "eps": [[1e-2, 1e-4]]},
            {"theta": [0.0], "eps": [[1e-2, 1e-4], [1e-2, 1e-6], [1e-2, 1e-4]]},
        ],
    )
    def test_sweep_rejects_repeated_grid_value(self, grid, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(harness, "solve", lambda *a, **k: pytest.fail("a cell ran"))
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid))
        out_dir = tmp_path / "out"
        argv = ["sweep", "burgers", "--nx", "4", "--nt", "4",
                "--grid-file", str(grid_file), "--out-dir", str(out_dir)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out_dir.exists()

    def test_sweep_rejects_unreadable_grid_file(self, capsys, tmp_path):
        bad = tmp_path / "grid.json"
        bad.write_text("{not json")
        for grid_file in (bad, tmp_path / "missing.json"):
            code = main(["sweep", "burgers", "--grid-file", str(grid_file),
                         "--out-dir", str(tmp_path / "out")])
            assert code == 2
            assert capsys.readouterr().err.startswith("error: ")
