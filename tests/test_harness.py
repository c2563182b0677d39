"""Harness: experiment sweeps, table rendering, CLI; and the test oracles."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import iclsq
from iclsq import harness
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

from conftest import IdentityProblem, dense_jacobian_oracle, fd_gradient_oracle


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
        prob = EllipticProblem(12)  # 121 * 1584 entries, over the cap
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

    def test_artifacts_written_and_parseable(self, small_spec):
        out_dir = small_spec.out_dir
        run_experiment(small_spec)
        summary = (out_dir / "summary.csv").read_text()
        header = [l for l in summary.splitlines() if not l.startswith("#")][0]
        assert header == (
            "problem,theta,eps_r,eps_g,status,iterations,successes,pde_solves,"
            "adjoint_solves,jvp,cg_iters,final_residual_norm,"
            "final_scaled_gradient,error_type,wall_ms"
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
            }
            assert "norm_probe_applies" in rec["counters"]
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

        def flaky_solve(problem, u0, config, counters=None, trace_sink=None):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("synthetic failure")
            return real_solve(problem, u0, config, counters=counters, trace_sink=trace_sink)

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
        summary = [
            l.split(",") for l in (tmp_path / "summary.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert summary[0][-2:] == ["error_type", "wall_ms"]
        assert [line[-2] for line in summary[1:]] == ["RuntimeError", ""]
        trace = tmp_path / "trace_elliptic_theta0_epsr0.01_epsg0.0001.jsonl"
        last = json.loads(trace.read_text().splitlines()[-1])
        assert last == {"error_type": "RuntimeError", "error_message": "synthetic failure"}
        ok_trace = tmp_path / "trace_elliptic_theta0.1_epsr0.01_epsg0.0001.jsonl"
        assert "error_type" not in json.loads(ok_trace.read_text().splitlines()[-1])


class TestNearExactPostHoc:
    def test_exact_variant_satisfies_tight_inexactness_rule(self):
        # Accepted steps of the theta = 0 variant must satisfy the relative
        # termination rule with theta' = 1e-10 and the true curvature norm.
        prob = EllipticProblem(6, z_choice="one")
        cfg = SolverConfig(eps_R=1e-2, eps_g=1e-4, theta=0.0, record_iterates=True)
        out = solve(prob, np.ones(prob.n), cfg)
        assert out.successes > 0
        for t in out.trace:
            if not t.success:
                continue
            dense = dense_jacobian_oracle(prob, t.u)
            h_norm = float(np.linalg.norm(dense, 2)) ** 2
            tol = 1e-10 * math.sqrt(t.gamma / (h_norm + t.gamma)) * t.grad_norm
            assert t.step_residual_norm <= tol


class TestCli:
    def test_module_entry_runs_without_warnings(self, tmp_path):
        src = str(Path(iclsq.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
        argv = ["solve", "burgers", "--nx", "4", "--nt", "2", "--max-iter", "2"]
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "iclsq", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert "burgers:" in proc.stdout

    def test_solve_command(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        code = main([
            "solve", "elliptic", "--n-mesh", "5", "--z", "one",
            "--eps-r", "1e-2", "--eps-g", "1e-4", "--theta", "0.01",
            "--jsonl", str(trace),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "converged_scaled_gradient" in printed
        assert trace.exists() and trace.read_text().strip()

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

    def test_solve_reports_solver_error_on_stderr(self, capsys):
        # Newton does not converge at the starting control of this problem
        assert main(["solve", "burgers", "--nx", "12", "--nt", "1", "--nu", "1e-4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver error: Newton failed")

    def test_failed_solve_ends_its_trace_with_the_error(self, capsys, tmp_path):
        # as a failed sweep cell's trace does
        trace = tmp_path / "run.jsonl"
        argv = ["solve", "burgers", "--nx", "12", "--nt", "1", "--nu", "1e-4",
                "--jsonl", str(trace)]
        assert main(argv) == 2
        message = capsys.readouterr().err.removeprefix("solver error: ").rstrip("\n")
        assert message.startswith("Newton failed")
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records == [{"error_type": "StateSolveError", "error_message": message}]

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
