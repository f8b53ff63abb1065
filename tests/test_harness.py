from pathlib import Path

import numpy as np
import pytest

from oracleopt.certificates import certificate_to_text, verify_certificate
from oracleopt.cli import main
from oracleopt.combinatorial import to_dimacs
from oracleopt.corrective import fully_corrective
from oracleopt.harness import (
    ExperimentSummary,
    build_instance,
    emit_table,
    load_config,
    run_experiment,
)
from oracleopt.lp_baseline import LPStopContext
from oracleopt.solver_general import run_general
from oracleopt.trace import LPStop


def summary(**kw):
    base = dict(
        problem="matching",
        method="polar",
        frequency=1,
        init="standard",
        initial_constraints="basic",
        seed=0,
        iterations=10,
        gamma=4.0,
        bound=4.0,
        converged=True,
    )
    base.update(kw)
    return ExperimentSummary(**base)


class TestLoadConfig:
    def test_defaults(self):
        config = load_config()
        assert config.problem == "synthetic-ball"
        assert config.iters == 1000

    def test_file_env_override_precedence(self, tmp_path, monkeypatch):
        path = tmp_path / "run.conf"
        path.write_text("problem = matching\nseed = 3\nnodes=12\n# comment\n")
        monkeypatch.setenv("ORACLEOPT_SEED", "5")
        config = load_config(str(path), overrides={"nodes": 9})
        assert config.problem == "matching"
        assert config.seed == 5
        assert config.nodes == 9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("wibble = 3\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(str(path))

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown problem"):
            load_config(None, {"problem": "sudoku"})
        with pytest.raises(ValueError, match="unknown stop"):
            load_config(None, {"stop": "never"})


class TestRunExperiment:
    def test_synthetic_ball_polar(self, tmp_path):
        config = load_config(None, {"problem": "synthetic-ball", "dim": 2, "out": str(tmp_path)})
        summary_row, trace_path = run_experiment(config)
        assert summary_row.converged
        # the ball optimum here is radius * ||c|| = sqrt(2)
        assert summary_row.gamma >= 0.99 * np.sqrt(2.0)
        assert trace_path is not None
        header = Path(trace_path).read_text().splitlines()[0]
        assert header == "t,step,gamma,dual_bound,residual,oracle_calls,lp_bound"

    def test_matching_all_methods_agree_with_stop_rule(self, tmp_path):
        opt = None
        for method in ("polar", "cutloop"):
            config = load_config(
                None,
                {
                    "problem": "matching",
                    "method": method,
                    "frequency": 1,
                    "nodes": 12,
                    "triangles": 4,
                    "seed": 3,
                    "max_set_size": 11,
                    "out": str(tmp_path / method),
                },
            )
            summary_row, _ = run_experiment(config)
            assert summary_row.converged
            if opt is None:
                opt = summary_row.bound
        assert opt is not None

    def test_stableset_general_method_runs(self, tmp_path):
        config = load_config(
            None,
            {
                "problem": "synthetic-polytope",
                "method": "general",
                "dim": 2,
                "frequency": 10,
                "stop": "gap",
                "epsilon": 0.08,
                "iters": 4000,
                "out": str(tmp_path),
            },
        )
        summary_row, _ = run_experiment(config)
        assert summary_row.converged
        assert summary_row.bound <= 1.08 * summary_row.gamma + 1e-9

    @pytest.mark.parametrize(
        "overrides",
        [
            {"problem": "matching", "frequency": 1, "nodes": 15, "triangles": 10, "seed": 0,
             "max_set_size": 15},
            {"problem": "stableset", "nodes": 14, "density": 0.55, "seed": 1},
        ],
    )
    def test_general_method_cuts_queries_outside_the_orthant(self, overrides, tmp_path):
        # The general solver may query points with negative coordinates; the
        # packing oracles answer them with a nonnegativity row.  Its
        # certificate proves the bound it reports (the stable-set run ends on
        # the trivial ball bound) and passes `verify --instance`, although
        # its rows are unit-normalized and include ball0.
        config = load_config(None, dict(overrides, method="general", out=""))
        summary_row, _ = run_experiment(config)
        assert summary_row.converged
        instance = build_instance(config, need_opt=True)
        res = run_general(
            instance.oracle,
            instance.c,
            stop=LPStop(opt_ref=instance.opt_ref),
            strategy=fully_corrective(1) if config.frequency else None,
            initial_constraints=instance.initial_rows,
            lp_context=LPStopContext(instance.initial_rows, instance.lb, instance.ub),
        )
        assert res.iterations == summary_row.iterations
        assert any(cut.name.startswith("nonneg:") for cut in res.state.cuts)
        history = res.state.atoms
        assert verify_certificate(res.certificate, constraint_history=history).passed
        assert res.certificate.claimed_bound == res.bound
        (tmp_path / "g.dimacs").write_text(to_dimacs(instance.oracle.graph))
        (tmp_path / "run.cert").write_text(certificate_to_text(res.certificate))
        argv = ["verify", "--certificate", str(tmp_path / "run.cert"),
                "--instance", str(tmp_path / "g.dimacs"), "--problem", config.problem]
        assert main(argv) == 0

    def test_identical_seed_gives_identical_trace_bytes(self, tmp_path):
        overrides = {
            "problem": "matching",
            "method": "polar",
            "frequency": 1,
            "nodes": 12,
            "triangles": 5,
            "seed": 7,
            "max_set_size": 11,
        }
        paths = []
        for sub in ("a", "b"):
            config = load_config(None, dict(overrides, out=str(tmp_path / sub)))
            _, trace_path = run_experiment(config)
            paths.append(trace_path)
        a, b = (Path(p).read_bytes() for p in paths)
        assert a == b

    def test_solver_trace_bound_dominates_gamma(self, tmp_path):
        for method in ("polar", "general"):
            config = load_config(
                None,
                {
                    "problem": "synthetic-ball",
                    "method": method,
                    "dim": 3,
                    "radius": 0.5,
                    "center_offset": 0.3 if method == "general" else 0.0,
                    "stop": "cap",
                    "iters": 300,
                    "seed": 0,
                    "out": str(tmp_path / method),
                },
            )
            _, trace_path = run_experiment(config)
            rows = Path(trace_path).read_text().splitlines()[1:]
            for row in rows:
                cols = row.split(",")
                assert float(cols[3]) >= float(cols[2]) - 1e-9

    @pytest.mark.parametrize("method", ["polar", "general"])
    def test_lp_stop_bound_relaxes_a_ball_reaching_below_zero(self, method, tmp_path):
        # The disc of radius 1 around (-0.9, 0) is mostly in x0 < 0: an LP
        # that added x >= 0 would fall below the optimum and stop early.
        config = load_config(
            None,
            {"problem": "synthetic-ball", "method": method, "dim": 2, "center_offset": -0.9,
             "radius": 1.0, "stop": "lp1pct", "out": str(tmp_path)},
        )
        _, trace_path = run_experiment(config)
        opt = -0.9 + np.sqrt(2.0)
        rows = [line.split(",") for line in Path(trace_path).read_text().splitlines()[1:]]
        bounds = [float(cols[6]) for cols in rows if cols[6]]
        assert len(bounds) >= 5
        assert min(bounds) >= opt - 1e-9 * (1 + abs(opt))

    def test_optimal_init_needs_computable_optimum(self):
        config = load_config(
            None,
            {"problem": "matching", "init": "optimal", "nodes": 60, "triangles": 19, "seed": 0,
             "out": ""},
        )
        with pytest.raises(ValueError):
            run_experiment(config)


class TestEmitTable:
    def test_single_row(self):
        text, csv = emit_table([summary()])
        assert "polar" in text
        assert "10.00" in text
        assert csv.splitlines()[0].startswith("method,")

    def test_unconverged_flagged_and_excluded(self):
        rows = [
            summary(iterations=10),
            summary(iterations=999, converged=False),
        ]
        text, _ = emit_table(rows)
        assert "10.00 *" in text
        assert "unconverged" in text

    def test_no_converged_runs_marker(self):
        text, _ = emit_table([summary(converged=False)])
        assert "no converged runs" in text

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            emit_table([])
