import operator
import sys
from pathlib import Path

import numpy as np
import pytest

from oracleopt import combinatorial, harness, lp_baseline
from oracleopt.certificates import certificate_to_text, verify_certificate
from oracleopt.cli import main
from oracleopt.combinatorial import generate_triangle_instance, to_dimacs
from oracleopt.corrective import fully_corrective
from oracleopt.harness import (
    ExperimentSummary,
    build_instance,
    emit_table,
    load_config,
    run_experiment,
)
from oracleopt.lp_baseline import LPStop, cut_loop
from oracleopt.solver_general import run_general


def summary(**kw):
    base = dict(
        method="polar",
        frequency=1,
        init="standard",
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

    def test_initial_constraints_key_rejected(self, tmp_path):
        # Every run starts from the bound rows plus the degree or edge rows.
        path = tmp_path / "run.conf"
        path.write_text("initial_constraints = basic\n")
        with pytest.raises(ValueError, match="unknown config key 'initial_constraints'"):
            load_config(str(path))

    def test_file_value_of_the_wrong_type_names_its_line(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("problem = matching\nnodes = abc\n")
        with pytest.raises(ValueError) as raised:
            load_config(str(path))
        assert str(raised.value) == f"{path}:2: nodes must be int, not 'abc'"

    def test_env_value_of_the_wrong_type_names_its_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ORACLEOPT_ITERS", "1.5")
        with pytest.raises(ValueError) as raised:
            load_config(None)
        assert str(raised.value) == "ORACLEOPT_ITERS: iters must be int, not '1.5'"
        capsys.readouterr()
        assert main(["run", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: ORACLEOPT_ITERS: iters must be int, not '1.5'\n"

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown problem"):
            load_config(None, {"problem": "sudoku"})
        with pytest.raises(ValueError, match="unknown stop"):
            load_config(None, {"stop": "never"})

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"problem": "synthetic-ball", "dim": 0}, "dim and nodes must be >= 1"),
            ({"problem": "synthetic-polytope", "dim": -1}, "dim and nodes must be >= 1"),
            ({"problem": "stableset", "nodes": 0}, "dim and nodes must be >= 1"),
            ({"problem": "synthetic-ball", "graph_file": "g.dimacs"}, "graph file needs a graph"),
        ],
    )
    def test_rejects_instances_that_cannot_be_built(self, overrides, message, monkeypatch):
        built = []
        monkeypatch.setattr(harness, "build_instance", lambda *args: built.append(args))
        with pytest.raises(ValueError, match=message):
            load_config(None, overrides)
        with pytest.raises(ValueError, match=message):
            run_experiment(harness.ExperimentConfig(**overrides))
        assert built == []


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
        instance = build_instance(config)
        res = run_general(
            instance.oracle,
            instance.c,
            stop=LPStop(instance.opt_ref, instance.initial_rows, instance.lb),
            strategy=fully_corrective(1) if config.frequency else None,
            initial_constraints=instance.initial_rows,
        )
        assert res.iterations == summary_row.iterations
        assert any(cut.name.startswith("nonneg:") for cut in res.state.cuts)
        history = res.state.atoms.rows
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


# The criterion-8 variants: (method, frequency, init).
SWEEP_VARIANTS = [
    ("polar", 0, "standard"), ("polar", 0, "optimal"),
    ("polar", 1, "standard"), ("polar", 1, "optimal"),
    ("polar", 10, "standard"), ("polar", 10, "optimal"),
    ("cutloop", 0, "standard"),
]
SWEEP_GRAPHS = {
    "matching": {"problem": "matching", "nodes": 15, "triangles": 16, "seed": 0,
                 "max_set_size": 15},
    "stableset": {"problem": "stableset", "nodes": 16, "density": 0.55, "seed": 3},
}


def clear_program_caches():
    """Empty every cache in oracleopt, as a benchmark pass does before it starts."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "oracleopt" or name.startswith("oracleopt.")):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_with_trace(overrides, out: Path, fresh: bool):
    if fresh:
        harness._shared_instance.cache_clear()
    summary_row, trace_path = run_experiment(load_config(None, dict(overrides, out=str(out))))
    return summary_row, Path(trace_path).read_bytes()


@pytest.fixture
def builds(monkeypatch):
    """The instances build_instance returns from here on, in order."""
    built = []
    real = harness.build_instance

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(harness, "build_instance", recording)
    return built


class TestSharedInstance:
    """Consecutive runs on one instance share it and give the results of fresh runs."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        harness._shared_instance.cache_clear()

    @pytest.mark.parametrize("family", sorted(SWEEP_GRAPHS))
    def test_sweep_variants_match_fresh_runs(self, family, tmp_path):
        base = SWEEP_GRAPHS[family]
        for fresh in (False, True):
            runs = []
            for method, freq, init in SWEEP_VARIANTS:
                overrides = dict(base, method=method, frequency=freq, init=init)
                out = tmp_path / f"{fresh}-{method}-{freq}-{init}"
                runs.append(run_with_trace(overrides, out, fresh))
            if fresh:
                assert runs == shared
            shared = runs
        assert all(summary_row.converged for summary_row, _ in shared)
        assert min(summary_row.iterations for summary_row, _ in shared) > 0

    def test_alternating_instances_match_fresh_runs(self, tmp_path):
        a = dict(SWEEP_GRAPHS["matching"], triangles=10, seed=1, frequency=1)
        b = dict(SWEEP_GRAPHS["stableset"], nodes=12, frequency=1)
        order = [a, b, a]
        shared = [run_with_trace(o, tmp_path / f"s{i}", False) for i, o in enumerate(order)]
        fresh = [run_with_trace(o, tmp_path / f"f{i}", True) for i, o in enumerate(order)]
        assert shared == fresh

    def test_graph_file_edited_in_place_is_a_new_instance(self, tmp_path):
        path = tmp_path / "g.dimacs"
        overrides = {"problem": "matching", "graph_file": str(path), "max_set_size": 11}
        results = []
        for triangles in (2, 6):
            path.write_text(to_dimacs(generate_triangle_instance(11, triangles, seed=4)))
            results.append(run_with_trace(overrides, tmp_path / f"s{triangles}", False))
        assert results[1] == run_with_trace(overrides, tmp_path / "fresh", True)
        assert results[0][0].bound < results[1][0].bound

    @pytest.mark.parametrize("family", sorted(SWEEP_GRAPHS))
    def test_cut_loop_on_a_shared_instance_matches_a_fresh_build(
        self, family, builds, monkeypatch
    ):
        loops = []
        real = harness.cut_loop
        monkeypatch.setattr(
            harness, "cut_loop", lambda *a, **k: loops.append(real(*a, **k)) or loops[-1]
        )
        base = dict(SWEEP_GRAPHS[family], out="")
        run_experiment(load_config(None, dict(base, method="polar", frequency=1)))
        [instance] = builds
        kept = instance.initial_lp
        tableau, basis, allowed = (array.tobytes() for array in kept.final)
        steps = list(kept.path)
        for _ in range(2):
            run_experiment(load_config(None, dict(base, method="cutloop")))
        fresh = build_instance(load_config(None, base))
        stop = LPStop(fresh.opt_ref, fresh.initial_rows, fresh.lb)
        ref = cut_loop(fresh.oracle, fresh.c, fresh.initial_rows, lb=fresh.lb, stop=stop)
        assert len(builds) == 1 and ref.cuts  # the three runs shared one instance
        for loop in loops:
            assert loop.trace.to_csv() == ref.trace.to_csv()
            assert [(c.name, c.a.tobytes()) for c in loop.cuts] == [
                (c.name, c.a.tobytes()) for c in ref.cuts
            ]
            assert loop.value == ref.value and loop.x.tobytes() == ref.x.tobytes()
        # The kept solve is as the first run left it, with the very steps it recorded.
        assert instance.initial_lp is kept
        assert tuple(array.tobytes() for array in kept.final) == (tableau, basis, allowed)
        assert len(kept.path) == len(steps) > 0
        assert all(map(operator.is_, kept.path, steps))
        assert all(isinstance(step, lp_baseline._Step) for step in kept.path)

    def test_reference_optimum_is_computed_on_first_use(self, builds, monkeypatch):
        optima = []
        for name in ("brute_force_matching_opt", "clique_relaxation_opt"):
            real = getattr(combinatorial, name)
            monkeypatch.setattr(
                combinatorial, name, lambda g, real=real: optima.append(real(g)) or optima[-1]
            )
        base = dict(SWEEP_GRAPHS["matching"], triangles=10, out="")
        capped = run_experiment(load_config(None, dict(base, stop="cap", iters=5)))[0]
        assert optima == [] and capped.iterations == 5
        run_experiment(load_config(None, dict(base, init="optimal")))
        [instance] = builds  # the optimal-init run reused the cap run's instance
        assert optima == [instance.opt_ref] and instance.opt_ref > 0

    def test_sweep_solves_the_initial_lp_once(self, builds, monkeypatch):
        solves = []
        real = lp_baseline.solve_lp

        def counting(lp):
            solves.append(len(lp.rows))
            return real(lp)

        for module in (harness, lp_baseline, combinatorial):
            monkeypatch.setattr(module, "solve_lp", counting)
        for method, freq, init in SWEEP_VARIANTS:
            overrides = dict(SWEEP_GRAPHS["stableset"], method=method, frequency=freq, init=init)
            run_experiment(load_config(None, dict(overrides, out="")))
        [instance] = builds
        # The reference optimum's clique LP, then the LP over the initial rows.
        assert solves[1:] == [len(instance.initial_rows)]

    def test_shared_arrays_are_read_only(self, builds):
        run_experiment(load_config(None, dict(SWEEP_GRAPHS["stableset"], out="")))
        [instance] = builds
        tableau, basis, allowed = instance.initial_lp.final
        for array in (instance.c, instance.lb, instance.initial_rows[0].a,
                      instance.initial_rows[-1].a, instance.initial_lp.x, tableau, basis,
                      allowed):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]

    def test_clearing_the_program_caches_rebuilds_the_instance(self, builds):
        config = load_config(None, dict(SWEEP_GRAPHS["matching"], triangles=10, out=""))
        run_experiment(config)
        run_experiment(config)
        assert len(builds) == 1
        clear_program_caches()
        run_experiment(config)
        assert len(builds) == 2


class TestEmitTable:
    def test_single_row(self):
        text, csv = emit_table([summary()])
        assert "polar" in text
        assert "10.00" in text
        assert csv.splitlines()[0].startswith("method,")

    def test_capped_runs_count_at_the_cap_and_are_flagged(self):
        rows = [
            summary(iterations=10),
            summary(iterations=1000, converged=False),
        ]
        text, csv = emit_table(rows)
        assert "505.00 *" in text
        assert "* polar/frequency 1/standard: 1 run(s) counted at the iteration cap" in text
        assert csv.splitlines()[1] == "polar,1,standard,2,1,505.00*"

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            emit_table([])
