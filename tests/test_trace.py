"""The shared run loop: golden traces and its stop-rule edge cases."""

import functools
from pathlib import Path

import numpy as np
import pytest

from oracleopt.combinatorial import (
    MatchingOracle,
    brute_force_matching_opt,
    generate_triangle_instance,
    make_graph,
    matching_initial_rows,
)
from oracleopt import lp_baseline
from oracleopt.harness import load_config, run_experiment
from oracleopt.lp_baseline import LPStop, cut_loop
from oracleopt.solver_general import run_general
from oracleopt.solver_polar import PolarMode, run_polar

GOLDEN_DIR = Path(__file__).parent / "golden"

# Trace files committed as recorded before the solvers shared one run loop.
# The first three are the criterion-10 configurations; the fourth checks the
# LP stop bound only on every third iteration.  The last, recorded before the
# stable-set runs shared their instance's initial LP work, pins the bits of
# the LP stop's dual warm start and of packing min-norm-point steps.
GOLDEN = {
    "matching_polar_fc1.csv": {
        "problem": "matching", "method": "polar", "frequency": 1, "nodes": 14,
        "triangles": 6, "seed": 11, "max_set_size": 13,
    },
    "stableset_cutloop.csv": {
        "problem": "stableset", "method": "cutloop", "nodes": 14, "density": 0.5, "seed": 4,
    },
    "ball_general_gap.csv": {
        "problem": "synthetic-ball", "method": "general", "dim": 3, "radius": 0.5,
        "center_offset": 0.4, "stop": "gap", "epsilon": 0.2, "seed": 2, "iters": 400,
    },
    "matching_polar_lp_every3.csv": {
        "problem": "matching", "method": "polar", "frequency": 0, "nodes": 15,
        "triangles": 11, "seed": 1, "max_set_size": 15, "lp_check_every": 3,
    },
    "stableset_polar_fc1.csv": {
        "problem": "stableset", "method": "polar", "frequency": 1, "nodes": 16,
        "density": 0.55, "seed": 0, "stop": "lp1pct",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace_bytes(name, tmp_path):
    config = load_config(None, dict(GOLDEN[name], out=str(tmp_path)))
    _, trace_path = run_experiment(config)
    assert Path(trace_path).read_bytes() == (GOLDEN_DIR / name).read_bytes()


def _matching_run_args(graph, every=1):
    d = graph.n_edges
    rows = matching_initial_rows(graph, "basic")
    opt = float(brute_force_matching_opt(graph))
    return dict(
        oracle=MatchingOracle(graph, max_set_size=graph.n_nodes),
        c=np.ones(d),
        initial_constraints=rows,
        stop=LPStop(opt, rows, np.zeros(d), every=every),
    )


def _run(method, oracle, c, **kwargs):
    if method == "polar":
        return run_polar(oracle, c, gamma1=1.0, mode=PolarMode.PACKING, **kwargs)
    return run_general(oracle, c, **kwargs)


@pytest.mark.parametrize("method", ["polar", "general"])
def test_lp_bound_only_on_checked_iterations(method):
    args = _matching_run_args(generate_triangle_instance(15, 11, 1), every=3)
    res = _run(method, max_iters=40, **args)
    assert len(res.trace) >= 3
    for row in res.trace:
        assert (row.lp_bound is not None) == (row.t % 3 == 0)


@pytest.mark.parametrize("method", ["polar", "general"])
def test_one_lp_stop_bound_call_per_lp_evaluation(method, monkeypatch):
    # The benchmark's traced run counts lp_stop_bound calls against these
    # rows and reads the separated list as the second positional argument.
    calls = []
    real = lp_baseline.lp_stop_bound

    def recording(*args, **kwargs):
        calls.append((args, real(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(lp_baseline, "lp_stop_bound", recording)
    args = _matching_run_args(generate_triangle_instance(15, 11, 1), every=3)
    res = _run(method, max_iters=40, **args)
    checked = [row.lp_bound for row in res.trace if row.lp_bound is not None]
    assert checked
    assert [value for _, value in calls] == [calls[0][1]] + checked
    separated = calls[0][0][1]
    assert all(len(a) >= 2 and a[1] is separated for a, _ in calls)
    assert len(separated) > 0


@pytest.mark.parametrize("method", ["polar", "general"])
def test_initial_rows_meeting_the_lp_rule_cost_no_iterations(method):
    # On a bipartite graph the degree rows already describe the matching
    # polytope, so the LP over the initial rows equals the optimum.
    path = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    res = _run(method, max_iters=50, **_matching_run_args(path))
    assert res.converged
    assert res.iterations == 0
    assert len(res.trace) == 0



@pytest.mark.parametrize("method", ["cutloop", "polar", "general"])
def test_negative_iteration_cap_is_rejected(method):
    args = _matching_run_args(generate_triangle_instance(9, 3, 0))
    run = functools.partial(cut_loop, **args) if method == "cutloop" else functools.partial(
        _run, method, **args
    )
    for cap in (-1, -3):
        with pytest.raises(ValueError, match="max_iters must be >= 0"):
            run(max_iters=cap)
    assert len(run(max_iters=0).trace) == 0  # a cap of 0 stays valid
