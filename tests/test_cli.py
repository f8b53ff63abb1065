import argparse
import math
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import oracleopt
from oracleopt import harness
from oracleopt.certificates import certificate_to_text, verify_certificate
from oracleopt.corrective import fully_corrective
from oracleopt.cli import _build_parser, _row_matches_instance, main
from oracleopt.combinatorial import (
    MatchingOracle,
    generate_triangle_instance,
    matching_initial_rows,
    oddset_constraint,
    parse_dimacs,
    to_dimacs,
)
from oracleopt.harness import CHOICES, ExperimentConfig
from oracleopt.lp_baseline import LPStop
from oracleopt.oracle import Constraint
from oracleopt.solver_polar import PolarMode, run_polar
from oracleopt.trace import GapStop


def test_gen_writes_parseable_instance(tmp_path, capsys):
    out = tmp_path / "g.dimacs"
    code = main(["gen", "--nodes", "9", "--triangles", "3", "--seed", "4", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("c seed=4 triangles=3")
    graph = parse_dimacs(text)
    assert graph.n_nodes == 9


def test_run_exit_codes(tmp_path):
    code = main(
        [
            "run",
            "--problem", "synthetic-ball",
            "--method", "polar",
            "--dim", "2",
            "--seed", "1",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    # an impossible budget trips the iteration cap: exit code 2
    code = main(
        [
            "run",
            "--problem", "synthetic-ball",
            "--method", "general",
            "--dim", "3",
            "--radius", "0.5",
            "--center-offset", "0.5",
            "--stop", "gap",
            "--epsilon", "0.000001",
            "--iters", "5",
            "--out", str(tmp_path),
        ]
    )
    assert code == 2


def test_lp_stop_fires_on_a_negative_optimum(tmp_path, capsys):
    # The optimum is -3 + sqrt(2) < 0; 1.01 times it was a threshold that
    # no LP bound reaches, so the run hit its cap.
    code = main(["run", "--problem", "synthetic-ball", "--method", "general", "--dim", "2",
                 "--center-offset", "-3", "--radius", "1", "--stop", "lp1pct",
                 "--iters", "3000", "--out", str(tmp_path)])
    assert code == 0
    assert "(converged)" in capsys.readouterr().out


def test_cutloop_on_synthetic_ball_reaches_the_optimum(tmp_path, capsys):
    # `auto` runs the cut loop to its own convergence: the gap rule would
    # compare the LP value with itself and stop at once.
    assert main(["run", "--problem", "synthetic-ball", "--method", "cutloop",
                 "--dim", "2", "--iters", "60", "--out", str(tmp_path)]) == 0
    value = float(capsys.readouterr().out.split("value ")[1].split(",")[0])
    assert value == pytest.approx(math.sqrt(2), rel=1e-5)
    code = main(["run", "--problem", "synthetic-ball", "--method", "cutloop", "--dim", "3",
                 "--stop", "gap", "--out", str(tmp_path)])
    assert code == 1
    assert "stop=gap" in capsys.readouterr().err


def test_run_bad_config_is_error(tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("problem = sudoku\n")
    assert main(["run", "--config", str(config)]) == 1


def test_run_rejects_max_set_size_below_three(tmp_path, monkeypatch, capsys):
    # The config is refused before the instance and its optimum are built.
    built = []
    monkeypatch.setattr(harness, "build_instance", lambda *args: built.append(args))
    code = main(["run", "--problem", "matching", "--nodes", "9", "--triangles", "3",
                 "--max-set-size", "2", "--out", str(tmp_path)])
    assert code == 1
    assert built == []
    assert "max_set_size must be >= 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--stop", "gap", "--epsilon", "-1"], "epsilon must be > 0"),
        (["--stop", "gap", "--epsilon", "nan"], "epsilon must be > 0"),
        (["--density", "1.5"], r"density must be in \[0, 1\]"),
        (["--density", "-0.1"], r"density must be in \[0, 1\]"),
        (["--radius", "inf"], "radius and center_offset must be finite"),
        (["--radius", "nan"], "radius and center_offset must be finite"),
        (["--center-offset", "nan"], "radius and center_offset must be finite"),
        (["--center-offset", "inf"], "radius and center_offset must be finite"),
    ],
    ids=[
        "negative-epsilon", "nan-epsilon", "density-above-one", "negative-density",
        "inf-radius", "nan-radius", "nan-center-offset", "inf-center-offset",
    ],
)
def test_run_rejects_unusable_epsilon_and_density(flags, message, tmp_path, monkeypatch, capsys):
    # A negative epsilon ran to the iteration cap (GapStop never fires), a
    # density above 1 quietly built the complete graph, and an infinite
    # radius failed inside the solver as if it were a solver bug.
    built = []
    monkeypatch.setattr(harness, "build_instance", lambda *args: built.append(args))
    code = main(["run", "--problem", "stableset", "--nodes", "5", *flags, "--out", str(tmp_path)])
    assert code == 1
    assert built == []
    assert re.search(message, capsys.readouterr().err)


def test_run_rejects_stableset_graph_file_without_nodes(tmp_path, capsys):
    graph = tmp_path / "empty.col"
    graph.write_text("p edge 0 0\n")
    code = main(["run", "--problem", "stableset", "--graph", str(graph), "--out", str(tmp_path)])
    assert code == 1
    assert "stableset instance has no nodes" in capsys.readouterr().err


def test_verify_round_trip_with_instance(tmp_path):
    main(["gen", "--nodes", "12", "--triangles", "4", "--seed", "3",
          "--out", str(tmp_path / "g.dimacs")])
    graph = parse_dimacs((tmp_path / "g.dimacs").read_text())
    oracle = MatchingOracle(graph, max_set_size=11)
    rows = matching_initial_rows(graph, "basic")
    d = graph.n_edges
    from oracleopt.combinatorial import brute_force_matching_opt

    opt = float(brute_force_matching_opt(graph))
    res = run_polar(
        oracle,
        np.ones(d),
        gamma1=1.0,
        stop=LPStop(opt, rows, np.zeros(d)),
        max_iters=500,
        mode=PolarMode.PACKING,
        initial_constraints=rows,
    )
    cert_path = tmp_path / "run.cert"
    cert_path.write_text(certificate_to_text(res.certificate))
    code = main(
        [
            "verify",
            "--certificate", str(cert_path),
            "--instance", str(tmp_path / "g.dimacs"),
            "--problem", "matching",
        ]
    )
    assert code == 0

    # tamper with the claimed bound: verification must fail
    lines = cert_path.read_text().splitlines()
    lines = [
        f"claimed-bound {float(line.split()[1]) - 0.5:.17g}" if line.startswith("claimed-bound") else line
        for line in lines
    ]
    cert_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--certificate", str(cert_path)]) == 1


def test_run_flags_mirror_config_fields():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in sub.choices["run"]._actions}
    for f in fields(ExperimentConfig):
        assert f.name in flags, f.name
        assert flags[f.name].choices == CHOICES.get(f.name), f.name
    assert "--graph" in flags["graph_file"].option_strings


def test_run_lp_check_every_flag(tmp_path):
    argv = ["run", "--problem", "matching", "--method", "polar", "--frequency", "0",
            "--nodes", "15", "--triangles", "11", "--seed", "1", "--max-set-size", "15",
            "--lp-check-every", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    golden = Path(__file__).parent / "golden" / "matching_polar_lp_every3.csv"
    assert (tmp_path / "matching_polar_1.csv").read_bytes() == golden.read_bytes()


def test_verify_accepts_nonneg_rows():
    graph = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3\n")
    row = Constraint(np.array([0.0, -1.0]), 0.0, name="nonneg:1")
    assert _row_matches_instance(row.name, row, graph, "matching")
    flipped = Constraint(np.array([0.0, 1.0]), 0.0, name="nonneg:1")
    assert not _row_matches_instance(flipped.name, flipped, graph, "matching")


def test_verify_accepts_positive_multiples_of_instance_rows():
    graph = parse_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    odd = oddset_constraint(graph, (0, 1, 2))
    for scale, rhs_shift, valid in ((1.0, 0.0, True), (3.0**-0.5, 0.0, True), (1.0, 0.5, True),
                                    (-1.0, 0.0, False), (1.0, -0.5, False)):
        row = Constraint(scale * odd.a, scale * odd.b + rhs_shift, name=odd.name)
        assert _row_matches_instance(row.name, row, graph, "matching") is valid
    for name, rhs, valid in (("zero", 1.0, True), ("ball0", 2.5, True), ("ball0", -1.0, False)):
        row = Constraint(np.zeros(3), rhs, name=name)
        assert _row_matches_instance(name, row, graph, "matching") is valid


def fc1_matching_run(graph):
    """A fully corrective packing run to a 5% gap on a matching instance."""
    d = graph.n_edges
    return run_polar(
        MatchingOracle(graph, max_set_size=11), np.ones(d), gamma1=1.0, stop=GapStop(0.05),
        max_iters=500, strategy=fully_corrective(1), mode=PolarMode.PACKING,
        initial_constraints=matching_initial_rows(graph, "basic"),
    )


def test_verify_with_instance_checks_objective_and_radius(tmp_path):
    # Both forgeries keep the aggregation consistent with the objective and R
    # stored in the certificate, and claim a bound below the optimum 4.
    graph = generate_triangle_instance(12, 4, 2)
    honest = fc1_matching_run(graph).certificate
    small_ball = replace(honest, R=honest.R / 1000, ball_rhs=honest.ball_rhs / 1000)
    small_ball = replace(small_ball, claimed_bound=(
        sum(m * cons.b for cons, m in small_ball.rows)
        + small_ball.ball_coefficient * small_ball.ball_rhs
    ))
    halved = replace(
        honest,
        objective=honest.objective / 2,
        rows=[(cons, m / 2) for cons, m in honest.rows],
        ball_coefficient=honest.ball_coefficient / 2,
        nonneg_slack=honest.nonneg_slack / 2,
        gamma=honest.gamma / 2,
        claimed_bound=honest.claimed_bound / 2,
    )
    other = generate_triangle_instance(9, 3, 0)
    (tmp_path / "g.dimacs").write_text(to_dimacs(graph))
    (tmp_path / "other.dimacs").write_text(to_dimacs(other))

    def verify(cert, instance=None):
        path = tmp_path / "run.cert"
        path.write_text(certificate_to_text(cert))
        args = ["verify", "--certificate", str(path)]
        if instance:
            args += ["--instance", str(tmp_path / instance), "--problem", "matching"]
        return main(args)

    for forged in (small_ball, halved):
        assert forged.claimed_bound < 4
        assert verify(forged) == 0  # consistent with its own objective and R
        assert verify(forged, "g.dimacs") == 1
    assert verify(honest, "g.dimacs") == 0
    assert verify(honest, "other.dimacs") == 1  # another dimension


def test_verify_checks_rows_with_tiny_multipliers(tmp_path, capsys):
    # The honest certificate halved, plus a forged row whose tiny multiplier
    # restores the objective: the aggregation passes for a bound below the
    # optimum 4, so only checking that row against the instance rejects it.
    graph = generate_triangle_instance(12, 4, 2)
    d = graph.n_edges
    res = fc1_matching_run(graph)
    honest = res.certificate
    forged_row = Constraint(5e12 * np.ones(d), 0.0, name="degree:0")
    forged = replace(
        honest,
        rows=[(cons, m / 2) for cons, m in honest.rows] + [(forged_row, 1e-13)],
        ball_coefficient=honest.ball_coefficient / 2,
        nonneg_slack=honest.nonneg_slack / 2,
        gamma=honest.gamma / 2,
        claimed_bound=honest.claimed_bound / 2,
    )
    assert forged.claimed_bound < 4
    assert verify_certificate(forged, c=np.ones(d), R=np.sqrt(d)).passed
    assert not verify_certificate(forged, constraint_history=res.state.atoms.rows).rows_in_history
    assert verify_certificate(honest, constraint_history=res.state.atoms.rows).rows_in_history

    (tmp_path / "g.dimacs").write_text(to_dimacs(graph))
    (tmp_path / "run.cert").write_text(certificate_to_text(forged))
    capsys.readouterr()
    assert main(["verify", "--certificate", str(tmp_path / "run.cert"),
                 "--instance", str(tmp_path / "g.dimacs"), "--problem", "matching"]) == 1
    out = capsys.readouterr().out
    assert "aggregation checks: pass" in out
    assert "rows not valid for the instance: degree:0" in out


def _drop_row_line(lines, name):
    return [line for line in lines if not line.startswith(f"row {name} ")]


def _shorten_row_line(lines, name):
    return [line.rsplit(" ", 1)[0] if line.startswith(f"row {name} ") else line for line in lines]


def _replace_line(start, new):
    """Replace the line that begins with `start` and a space by `new`; {name} is the row's name."""

    def corrupt(lines, name):
        prefix = start.format(name=name) + " "
        return [new.format(name=name) if line.startswith(prefix) else line for line in lines]

    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_drop_row_line, "multiplier names row {name!r}, which the certificate does not list"),
        (_shorten_row_line, "row {name!r} has {short} entries, but the dimension is {d}"),
        (lambda lines, name: lines + ["slack 99 0.5"], "slack index 99 is outside the dimension {d}"),
        (lambda lines, name: [x for x in lines if not x.startswith("dimension ")],
         "certificate has no 'dimension' line"),
        (_replace_line("row {name}", "row {name}"), "malformed line 'row {name}'"),
        (_replace_line("multiplier {name}", "multiplier {name}"), "malformed line 'multiplier {name}'"),
        (lambda lines, name: lines + ["slack 0"], "malformed line 'slack 0'"),
        (_replace_line("R", "R one"), "the R line 'one' is not numeric"),
        (_replace_line("gamma", "gamma one"), "the gamma line 'one' is not numeric"),
        (_replace_line("dimension", "dimension 4.5"), "the dimension line '4.5' is not numeric"),
        (lambda lines, name: lines + [f"row {name} 99 0"], "the certificate repeats row {name!r}"),
        (lambda lines, name: lines + ["ball-rhs 99"], "the certificate repeats the 'ball-rhs' line"),
        (lambda lines, name: lines + ["slack 0 0.5"], "the certificate repeats slack index 0"),
        (_replace_line("setting", "setting conic"),
         "unknown setting 'conic'; expected one of polar, packing, general"),
    ],
    ids=["absent_row", "short_row", "slack_index", "no_dimension", "row_without_values",
         "multiplier_without_value", "slack_without_value", "nonnumeric_R", "nonnumeric_gamma",
         "nonnumeric_dimension", "repeated_row", "repeated_scalar", "repeated_slack",
         "unknown_setting"],
)
def test_verify_names_the_fault_of_a_malformed_certificate(corrupt, message, tmp_path, capsys):
    graph = generate_triangle_instance(9, 3, 0)
    d = graph.n_edges
    lines = certificate_to_text(fc1_matching_run(graph).certificate).splitlines()
    name = next(line.split()[1] for line in lines if line.startswith("multiplier "))
    (tmp_path / "run.cert").write_text("\n".join(corrupt(lines, name)) + "\n")
    capsys.readouterr()
    assert main(["verify", "--certificate", str(tmp_path / "run.cert")]) == 1
    err = capsys.readouterr().err
    assert err == "error: " + message.format(name=name, d=d, short=d - 1) + "\n"


def test_verify_rejects_slack_outside_packing(tmp_path, capsys):
    # Slack alone "proves" max -x_1 <= 0 on any body, e.g. on the ball of
    # radius 1 around (-5, 0), whose maximum is 6; only packing bodies lie in
    # the orthant, where the rows -x_i <= 0 hold.
    forged = textwrap.dedent("""\
        oracle-opt-certificate 1
        setting {setting}
        dimension 2
        objective -1 0
        R 6
        gamma 0
        claimed-bound 0
        ball-normal 1 0
        ball-rhs 6
        ball-coefficient 0
        slack 0 1
        """)
    path = tmp_path / "forged.cert"
    for setting, code, err in (
        ("general", 1, "error: slack lines need the packing setting, not 'general'\n"),
        ("packing", 0, ""),
    ):
        path.write_text(forged.format(setting=setting))
        capsys.readouterr()
        assert main(["verify", "--certificate", str(path)]) == code
        assert capsys.readouterr().err == err


def test_verify_without_instance_says_only_self_consistency_was_checked(tmp_path, capsys):
    graph = generate_triangle_instance(9, 3, 0)
    d = graph.n_edges
    res = run_polar(
        MatchingOracle(graph, max_set_size=9), np.ones(d), gamma1=1.0, stop=GapStop(0.05),
        max_iters=500, mode=PolarMode.PACKING,
        initial_constraints=matching_initial_rows(graph, "basic"),
    )
    (tmp_path / "run.cert").write_text(certificate_to_text(res.certificate))
    (tmp_path / "g.dimacs").write_text(to_dimacs(graph))
    note = "only self-consistency was checked"
    capsys.readouterr()

    assert main(["verify", "--certificate", str(tmp_path / "run.cert")]) == 0
    out = capsys.readouterr().out
    assert "aggregation checks: pass" in out
    assert note in out and "nothing ties the certificate to a problem" in out

    assert main(["verify", "--certificate", str(tmp_path / "run.cert"),
                 "--instance", str(tmp_path / "g.dimacs"), "--problem", "matching"]) == 0
    out = capsys.readouterr().out
    assert "all used rows are valid for the instance" in out
    assert note not in out


def test_numpy_is_the_only_runtime_dependency():
    # A fresh interpreter runs the CLI once; every top-level module it imports
    # beyond the bare interpreter's must be the standard library's, numpy or
    # oracleopt itself.  Modules without an import spec are bookkeeping that
    # compiled extensions register (numpy.random's cython_runtime), not packages.
    script = textwrap.dedent(
        """
        import sys
        bare = {name.partition(".")[0] for name in sys.modules}
        from oracleopt.cli import main
        argv = ["run", "--problem", "matching", "--nodes", "9", "--triangles", "3", "--out", ""]
        assert main(argv) == 0
        loaded = {
            name.partition(".")[0]
            for name, module in sys.modules.items()
            if getattr(module, "__spec__", None) is not None
        }
        print(" ".join(sorted(loaded - bare - set(sys.stdlib_module_names))))
        """
    )
    src = str(Path(oracleopt.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "numpy oracleopt"
