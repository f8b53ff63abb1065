"""Workloads of the oracle-opt benchmark: inputs, solves, and the correctness gate.

Each workload builds a fixed set of solves in set-up.  The timed set is
fixed on purpose: its iteration counts are the paper's result, and the
cost of a single matching or stable-set instance varies about tenfold
with its generator seed, so a seed-dependent timed set would swamp any
regression bound.  The benchmark seed orders the solves of a pass and
picks the warm-up instances, which lie outside the timed set.
"""

from __future__ import annotations

import functools
import math
import os
import random
import re
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np
import spans

from oracleopt import certificates as certs
from oracleopt import combinatorial as comb
from oracleopt import corrective as corr
from oracleopt import harness
from oracleopt import lp_baseline
from oracleopt import solver_general
from oracleopt import solver_polar
from oracleopt.oracle import Constraint, PolytopeOracle
from oracleopt.trace import GapStop

# The criterion-8 variants: (label, method, corrective frequency, initialization).
VARIANTS = (
    ("seg_s", "polar", 0, "standard"),
    ("seg_o", "polar", 0, "optimal"),
    ("fc1_s", "polar", 1, "standard"),
    ("fc1_o", "polar", 1, "optimal"),
    ("fc10_s", "polar", 10, "standard"),
    ("fc10_o", "polar", 10, "optimal"),
    ("lp", "cutloop", 0, "standard"),
)


def _rel_tol(opt: float) -> float:
    return 1e-6 * (1.0 + abs(opt))


def rounding_allowance(cert) -> float:
    """Worst-case rounding error of summing the certificate's right-hand side.

    gamma_k * sum |m_i b_i| over the k aggregated terms, with
    gamma_k = k u / (1 - k u) and u the unit roundoff (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 4.2).
    """
    terms = [abs(m * cons.b) for cons, m in cert.rows]
    terms.append(abs(cert.ball_coefficient * cert.ball_rhs))
    ku = len(terms) * np.finfo(float).eps / 2
    return ku / (1 - ku) * math.fsum(terms)


@dataclass
class Outcome:
    """What one solve produced, plus what the gate needs to judge it."""

    key: str
    seconds: float = 0.0
    iterations: int = 0
    oracle_calls: int = 0
    converged: bool = False
    opt: float = math.nan
    value: Optional[float] = None  # incumbent value; None for the cut loop
    bound: float = math.nan  # LP value of the cut loop; else set by the certificate
    certificate: object = None
    history: list = field(default_factory=list)
    report: object = None
    lp_stop_expected: int = 0  # trace rows with an LP bound, plus the initial check
    # Objective scaled by 1e8: verify_certificate's absolute 1e-6 rhs test is
    # below the rounding error there (ROADMAP item 5), so the rhs excess is
    # judged against rounding_allowance instead; every other check stands.
    scaled: bool = False
    rhs_excess: float = 0.0  # aggregated rhs minus the claimed bound
    rhs_allowance: float = 0.0
    summary: object = None
    trace_csv: str = ""
    error: str = ""

    def failures(self) -> list[str]:
        """Reasons this solve counts as failed; empty when it passes."""
        if self.error:
            return [self.error]
        reasons = []
        if not self.converged:
            reasons.append("did not converge")
        tol = _rel_tol(self.opt)
        if self.value is None:
            if not self.bound >= self.opt - tol:
                reasons.append(f"LP value {self.bound!r} below the optimum {self.opt!r}")
            return reasons
        if self.report is None:
            reasons.append("no certificate checked")
        else:
            rejected = self.report.failures()
            if self.scale_defect():
                rejected.remove("rhs_within_bound")
            if rejected:
                reasons.append("certificate rejected: " + ",".join(rejected))
        if not self.bound >= self.opt - tol:
            reasons.append(f"certified bound {self.bound!r} below the optimum {self.opt!r}")
        if self.value > self.opt + tol:
            reasons.append(f"incumbent value {self.value!r} above the optimum {self.opt!r}")
        return reasons

    def scale_defect(self) -> bool:
        """Whether only the known scale defect rejects the rhs, within the rounding allowance."""
        return (
            self.scaled
            and not self.report.rhs_within_bound
            and self.rhs_excess <= self.rhs_allowance
        )


def check_certificate(outcome: Outcome) -> float:
    """Round-trip the certificate through text and verify it; returns seconds.

    This is what a third-party checker does, so it is also what verify_s
    times.  The certified bound the gate compares is the parsed one.
    """
    start = perf_counter()
    text = certs.certificate_to_text(outcome.certificate)
    parsed = certs.certificate_from_text(text)
    outcome.report = certs.verify_certificate(parsed, constraint_history=outcome.history)
    elapsed = perf_counter() - start
    outcome.bound = parsed.claimed_bound
    if outcome.scaled:
        outcome.rhs_excess = 0.0 - outcome.report.rhs_margin
        outcome.rhs_allowance = rounding_allowance(parsed)
    return elapsed


def config_graph(config: dict) -> comb.Graph:
    """The graph a matching or stable-set configuration generates."""
    if config["problem"] == "matching":
        return comb.generate_triangle_instance(config["nodes"], config["triangles"], config["seed"])
    return comb.random_gnp(config["nodes"], config["density"], config["seed"])


def reference_opt(config: dict) -> float:
    """The benchmark's own optimum for a matching or stable-set configuration."""
    graph = config_graph(config)
    if config["problem"] == "matching":
        return float(comb.brute_force_matching_opt(graph))
    return float(comb.clique_relaxation_opt(graph))


def trivial_row(dim: int, rhs: float) -> Constraint:
    """<0, x> <= rhs: the row every solver keeps as atom 0; valid for any body."""
    return Constraint(np.zeros(dim), rhs)


def clear_program_caches() -> None:
    """Empty every lru_cache in oracleopt, as in a freshly started process."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "oracleopt" or name.startswith("oracleopt.")):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Capture:
    """Records what run_experiment's solvers return.

    The harness calls run_polar, run_general and cut_loop through names in
    its own namespace; those names are pointed at forwarding functions that
    look the solver up in its defining module at call time, so a tracer
    that wraps the defining module still sees the call.
    """

    def __init__(self):
        self.calls: list[tuple[object, dict]] = []
        for name, module in (
            ("run_polar", solver_polar),
            ("run_general", solver_general),
            ("cut_loop", lp_baseline),
        ):
            setattr(harness, name, self._forward(module, name))

    def _forward(self, module, name):
        calls = self.calls

        def forward(*args, **kwargs):
            result = getattr(module, name)(*args, **kwargs)
            calls.append((result, kwargs))
            return result

        return forward

    def take(self):
        if len(self.calls) != 1:
            raise RuntimeError(f"expected one captured solver call, saw {len(self.calls)}")
        return self.calls.pop()


def experiment_outcome(key, summary, result, kwargs, opt, config) -> Outcome:
    """Outcome of one run_experiment call from its summary and solver result."""
    stop = kwargs["stop"]
    out = Outcome(key=key, summary=summary, opt=opt, converged=summary.converged)
    out.trace_csv = result.trace.to_csv()
    out.iterations = summary.iterations if summary.converged else config.iters
    if config.method == "cutloop":
        # The loop separates once per LP it solves, except when the stop
        # rule fires on that LP first.
        final = result.converged and not stop.satisfied(
            gamma=result.value, bound=result.value, lp_value=result.value
        )
        out.oracle_calls = len(result.cuts) + int(final)
        out.bound = result.value
        return out
    state = result.state
    initial = list(kwargs.get("initial_constraints", ()))
    out.oracle_calls = state.oracle_calls
    out.value = result.gamma
    out.certificate = result.certificate
    out.history = [trivial_row(len(result.certificate.objective), 1.0)] + initial + state.cuts
    out.lp_stop_expected = sum(1 for row in result.trace if row.lp_bound is not None) + int(
        stop.lp_due(0)
    )
    return out


@dataclass
class Solve:
    key: str
    run: Callable[[], Outcome]
    group: str = ""  # paper-result variant label


class Workload:
    """Base: a seed-ordered list of solves and the set-up that makes them."""

    name = ""
    sweep = False  # reports the criterion-8 table and orderings

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.rng = random.Random(seed)
        self.out_dir = out_dir
        self.solves: list[Solve] = []
        self.capture = Capture()

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> list[Outcome]:
        """Run every solve once, from empty caches; with a tracer, each solve is a root span."""
        clear_program_caches()
        outcomes = []
        for index, solve in enumerate(self.solves):
            try:
                if tracer is None:
                    out = solve.run()
                else:
                    with tracer.root("bench.solve", solve=index):
                        out = solve.run()
            except Exception as exc:  # a crashing solve is a failed solve
                out = Outcome(key=solve.key, error=f"{type(exc).__name__}: {exc}")
                self.capture.calls.clear()
            outcomes.append(out)
        return outcomes

    def verify_pass(self, outcomes: list[Outcome]) -> dict[str, float]:
        """Check every certificate of a pass; returns the seconds each check took."""
        return {o.key: check_certificate(o) for o in outcomes if o.certificate is not None}

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the process that ran the solves."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def trace_children(self, on: bool) -> None:
        """Whether child processes run under the tracer (only the CLI workload has any)."""

    def child_spans(self) -> list[tuple[bool, list]]:
        """(part of a solve, span list) for each traced child process of the last pass."""
        return []


class SweepWorkload(Workload):
    """The criterion-8 sweep of one problem family through run_experiment."""

    sweep = True

    def bases(self) -> list[dict]:
        raise NotImplementedError

    def warm_up_base(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        bases = self.bases()
        self.rng.shuffle(bases)
        for base in bases:
            opt = reference_opt(base)
            variants = list(VARIANTS)
            self.rng.shuffle(variants)
            for label, method, freq, init in variants:
                config = harness.load_config(
                    None, dict(base, method=method, frequency=freq, init=init)
                )
                key = f"{self.name}:{base['seed']}:{base.get('triangles', '')}:{label}"
                self.solves.append(Solve(key, self._solver(key, config, opt), label))

    def _solver(self, key, config, opt):
        def run() -> Outcome:
            start = perf_counter()
            summary, _ = harness.run_experiment(config)
            seconds = perf_counter() - start
            result, kwargs = self.capture.take()
            out = experiment_outcome(key, summary, result, kwargs, opt, config)
            out.seconds = seconds
            return out

        return run

    def warm_up(self) -> None:
        base = self.warm_up_base()
        for _, method, freq, init in VARIANTS:
            harness.run_experiment(
                harness.load_config(None, dict(base, method=method, frequency=freq, init=init))
            )
        self.capture.calls.clear()


class MatchingSweep(SweepWorkload):
    name = "matching-sweep"

    def bases(self):
        return [
            dict(problem="matching", nodes=15, triangles=r, seed=s, max_set_size=15, out="", iters=1000)
            for r in range(10, 18)
            for s in (0, 1)
        ]

    def warm_up_base(self):
        return dict(
            problem="matching", nodes=15, triangles=self.rng.randint(10, 17),
            seed=2 + self.rng.randrange(10_000), max_set_size=15, out="", iters=1000,
        )


class StableSetSweep(SweepWorkload):
    name = "stableset-sweep"

    def bases(self):
        # Criterion 8 uses G(20, 0.55); one pass over it takes about 21 s on
        # a 2-core host, too long to repeat within a run.  G(16, 0.55) keeps
        # the orderings (G(14, 0.55) loses fc1_s < lp) at about 8 s a pass.
        return [
            dict(problem="stableset", nodes=16, density=0.55, seed=s, out="", iters=1000)
            for s in range(10)
        ]

    def warm_up_base(self):
        # Smaller graphs than the timed set keep the warm-up short.
        return dict(
            problem="stableset", nodes=12, density=0.55,
            seed=10 + self.rng.randrange(10_000), out="", iters=1000,
        )


def random_polytope(n: int, seed: int, scale: float = 1.0):
    """4n random unit-normal halfspaces <a, x> <= 1 plus the box [-1, 1]^n.

    Returns the oracle, a positive objective scaled by `scale`, and the
    optimum from scipy's HiGHS.  Both the halfspaces and the box contain
    the unit ball, so r = 1, and the box fits in the ball of radius sqrt(n).
    """
    from scipy.optimize import linprog

    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((4 * n, n))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    c = rng.uniform(0.1, 1.0, n)
    lp = linprog(-c, A_ub=normals, b_ub=np.ones(4 * n), bounds=[(-1.0, 1.0)] * n, method="highs")
    if lp.status != 0:
        raise RuntimeError(f"reference LP failed: {lp.message}")
    rows = [Constraint(a, 1.0, name=f"half:{i}") for i, a in enumerate(normals)]
    oracle = PolytopeOracle(
        rows, box_bounds=(-np.ones(n), np.ones(n)), radius_outer=float(np.sqrt(n)), radius_inner=1.0
    )
    return oracle, scale * c, scale * float(-lp.fun)


# (label, solver, strategy factory); every polytope solve stops at a 1% gap.
POLYTOPE_VARIANTS = {
    "polar_fc1": ("polar", lambda: corr.fully_corrective(1)),
    "polar_fc10": ("polar", lambda: corr.fully_corrective(10)),
    "polar_pc": ("polar", lambda: corr.partially_corrective()),
    "general_fc1": ("general", lambda: corr.fully_corrective(1)),
    "general_fc10": ("general", lambda: corr.fully_corrective(10)),
}
POLYTOPE_MAX_ITERS = 2000


def solve_polytope(key: str, oracle, c, opt: float, variant: str, scaled: bool = False) -> Outcome:
    """One timed polytope solve and what the gate needs to judge it."""
    method, strategy = POLYTOPE_VARIANTS[variant]
    runner = solver_polar.run_polar if method == "polar" else solver_general.run_general
    start = perf_counter()
    result = runner(oracle, c, stop=GapStop(0.01), max_iters=POLYTOPE_MAX_ITERS, strategy=strategy())
    out = Outcome(
        key=key, seconds=perf_counter() - start, converged=result.converged, opt=opt,
        iterations=result.iterations if result.converged else POLYTOPE_MAX_ITERS,
        oracle_calls=result.state.oracle_calls, value=result.gamma, certificate=result.certificate,
        scaled=scaled,
    )
    if result.certificate is not None:
        rhs = 1.0 if method == "polar" else oracle.radius_outer
        out.history = [trivial_row(len(c), rhs)] + list(result.state.cuts)
    return out


class PolytopeCorrective(Workload):
    """Corrective solvers on random polytopes, no LP and no combinatorics."""

    name = "polytope-corrective"

    # (instance label, n, generator seed, objective scale, variants).  The
    # n = 100 instance runs only polar fc10, which keeps a pass near 5 s on a
    # 2-core machine; its certificates have more than 100 rows.  The n = 60
    # instance with c scaled by 1e8 runs the two polar variants whose
    # certificates show the scale defect, and general fc10.
    INSTANCES = (
        ("n60", 60, 0, 1.0, ("polar_fc1", "polar_fc10", "polar_pc", "general_fc1", "general_fc10")),
        ("n100", 100, 1, 1.0, ("polar_fc10",)),
        ("n60x1e8", 60, 0, 1e8, ("polar_fc10", "polar_pc", "general_fc10")),
    )

    def setup(self) -> None:
        for label, n, gen_seed, scale, variants in self.INSTANCES:
            oracle, c, opt = random_polytope(n, gen_seed, scale)
            for variant in variants:
                key = f"polytope:{label}:{variant}"
                run = functools.partial(solve_polytope, key, oracle, c, opt, variant, scale != 1.0)
                self.solves.append(Solve(key, run, variant))
        self.rng.shuffle(self.solves)

    def warm_up(self) -> None:
        oracle, c, opt = random_polytope(20, 100 + self.rng.randrange(10_000))
        for variant in POLYTOPE_VARIANTS:
            solve_polytope("warm-up", oracle, c, opt, variant)


# Configurations of `oracle-opt run` taken from the two sweeps; the matching
# ones need odd-set cuts (their initial LP is not within 1% of the optimum).
CLI_CONFIGS = (
    dict(problem="matching", method="polar", frequency=1, init="standard", nodes=15, triangles=15, seed=0, max_set_size=15),
    dict(problem="matching", method="polar", frequency=0, init="standard", nodes=15, triangles=11, seed=1, max_set_size=15),
    dict(problem="matching", method="cutloop", frequency=0, init="standard", nodes=15, triangles=16, seed=0, max_set_size=15),
    dict(problem="stableset", method="polar", frequency=10, init="optimal", nodes=16, density=0.55, seed=3),
    dict(problem="stableset", method="polar", frequency=1, init="standard", nodes=16, density=0.55, seed=5),
    dict(problem="stableset", method="cutloop", frequency=0, init="standard", nodes=16, density=0.55, seed=1),
)

_SUMMARY = re.compile(r"(\d+) iterations, value (\S+), bound (\S+) \(")


def cli_args(config: dict) -> list[str]:
    return [f"--{key.replace('_', '-')}={value}" for key, value in config.items()]


@dataclass
class Invocation:
    seconds: float
    returncode: int
    stdout: str


class CliCold(Workload):
    """Sequential `oracle-opt run` processes, then `oracle-opt verify` ones.

    Every invocation is a fresh interpreter, so each pays start-up, imports,
    the cold odd-set table, the reference optimum and writing its trace.
    The certificates handed to `verify` come from in-process runs of the
    same configurations during set-up, since `run` writes none.
    """

    name = "cli-cold"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir / "cli")
        self.tracer_entry = None  # script that runs the CLI under the tracer
        self.spans_files: list[tuple[bool, Path]] = []
        self.max_child_rss_kb = 0
        self.verifies: list[tuple[str, list[str]]] = []
        self.env = dict(os.environ)
        src = str(Path(harness.__file__).resolve().parents[1])
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def setup(self) -> None:
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        self.out_dir.mkdir(parents=True)
        order = list(range(len(CLI_CONFIGS)))
        self.rng.shuffle(order)
        for index in order:
            config = dict(CLI_CONFIGS[index])
            key = f"cli:{index}:{config['problem']}:{config['method']}"
            full = harness.load_config(None, dict(config, out=""))
            summary, _ = harness.run_experiment(full)
            result, kwargs = self.capture.take()
            expected = experiment_outcome(key, summary, result, kwargs, reference_opt(config), full)
            if expected.certificate is not None:
                check_certificate(expected)
                graph = config_graph(config)
                cert_path = self.out_dir / f"{index}.cert"
                graph_path = self.out_dir / f"{index}.dimacs"
                cert_path.write_text(certs.certificate_to_text(expected.certificate), encoding="utf-8")
                graph_path.write_text(comb.to_dimacs(graph), encoding="utf-8")
                self.verifies.append(
                    (key, ["verify", f"--certificate={cert_path}", f"--instance={graph_path}",
                           f"--problem={full.problem}"])
                )
            self.solves.append(Solve(key, self._solver(key, index, config, expected), key))

    def invoke(self, argv: list[str], tag: str) -> Invocation:
        """Run one CLI process to completion; the child is limited to 120 s of CPU."""
        command = [sys.executable, "-m", "oracleopt.cli"]
        if self.tracer_entry is not None:
            spans_file = self.out_dir / f"spans-{len(self.spans_files)}.jsonl"
            self.spans_files.append((argv[0] == "run", spans_file))
            command = [sys.executable, str(self.tracer_entry), str(spans_file)]
        stdout_path = self.out_dir / f"{tag}.stdout"
        with open(stdout_path, "wb") as stdout:
            start = perf_counter()
            proc = subprocess.Popen(
                command + argv, stdout=stdout, stderr=subprocess.STDOUT, env=self.env,
                cwd=self.out_dir, preexec_fn=limit_cpu,
            )
            _, status, usage = os.wait4(proc.pid, 0)  # wait4 also gives this child's peak memory
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if argv[0] == "run":
            self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return Invocation(seconds, proc.returncode, stdout_path.read_text(encoding="utf-8"))

    def _solver(self, key, index, config, expected: Outcome):
        def run() -> Outcome:
            run_dir = self.out_dir / "run" / str(index)
            inv = self.invoke(["run", *cli_args(config), f"--out={run_dir}"], f"run-{index}")
            out = Outcome(
                key=key, seconds=inv.seconds, iterations=expected.iterations,
                oracle_calls=expected.oracle_calls, opt=expected.opt, value=expected.value,
                bound=expected.bound, summary=expected.summary,
                lp_stop_expected=expected.lp_stop_expected,
            )
            problems = []
            match = _SUMMARY.search(inv.stdout)
            if inv.returncode != 0:
                problems.append(f"exit code {inv.returncode}: {inv.stdout.strip()[-200:]}")
            elif match is None:
                problems.append("no run summary printed")
            else:
                iterations, value, bound = int(match[1]), float(match[2]), float(match[3])
                ref_value = expected.summary.gamma
                ref_bound = expected.summary.bound
                if iterations != expected.summary.iterations:
                    problems.append(f"{iterations} iterations, expected {expected.summary.iterations}")
                if not (math.isclose(value, ref_value, rel_tol=1e-5) and math.isclose(bound, ref_bound, rel_tol=1e-5)):
                    problems.append(f"value/bound {value}/{bound}, expected {ref_value}/{ref_bound}")
                traces = list(run_dir.glob("*.csv"))
                if len(traces) != 1 or traces[0].read_text(encoding="utf-8") != expected.trace_csv:
                    problems.append("trace file differs from the in-process run")
            out.converged = inv.returncode == 0
            out.error = "; ".join(problems)
            # The in-process run of this configuration passed the full
            # certificate gate in set-up; the CLI run reproduces it exactly.
            out.report = expected.report
            return out

        return run

    def peak_rss_kb(self) -> int:
        return self.max_child_rss_kb

    def trace_children(self, on: bool) -> None:
        self.tracer_entry = Path(__file__).resolve().parent / "traced_cli.py" if on else None
        if on:
            self.spans_files = []

    def child_spans(self) -> list[tuple[bool, list]]:
        return [(solving, spans.load(path)) for solving, path in self.spans_files]

    def run_pass(self, tracer=None) -> list[Outcome]:
        if (self.out_dir / "run").exists():
            shutil.rmtree(self.out_dir / "run")
        return super().run_pass(tracer)

    def verify_pass(self, outcomes: list[Outcome]) -> dict[str, float]:
        seconds = {}
        by_key = {o.key: o for o in outcomes}
        for key, argv in self.verifies:
            inv = self.invoke(argv, "verify")
            seconds[key] = inv.seconds
            ok = inv.returncode == 0 and "aggregation checks: pass" in inv.stdout
            ok = ok and "all used rows are valid for the instance" in inv.stdout
            if not ok and key in by_key and not by_key[key].error:
                by_key[key].error = f"oracle-opt verify rejected the certificate: {inv.stdout.strip()[-200:]}"
        return seconds

    def warm_up(self) -> None:
        config = dict(
            problem="matching", method="polar", frequency=1, init="standard", nodes=15,
            triangles=self.rng.randint(10, 17), seed=2 + self.rng.randrange(10_000), max_set_size=15,
        )
        self.invoke(["run", *cli_args(config), f"--out={self.out_dir / 'warm'}"], "warm")
        if self.verifies:
            self.invoke(self.verifies[0][1], "warm-verify")


def limit_cpu() -> None:
    """Limit the calling (child) process to 120 s of CPU."""
    resource.setrlimit(resource.RLIMIT_CPU, (120, 120))


WORKLOADS = {
    cls.name: cls for cls in (MatchingSweep, StableSetSweep, PolytopeCorrective, CliCold)
}
