"""Experiment driver: instance construction, run orchestration, summary tables.

Reproduces the benchmark protocol at desk scale: triangle-union matching
instances and random stable-set graphs (plus synthetic ball/box bodies),
solver variants against the reference cut loop, standard versus optimal
initialization, and the shared stopping rule that checks the LP over the
initial plus separated constraints against the true optimum.

Consecutive runs on one instance share it: its oracle, reference optimum and
solved initial LP are built once, and its arrays are read-only.  The LP stop
rule resumes from that solve's final tableau and the cut loop from its pivot
path, so no run solves the initial LP again.  The oracle keeps its answers
and the LP stop rules share a memo of their states, so a run that repeats
another's early queries and cuts repeats none of their work.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import combinatorial as comb
from . import corrective as corr
from .lp_baseline import LinearProgram, LPResult, LPStop, cut_loop, solve_lp
from .oracle import BallOracle, Constraint, box_oracle
from .solver_general import run_general
from .solver_polar import PolarMode, run_polar
from .trace import CapOnly, GapStop, RunResult, StopRule

ENV_PREFIX = "ORACLEOPT_"

# Allowed values of the config keys that take one of a fixed set.
CHOICES = {
    "problem": ("matching", "stableset", "synthetic-ball", "synthetic-polytope"),
    "method": ("polar", "general", "cutloop"),
    "init": ("standard", "optimal"),
    "initial_constraints": ("upper_bound", "basic"),
    "stop": ("auto", "lp1pct", "gap", "cap"),
}


@dataclass
class ExperimentConfig:
    problem: str = "synthetic-ball"
    method: str = "polar"
    frequency: int = 0  # 0 disables corrective steps; k >= 1 corrects every k-th iteration
    init: str = "standard"
    initial_constraints: str = "basic"
    iters: int = 1000
    stop: str = "auto"
    epsilon: float = 0.01
    seed: int = 0
    out: str = "."
    nodes: int = 30
    triangles: int = 8
    density: float = 0.4
    dim: int = 2
    radius: float = 1.0
    center_offset: float = 0.0
    max_set_size: int = 9
    lp_check_every: int = 1
    graph_file: str = ""

    def validate(self) -> None:
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"unknown {name.replace('_', ' ')} {value!r}")
        if self.frequency < 0:
            raise ValueError("frequency must be >= 0")
        if self.iters < 1:
            raise ValueError("iteration cap must be positive")
        if self.lp_check_every < 1:
            raise ValueError("lp_check_every must be >= 1")
        if self.dim < 1 or self.nodes < 1:
            raise ValueError("dim and nodes must be >= 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if not 0 <= self.density <= 1:
            raise ValueError("density must be in [0, 1]")
        if self.graph_file and self.problem not in ("matching", "stableset"):
            raise ValueError(f"a graph file needs a graph problem, not {self.problem!r}")
        if self.max_set_size < 3:
            raise ValueError("max_set_size must be >= 3: odd sets start at size 3")
        if self.method == "cutloop" and self.stop == "gap":
            # Its LP value would be both incumbent and bound: a zero gap at once.
            raise ValueError("the cut loop has no incumbent for stop=gap; use cap or lp1pct")


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Build a config from a flat key=value file, the environment, and overrides.

    Precedence: explicit overrides > ORACLEOPT_* environment variables >
    config file > defaults.
    """
    config = ExperimentConfig()
    known = {f.name: getattr(config, f.name) for f in fields(config)}

    def apply(name: str, raw: str, source: str):
        nonlocal config
        if name not in known:
            raise ValueError(f"unknown config key {name!r} ({source})")
        config = replace(config, **{name: type(known[name])(raw)})

    if path:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                apply(key.strip(), value.strip(), f"{path}:{lineno}")
    for name in known:
        env_key = ENV_PREFIX + name.upper()
        if env_key in os.environ:
            apply(name, os.environ[env_key], env_key)
    for name, value in (overrides or {}).items():
        if value is None:
            continue
        apply(name, str(value), "override")
    config.validate()
    return config


@dataclass
class ExperimentSummary:
    problem: str
    method: str
    frequency: int
    init: str
    initial_constraints: str
    seed: int
    iterations: int
    gamma: float
    bound: float
    converged: bool


@dataclass
class Instance:
    """Everything a run needs: oracle, objective, rows, bounds, reference OPT."""

    oracle: object
    c: np.ndarray
    initial_rows: list[Constraint]
    lb: np.ndarray
    ub: Optional[np.ndarray]
    opt_ref: Optional[float]
    polar_mode: PolarMode
    gamma_standard: float
    initial_lp: Optional[LPResult] = None  # the cold solve of the LP over initial_rows
    lp_memo: dict = field(default_factory=dict)  # shared by the LP stop rules resumed from it


def build_instance(config: ExperimentConfig, need_opt: bool) -> Instance:
    if config.problem == "matching":
        graph = _load_graph(config)
        d = graph.n_edges
        if d == 0:
            raise ValueError("matching instance has no edges")
        oracle = comb.MatchingOracle(graph, max_set_size=config.max_set_size)
        rows = comb.matching_initial_rows(graph, config.initial_constraints)
        opt = float(comb.brute_force_matching_opt(graph)) if need_opt else None
        # The feasible region contains the standard simplex, hence the ball
        # of radius 1/sqrt(d) meets it in the orthant: gamma = r ||c|| = 1.
        return Instance(
            oracle, np.ones(d), rows, np.zeros(d), np.ones(d), opt, PolarMode.PACKING, 1.0
        )
    if config.problem == "stableset":
        graph = _load_graph(config)
        n = graph.n_nodes
        if n == 0:
            raise ValueError("stableset instance has no nodes")
        oracle = comb.StableSetOracle(graph)
        rows = comb.stableset_initial_rows(graph, config.initial_constraints)
        opt = comb.clique_relaxation_opt(graph) if need_opt else None
        return Instance(
            oracle, np.ones(n), rows, np.zeros(n), np.ones(n), opt, PolarMode.PACKING, 1.0
        )
    if config.problem == "synthetic-ball":
        d = config.dim
        center = np.zeros(d)
        center[0] = config.center_offset
        oracle = BallOracle(center, config.radius)
        c = np.ones(d)
        opt = float(c @ center) + config.radius * float(np.linalg.norm(c))
        rows = _box_rows(d, oracle.radius_outer)
        r_in = oracle.radius_inner
        gamma_std = (r_in if r_in else config.radius / 2) * float(np.linalg.norm(c))
        free = np.full(d, -np.inf)  # K need not lie in the orthant; the box rows bound it
        return Instance(oracle, c, rows, free, None, opt, PolarMode.STANDARD, gamma_std)
    if config.problem == "synthetic-polytope":
        d = config.dim
        oracle = box_oracle(-np.ones(d), np.ones(d), radius_inner=1.0)
        c = np.ones(d)
        rows = _box_rows(d, 1.0)
        free = np.full(d, -np.inf)
        return Instance(oracle, c, rows, free, None, float(d), PolarMode.STANDARD, np.sqrt(d))
    raise ValueError(f"unknown problem {config.problem!r}")


def _box_rows(dim: int, half_width: float) -> list[Constraint]:
    rows = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        rows.append(Constraint(e.copy(), half_width, name=f"boxhi:{i}"))
        rows.append(Constraint(-e, half_width, name=f"boxlo:{i}"))
    return rows


def _load_graph(config: ExperimentConfig) -> comb.Graph:
    if config.graph_file:
        with open(config.graph_file, encoding="utf-8") as fh:
            return comb.parse_dimacs(fh.read())
    if config.problem == "matching":
        return comb.generate_triangle_instance(config.nodes, config.triangles, config.seed)
    return comb.random_gnp(config.nodes, config.density, config.seed)


# The config fields that define an instance; runs that agree on them, and on a
# graph file's text (so a file edited in place is a new instance), share it.
_INSTANCE_FIELDS = ("problem", "nodes", "triangles", "density", "seed", "dim", "radius",
                    "center_offset", "max_set_size", "initial_constraints", "graph_file")


@functools.lru_cache(maxsize=1)
def _shared_instance(key: tuple, need_opt: bool) -> Instance:
    """The instance of the last key asked for, built once; its arrays are read-only."""
    instance = build_instance(ExperimentConfig(**dict(zip(_INSTANCE_FIELDS, key))), need_opt)
    for array in (instance.c, instance.lb, instance.ub, *(r.a for r in instance.initial_rows)):
        if array is not None:
            array.flags.writeable = False
    return instance


def _initial_lp(instance: Instance) -> tuple[LinearProgram, LPResult]:
    """The LP over the instance's initial rows and its solve, made on first use."""
    lp = LinearProgram(instance.c, list(instance.initial_rows), lb=instance.lb, ub=instance.ub)
    if instance.initial_lp is None:
        res = solve_lp(lp)
        for array in (res.x, *res.final):
            array.flags.writeable = False
        instance.initial_lp = res
    return lp, instance.initial_lp


def run_experiment(config: ExperimentConfig) -> tuple[ExperimentSummary, Optional[str]]:
    """Execute one configured run; returns its summary and the trace path."""
    config.validate()
    stop_kind = config.stop
    if stop_kind == "auto":
        if config.problem in ("matching", "stableset"):
            stop_kind = "lp1pct"
        else:
            stop_kind = "cap" if config.method == "cutloop" else "gap"
    need_opt = config.init == "optimal" or stop_kind == "lp1pct"
    text = Path(config.graph_file).read_text(encoding="utf-8") if config.graph_file else None
    key = tuple(getattr(config, name) for name in _INSTANCE_FIELDS) + (text,)
    instance = _shared_instance(key, need_opt)
    if need_opt and instance.opt_ref is None:
        raise ValueError("this run needs a computable reference optimum")
    if stop_kind == "lp1pct":
        stop: StopRule = LPStop(
            instance.opt_ref, instance.initial_rows, instance.lb, instance.ub,
            every=config.lp_check_every,
        )
        if config.method != "cutloop":  # the cut loop never asks its stop rule for an LP
            stop.warm.seed(*_initial_lp(instance))
            stop.warm.memo = instance.lp_memo
    elif stop_kind == "gap":
        stop = GapStop(rel=config.epsilon)
    else:
        stop = CapOnly()

    if config.method == "cutloop":
        result = cut_loop(
            instance.oracle,
            instance.c,
            instance.initial_rows,
            lb=instance.lb,
            ub=instance.ub,
            stop=stop,
            max_iters=config.iters,
            first=_initial_lp(instance)[1],
        )
        iterations, gamma, bound = len(result.cuts), result.value, result.value
    else:
        strategy = (
            corr.segment_only()
            if config.frequency == 0
            else corr.fully_corrective(config.frequency)
        )
        if config.method == "polar":
            gamma1 = instance.opt_ref if config.init == "optimal" else instance.gamma_standard
            result: RunResult = run_polar(
                instance.oracle,
                instance.c,
                gamma1=gamma1,
                stop=stop,
                max_iters=config.iters,
                strategy=strategy,
                mode=instance.polar_mode,
                initial_constraints=instance.initial_rows,
            )
        else:
            result = run_general(
                instance.oracle,
                instance.c,
                stop=stop,
                max_iters=config.iters,
                strategy=strategy,
                initial_constraints=[
                    c for c in instance.initial_rows if float(np.linalg.norm(c.a)) > 0
                ],
            )
        iterations, gamma, bound = result.iterations, result.gamma, result.bound
    summary = ExperimentSummary(
        problem=config.problem,
        method=config.method,
        frequency=config.frequency,
        init=config.init,
        initial_constraints=config.initial_constraints,
        seed=config.seed,
        iterations=iterations,
        gamma=gamma,
        bound=bound,
        converged=result.converged,
    )

    trace_path = None
    if config.out:
        os.makedirs(config.out, exist_ok=True)
        trace_path = os.path.join(
            config.out, f"{config.problem}_{config.method}_{config.seed}.csv"
        )
        result.trace.write_csv(trace_path)
    return summary, trace_path


def emit_table(summaries) -> tuple[str, str]:
    """Aggregate summaries into an aligned text table plus CSV.

    Groups by (method, frequency, initialization); unconverged runs are
    flagged, excluded from the means, and footnoted.
    """
    summaries = list(summaries)
    if not summaries:
        raise ValueError("no summaries to tabulate")
    groups: dict[tuple, list[ExperimentSummary]] = {}
    for s in summaries:
        groups.setdefault((s.method, s.frequency, s.init), []).append(s)

    header = ("method", "frequency", "init", "runs", "converged", "mean_iterations")
    rows = []
    footnotes = []
    for key in sorted(groups):
        method, freq, init = key
        bucket = groups[key]
        done = [s for s in bucket if s.converged]
        if done:
            mean = sum(s.iterations for s in done) / len(done)
            mean_txt = f"{mean:.2f}"
        else:
            mean_txt = "no converged runs"
        if len(done) < len(bucket):
            mean_txt += " *"
            footnotes.append(
                f"* {method}/frequency {freq}/{init}: "
                f"{len(bucket) - len(done)} unconverged run(s) excluded"
            )
        rows.append(
            (method, str(freq), init, str(len(bucket)), str(len(done)), mean_txt)
        )

    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    lines.extend(footnotes)
    text = "\n".join(lines) + "\n"

    csv_lines = [",".join(header)]
    for r in rows:
        csv_lines.append(",".join(v.replace(" *", "*") for v in r))
    return text, "\n".join(csv_lines) + "\n"
