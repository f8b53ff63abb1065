"""oracle-opt benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload matching-sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports oracle-opt from its
``src`` directory, in one process and one thread (BLAS pinned to 1).  It
sets up the workload, warms up on instances outside the timed set, then
repeats passes over the timed solves while another pass still fits in
--seconds, each pass starting from empty program caches.  Every solve passes through the
correctness gate.  With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics instead.
The exit code is 0 only when every check held.

    python3 perfbench/run.py --workload matching-sweep --seed 0 --seconds 0 --record-counts

writes the iteration and oracle-call counts of one checked pass to
expected_counts.json, which every later run holds each solve to.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [key for key in os.environ if key.startswith("ORACLEOPT_")]:
    del os.environ[_var]  # the program's config overrides would change the inputs

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
COUNTS = HERE / "expected_counts.json"
SETUP_SAMPLES = 5


def import_program() -> None:
    """Put the checkout's sources first on the path, or stop with an error."""
    package = SRC / "oracleopt"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no oracle-opt sources at {package}")
    sys.path.insert(0, str(SRC))
    import oracleopt

    if Path(oracleopt.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: oracleopt was imported from {oracleopt.__file__}, not {package}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="set the workload up and exit (times set-up)"
    )
    parser.add_argument(
        "--record-counts", action="store_true",
        help=f"write the counts of one checked pass to {COUNTS.name} and exit",
    )
    return parser.parse_args(argv)


def time_setup(args) -> float:
    """Seconds for a fresh process to import, build the inputs and the reference optima."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    from workloads import limit_cpu

    # A timeout would make subprocess poll the child in steps of up to 50 ms,
    # which quantises the time; the CPU limit bounds the child instead.
    start = perf_counter()
    subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, preexec_fn=limit_cpu)
    return perf_counter() - start


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Run:
    """One benchmark run: passes, gate results and the report."""

    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.expected = json.loads(COUNTS.read_text()).get(workload.name, {})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failed solves and failed run-level checks
        self.reference = None  # outcomes of the first pass, by key
        self.walls: list[float] = []
        self.times: dict[str, list[float]] = {}  # per solve, one time per pass
        self.verify_times: dict[str, list[float]] = {}  # per certificate, one time per pass

    def one_pass(self, tracer=None):
        start = perf_counter()
        outcomes = self.workload.run_pass(tracer)
        wall = perf_counter() - start
        if tracer is None:
            verify = self.workload.verify_pass(outcomes)
        else:
            with tracer.root("bench.verify", solve=-1):
                verify = self.workload.verify_pass(outcomes)
        self.judge(outcomes)
        return outcomes, wall, verify

    def judge(self, outcomes) -> None:
        """Apply the gate and hold every solve to its committed counts."""
        if self.reference is None:
            self.reference = {o.key: o for o in outcomes}
        for out in outcomes:
            self.attempted += 1
            reasons = out.failures()
            expected = self.expected.get(out.key)
            if expected is None:
                reasons.append(f"no expected counts in {COUNTS.name}")
            elif [out.iterations, out.oracle_calls] != expected:
                reasons.append(f"{out.iterations} iterations and {out.oracle_calls} oracle calls, "
                               f"expected {expected[0]} and {expected[1]}")
            self.failed += bool(reasons)
            self.problems.extend(f"{out.key}: {reason}" for reason in reasons)

    def time_left(self, start: float, last_pass: float) -> bool:
        """Whether one more pass as long as the last one still ends within --seconds."""
        return perf_counter() - start + last_pass <= self.seconds

    def timed(self) -> None:
        start = perf_counter()
        while True:
            pass_start = perf_counter()
            outcomes, wall, verify = self.one_pass()
            self.walls.append(wall)
            for out in outcomes:
                self.times.setdefault(out.key, []).append(out.seconds)
            for key, seconds in verify.items():
                self.verify_times.setdefault(key, []).append(seconds)
            if not self.time_left(start, perf_counter() - pass_start):
                return

    def scale_report(self) -> float:
        """Print how the 1e8-scaled certificates fare; returns their largest relative rhs excess."""
        scaled = sorted((o for o in self.reference.values() if o.scaled and o.report), key=lambda o: o.key)
        excess = [o.rhs_excess / (1.0 + abs(o.bound)) for o in scaled]
        for out, rel in zip(scaled, excess):
            verdict = "accepts"
            if not out.report.rhs_within_bound:
                verdict = "rejects by rhs_within_bound (known scale defect, ROADMAP item 5)"
            print(f"{out.key}: verify_certificate {verdict}; rhs excess {out.rhs_excess:.3g}, "
                  f"{rel:.3g} of 1 + |bound|, rounding allowance {out.rhs_allowance:.3g}")
        return max(excess, default=0.0)

    def paper_report(self) -> None:
        """Criterion-8 table and orderings over the first pass of a sweep."""
        from oracleopt.harness import emit_table

        outcomes = list(self.reference.values())
        text, _ = emit_table(o.summary for o in outcomes if o.summary is not None)
        print(text, end="")
        groups = {}
        for solve in self.workload.solves:
            groups.setdefault(solve.group, []).append(self.reference[solve.key].iterations)
        means = {label: statistics.fmean(v) for label, v in groups.items()}
        print("mean iterations (capped runs at the cap): "
              + ", ".join(f"{k} {means[k]:.3f}" for k in sorted(means)))
        checks = [("fc1_s", "<", "lp")] + [(f"{f}_o", "<=", f"{f}_s") for f in ("seg", "fc1", "fc10")]
        for left, op, right in checks:
            held = means[left] < means[right] if op == "<" else means[left] <= means[right]
            print(f"ordering {left} {op} {right}: {'holds' if held else 'VIOLATED'}")
            if not held:
                self.problems.append(f"criterion-8 ordering {left} {op} {right} violated")


def end_to_end(run: Run, setup_s: float, peak_rss_kb: int) -> dict:
    """Timings take each solve at its fastest pass.

    The host's speed drifts in phases of seconds to minutes; the fastest
    of several passes spread over the run is far steadier from run to run
    than their median, which follows whichever phase the run fell into.
    """
    first = list(run.reference.values())
    best = [min(times) for times in run.times.values()]
    p90 = statistics.quantiles(best, n=10)[8] if len(best) > 1 else best[0]
    q1, median, q3 = quartiles(run.walls)
    print(f"pass wall time median {median:.4f} s, quartiles {q1:.4f} / {q3:.4f}, "
          f"over {len(run.walls)} passes of {len(first)} solves")
    print(f"wall_s {sum(best):.4f} s, solve p50 {statistics.median(best) * 1e3:.2f} ms, "
          f"p90 {p90 * 1e3:.2f} ms, over {len(best)} solves at their best of {len(run.walls)} passes")
    return {
        "wall_s": (sum(best), "s"),
        "solve_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "solve_p90_ms": (p90 * 1e3, "ms"),
        "verify_s": (sum(min(times) for times in run.verify_times.values()), "s"),
        "iterations_mean": (statistics.fmean(o.iterations for o in first), "iterations"),
        "oracle_calls": (sum(o.oracle_calls for o in first), "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def layer_metrics(totals, wall: float) -> dict:
    """Per-layer metrics of one traced pass; `wall` is its traced duration."""
    m = {}

    def calls(name):
        m[f"{name}.calls"] = (totals.calls[name], "count")

    def self_s(name):
        m[f"{name}.self_s"] = (totals.self_s[name], "s")

    def total_s(name):
        m[f"{name}.s"] = (totals.total_s[name], "s")

    for name in ("lp_baseline.solve_lp", "lp_baseline.cut_loop", "oracle.separate",
                 "corrective.min_norm_point", "corrective.partially_corrective_update",
                 "solver_polar.polar_step", "solver_general.general_step"):
        calls(name)
        self_s(name)
    m["lp_baseline.solve_lp.rows_mean"] = (totals.mean("lp_baseline.solve_lp"), "rows")
    calls("lp_baseline.lp_stop_bound")
    m["lp_baseline.lp_stop_bound.unchanged_frac"] = (totals.mean("lp_baseline.lp_stop_bound"), "fraction")
    for name in ("combinatorial.best_violated_oddset", "combinatorial.max_weight_clique",
                 "certificates.build", "trace.write_csv"):
        calls(name)
        total_s(name)
    for name in ("combinatorial.ref_opt", "certificates.verify", "harness.build_instance", "cli.main"):
        total_s(name)
    m["corrective.min_norm_point.atoms_mean"] = (totals.mean("corrective.min_norm_point"), "atoms")
    m["certificates.build.rows_mean"] = (totals.mean("certificates.build"), "rows")
    m["certificates.text_bytes"] = (totals.note_sum["certificates.to_text"], "bytes")
    for step in ("shrink", "primal", "cut"):
        m[f"solver_polar.steps.{step}"] = (totals.steps[step], "count")
    m["cli.import_s"] = (totals.total_s["cli.import"], "s")
    for module in spans.SHARE_MODULES:
        m[f"share.{module}"] = (totals.module_self_s[module] / wall, "fraction")
    return m


def traced(run: Run) -> dict:
    """Alternate untraced and traced passes; per-layer metrics are medians over traced ones."""
    workload = run.workload
    per_pass, untraced_walls, traced_walls = [], [], []
    start = perf_counter()
    while True:
        pair_start = perf_counter()
        _, wall, _ = run.one_pass()
        untraced_walls.append(wall)
        tracer = spans.Tracer()
        workload.trace_children(True)
        tracer.install()
        try:
            outcomes, wall, _ = run.one_pass(tracer)
        finally:
            tracer.uninstall()
            workload.trace_children(False)
        traced_walls.append(wall)
        # Module shares cover the solves, not the verify step after them.
        totals = spans.Totals()
        totals.add(tracer.spans, lambda span: span[spans.SOLVE] >= 0)
        for solving, child in workload.child_spans():
            totals.add(child, lambda span: solving)
        if tracer.missing:
            print("not traced (absent from the program): " + ", ".join(tracer.missing))
        expected = sum(o.lp_stop_expected for o in outcomes)
        seen = totals.calls["lp_baseline.lp_stop_bound"]
        if "lp_baseline.lp_stop_bound" not in tracer.missing and seen != expected:
            run.problems.append(
                f"traced lp_stop_bound calls {seen} != {expected} LP-stop rows plus initial checks"
            )
        per_pass.append(layer_metrics(totals, wall))
        if not run.time_left(start, perf_counter() - pair_start):
            break
    metrics = {
        name: (statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)
    metrics["tracing_overhead_s"] = (overhead, "s")
    metrics["certificates.verify.scaled_rhs_excess_rel"] = (run.scale_report(), "fraction")
    print(f"traced passes {len(traced_walls)}: wall {statistics.median(traced_walls):.4f} s traced, "
          f"{statistics.median(untraced_walls):.4f} s untraced")
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl")
    return metrics


def record_counts(workload) -> int:
    """Store one pass's iteration and oracle-call counts as the expected ones."""
    outcomes = workload.run_pass()
    workload.verify_pass(outcomes)
    failed = [f"{o.key}: {reason}" for o in outcomes for reason in o.failures()]
    if failed:
        print("\n".join("FAILED " + line for line in failed))
        return 1
    counts = json.loads(COUNTS.read_text()) if COUNTS.exists() else {}
    counts[workload.name] = {o.key: [o.iterations, o.oracle_calls] for o in outcomes}
    blocks = [
        f" {json.dumps(name)}: {{\n"
        + ",\n".join(f"  {json.dumps(key)}: {json.dumps(pair)}" for key, pair in sorted(solves.items()))
        + "\n }"
        for name, solves in sorted(counts.items())
    ]
    COUNTS.write_text("{\n" + ",\n".join(blocks) + "\n}\n")  # one line per solve
    print(f"recorded the counts of {len(outcomes)} solves of {workload.name} in {COUNTS}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    if args.setup_only:
        workload.setup()
        return 0
    if args.record_counts:
        workload.setup()
        return record_counts(workload)
    setup_s = None if args.trace else statistics.median(time_setup(args) for _ in range(SETUP_SAMPLES))
    workload.setup()
    workload.warm_up()

    run = Run(workload, args.seconds)
    if args.trace:
        metrics = traced(run)
    else:
        run.timed()
        metrics = end_to_end(run, setup_s, workload.peak_rss_kb())
        run.scale_report()
    if workload.sweep:
        run.paper_report()
    for line in run.problems[:20]:
        print("FAILED " + line)
    print(f"fail_frac {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
