"""Self-tests of the oracle-opt benchmark.

    python3 perfbench/selftest.py

1. The correctness gate is not vacuous: a certificate whose largest
   multiplier on a nonzero row is halved, or negated, must be rejected,
   while the untouched certificate passes.
2. The rhs test that replaces verify_certificate's absolute one on the
   1e8-scaled polytope is not vacuous: the untouched certificate passes,
   one whose claimed bound is lowered by 100 rounding allowances fails.
3. Two runs of matching-sweep with one seed give identical
   iterations_mean and oracle_calls (untraced) and identical
   lp_baseline.solve_lp.calls (traced).

Exits 0 when all three hold.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"benchmark run failed ({done.returncode}):\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def gate_rejects_corruption() -> list[str]:
    import workloads
    from oracleopt.harness import load_config

    workload = workloads.MatchingSweep(0, HERE / "out")
    # This configuration needs 8 iterations, so its certificate uses cut rows.
    config = load_config(None, dict(problem="matching", nodes=15, triangles=15, seed=0,
                                    max_set_size=15, out="", method="polar", frequency=1))
    run = workload._solver("selftest", config, workloads.reference_opt(vars(config)))
    clean = run()
    workloads.check_certificate(clean)
    problems = [] if not clean.failures() else [f"clean certificate rejected: {clean.failures()}"]

    def corrupted(change) -> workloads.Outcome:
        out = copy.copy(clean)
        cert = copy.copy(clean.certificate)
        rows = list(cert.rows)
        # The trivial row <0, x> <= 1 only adds to the right-hand side, so
        # shrinking its multiplier leaves a valid certificate; corrupt a real row.
        real = [k for k, (cons, _) in enumerate(rows) if cons.a.any()]
        i = max(real, key=lambda k: rows[k][1])
        if rows[i][1] <= 0:
            raise SystemExit("self-test instance has no positive multiplier on a real row")
        rows[i] = (rows[i][0], change(rows[i][1]))
        cert.rows = rows
        out.certificate, out.report = cert, None
        workloads.check_certificate(out)
        return out

    for label, change in (("halved", lambda m: 0.5 * m), ("negated", lambda m: -m)):
        if not corrupted(change).failures():
            problems.append(f"gate accepted a certificate with its largest multiplier {label}")
    return problems


def scaled_gate_rejects_lower_bound() -> list[str]:
    import workloads

    oracle, c, opt = workloads.random_polytope(60, 0, scale=1e8)
    clean = workloads.solve_polytope("selftest", oracle, c, opt, "polar_fc10", scaled=True)
    workloads.check_certificate(clean)
    if clean.failures():
        return [f"clean scaled certificate rejected: {clean.failures()}"]
    out = copy.copy(clean)
    out.certificate = copy.copy(clean.certificate)
    out.certificate.claimed_bound -= 100 * clean.rhs_allowance
    workloads.check_certificate(out)
    return [] if out.failures() else ["scaled gate accepted a claimed bound below its aggregated rhs"]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    problems = gate_rejects_corruption()
    print("gate rejects corrupted multipliers:", "ok" if not problems else "FAILED")
    scaled = scaled_gate_rejects_lower_bound()
    print("scaled rhs gate rejects a lowered bound:", "ok" if not scaled else "FAILED")
    problems += scaled

    untraced = [bench("matching-sweep", 5, 0)["metrics"] for _ in range(2)]
    traced = [bench("matching-sweep", 5, 1)["metrics"] for _ in range(2)]
    for name, runs in (("iterations_mean", untraced), ("oracle_calls", untraced),
                       ("lp_baseline.solve_lp.calls", traced)):
        values = [r[name]["value"] for r in runs]
        same = values[0] == values[1]
        print(f"{name} repeats with one seed: {'ok' if same else 'FAILED'} {values}")
        if not same:
            problems.append(f"{name} differs between two runs with one seed: {values}")

    for problem in problems:
        print("FAILED " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
