"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import logging
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from oracleopt.certificates import verify_certificate
from oracleopt.combinatorial import (
    MatchingOracle,
    best_violated_oddset,
    brute_force_matching_opt,
    enumerate_maximal_cliques,
    generate_triangle_instance,
    matching_initial_rows,
    max_weight_clique,
    random_gnp,
)
from oracleopt.corrective import fully_corrective, min_norm_point, segment_plus_nonneg
from oracleopt.harness import load_config, run_experiment
from oracleopt.lp_baseline import LinearProgram, LPStopContext, solve_lp
from oracleopt.oracle import VIOLATION_TOL, BallOracle, Constraint, PolytopeOracle, box_oracle
from oracleopt.solver_general import run_general
from oracleopt.solver_polar import PolarMode, run_polar
from oracleopt.trace import CapOnly, LPStop

from test_lp_baseline import enumerate_vertices_value

logging.disable(logging.WARNING)


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_polar_rate_bound():
    """Certified gap stays under (1 + 8R / (r sqrt(t))) for 10^4 iterations."""
    with criterion(1, "polar rate bound"):
        start = time.time()
        instances = [
            (BallOracle(np.zeros(2), 1.0), np.array([1.0, 0.0]), 1.0),
        ]
        for n in (2, 5, 10):
            instances.append(
                (box_oracle(-np.ones(n), np.ones(n), radius_inner=1.0), np.ones(n), 1.0)
            )
        for oracle, c, r in instances:
            R = oracle.radius_outer
            gamma1 = 0.5 * r * float(np.linalg.norm(c))
            res = run_polar(oracle, c, gamma1=gamma1, stop=CapOnly(), max_iters=10_000)
            for row in res.trace:
                limit = (1.0 + 8.0 * R / (r * math.sqrt(row.t))) * row.gamma
                assert row.bound <= limit + 1e-8
        elapsed = time.time() - start
        assert elapsed < 10.0, f"rate-bound runs took {elapsed:.1f}s"


def test_criterion_2_per_iteration_contractions():
    """Distance contractions hold at every iteration of 20 randomized runs."""
    with criterion(2, "per-iteration contractions"):
        rng = np.random.default_rng(101)
        STANDARD, PACKING = PolarMode.STANDARD, PolarMode.PACKING

        polar_runs = [
            (BallOracle(np.zeros(2), 1.0), rng.normal(size=2), 1.0, None, STANDARD),
            (BallOracle(np.zeros(7), 0.5), rng.normal(size=7), 0.5, None, STANDARD),
            (BallOracle(np.zeros(20), 2.0), rng.normal(size=20), 2.0, None, STANDARD),
            (box_oracle(-np.ones(3), np.ones(3), radius_inner=1.0), rng.normal(size=3), 1.0, None, STANDARD),
            (box_oracle(-np.ones(12), np.ones(12), radius_inner=1.0), rng.normal(size=12), 1.0, fully_corrective(3), STANDARD),
            (box_oracle(np.zeros(4), np.ones(4), radius_inner=1.0), rng.uniform(0.2, 1.0, size=4), 1.0, fully_corrective(1), PACKING),
            (box_oracle(np.zeros(10), np.ones(10), radius_inner=1.0), rng.uniform(0.2, 1.0, size=10), 1.0, fully_corrective(5), PACKING),
            (box_oracle(np.zeros(6), np.ones(6), radius_inner=1.0), rng.uniform(0.2, 1.0, size=6), 1.0, segment_plus_nonneg(), PACKING),
        ]
        graph = generate_triangle_instance(12, 4, seed=2)
        d = graph.n_edges
        r_graph = 1.0 / math.sqrt(d)
        polar_runs.append((MatchingOracle(graph, max_set_size=11), np.ones(d), r_graph, fully_corrective(1), PACKING))
        polar_runs.append((MatchingOracle(graph, max_set_size=11), np.ones(d), r_graph, segment_plus_nonneg(), PACKING))
        assert len(polar_runs) == 10

        for oracle, c, r, strat, mode in polar_runs:
            gamma1 = 0.5 * r * float(np.linalg.norm(c))
            res = run_polar(
                oracle, c, gamma1=gamma1, stop=CapOnly(), max_iters=250,
                strategy=strat, mode=mode,
            )
            rho = max(1.0 / r, float(np.linalg.norm(c)) / gamma1)
            rows = list(res.trace)
            for a, b in zip(rows, rows[1:]):
                limit = (1.0 - a.residual**2 / (16.0 * rho**2)) * a.residual**2
                assert b.residual**2 <= limit + 1e-8

        general_runs = [
            (BallOracle(np.array([0.5, 0.0]), 0.25), np.array([1.0, 0.0]), 1.0, None),
            (BallOracle(rng.normal(size=6) * 0.2, 0.6), rng.normal(size=6), 2.5, None),
            (BallOracle(rng.normal(size=15) * 0.1, 0.5), rng.normal(size=15), 1.5, None),
            (BallOracle(np.array([0.3, -0.2]), 0.4), rng.normal(size=2), 1.0, fully_corrective(7)),
            (BallOracle(rng.normal(size=9) * 0.15, 0.7), rng.normal(size=9), 2.0, fully_corrective(3)),
        ]
        for dim, R in ((3, 2.0), (8, 3.5)):
            general_runs.append(
                (box_oracle(-np.ones(dim), np.ones(dim)), rng.normal(size=dim), R, None)
            )
        simplex_rows = [Constraint(np.ones(4), 1.0, name="simplex")] + [
            Constraint(-np.eye(4)[i], 0.0, name=f"lo:{i}") for i in range(4)
        ]
        general_runs.append((PolytopeOracle(simplex_rows, radius_outer=1.1), rng.normal(size=4), 1.1, None))
        general_runs.append((PolytopeOracle(simplex_rows, radius_outer=1.3), np.abs(rng.normal(size=4)), 1.3, fully_corrective(4)))
        general_runs.append((BallOracle(np.zeros(20), 1.0), rng.normal(size=20), 1.0, None))
        assert len(general_runs) == 10

        for oracle, c, R, strat in general_runs:
            res = run_general(oracle, c, R=R, stop=CapOnly(), max_iters=250, strategy=strat)
            rows = list(res.trace)
            for a, b in zip(rows, rows[1:]):
                limit = (1.0 - a.residual**2 / 8.0) * a.residual**2
                assert b.residual**2 <= limit + 1e-8


def test_criterion_3_general_rate_bound():
    """Translated ball with R/r = 4, 70k iterations, guaranteed-rate checks."""
    with criterion(3, "general rate bound"):
        start = time.time()
        R, r = 1.0, 0.25
        center = np.array([0.5, 0.0])
        opt = center[0] + r  # 0.75 under c = e1
        oracle = BallOracle(center, r)
        res = run_general(oracle, [1.0, 0.0], R=R, stop=CapOnly(), max_iters=70_000)
        threshold = 4096.0 * R**2 / r**2
        assert 70_000 >= threshold
        for row in res.trace:
            assert row.residual <= 8.0 / math.sqrt(row.t) + 1e-9
            # feasibility is declared within the oracle tolerance, so the
            # incumbent can sit that far past the true optimum
            assert row.gamma <= opt + 1e-6
            if row.t >= threshold:
                assert opt <= row.gamma + 128.0 * R**2 / (r * math.sqrt(row.t)) + 1e-8
        elapsed = time.time() - start
        assert elapsed < 60.0, f"70k-iteration run took {elapsed:.1f}s"


def test_criterion_4_certificate_soundness():
    """Every emitted certificate verifies; vertex-enumerable bodies stay under it."""
    with criterion(4, "certificate soundness"):
        runs = []

        ball = BallOracle(np.zeros(2), 1.0)
        runs.append((run_polar(ball, [1.0, 0.0], gamma1=0.5, stop=CapOnly(), max_iters=300), None))

        for n in (2, 4):
            box = box_oracle(-np.ones(n), np.ones(n), radius_inner=1.0)
            c = np.linspace(1.0, 2.0, n)
            res = run_polar(box, c, gamma1=0.5, stop=CapOnly(), max_iters=500)
            vertices = np.array(list(itertools.product(*[(-1.0, 1.0)] * n)))
            runs.append((res, (c, vertices)))

        pack = box_oracle(np.zeros(3), np.ones(3), radius_inner=1.0)
        c = np.array([1.0, 0.5, 0.25])
        res = run_polar(
            pack, c, gamma1=0.3, stop=CapOnly(), max_iters=600, mode=PolarMode.PACKING,
            strategy=fully_corrective(1),
        )
        runs.append((res, (c, np.array(list(itertools.product(*[(0.0, 1.0)] * 3))))))

        graph = generate_triangle_instance(12, 4, seed=3)
        d = graph.n_edges
        oracle = MatchingOracle(graph, max_set_size=11)
        res = run_polar(
            oracle, np.ones(d), gamma1=1.0, stop=CapOnly(), max_iters=60,
            mode=PolarMode.PACKING, initial_constraints=matching_initial_rows(graph, "basic"),
        )
        matchable = _matching_vertices(graph)
        runs.append((res, (np.ones(d), matchable)))

        trans = BallOracle(np.array([0.3, 0.0]), 0.5)
        gres = run_general(trans, [2.0, 0.0], R=1.0, stop=CapOnly(), max_iters=3000)
        runs.append((gres, None))

        for res, extra in runs:
            cert = res.certificate
            assert cert is not None
            report = verify_certificate(cert)
            assert report.passed, report.failures()
            if extra is not None:
                c, vertices = extra
                best_vertex = float((vertices @ c).max())
                assert best_vertex <= cert.claimed_bound + 1e-6


def _matching_vertices(graph):
    out = []
    m = graph.n_edges
    for mask in range(1 << m):
        used = set()
        ok = True
        for j in range(m):
            if mask >> j & 1:
                u, v = graph.edges[j]
                if u in used or v in used:
                    ok = False
                    break
                used.update((u, v))
        if ok:
            out.append([(mask >> j) & 1 for j in range(m)])
    return np.array(out, dtype=float)


def test_criterion_5_oracle_exactness():
    """Odd-set and clique separation agree with exhaustive enumeration."""
    with criterion(5, "separation exactness"):
        rng = np.random.default_rng(202)
        done = 0
        trial = 0
        while done < 50:
            trial += 1
            n = int(rng.integers(6, 13))
            p = float(rng.uniform(0.3, 0.6))
            graph = random_gnp(n, p, seed=1000 + trial)
            if graph.n_edges == 0:
                continue
            done += 1

            # matching side: degree-feasible fractional point, where the
            # support-component restriction provably loses nothing
            x = rng.uniform(0.0, 1.0, size=graph.n_edges)
            inc = graph.incident_edges()
            for v in range(n):
                load = sum(x[j] for j in inc[v])
                if load > 1.0:
                    for j in inc[v]:
                        x[j] /= load
            cap = n if n % 2 == 1 else n - 1
            raw, _ = best_violated_oddset(graph, x, max_set_size=cap)
            ref = _exhaustive_oddset(graph, x)
            assert abs(raw - ref) <= 1e-9
            assert (raw > VIOLATION_TOL) == (ref > VIOLATION_TOL)

            # stable-set side: any nonnegative node weights
            w = rng.uniform(0.0, 1.0, size=n)
            weight, clique = max_weight_clique(graph, w)
            adj = graph.adjacency()
            assert all(adj[u, v] for u in clique for v in clique if u != v)
            ref_w = max(
                (float(sum(w[v] for v in c)) for c in enumerate_maximal_cliques(graph)),
                default=0.0,
            )
            assert abs(weight - ref_w) <= 1e-9


def _exhaustive_oddset(graph, x):
    nodes = sorted({u for e in graph.edges for u in e})
    best = 0.0
    for k in range(3, len(nodes) + 1, 2):
        for subset in itertools.combinations(nodes, k):
            inside = set(subset)
            total = sum(
                x[j] for j, (u, v) in enumerate(graph.edges) if u in inside and v in inside
            )
            best = max(best, total - (k - 1) / 2.0)
    return best


def test_criterion_6_min_norm_point_against_pgd():
    """Hull projections match a 10^5-step projected-gradient oracle."""
    with criterion(6, "min-norm point"):
        rng = np.random.default_rng(303)
        count, max_atoms, max_dim = 50, 10, 8
        sizes = [(int(rng.integers(2, max_atoms + 1)), int(rng.integers(1, max_dim + 1))) for _ in range(count)]
        atoms = np.zeros((count, max_atoms, max_dim))
        targets = np.zeros((count, max_dim))
        for i, (m, n) in enumerate(sizes):
            block = rng.normal(size=(m, n))
            atoms[i, :m, :n] = block
            atoms[i, m:, :n] = block[0]  # pad with copies; hull unchanged
            targets[i, :n] = rng.normal(size=n)

        # batched projected gradient on the simplex weights
        gram = np.einsum("bij,bkj->bik", atoms, atoms)
        lin = np.einsum("bij,bj->bi", atoms, targets)
        lip = 2.0 * np.linalg.eigvalsh(gram)[:, -1] + 1e-12
        w = np.full((count, max_atoms), 1.0 / max_atoms)
        for _ in range(100_000):
            grad = 2.0 * (np.einsum("bij,bj->bi", gram, w) - lin)
            w = _batch_simplex_projection(w - grad / lip[:, None])
        reference = np.einsum("bi,bij->bj", w, atoms)

        for i, (m, n) in enumerate(sizes):
            res = min_norm_point(targets[i, :n], atoms[i, :m, :n])
            assert np.linalg.norm(res.point - reference[i, :n]) <= 1e-6


def _batch_simplex_projection(v):
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    ks = np.arange(1, v.shape[1] + 1)
    mask = u - css / ks > 0
    rho = mask.shape[1] - 1 - np.argmax(mask[:, ::-1], axis=1)
    theta = css[np.arange(v.shape[0]), rho] / (rho + 1)
    return np.maximum(v - theta[:, None], 0.0)


def test_criterion_7_simplex_against_vertex_enumeration():
    """The dense simplex matches brute-force vertex enumeration on 100 LPs."""
    with criterion(7, "simplex correctness"):
        rng = np.random.default_rng(404)
        for trial in range(100):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 6))
            rows = [
                Constraint(rng.normal(size=n), float(rng.uniform(0.1, 2.0)))
                for _ in range(m)
            ]
            lb = np.zeros(n)
            ub = rng.uniform(0.5, 2.5, size=n)
            c = rng.normal(size=n)
            res = solve_lp(LinearProgram(objective=c, rows=rows, lb=lb, ub=ub))
            ref = enumerate_vertices_value(c, rows, lb, ub)
            assert ref is not None
            assert abs(res.value - ref) <= 1e-7


def test_criterion_8_iteration_count_trends():
    """Desk-scale reruns of the benchmark comparison reproduce the trends."""
    with criterion(8, "iteration-count trends"):
        start = time.time()
        variants = (
            ("seg_s", "polar", 0, "standard"),
            ("seg_o", "polar", 0, "optimal"),
            ("fc1_s", "polar", 1, "standard"),
            ("fc1_o", "polar", 1, "optimal"),
            ("fc10_s", "polar", 10, "standard"),
            ("fc10_o", "polar", 10, "optimal"),
            ("lp", "cutloop", 0, "standard"),
        )

        def sweep(instances):
            """instances: iterable of base-config dicts for one problem family."""
            means = {}
            counts: dict[str, list[float]] = {key: [] for key, *_ in variants}
            for base in instances:
                for key, method, freq, init in variants:
                    config = load_config(
                        None, dict(base, method=method, frequency=freq, init=init)
                    )
                    s, _ = run_experiment(config)
                    counts[key].append(s.iterations if s.converged else config.iters)
            for key, values in counts.items():
                means[key] = float(np.mean(values))
            return means

        matching = sweep(
            dict(
                problem="matching", nodes=15, triangles=r, seed=seed,
                max_set_size=15, out="", iters=1000,
            )
            for r in range(10, 18)
            for seed in (0, 1)
        )
        stableset = sweep(
            dict(problem="stableset", nodes=20, density=0.55, seed=seed, out="", iters=1000)
            for seed in range(10)
        )

        for label, means in (("matching", matching), ("stableset", stableset)):
            assert means["fc1_s"] < means["lp"], (label, means)
            for freq in ("seg", "fc1", "fc10"):
                assert means[f"{freq}_o"] <= means[f"{freq}_s"], (label, freq, means)

        elapsed = time.time() - start
        assert elapsed < 300.0, f"trend sweep took {elapsed:.1f}s"


def test_criterion_9_packing_invariants():
    """Packing runs query only nonnegative points and certify soundly."""
    with criterion(9, "packing invariants"):
        for seed in range(3):
            graph = generate_triangle_instance(12, 4, seed=seed)
            if graph.n_edges == 0:
                continue
            d = graph.n_edges
            opt = float(brute_force_matching_opt(graph))
            oracle = MatchingOracle(graph, max_set_size=11)
            rows = matching_initial_rows(graph, "basic")

            seen = []
            inner = oracle.separate
            oracle.separate = lambda x: (seen.append(float(np.min(x))), inner(x))[1]

            res = run_polar(
                oracle,
                np.ones(d),
                gamma1=1.0,
                stop=LPStop(opt_ref=opt),
                max_iters=1000,
                strategy=fully_corrective(1),
                mode=PolarMode.PACKING,
                initial_constraints=rows,
                lp_context=LPStopContext(rows=rows, lb=np.zeros(d), ub=np.ones(d)),
            )
            assert res.converged
            if seen:
                assert min(seen) >= -1e-12
            cert = res.certificate
            assert cert.setting == "packing"
            assert cert.nonneg_slack is not None
            assert verify_certificate(cert).passed
            final_lp = res.trace[-1].lp_bound if len(res.trace) else None
            if final_lp is None:
                from oracleopt.lp_baseline import lp_stop_bound

                final_lp = lp_stop_bound(rows, res.state.cuts, np.ones(d), lb=np.zeros(d), ub=np.ones(d))
            assert final_lp <= 1.01 * opt + 1e-9


def test_criterion_10_trace_determinism(tmp_path):
    """Identical config and seed produce byte-identical trace files."""
    with criterion(10, "trace determinism"):
        configs = [
            {"problem": "matching", "method": "polar", "frequency": 1, "nodes": 14,
             "triangles": 6, "seed": 11, "max_set_size": 13},
            {"problem": "stableset", "method": "cutloop", "nodes": 14, "density": 0.5,
             "seed": 4},
            {"problem": "synthetic-ball", "method": "general", "dim": 3,
             "radius": 0.5, "center_offset": 0.4, "stop": "gap", "epsilon": 0.2,
             "seed": 2, "iters": 400},
        ]
        for i, overrides in enumerate(configs):
            blobs = []
            for attempt in ("first", "second"):
                out = tmp_path / f"{i}-{attempt}"
                config = load_config(None, dict(overrides, out=str(out)))
                _, trace_path = run_experiment(config)
                blobs.append(Path(trace_path).read_bytes())
            assert blobs[0] == blobs[1]
