import itertools
import math

import numpy as np
import pytest

from oracleopt import combinatorial
from oracleopt.combinatorial import (
    Graph,
    MatchingOracle,
    StableSetOracle,
    best_violated_oddset,
    brute_force_matching_opt,
    clique_relaxation_opt,
    degree_constraint,
    enumerate_maximal_cliques,
    generate_triangle_instance,
    make_graph,
    matching_initial_rows,
    max_weight_clique,
    oddset_constraint,
    parse_dimacs,
    random_gnp,
    separate_clique,
    stableset_initial_rows,
    to_dimacs,
)
from oracleopt.oracle import Inside, Violated

K3 = make_graph(3, [(0, 1), (1, 2), (0, 2)])


def all_matchings(graph: Graph):
    """Every matching as an edge indicator vector (exponential; tiny graphs)."""
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
            out.append(np.array([(mask >> j) & 1 for j in range(m)], dtype=float))
    return out


def support_labels(graph: Graph, x):
    """A component label per node of the support {e : x_e > 1e-9}, and its nodes."""
    comp = list(range(graph.n_nodes))
    for j, (u, v) in enumerate(graph.edges):
        if x[j] > 1e-9:
            cu, cv = comp[u], comp[v]
            comp = [cu if c == cv else c for c in comp]
    support = {u for j, e in enumerate(graph.edges) if x[j] > 1e-9 for u in e}
    return comp, support


def support_components(graph: Graph, x):
    """The support's components as sorted node tuples."""
    comp, support = support_labels(graph, x)
    labels = {comp[v] for v in support}
    return {tuple(v for v in sorted(support) if comp[v] == label) for label in labels}


def componentwise_oddset(graph: Graph, x, max_set_size):
    """Reference: first most violated odd set, in (size, lexicographic) order,
    inside one connected component of the support {e : x_e > 1e-9}."""
    x = np.asarray(x, dtype=float)
    comp, support = support_labels(graph, x)
    best, best_set = 0.0, None
    for k in range(3, max_set_size + 1, 2):
        for subset in itertools.combinations(sorted(support), k):
            if len({comp[v] for v in subset}) > 1:
                continue
            inside = set(subset)
            total = sum(
                x[j] for j, (u, v) in enumerate(graph.edges) if u in inside and v in inside
            )
            if total - (k - 1) / 2.0 > best:
                best, best_set = total - (k - 1) / 2.0, subset
    return best, best_set


def exhaustive_oddset(graph: Graph, x):
    """Reference: scan every odd subset of every size, no caps, no components."""
    x = np.asarray(x, dtype=float)
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


class TestDimacs:
    def test_parse_triangle(self):
        g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert g == K3

    def test_duplicate_edges_collapse(self):
        g = parse_dimacs("p edge 3 2\ne 1 2\ne 1 2\n")
        assert g.edges == ((0, 1),)

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_dimacs("p edge 3 1\ne 1 4\n")

    def test_malformed_header(self):
        with pytest.raises(ValueError, match="problem line"):
            parse_dimacs("p vertex 3 1\ne 1 2\n")

    def test_round_trip_with_comment(self):
        g = generate_triangle_instance(10, 3, seed=5)
        text = to_dimacs(g, comments=["seed=5 triangles=3"])
        assert parse_dimacs(text) == g
        assert text.splitlines()[0] == "c seed=5 triangles=3"


class TestGenerators:
    def test_single_triangle_on_three_nodes(self):
        assert generate_triangle_instance(3, 1, seed=0) == K3

    def test_zero_triangles(self):
        g = generate_triangle_instance(6, 0, seed=0)
        assert g.n_edges == 0

    def test_deterministic_for_fixed_seed(self):
        a = generate_triangle_instance(20, 7, seed=42)
        b = generate_triangle_instance(20, 7, seed=42)
        assert a == b
        c = generate_triangle_instance(20, 7, seed=43)
        assert a != c

    def test_gnp_deterministic(self):
        assert random_gnp(12, 0.4, seed=3) == random_gnp(12, 0.4, seed=3)


# Two K5s on nodes 0-4 and 5-9, the bridge (4, 5) and a triangle on 10-12.
BRIDGED_K5S = make_graph(
    13,
    list(itertools.combinations(range(5), 2))
    + list(itertools.combinations(range(5, 10), 2))
    + [(4, 5), (10, 11), (11, 12), (10, 12)],
)


def bridged_k5_queries(rng):
    """Queries on BRIDGED_K5S that repeat, change and split their support."""
    g = BRIDGED_K5S
    first = np.array([u < 5 and v < 5 for u, v in g.edges])
    second = np.array([5 <= u and v < 10 for u, v in g.edges])
    triangle = np.array([u >= 10 for u, _ in g.edges])
    bridge = np.array([(u, v) == (4, 5) for u, v in g.edges])

    def on(mask):
        return np.where(mask, rng.uniform(0.35, 0.5, g.n_edges), 0.0)

    whole = on(first | second | triangle | bridge)
    split = on(first | second | triangle)
    piece = on(first | second | triangle)
    piece[[g.edges.index(e) for e in [(0, 1), (0, 2), (0, 3), (0, 4)]]] = 0.0
    return [
        whole,
        whole,  # the same query again
        on(first | second | triangle | bridge),  # same support, new values
        split,  # the bridge drops out: three components
        on(first),  # one K5 ...
        on(second),  # ... then the other, of the same size
        on(second | triangle),
        piece,  # node 0 leaves the first K5
        on(first | second | triangle | bridge),
    ]


def reference_oddset(graph: Graph, x, max_set_size):
    """The per-size scorer that best_violated_oddset's chunked one replaced.

    Kept as the bit-for-bit reference: each odd size of each support
    component is one product of its 0/1 edge rows, padded with empty rows
    to a multiple of four and converted to float whole.
    """
    x = np.asarray(x, dtype=float)
    ends = np.array(graph.edges, dtype=np.intp).reshape(-1, 2).T
    winners = []
    for nodes in support_components(graph, x):
        for size in range(3, min(max_set_size, len(nodes)) + 1, 2):
            block = np.array(list(itertools.combinations(nodes, size)))
            rows = len(block)
            member = np.zeros((-(-rows // 4) * 4, graph.n_nodes), dtype=bool)
            np.put_along_axis(member[:rows], block, True, axis=1)
            inside = member.take(ends[0], axis=1) & member.take(ends[1], axis=1)
            viol = (inside.astype(float, order="C") @ x)[:rows] - (size - 1) / 2.0
            row = int(np.argmax(viol))
            if viol[row] > 0.0:
                winners.append((float(viol[row]), size, tuple(block[row].tolist())))
    if not winners:
        return 0.0, None
    viol, _, subset = min(winners, key=lambda w: (-w[0], w[1], w[2]))
    return viol, subset


def triangle_union_queries(rng, count):
    """(graph, x, cap) on triangle unions; half the queries tie on x in {0, 1/3, 1/2, 2/3}."""
    cases = []
    for trial in range(count):
        g = generate_triangle_instance(int(rng.integers(9, 16)), int(rng.integers(5, 18)), seed=trial)
        if trial % 2:
            x = rng.choice([0.0, 1 / 3, 0.5, 2 / 3], size=g.n_edges)
        else:
            x = rng.uniform(0, 1, size=g.n_edges)
            x[rng.random(g.n_edges) < 0.3] = 0.0
        cases.append((g, x, int(rng.choice([3, 5, 7, 9, 11, 13, 15]))))
    return cases


def kept_entries(graph: Graph, k: int, cap: int) -> int:
    """Table entries of a k-node component: its odd subsets, padded to fours."""
    return graph.n_edges * sum(-(-math.comb(k, s) // 4) * 4 for s in range(3, min(cap, k) + 1, 2))


class TestOddsetSeparation:
    def test_triangle_at_half(self):
        result = MatchingOracle(K3, max_set_size=3).separate([0.5, 0.5, 0.5])
        assert isinstance(result, Violated)
        assert result.constraint.name == "oddset:0|1|2"
        raw, subset = best_violated_oddset(K3, [0.5, 0.5, 0.5], max_set_size=3)
        assert raw == pytest.approx(0.5)
        assert subset == (0, 1, 2)

    def test_matchings_are_inside(self):
        g = generate_triangle_instance(9, 3, seed=1)
        for x in all_matchings(g)[:40]:
            assert best_violated_oddset(g, x, max_set_size=9) == (0.0, None)

    def test_disjoint_triangles_tie_breaks_lexicographically(self):
        g = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        raw, subset = best_violated_oddset(g, [0.5] * 6, max_set_size=3)
        assert raw == pytest.approx(0.5)
        assert subset == (0, 1, 2)

    def test_cap_below_three_rejected(self):
        with pytest.raises(ValueError):
            best_violated_oddset(K3, [0.5, 0.5, 0.5], max_set_size=2)
        with pytest.raises(ValueError, match="size 3"):
            MatchingOracle(K3, max_set_size=2)

    def test_agrees_with_uncapped_enumeration(self):
        rng = np.random.default_rng(67)
        for trial in range(15):
            g = random_gnp(8, 0.45, seed=trial)
            if g.n_edges == 0:
                continue
            x = rng.uniform(0, 1, size=g.n_edges)
            # stay degree-feasible, where the component restriction is exact
            inc = g.incident_edges()
            for v in range(g.n_nodes):
                load = sum(x[j] for j in inc[v])
                if load > 1:
                    for j in inc[v]:
                        x[j] /= load
            raw, _ = best_violated_oddset(g, x, max_set_size=7)
            assert raw == pytest.approx(exhaustive_oddset(g, x), abs=1e-9)

    def test_cross_component_tie_breaks_lexicographically(self):
        # Component 0 = {0, 4, 5, 6} holds the triangle 4-5-6, component 1 the
        # triangle 1-2-3; both violate by 0.5 and (1, 2, 3) comes first.
        g = make_graph(7, [(0, 4), (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
        x = [0.25, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]
        assert best_violated_oddset(g, x, max_set_size=5) == (0.5, (1, 2, 3))

    def test_block_seam_changes_nothing(self, monkeypatch):
        rng = np.random.default_rng(5)
        cases = []
        for trial in range(12):
            g = generate_triangle_instance(11, 9, seed=trial)
            x = rng.uniform(0, 1, size=g.n_edges)
            x[rng.random(g.n_edges) < 0.3] = 0.0
            cases.append((g, x, int(rng.choice([5, 7, 9, 11]))))
        whole = [best_violated_oddset(g, x, cap) for g, x, cap in cases]
        for rows in (1, 3, 5):
            for (g, x, cap), expected in zip(cases, whole):
                monkeypatch.setattr(combinatorial, "_BLOCK_ENTRIES", rows * g.n_edges)
                assert best_violated_oddset(g, x, cap) == expected

    def test_large_graph_with_small_support_components(self):
        # 40 non-isolated nodes: over a million odd subsets of size <= 9, but
        # the support is four odd cliques, scanned one component at a time.
        groups = [range(0, 5), range(10, 17), range(20, 25), range(30, 37)]
        cliques = [(u, v) for grp in groups for u, v in itertools.combinations(grp, 2)]
        g = make_graph(40, random_gnp(40, 0.3, seed=8).edges + tuple(cliques))
        rng = np.random.default_rng(8)
        x = np.zeros(g.n_edges)
        for j, (u, v) in enumerate(g.edges):
            for grp in groups:
                if u in grp and v in grp:
                    x[j] = rng.uniform(1.0, 1.1) / (len(grp) - 1)
        found = set()
        for cap in (5, 9):
            raw, subset = best_violated_oddset(g, x, max_set_size=cap)
            ref_raw, ref_subset = componentwise_oddset(g, x, cap)
            assert subset == ref_subset
            assert raw == pytest.approx(ref_raw, abs=1e-12)
            found.add(len(subset))
        assert found == {5, 7}

    @pytest.mark.parametrize("block_rows, chunk_rows", [(None, None), (None, 4), (7, None), (2, 4)])
    def test_bit_for_bit_with_the_per_size_scorer(self, block_rows, chunk_rows, monkeypatch):
        # Small block budgets stream every component larger than a few rows
        # through the same scorer; small chunks split every product into
        # groups of four rows.  BLAS threading is left as it is.
        cases = triangle_union_queries(np.random.default_rng(29), 24)
        assert any(len(c) > 9 for g, x, _ in cases for c in support_components(g, x))
        found = 0
        for g, x, cap in cases:
            if block_rows is not None:
                monkeypatch.setattr(combinatorial, "_BLOCK_ENTRIES", block_rows * g.n_edges)
            if chunk_rows is not None:
                monkeypatch.setattr(combinatorial, "_CHUNK_ENTRIES", chunk_rows * g.n_edges)
            viol, subset = best_violated_oddset(g, x, cap)
            ref_viol, ref_subset = reference_oddset(g, x, cap)
            assert subset == ref_subset
            assert float(viol).hex() == float(ref_viol).hex()
            found += subset is not None
        assert found >= len(cases) // 2

    @pytest.mark.parametrize("block_rows", [None, 8, 1])
    def test_oracle_tables_match_fresh_calls(self, block_rows, monkeypatch):
        # None keeps every component, 8 rows keeps the triangle and streams
        # the K5s in blocks, 1 row streams everything one subset at a time.
        g = BRIDGED_K5S
        if block_rows is not None:
            monkeypatch.setattr(combinatorial, "_BLOCK_ENTRIES", block_rows * g.n_edges)
        original = combinatorial.best_violated_oddset
        oracle = MatchingOracle(g, max_set_size=5)
        calls = []

        def recording(graph, x, max_set_size=9, tables=None):
            result = original(graph, x, max_set_size, tables)
            if tables is oracle._oddset_tables:
                calls.append((np.array(x), result))
            return result

        monkeypatch.setattr(combinatorial, "best_violated_oddset", recording)
        queries = bridged_k5_queries(np.random.default_rng(3))
        for x in queries:
            got = oracle.separate(x)
            expected = MatchingOracle(g, max_set_size=5).separate(x)
            assert type(got) is type(expected)
            if isinstance(expected, Violated):
                assert got.constraint.name == expected.constraint.name
                assert np.array_equal(got.constraint.a, expected.constraint.a)
                assert got.violation == expected.violation
        # The repeated query is answered from the oracle's kept answers.
        assert len(calls) == len(queries) - 1
        for x, (viol, subset) in calls:
            fresh_viol, fresh_subset = original(g, x, 5)
            assert viol == fresh_viol
            assert subset == fresh_subset
        assert sum(subset is not None for _, (_, subset) in calls) >= len(calls) - 2

    def test_oracle_keeps_only_this_calls_fitting_components(self, monkeypatch):
        # 20 rows per kept component: the triangle (4 padded rows) and a
        # 4-node piece of a K5 (4 + 0) fit, a whole K5 (12 + 4) fits, the
        # bridged 10-node component never does.  Each kept component is one
        # bool edge table, cut from the shared table of its size's subsets;
        # the dict also lists the components it does not keep, for the cap
        # warning.
        g = BRIDGED_K5S
        monkeypatch.setattr(combinatorial, "_BLOCK_ENTRIES", 20 * g.n_edges)
        oracle = MatchingOracle(g, max_set_size=5)
        rng = np.random.default_rng(11)
        queries = [q for _ in range(7) for q in bridged_k5_queries(rng)][:50]
        assert len(queries) == 50
        for x in queries:
            oracle.separate(x)
            components = support_components(g, x)
            tables = oracle._oddset_tables
            assert list(tables) == [c for c in sorted(components) if len(c) >= 3]
            fitting = {c for c in tables if kept_entries(g, len(c), 5) <= 20 * g.n_edges}
            kept = {c: table for c, table in tables.items() if table is not None}
            assert set(kept) == fitting
            assert len(kept) <= 3
            assert not any(len(c) == 10 for c in kept)
            for nodes, table in kept.items():
                assert table.dtype == bool
                assert table.size == kept_entries(g, len(nodes), 5) <= 20 * g.n_edges
                member, _ = combinatorial._subset_table(len(nodes), 5)
                assert member.size <= 20 * g.n_edges

    def test_binding_cap_warns_once_per_oracle_on_an_inside_verdict(self, caplog):
        # C5 at 1/2 meets every degree row and holds no triangle; only the
        # 5-node odd set, beyond a cap of 3, is violated.
        c5 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        caplog.set_level("WARNING", logger="oracleopt.combinatorial")

        def warnings():
            return [r for r in caplog.records if "cap 3 was binding" in r.getMessage()]

        def on(**weights):
            return [weights.get(f"e{u}{v}", 0.0) for u, v in c5.edges]

        capped = MatchingOracle(c5, max_set_size=3)
        assert isinstance(capped.separate(on(e01=1.0, e23=1.0)), Inside)  # no component > 3
        degree = capped.separate(on(e01=0.8, e12=0.8, e23=0.1))  # a 4-node component
        assert degree.constraint.name == "degree:1"
        assert warnings() == []
        assert isinstance(capped.separate([0.5] * 5), Inside)
        assert isinstance(capped.separate([0.5] * 5), Inside)
        assert len(warnings()) == 1
        assert isinstance(MatchingOracle(c5, max_set_size=3).separate([0.5] * 5), Inside)
        assert len(warnings()) == 2
        assert isinstance(MatchingOracle(c5, max_set_size=5).separate([0.5] * 5), Violated)
        assert isinstance(MatchingOracle(c5, max_set_size=5).separate([0.4] * 5), Inside)
        assert len(warnings()) == 2

    def test_oddset_rows_mark_the_edges_inside(self):
        for seed in range(5):
            g = generate_triangle_instance(12, 6, seed=seed)
            for subset in [(0, 1, 2), tuple(range(0, 12, 2))[:5], tuple(range(11))]:
                row = oddset_constraint(g, subset)
                scale = (len(subset) - 1) / 2.0
                expected = [1.0 / scale if u in subset and v in subset else 0.0 for u, v in g.edges]
                assert [float(a).hex() for a in row.a] == [float(a).hex() for a in expected]

    def test_emitted_rows_valid_for_all_matchings(self):
        g = generate_triangle_instance(8, 3, seed=9)
        if g.n_edges == 0:
            return
        _, subset = best_violated_oddset(g, np.full(g.n_edges, 0.5), max_set_size=7)
        if subset is None:
            return
        row = oddset_constraint(g, subset)
        for x in all_matchings(g):
            assert row.violation(x) <= 1e-9


def adjacency(graph: Graph) -> np.ndarray:
    """The dense boolean adjacency matrix, for the references and checks here."""
    adj = np.zeros((graph.n_nodes, graph.n_nodes), dtype=bool)
    for u, v in graph.edges:
        adj[u, v] = adj[v, u] = True
    return adj


def reference_max_weight_clique(graph: Graph, weights):
    """The adjacency-matrix branch and bound that max_weight_clique replaced.

    Kept as the bit-for-bit reference: same node order, same coloring
    bound, same float additions in the same order.
    """
    weights = np.asarray(weights, dtype=float)
    adj = adjacency(graph)
    nodes = [v for v in range(graph.n_nodes) if weights[v] > 1e-9]
    nodes.sort(key=lambda v: (-weights[v], v))
    best_w = 0.0
    best_set: tuple[int, ...] = ()

    def color_bound(cands):
        classes = []
        bound = 0.0
        for v in cands:
            placed = False
            for i, (wmax, members) in enumerate(classes):
                if not any(adj[v, u] for u in members):
                    members.append(v)
                    if weights[v] > wmax:
                        bound += weights[v] - wmax
                        classes[i] = (weights[v], members)
                    placed = True
                    break
            if not placed:
                classes.append((weights[v], [v]))
                bound += weights[v]
        return bound

    def expand(current, current_w, cands):
        nonlocal best_w, best_set
        if not cands:
            if current_w > best_w:
                best_w = current_w
                best_set = tuple(sorted(current))
            return
        if current_w + color_bound(cands) <= best_w + 1e-15:
            return
        for i, v in enumerate(cands):
            rest = cands[i + 1 :]
            if current_w + weights[v] + sum(weights[u] for u in rest) <= best_w + 1e-15:
                return
            current.append(v)
            expand(current, current_w + weights[v], [u for u in rest if adj[v, u]])
            current.pop()

    expand([], 0.0, nodes)
    return best_w, best_set


class TestCliqueSeparation:
    def test_triangle_at_half(self):
        result = separate_clique(K3, [0.5, 0.5, 0.5])
        assert isinstance(result, Violated)
        assert result.constraint.name == "clique:0|1|2"
        assert result.violation == pytest.approx(0.5)

    def test_independent_set_is_inside(self):
        g = random_gnp(10, 0.5, seed=2)
        adj = adjacency(g)
        chosen: list[int] = []
        for v in range(10):
            if not any(adj[v, u] for u in chosen):
                chosen.append(v)
        x = np.zeros(10)
        x[chosen] = 1.0
        assert isinstance(separate_clique(g, x), Inside)

    def test_odd_hole_at_half_is_inside(self):
        c5 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert isinstance(separate_clique(c5, [0.5] * 5), Inside)

    def test_max_weight_clique_against_enumeration(self):
        rng = np.random.default_rng(71)
        for trial in range(15):
            g = random_gnp(10, 0.5, seed=100 + trial)
            x = rng.uniform(0, 1, size=10)
            weight, clique = max_weight_clique(g, x)
            adj = adjacency(g)
            assert all(adj[u, v] for u in clique for v in clique if u != v)
            best = max(
                (float(sum(x[v] for v in c)) for c in enumerate_maximal_cliques(g)),
                default=0.0,
            )
            assert weight == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("kind", ["uniform", "tied", "dyadic"])
    def test_max_weight_clique_matches_the_matrix_reference_bit_for_bit(self, kind):
        rng = np.random.default_rng({"uniform": 5, "tied": 6, "dyadic": 7}[kind])
        for trial in range(60):
            n = int(rng.integers(1, 19))
            g = random_gnp(n, float(rng.uniform(0.2, 0.9)), seed=300 + trial)
            if kind == "uniform":
                x = rng.uniform(-0.2, 1.0, size=n)
            elif kind == "tied":
                x = rng.choice([0.0, 0.25, 1 / 3, 0.5], size=n)
            else:
                x = rng.integers(0, 9, size=n) / 8.0
            weight, clique = max_weight_clique(g, x)
            ref_weight, ref_clique = reference_max_weight_clique(g, x)
            assert clique == ref_clique
            assert float(weight).hex() == float(ref_weight).hex()


class TestReferenceOptima:
    def test_triangle_matching(self):
        assert brute_force_matching_opt(K3) == 1

    def test_two_disjoint_triangles(self):
        g = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert brute_force_matching_opt(g) == 2

    def test_matching_against_enumeration(self):
        for seed in range(8):
            g = random_gnp(9, 0.35, seed=seed)
            ref = max(int(x.sum()) for x in all_matchings(g)) if g.n_edges else 0
            assert brute_force_matching_opt(g) == ref

    def test_c5_clique_relaxation(self):
        c5 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert clique_relaxation_opt(c5) == pytest.approx(2.5)
        # Isolated nodes: only their singleton cliques bound them.
        assert clique_relaxation_opt(make_graph(3, [])) == pytest.approx(3.0)
        assert clique_relaxation_opt(make_graph(4, [(0, 1)])) == pytest.approx(3.0)

    def test_matching_cap(self):
        g = random_gnp(26, 0.5, seed=0)
        with pytest.raises(ValueError, match="too large"):
            brute_force_matching_opt(g)

    def test_clique_cap(self):
        g = random_gnp(31, 0.2, seed=0)
        with pytest.raises(ValueError, match="too large"):
            clique_relaxation_opt(g)


class TestOracles:
    def test_matching_oracle_prefers_biggest_violation(self):
        # a heavy degree violation must beat a light odd-set one
        g = K3
        oracle = MatchingOracle(g, max_set_size=3)
        x = np.array([1.5, 1.5, 0.0])
        result = oracle.separate(x)
        assert isinstance(result, Violated)
        assert result.constraint.name.startswith("degree:")

    def test_matching_oracle_accepts_matching(self):
        g = generate_triangle_instance(9, 3, seed=4)
        oracle = MatchingOracle(g, max_set_size=9)
        for x in all_matchings(g)[:20]:
            assert isinstance(oracle.separate(x), Inside)

    def test_negative_queries_rejected(self):
        # A query outside the orthant is cut off by -x_j <= 0 for its most
        # negative coordinate; the usual tolerance still applies.
        for oracle in (MatchingOracle(K3, max_set_size=3), StableSetOracle(K3)):
            res = oracle.separate([0.2, -1.0, -0.5])
            assert isinstance(res, Violated)
            assert res.constraint.name == "nonneg:1"
            assert np.array_equal(res.constraint.a, [0.0, -1.0, 0.0])
            assert res.constraint.b == 0.0
            assert res.violation == pytest.approx(1.0)
            assert isinstance(oracle.separate([-1e-8, 0.0, 0.0]), Inside)

    @staticmethod
    def same_answer(got, expected):
        assert type(got) is type(expected)
        if isinstance(expected, Violated):
            assert got.constraint.name == expected.constraint.name
            assert got.constraint.a.tobytes() == expected.constraint.a.tobytes()
            assert got.constraint.b == expected.constraint.b
            assert float(got.violation).hex() == float(expected.violation).hex()

    @pytest.mark.parametrize("problem", ["matching", "stableset"])
    def test_repeated_point_returns_the_kept_answer(self, problem, monkeypatch):
        if problem == "matching":
            make = lambda: MatchingOracle(BRIDGED_K5S, max_set_size=5)  # noqa: E731
            points = bridged_k5_queries(np.random.default_rng(5))
            work = "best_violated_oddset"
        else:
            g = random_gnp(12, 0.5, seed=2)
            make = lambda: StableSetOracle(g)  # noqa: E731
            rng = np.random.default_rng(5)
            points = [rng.uniform(0.0, 0.6, 12) for _ in range(6)] + [np.zeros(12)]
            work = "separate_clique"
        queries = points + points[::-1] + [p.copy() for p in points]
        calls = []
        real = getattr(combinatorial, work)
        monkeypatch.setattr(combinatorial, work, lambda *a: calls.append(1) or real(*a))
        oracle = make()
        first = {}
        for x in queries:
            got = oracle.separate(x)
            assert first.setdefault(x.tobytes(), got) is got
        assert len(calls) == len(first) < len(queries)  # worked out once per point
        for x in queries:
            self.same_answer(oracle.separate(x), make().separate(x))
        for answer in first.values():
            if isinstance(answer, Violated):
                assert not answer.constraint.a.flags.writeable

    def test_answers_stay_within_their_bound(self, monkeypatch):
        monkeypatch.setattr(combinatorial, "_ANSWERS", 3)
        g = random_gnp(10, 0.5, seed=4)
        oracle = StableSetOracle(g)
        rng = np.random.default_rng(9)
        points = [rng.uniform(0.0, 0.7, 10) for _ in range(10)]
        for k, x in enumerate(points):
            oracle.separate(x)
            assert list(oracle._answers) == [p.tobytes() for p in points[max(0, k - 2) : k + 1]]
        for x in points:  # a dropped point is answered afresh, the same way
            self.same_answer(oracle.separate(x), StableSetOracle(g).separate(x))
            assert len(oracle._answers) == 3

    def test_binding_cap_warns_once_when_its_answer_was_dropped(self, caplog, monkeypatch):
        # With one kept answer, the inside verdict at C5's 1/2 point is
        # worked out again after each other query; it still warns once.
        monkeypatch.setattr(combinatorial, "_ANSWERS", 1)
        c5 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        caplog.set_level("WARNING", logger="oracleopt.combinatorial")
        oracle = MatchingOracle(c5, max_set_size=3)
        for _ in range(3):
            assert isinstance(oracle.separate([0.5] * 5), Inside)
            assert isinstance(oracle.separate([0.2] * 5), Inside)
        warned = [r for r in caplog.records if "cap 3 was binding" in r.getMessage()]
        assert len(warned) == 1

    def test_initial_row_counts(self):
        assert len(matching_initial_rows(K3)) == 6  # three bounds plus three degree rows
        assert len(stableset_initial_rows(K3)) == 6  # three bounds plus three edges

    def test_degree_rows_mark_the_incident_edges(self):
        for seed in range(5):
            g = generate_triangle_instance(12, 5, seed=seed)
            inc = g.incident_edges()
            for v in range(g.n_nodes):
                row = degree_constraint(g, v)
                expected = np.zeros(g.n_edges)
                expected[inc[v]] = 1.0
                assert np.array_equal(row.a, expected)
                assert (row.b, row.name) == (1.0, f"degree:{v}")
