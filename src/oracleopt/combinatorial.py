"""Graph instances and exact separation for matching and stable-set runs.

Matching uses the degree rows plus the blossom (odd-set) inequalities
sum_{e in E[U]} x_e <= (|U|-1)/2 for odd U; stable set uses the clique
relaxation with one row per clique.  Separation is exact at desk scale:
odd sets by enumeration up to a size cap inside each connected component
of the fractional support (the oracle keeps the tables of its previous
call's components, which later calls often repeat), cliques by a weighted
branch-and-bound with a greedy-coloring bound.  Both oracles keep their
last answers by query point.  Brute-force optima back the shared
1%-of-optimum stopping rule.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import as_vector
from .lp_baseline import LinearProgram, solve_lp
from .oracle import (
    VIOLATION_TOL,
    Constraint,
    ConstraintForm,
    Inside,
    SeparationOracle,
    SeparationResult,
    Violated,
)

log = logging.getLogger(__name__)

_SUPPORT_TOL = 1e-9
_BLOCK_ENTRIES = 1 << 22  # entries of a kept, shared or streamed odd-set table (4 MB bool)
_CHUNK_ENTRIES = 1 << 15  # float entries scored by one product (256 kB, stays in cache)
_ANSWERS = 256  # separation answers an oracle keeps, by query point
_MATCHING_BRUTE_CAP = 24
_CLIQUE_BRUTE_CAP = 30


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with 0-indexed nodes and a fixed edge order."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop edge ({u}, {v})")
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u > v:
                raise ValueError("edges must be stored as (min, max) pairs")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.n_nodes, self.n_nodes), dtype=bool)
        for u, v in self.edges:
            adj[u, v] = adj[v, u] = True
        return adj

    @functools.cached_property
    def ends(self) -> np.ndarray:
        """Edge ends as a read-only (2, n_edges) index array."""
        ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T
        ends.flags.writeable = False
        return ends

    @functools.cached_property
    def neighbours(self) -> tuple[int, ...]:
        """Each node's neighbours as a bitmask."""
        nbr = [0] * self.n_nodes
        for u, v in self.edges:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        return tuple(nbr)

    def incident_edges(self) -> list[list[int]]:
        inc: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append(i)
            inc[v].append(i)
        return inc


def make_graph(n_nodes: int, edges) -> Graph:
    """Normalize an edge list (orientation, duplicates) into a Graph."""
    cleaned = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return Graph(n_nodes, tuple(cleaned))


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS edge format: a 'p edge n m' header and 1-indexed 'e u v' lines."""
    n_nodes = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) < 4 or parts[1] != "edge":
                raise ValueError(f"line {lineno}: malformed problem line {raw!r}")
            try:
                n_nodes = int(parts[2])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad node count") from exc
        elif parts[0] == "e":
            if n_nodes is None:
                raise ValueError(f"line {lineno}: edge before problem line")
            try:
                u, v = int(parts[1]), int(parts[2])
            except (ValueError, IndexError) as exc:
                raise ValueError(f"line {lineno}: malformed edge line {raw!r}") from exc
            if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
                raise ValueError(f"line {lineno}: edge ({u}, {v}) out of range")
            edges.append((u - 1, v - 1))
        else:
            raise ValueError(f"line {lineno}: unknown record {raw!r}")
    if n_nodes is None:
        raise ValueError("missing problem line")
    return make_graph(n_nodes, edges)


def to_dimacs(graph: Graph, comments=()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p edge {graph.n_nodes} {graph.n_edges}")
    lines.extend(f"e {u + 1} {v + 1}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def generate_triangle_instance(n_nodes: int, n_triangles: int, seed: int) -> Graph:
    """Union of sampled triangles: n_triangles node triples, edges of each added."""
    if n_nodes < 3:
        raise ValueError("need at least 3 nodes")
    rng = np.random.default_rng(seed)
    edges = set()
    for _ in range(n_triangles):
        u, v, w = (int(x) for x in rng.choice(n_nodes, size=3, replace=False))
        edges.update({(u, v), (v, w), (u, w)})
    return make_graph(n_nodes, edges)


def random_gnp(n_nodes: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [
        (u, v) for u in range(n_nodes) for v in range(u + 1, n_nodes) if rng.random() < p
    ]
    return make_graph(n_nodes, edges)


# -- odd-set (blossom) separation -----------------------------------------


def _support_components(graph: Graph, x: np.ndarray) -> list[tuple[int, ...]]:
    """Connected components of the subgraph of edges with positive weight.

    Each component is its sorted node tuple; components come in order of
    their smallest node, and nodes on no such edge belong to none.
    """
    parent = list(range(graph.n_nodes))

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    touched = set()
    for (u, v), weight in zip(graph.edges, x.tolist()):
        if weight > _SUPPORT_TOL:
            touched.update((u, v))
            ru, rv = find(u), find(v)
            parent[max(ru, rv)] = min(ru, rv)
    groups: dict[int, list[int]] = {}
    for v in sorted(touched):
        groups.setdefault(find(v), []).append(v)
    return [tuple(nodes) for nodes in groups.values()]


def _subset_blocks(k: int, max_set_size: int, block_rows: int):
    """Odd subsets of range(k) in (size, lexicographic) order, as (member, half) blocks.

    A block holds up to block_rows subsets of one size and half = (size - 1) / 2;
    member[i, v] says whether node v is in subset i (v = k: outside, never).
    BLAS sums the rows of a row-major matrix in groups of four, and a ragged
    tail, or a lone row, in another order; padding each block with empty
    rows to a multiple of four keeps a subset's score independent of its table.
    """
    for size in range(3, min(max_set_size, k) + 1, 2):
        subsets = itertools.combinations(range(k), size)
        while True:
            flat = itertools.chain.from_iterable(itertools.islice(subsets, block_rows))
            block = np.fromiter(flat, dtype=np.min_scalar_type(k)).reshape(-1, size)
            if block.size == 0:
                break
            member = np.zeros((-(-len(block) // 4) * 4, k + 1), dtype=bool)
            np.put_along_axis(member[: len(block)], block, True, axis=1)
            yield member, (size - 1) / 2.0


@functools.lru_cache(maxsize=32)
def _subset_table(k: int, max_set_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every size's block of _subset_blocks stacked: member and each row's half."""
    blocks = list(_subset_blocks(k, max_set_size, sys.maxsize))
    member = np.concatenate([m for m, _ in blocks])
    halves = np.concatenate([np.full(len(m), half) for m, half in blocks])
    member.flags.writeable = halves.flags.writeable = False  # every caller shares them
    return member, halves


def best_violated_oddset(graph: Graph, x, max_set_size: int = 9, tables: dict | None = None):
    """Most violated odd-set inequality over the support's components.

    Returns (violation, node tuple) with the raw violation of the inequality
    as written; (0.0, None) when nothing exceeds zero.  Ties resolve to the
    first subset in (size, lexicographic) order.  The component restriction
    is lossless whenever the query satisfies the degree constraints.

    A component's 0/1 edge rows are cut from the shared table of its size's
    odd subsets, or past _BLOCK_ENTRIES entries built block by block, and
    scored in cache-sized chunks.  `tables` (one dict per graph and
    max_set_size) is left mapping this call's components of three or more
    nodes, in order, to their rows (None if built by blocks), which the
    next call reuses.  The scores are the same whichever way rows are made.
    """
    x = as_vector(x)
    if x.shape[0] != graph.n_edges:
        raise ValueError("weight vector length must match the edge count")
    if max_set_size < 3:
        raise ValueError("odd sets start at size 3")
    tables = {} if tables is None else tables
    previous = tables.copy()
    tables.clear()
    width = max(1, graph.n_edges)
    buf = np.empty((max(4, _CHUNK_ENTRIES // width // 4 * 4), graph.n_edges))
    winners = []  # (violation, size, node tuple) of each table
    for nodes in _support_components(graph, x):
        k = len(nodes)
        if k < 3:
            continue
        local = np.full(graph.n_nodes, k, dtype=np.intp)
        local[list(nodes)] = np.arange(k)
        lo, hi = local[graph.ends]
        rows = sum(-(-math.comb(k, s) // 4) * 4 for s in range(3, min(max_set_size, k) + 1, 2))
        if rows * max(k + 1, width) <= _BLOCK_ENTRIES:  # the subset and the edge table fit
            member, halves = _subset_table(k, max_set_size)
            inside = previous.get(nodes)
            if inside is None:
                inside = member.take(lo, axis=1) & member.take(hi, axis=1)
            tables[nodes] = inside
            parts = [(member, halves, inside)]
        else:
            tables[nodes] = None
            blocks = _subset_blocks(k, max_set_size, max(1, _BLOCK_ENTRIES // max(k + 1, width)))
            parts = ((m, h, m.take(lo, axis=1) & m.take(hi, axis=1)) for m, h in blocks)
        for member, halves, inside in parts:
            viol = np.empty(len(inside))
            for start in range(0, len(inside), len(buf)):
                part = inside[start : start + len(buf)]
                np.copyto(buf[: len(part)], part)
                np.matmul(buf[: len(part)], x, out=viol[start : start + len(part)])
            viol -= halves
            row = int(np.argmax(viol))
            if viol[row] > 0.0:
                subset = tuple(nodes[v] for v in np.flatnonzero(member[row]).tolist())
                winners.append((float(viol[row]), len(subset), subset))
    if not winners:
        return 0.0, None
    viol, _, subset = min(winners, key=lambda w: (-w[0], w[1], w[2]))
    return viol, subset


def oddset_constraint(graph: Graph, subset) -> Constraint:
    """Blossom row for the node subset, scaled to right-hand side 1."""
    scale = (len(subset) - 1) / 2.0
    member = np.zeros(graph.n_nodes, dtype=bool)
    member[list(subset)] = True
    a = np.where(member[graph.ends[0]] & member[graph.ends[1]], 1.0 / scale, 0.0)
    name = "oddset:" + "|".join(str(v) for v in sorted(subset))
    return Constraint(a, 1.0, ConstraintForm.POLAR, name)


# -- clique separation ------------------------------------------------------


def max_weight_clique(graph: Graph, weights) -> tuple[float, tuple[int, ...]]:
    """Exact maximum-weight clique via branch and bound.

    Prunes with a greedy weighted-coloring bound; only nodes of positive
    weight matter, since dropping a nonpositive-weight node never decreases
    a clique's weight.  Deterministic for a fixed graph and weight vector.
    Neighbourhoods and color classes are node bitmasks.
    """
    weights = as_vector(weights)
    if weights.shape[0] != graph.n_nodes:
        raise ValueError("weight vector length must match the node count")
    w = weights.tolist()
    nbr = graph.neighbours
    nodes = [v for v in range(graph.n_nodes) if w[v] > _SUPPORT_TOL]
    nodes.sort(key=lambda v: (-w[v], v))
    best_w = 0.0
    best_set: tuple[int, ...] = ()

    def color_bound(cands: list[int]) -> float:
        classes: list[list] = []  # [heaviest weight, member mask]
        bound = 0.0
        for v in cands:
            for cls in classes:
                if not nbr[v] & cls[1]:
                    cls[1] |= 1 << v
                    if w[v] > cls[0]:
                        bound += w[v] - cls[0]
                        cls[0] = w[v]
                    break
            else:
                classes.append([w[v], 1 << v])
                bound += w[v]
        return bound

    def expand(current: list[int], current_w: float, cands: list[int]) -> None:
        nonlocal best_w, best_set
        if not cands:
            if current_w > best_w:
                best_w = current_w
                best_set = tuple(sorted(current))
            return
        if current_w + color_bound(cands) <= best_w + 1e-15:
            return
        cand_w = [w[u] for u in cands]
        for i, v in enumerate(cands):
            rest = cands[i + 1 :]
            if current_w + w[v] + sum(cand_w[i + 1 :]) <= best_w + 1e-15:
                return
            current.append(v)
            expand(current, current_w + w[v], [u for u in rest if nbr[v] >> u & 1])
            current.pop()

    expand([], 0.0, nodes)
    return best_w, best_set


def clique_constraint(graph: Graph, clique) -> Constraint:
    a = np.zeros(graph.n_nodes)
    a[list(clique)] = 1.0
    name = "clique:" + "|".join(str(v) for v in sorted(clique))
    return Constraint(a, 1.0, ConstraintForm.POLAR, name)


def separate_clique(graph: Graph, x) -> SeparationResult:
    """Return the clique inequality of a maximum-weight clique, if violated."""
    x = as_vector(x)
    weight, clique = max_weight_clique(graph, x)
    if weight <= 1.0 + VIOLATION_TOL:
        return Inside()
    cons = clique_constraint(graph, clique)
    return Violated(cons, cons.violation(x))


def enumerate_maximal_cliques(graph: Graph) -> list[tuple[int, ...]]:
    """Bron-Kerbosch with pivoting; includes singletons for isolated nodes."""
    adj = [set() for _ in range(graph.n_nodes)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    out: list[tuple[int, ...]] = []

    def bk(r: set, p: set, x: set) -> None:
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda v: (len(adj[v] & p), -v))
        for v in sorted(p - adj[pivot]):
            bk(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    bk(set(), set(range(graph.n_nodes)), set())
    return sorted(out, key=lambda c: (len(c), c))


# -- reference optima --------------------------------------------------------


def brute_force_matching_opt(graph: Graph) -> int:
    """Exact maximum-cardinality matching by memoized enumeration.

    Works per connected component on node bitmasks; the desk-scale cap
    applies to the number of non-isolated nodes.
    """
    touched = sorted({u for e in graph.edges for u in e})
    if len(touched) > _MATCHING_BRUTE_CAP:
        raise ValueError(
            f"instance too large for brute force ({len(touched)} matched nodes > "
            f"{_MATCHING_BRUTE_CAP})"
        )
    total = 0
    for nodes in _support_components(graph, np.ones(graph.n_edges)):
        index = {v: i for i, v in enumerate(nodes)}
        adj_mask = [0] * len(nodes)
        for u, v in graph.edges:
            if u in index and v in index:
                adj_mask[index[u]] |= 1 << index[v]
                adj_mask[index[v]] |= 1 << index[u]
        memo: dict[int, int] = {}

        def match(mask: int) -> int:
            if mask == 0:
                return 0
            cached = memo.get(mask)
            if cached is not None:
                return cached
            v = (mask & -mask).bit_length() - 1
            rest = mask & ~(1 << v)
            best = match(rest)  # leave v unmatched
            nb = adj_mask[v] & rest
            while nb:
                u = (nb & -nb).bit_length() - 1
                nb &= nb - 1
                best = max(best, 1 + match(rest & ~(1 << u)))
            memo[mask] = best
            return best

        total += match((1 << len(nodes)) - 1)
    return total


def clique_relaxation_opt(graph: Graph) -> float:
    """Optimal value of the clique relaxation via full clique enumeration.

    The clique rows bound every x_v: an isolated node is the clique (v,).
    """
    if graph.n_nodes > _CLIQUE_BRUTE_CAP:
        raise ValueError(
            f"instance too large for brute force ({graph.n_nodes} nodes > "
            f"{_CLIQUE_BRUTE_CAP})"
        )
    rows = [clique_constraint(graph, c) for c in enumerate_maximal_cliques(graph)]
    return solve_lp(LinearProgram(np.ones(graph.n_nodes), rows)).value


# -- oracles and instance presets -------------------------------------------


def degree_constraint(graph: Graph, node: int) -> Constraint:
    a = np.zeros(graph.n_edges)
    a[[j for j, edge in enumerate(graph.edges) if node in edge]] = 1.0
    return Constraint(a, 1.0, ConstraintForm.POLAR, f"degree:{node}")


def matching_initial_rows(graph: Graph, preset: str) -> list[Constraint]:
    """Initial constraints: variable upper bounds, plus degree rows for 'basic'."""
    rows = []
    for j in range(graph.n_edges):
        e = np.zeros(graph.n_edges)
        e[j] = 1.0
        rows.append(Constraint(e, 1.0, ConstraintForm.POLAR, f"ub:{j}"))
    if preset == "basic":
        inc = graph.incident_edges()
        for v in range(graph.n_nodes):
            if inc[v]:
                rows.append(degree_constraint(graph, v))
    elif preset != "upper_bound":
        raise ValueError(f"unknown constraint preset {preset!r}")
    return rows


def stableset_initial_rows(graph: Graph, preset: str) -> list[Constraint]:
    """Initial constraints: variable upper bounds, plus edge rows for 'basic'."""
    rows = []
    for v in range(graph.n_nodes):
        e = np.zeros(graph.n_nodes)
        e[v] = 1.0
        rows.append(Constraint(e, 1.0, ConstraintForm.POLAR, f"ub:{v}"))
    if preset == "basic":
        for u, v in graph.edges:
            a = np.zeros(graph.n_nodes)
            a[u] = a[v] = 1.0
            rows.append(Constraint(a, 1.0, ConstraintForm.POLAR, f"edge:{u}|{v}"))
    elif preset != "upper_bound":
        raise ValueError(f"unknown constraint preset {preset!r}")
    return rows


def instance_row(graph: Graph, problem: str, name: str) -> Constraint | None:
    """The instance's row behind a certificate row name, or None if it has none.

    Names are those the constructors here give: ub:j and nonneg:j for both
    problems, degree:v and oddset:U for matching, edge:u|v and clique:C for
    stable set.  The solvers' trivial rows zero and ball0 map to <0, x> <= 0.
    """
    dim = graph.n_edges if problem == "matching" else graph.n_nodes
    if name in ("zero", "ball0"):
        return Constraint(np.zeros(dim), 0.0, ConstraintForm.RAW, name)
    kind, _, payload = name.partition(":")
    try:
        nodes = [int(v) for v in payload.split("|")]
    except ValueError:
        return None
    if kind in ("ub", "nonneg") and len(nodes) == 1 and 0 <= nodes[0] < dim:
        e = np.zeros(dim)
        e[nodes[0]] = 1.0 if kind == "ub" else -1.0
        return Constraint(e, 1.0 if kind == "ub" else 0.0, ConstraintForm.RAW, name)
    if not all(0 <= v < graph.n_nodes for v in nodes):
        return None
    if problem == "matching":
        if kind == "degree" and len(nodes) == 1:
            return degree_constraint(graph, nodes[0])
        if kind == "oddset" and len(set(nodes)) == len(nodes) >= 3 and len(nodes) % 2:
            return oddset_constraint(graph, nodes)
    elif problem == "stableset":
        adj = graph.adjacency()
        if kind == "edge" and len(nodes) == 2 and adj[nodes[0], nodes[1]]:
            return clique_constraint(graph, nodes)
        if kind == "clique" and all(adj[u, v] for u in nodes for v in nodes if u != v):
            return clique_constraint(graph, nodes)
    return None


def separate_nonneg(x: np.ndarray) -> Violated | None:
    """The row -x_j <= 0 of the most negative coordinate, if it is violated."""
    j = int(np.argmin(x))
    if x[j] >= -VIOLATION_TOL:
        return None
    a = np.zeros(x.shape[0])
    a[j] = -1.0
    cons = Constraint(a, 0.0, ConstraintForm.RAW, f"nonneg:{j}")
    return Violated(cons, cons.violation(x))


class _RecallingOracle(SeparationOracle):
    """An exact oracle that keeps its last `_ANSWERS` answers by query point:
    the variants run on one instance ask many of the same points."""

    def __init__(self):
        self._answers: dict[bytes, SeparationResult] = {}

    def _recall(self, x: np.ndarray, answer) -> SeparationResult:
        """The kept answer at x, else answer(x), kept."""
        key = x.tobytes()
        if key not in self._answers:
            if len(self._answers) >= _ANSWERS:
                del self._answers[next(iter(self._answers))]  # the oldest
            kept = self._answers[key] = answer(x)
            if isinstance(kept, Violated):
                kept.constraint.a.flags.writeable = False  # every asker gets this row
        return self._answers[key]


class MatchingOracle(_RecallingOracle):
    """Separation for the matching polytope: degree rows and odd sets.

    Returns the row with the biggest absolute violation; degree rows win
    exact ties.  Logs a warning when the odd-set size cap was binding for a
    query declared inside.  Keeps the odd-set tables of the last query's
    support components, which the next query often repeats.
    """

    def __init__(self, graph: Graph, max_set_size: int = 9):
        if max_set_size < 3:
            raise ValueError("odd sets start at size 3")
        super().__init__()
        self.graph = graph
        self.max_set_size = max_set_size
        self.dimension = graph.n_edges
        self.radius_outer = float(np.sqrt(graph.n_edges))
        self.radius_inner = 1.0 / float(np.sqrt(graph.n_edges))
        self._incidence = graph.incident_edges()
        self._warned_cap = False
        self._oddset_tables: dict = {}

    def separate(self, x) -> SeparationResult:
        return self._recall(as_vector(x), self._separate)

    def _separate(self, x: np.ndarray) -> SeparationResult:
        outside = separate_nonneg(x)
        if outside is not None:
            return outside
        weights = x.tolist()
        best_deg, best_node = 0.0, None
        for v, edges in enumerate(self._incidence):  # an isolated node scores -1
            viol = sum(weights[j] for j in edges) - 1.0
            if viol > best_deg:
                best_deg, best_node = viol, v
        odd_viol, subset = best_violated_oddset(
            self.graph, x, self.max_set_size, self._oddset_tables
        )
        if best_deg >= odd_viol and best_deg > VIOLATION_TOL:
            cons = degree_constraint(self.graph, best_node)
            return Violated(cons, cons.violation(x))
        if odd_viol > VIOLATION_TOL:
            cons = oddset_constraint(self.graph, subset)
            return Violated(cons, cons.violation(x))
        if not self._warned_cap and any(len(c) > self.max_set_size for c in self._oddset_tables):
            self._warned_cap = True
            log.warning(
                "odd-set size cap %d was binding for an inside verdict; "
                "larger violated odd sets may exist",
                self.max_set_size,
            )
        return Inside()


class StableSetOracle(_RecallingOracle):
    """Separation for the clique relaxation via exact max-weight clique."""

    def __init__(self, graph: Graph):
        super().__init__()
        self.graph = graph
        self.dimension = graph.n_nodes
        self.radius_outer = float(np.sqrt(graph.n_nodes))
        self.radius_inner = 1.0 / float(np.sqrt(graph.n_nodes))

    def separate(self, x) -> SeparationResult:
        return self._recall(
            as_vector(x), lambda x: separate_nonneg(x) or separate_clique(self.graph, x)
        )
