"""Shared graph builders and oracles for the test suite."""

from __future__ import annotations

import contextlib
import io
import itertools
import random

import pytest
from hypothesis import strategies as st

from burnkit import (
    Graph,
    NodeBudgetError,
    NotBurnableIn3Error,
    RejectedInputError,
    SplitPartition,
    cli,
    from_edge_list,
    lower_bound,
    neighborhood,
    upper_bound_radius,
    validate_split,
    verify,
)
from burnkit.graph import _bfs, _check_vertices
from burnkit.hardness import gen_spider
from burnkit.processes import FirefightRun, PercolationRun


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(v, v + 1) for v in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edge_list(n, [(v, (v + 1) % n) for v in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return from_edge_list(rows * cols, edges)


def chorded_spider(s: int, r: int) -> Graph:
    """SP(s, r) plus one chord: between the first vertices of its first two
    legs, or on a single leg of two or more vertices, between the centre and
    the tip, which closes a cycle."""
    g = gen_spider(s, r)
    return from_edge_list(g.n, g.edges() + [(1, 1 + r) if s >= 2 else (0, r)])


def hypercube_graph(dim: int) -> Graph:
    n = 1 << dim
    return from_edge_list(n, [(v, v | 1 << b) for v in range(n) for b in range(dim) if not v >> b & 1])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, outer + spokes + inner)


small_edge_lists = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])),
    )
)
"""(n, edges) of a simple graph on 1..12 vertices, any edge set."""


def eccentricities(G: Graph) -> list[int]:
    """Each vertex's eccentricity within its own component, one BFS per vertex.

    The reference for the bounded eccentricity search in ``burnkit.graph``.
    """
    return [max(_bfs(G.adjacency, (v,))[0]) for v in range(G.n)]


def fig_example_graph() -> Graph:
    """The eight-vertex example graph (vertices p..w mapped to 0..7)."""
    return from_edge_list(
        8, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (4, 6), (3, 5), (3, 6), (6, 7)]
    )


P, Q, R, S, T, U, V, W = range(8)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(n, edges)


def atlas_and_random_graphs(rng: random.Random, count: int) -> list[Graph]:
    """Every graph of networkx's atlas (all 1253 on at most 7 vertices), then
    ``count`` random graphs on 8 to 14 vertices; skips without networkx."""
    nx = pytest.importorskip("networkx")
    atlas = [from_edge_list(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()]
    return atlas + [random_graph(rng, rng.randint(8, 14), rng.random()) for _ in range(count)]


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    while True:
        G = random_graph(rng, n, p)
        if _connected(G):
            return G


def _connected(G: Graph) -> bool:
    if G.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in G.adjacency[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == G.n


def random_tree(rng: random.Random, n: int) -> Graph:
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return from_edge_list(n, edges)


def random_split_graph(rng: random.Random, n: int, connected: bool = True) -> tuple[Graph, SplitPartition]:
    while True:
        clique_size = rng.randint(1, n)
        clique = list(range(clique_size))
        independent = list(range(clique_size, n))
        edges = [(u, v) for u in clique for v in clique if u < v]
        for w in independent:
            for c in clique:
                if rng.random() < 0.5:
                    edges.append((c, w))
        G = from_edge_list(n, edges)
        if not connected or _connected(G):
            return G, SplitPartition(frozenset(clique), frozenset(independent))


def random_connected_cograph(rng: random.Random, n: int) -> Graph:
    """Recursive union/join construction with a join at the top."""

    def build(size: int) -> list[tuple[int, int]] | None:
        # returns edges over 0..size-1
        if size == 1:
            return []
        left = rng.randint(1, size - 1)
        right = size - left
        left_edges = build(left)
        right_edges = [(u + left, v + left) for u, v in build(right)]
        edges = left_edges + right_edges
        if rng.random() < 0.5:
            edges += [(u, v + left) for u in range(left) for v in range(right)]
        return edges

    if n == 1:
        return from_edge_list(1, [])
    left = rng.randint(1, n - 1)
    right = n - left
    edges = build(left) + [(u + left, v + left) for u, v in build(right)]
    edges += [(u, v + left) for u in range(left) for v in range(right)]
    return from_edge_list(n, edges)


def random_interval_pairs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    pairs = []
    for _ in range(n):
        start = rng.randint(0, 2 * n)
        pairs.append((start, start + rng.randint(1, 5)))
    return pairs


def reference_ball_masks(G: Graph, k: int) -> list[list[int]]:
    """``masks[r][v]``: the bitmask of ball(v, r) for r < k, from one
    ``graph._bfs`` of radius k - 1 per vertex.

    The reference for exact search's table, which grows radius by radius
    instead.
    """
    masks = [[0] * G.n for _ in range(k)]
    for v in range(G.n):
        shells = [0] * k  # shells[r]: the vertices at distance exactly r
        dist, reached = _bfs(G.adjacency, (v,), k - 1)
        for u in reached:
            shells[dist[u]] |= 1 << u
        ball = 0
        for r in range(k):
            ball |= shells[r]
            masks[r][v] = ball
    return masks


def reference_closed_form(G: Graph, S) -> tuple[bool, set[int]]:
    """``(legal, covered)`` of sources x_0..x_{k-1} by the closed form of
    burning, from networkx distances: legal iff d(x_i, x_j) >= j - i for
    every i < j, covered the union of ball(x_i, k - 1 - i).

    The oracle for ``verify`` and ``coverage``, which run the process
    instead; skips without networkx.
    """
    nx = pytest.importorskip("networkx")
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    k = len(S)
    rows = [nx.single_source_shortest_path_length(H, x) for x in S]
    # a source in another component is farther than any j - i < k
    legal = all(rows[i].get(S[j], k) >= j - i for i in range(k) for j in range(i + 1, k))
    covered = {v for i, row in enumerate(rows) for v, d in row.items() if d <= k - 1 - i}
    return legal, covered


def all_optimal_sequences(G: Graph, k: int) -> list[tuple[int, ...]]:
    """Every verifying sequence of length k, by exhaustive enumeration."""
    return [S for S in itertools.permutations(range(G.n), k) if verify(G, S)]


class _ReferenceOutOfBudget(Exception):
    """The reference search needed more nodes than its budget."""


class _ReferenceSearch:
    """Exact search's cover search as it ranked every node's candidates: the
    best gain comes from sorting a ``(-gain, v)`` tuple per legal vertex, the
    capped capacity sum is recomputed at every node, and the ball table is
    ``reference_ball_masks``, independent of the engine's."""

    def __init__(self, G: Graph, k: int, budget: int | None):
        self.n = G.n
        self.k = k
        self.budget = budget
        self.nodes = 0
        self.full = (1 << G.n) - 1
        self.balls = reference_ball_masks(G, k)
        self.max_ball = [max(ball.bit_count() for ball in table) for table in self.balls]
        self.reachable = [0, *itertools.accumulate(self.max_ball)]

    def candidates(self, chosen: tuple[int, ...], covered: int) -> list[tuple[int, int]]:
        depth = len(chosen)
        burned = 0
        for t, x in enumerate(chosen):
            burned |= self.balls[depth - t - 1][x]
        uncovered = self.full & ~covered
        balls = self.balls[self.k - depth - 1]
        return sorted(
            (-(balls[v] & uncovered).bit_count(), v)
            for v in range(self.n)
            if not burned >> v & 1
        )

    def run(self, chosen: tuple[int, ...], covered: int) -> tuple[int, ...] | None:
        depth = len(chosen)
        if depth == self.k:
            return chosen if covered == self.full else None
        uncovered_count = (self.full & ~covered).bit_count()
        radius = self.k - depth - 1
        if uncovered_count > self.reachable[radius + 1]:
            return None
        ranked = self.candidates(chosen, covered)
        if uncovered_count:
            best_gain = -ranked[0][0]
            if uncovered_count > sum(min(best_gain, m) for m in self.max_ball[: radius + 1]):
                return None
        balls = self.balls[radius]
        for _, v in ranked:
            if self.nodes == self.budget:
                raise _ReferenceOutOfBudget
            self.nodes += 1
            result = self.run(chosen + (v,), covered | balls[v])
            if result is not None:
                return result
        return None


def reference_exact(G: Graph, node_budget: int | None = None) -> tuple[int, tuple[int, ...], int]:
    """(k, witness sources, nodes explored) of ``burning_number_exact`` by the
    ranking search above; raises the same ``NodeBudgetError``, which a budget
    of 0 raises at ``lower_bound(G)`` before any search."""
    if node_budget == 0:
        raise NodeBudgetError(0, lower_bound(G), upper_bound_radius(G))
    nodes = 0
    for k in range(lower_bound(G), G.n + 1):
        search = _ReferenceSearch(G, k, None if node_budget is None else node_budget - nodes)
        try:
            found = search.run((), 0)
        except _ReferenceOutOfBudget:
            raise NodeBudgetError(node_budget, k, upper_bound_radius(G)) from None
        nodes += search.nodes
        if found is not None:
            return k, found, nodes
    raise AssertionError("a burning sequence of length n always exists")


def reference_firefight(G: Graph, s: int, max_placements: int) -> tuple[int, ...]:
    """The placements of the best firefighting strategy from ``s``, with at
    most ``max_placements`` firefighters, by the least key (final burned
    count, placements, sequence) over every prefix the depth-first search
    meets, without pruning.

    The reference for the pruned search in ``burnkit.processes``.
    """
    best = None

    def spread(burned: set[int], blocked: set[int]) -> set[int]:
        return {u for v in burned for u in G.adjacency[v]} - burned - blocked

    def dfs(sequence: tuple[int, ...], burned: set[int], protected: set[int]) -> None:
        nonlocal best
        final = set(burned)
        while grown := spread(final, protected):
            final |= grown
        key = (len(final), len(sequence), sequence)
        best = key if best is None else min(best, key)
        if len(sequence) >= max_placements or len(final) == len(burned):
            return
        for vertex in range(G.n):
            if vertex not in burned and vertex not in protected:
                blocked = protected | {vertex}
                dfs(sequence + (vertex,), burned | spread(burned, blocked), blocked)

    dfs((), {s}, set())
    return best[2]


class _CountedRows(tuple):
    """Adjacency rows that count each indexed read, ``adjacency[v]``."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def row_reads(G: Graph, call, *args) -> int:
    """The adjacency rows ``call(G, *args)`` reads; G's rows are swapped for
    counted ones, so build G for this call alone."""
    object.__setattr__(G, "adjacency", _CountedRows(G.adjacency))
    call(G, *args)
    return G.adjacency.reads


# The four functions below are the whole-graph rescans that the frontier
# loops in burnkit replaced, kept as the references those loops must match
# field for field.


def reference_verify_firefighter(G: Graph, s: int, placements) -> FirefightRun:
    """``processes.verify_firefighter`` spreading from the whole burned set
    every round."""

    def spread(burned, blocked) -> set[int]:
        return {u for v in burned for u in G.adjacency[v] if u not in burned and u not in blocked}

    _check_vertices(G, (s,), "fire origin")
    S = tuple(placements)
    _check_vertices(G, S, "placement vertex")
    burned = {s}
    protected: set[int] = set()
    steps = [frozenset(burned)]
    step = 1
    violation = None
    while True:
        step += 1
        if step - 2 < len(S):
            vertex = S[step - 2]
            if vertex in burned or vertex in protected:
                state = "burned" if vertex in burned else "protected"
                violation = (step, f"vertex {vertex} already {state}")
                break
            protected.add(vertex)
        grown = spread(burned, protected)
        burned |= grown
        steps.append(frozenset(burned))
        if not grown:
            break
    return FirefightRun(
        origin=s,
        placements=S,
        burned_steps=tuple(steps),
        protected=frozenset(protected),
        saved=G.n - len(burned),
        valid=violation is None,
        violation=violation,
    )


def reference_bootstrap_percolate(G: Graph, A, r: int) -> PercolationRun:
    """``processes.bootstrap_percolate`` rescanning every vertex every step."""
    seed = frozenset(A)
    _check_vertices(G, seed, "seed vertex")
    if r < 2:
        raise RejectedInputError("infection threshold must be at least 2")
    timeline = [seed]
    current = set(seed)
    while True:
        infected = {
            v
            for v in range(G.n)
            if v not in current
            and sum(1 for u in G.adjacency[v] if u in current) >= r
        }
        if not infected:
            break
        current |= infected
        timeline.append(frozenset(current))
    return PercolationRun(
        seed=seed,
        threshold=r,
        timeline=tuple(timeline),
        percolates=len(current) == G.n,
    )


def reference_burn_split(G: Graph, sp: SplitPartition) -> list[int]:
    """``families.burn_split`` rebuilding its three candidate lists, and a
    ball around the whole burned set, every round."""
    validate_split(G, sp)
    if G.n == 0:
        raise RejectedInputError("cannot burn the empty graph")
    clique = sorted(sp.clique) or [min(sp.independent)]
    first = max(
        clique,
        key=lambda c: (sum(1 for u in G.adjacency[c] if u in sp.independent), -c),
    )
    schedule = [first]
    burned = {first}
    while len(burned) < G.n:
        unburned = [v for v in range(G.n) if v not in burned]
        independent = [v for v in unburned if v in sp.independent]
        away_from_first = [v for v in independent if v not in G.adjacency[first]]
        source = (away_from_first or independent or unburned)[0]
        schedule.append(source)
        burned |= {source} | neighborhood(G, burned, 1)
    return schedule


def reference_burn_cograph(G: Graph) -> list[int]:
    """``families.burn_cograph`` listing every vertex each candidate hub misses."""
    if G.n == 0:
        raise RejectedInputError("cannot burn the empty graph")
    if G.n == 1:
        return [0]
    for x1 in range(G.n):
        missing = [v for v in range(G.n) if v != x1 and v not in G.adjacency[x1]]
        if len(missing) > 1:
            continue
        if missing:
            return [x1, missing[0]]
        x2 = 0 if x1 != 0 else 1
        return [x1, x2]
    x1 = 0
    ball1 = neighborhood(G, {x1}, 1)
    x3 = min(v for v in range(G.n) if v not in ball1)
    x2 = min(v for v in range(G.n) if v not in (x1, x3))
    schedule = [x1, x2, x3]
    if len(neighborhood(G, {x1}, 2)) != G.n:
        raise NotBurnableIn3Error(
            "bounded three-round search failed; not a connected cograph"
        )
    return schedule


def outcome(call, *args):
    """``call(*args)``'s result, or the type and message of the toolkit error it raised."""
    try:
        return call(*args)
    except RejectedInputError as exc:
        return type(exc), str(exc)


def run_main(argv: list[str], reference: bool = False) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of ``cli.main(argv)``, where argparse's
    usage error exits with its own code.

    With ``reference``, main parses as the full parser alone does:
    ``build_parser().parse_args(argv)``, then ``args.func(args)``.  The
    reference for main's single parse by the subcommand's parser.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            patch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()
