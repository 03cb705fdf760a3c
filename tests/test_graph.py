import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burnkit import (
    DiskArrangement,
    IntervalSet,
    PermutationPair,
    RejectedInputError,
    DisconnectedGraphError,
    Graph,
    bfs_distances,
    components,
    diameter_path,
    disk_graph,
    from_edge_list,
    interval_graph,
    neighborhood,
    permutation_graph,
)
from burnkit import graph
from burnkit.errors import ParseError
from burnkit.formats import parse_edge_list
from burnkit.graph import _path_order
from burnkit.hardness import gen_ig_gadget, gen_spider, gen_spider_forest, validate_d3p

from helpers import (
    complete_graph,
    cycle_graph,
    fig_example_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_graph,
    small_edge_lists,
    Q,
)


def complete_bipartite_graph(a: int, b: int):
    return from_edge_list(a + b, [(u, a + v) for u in range(a) for v in range(b)])


class TestFromEdgeList:
    def test_complete_graph(self):
        g = complete_graph(4)
        assert all(g.degree(v) == 3 for v in range(4))
        assert g.edge_count == 6

    def test_isolated_vertices_preserved(self):
        g = from_edge_list(2, [])
        assert len(components(g)) == 2

    def test_duplicate_and_reversed_edges_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_string_encoded_clique(self):
        # vertices 00,01,10,11 with all six pairs form a clique of size 4
        names = ["00", "01", "10", "11"]
        index = {name: i for i, name in enumerate(names)}
        pairs = [("00", "01"), ("00", "10"), ("00", "11"), ("01", "10"), ("01", "11"), ("10", "11")]
        g = from_edge_list(4, [(index[a], index[b]) for a, b in pairs])
        assert g == complete_graph(4)

    def test_rejects_out_of_range(self):
        with pytest.raises(RejectedInputError, match=r"^edge \(0, 3\) has an endpoint outside 0\.\.2$"):
            from_edge_list(3, [(0, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(RejectedInputError, match="^self-loop at vertex 1$"):
            from_edge_list(3, [(1, 1)])

    def test_parsed_negative_vertex_count_is_a_parse_error(self):
        with pytest.raises(ParseError, match="^vertex count must be nonnegative$"):
            parse_edge_list("-1 0")

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            # the first out-of-range edge in input order, before an earlier self-loop
            (3, [(1, 1), (0, 3), (4, 0)], "edge (0, 3) has an endpoint outside 0..2"),
            (3, [(0, 1), (-1, 2)], "edge (-1, 2) has an endpoint outside 0..2"),
            # with n < 0 every edge is out of range, and that comes first
            (-2, [(0, 0)], "edge (0, 0) has an endpoint outside 0..-3"),
            (-1, [], "vertex count must be nonnegative"),
            # the smallest self-loop vertex, whatever the input order
            (5, [(4, 4), (0, 1), (2, 2), (3, 3)], "self-loop at vertex 2"),
        ],
    )
    def test_reports_the_first_fault_in_order(self, n, edges, message):
        with pytest.raises(RejectedInputError) as excinfo:
            from_edge_list(n, edges)
        assert str(excinfo.value) == message

    @given(small_edge_lists)
    @settings(deadline=None)
    def test_builds_the_rows_a_direct_graph_accepts(self, case):
        n, edges = case
        g = from_edge_list(n, edges)
        assert g == Graph(n, g.adjacency)


class TestGraphValidation:
    """A direct ``Graph(n, adjacency)`` call rejects every malformed representation."""

    @pytest.mark.parametrize(
        "n, adjacency, message",
        [
            (-1, (), "vertex count must be nonnegative"),
            (3, ((1,), (0,)), "adjacency list length must equal vertex count"),
            (2, ((1,), (0, 2)), "edge endpoint 2 out of range"),
            (2, ((0, 1), (0,)), "self-loop at vertex 0"),
            (3, ((2, 1), (0,), (0,)), "adjacency of vertex 0 must be strictly increasing"),
            (3, ((1, 1), (0,), ()), "adjacency of vertex 0 must be strictly increasing"),
            (2, ((1,), ()), "edge (0, 1) lacks its mirror arc"),
            (2, ((), (0,)), "edge (1, 0) lacks its mirror arc"),
            # the first arc in (v, u) order without its mirror
            (4, ((), (3,), (0, 1), ()), "edge (1, 3) lacks its mirror arc"),
        ],
    )
    def test_rejects_with_its_message(self, n, adjacency, message):
        with pytest.raises(RejectedInputError) as excinfo:
            Graph(n, adjacency)
        assert str(excinfo.value) == message

    def test_accepts_every_symmetric_row_set(self):
        for seed in range(20):
            g = random_graph(random.Random(seed), 12, 0.3)
            assert Graph(g.n, [list(row) for row in g.adjacency]) == g


class TestBfsDistances:
    def test_path_end_to_end(self):
        assert bfs_distances(path_graph(5), 0)[4] == 4

    def test_spider_leaves_at_double_arm_length(self):
        for s, r in [(3, 2), (4, 3), (5, 4)]:
            g = gen_spider(s, r)
            leaves = [v for v in range(g.n) if g.degree(v) == 1]
            d = bfs_distances(g, leaves[0])
            assert all(d[leaf] == 2 * r for leaf in leaves[1:])

    def test_complete_graph_all_adjacent(self):
        d = bfs_distances(complete_graph(4), 2)
        assert sorted(d) == [0, 1, 1, 1]

    def test_unreachable_is_infinite(self):
        g = from_edge_list(3, [(0, 1)])
        assert bfs_distances(g, 0)[2] == math.inf


class TestNeighborhood:
    def test_radius_zero_is_identity(self):
        g = fig_example_graph()
        assert neighborhood(g, {3}, 0) == {3}

    def test_example_graph_ball(self):
        g = fig_example_graph()
        assert neighborhood(g, {Q}, 1) == {0, 1, 2, 3, 4}  # q with p, r, s, t

    def test_star_center_reaches_everything(self):
        g = gen_spider(5, 1)
        assert neighborhood(g, {0}, 1) == set(range(g.n))

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx_ball_and_is_monotone(self, seed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        v = rng.randrange(n)
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(n))
        dist = nx.single_source_shortest_path_length(h, v)
        previous = set()
        for i in range(n + 2):
            ball = neighborhood(g, {v}, i)
            assert ball == {u for u, d in dist.items() if d <= i}
            assert previous <= ball
            previous = ball
        assert previous == set(dist)


class TestBfs:
    """The one breadth-first kernel against networkx's multi-source distances."""

    @given(small_edge_lists, st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_networkx_multi_source_distances(self, case, data):
        nx = pytest.importorskip("networkx")
        n, edges = case
        g = from_edge_list(n, edges)
        sources = data.draw(st.lists(st.integers(0, n - 1), max_size=5), label="sources")
        radius = data.draw(st.none() | st.integers(-1, n + 1), label="radius")
        dist, reached = graph._bfs(g.adjacency, sources, radius)
        h = nx.Graph(edges)
        h.add_nodes_from(range(n))
        expected = nx.multi_source_dijkstra_path_length(h, set(sources), cutoff=radius) if sources else {}
        assert dist == [expected.get(v, graph.UNREACHED) for v in range(n)]
        # every vertex with a distance exactly once, nearest first, the sources
        # first as given, repeats dropped
        assert len(reached) == len(set(reached)) and set(reached) == set(expected)
        assert [dist[v] for v in reached] == sorted(dist[v] for v in reached)
        unique = list(dict.fromkeys(sources))
        assert reached[: len(unique)] == unique


class TestDiameterPath:
    def test_path_returns_itself(self):
        assert diameter_path(path_graph(6)) == list(range(6))

    def test_six_cycle(self):
        path = diameter_path(cycle_graph(6))
        assert len(path) == 4
        assert path == [0, 1, 2, 3]

    def test_complete_graph_single_edge(self):
        assert diameter_path(complete_graph(4)) == [0, 1]

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            diameter_path(from_edge_list(3, [(0, 1)]))

    def test_length_matches_all_pairs_oracle(self):
        rng = random.Random(7)
        for _ in range(15):
            n = rng.randint(2, 50)
            g = random_graph(rng, n, 0.15)
            if any(math.inf in bfs_distances(g, v) for v in range(n)):
                continue
            expected = max(max(bfs_distances(g, v)) for v in range(n))
            path = diameter_path(g)
            assert len(path) - 1 == expected
            dist = bfs_distances(g, path[0])
            assert [dist[v] for v in path] == list(range(len(path)))

    def test_lexicographic_contract_matches_networkx_oracle(self):
        nx = pytest.importorskip("networkx")

        def oracle(g):
            # smallest eccentric source, smallest farthest target, smallest geodesic
            h = nx.Graph(g.edges())
            h.add_nodes_from(range(g.n))
            dist = dict(nx.all_pairs_shortest_path_length(h))
            ecc = [max(dist[v].values()) for v in range(g.n)]
            source = min(v for v in range(g.n) if ecc[v] == max(ecc))
            target = min(u for u in range(g.n) if dist[source][u] == max(ecc))
            return min(nx.all_shortest_paths(h, source, target))

        rng = random.Random(29)
        graphs = [
            random_connected_graph(rng, rng.randint(1, 10), rng.uniform(0.25, 0.9))
            for _ in range(150)
        ]
        graphs += [cycle_graph(n) for n in range(3, 12)]
        graphs += [grid_graph(r, c) for r, c in ((1, 5), (2, 2), (3, 4), (4, 4), (5, 6))]
        graphs += [complete_bipartite_graph(a, b) for a, b in ((1, 4), (2, 3), (3, 3), (4, 2))]
        for g in graphs:
            assert diameter_path(g) == oracle(g), g.edges()


class TestComponents:
    def test_each_call_returns_a_new_list(self):
        g = from_edge_list(4, [(1, 3), (3, 2)])
        first = components(g)
        first.clear()
        assert components(g) == [frozenset({0}), frozenset({1, 2, 3})]

    def test_connected(self):
        assert len(components(fig_example_graph())) == 1

    def test_edgeless(self):
        assert len(components(from_edge_list(5, []))) == 5

    def test_spider_forest(self):
        g = gen_spider_forest([2, 3, 4])
        assert len(components(g)) == 3

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(0, 30)
            g = random_graph(rng, n, rng.random() * 0.2)
            h = nx.Graph(g.edges())
            h.add_nodes_from(range(n))
            expected = sorted((frozenset(c) for c in nx.connected_components(h)), key=min)
            assert components(g) == expected


class TestPathOrder:
    def test_members_inducing_a_path_against_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(37)
        for _ in range(300):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.random() * 0.5)
            members = set(rng.sample(range(n), rng.randint(1, n)))
            h = nx.Graph(g.edges()).subgraph(members).copy()
            h.add_nodes_from(members)
            is_path = (
                nx.is_connected(h)
                and max(d for _, d in h.degree()) <= 2
                and h.number_of_edges() == len(members) - 1
            )
            order = _path_order(g.adjacency, members)
            if not is_path:
                assert order is None
                continue
            assert sorted(order) == sorted(members)
            assert order[0] == min(v for v in members if h.degree(v) <= 1)
            assert all(h.has_edge(a, b) for a, b in zip(order, order[1:]))


class TestIntervalGraph:
    def test_overlap_single_edge(self):
        g = interval_graph(IntervalSet.from_pairs([(0, 2), (1, 3)]))
        assert g.edges() == [(0, 1)]

    def test_disjoint_no_edge(self):
        g = interval_graph(IntervalSet.from_pairs([(0, 1), (2, 3)]))
        assert g.edge_count == 0

    def test_chain_of_three_triangle(self):
        g = interval_graph(IntervalSet.from_pairs([(0, 3), (1, 4), (2, 5)]))
        assert g == complete_graph(3)

    def test_shared_endpoint_counts(self):
        g = interval_graph(IntervalSet.from_pairs([(0, 1), (1, 2)]))
        assert g.edge_count == 1

    def test_rejects_empty_interval(self):
        with pytest.raises(RejectedInputError):
            IntervalSet.from_pairs([(2, 2)])

    def test_sweep_matches_all_pairs_and_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(29)
        inputs = []
        for _ in range(300):
            pairs = []
            for _ in range(rng.randint(0, 25)):
                roll = rng.random()
                if pairs and roll < 0.15:
                    pairs.append(rng.choice(pairs))  # duplicate
                elif pairs and roll < 0.3:
                    end = rng.choice(pairs)[1]  # starts where another ends
                    pairs.append((end, end + Fraction(rng.randint(1, 6), rng.randint(1, 3))))
                else:
                    start = Fraction(rng.randint(0, 24), rng.randint(1, 4))
                    pairs.append((start, start + Fraction(rng.randint(1, 12), rng.randint(1, 4))))
            inputs.append(pairs)
        for past, denominators in _AT_THE_CAP:
            for _ in range(60):
                pairs = _intervals_at_the_cap(rng, denominators)
                assert (graph._frame(_ratios(IntervalSet(tuple(pairs)).intervals)) is None) == past
                inputs.append(pairs)
        for pairs in inputs:
            g = interval_graph(IntervalSet.from_pairs(pairs))
            oracle = nx.interval_graph(pairs)
            n = len(pairs)
            expected = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if max(pairs[a][0], pairs[b][0]) <= min(pairs[a][1], pairs[b][1])
            ]
            assert g.edges() == expected
            distinct = {(min(p, q), max(p, q)) for p, q in oracle.edges() if p != q}
            assert distinct == {
                (min(pairs[a], pairs[b]), max(pairs[a], pairs[b]))
                for a, b in expected
                if pairs[a] != pairs[b]
            }

    def test_no_long_induced_cycles(self):
        import itertools

        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(4, 10)
            pairs = [(s, s + rng.randint(1, 5)) for s in (rng.randint(0, 12) for _ in range(n))]
            g = interval_graph(IntervalSet.from_pairs(pairs))
            for size in range(4, n + 1):
                for subset in itertools.combinations(range(n), size):
                    inside = set(subset)
                    degrees = [sum(1 for u in g.adjacency[v] if u in inside) for v in subset]
                    if all(d == 2 for d in degrees):
                        edge_total = sum(degrees) // 2
                        # a connected 2-regular induced subgraph is a cycle
                        assert not (edge_total == size and _induced_connected(g, inside))


def _induced_connected(g, inside):
    start = next(iter(inside))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in g.adjacency[v]:
            if u in inside and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == inside


class TestPermutationGraph:
    def test_eight_vertex_path_example(self):
        g = permutation_graph(PermutationPair((3, 1, 5, 2, 7, 4, 8, 6)))
        expected = {(0, 2), (1, 2), (1, 4), (3, 4), (3, 6), (5, 6), (5, 7)}
        assert set(g.edges()) == expected
        assert sorted(g.degree(v) for v in range(8)) == [1, 1, 2, 2, 2, 2, 2, 2]

    def test_identity_is_edgeless(self):
        g = permutation_graph(PermutationPair(tuple(range(1, 9))))
        assert g.edge_count == 0

    def test_rejects_non_bijection(self):
        with pytest.raises(RejectedInputError):
            PermutationPair((1, 1, 3))


def _all_pairs_disk_graph(D):
    """The all-pairs builder that the x-extent sweep replaced, kept as a reference."""
    disks = D.disks
    n = len(disks)
    floats = [(float(x), float(y), float(r)) for x, y, r in disks]
    edges = []
    for a in range(n):
        xa, ya, ra = floats[a]
        for b in range(a + 1, n):
            xb, yb, rb = floats[b]
            lhs = (xa - xb) ** 2 + (ya - yb) ** 2
            rhs = (ra + rb) ** 2
            scale = max(1.0, abs(xa), abs(ya), abs(xb), abs(yb), ra + rb)
            if abs(lhs - rhs) > 1e-9 * scale * scale:
                adjacent = lhs < rhs
            else:
                sa = disks[a]
                sb = disks[b]
                adjacent = (sa[0] - sb[0]) ** 2 + (sa[1] - sb[1]) ** 2 <= (sa[2] + sb[2]) ** 2
            if adjacent:
                edges.append((a, b))
    return from_edge_list(n, edges)


def _exact_disk_edges(D):
    """Every pair of closed disks that meets, decided in rationals alone."""
    disks = D.disks
    return [
        (a, b)
        for a in range(len(disks))
        for b in range(a + 1, len(disks))
        if (disks[a][0] - disks[b][0]) ** 2 + (disks[a][1] - disks[b][1]) ** 2
        <= (disks[a][2] + disks[b][2]) ** 2
    ]


# unit directions with rational coordinates: axes and 3-4-5 diagonals
_DIRECTIONS = [(1, 0), (0, 1), (-1, 0), (0, -1)] + [
    (Fraction(sx * a, 5), Fraction(sy * b, 5))
    for a, b in ((3, 4), (4, 3))
    for sx in (1, -1)
    for sy in (1, -1)
]


# pairwise coprime, each past 2**64
_BIG_DENOMINATORS = (3**41, 2**67, 5**28, 7**23)


def _random_arrangement(rng):
    """Rational disks with tangencies, near misses, duplicates, nesting and maybe one giant."""
    disks = []
    for _ in range(rng.randint(0, 24)):
        roll = rng.random()
        if disks and roll < 0.1:
            disks.append(rng.choice(disks))
        elif disks and roll < 0.2:
            x, y, r = rng.choice(disks)
            disks.append((x + r / 4, y - r / 4, r / 2))  # nested inside
        elif disks and roll < 0.55:
            x, y, r = rng.choice(disks)
            s = Fraction(rng.randint(1, 8), rng.randint(1, 2))
            dx, dy = rng.choice(_DIRECTIONS)
            # tangent, or off by a hair either way
            s += rng.choice((0, 0, Fraction(1, 10**9), -Fraction(1, 10**9)))
            disks.append((x + (r + s) * dx, y + (r + s) * dy, s))
        elif disks and roll < 0.65:
            # the same at a denominator past 2**64: tangent, or off by one unit of it
            x, y, r = rng.choice(disks)
            unit = Fraction(1, rng.choice(_BIG_DENOMINATORS))
            s = rng.randint(1, 8 * unit.denominator) * unit
            dx, dy = rng.choice(_DIRECTIONS)
            reach = r + s + rng.choice((0, 0, unit, -unit))
            disks.append((x + reach * dx, y + reach * dy, s))
        else:
            disks.append(
                (
                    Fraction(rng.randint(-60, 60), rng.randint(1, 4)),
                    Fraction(rng.randint(-60, 60), rng.randint(1, 4)),
                    Fraction(rng.randint(1, 16), rng.randint(1, 4)),
                )
            )
    if rng.random() < 0.3:
        giant = (Fraction(rng.randint(-80, 80)), Fraction(rng.randint(-80, 80)), Fraction(rng.randint(40, 500)))
        disks.insert(rng.randint(0, len(disks)), giant)
    return DiskArrangement(tuple(disks))


# (past the frame's cap?, denominators whose lcm is their product)
_AT_THE_CAP = (
    (False, (2**32 - 1, 2**32 + 1, 1)),  # lcm 2**64 - 1: just under
    (True, (2**32 - 1, 2**32 + 1, 2)),  # lcm 2**65 - 2: just past
    (True, (2**64 + 13, 2**64 + 37, 2**64 + 51)),  # distinct primes past 2**64
)


def _ratios(values):
    return [(c.numerator, c.denominator) for value in values for c in value]


def _intervals_at_the_cap(rng, denominators):
    """Intervals over ``denominators``, the first having one of each, so that
    their lcm is the lcm of all of them; others share or miss an end by one unit."""
    d1, d2, d3 = denominators
    pairs = [(Fraction(1, d1), Fraction(1, d1) + Fraction(1, d2) + Fraction(1, d3))]
    for _ in range(rng.randint(0, 15)):
        unit = Fraction(1, rng.choice(denominators))
        if rng.random() < 0.5:
            end = rng.choice(pairs)[1] + rng.choice((0, 0, unit, -unit))
            pairs.append((end, end + rng.randint(1, 6 * unit.denominator) * unit))
        else:
            start = rng.randint(0, 24 * unit.denominator) * unit
            pairs.append((start, start + rng.randint(1, 12 * unit.denominator) * unit))
    return pairs


def _arrangement_at_the_cap(rng, denominators):
    """Disks over ``denominators``, the first having one of each, so that their
    lcm is the lcm of all of them; others tangent, or off by one unit, along an axis."""
    disks = [tuple(Fraction(1, d) for d in denominators)]
    for _ in range(rng.randint(0, 15)):
        unit = Fraction(1, rng.choice(denominators))
        if rng.random() < 0.6:
            x, y, r = rng.choice(disks)
            s = rng.randint(1, 8 * unit.denominator) * unit
            dx, dy = rng.choice(_DIRECTIONS[:4])
            reach = r + s + rng.choice((0, 0, unit, -unit))
            disks.append((x + reach * dx, y + reach * dy, s))
        else:
            disks.append(tuple(rng.randint(-40 * unit.denominator, 40 * unit.denominator) * unit for _ in "xy")
                         + (rng.randint(1, 12 * unit.denominator) * unit,))
    return DiskArrangement(tuple(disks))


def _reference_rational(token: str):
    """What the parser gave before its fast path: the exponent cap, then
    Fraction; the value, or the RejectedInputError message."""
    try:
        _, e, exponent = token.lower().rpartition("e")
        if e and abs(int(exponent)) > 4300:
            return f"exponent of {token!r} exceeds 4300 in absolute value"
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        return f"not a rational number: {token!r}"


_TOKEN_PIECES = (
    "0", "1", "7", "10", "4300", "4301", "\u0663", "\uff13", "\U0001d7d7", "\u00b2",
    "_", "__", "-", "+", "/", ".", "e", "E", "e-", " ", "\t", "\n", "\u00a0", "\u2003", "\x1c", "x",
)


class TestRationalTokens:
    @settings(max_examples=600, deadline=None)
    @given(st.lists(st.sampled_from(_TOKEN_PIECES), max_size=7).map("".join))
    @example("3/-2")
    @example("3/ 2")
    @example("3 /2")
    @example("/2")
    @example("3/0")
    @example("0/00")
    @example("-0/5")
    @example("-12/18")
    @example(" +3/4\n")
    @example("1_000/1_0")
    @example("1_0/7")
    @example("\x1c0/1")
    @example("1.5")
    @example("-2.5E+4300")
    @example("1e-4300")
    @example("1E+4301")
    @example("1e4301")
    @example("1e-4301/2")
    @example("9" * 4300)
    @example("9" * 4301)
    @example("-" + "9" * 4300 + "/" + "9" * 4300)
    @example("1/" + "9" * 4301)
    def test_parser_matches_fraction(self, token):
        expected = _reference_rational(token)
        if isinstance(expected, Fraction):
            radius = expected if expected > 0 else 1
            x, _, r = DiskArrangement.from_triples([(token, 0, token if expected > 0 else 1)]).disks[0]
            assert (x, r) == (expected, radius) and type(x) is Fraction
            assert IntervalSet.from_pairs([(token, expected + 1)]).intervals[0][0] == expected
            assert graph._ratio(token) == (expected.numerator, expected.denominator)
        else:
            with pytest.raises(RejectedInputError) as raised:
                DiskArrangement.from_triples([(0, token, 1)])
            assert str(raised.value) == expected
            with pytest.raises(RejectedInputError) as raised:
                IntervalSet.from_pairs([(token, 1)])
            assert str(raised.value) == expected


    @pytest.mark.parametrize("token", ["1e4300", "1e-4300", "-2.5E+4300"])
    def test_exponent_at_the_digit_limit_is_accepted(self, token):
        value = Fraction(token)
        assert DiskArrangement.from_triples([(token, 0, 1)]).disks[0][0] == value
        assert IntervalSet.from_pairs([(value - 1, token)]).intervals[0][1] == value

    @pytest.mark.parametrize("token", ["1e4301", "1e-4301", "1e999999999"])
    def test_exponent_past_the_digit_limit_is_rejected(self, token):
        # checked before Fraction would build 10**exponent
        with pytest.raises(RejectedInputError, match="exceeds 4300"):
            DiskArrangement.from_triples([(0, token, 1)])
        with pytest.raises(RejectedInputError, match="exceeds 4300"):
            IntervalSet.from_pairs([(token, "2e4300")])


@st.composite
def _touching_arrangements(draw):
    """Disks, each free or placed from an earlier one along a rational unit
    direction: tangent, or one unit nearer or further, the unit's denominator
    small or past the frame's cap."""
    disks = []
    for _ in range(draw(st.integers(1, 14))):
        unit = Fraction(1, draw(st.sampled_from((1, 2, 3, 7) + _BIG_DENOMINATORS)))
        if disks and draw(st.integers(0, 3)):
            x, y, r = draw(st.sampled_from(disks))
            s = draw(st.integers(1, 12)) * unit
            dx, dy = draw(st.sampled_from(_DIRECTIONS))
            reach = r + s + draw(st.sampled_from((0, unit, -unit)))
            disks.append((x + reach * dx, y + reach * dy, s))
        else:
            x, y = (Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 4))) for _ in "xy")
            disks.append((x, y, Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 4)))))
    return DiskArrangement(tuple(disks))


class TestDiskGraph:
    @given(_touching_arrangements())
    @example(DiskArrangement.from_triples([(0, 0, 1), (0, 2, 1), (0, "-2000000000000000000001/1000000000000000000000", 1)]))
    @example(DiskArrangement.from_triples([(0, 0, 3), (4, 5, 2), ("1/3", "-20/3", "11/3")]))
    @settings(max_examples=300, deadline=None)
    def test_y_extent_filter_matches_all_pairs_reference(self, D):
        # stacked tangent in y, a hair apart past the frame, and diagonal pairs
        # whose y-extents meet though the disks do not
        assert disk_graph(D).edges() == _exact_disk_edges(D)

    def test_sweep_matches_all_pairs_reference(self):
        rng = random.Random(41)
        arrangements = [_random_arrangement(rng) for _ in range(400)]
        for past, denominators in _AT_THE_CAP:
            for _ in range(60):
                D = _arrangement_at_the_cap(rng, denominators)
                assert (graph._frame(_ratios(D.disks)) is None) == past
                arrangements.append(D)
        tested = 0
        for D in arrangements:
            g = disk_graph(D)
            assert g == _all_pairs_disk_graph(D)
            assert g.edges() == _exact_disk_edges(D)
            tested += g.edge_count
        assert tested > 1000

    @pytest.mark.parametrize(
        "triples",
        [
            [("0", "0", "1e200"), ("5", "0", "1")],
            [("1e400", "0", "1"), ("0", "0", "1")],
            [("1e400", "0", "1"), ("1e400", "2", "1"), ("0", "0", "1e400"), ("-3", "4", "1")],
        ],
    )
    def test_beyond_the_float_range_is_decided_exactly(self, triples):
        D = DiskArrangement.from_triples(triples)
        with pytest.raises(OverflowError):
            _all_pairs_disk_graph(D)
        assert disk_graph(D).edges() == _exact_disk_edges(D)

    def test_tangency_at_the_float_overflow_edge(self):
        # exactly tangent along a 756-1360-1556 right triangle, but in floats
        # the squared distance overflows while the squared radius sum does not
        t = Fraction(8.61684314263663e150)
        r = Fraction(761977, 10**6) * 1556 * t
        D = DiskArrangement(((Fraction(0), Fraction(0), r), (756 * t, 1360 * t, 1556 * t - r)))
        assert disk_graph(D).edge_count == 1

    def test_separated_disks(self):
        g = disk_graph(DiskArrangement.from_triples([(0, 0, 1), (3, 0, 1)]))
        assert g.edge_count == 0

    def test_tangent_disks_touch(self):
        g = disk_graph(DiskArrangement.from_triples([(0, 0, 1), (2, 0, 1)]))
        assert g.edge_count == 1

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(RejectedInputError):
            DiskArrangement.from_triples([(0, 0, 0)])

    def test_exact_boundary_decisions_at_any_scale(self):
        from fractions import Fraction

        big = 10**8
        tangent = disk_graph(
            DiskArrangement.from_triples([(big, 0, 1), (big + 2, 0, 1)])
        )
        assert tangent.edge_count == 1
        epsilon = Fraction(1, 10**12)
        apart = DiskArrangement.from_triples([(0, 0, 1), (Fraction(2) + epsilon, 0, 1)])
        assert disk_graph(apart).edge_count == 0
        touching = DiskArrangement.from_triples([(0, 0, 1), (Fraction(2) - epsilon, 0, 1)])
        assert disk_graph(touching).edge_count == 1

    def test_hub_and_chains_realize_spider(self):
        # hub of radius 2 with three unit-disk chains of five at spacing 1.5
        triples = [(0, 0, 2)]
        for ux, uy in ((1, 0), (0, 1), (-1, 0)):
            for t in range(5):
                rho = 2 + 1.5 * t
                triples.append((ux * rho, uy * rho, 1))
        g = disk_graph(DiskArrangement.from_triples(triples))
        assert g == gen_spider(3, 5)


class _CountedKey:
    """A sweep key that counts its comparisons in ``counter[0]``."""

    __slots__ = ("key", "counter")

    def __init__(self, key, counter):
        self.key = key
        self.counter = counter

    def __lt__(self, other):
        self.counter[0] += 1
        return self.key < other.key

    def __le__(self, other):
        self.counter[0] += 1
        return self.key <= other.key


def _disk_ring(n: int) -> DiskArrangement:
    """n unit disks around a circle, neighbours about 3/2 apart, centres on a 1/1000 grid."""
    radius = 3 * n / (4 * math.pi)
    return DiskArrangement(tuple(
        (
            Fraction(round(1000 * radius * math.cos(2 * math.pi * i / n)), 1000),
            Fraction(round(1000 * radius * math.sin(2 * math.pi * i / n)), 1000),
            Fraction(1),
        )
        for i in range(n)
    ))


class TestSweepWork:
    """Work contract of the geometric builders: the sweep's key comparisons
    stay within a constant of the candidate pairs plus n log n."""

    @staticmethod
    def work(monkeypatch, build, arg) -> tuple[int, int, int]:
        """(key comparisons, candidate pairs, extents) of the sweep in ``build(arg)``."""
        comparisons, seen = [0], []
        sweep = graph._overlaps

        def counted(starts, ends):
            pairs = sweep(
                [_CountedKey(k, comparisons) for k in starts], [_CountedKey(k, comparisons) for k in ends]
            )
            seen.append((len(pairs), len(starts)))
            return pairs

        monkeypatch.setattr(graph, "_overlaps", counted)
        build(arg)
        monkeypatch.undo()
        [(candidates, n)] = seen
        return comparisons[0], candidates, n

    def assert_contract(self, comparisons, candidates, n):
        # a sort and one bisection per extent: at most about 2 n log2 n
        assert comparisons <= 2 * (candidates + n * n.bit_length())

    @pytest.mark.parametrize("x", [[4, 5, 6], [7, 8, 12], [10, 11, 12, 13, 14, 18]])
    def test_ig_gadgets(self, monkeypatch, x):
        intervals = gen_ig_gadget(validate_d3p(x)).intervals
        self.assert_contract(*self.work(monkeypatch, interval_graph, intervals))

    def test_disk_rings_at_n_and_4n(self, monkeypatch):
        for n in (100, 400):
            ring = _disk_ring(n)
            assert disk_graph(ring) == cycle_graph(n)
            self.assert_contract(*self.work(monkeypatch, disk_graph, ring))
