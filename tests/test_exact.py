import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit import (
    NodeBudgetError,
    RejectedInputError,
    VertexCapError,
    burning_number_bruteforce,
    burning_number_exact,
    from_edge_list,
    lower_bound,
    upper_bound_radius,
    verify,
)
from burnkit.exact import _ball_masks, _Cover, _repair
from burnkit.hardness import gen_dk_gadget, gen_ig_gadget, gen_pg_gadget, gen_spider, validate_d3p

from helpers import (
    all_optimal_sequences,
    chorded_spider,
    complete_graph,
    eccentricities,
    fig_example_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_graph,
    random_tree,
    reference_ball_masks,
    reference_exact,
    small_edge_lists,
)


class TestBallMasks:
    """``_ball_masks``, the one ball table of both engines, against networkx
    and against the sparse ``helpers.reference_ball_masks``."""

    def test_matches_networkx_distances(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(61)
        graphs = [from_edge_list(1, []), from_edge_list(4, []), from_edge_list(6, [(1, 2), (2, 3)])]
        graphs += [random_graph(rng, rng.randint(1, 16), rng.random() * 0.3) for _ in range(30)]
        graphs += [
            random_connected_graph(rng, rng.randint(1, 16), rng.uniform(0.2, 0.6)) for _ in range(20)
        ]
        graphs += [path_graph(12), random_tree(rng, 15)]
        for g in graphs:
            h = nx.Graph(g.edges())
            h.add_nodes_from(range(g.n))
            for k in {1, 2, rng.randint(1, g.n + 1), g.n + 1}:
                masks = _ball_masks(g, k)
                assert len(masks) == k
                for r in range(k):
                    for v in range(g.n):
                        near = nx.single_source_shortest_path_length(h, v, cutoff=r)
                        assert masks[r][v] == sum(1 << u for u in near), (g.edges(), k, r, v)

    def test_matches_the_sparse_reference_on_the_atlas(self):
        nx = pytest.importorskip("networkx")
        for h in nx.graph_atlas_g():  # all 1253 graphs on at most 7 vertices
            g = from_edge_list(h.number_of_nodes(), h.edges())
            for k in range(1, g.n + 2):
                assert _ball_masks(g, k) == reference_ball_masks(g, k), (g.edges(), k)

    @pytest.mark.parametrize("kind", ["ig", "pg", "dk"])
    def test_matches_the_sparse_reference_on_gadgets(self, kind):
        inst = validate_d3p([4, 5, 6])
        cert = {
            "ig": lambda: gen_ig_gadget(inst),
            "pg": lambda: gen_pg_gadget(inst)[1],
            "dk": lambda: gen_dk_gadget(inst, 14)[1],
        }[kind]()
        g = cert.graph
        reference = reference_ball_masks(g, g.n + 1)
        # every depth up to the optimum, the deepest table exact search builds;
        # past the largest eccentricity e every row is its whole component,
        # so the depths e + 1, e + 2 and n + 1 stand for the rest
        deepest = max(eccentricities(g))
        for k in sorted({*range(1, cert.claimed_k + 1), deepest + 1, deepest + 2, g.n + 1}):
            assert _ball_masks(g, k) == reference[:k], (kind, k)


class TestBruteforce:
    def test_single_vertex(self):
        result = burning_number_bruteforce(path_graph(1))
        assert result.k == 1 and result.witness.sources == (0,)

    def test_example_graph(self):
        assert burning_number_bruteforce(fig_example_graph()).k == 3

    def test_path_of_nine(self):
        assert burning_number_bruteforce(path_graph(9)).k == 3

    def test_lexicographically_smallest_witness(self):
        result = burning_number_bruteforce(path_graph(2))
        assert result.witness.sources == (0, 1)

    def test_first_verifying_tuple_by_enumeration(self):
        # verify() is independent of the ball masks the oracle tests tuples on
        rng = random.Random(67)
        for _ in range(30):
            n = rng.randint(1, 6)
            g = random_graph(rng, n, rng.random())
            result = burning_number_bruteforce(g)
            assert result.k == 1 or not all_optimal_sequences(g, result.k - 1)
            optima = all_optimal_sequences(g, result.k)
            assert result.witness.sources == min(optima), g.edges()
            before = sum(math.perm(n, t) for t in range(1, result.k))
            order = list(itertools.permutations(range(n), result.k))
            assert result.nodes_explored == before + order.index(min(optima)) + 1

    def test_cap_refusal_names_the_cap(self):
        with pytest.raises(VertexCapError, match="cap of 9"):
            burning_number_bruteforce(path_graph(10))


class TestExactSolver:
    def test_spider_three_by_four(self):
        assert burning_number_exact(gen_spider(3, 4)).k == 4

    def test_spider_four_by_four(self):
        assert burning_number_exact(gen_spider(4, 4)).k == 5

    def test_matches_bruteforce_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, rng.random())
            expected = burning_number_bruteforce(g).k
            result = burning_number_exact(g)
            assert result.k == expected
            assert verify(g, result.witness.sources)

    def test_deterministic_including_workers(self):
        g = gen_spider(3, 4)
        baseline = burning_number_exact(g)
        for workers in (1, 2, 5):
            again = burning_number_exact(g, workers=workers)
            assert again.k == baseline.k
            assert again.witness == baseline.witness
            assert again.nodes_explored == baseline.nodes_explored

    def test_node_budget_carries_bounds(self):
        g = gen_spider(4, 4)
        with pytest.raises(NodeBudgetError) as info:
            burning_number_exact(g, node_budget=1)
        assert info.value.lower >= 1
        assert info.value.upper >= info.value.lower

    def test_grids_and_a_chorded_spider_settle_within_5000_nodes(self):
        for g, k in ((grid_graph(10, 10), 6), (grid_graph(12, 12), 7), (chorded_spider(7, 7), 7)):
            result = burning_number_exact(g, node_budget=5000)
            assert result.k == k and verify(g, result.witness.sources), g.n

    def test_empty_graph_rejected(self):
        with pytest.raises(RejectedInputError):
            burning_number_exact(from_edge_list(0, []))

    def test_node_budget_bounds_the_search(self, monkeypatch):
        entered = []
        covers = _Cover._covers

        def counting_covers(cover, uncovered, radii):
            if uncovered != cover.full:  # a depth's root, where nothing is covered yet
                entered.append((uncovered, radii))
            return covers(cover, uncovered, radii)

        monkeypatch.setattr(_Cover, "_covers", counting_covers)
        rng = random.Random(19)
        graphs = [gen_spider(s, r) for s, r in ((2, 4), (3, 5), (4, 6))]
        graphs += [grid_graph(r, c) for r, c in ((3, 4), (4, 4), (5, 6))]
        graphs += [random_graph(rng, rng.randint(2, 10), rng.random()) for _ in range(20)]
        for g in graphs:
            full = burning_number_exact(g)
            for budget in range(full.nodes_explored + 1):
                entered.clear()
                try:
                    result = burning_number_exact(g, node_budget=budget)
                except NodeBudgetError as error:
                    assert error.budget == budget
                    assert len(entered) == budget  # an exhausted search enters exactly b nodes
                    continue
                assert result.nodes_explored <= budget
                if budget == full.nodes_explored:
                    assert result == full


def _nodes_to_the_optimum(g) -> int:
    """The nodes of one cover search from ``lower_bound(g)`` through the
    first depth it does not refute."""
    cover = _Cover(g, None)
    k = lower_bound(g)
    while cover.covers(k) is None:
        k += 1
    return cover.nodes


def _assert_settles(g, k):
    """The engine gives k on g with a witness that burns g in k rounds, and
    counts the nodes of its one search and no other."""
    result = burning_number_exact(g)
    assert result.k == k, g.edges()
    assert len(result.witness.sources) == k and verify(g, result.witness.sources), g.edges()
    assert result.nodes_explored == _nodes_to_the_optimum(g), g.edges()


SLOW_REFERENCE_SPIDERS = {(7, 7): 8, (7, 8): 8}
"""``reference_exact``'s k where it explores 723,167 and 712,520 nodes
(6-12 s each), recorded from it."""

SLOW_REFERENCE_CHORDED_SPIDERS = {(7, 8): 8}
"""``reference_exact``'s k on SP(7, 8) plus a chord between its first two
legs, where it explores 709,580 nodes (4 s), recorded from it."""


class TestMatchesRankingReference:
    """The cover search keeps the k of ``reference_exact``, the ranking
    search of ``helpers``, with a verified witness of its own, on spiders
    with one chord, grids and small graphs, and bruteforce's on the atlas;
    ``TestForestCover`` holds the spiders themselves."""

    @pytest.mark.parametrize("s", range(1, 8))
    def test_spiders(self, s):
        for r in range(1 if s >= 2 else 2, 9):
            g = chorded_spider(s, r)
            _assert_settles(g, SLOW_REFERENCE_CHORDED_SPIDERS.get((s, r)) or reference_exact(g)[0])

    def test_grids(self):
        for rows in range(1, 6):
            for cols in range(1, 7):
                g = grid_graph(rows, cols)
                _assert_settles(g, reference_exact(g)[0])

    @given(small_edge_lists)
    @settings(max_examples=100, deadline=None)
    def test_small_graphs(self, case):
        n, edges = case
        g = from_edge_list(n, edges)
        _assert_settles(g, reference_exact(g)[0])

    def test_feasibility_matches_bruteforce_on_the_atlas(self):
        # b(G) <= k exactly when the search finds a cover, on every graph of
        # at most seven vertices; at b(G) its cover repairs into a witness
        nx = pytest.importorskip("networkx")
        for h in nx.graph_atlas_g()[1:]:  # all 1252 non-empty graphs
            g = from_edge_list(h.number_of_nodes(), h.edges())
            b = burning_number_bruteforce(g).k
            deepening = _Cover(g, None)  # one search for every k, as the engine keeps it
            for k in range(1, g.n + 1):
                centres = deepening.covers(k)
                assert (centres is not None) == (k >= b), (g.edges(), k)
                if k == b:
                    assert verify(g, _repair(g, k, centres)), (g.edges(), centres)
            _assert_settles(g, b)


def _forests_of_the_atlas():
    """Every forest of ``networkx.graph_atlas_g()``, up to seven vertices."""
    nx = pytest.importorskip("networkx")
    return [
        from_edge_list(h.number_of_nodes(), h.edges())
        for h in nx.graph_atlas_g()
        if h.number_of_nodes() and nx.is_forest(h)
    ]


def _random_forest(rng: random.Random, n: int):
    """A forest on n shuffled labels: each vertex after the first hangs off an
    earlier one with probability 0.85, or starts a component."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = [(labels[rng.randrange(v)], labels[v]) for v in range(1, n) if rng.random() < 0.85]
    return from_edge_list(n, edges)


class TestForestCover:
    """On forests the search branches only on the radius, centred at u's
    ancestor; it decides b(G) <= k exactly, and at the least k it does not
    refute, its cover is the witness: the engine keeps the reference's k on
    forests with a verified witness of its own."""

    def test_feasibility_matches_bruteforce_on_the_atlas(self):
        forests = _forests_of_the_atlas()
        assert len(forests) == 1 + 2 + 3 + 6 + 10 + 20 + 37  # forests on 1..7 vertices
        for g in forests:
            b = burning_number_bruteforce(g).k
            deepening = _Cover(g, None)  # one search for every k, as the engine keeps it
            for k in range(1, g.n + 1):
                assert (_Cover(g, None).covers(k) is not None) == (k >= b), (g.edges(), k)
                centres = deepening.covers(k)
                assert (centres is not None) == (k >= b), (g.edges(), k)
                if k == b:
                    assert verify(g, _repair(g, k, centres)), (g.edges(), centres)
            _assert_settles(g, b)

    def test_cover_centres_cover_the_forest(self):
        # every radius the cover uses has its centre's ball, and together
        # they cover V; a radius it needs no ball of is missing
        nx = pytest.importorskip("networkx")
        rng = random.Random(89)
        for _ in range(100):
            g = _random_forest(rng, rng.randint(1, 15))
            h = nx.Graph(g.edges())
            h.add_nodes_from(range(g.n))
            k = burning_number_exact(g).k
            centres = _Cover(g, None).covers(k)
            assert set(centres) <= set(range(k))
            covered = set()
            for r, centre in centres.items():
                covered |= set(nx.single_source_shortest_path_length(h, centre, cutoff=r))
            assert covered == set(range(g.n)), (g.edges(), centres)

    def test_repair_replaces_missing_and_burned_centres(self):
        # on P5 the radius-0 centre 2 burns in round 2, by spread from 1, so
        # round 3 takes the smallest unburned vertex, 4
        assert _repair(path_graph(5), 3, {2: 1, 1: 3, 0: 2}) == (1, 3, 4)
        # on P3 one radius-1 ball covers all, and the missing radius-0 centre
        # becomes 0, unburned in round 2
        assert _repair(path_graph(3), 2, {1: 1}) == (1, 0)
        assert verify(path_graph(5), (1, 3, 4)) and verify(path_graph(3), (1, 0))

    @pytest.mark.parametrize("s", range(1, 8))
    def test_spiders_match_the_reference(self, s):
        for r in range(9):
            g = gen_spider(s, r)
            k = SLOW_REFERENCE_SPIDERS.get((s, r)) or reference_exact(g)[0]
            _assert_settles(g, k)

    def test_random_forests_match_the_reference(self):
        rng = random.Random(83)
        for _ in range(300):
            g = _random_forest(rng, rng.randint(1, 15))
            _assert_settles(g, reference_exact(g)[0])

    def test_bench_spiders_settle_within_their_budget(self):
        # the bench's exact jobs, which exhausted 2000 nodes without the refuter
        optima = {(4, 10): 7, (5, 8): 7, (6, 6): 7, (6, 7): 7, (7, 7): 8}
        for legs, k in optima.items():
            assert burning_number_exact(gen_spider(*legs), node_budget=2000).k == k, legs

    @pytest.mark.parametrize(
        "kind, x, q",
        [("dk", [6, 7, 9], 20), ("dk", [10, 11, 18], 38), ("pg", [10, 11, 18], None)],
        ids=["dk-6,7,9-q20", "dk-10,11,18-q38", "pg-10,11,18"],
    )
    def test_gadgets_settle_at_their_claimed_optimum(self, kind, x, q):
        # the refuter proves claimed_k - 1 infeasible, and its cover at
        # claimed_k is the witness
        inst = validate_d3p(x)
        cert = gen_dk_gadget(inst, q)[1] if kind == "dk" else gen_pg_gadget(inst)[1]
        result = burning_number_exact(cert.graph, node_budget=300_000)
        assert result.k == cert.claimed_k
        assert verify(cert.graph, result.witness.sources)


class TestCoveringLemma:
    """What lets ``_repair`` replace a centre that is already burned when its
    turn comes: a vertex that is no legal source after a prefix x_1..x_d
    lies in some ball(x_t, d - t - 1), so its ball of radius k - d - 1 lies
    inside ball(x_t, k - t - 1), which the prefix already covers, and it
    gains nothing."""

    @given(small_edge_lists, st.data())
    @settings(max_examples=200, deadline=None)
    def test_illegal_sources_gain_nothing(self, case, data):
        n, edges = case
        g = from_edge_list(n, edges)
        for k in range(1, n + 1):
            masks = _ball_masks(g, k)
            prefix = data.draw(st.lists(st.integers(0, n - 1), max_size=k - 1), label=f"prefix {k}")
            d = len(prefix)
            burned = covered = 0
            for t, x in enumerate(prefix):
                burned |= masks[d - t - 1][x]
                covered |= masks[k - t - 1][x]
            for v in range(n):
                if burned >> v & 1:
                    assert masks[k - d - 1][v] & ~covered == 0, (edges, k, prefix, v)


class TestLowerBound:
    def test_isolated_vertices(self):
        assert lower_bound(from_edge_list(5, [])) == 5

    def test_path_of_ten(self):
        assert lower_bound(path_graph(10)) == 4

    def test_tree_with_long_spine(self):
        # a nine-vertex spine with extra branches still forces three rounds
        edges = [(v, v + 1) for v in range(8)] + [(4, 9), (9, 10)]
        assert lower_bound(from_edge_list(11, edges)) >= 3

    def test_never_exceeds_exact(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, rng.random())
            assert lower_bound(g) <= burning_number_exact(g).k

    @staticmethod
    def networkx_lower_bound(n, edges) -> int:
        """The component count, ⌈√n⌉ on a path forest, and ⌈√(D + 1)⌉ for the
        diameter D of each tree component, from networkx."""
        nx = pytest.importorskip("networkx")
        h = nx.Graph(edges)
        h.add_nodes_from(range(n))
        parts = [h.subgraph(c) for c in nx.connected_components(h)]
        bound = len(parts)
        if nx.is_forest(h) and max(d for _, d in h.degree) <= 2:
            bound = max(bound, math.isqrt(n - 1) + 1)
        for part in parts:
            if nx.is_tree(part):
                bound = max(bound, math.isqrt(nx.diameter(part)) + 1)
        return bound

    @given(small_edge_lists)
    @settings(max_examples=150, deadline=None)
    def test_matches_networkx_on_small_graphs(self, case):
        n, edges = case
        assert lower_bound(from_edge_list(n, edges)) == self.networkx_lower_bound(n, edges)

    def test_matches_networkx_on_forests(self):
        # several trees under shuffled labels: the sweep covers every tree
        rng = random.Random(29)
        for _ in range(60):
            n, edges = 0, []
            for _ in range(rng.randint(1, 6)):
                tree = random_tree(rng, rng.randint(1, 15))
                edges += [(u + n, v + n) for u, v in tree.edges()]
                n += tree.n
            label = list(range(n))
            rng.shuffle(label)
            edges = [(label[u], label[v]) for u, v in edges]
            assert lower_bound(from_edge_list(n, edges)) == self.networkx_lower_bound(n, edges), edges


class TestUpperBoundRadius:
    def test_complete_graph(self):
        assert upper_bound_radius(complete_graph(5)) == 2

    def test_balanced_spiders(self):
        for r in (1, 2, 3):
            g = gen_spider(r, r)
            assert upper_bound_radius(g) == r + 1
            assert burning_number_exact(g).k == r + 1

    def test_isolated_vertices(self):
        assert upper_bound_radius(from_edge_list(3, [])) == 3

    def test_matches_networkx_radius_per_component(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(0, 25)
            g = random_graph(rng, n, rng.random() * 0.25)
            h = nx.Graph(g.edges())
            h.add_nodes_from(range(n))
            comps = [h.subgraph(c) for c in nx.connected_components(h)]
            expected = max((nx.radius(c) for c in comps), default=0) + len(comps)
            assert upper_bound_radius(g) == expected

    def test_sandwich(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, rng.random())
            k = burning_number_exact(g).k
            assert lower_bound(g) <= k <= upper_bound_radius(g)


class TestIsometricSubtreeMonotonicity:
    def test_connected_subtrees_burn_no_slower(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(2, 14)
            tree = random_tree(rng, n)
            k_tree = burning_number_exact(tree).k
            # grow a random connected subtree
            size = rng.randint(1, n)
            inside = {rng.randrange(n)}
            while len(inside) < size:
                frontier = [
                    (v, u)
                    for v in inside
                    for u in tree.adjacency[v]
                    if u not in inside
                ]
                inside.add(rng.choice(frontier)[1])
            relabel = {v: i for i, v in enumerate(sorted(inside))}
            edges = [
                (relabel[v], relabel[u])
                for v in inside
                for u in tree.adjacency[v]
                if u in inside and v < u
            ]
            sub = from_edge_list(len(inside), edges)
            assert burning_number_exact(sub).k <= k_tree


class TestSquareRootLaw:
    def test_paths_up_to_twenty(self):
        for n in range(1, 21):
            assert burning_number_exact(path_graph(n)).k == math.isqrt(n - 1) + 1
