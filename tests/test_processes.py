import random

import pytest

from burnkit import (
    RejectedInputError,
    VertexCapError,
    bootstrap_percolate,
    firefight_bruteforce,
    firefight_pk_free,
    from_edge_list,
    verify_firefighter,
)
from burnkit import processes
from burnkit.hardness import gen_spider

from helpers import (
    complete_graph,
    grid_graph,
    path_graph,
    random_graph,
    random_split_graph,
    reference_firefight,
)


def naive_firefight(G, s, placements):
    """Independent array-based re-simulation of the firefighting semantics."""
    burned = [False] * G.n
    protected = [False] * G.n
    burned[s] = True
    queue = list(placements)
    valid = True
    while True:
        if queue:
            vertex = queue.pop(0)
            if burned[vertex] or protected[vertex]:
                valid = False
                break
            protected[vertex] = True
        spread = [
            v
            for v in range(G.n)
            if not burned[v]
            and not protected[v]
            and any(burned[u] for u in G.adjacency[v])
        ]
        for v in spread:
            burned[v] = True
        if not spread:
            break
    return valid, G.n - sum(burned)


class TestVerifyFirefighter:
    def test_middle_origin_saves_one(self):
        run = verify_firefighter(path_graph(3), 1, [0])
        assert run.valid and run.saved == 1
        assert run.protected == frozenset({0})

    def test_placement_on_origin_invalid(self):
        run = verify_firefighter(path_graph(3), 1, [1])
        assert not run.valid
        assert run.violation[0] == 2

    def test_end_origin_saves_two(self):
        run = verify_firefighter(path_graph(3), 0, [1])
        assert run.valid and run.saved == 2

    def test_placement_on_protected_invalid(self):
        g = gen_spider(3, 2)
        run = verify_firefighter(g, 0, [1, 1])
        assert not run.valid and "protected" in run.violation[1]

    def test_saved_counts_final_unburned(self):
        g = gen_spider(3, 2)
        run = verify_firefighter(g, 0, [1])
        assert run.saved == g.n - len(run.burned_steps[-1])

    def test_matches_naive_resimulation(self):
        rng = random.Random(61)
        for _ in range(300):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.random())
            s = rng.randrange(n)
            placements = rng.sample(range(n), rng.randint(0, min(4, n)))
            run = verify_firefighter(g, s, placements)
            valid, saved = naive_firefight(g, s, placements)
            assert run.valid == valid
            if valid:
                assert run.saved == saved


class TestFirefightBruteforce:
    def test_complete_graph_saves_one(self):
        for n in (3, 4, 5):
            assert firefight_bruteforce(complete_graph(n), 0).saved == 1

    def test_path_end_saves_two(self):
        run = firefight_bruteforce(path_graph(3), 0)
        assert run.saved == 2
        assert run.placements == (1,)

    def test_star_center_saves_one(self):
        assert firefight_bruteforce(gen_spider(3, 1), 0).saved == 1

    def test_disjoint_cliques(self):
        # fire in one triangle of three: protect one vertex, lose two
        edges = []
        for base in (0, 3, 6):
            edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
        g = from_edge_list(9, edges)
        assert firefight_bruteforce(g, 0).saved == 9 - 3 + 1

    def test_cap_enforced(self):
        with pytest.raises(VertexCapError):
            firefight_bruteforce(path_graph(10), 0)

    def test_result_is_a_valid_run(self):
        rng = random.Random(67)
        for _ in range(20):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, rng.random())
            run = firefight_bruteforce(g, rng.randrange(n))
            assert run.valid


def longest_induced_path_from(G, s):
    best = 1

    def extend(path, inside):
        nonlocal best
        best = max(best, len(path))
        tail = path[-1]
        for u in G.adjacency[tail]:
            if u in inside:
                continue
            # induced: u may touch only the tail of the path
            if any(u in G.adjacency[w] for w in path[:-1]):
                continue
            extend(path + [u], inside | {u})

    extend([s], {s})
    return best


class TestFirefightPkFree:
    def test_k2_allows_only_empty_strategy(self):
        run = firefight_pk_free(complete_graph(4), 0, 2)
        assert run.placements == ()

    def test_split_graphs_agree_with_bruteforce(self):
        rng = random.Random(71)
        for _ in range(12):
            g, _ = random_split_graph(rng, rng.randint(2, 9), connected=False)
            s = rng.randrange(g.n)
            bounded = firefight_pk_free(g, s, 5)
            brute = firefight_bruteforce(g, s)
            assert bounded.saved == brute.saved
            assert bounded.placements == brute.placements

    def test_optimal_strategies_respect_induced_path_budget(self):
        rng = random.Random(73)
        for _ in range(20):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, max(rng.random(), 0.3))
            s = rng.randrange(n)
            run = firefight_bruteforce(g, s)
            limit = longest_induced_path_from(g, s)
            assert len(run.placements) <= max(limit - 1, 0)


class TestStrategySearch:
    def test_matches_the_unpruned_reference_on_the_atlas(self):
        nx = pytest.importorskip("networkx")
        for h in nx.graph_atlas_g():
            if not 0 < h.number_of_nodes() <= 6:
                continue
            g = from_edge_list(h.number_of_nodes(), h.edges())
            for s in range(g.n):
                brute = firefight_bruteforce(g, s)
                assert brute.placements == reference_firefight(g, s, g.n), (h.edges(), s)
                for k in (3, 4, 5):  # at most 1, 2 and 3 firefighters
                    run = firefight_pk_free(g, s, k)
                    assert run.placements == reference_firefight(g, s, k - 2), (h.edges(), s, k)

    @pytest.mark.parametrize(
        "graph, origin, calls",
        [(grid_graph(3, 3), 0, 234), (gen_spider(4, 2), 1, 36)],
        ids=["grid3x3-corner", "spider4x2-arm"],
    )
    def test_prefixes_that_cannot_win_are_not_extended(self, monkeypatch, graph, origin, calls):
        """Without the prune the search spreads 519 and 294 times on these."""
        count = 0
        spread = processes._spread

        def counted(*args):
            nonlocal count
            count += 1
            return spread(*args)

        monkeypatch.setattr(processes, "_spread", counted)
        run = firefight_bruteforce(graph, origin)
        assert run.placements == reference_firefight(graph, origin, graph.n)
        assert count == calls


class TestBootstrapPercolation:
    def test_full_seed_percolates_immediately(self):
        g = path_graph(4)
        run = bootstrap_percolate(g, range(4), 2)
        assert run.percolates and run.steps == 0

    def test_complete_graph_two_seeds(self):
        run = bootstrap_percolate(complete_graph(4), {0, 1}, 2)
        assert run.percolates and run.steps == 1

    def test_path_pincer(self):
        run = bootstrap_percolate(path_graph(3), {0, 2}, 2)
        assert run.percolates
        assert run.timeline[1] == frozenset({0, 1, 2})

    def test_threshold_below_two_rejected(self):
        with pytest.raises(RejectedInputError):
            bootstrap_percolate(path_graph(3), {0}, 1)

    def test_monotone_and_bounded(self):
        rng = random.Random(79)
        for _ in range(200):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.random())
            seed = set(rng.sample(range(n), rng.randint(0, n)))
            run = bootstrap_percolate(g, seed, rng.randint(2, 4))
            assert run.steps <= n
            for earlier, later in zip(run.timeline, run.timeline[1:]):
                assert earlier < later
            assert run.percolates == (run.timeline[-1] == frozenset(range(n)))
