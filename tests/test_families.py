import math
import random

import pytest

from burnkit import (
    DisconnectedGraphError,
    IntervalSet,
    NotBurnableIn3Error,
    RejectedInputError,
    SplitPartition,
    burn_cograph,
    burn_cycle,
    burn_interval_approx,
    burn_path,
    burn_split,
    burning_number_bruteforce,
    burning_number_exact,
    from_edge_list,
    interval_graph,
    simulate,
    split_partition,
    validate_split,
    verify,
)

from helpers import (
    atlas_and_random_graphs,
    complete_graph,
    cycle_graph,
    outcome,
    path_graph,
    random_connected_cograph,
    random_interval_pairs,
    random_split_graph,
    reference_burn_cograph,
    reference_burn_split,
    row_reads,
)


def figure_split_graph():
    """Ten-vertex split graph: five-clique, five independent, one isolated."""
    edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    edges += [(0, 5), (1, 5), (2, 5), (2, 6), (2, 7), (4, 7), (2, 9), (4, 9)]
    return from_edge_list(10, edges), SplitPartition(
        frozenset(range(5)), frozenset(range(5, 10))
    )


def reference_burn_path(P) -> list[int]:
    """A loop-and-branch statement of the path schedule, kept to check the closed form."""
    path = list(P)
    n = len(path)
    k = math.isqrt(n - 1) + 1
    schedule: list[int] = []
    for i in range(k - 1):
        position = n - i * i - i
        schedule.insert(0, path[position - 1])
    if n > (k - 1) ** 2 + k:
        position = n - (k - 1) ** 2 - (k - 1)
    else:
        position = 1
    schedule.insert(0, path[position - 1])
    return schedule


class TestBurnPath:
    def test_nine_vertices(self):
        assert burn_path(range(9)) == [2, 6, 8]

    def test_single_vertex(self):
        assert burn_path([7]) == [7]

    def test_four_vertices(self):
        schedule = burn_path(range(4))
        assert schedule == [1, 3]
        assert verify(path_graph(4), schedule)

    def test_empty_rejected(self):
        with pytest.raises(RejectedInputError):
            burn_path([])

    def test_matches_reference(self):
        for n in range(1, 3001):
            assert burn_path(range(n)) == reference_burn_path(range(n)), n

    def test_square_root_length_and_validity(self):
        for n in list(range(1, 60)) + [97, 255, 1000]:
            schedule = burn_path(range(n))
            assert len(schedule) == math.isqrt(n - 1) + 1
            assert verify(path_graph(n), schedule)


class TestBurnCycle:
    def test_nine_cycle(self):
        schedule = burn_cycle(range(9))
        assert len(schedule) == 3
        assert verify(cycle_graph(9), schedule)

    def test_four_cycle(self):
        assert len(burn_cycle(range(4))) == 2

    def test_three_cycle(self):
        assert len(burn_cycle(range(3))) == 2

    def test_too_small_rejected(self):
        with pytest.raises(RejectedInputError):
            burn_cycle(range(2))

    def test_square_root_length_and_validity(self):
        for n in list(range(3, 120)) + [299, 300]:
            schedule = burn_cycle(range(n))
            assert len(schedule) == math.isqrt(n - 1) + 1
            assert verify(cycle_graph(n), schedule)


def _has_split_partition(g) -> bool:
    """Brute force: some vertex set is a clique and its complement independent."""
    adjacent = [sum(1 << u for u in row) for row in g.adjacency]
    full = (1 << g.n) - 1
    for clique in range(1 << g.n):
        independent = full & ~clique
        members = [v for v in range(g.n) if clique >> v & 1]
        others = [v for v in range(g.n) if independent >> v & 1]
        if all((adjacent[v] | 1 << v) & clique == clique for v in members) and not any(
            adjacent[v] & independent for v in others
        ):
            return True
    return False


class TestSplitRecognizer:
    def test_recognizes_generated_split_graphs(self):
        rng = random.Random(3)
        for _ in range(25):
            g, _ = random_split_graph(rng, rng.randint(1, 9), connected=False)
            sp = split_partition(g)
            assert sp is not None
            validate_split(g, sp)

    def test_rejects_non_split(self):
        assert split_partition(cycle_graph(4)) is None
        assert split_partition(cycle_graph(5)) is None
        assert split_partition(path_graph(5)) is None

    def test_recognizes_exactly_the_split_graphs_up_to_seven_vertices(self):
        nx = pytest.importorskip("networkx")
        for h in nx.graph_atlas_g():
            g = from_edge_list(h.number_of_nodes(), h.edges())
            sp = split_partition(g)
            assert (sp is not None) == _has_split_partition(g), g.edges()
            if sp is not None:
                validate_split(g, sp)


class TestBurnSplit:
    def test_complete_graph_two_rounds(self):
        g = complete_graph(5)
        sp = SplitPartition(frozenset(range(5)), frozenset())
        schedule = burn_split(g, sp)
        assert len(schedule) == 2
        assert verify(g, schedule)

    def test_figure_graph_matches_exact(self):
        g, sp = figure_split_graph()
        schedule = burn_split(g, sp)
        assert verify(g, schedule)
        assert len(schedule) <= 3
        assert len(schedule) == burning_number_exact(g).k

    def test_clique_plus_isolated_vertex(self):
        g = from_edge_list(4, [(0, 1), (0, 2), (1, 2)])
        sp = SplitPartition(frozenset({0, 1, 2}), frozenset({3}))
        assert burn_split(g, sp) == [0, 3]

    def test_invalid_partition_rejected(self):
        g = path_graph(4)
        with pytest.raises(RejectedInputError):
            burn_split(g, SplitPartition(frozenset({0, 3}), frozenset({1, 2})))

    def test_connected_split_graphs_optimal(self):
        rng = random.Random(31)
        for _ in range(25):
            g, sp = random_split_graph(rng, rng.randint(1, 9))
            schedule = burn_split(g, sp)
            assert verify(g, schedule)
            assert len(schedule) <= 3
            assert len(schedule) == burning_number_exact(g).k

    def test_every_small_connected_split_graph_is_optimal(self):
        import itertools

        from burnkit import components

        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                g = from_edge_list(n, edges)
                if len(components(g)) != 1:
                    continue
                sp = split_partition(g)
                if sp is None:
                    continue
                schedule = burn_split(g, sp)
                assert verify(g, schedule)
                assert len(schedule) == burning_number_exact(g).k

    def test_preferences_do_not_affect_validity(self):
        rng = random.Random(37)
        for _ in range(15):
            g, sp = random_split_graph(rng, rng.randint(1, 9), connected=False)
            schedule = burn_split(g, sp)
            assert verify(g, schedule)

    def test_disconnected_terminates(self):
        # clique, two attached vertices, three isolated ones
        edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]
        g = from_edge_list(8, edges)
        sp = SplitPartition(frozenset({0, 1, 2}), frozenset({3, 4, 5, 6, 7}))
        schedule = burn_split(g, sp)
        assert verify(g, schedule)


class TestBurnCograph:
    def test_single_vertex(self):
        assert burn_cograph(path_graph(1)) == [0]

    def test_join_of_two_pairs(self):
        g = from_edge_list(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        schedule = burn_cograph(g)
        assert len(schedule) == 2
        assert verify(g, schedule)

    def test_complement_construction_example(self):
        # complement of (C4 join-of-pairs, disjoint union with two vertices)
        base = from_edge_list(6, [(0, 2), (0, 3), (1, 2), (1, 3)])
        edges = [
            (u, v)
            for u in range(6)
            for v in range(u + 1, 6)
            if v not in base.adjacency[u]
        ]
        g = from_edge_list(6, edges)
        schedule = burn_cograph(g)
        assert len(schedule) <= 3
        assert verify(g, schedule)

    @pytest.mark.parametrize(
        "n, edges, expected",
        [
            # K3,3: every vertex misses two others, so no two-round schedule
            (6, [(a, b) for a in range(3) for b in range(3, 6)], [0, 2, 1]),
            # the join of 2K2 (0-1, 2-3) with 3K1 (4, 5, 6)
            (7, [(0, 1), (2, 3)] + [(a, b) for a in range(4) for b in range(4, 7)], [0, 1, 2]),
        ],
        ids=["K33", "2K2-join-3K1"],
    )
    def test_three_round_branch(self, n, edges, expected):
        g = from_edge_list(n, edges)
        schedule = burn_cograph(g)
        assert schedule == expected
        outcome = simulate(g, schedule)
        assert outcome.valid and outcome.complete
        assert burning_number_bruteforce(g).k == 3

    def test_random_connected_cographs(self):
        rng = random.Random(41)
        for _ in range(30):
            g = random_connected_cograph(rng, rng.randint(1, 12))
            schedule = burn_cograph(g)
            assert len(schedule) <= 3
            assert verify(g, schedule)

    def test_non_cograph_detected(self):
        with pytest.raises(NotBurnableIn3Error):
            burn_cograph(path_graph(9))


def _two_hubs_last(n):
    """K2 joined to n - 2 isolated vertices, the two hubs numbered last."""
    hubs = (n - 2, n - 1)
    return from_edge_list(n, [hubs] + [(v, h) for v in range(n - 2) for h in hubs])


@pytest.mark.parametrize(
    "build, sizes, run",
    [
        (
            lambda n: from_edge_list(n, []),
            (500, 2000),
            lambda G: burn_split(G, SplitPartition(frozenset(), frozenset(range(G.n)))),
        ),
        (_two_hubs_last, (250, 1000), burn_cograph),
    ],
    ids=["split-isolated", "cograph-hubs-last"],
)
def test_rows_are_read_a_bounded_number_of_times(build, sizes, run):
    """Four times the vertices read at most 4.5 times the adjacency rows.
    A ball around the whole burned set every round, or a list of n for
    every candidate hub, reads 16 times as many."""
    small, large = (row_reads(build(size), run) for size in sizes)
    assert large <= 4.5 * small


class TestSameSchedulesAsTheRescans:
    """The schedules, and refusals, of the whole-graph rescans in ``helpers``."""

    def test_split_schedules(self):
        rng = random.Random(97)
        cases = [(g, split_partition(g)) for g in atlas_and_random_graphs(rng, 100)]
        cases += [random_split_graph(rng, rng.randint(1, 14), connected=False) for _ in range(100)]
        for g, sp in cases:
            if sp is not None:
                assert outcome(burn_split, g, sp) == outcome(reference_burn_split, g, sp), g.edges()

    def test_cograph_schedules(self):
        rng = random.Random(101)
        graphs = atlas_and_random_graphs(rng, 100)
        graphs += [random_connected_cograph(rng, rng.randint(1, 14)) for _ in range(100)]
        for g in graphs:
            assert outcome(burn_cograph, g) == outcome(reference_burn_cograph, g), g.edges()


class TestBurnIntervalApprox:
    def test_path_shaped_interval_graph(self):
        intervals = IntervalSet.from_pairs([(i, i + 1) for i in range(9)])
        g = interval_graph(intervals)
        schedule = burn_interval_approx(g)
        assert len(schedule) == 3
        assert verify(g, schedule)

    def test_single_interval(self):
        g = interval_graph(IntervalSet.from_pairs([(0, 1)]))
        assert burn_interval_approx(g) == [0]

    def test_nine_interval_example(self):
        pairs = [
            (-4, -3), (-4, -3), (-3.5, -1.5), (-3.25, 0.25), (-2, -1),
            (0, 1), (0.75, 2.5), (2, 3), (2, 3),
        ]
        g = interval_graph(IntervalSet.from_pairs(pairs))
        schedule = burn_interval_approx(g)
        assert verify(g, schedule)
        assert len(schedule) <= burning_number_exact(g).k + 1

    def test_disconnected_rejected(self):
        g = interval_graph(IntervalSet.from_pairs([(0, 1), (5, 6)]))
        with pytest.raises(DisconnectedGraphError):
            burn_interval_approx(g)

    def test_within_one_of_optimal(self):
        rng = random.Random(43)
        checked = 0
        while checked < 25:
            g = interval_graph(
                IntervalSet.from_pairs(random_interval_pairs(rng, rng.randint(1, 10)))
            )
            from burnkit import components

            if len(components(g)) != 1:
                continue
            checked += 1
            schedule = burn_interval_approx(g)
            assert verify(g, schedule)
            assert len(schedule) - burning_number_exact(g).k in (0, 1)
