import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit import (
    InvalidSequenceError,
    RejectedInputError,
    bfs_distances,
    burn_path,
    clusters,
    coverage,
    covers_all,
    from_edge_list,
    simulate,
    verify,
)

from helpers import (
    all_optimal_sequences,
    fig_example_graph,
    grid_graph,
    path_graph,
    random_graph,
    reference_closed_form,
    row_reads,
    P, Q, R, S, T, U, V, W,
)


class TestSimulate:
    def test_four_round_run(self):
        out = simulate(fig_example_graph(), (R, Q, S, W))
        assert out.valid and out.complete
        schedule = out.schedule
        assert schedule.burn_step[R] == 1 and schedule.labels[R] == "a"
        assert schedule.burn_step[P] == 2 and schedule.labels[P] == "b"
        assert schedule.burn_step[T] == 3 and schedule.labels[T] == "b"
        assert schedule.burn_step[U] == 4 and schedule.labels[U] == "b"
        assert schedule.burn_step[W] == 4 and schedule.labels[W] == "a"

    def test_three_round_run(self):
        out = simulate(fig_example_graph(), (Q, V, U))
        assert out.valid and out.complete
        assert out.schedule.labels[V] == "a"
        assert out.schedule.burn_step[W] == 3

    def test_repeated_vertex_is_invalid(self):
        out = simulate(path_graph(4), (1, 1))
        assert not out.valid
        assert out.first_violation[0] == 2

    def test_source_in_spread_zone_is_legal(self):
        # the round-2 source may sit next to the round-1 source
        out = simulate(path_graph(3), (0, 1))
        assert out.valid
        assert out.schedule.labels[1] == "a"

    def test_empty_sequence_rejected(self):
        with pytest.raises(RejectedInputError):
            simulate(path_graph(2), ())

    def test_out_of_range_rejected(self):
        with pytest.raises(RejectedInputError):
            simulate(path_graph(2), (5,))


class TestVerify:
    def test_example_graph_optimal(self):
        assert verify(fig_example_graph(), (Q, V, U))

    def test_single_source_incomplete(self):
        assert not verify(fig_example_graph(), (Q,))

    def test_path_of_nine(self):
        assert verify(path_graph(9), (2, 6, 8))

    def test_source_on_burned_vertex_fails(self):
        # round 3 places on a vertex burned by round-1 spread
        assert not verify(path_graph(9), (2, 6, 3))
        assert not simulate(path_graph(9), (2, 6, 3)).valid


@st.composite
def graph_and_sequence(draw):
    n = draw(st.integers(1, 10))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n
        )
    )
    edges = [(u, v) for u, v in pairs if u != v]
    sequence = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    return from_edge_list(n, edges), sequence


class TestAgreementWithSimulation:
    @given(graph_and_sequence())
    @settings(max_examples=120, deadline=None)
    def test_verify_iff_valid_and_complete(self, case):
        g, sequence = case
        outcome = simulate(g, sequence)
        legal, covered = reference_closed_form(g, sequence)
        complete = len(covered) == g.n
        assert (outcome.valid, outcome.complete) == (legal, complete)
        assert coverage(g, sequence) == covered
        assert covers_all(g, sequence) == complete
        assert verify(g, sequence) == (legal and complete)
        # the round of every vertex is its earliest arrival i+1+d(x_i, v)
        # over the balls that reach it, from full-row distances
        k = len(sequence)
        rows = [bfs_distances(g, x) for x in sequence]
        steps = outcome.schedule.burn_step
        labels = outcome.schedule.labels
        for v in range(g.n):
            arrivals = [i + 1 + row[v] for i, row in enumerate(rows) if row[v] <= k - i - 1]
            assert steps[v] == (min(arrivals) if arrivals else None)
            ignited = any(x == v and steps[v] == i + 1 for i, x in enumerate(sequence))
            assert (labels[v] == "a") == ignited
            assert (labels[v] is None) == (steps[v] is None)

    def test_fuzzed_closed_form_and_equivalence(self):
        rng = random.Random(2024)
        for _ in range(300):
            n = rng.randint(1, 15)
            g = random_graph(rng, n, rng.random())
            k = rng.randint(1, min(n, 6))
            seq = rng.sample(range(n), k) if rng.random() < 0.8 else [
                rng.randrange(n) for _ in range(k)
            ]
            legal, covered = reference_closed_form(g, seq)
            assert coverage(g, seq) == covered
            assert verify(g, seq) == (legal and len(covered) == g.n)


@pytest.mark.parametrize("check", [verify, coverage, covers_all], ids=["verify", "coverage", "covers_all"])
@pytest.mark.parametrize(
    "build, sizes, sources",
    [
        (lambda a: grid_graph(a, a), (20, 40), lambda G: range(0, G.n, math.isqrt(G.n))),
        (path_graph, (2500, 10000), lambda G: burn_path(range(G.n))),
    ],
    ids=["grid-one-source-per-row", "path-optimum"],
)
def test_checks_run_the_process_once(check, build, sizes, sources, bfs_runs):
    """The checks read the one simulation: no BFS, and each row read at most
    once, as its vertex joins the last round's new vertices, so at most n
    rows, and four times the vertices read at most 4.5 times the rows.  One
    bounded BFS per source read 1,855 and 15,410 rows on the grids."""
    rows = []
    for size in sizes:
        g = build(size)
        assert bfs_runs(lambda g: rows.append(row_reads(g, check, sources(g))), g) == 0
        assert rows[-1] <= g.n, rows
    assert rows[1] <= 4.5 * rows[0], rows


class TestClusters:
    def test_singleton(self):
        assert clusters(path_graph(1), (0,)) == [frozenset({0})]

    def test_path_of_nine_disjoint(self):
        balls = clusters(path_graph(9), (2, 6, 8))
        assert sorted(len(b) for b in balls) == [1, 3, 5]
        assert len(frozenset.union(*balls)) == 9

    def test_example_graph_union_covers(self):
        balls = clusters(fig_example_graph(), (Q, V, U))
        assert frozenset.union(*balls) == frozenset(range(8))

    def test_invalid_sequence_rejected(self):
        with pytest.raises(InvalidSequenceError):
            clusters(path_graph(9), (2,))


class TestOptimalPathClusterDisjointness:
    @pytest.mark.parametrize("t", [2, 3])
    def test_square_paths(self, t):
        g = path_graph(t * t)
        optima = all_optimal_sequences(g, t)
        assert optima  # the square-law length is achievable
        assert not all_optimal_sequences(g, t - 1)
        for seq in optima:
            balls = clusters(g, seq)
            for a, b in itertools.combinations(balls, 2):
                assert not (a & b)
