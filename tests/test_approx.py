import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from burnkit import (
    RejectedInputError,
    bfs_distances,
    burn_3approx,
    burning_number_exact,
    coverage,
    from_edge_list,
    next_fire_source,
    verify,
)
from burnkit.hardness import gen_dk_gadget, gen_ig_gadget, gen_pg_gadget, gen_spider, validate_d3p

from helpers import (
    complete_graph,
    path_graph,
    random_connected_graph,
    random_graph,
    random_tree,
    small_edge_lists,
)


def _reference_next(G, k, prefix):
    """Round k's source by exact ``Fraction`` ratios over a rebuilt burned set."""
    rows = [bfs_distances(G, x) for x in prefix]
    burned = set()
    for j, row in enumerate(rows, start=1):
        burned.update(v for v, d in enumerate(row) if d <= k - 1 - j)
    best_vertex = best_score = None
    for u in range(G.n):
        if u in burned:
            continue
        score = min(
            math.inf if row[u] == math.inf else Fraction(row[u], k - j + 1)
            for j, row in enumerate(rows, start=1)
        )
        if best_score is None or score > best_score:
            best_vertex, best_score = u, score
    if best_vertex is None:
        raise RejectedInputError("every vertex is already burned")
    return list(prefix) + [best_vertex]


def _reference_approx(G, x1):
    """(sequence, implied_lower, trace) of the greedy loop over ``coverage``."""
    sequence, trace = [x1], []
    while (covered := len(coverage(G, sequence))) < G.n:
        length = len(sequence)
        trace.append((length, G.n - covered, -(-length // 3) + 1))
        sequence = _reference_next(G, length + 1, sequence)
    k = len(sequence)
    return tuple(sequence), max(-(-k // 3), trace[-1][2] if trace else 1), tuple(trace)


def _reference_corpus(rng):
    """Sparse random graphs (often disconnected), trees and forests of trees."""
    for _ in range(80):
        n = rng.randint(1, 30)
        yield random_graph(rng, n, rng.uniform(0, 0.3))
    for _ in range(40):
        yield random_tree(rng, rng.randint(1, 30))
    for _ in range(30):
        a, b = random_tree(rng, rng.randint(1, 15)), random_tree(rng, rng.randint(1, 15))
        yield from_edge_list(
            a.n + b.n, a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]
        )


def _forest(rng, sizes):
    """Random trees of the given sizes on shuffled labels, one component each."""
    labels = list(range(sum(sizes)))
    rng.shuffle(labels)
    edges, offset = [], 0
    for size in sizes:
        edges += [(labels[u + offset], labels[v + offset]) for u, v in random_tree(rng, size).edges()]
        offset += size
    return from_edge_list(len(labels), edges)


def _named_inputs():
    inst = validate_d3p([4, 5, 6])
    rng = random.Random(99)
    return {
        "ig-gadget": gen_ig_gadget(inst).graph,
        "pg-gadget": gen_pg_gadget(inst)[1].graph,
        "dk-gadget": gen_dk_gadget(inst, 14)[1].graph,
        "path-200": path_graph(200),
        "SP(7,7)": gen_spider(7, 7),
        **{
            f"forest-{i}": _forest(rng, [rng.randint(1, 12) for _ in range(rng.randint(3, 6))])
            for i in range(8)
        },
    }


NAMED = _named_inputs()


class TestNextFireSource:
    def test_only_unburned_candidate(self):
        assert next_fire_source(complete_graph(2), 2, [0]) == [0, 1]

    def test_path_picks_far_end(self):
        assert next_fire_source(path_graph(9), 2, [0]) == [0, 8]

    def test_unreachable_dominates(self):
        g = from_edge_list(2, [])
        assert next_fire_source(g, 2, [0]) == [0, 1]

    def test_wrong_prefix_length_rejected(self):
        with pytest.raises(RejectedInputError):
            next_fire_source(path_graph(4), 3, [0])

    def test_everything_burned_rejected(self):
        with pytest.raises(RejectedInputError):
            next_fire_source(complete_graph(2), 3, [0, 1])

    @pytest.mark.parametrize("vertex", [-1, 9, 99])
    def test_prefix_vertex_out_of_range_rejected(self, vertex):
        with pytest.raises(RejectedInputError, match=f"prefix vertex {vertex} out of range"):
            next_fire_source(path_graph(9), 2, [vertex])


class TestAgainstReference:
    def test_burn_3approx_matches_reference(self):
        rng = random.Random(97)
        for g in _reference_corpus(rng):
            for x1 in sorted({0, g.n - 1, rng.randrange(g.n)}):
                result = burn_3approx(g, x1=x1)
                expected = _reference_approx(g, x1)
                assert (result.sequence, result.implied_lower, result.trace) == expected
                assert result.k == len(expected[0])

    def test_next_fire_source_matches_reference_on_every_prefix(self):
        rng = random.Random(98)
        for g in _reference_corpus(rng):
            sequence = list(burn_3approx(g, x1=rng.randrange(g.n)).sequence)
            scattered = [rng.randrange(g.n) for _ in range(rng.randint(1, 6))]
            for source in (sequence, scattered):
                for length in range(1, len(source) + 1):
                    prefix = source[:length]
                    try:
                        expected = _reference_next(g, length + 1, prefix)
                    except RejectedInputError:
                        with pytest.raises(RejectedInputError):
                            next_fire_source(g, length + 1, prefix)
                    else:
                        assert next_fire_source(g, length + 1, prefix) == expected

    @pytest.mark.parametrize("name", NAMED)
    def test_named_inputs_match_reference(self, name):
        g = NAMED[name]
        for x1 in sorted({0, g.n // 2, g.n - 1}):
            result = burn_3approx(g, x1=x1)
            assert (result.sequence, result.implied_lower, result.trace) == _reference_approx(g, x1)
        sequence = list(result.sequence)
        for length in range(1, len(sequence)):
            expected = _reference_next(g, length + 1, sequence[:length])
            assert next_fire_source(g, length + 1, sequence[:length]) == expected

    def test_long_path_matches_reference(self):
        g = path_graph(1000)
        result = burn_3approx(g)
        assert (result.sequence, result.implied_lower, result.trace) == _reference_approx(g, 0)

    @given(small_edge_lists)
    @settings(max_examples=100, deadline=None)
    def test_small_graphs_match_reference_from_every_start(self, case):
        n, edges = case
        g = from_edge_list(n, edges)
        for x1 in range(n):
            result = burn_3approx(g, x1=x1)
            assert (result.sequence, result.implied_lower, result.trace) == _reference_approx(g, x1)


class TestBurnThreeApprox:
    def test_single_vertex(self):
        result = burn_3approx(path_graph(1))
        assert result.k == 1 and result.implied_lower == 1

    def test_path_of_nine(self):
        result = burn_3approx(path_graph(9))
        assert verify(path_graph(9), result.sequence)
        assert result.k <= 9
        assert result.k <= 3 * 3  # optimum is three

    def test_custom_start(self):
        result = burn_3approx(path_graph(9), x1=4)
        assert result.sequence[0] == 4
        assert verify(path_graph(9), result.sequence)

    def test_trace_is_strictly_shrinking(self):
        rng = random.Random(51)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 12), rng.random())
            result = burn_3approx(g)
            uncovered = [entry[1] for entry in result.trace]
            assert all(a > b for a, b in zip(uncovered, uncovered[1:]))
            assert verify(g, result.sequence)

    def test_ratio_and_lower_bound_on_random_corpus(self):
        rng = random.Random(53)
        for _ in range(60):
            n = rng.randint(1, 9)
            g = random_connected_graph(rng, n, max(rng.random(), 0.25))
            exact_k = burning_number_exact(g).k
            result = burn_3approx(g)
            assert verify(g, result.sequence)
            assert result.k <= 3 * exact_k
            assert result.implied_lower <= exact_k

    def test_disconnected_components_get_seeded(self):
        g = from_edge_list(6, [(0, 1), (2, 3)])
        result = burn_3approx(g)
        assert verify(g, result.sequence)
        touched = set(result.sequence)
        assert touched & {4}, "isolated vertices must become sources"

    def test_ratio_on_named_families(self):
        from burnkit.hardness import gen_spider

        for g, optimum in ((gen_spider(3, 4), 4), (gen_spider(4, 4), 5)):
            result = burn_3approx(g)
            assert verify(g, result.sequence)
            assert result.k <= 3 * optimum
            assert result.implied_lower <= optimum
        for n in range(1, 26):
            g = path_graph(n)
            optimum = burning_number_exact(g).k
            result = burn_3approx(g)
            assert result.k <= 3 * optimum
            assert result.implied_lower <= optimum
