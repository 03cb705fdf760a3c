import itertools

import pytest

from burnkit import (
    BudgetError,
    PermutationPair,
    RejectedInputError,
    bfs_distances,
    burning_number_exact,
    check_d3p_solution,
    components,
    diameter_path,
    from_edge_list,
    gen_dk_gadget,
    gen_ig_gadget,
    gen_pg_gadget,
    gen_spider,
    gen_spider_forest,
    interval_graph,
    lower_bound,
    permutation_graph,
    solve_d3p_bruteforce,
    validate_d3p,
    verify,
)
from burnkit import hardness
from burnkit.hardness import _permutation_block

DESK_X = [4, 5, 6]
FULL_X = [10, 11, 12, 14, 15, 16]


def reference_permutation_block(x: int, y: int) -> list[int]:
    """An even/odd statement of the path blocks, kept to check the one-rule form."""
    t = y - x + 1
    if t == 1:
        return [x]
    if t == 4:
        return [x + 1, y, x, x + 2]
    out = [0] * t
    if t % 2 == 0:
        for i in range(1, t - 2, 2):
            out[i - 1] = 2 + (x + i - 1)
        out[t - 2] = y
        for i in range(4, t + 1, 2):
            out[i - 1] = (x + i - 1) - 2
        out[1] = x
    else:
        for i in range(1, t - 1, 2):
            out[i - 1] = 2 + (x + i - 1)
        out[t - 1] = y - 1
        for i in range(4, t, 2):
            out[i - 1] = (x + i - 1) - 2
        out[1] = x
    return out


class TestValidateD3p:
    def test_full_instance_parameters(self):
        inst = validate_d3p(FULL_X)
        assert (inst.n, inst.m, inst.b, inst.k) == (2, 16, 39, 10)
        assert inst.b_prime == 75
        assert inst.x_prime == (19, 21, 23, 27, 29, 31)
        assert inst.y == (1, 3, 5, 7, 9, 11, 13, 15, 17, 25)

    def test_desk_instance_parameters(self):
        inst = validate_d3p(DESK_X)
        assert (inst.n, inst.m, inst.b, inst.k) == (1, 6, 15, 3)
        assert inst.b_prime == 27
        assert inst.x_prime == (7, 9, 11)
        assert inst.y == (1, 3, 5)
        assert sum(inst.first_odds) == inst.m**2

    def test_range_violation_rejected(self):
        with pytest.raises(RejectedInputError, match="between"):
            validate_d3p([3, 4, 5])

    def test_duplicates_rejected(self):
        with pytest.raises(RejectedInputError, match="distinct"):
            validate_d3p([5, 5, 6])

    def test_bad_sum_rejected(self):
        with pytest.raises(RejectedInputError, match="divisible"):
            validate_d3p([10, 11, 12, 13, 15, 16])


class TestSolutions:
    def test_trivial_check(self):
        inst = validate_d3p(DESK_X)
        assert check_d3p_solution(inst, [(4, 5, 6)])

    def test_full_instance_check(self):
        inst = validate_d3p(FULL_X)
        assert check_d3p_solution(inst, [(10, 14, 15), (11, 12, 16)])
        assert not check_d3p_solution(inst, [(10, 11, 12), (14, 15, 16)])

    def test_bruteforce_solver(self):
        inst = validate_d3p(FULL_X)
        solution = solve_d3p_bruteforce(inst)
        assert solution is not None
        assert check_d3p_solution(inst, solution)

    def test_bruteforce_cap(self):
        inst = validate_d3p(FULL_X)
        with pytest.raises(BudgetError, match="cap"):
            solve_d3p_bruteforce(inst, cap=3)

    def test_unsolvable_instance_returns_none(self):
        found = None
        for b in range(9, 200, 3):
            low = b // 4 + 1
            high = (b - 1) // 2
            pool = range(low, high + 1)
            for combo in itertools.combinations(pool, 6):
                if sum(combo) != 2 * b:
                    continue
                solvable = any(
                    sum(t) == b and sum(set(combo) - set(t)) == b
                    for t in itertools.combinations(combo, 3)
                )
                if not solvable:
                    found = combo
                    break
            if found:
                break
        assert found is not None
        inst = validate_d3p(found)
        assert solve_d3p_bruteforce(inst) is None


class TestSpiders:
    def test_vertex_count_and_head_degree(self):
        g = gen_spider(3, 4)
        assert g.n == 13
        assert g.degree(0) == 3

    def test_arms_of_length_zero_cost_nothing(self):
        assert gen_spider(10**30, 0).n == 1
        assert gen_spider_forest([10**30]).n == 1

    def test_balanced_spiders_burning_number(self):
        for r in (1, 2, 3):
            assert burning_number_exact(gen_spider(r, r)).k == r + 1

    def test_forest_single_component(self):
        g = gen_spider_forest([2])
        assert g.n == 1
        assert burning_number_exact(g).k == 1

    def test_forest_of_three(self):
        g = gen_spider_forest([2, 3, 4])
        assert len(components(g)) == 3
        assert burning_number_exact(g).k == 3

    def test_forest_arm_requirement(self):
        with pytest.raises(RejectedInputError):
            gen_spider_forest([2, 2])


def _planned_caterpillar(inst):
    """The ig gadget's tree from its plan alone, without its intervals.

    The spine runs through the plan's segments in order: a Q block of order
    2b-3 and a comb, for each of the n triples; a Q' block of the next
    leftover odd order and a comb, k times; then the remaining combs.  Comb
    j has order 2(2m+1-j)+1, and each interior comb vertex gets one pendant,
    numbered after the spine in plan order.
    """
    n, m, k = inst.n, inst.m, inst.k
    orders = []  # (order, is a comb) along the spine
    for i in range(1, n + 1):
        orders += [(inst.b_prime, False), (2 * (2 * m + 1 - i) + 1, True)]
    for j in range(1, k + 1):
        orders += [(inst.y_descending[j - 1], False), (2 * (2 * m + 1 - n - j) + 1, True)]
    orders += [(2 * (2 * m + 1 - j) + 1, True) for j in range(n + k + 1, m + 2)]
    spine = sum(order for order, _ in orders)
    assert spine == (2 * m + 1) ** 2
    edges = [(v, v + 1) for v in range(spine - 1)]
    start = 0
    pendant = spine
    for order, comb in orders:
        if comb:
            for anchor in range(start + 1, start + order - 1):
                edges.append((anchor, pendant))
                pendant += 1
        start += order
    return from_edge_list(pendant, edges)


class TestIgGadget:
    def test_desk_scale_certificate(self):
        inst = validate_d3p(DESK_X)
        cert = gen_ig_gadget(inst, [(4, 5, 6)])
        g = cert.graph
        assert g.n == 288
        assert len(cert.spine) == 169
        assert cert.claimed_k == 13
        assert g.edge_count == g.n - 1 and len(components(g)) == 1  # tree
        assert len(cert.canonical_sequence) == 13
        assert verify(g, cert.canonical_sequence)

    def test_desk_scale_spine_is_isometric_diameter(self):
        cert = gen_ig_gadget(validate_d3p(DESK_X), None)
        spine = cert.spine
        dist = bfs_distances(cert.graph, spine[0])
        assert [dist[v] for v in spine] == list(range(len(spine)))
        assert len(diameter_path(cert.graph)) == len(spine)

    def test_off_spine_vertices_hang_off_the_spine(self):
        cert = gen_ig_gadget(validate_d3p(DESK_X), None)
        spine = set(cert.spine)
        for v in range(cert.graph.n):
            if v not in spine:
                assert cert.graph.degree(v) == 1
                assert all(u in spine for u in cert.graph.adjacency[v])

    def test_lower_bound_matches_square_of_spine(self):
        cert = gen_ig_gadget(validate_d3p(DESK_X), None)
        assert lower_bound(cert.graph) == 13
        assert cert.canonical_sequence is None

    def test_interval_representation_round_trips(self):
        cert = gen_ig_gadget(validate_d3p(DESK_X), [(4, 5, 6)])
        assert interval_graph(cert.intervals) == cert.graph

    def test_full_scale_certificate(self):
        inst = validate_d3p(FULL_X)
        cert = gen_ig_gadget(inst, [(10, 14, 15), (11, 12, 16)])
        assert cert.graph.n == 7 * 16 * 16 + 6 * 16 == 1888
        assert len(cert.spine) == 33 * 33
        assert cert.claimed_k == 33
        assert verify(cert.graph, cert.canonical_sequence)

    @pytest.mark.parametrize("x", [DESK_X, FULL_X, [5, 6, 8]])
    def test_graph_is_the_planned_caterpillar(self, x):
        inst = validate_d3p(x)
        cert = gen_ig_gadget(inst)
        assert cert.graph == _planned_caterpillar(inst)

    def test_comb_structure(self):
        inst = validate_d3p(DESK_X)
        cert = gen_ig_gadget(inst)
        for label, pendants in cert.combs.items():
            segment = next(s.vertices for s in cert.decomposition if s.label == label)
            assert len(pendants) == len(segment) - 2

    def test_bad_solution_rejected(self):
        inst = validate_d3p(FULL_X)
        with pytest.raises(RejectedInputError):
            gen_ig_gadget(inst, [(10, 11, 12), (14, 15, 16)])


class TestPgGadget:
    def test_desk_scale(self):
        inst = validate_d3p(DESK_X)
        pp, cert = gen_pg_gadget(inst, [(4, 5, 6)])
        orders = [len(s.vertices) for s in cert.decomposition]
        assert orders == [27, 5, 3, 1]
        assert cert.graph.n == 36 == inst.m**2
        assert cert.claimed_k == 6
        assert verify(cert.graph, cert.canonical_sequence)

    def test_full_scale_orders(self):
        inst = validate_d3p(FULL_X)
        pp, cert = gen_pg_gadget(inst, [(10, 14, 15), (11, 12, 16)])
        orders = [len(s.vertices) for s in cert.decomposition]
        assert orders == [75, 75, 25, 17, 15, 13, 11, 9, 7, 5, 3, 1]
        assert cert.claimed_k == 16
        assert verify(cert.graph, cert.canonical_sequence)

    def test_blocks_partition_the_vertices_with_no_cross_edges(self):
        inst = validate_d3p(FULL_X)
        pp, cert = gen_pg_gadget(inst)
        seen = sorted(v for s in cert.decomposition for v in s.vertices)
        assert seen == list(range(cert.graph.n))
        owner = {}
        for s in cert.decomposition:
            for v in s.vertices:
                owner[v] = s.label
        for u, v in cert.graph.edges():
            assert owner[u] == owner[v]

    def test_four_block_even_odd_example(self):
        expected = (
            3, 1, 5, 2, 7, 4, 9, 6, 8,
            12, 10, 14, 11, 16, 13, 17, 15,
            20, 18, 22, 19, 24, 21, 26, 23, 25,
            29, 27, 31, 28, 33, 30, 34, 32,
        )
        built = []
        for x, y in ((1, 9), (10, 17), (18, 26), (27, 34)):
            built.extend(_permutation_block(x, y))
        assert tuple(built) == expected
        g = permutation_graph(PermutationPair(expected))
        comps = components(g)
        sizes = sorted(len(c) for c in comps)
        assert sizes == [8, 8, 9, 9]
        for comp in comps:
            degrees = sorted(g.degree(v) for v in comp)
            assert degrees[:2] == [1, 1] and all(d == 2 for d in degrees[2:])

    def test_blocks_match_reference(self):
        for x in range(1, 41):
            for t in range(1, 61):
                y = x + t - 1
                assert _permutation_block(x, y) == reference_permutation_block(x, y), (x, t)

    def test_small_blocks(self):
        for x, y in ((5, 5), (5, 6), (5, 7), (5, 8), (5, 9), (5, 10)):
            block = _permutation_block(x, y)
            assert sorted(block) == list(range(x, y + 1))
            offset = [value - x + 1 for value in block]
            g = permutation_graph(PermutationPair(tuple(offset)))
            if g.n == 1:
                continue
            degrees = sorted(g.degree(v) for v in range(g.n))
            assert degrees[:2] == [1, 1] and all(d == 2 for d in degrees[2:])
            assert len(components(g)) == 1


class TestDkGadget:
    def test_desk_scale(self):
        inst = validate_d3p(DESK_X)
        arrangement, cert = gen_dk_gadget(inst, 14, [(4, 5, 6)])
        assert cert.graph.n == 1 + 14 * 6 + 36 == 121
        assert cert.claimed_k == 7
        assert len(cert.canonical_sequence) == 7
        assert verify(cert.graph, cert.canonical_sequence)
        assert cert.canonical_sequence[0] == cert.name_table["h"]

    def test_q_out_of_range(self):
        inst = validate_d3p(DESK_X)
        with pytest.raises(RejectedInputError):
            gen_dk_gadget(inst, 13)
        with pytest.raises(RejectedInputError):
            gen_dk_gadget(inst, 16)

    def test_full_scale_spider_core(self):
        inst = validate_d3p(FULL_X)
        arrangement, cert = gen_dk_gadget(inst, 34, [(10, 14, 15), (11, 12, 16)])
        g = cert.graph
        assert cert.params["hub_radius"] == "21/2"
        assert g.n == 1 + 34 * 16 + 256
        assert g.degree(cert.name_table["h"]) == 34
        # head reaches ring and chains within m hops: the SP(34,16) core
        dist = bfs_distances(g, cert.name_table["h"])
        core = sum(1 for v in range(g.n) if dist[v] <= 16)
        assert core == 1 + 34 * 16
        assert cert.claimed_k == 17
        assert verify(g, cert.canonical_sequence)

    def test_attached_paths_have_forest_orders(self):
        inst = validate_d3p(DESK_X)
        _, cert = gen_dk_gadget(inst, 14)
        orders = [len(s.vertices) for s in cert.decomposition]
        assert orders == [27, 5, 3, 1]

    def test_desk_scale_lower_bound_by_exhaustive_search(self):
        from burnkit.exact import _Cover

        inst = validate_d3p(DESK_X)
        _, cert = gen_dk_gadget(inst, 14, [(4, 5, 6)])
        # no cover by balls of radii 5, ..., 0: six rounds can never finish
        assert _Cover(cert.graph, None).covers(6) is None


class TestVertexCounts:
    """The counts ``gen`` checks against the vertex cap before it builds."""

    def test_spiders(self):
        for s, r in [(1, 0), (3, 4), (5, 2)]:
            assert gen_spider(s, r).n == hardness._spider_order(s, r)
        for degrees in ([2], [2, 3, 4], [5, 3, 6]):
            assert gen_spider_forest(degrees).n == hardness._spider_forest_order(degrees)

    @pytest.mark.parametrize("x", [DESK_X, [5, 6, 8], FULL_X], ids=str)
    def test_gadgets(self, x):
        inst = validate_d3p(x)
        m, p = inst.m, inst.m - 1
        assert gen_ig_gadget(inst).graph.n == hardness._ig_order(m)
        assert gen_pg_gadget(inst)[1].graph.n == hardness._pg_order(m)
        for q in (2 * (p + 2), 3 * p):  # both ends of the feasible ring sizes
            assert gen_dk_gadget(inst, q)[1].graph.n == hardness._dk_order(m, q)
