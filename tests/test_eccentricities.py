"""Bounded eccentricities behind ``diameter_path`` and ``upper_bound_radius``.

The all-BFS ``helpers.eccentricities`` and networkx are the oracles.  The
work contract counts the runs of the one kernel, ``_bfs``, and the vertices
they reach: on paths, grids and interval gadgets the bounds close after a
constant number of BFS runs, whatever n, exact search spends no n² work
before its node budget and grows each radius of its ball table once a call,
the table needs no traversal at all, on forests the search builds no table
and only the balls it uses, and approx3 runs one bounded traversal per
source.  Both bounds sweep every tree component at once, in two runs, and
the radius bound needs none on cycles and runs every other component on its
own rows.  The graph builders check each graph once, without ``Graph``'s row
check.  Every ``burn`` walks its components once and computes its bounds
through ``exact``'s public names.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings

from burnkit import (
    DiskArrangement,
    DisconnectedGraphError,
    IntervalSet,
    NodeBudgetError,
    burn_3approx,
    burning_number_exact,
    components,
    diameter_path,
    disk_graph,
    from_edge_list,
    interval_graph,
    next_fire_source,
    permutation_graph,
    upper_bound_radius,
)
from burnkit import cli, exact, graph
from burnkit.formats import format_edge_list, parse_edge_list
from burnkit.graph import _bfs, _EccentricityBounds, _rows
from burnkit.hardness import gen_ig_gadget, gen_pg_gadget, gen_spider, gen_spider_forest, validate_d3p

from helpers import (
    chorded_spider,
    complete_graph,
    cycle_graph,
    eccentricities,
    grid_graph,
    hypercube_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_graph,
    random_tree,
    small_edge_lists,
)

DIAMETER_RUNS = 8
"""BFS runs of ``diameter_path`` on paths, grids and ig gadgets: at most six
that bound eccentricities (the first from vertex 0), one from the source and
one from the target."""
RADIUS_RUNS = 4
"""BFS runs of ``upper_bound_radius`` on paths, grids and ig gadgets; a path
takes the two of the tree sweep."""


def _families() -> dict:
    rng = random.Random(53)
    return {
        "random-connected": [
            random_connected_graph(rng, rng.randint(1, 30), rng.uniform(0.05, 0.5)) for _ in range(60)
        ],
        "random-sparse": [random_graph(rng, rng.randint(1, 30), rng.uniform(0.0, 0.15)) for _ in range(60)],
        "trees": [random_tree(rng, rng.randint(1, 60)) for _ in range(40)]
        + [gen_spider(4, 5), gen_spider_forest([2, 3, 4])],
        "cycles": [cycle_graph(n) for n in range(3, 30)],
        "complete": [complete_graph(n) for n in range(1, 12)],
        "regular": [petersen_graph()] + [hypercube_graph(dim) for dim in range(7)],
        "grids": [path_graph(n) for n in (1, 2, 3, 10, 57)]
        + [grid_graph(r, c) for r, c in ((2, 2), (3, 7), (6, 6), (5, 11))],
        "ig-gadget": [gen_ig_gadget(validate_d3p([4, 5, 6])).graph],
    }


FAMILIES = _families()


def _connected(g) -> bool:
    return len(components(g)) == 1


def _expected_diameter_path_ends(g) -> tuple[int, int, int]:
    """(source, target, D) by the contract, from the all-BFS oracle."""
    ecc = eccentricities(g)
    best = max(ecc)
    source = ecc.index(best)
    return source, _bfs(g.adjacency, (source,))[0].index(best), best


def _expected_radius_bound(g) -> int:
    ecc = eccentricities(g)
    comps = components(g)
    return max((min(ecc[v] for v in comp) for comp in comps), default=0) + len(comps)


@pytest.mark.parametrize("family", FAMILIES)
def test_bounds_bracket_every_eccentricity(family):
    rng = random.Random(family)
    for g in FAMILIES[family]:
        ecc = eccentricities(g)
        for comp in components(g):
            members = sorted(comp)
            bounds = _EccentricityBounds(_rows(g.adjacency, members))
            for _ in range(min(len(members), 8)):
                bounds.probe(rng.randrange(len(members)))
                for i, v in enumerate(members):
                    assert bounds.lower[i] <= ecc[v] <= bounds.upper[i], (g.edges(), v)


@pytest.mark.parametrize("family", FAMILIES)
def test_diameter_source_matches_oracle(family):
    for g in FAMILIES[family]:
        if g.n == 0 or not _connected(g):
            with pytest.raises(DisconnectedGraphError):
                diameter_path(g)
            continue
        source, target, best = _expected_diameter_path_ends(g)
        path = diameter_path(g)
        assert (path[0], path[-1], len(path) - 1) == (source, target, best), g.edges()


@pytest.mark.parametrize("family", FAMILIES)
def test_radius_bound_matches_oracle(family):
    for g in FAMILIES[family]:
        assert upper_bound_radius(g) == _expected_radius_bound(g), g.edges()


@pytest.mark.parametrize("family", FAMILIES)
def test_matches_networkx(family):
    nx = pytest.importorskip("networkx")
    for g in FAMILIES[family]:
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.n))
        parts = [h.subgraph(c) for c in nx.connected_components(h)]
        assert upper_bound_radius(g) == max((nx.radius(c) for c in parts), default=0) + len(parts)
        if len(parts) == 1:
            ecc = nx.eccentricity(h)
            diameter = nx.diameter(h)
            path = diameter_path(g)
            assert len(path) - 1 == diameter
            assert path[0] == min(v for v in range(g.n) if ecc[v] == diameter)


@given(small_edge_lists)
@settings(max_examples=150, deadline=None)
def test_small_graphs_match_oracle(case):
    n, edges = case
    g = from_edge_list(n, edges)
    assert upper_bound_radius(g) == _expected_radius_bound(g)
    if _connected(g):
        source, target, best = _expected_diameter_path_ends(g)
        path = diameter_path(g)
        assert (path[0], path[-1], len(path) - 1) == (source, target, best)


# -- work contract -------------------------------------------------------------


SCALED = {
    # each family at about n and 4n vertices
    "path": [path_graph(250), path_graph(1000)],
    "grid": [grid_graph(10, 10), grid_graph(20, 20), grid_graph(10, 40), grid_graph(20, 80)],
    "ig-gadget": [gen_ig_gadget(validate_d3p(x)).graph for x in ([4, 5, 6], [7, 8, 12], [8, 9, 13])],
}


@pytest.mark.parametrize("family", SCALED)
def test_constant_bfs_runs_on_paths_grids_and_gadgets(family, bfs_runs):
    for g in SCALED[family]:
        assert bfs_runs(diameter_path, g) <= DIAMETER_RUNS, g.n
        assert bfs_runs(upper_bound_radius, g) <= RADIUS_RUNS, g.n


@pytest.mark.parametrize("family", ["path", "grid", "ig-gadget"])
def test_diameter_path_computes_no_source_row_twice(family, bfs_runs):
    for g in SCALED[family]:
        bfs_runs(diameter_path, g)
        assert len(set(bfs_runs.sources)) == len(bfs_runs.sources), (g.n, bfs_runs.sources)


@pytest.mark.parametrize("g", SCALED["path"] + SCALED["ig-gadget"], ids=lambda g: str(g.n))
def test_approx3_makes_one_bfs_per_source(g, bfs_runs):
    results = []
    assert bfs_runs(lambda g: results.append(burn_3approx(g)), g) == results[0].k
    assert bfs_runs.sources == list(results[0].sequence)
    # each source's traversal stops at the last distance that can change a
    # record; a full BFS per source would reach k * n vertices
    assert bfs_runs.reached <= 0.4 * results[0].k * g.n, (bfs_runs.reached, results[0].k)
    prefix = list(results[0].sequence[:-1])
    assert bfs_runs(lambda g: next_fire_source(g, len(prefix) + 1, prefix), g) == len(prefix)


def test_approx3_traversal_radius_counts_live_vertices_only(bfs_runs):
    # P8 places (0, 7, 4, 3); before the last source only 3 and 5 are live,
    # each with its last record at distance 1, so the last traversal has
    # radius 0.  Burned 2 keeps its last record at distance 2, which would
    # set radius 1 and reach 3 vertices.
    results = []
    assert bfs_runs(lambda g: results.append(burn_3approx(g)), path_graph(8)) == 4
    assert results[0].sequence == (0, 7, 4, 3)
    assert bfs_runs.sizes == [8, 7, 5, 1] and bfs_runs.reached == 21


def _exact_at_budget_zero(g):
    with pytest.raises(NodeBudgetError):
        burning_number_exact(g, node_budget=0)


def test_exact_search_spends_no_quadratic_work_before_the_budget(bfs_runs):
    # the lower bound's double sweep and the radius bound's two runs; no BFS per vertex
    n_runs = bfs_runs(_exact_at_budget_zero, path_graph(250))
    n_ball = bfs_runs.ball_vertices
    assert n_runs <= 4
    assert bfs_runs(_exact_at_budget_zero, path_graph(1000)) <= 4
    # a budget of 0 enters no node, so it builds no ball table and no refuter
    assert n_ball == bfs_runs.ball_vertices == 0


LOWER_BOUND_RUNS = {
    # the graph, and the most runs its lower bound may make
    "isolated-50": (from_edge_list(50, []), 0),
    "spider-forest": (gen_spider_forest([2, 3, 4, 5]), 2),
    "pg-gadget": (permutation_graph(gen_pg_gadget(validate_d3p([4, 5, 6]))[0]), 2),
    "two-cycles": (from_edge_list(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]), 0),
}


@pytest.mark.parametrize("name", LOWER_BOUND_RUNS)
def test_lower_bound_sweeps_every_tree_at_once(name, bfs_runs):
    # one double sweep from a source in every tree component, not one per
    # tree, and none when no component is a tree of two or more vertices
    g, most = LOWER_BOUND_RUNS[name]
    assert bfs_runs(exact.lower_bound, g) <= most, bfs_runs.sources


@pytest.fixture
def table_rows(monkeypatch):
    """Records each call of ``exact._grown``, which builds one radius of a
    ball table, as ``(row it grew from, row it built)``."""
    rows = []
    grown = exact._grown

    def recording(adjacency, ball):
        row = grown(adjacency, ball)
        rows.append((ball, row))
        return row

    monkeypatch.setattr(exact, "_grown", recording)
    return rows


TABLE_GRAPHS = {
    # non-forests that the search deepens from well below the optimum
    "grid-10x10": grid_graph(10, 10),
    "grid-12x12": grid_graph(12, 12),
    "spider-7-7-chord": chorded_spider(7, 7),
    "petersen": petersen_graph(),
}


@pytest.mark.parametrize("name", TABLE_GRAPHS)
def test_exact_search_grows_each_table_radius_once(name, table_rows):
    # one table for the whole call, each row grown from the one before when
    # a deeper k asks for it; a table rebuilt per depth would build rows
    # again for every depth from the lower bound
    g = TABLE_GRAPHS[name]
    result = burning_number_exact(g, node_budget=5000)
    assert exact.lower_bound(g) < result.k
    assert len(table_rows) == 2 * result.k - 2
    for (_, built), (grown_from, _) in zip(table_rows, table_rows[1:]):
        assert grown_from is built


@pytest.mark.parametrize("g", [path_graph(2000), gen_spider(7, 7)], ids=["path-2000", "spider-7-7"])
def test_forest_search_builds_no_table(g, table_rows):
    burning_number_exact(g)
    assert table_rows == []


def _refute_to_the_optimum(g) -> exact._Cover:
    """The engine's search: every depth from the lower bound to the first it
    does not refute."""
    cover = exact._Cover(g, None)
    k = exact.lower_bound(g)
    while cover.covers(k) is None:
        k += 1
    return cover


REFUTER_SCALED = {
    # each family at about n and 4n vertices
    "path": (path_graph(250), path_graph(1000)),
    "spider-4": (gen_spider(6, 4), gen_spider(24, 4)),
    "spider-5": (gen_spider(5, 5), gen_spider(20, 5)),
}


@pytest.mark.parametrize("family", REFUTER_SCALED)
def test_forest_refuter_builds_only_the_balls_it_uses(family, bfs_runs):
    # a ball mask is one sparse _ball, built when first used: no table of
    # every vertex's balls, which would grow 16x from n to 4n
    work = []
    for g in REFUTER_SCALED[family]:
        covers = []
        bfs_runs(lambda g: covers.append(_refute_to_the_optimum(g)), g)
        work.append((bfs_runs.ball_vertices, len(covers[0].masks)))
    (small_ball, small_masks), (large_ball, large_masks) = work
    assert large_ball <= 10 * small_ball, work
    assert large_masks <= 10 * small_masks, work


@pytest.mark.parametrize("g", SCALED["grid"], ids=["10x10", "20x20", "10x40", "20x80"])
def test_ball_table_grows_without_traversals(g, bfs_runs):
    # exact search's table grows one radius at a time from the adjacency rows,
    # with no sparse ball and no BFS per vertex
    assert bfs_runs(lambda g: exact._ball_masks(g, 8), g) == 0
    assert bfs_runs.reached == 0


@pytest.fixture
def validations(monkeypatch):
    """Counts the runs of ``Graph.__post_init__``, the full check of a
    directly constructed graph, while the test runs."""
    runs = []
    check = graph.Graph.__post_init__

    def counting(g):
        runs.append(g.n)
        check(g)

    monkeypatch.setattr(graph.Graph, "__post_init__", counting)
    return runs


BUILDS = {
    "from_edge_list": lambda: from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 0)]),
    "parse_edge_list": lambda: parse_edge_list("4 3\n0 1\n1 2\n2 3\n"),
    "interval_graph": lambda: interval_graph(IntervalSet.from_pairs([(0, 2), (1, 3), (3, 4), (6, 7)])),
    "disk_graph": lambda: disk_graph(DiskArrangement.from_triples([(0, 0, 1), (2, 0, 1), (5, 0, 1)])),
}


@pytest.mark.parametrize("build", BUILDS)
def test_builders_check_their_graph_once(build, validations):
    # a builder validates its edge list itself and skips the transposed-row check
    g = BUILDS[build]()
    assert g.n and validations == []
    # a direct construction receives rows from outside and checks them all
    assert graph.Graph(g.n, g.adjacency) == g
    assert validations == [g.n]


def _union(rng: random.Random, graphs):
    """The disjoint union of ``graphs`` under shuffled labels."""
    n, edges = 0, []
    for g in graphs:
        edges += [(u + n, v + n) for u, v in g.edges()]
        n += g.n
    label = list(range(n))
    rng.shuffle(label)
    return from_edge_list(n, [(label[u], label[v]) for u, v in edges])


def _random_forest(rng: random.Random):
    return _union(rng, [random_tree(rng, rng.randint(1, 40)) for _ in range(rng.randint(1, 8))])


FORESTS = {
    # each family at about n and 4n vertices, where it scales
    "path": [path_graph(250), path_graph(1000)],
    "spider": [gen_spider(6, 4), gen_spider(24, 4), gen_spider(5, 5), gen_spider(20, 5)],
    "spider-forest": [gen_spider_forest([2, 3, 4, 5])],
    "random": [_random_forest(random.Random(seed)) for seed in range(20)],
    "matching-8000": [from_edge_list(8000, [(2 * i, 2 * i + 1) for i in range(4000)])],
}


@pytest.mark.parametrize("family", FORESTS)
def test_radius_bound_sweeps_every_forest_in_two_runs(family, bfs_runs):
    # a tree of diameter D has radius ceil(D / 2), and one double sweep finds
    # the largest D over all trees at once: no run per tree and no dense row
    # per component, so the 8,000-vertex matching costs two runs, not 4,000
    for g in FORESTS[family]:
        assert bfs_runs(upper_bound_radius, g) <= 2, g.n
    assert upper_bound_radius(FORESTS["matching-8000"][0]) == 1 + 4000


def test_radius_bound_takes_no_bfs_on_cycles(bfs_runs):
    # a cycle of n vertices has radius floor(n / 2)
    rng = random.Random(73)
    graphs = [cycle_graph(n) for n in (3, 40, 100, 400)]
    for _ in range(10):
        graphs.append(_union(rng, [cycle_graph(rng.randint(3, 50)) for _ in range(rng.randint(2, 6))]))
    graphs.append(_union(rng, [cycle_graph(9), from_edge_list(3, [])]))  # and isolated vertices
    for g in graphs:
        assert bfs_runs(upper_bound_radius, g) == 0, g.n
        assert upper_bound_radius(g) == _expected_radius_bound(g), g.n


def test_radius_bound_matches_oracle_on_the_atlas():
    nx = pytest.importorskip("networkx")
    for h in nx.graph_atlas_g():  # all 1253 graphs on at most 7 vertices
        g = from_edge_list(h.number_of_nodes(), h.edges())
        assert upper_bound_radius(g) == _expected_radius_bound(g), list(h.edges())


def test_radius_bound_matches_oracle_on_mixed_unions():
    # trees, cycles and other components in one graph: the worst radius can
    # come from any kind
    rng = random.Random(79)
    kinds = [
        lambda: random_tree(rng, rng.randint(1, 25)),
        lambda: cycle_graph(rng.randint(3, 25)),
        lambda: random_connected_graph(rng, rng.randint(2, 15), rng.uniform(0.1, 0.5)),
        lambda: grid_graph(rng.randint(1, 4), rng.randint(1, 6)),
    ]
    for _ in range(80):
        g = _union(rng, [rng.choice(kinds)() for _ in range(rng.randint(1, 6))])
        assert upper_bound_radius(g) == _expected_radius_bound(g), g.edges()


def test_isolated_vertices_take_no_bfs(bfs_runs):
    # a one-vertex component has radius 0: no bounding run, and no dense row
    g = from_edge_list(50, [])
    assert bfs_runs(upper_bound_radius, g) == 0
    assert upper_bound_radius(g) == 50
    # the other components of a graph still take theirs
    assert 0 < bfs_runs(upper_bound_radius, from_edge_list(50, [(0, 1), (1, 2)])) <= 3


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("edges", [K4_EDGES, K4_EDGES[:-1]], ids=["K4", "diamond"])
@pytest.mark.parametrize("copies", [250, 1000])
def test_radius_bound_runs_each_component_on_its_own_rows(edges, copies, bfs_runs):
    # a component that is neither a tree nor a cycle bounds its radius on its
    # own rows, so its runs cost the component, not the graph: a dense n-row
    # per run would cost copies * n in all, here a multiple of n + 2m
    g = from_edge_list(4 * copies, [(u + 4 * i, v + 4 * i) for i in range(copies) for u, v in edges])
    bfs_runs(upper_bound_radius, g)
    assert bfs_runs.row_length <= g.n + 2 * g.edge_count, (bfs_runs.row_length, g.n)
    assert upper_bound_radius(g) == 1 + copies  # both have radius 1


def test_cycles_take_one_bfs_per_vertex_at_most(bfs_runs):
    # the bound needs no run on a cycle; in diameter_path every bounding run
    # decides its own source, and the fallback one open vertex per BFS, so it
    # needs at most n runs and two more rows
    for n in (40, 100, 400):  # smaller cycles are in FAMILIES
        g = cycle_graph(n)
        assert bfs_runs(upper_bound_radius, g) == 0
        assert bfs_runs(diameter_path, g) <= n + 2


@pytest.mark.parametrize("family", FAMILIES)
def test_never_more_bfs_runs_than_vertices(family, bfs_runs):
    for g in FAMILIES[family]:
        assert bfs_runs(upper_bound_radius, g) <= g.n
        if g.n and _connected(g):
            assert bfs_runs(diameter_path, g) <= g.n + 2


BURN_INPUTS = {
    "path": path_graph(9),
    "cycle": cycle_graph(9),
    "approx3": random_tree(random.Random(3), 20),
    "interval-approx": path_graph(12),
    "split": complete_graph(5),
    "cograph": complete_graph(5),
    "bruteforce": path_graph(7),
    "exact": gen_spider_forest([2, 3]),
}


BURN_RUNS = [pytest.param(engine, [], 0, id=engine) for engine in BURN_INPUTS] + [
    pytest.param("exact", ["--node-budget", "0"], 4, id="exact-exhausted")
]


def _burn(engine, options, tmp_path) -> int:
    target = tmp_path / "input.edges"
    target.write_text(format_edge_list(BURN_INPUTS[engine]))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(["burn", "--engine", engine, *options, str(target)])


@pytest.mark.parametrize("engine, options, code", BURN_RUNS)
def test_burn_computes_components_once(engine, options, code, tmp_path, monkeypatch):
    # count the walk itself, wherever it is asked for
    walks = []
    walk = graph._component_walk

    def counting(adjacency):
        walks.append(len(adjacency))
        return walk(adjacency)

    monkeypatch.setattr(graph, "_component_walk", counting)
    assert _burn(engine, options, tmp_path) == code
    assert walks == [BURN_INPUTS[engine].n]


@pytest.mark.parametrize("engine, options, code", BURN_RUNS)
def test_burn_takes_its_bounds_by_their_public_names(engine, options, code, tmp_path, monkeypatch):
    # a tracer that rebinds exact's public functions sees every bound computed
    calls = []

    def counted(bound):
        def wrapper(g):
            calls.append(bound.__name__)
            return bound(g)

        return wrapper

    for name in ("lower_bound", "upper_bound_radius"):
        monkeypatch.setattr(exact, name, counted(getattr(exact, name)))
    assert _burn(engine, options, tmp_path) == code
    # exact search also starts at the lower bound, and when exhausted it
    # reports the upper bound in place of burn's own report
    own = ["lower_bound"] if engine == "exact" else []
    reported = ["upper_bound_radius"] if code == 4 else ["lower_bound", "upper_bound_radius"]
    assert calls == own + reported
