"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines immediately).
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout

from burnkit import (
    bootstrap_percolate,
    burn_3approx,
    burn_cograph,
    burn_interval_approx,
    burn_path,
    burn_split,
    burning_number_exact,
    components,
    coverage,
    firefight_bruteforce,
    firefight_pk_free,
    gen_dk_gadget,
    gen_ig_gadget,
    gen_pg_gadget,
    gen_spider,
    interval_graph,
    lower_bound,
    validate_d3p,
    verify,
    verify_firefighter,
    IntervalSet,
)
from burnkit.cli import main as cli_main
from burnkit.exact import _Cover
from burnkit.formats import format_edge_list

from helpers import (
    complete_graph,
    cycle_graph,
    fig_example_graph,
    path_graph,
    random_connected_cograph,
    random_connected_graph,
    random_graph,
    random_interval_pairs,
    random_split_graph,
    reference_closed_form,
)
from test_processes import naive_firefight


def ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1


def test_criterion_01_path_law():
    started = time.monotonic()
    for n in range(1, 31):
        assert burning_number_exact(path_graph(n)).k == ceil_sqrt(n)
    for n in range(3, 31):
        assert burning_number_exact(cycle_graph(n)).k == ceil_sqrt(n)
    for n in range(1, 1001):
        schedule = burn_path(range(n))
        assert len(schedule) == ceil_sqrt(n)
        assert verify(path_graph(n), schedule)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"[criterion 1] PASS: path law holds for paths, cycles, and schedules ({elapsed:.1f}s)")


def test_criterion_02_named_figures():
    started = time.monotonic()
    assert burning_number_exact(fig_example_graph()).k == 3
    assert burning_number_exact(path_graph(9)).k == 3
    assert burning_number_exact(gen_spider(3, 4)).k == 4
    assert burning_number_exact(gen_spider(4, 4)).k == 5
    for r in (1, 2, 3):
        assert burning_number_exact(gen_spider(r, r)).k == r + 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"[criterion 2] PASS: named instances burn in their known optima ({elapsed:.1f}s)")


def test_criterion_03_verifier_soundness():
    rng = random.Random(3)
    disagreements = 0
    for _ in range(1000):
        n = rng.randint(1, 15)
        g = random_graph(rng, n, rng.random())
        k = rng.randint(1, min(n, 7))
        if rng.random() < 0.75:
            sequence = rng.sample(range(n), k)
        else:
            sequence = [rng.randrange(n) for _ in range(k)]
        legal, covered = reference_closed_form(g, sequence)
        if verify(g, sequence) != (legal and len(covered) == n) or coverage(g, sequence) != covered:
            disagreements += 1
    assert disagreements == 0
    print("[criterion 3] PASS: verifier and coverage match the closed form on 1000 fuzzed pairs")


def test_criterion_04_three_approximation_ratio():
    started = time.monotonic()
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 9)
        g = random_connected_graph(rng, n, max(rng.random(), 0.2))
        exact_k = burning_number_exact(g).k
        result = burn_3approx(g)
        assert verify(g, result.sequence)
        assert result.k <= 3 * exact_k
        assert result.implied_lower <= exact_k
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"[criterion 4] PASS: ratio and certified bound hold on 200 graphs ({elapsed:.1f}s)")


def test_criterion_05_interval_bound():
    rng = random.Random(5)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 10)
        g = interval_graph(IntervalSet.from_pairs(random_interval_pairs(rng, n)))
        if len(components(g)) != 1:
            continue
        checked += 1
        schedule = burn_interval_approx(g)
        assert verify(g, schedule)
        assert len(schedule) - burning_number_exact(g).k in (0, 1)
    print("[criterion 5] PASS: interval schedules stay within one of optimal on 100 graphs")


def _no_cover_at(graph, k: int) -> bool:
    """Exhaustive search: no cover by balls of radii k - 1, ..., 0, so no
    k-round burning sequence exists for this graph."""
    return _Cover(graph, None).covers(k) is None


def test_criterion_06_gadget_certificates():
    desk = validate_d3p([4, 5, 6])
    desk_solution = [(4, 5, 6)]

    ig = gen_ig_gadget(desk, desk_solution)
    assert ig.graph.n == 288
    assert len(ig.spine) == 169
    assert ig.graph.edge_count == ig.graph.n - 1 and len(components(ig.graph)) == 1
    assert len(ig.canonical_sequence) == 13 and verify(ig.graph, ig.canonical_sequence)
    # spine coverage bound: twelve balls cover at most 144 = 12^2 < 169 spine
    # vertices, and the exhaustive search over the spine path confirms it
    assert sum(2 * r + 1 for r in range(12)) == 144 < 169
    assert lower_bound(ig.graph) == 13
    spine_path = path_graph(169)
    assert _no_cover_at(spine_path, 12)

    pg_pair, pg = gen_pg_gadget(desk, desk_solution)
    assert pg.graph.n == 36
    assert [len(s.vertices) for s in pg.decomposition] == [27, 5, 3, 1]
    assert len(pg.canonical_sequence) == 6 and verify(pg.graph, pg.canonical_sequence)
    assert lower_bound(pg.graph) == 6  # path forest of order 36 needs 6 rounds
    assert _no_cover_at(pg.graph, 5)

    _, dk = gen_dk_gadget(desk, 14, desk_solution)
    assert dk.graph.n == 121
    assert len(dk.canonical_sequence) == 7 and verify(dk.graph, dk.canonical_sequence)

    full = validate_d3p([10, 11, 12, 14, 15, 16])
    full_solution = [(10, 14, 15), (11, 12, 16)]
    ig_full = gen_ig_gadget(full, full_solution)
    assert ig_full.graph.n == 1888
    assert len(ig_full.spine) == 1089 == 33 * 33
    assert ig_full.claimed_k == 33
    assert verify(ig_full.graph, ig_full.canonical_sequence)
    assert lower_bound(ig_full.graph) == 33  # spine order forces the optimum
    _, pg_full = gen_pg_gadget(full, full_solution)
    assert verify(pg_full.graph, pg_full.canonical_sequence)
    _, dk_full = gen_dk_gadget(full, 34, full_solution)
    assert verify(dk_full.graph, dk_full.canonical_sequence)
    print("[criterion 6] PASS: desk and full-size gadget certificates all check out")


def test_criterion_07_split_and_cograph():
    rng = random.Random(7)
    for _ in range(50):
        g, sp = random_split_graph(rng, rng.randint(1, 9))
        schedule = burn_split(g, sp)
        assert len(schedule) <= 3
        assert verify(g, schedule)
        assert len(schedule) == burning_number_exact(g).k
    for _ in range(50):
        g = random_connected_cograph(rng, rng.randint(1, 12))
        schedule = burn_cograph(g)
        assert len(schedule) <= 3
        assert verify(g, schedule)
    print("[criterion 7] PASS: split burner optimal on 50 samples, cographs burn in <= 3")


def test_criterion_08_firefighter():
    rng = random.Random(8)
    for _ in range(500):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.random())
        s = rng.randrange(n)
        placements = rng.sample(range(n), rng.randint(0, min(5, n)))
        run = verify_firefighter(g, s, placements)
        valid, saved = naive_firefight(g, s, placements)
        assert run.valid == valid
        if valid:
            assert run.saved == saved
    checked = 0
    while checked < 15:
        g, _ = random_split_graph(rng, rng.randint(2, 9), connected=False)
        s = rng.randrange(g.n)
        checked += 1
        bounded = firefight_pk_free(g, s, 5)
        brute = firefight_bruteforce(g, s)
        assert bounded.saved == brute.saved
        assert bounded.placements == brute.placements
    assert firefight_bruteforce(path_graph(3), 0).saved == 2
    assert verify_firefighter(path_graph(3), 1, [0]).saved == 1
    for n in (3, 5, 7):
        assert firefight_bruteforce(complete_graph(n), 0).saved == 1
    assert firefight_bruteforce(gen_spider(3, 1), 0).saved == 1
    print("[criterion 8] PASS: firefighter engines agree with oracles and known values")


def test_criterion_09_percolation():
    rng = random.Random(9)
    for _ in range(400):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        seed = set(rng.sample(range(n), rng.randint(0, n)))
        run = bootstrap_percolate(g, seed, rng.randint(2, 4))
        assert run.steps <= n
        for earlier, later in zip(run.timeline, run.timeline[1:]):
            assert earlier < later
    k4 = bootstrap_percolate(complete_graph(4), {0, 1}, 2)
    assert k4.percolates and k4.steps == 1
    p3 = bootstrap_percolate(path_graph(3), {0, 2}, 2)
    assert p3.percolates and p3.timeline[1] == frozenset({0, 1, 2})
    full = bootstrap_percolate(path_graph(3), {0, 1, 2}, 2)
    assert full.percolates and full.steps == 0
    print("[criterion 9] PASS: percolation is monotone, bounded, and matches known runs")


def _cli_bytes(args: list[str]) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(args)
    assert code == 0, f"command {args} failed with exit {code}"
    return buffer.getvalue()


def test_criterion_10_cli_determinism(tmp_path):
    p9 = tmp_path / "p9.edges"
    p9.write_text(format_edge_list(path_graph(9)))
    spider = tmp_path / "sp34.edges"
    spider.write_text(format_edge_list(gen_spider(3, 4)))
    out_prefix = tmp_path / "artifacts" / "gadget"
    invocations = [
        ["burn", "--engine", "exact", "--seed", "0", str(p9)],
        ["burn", "--engine", "approx3", "--trace", "--seed", "0", str(p9)],
        ["verify", "--sequence", "2,6,8", "--seed", "0", str(p9)],
        ["gen", "random", "--n", "10", "--p", "0.4", "--seed", "0", "--out", str(tmp_path / "r")],
        ["gen", "ig-gadget", "--x", "4,5,6", "--seed", "0", "--out", str(out_prefix)],
        ["firefight", "--origin", "0", "--engine", "brute", "--seed", "0", str(p9)],
        ["percolate", "--seed-set", "0,2", "--threshold", "2", "--seed", "0", str(p9)],
        ["bench", "--sizes", "9,16", "--engines", "path,approx3", "--seed", "0"],
    ]
    for args in invocations:
        first = _cli_bytes(args)
        for _ in range(2):
            assert _cli_bytes(args) == first
    single = json.loads(_cli_bytes(["burn", "--engine", "exact", "--workers", "1", str(spider)]))
    assert single["k"] == 4
    for workers in ("2", "4"):
        multi = json.loads(
            _cli_bytes(["burn", "--engine", "exact", "--workers", workers, str(spider)])
        )
        assert multi["k"] == single["k"]
        assert multi == single
    print("[criterion 10] PASS: CLI output is byte-identical across runs and worker counts")
