"""Seeded input corpora and job lists for the benchmark workloads.

Everything here is standard library and independent of burnkit: the
program only ever sees the files written below.  Sizes are fixed per
workload and the seed picks the shapes, labels, instances and sequences,
so the work in one pass over the job list changes little from seed to seed
while the inputs themselves do.
"""

from __future__ import annotations

import itertools
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

NODE_BUDGET = 2000
"""The one node budget of every ``burn --engine exact`` job."""

SPIDER_OPT = {(4, 7): 6, (5, 5): 6, (5, 10): 7, (6, 6): 7, (7, 5): 6}
"""Burning numbers of spiders SP(s, r), recorded from burnkit's exact search."""

SPIDERS = [(4, 7), (5, 5), (5, 10), (7, 5), (4, 10), (5, 8), (6, 6), (6, 7), (7, 7)]
"""Exact search explores the same number of nodes on every relabelling of a
spider, so these jobs cost the same whatever labels the seed draws.  The
first four settle within NODE_BUDGET, the rest exhaust it."""

EXTENSIONS = {"edges": ".edges", "intervals": ".intervals", "permutation": ".perm", "disks": ".disks"}


@dataclass
class Job:
    """One unit of work in a pass: a CLI invocation or a library call.

    ``check`` names the output check in run.py and ``facts`` carries what
    it needs beyond the job's own output.
    """

    id: str
    check: str
    argv: list[str] | None = None
    lib: tuple[str, str] | None = None  # (engine, edge-list path)
    expect: tuple[int, ...] = (0,)
    facts: dict = field(default_factory=dict)


# -- graphs -----------------------------------------------------------------


def _relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    label = list(range(n))
    rng.shuffle(label)
    return [(label[u], label[v]) for u, v in edges]


def _edge_text(n: int, edges) -> str:
    unique = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return f"{n} {len(unique)}\n" + "".join(f"{u} {v}\n" for u, v in unique)


def path_edges(n, rng):
    return _relabel(n, [(v, v + 1) for v in range(n - 1)], rng)


def cycle_edges(n, rng):
    return _relabel(n, [(v, (v + 1) % n) for v in range(n)], rng)


def lanky_tree(n, rng, window=3):
    """A long thin tree: each vertex hangs off one of the last few."""
    return _relabel(n, [(v, rng.randint(max(0, v - window), v - 1)) for v in range(1, n)], rng)


def sparse_graph(n, rng, chords):
    edges = set(lanky_tree(n, rng))
    while len(edges) < n - 1 + chords:
        u, v = rng.sample(range(n), 2)
        if (v, u) not in edges:
            edges.add((u, v))
    return sorted(edges)


def grid(a, b, rng):
    edges = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
    edges += [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
    return _relabel(a * b, edges, rng)


def spider(s, r, rng):
    edges = []
    for arm in range(s):
        previous = 0
        for offset in range(r):
            vertex = 1 + arm * r + offset
            edges.append((previous, vertex))
            previous = vertex
    return _relabel(1 + s * r, edges, rng)


def split_graph(n, rng):
    clique = rng.randint(n // 5, n // 4)
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    for w in range(clique, n):
        edges += [(c, w) for c in rng.sample(range(clique), rng.randint(1, 3))]
    return _relabel(n, edges, rng)


def _cograph(vertices, rng):
    if len(vertices) == 1:
        return []
    cut = rng.randint(1, len(vertices) - 1)
    left, right = vertices[:cut], vertices[cut:]
    edges = _cograph(left, rng) + _cograph(right, rng)
    if rng.random() < 0.5:
        edges += [(u, v) for u in left for v in right]
    return edges


def cograph(n, rng):
    """A sparse connected cograph: a few hubs joined to a union of small cographs."""
    hubs = rng.randint(2, 3)
    edges = [(h, v) for h in range(hubs) for v in range(hubs, n)]
    start = hubs
    while start < n:
        size = min(rng.randint(2, 5), n - start)
        edges += _cograph(list(range(start, start + size)), rng)
        start += size
    return _relabel(n, edges, rng)


def _quarter(rng, low, high):
    return Fraction(rng.randint(4 * low, 4 * high), 4)


def _shuffled_lines(lines, rng) -> str:
    lines = list(lines)
    rng.shuffle(lines)
    return "".join(lines)


def path_intervals(n, rng):
    """Intervals between consecutive points of an increasing sequence."""
    points = [Fraction(0)]
    for _ in range(n):
        points.append(points[-1] + _quarter(rng, 1, 2))
    return _shuffled_lines((f"{points[i]} {points[i + 1]}\n" for i in range(n)), rng)


def random_intervals(n, rng, gap):
    """Each interval starts inside its predecessor, or up to ``gap`` after it."""
    start, length = Fraction(0), _quarter(rng, 1, 3)
    lines = [f"{start} {start + length}\n"]
    for _ in range(n - 1):
        start += length / 2 + Fraction(rng.randint(0, int(4 * (length / 2 + gap))), 4)
        length = _quarter(rng, 1, 3)
        lines.append(f"{start} {start + length}\n")
    return _shuffled_lines(lines, rng)


def path_permutation(n):
    """2, 4, 1, 6, 3, 8, 5, ...: its inversion graph is a path when n is even."""
    evens, odds = list(range(2, n + 1, 2)), list(range(1, n + 1, 2))
    perm = [evens.pop(0)]
    while evens or odds:
        perm += evens[:1] + odds[:1]
        evens, odds = evens[1:], odds[1:]
    return "".join(f"{value}\n" for value in perm)


def local_permutation(n, rng):
    """A few sweeps of random adjacent swaps: few, local inversions."""
    perm = list(range(1, n + 1))
    for _ in range(3):
        for i in range(n - 1):
            if rng.random() < 0.5:
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return "".join(f"{value}\n" for value in perm)


def _disk_lines(centers, rng) -> str:
    return _shuffled_lines((f"{x} {y} 1\n" for x, y in centers), rng)


def staircase_disks(n, rng):
    """Unit disks 3/2 apart, each step right or up: a path."""
    x = y = Fraction(0)
    centers = [(x, y)]
    for _ in range(n - 1):
        if rng.random() < 0.5:
            x += Fraction(3, 2)
        else:
            y += Fraction(3, 2)
        centers.append((x, y))
    return _disk_lines(centers, rng)


def ring_disks(n, rng):
    """Unit disks 3/2 apart around an a-by-b rectangle: a cycle of order 2(a+b)."""
    a = rng.randint(2, n // 2 - 2)
    b = n // 2 - a
    step = Fraction(3, 2)
    corners = [(0, 0), (a, 0), (a, b), (0, b)]
    centers = []
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        for t in range(max(abs(x1 - x0), abs(y1 - y0))):
            dx = (x1 > x0) - (x1 < x0)
            dy = (y1 > y0) - (y1 < y0)
            centers.append(((x0 + dx * t) * step, (y0 + dy * t) * step))
    return _disk_lines(centers, rng)


def scattered_disks(n, rng):
    side = 2 * int(n**0.5)
    return _disk_lines(((_quarter(rng, 0, side), _quarter(rng, 0, side)) for _ in range(n)), rng)


# -- workloads ----------------------------------------------------------------


def _random_sequence(adj, rng) -> list[int]:
    """A legal, complete burning sequence: ignite a random unburned vertex each round."""
    burned: set[int] = set()
    sequence = []
    while len(burned) < len(adj):
        source = rng.choice([v for v in range(len(adj)) if v not in burned])
        burned |= {u for v in burned for u in adj[v]} | {source}
        sequence.append(source)
    return sequence


def _cli_batch_inputs(rng):
    """(name, format, text, burn engine) for each cli-batch input."""
    inputs = []
    for n in (30, 55, 80):
        inputs.append(("path", "edges", _edge_text(n, path_edges(n, rng)), "path"))
    for n in (50, 70):
        inputs.append(("path", "intervals", path_intervals(n, rng), "path"))
    inputs.append(("path", "permutation", path_permutation(64), "path"))
    for n in (30, 65):
        inputs.append(("path", "disks", staircase_disks(n, rng), "path"))
    for n in (30, 70):
        inputs.append(("cycle", "edges", _edge_text(n, cycle_edges(n, rng)), "cycle"))
    for n in (50, 64):
        inputs.append(("cycle", "disks", ring_disks(n, rng), "cycle"))
    for n in (40, 80):
        inputs.append(("tree", "edges", _edge_text(n, lanky_tree(n, rng)), "approx3"))
    inputs.append(("sparse", "edges", _edge_text(64, sparse_graph(64, rng, 6)), "approx3"))
    inputs.append(("local", "permutation", local_permutation(56, rng), "approx3"))
    inputs.append(("scatter", "disks", scattered_disks(40, rng), "approx3"))
    inputs.append(("gappy", "intervals", random_intervals(56, rng, Fraction(1, 2)), "approx3"))
    for n in (40, 56, 72):
        inputs.append(("chain", "intervals", random_intervals(n, rng, 0), "interval-approx"))
    text = random_intervals(56, rng, 0)
    adj = oracle.intervals_graph(text)
    edges = [(u, v) for u in range(len(adj)) for v in adj[u] if u < v]
    inputs.append(("chain", "edges", _edge_text(len(adj), edges), "interval-approx"))
    for n in (32, 48):
        inputs.append(("split", "edges", _edge_text(n, split_graph(n, rng)), "split"))
    for n in (32, 40):
        inputs.append(("cograph", "edges", _edge_text(n, cograph(n, rng)), "cograph"))
    return inputs


def cli_batch(rng, out: Path) -> list[Job]:
    """The CLI from file to JSON: class engines, verify, percolate and the exact engines."""
    jobs = _exact_jobs(rng, out)
    for idx, (name, fmt, text, engine) in enumerate(_cli_batch_inputs(rng)):
        path = str(out / f"{idx:02d}-{name}{EXTENSIONS[fmt]}")
        Path(path).write_text(text)
        adj = oracle.BUILDERS[fmt](text)
        source = {"input": path, "format": fmt}
        opt = oracle.ceil_sqrt(len(adj)) if engine in ("path", "cycle") else None
        jobs.append(Job(
            f"burn-{idx:02d}", "burn",
            argv=["burn", path, "--format", fmt, "--engine", engine],
            facts={**source, "engine": engine, "opt": opt},
        ))
        for variant in ("valid", "illegal", "short"):
            sequence = _random_sequence(adj, rng)
            if variant == "illegal":  # re-ignite the first source, burning since round 1
                sequence.insert(rng.randint(1, len(sequence)), sequence[0])
            elif variant == "short":  # legal, but one round short of burning everything
                sequence.pop()
            jobs.append(Job(
                f"verify-{idx:02d}-{variant}", "verify",
                argv=["verify", path, "--format", fmt, "--sequence", ",".join(map(str, sequence))],
                expect=(0,) if variant == "valid" else (2,),
                facts={**source, "sequence": sequence},
            ))
        seed_set = sorted(rng.sample(range(len(adj)), max(2, len(adj) // 8)))
        jobs.append(Job(
            f"percolate-{idx:02d}", "percolate",
            argv=["percolate", path, "--format", fmt, "--threshold", "2",
                  "--seed-set", ",".join(map(str, seed_set))],
            facts={**source, "seed_set": seed_set, "threshold": 2},
        ))
    rng.shuffle(jobs)
    return jobs


def _exact_jobs(rng, out: Path) -> list[Job]:
    """burn --engine exact under one node budget, and tiny bruteforce and firefight jobs."""
    graphs = []  # (name, n, edges, known optimum)
    for s, r in SPIDERS:
        graphs.append((f"spider{s}x{r}", 1 + s * r, spider(s, r, rng), SPIDER_OPT.get((s, r))))
    for a, b in ((4, 5), (5, 5), (5, 6), (6, 6)):
        graphs.append((f"grid{a}x{b}", a * b, grid(a, b, rng), None))
    for n in (16, 20, 24, 30):
        graphs.append((f"sparse{n}", n, sparse_graph(n, rng, n // 5), None))
    jobs = []
    for idx, (name, n, edges, opt) in enumerate(graphs):
        path = str(out / f"{idx:02d}-{name}.edges")
        Path(path).write_text(_edge_text(n, edges))
        jobs.append(Job(
            f"exact-{idx:02d}-{name}", "burn",
            argv=["burn", path, "--engine", "exact", "--node-budget", str(NODE_BUDGET)],
            expect=(0, 4),
            facts={"input": path, "format": "edges", "engine": "exact", "opt": opt},
        ))
    for idx in range(24):
        n = 5 + idx % 4
        path = str(out / f"tiny{idx:02d}.edges")
        Path(path).write_text(_edge_text(n, sparse_graph(n, rng, rng.randint(0, 2))))
        jobs.append(Job(
            f"bruteforce-{idx:02d}", "burn",
            argv=["burn", path, "--engine", "bruteforce", "--vertex-cap", "8"],
            facts={"input": path, "format": "edges", "engine": "bruteforce", "opt": None},
        ))
    for idx in range(16):
        n = 6 + idx % 4
        path = str(out / f"fire{idx:02d}.edges")
        Path(path).write_text(_edge_text(n, sparse_graph(n, rng, rng.randint(0, 1))))
        origin = rng.randrange(n)
        jobs.append(Job(
            f"firefight-{idx:02d}", "firefight",
            argv=["firefight", path, "--engine", "brute", "--origin", str(origin)],
            facts={"input": path, "format": "edges", "origin": origin},
        ))
    return jobs


GADGET_M = (6, 8, 9)
"""Every instance of each of these m runs in every pass, so the work in a
pass is the same for every seed; the seed orders the elements and the jobs."""
GADGET_FORMATS = {"ig": "intervals", "pg": "permutation", "dk": "disks"}


def d3p_instances(m: int) -> list[list[int]]:
    """Distinct 3-partition inputs of one or two triples whose largest element is m."""
    found = []
    for b in range(3, 3 * m):
        allowed = [v for v in range(1, m + 1) if b < 4 * v and 2 * v < b]
        triples = [t for t in itertools.combinations(allowed, 3) if sum(t) == b]
        for count in (1, 2):
            for parts in itertools.combinations(triples, count):
                values = set(itertools.chain(*parts))
                if len(values) == 3 * count and max(values) == m:
                    found.append(sorted(values))
    return found


def claimed_k(kind: str, m: int) -> int:
    return {"ig": 2 * m + 1, "pg": m, "dk": m + 1}[kind]


def gadget_pipeline(rng, out: Path) -> list[Job]:
    """gen --solve yes, verify --certificate from the geometric file, then library engines."""
    blocks = []  # one per gadget, in order: gen first, as the others read its files
    for m in GADGET_M:
        q = 2 * (m + 1)  # the smallest ring the disk gadget allows
        for idx, instance in enumerate(d3p_instances(m)):
            x = ",".join(map(str, rng.sample(instance, len(instance))))
            for kind, fmt in GADGET_FORMATS.items():
                name = f"{kind}-m{m}-{idx}"
                prefix = str(out / name)
                facts = {"prefix": prefix, "claimed_k": claimed_k(kind, m)}
                argv = ["gen", f"{kind}-gadget", "--x", x, "--solve", "yes", "--out", prefix]
                block = [Job(f"gen-{name}", "gen",
                             argv=argv + (["--q", str(q)] if kind == "dk" else []), facts=facts)]
                block.append(Job(
                    f"verify-{name}", "certificate",
                    argv=["verify", "--certificate", prefix + ".cert.json", "--format", fmt,
                          prefix + EXTENSIONS[fmt]],
                    facts={**facts, "format": fmt},
                ))
                engines = ("approx3", "interval-approx") if kind == "ig" else ("approx3",)
                for engine in engines:
                    block.append(Job(f"{engine}-{name}", "library",
                                     lib=(engine, prefix + ".edges"), facts=facts))
                blocks.append(block)
    for idx, n in enumerate((1000,)):
        path = str(out / f"longpath{idx}.edges")
        # in path order, so approx3's first source (vertex 0) is an end
        Path(path).write_text(_edge_text(n, [(v, v + 1) for v in range(n - 1)]))
        blocks.append([Job(f"approx3-path{idx}", "library", lib=("approx3", path),
                           facts={"input": path, "claimed_k": oracle.ceil_sqrt(n)})])
    rng.shuffle(blocks)
    return [job for block in blocks for job in block]


WORKLOADS = {"cli-batch": cli_batch, "gadget-pipeline": gadget_pipeline}


def build(workload: str, seed: int, out: Path) -> list[Job]:
    """Write the workload's corpus for ``seed`` into a fresh ``out`` and list its jobs."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), out)
