"""Independent checks for benchmark job outputs.

Nothing here imports burnkit.  Graphs are rebuilt from the input files by
this module's own parsers and builders, and every burning sequence is
re-checked by its own breadth-first search, so a broken verifier, builder
or bound in the program cannot pass its own output.  Adjacency is a list of
sorted neighbour tuples over vertices ``0..n-1``.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction


def _rows(text: str) -> list[list[str]]:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


def _adjacency(n: int, edges) -> list[tuple[int, ...]]:
    sets = [set() for _ in range(n)]
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bad edge ({u}, {v})")
        sets[u].add(v)
        sets[v].add(u)
    return [tuple(sorted(s)) for s in sets]


def edges_graph(text: str) -> list[tuple[int, ...]]:
    rows = _rows(text)
    n, m = int(rows[0][0]), int(rows[0][1])
    if len(rows) - 1 != m:
        raise ValueError(f"header promises {m} edges, file has {len(rows) - 1}")
    return _adjacency(n, ((int(u), int(v)) for u, v in rows[1:]))


def intervals_graph(text: str) -> list[tuple[int, ...]]:
    """Closed intervals, by a sweep over starts: tangency counts."""
    items = [(Fraction(s), Fraction(e)) for s, e in _rows(text)]
    order = sorted(range(len(items)), key=lambda i: items[i][0])
    active: list[int] = []
    edges = []
    for i in order:
        start = items[i][0]
        active = [j for j in active if items[j][1] >= start]
        edges.extend((i, j) for j in active)
        active.append(i)
    return _adjacency(len(items), edges)


def permutation_graph(text: str) -> list[tuple[int, ...]]:
    """Vertex ``i-1`` per value ``i``; an edge per inverted pair."""
    perm = [int(token) for row in _rows(text) for token in row]
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if perm[a] > perm[b]:
                edges.append((perm[a] - 1, perm[b] - 1))
    return _adjacency(n, edges)


def disks_graph(text: str) -> list[tuple[int, ...]]:
    """Closed disks, bucketed on a grid of cell side 2*max radius; exact test."""
    disks = [tuple(Fraction(t) for t in row) for row in _rows(text)]
    if not disks:
        return []
    cell = 2 * max(r for _, _, r in disks)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, (x, y, _) in enumerate(disks):
        buckets.setdefault((math.floor(x / cell), math.floor(y / cell)), []).append(i)
    edges = []
    for (cx, cy), members in buckets.items():
        for dx, dy in itertools.product((-1, 0, 1), repeat=2):
            for j in buckets.get((cx + dx, cy + dy), ()):
                xj, yj, rj = disks[j]
                for i in members:
                    if i < j:
                        xi, yi, ri = disks[i]
                        if (xi - xj) ** 2 + (yi - yj) ** 2 <= (ri + rj) ** 2:
                            edges.append((i, j))
    return _adjacency(len(disks), edges)


BUILDERS = {
    "edges": edges_graph,
    "intervals": intervals_graph,
    "permutation": permutation_graph,
    "disks": disks_graph,
}


def bfs(adj, source: int, limit: int | None = None) -> dict[int, int]:
    """Distances from ``source`` up to ``limit`` hops (all when None)."""
    dist = {source: 0}
    queue = deque((source,))
    while queue:
        v = queue.popleft()
        d = dist[v]
        if limit is not None and d >= limit:
            continue
        for u in adj[v]:
            if u not in dist:
                dist[u] = d + 1
                queue.append(u)
    return dist


def burn_check(adj, sequence) -> tuple[bool, bool]:
    """(legal, complete) for a burning sequence.

    Legal: no source lies within ``j-i-1`` hops of an earlier source i, so
    none is already burning when placed.  Complete: the balls of radius
    ``k-i-1`` around the sources cover every vertex.
    """
    seq = list(sequence)
    n = len(adj)
    if not seq or any(not (isinstance(v, int) and 0 <= v < n) for v in seq):
        return False, False
    k = len(seq)
    legal = True
    covered: set[int] = set()
    for i, source in enumerate(seq):
        dist = bfs(adj, source, k - i - 1)
        covered.update(dist)
        for j in range(i + 1, k):
            if dist.get(seq[j], k) <= j - i - 1:
                legal = False
    return legal, len(covered) == n


def components(adj) -> list[list[int]]:
    seen: set[int] = set()
    out = []
    for v in range(len(adj)):
        if v not in seen:
            comp = list(bfs(adj, v))
            seen.update(comp)
            out.append(comp)
    return out


def ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r >= n else r + 1


def bounds(adj) -> tuple[int, int]:
    """(lower, upper) on the burning number of any graph.

    Lower: one source per component, and k balls meet a geodesic path in
    at most 1+3+...+(2k-1) = k^2 vertices, so a diameter path of order d+1
    needs ceil(sqrt(d+1)) rounds.  Upper: burn each component's center, the
    sum of the component count and the worst component radius.
    """
    comps = components(adj)
    lower = len(comps)
    worst_radius = 0
    for comp in comps:
        ecc = [max(bfs(adj, v).values()) for v in comp]
        lower = max(lower, ceil_sqrt(max(ecc) + 1))
        worst_radius = max(worst_radius, min(ecc))
    return lower, worst_radius + len(comps)


def optimum_bruteforce(adj) -> tuple[int, tuple[int, ...]]:
    """Burning number and lexicographically smallest optimal sequence."""
    n = len(adj)
    for k in range(1, n + 1):
        for seq in itertools.permutations(range(n), k):
            if burn_check(adj, seq) == (True, True):
                return k, seq
    raise ValueError("empty graph")


def at_most_two(adj) -> int | None:
    """The burning number when it is 1 or 2, else None (it is at least 3)."""
    n = len(adj)
    if n == 1:
        return 1
    if any(n - 1 - len(row) <= 1 for row in adj):
        return 2  # round 2 ignites the one vertex the first ball misses
    return None


def percolate(adj, seed, threshold: int) -> list[list[int]]:
    """Bootstrap percolation timeline: the infected set after each step."""
    infected = set(seed)
    timeline = [sorted(infected)]
    while True:
        fresh = {
            v
            for v in range(len(adj))
            if v not in infected and sum(u in infected for u in adj[v]) >= threshold
        }
        if not fresh:
            return timeline
        infected |= fresh
        timeline.append(sorted(infected))


def _spread(adj, burned: frozenset, protected: frozenset) -> frozenset:
    return frozenset(
        u for v in burned for u in adj[v] if u not in burned and u not in protected
    )


def firefight(adj, origin: int, placements) -> tuple[bool, int]:
    """(valid, saved) for firefighters placed one per round from round 2."""
    burned = frozenset((origin,))
    protected: frozenset = frozenset()
    for vertex in placements:
        if vertex in burned or vertex in protected:
            return False, -1
        protected |= {vertex}
        spread = _spread(adj, burned, protected)
        burned |= spread
        if not spread:
            break
    while True:
        spread = _spread(adj, burned, protected)
        if not spread:
            return True, len(adj) - len(burned)
        burned |= spread


def firefight_best(adj, origin: int) -> tuple[int, tuple[int, ...]]:
    """Most saved vertices, then fewest placements, then lexicographic order."""
    best = (1, (), ())  # (-saved, len, sequence) of the best strategy seen

    def dfs(sequence, burned, protected):
        nonlocal best
        _, saved = firefight(adj, origin, sequence)
        best = min(best, (-saved, len(sequence), sequence))
        if not _spread(adj, burned, protected):
            return
        for vertex in range(len(adj)):
            if vertex not in burned and vertex not in protected:
                guarded = protected | {vertex}
                dfs(sequence + (vertex,), burned | _spread(adj, burned, guarded), guarded)

    dfs((), frozenset((origin,)), frozenset())
    return -best[0], best[2]
