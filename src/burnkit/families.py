"""Polynomial-time burners for special graph classes.

Paths and cycles burn in ceil(sqrt(n)) rounds, connected split graphs and
cographs in at most three, and connected interval graphs within one round of
optimal via their diameter path.
"""

from __future__ import annotations

import math

from ._record import Record
from .burning import coverage
from .errors import NotBurnableIn3Error, RejectedInputError
from .graph import Graph, diameter_path, neighborhood


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r >= n else r + 1


def burn_path(P) -> list[int]:
    """Optimal schedule for a path given end to end, in k = ceil(sqrt(n)) rounds.

    Round k - i ignites the 1-based position max(1, n - i(i+1)), for i = k-1
    down to 0: the source of round k - i covers the 2i+1 positions ending at
    n - i^2, and only the first round's ball can reach past position 1.
    """
    path = list(P)
    n = len(path)
    if n == 0:
        raise RejectedInputError("cannot burn an empty path")
    k = _ceil_sqrt(n)
    return [path[max(1, n - i * (i + 1)) - 1] for i in range(k - 1, -1, -1)]


def burn_cycle(C) -> list[int]:
    """Optimal schedule for a cycle: ceil(sqrt(n)) arcs tiled around the ring.

    Consecutive coverage arcs of sizes 2(k-i)+1 are laid out in round order
    and shrunk by overlaps totalling k^2 - n, smallest arcs first, which keeps
    every placement legal (the wrap gap between the first and last source is
    always k).
    """
    cycle = list(C)
    n = len(cycle)
    if n < 3:
        raise RejectedInputError("a cycle needs at least three vertices")
    k = _ceil_sqrt(n)
    surplus = k * k - n
    overlap = [0] * k  # overlap[i] merges arc i into arc i+1 (1-based rounds)
    for i in range(k - 1, 0, -1):
        take = min(2 * (k - i) - 1, surplus)
        overlap[i] = take
        surplus -= take
    positions = [0]
    for i in range(1, k):
        positions.append(positions[-1] + 2 * (k - i) - overlap[i])
    return [cycle[p % n] for p in positions]


class SplitPartition(Record):
    """A clique/independent-set bipartition of a vertex set."""

    clique: frozenset[int]
    independent: frozenset[int]


def validate_split(G: Graph, sp: SplitPartition) -> None:
    if sp.clique & sp.independent or (sp.clique | sp.independent) != set(range(G.n)):
        raise RejectedInputError("partition must split the vertex set exactly")
    clique = sorted(sp.clique)
    for idx, v in enumerate(clique):
        row = set(G.adjacency[v])
        for u in clique[idx + 1 :]:
            if u not in row:
                raise RejectedInputError(f"clique part misses edge ({v}, {u})")
    for v in sp.independent:
        for u in G.adjacency[v]:
            if u in sp.independent:
                raise RejectedInputError(f"independent part contains edge ({v}, {u})")


def split_partition(G: Graph) -> SplitPartition | None:
    """Degree-sequence recognizer (Hammer & Simeone); None when the graph is not split.

    For K, the first m vertices by degree, and I, the rest, the identity
    says 2e(K) - m(m - 1) = 2e(I).  The left side is at most 0 and the right
    at least 0, so K is a clique and I is independent.
    """
    order = sorted(range(G.n), key=lambda v: (-G.degree(v), v))
    degrees = [G.degree(v) for v in order]
    best_m = 0
    for i in range(1, G.n + 1):
        if degrees[i - 1] >= i - 1:
            best_m = i
    left = sum(degrees[:best_m])
    right = best_m * (best_m - 1) + sum(degrees[best_m:])
    if left != right:
        return None
    return SplitPartition(frozenset(order[:best_m]), frozenset(order[best_m:]))


def burn_split(G: Graph, sp: SplitPartition) -> list[int]:
    """Burn a split graph: first source in the clique, then independent vertices.

    Connected inputs finish in at most three rounds; disconnected ones keep
    seeding unburned independent vertices until everything is burned.  Each
    later round takes the smallest unburned independent vertex off the first
    source's neighborhood, else the smallest unburned independent vertex,
    else the smallest unburned vertex.
    """
    validate_split(G, sp)
    if G.n == 0:
        raise RejectedInputError("cannot burn the empty graph")
    # a lone vertex is trivially a clique; promote the smallest one
    clique = sorted(sp.clique) or [min(sp.independent)]
    # the clique vertex reaching most of the independent set leaves at
    # most one vertex uncovered whenever two rounds suffice
    first = max(
        clique,
        key=lambda c: (sum(1 for u in G.adjacency[c] if u in sp.independent), -c),
    )
    # one fixed order gives those three choices, since every clique vertex
    # but first is first's neighbor; a vertex passed over stays burned
    near = set(G.adjacency[first])
    candidates = iter(sorted(range(G.n), key=lambda v: (v not in sp.independent, v in near, v)))
    schedule = [first]
    burned, frontier = {first}, {first}
    while len(burned) < G.n:
        source = next(v for v in candidates if v not in burned)
        schedule.append(source)
        # only last round's new vertices can spread
        frontier = {u for v in frontier for u in G.adjacency[v] if u not in burned}
        frontier.add(source)
        burned |= frontier
    return schedule


def burn_cograph(G: Graph) -> list[int]:
    """Burn a connected cograph in at most three rounds without recognizing it.

    Checks one round (single vertex), then scans for a two-round schedule,
    then falls back to a radius-based three-round schedule.  If nothing
    passes verification the input was not a connected cograph.
    """
    if G.n == 0:
        raise RejectedInputError("cannot burn the empty graph")
    if G.n == 1:
        return [0]
    for x1 in range(G.n):
        # x1 misses at most one other vertex exactly when its degree is at least n - 2
        if G.degree(x1) >= G.n - 2:
            missing = set(range(G.n)) - set(G.adjacency[x1]) - {x1}
            return [x1, missing.pop() if missing else (0 if x1 != 0 else 1)]
    x1 = 0
    ball1 = neighborhood(G, {x1}, 1)
    x3 = min(v for v in range(G.n) if v not in ball1)
    x2 = min(v for v in range(G.n) if v not in (x1, x3))
    schedule = [x1, x2, x3]
    if len(neighborhood(G, {x1}, 2)) != G.n:
        raise NotBurnableIn3Error(
            "bounded three-round search failed; not a connected cograph"
        )
    return schedule


def burn_interval_approx(G: Graph) -> list[int]:
    """Burn a connected interval graph within one round of its optimum.

    Schedules the diameter path optimally; if off-path vertices stay
    uncovered, one extra source on any of them finishes the job.
    ``diameter_path`` rejects a disconnected graph.
    """
    if G.n == 0:
        raise RejectedInputError("cannot burn the empty graph")
    path = diameter_path(G)
    schedule = burn_path(path)
    covered = coverage(G, schedule)
    if len(covered) != G.n:
        extra = min(v for v in range(G.n) if v not in covered)
        schedule.append(extra)
    return schedule
