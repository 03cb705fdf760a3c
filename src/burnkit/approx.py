"""Three-approximation burner for arbitrary graphs.

Round k appends the unburned vertex v that maximizes its least ratio
d_j(v) / (k - j + 1) over the sources j already placed; the loop stops as
soon as the coverage balls reach every vertex.  Sequence length k certifies
that the optimum is at least ceil((k-1)/3) + 1.  A ratio is the integer pair
(d, k - j + 1), compared by cross-multiplication; (1, 0) is the infinite
ratio of a vertex no source reaches.  Ties go to the smallest vertex.

One incremental frontier, ``_Frontier``, carries the rounds.  It rests on
four exact facts about the ratio d_j(v) / (k - j + 1):

1. A burned vertex stays burned.  With the deadline
   ``reach[v] = min_j (d_j(v) + j)``, v is burned at round k iff
   ``reach[v] <= k - 1``; it then leaves the live list for good.
2. A later source whose d is at least the smallest earlier d never gives the
   minimum, because its denominator is smaller.  So v keeps only its records:
   (d, j) pairs with strictly falling d.
3. Take two records a < b, so d_a > d_b.  Once b's ratio is at or below a's,
   it stays there for every later round.  So each round drops the records
   before the current argmin.
4. A new source j at distance d from v changes nothing once d is at least
   the distance d_last of v's last record (d_last, j_last): no record is
   appended, and d + j > d_last + j_last >= reach[v] leaves the deadline.
   Burned vertices are never read again, so with ``far`` the largest
   last-record distance of a live vertex, the source needs only its ball of
   radius far - 1; only while a live vertex has no record does it need its
   whole component.

A new source costs one traversal of radius far - 1 and a pass over the
vertices it reaches; the round after it costs O(live + their records), and
the same scan yields the next far.
"""

from __future__ import annotations

import sys

from ._record import Record
from .errors import RejectedInputError
from .graph import Graph, _bfs, _check_vertices


class ApproxResult(Record):
    sequence: tuple[int, ...]
    k: int
    implied_lower: int
    trace: tuple[tuple[int, int, int], ...]
    """Per failed prefix: (length, uncovered count, certified lower bound)."""


class _Frontier:
    """The live vertices of a growing prefix, with their deadlines and records.

    ``records[v]`` lists (d, j) for source j at distance d, d strictly falling;
    a vertex no source reaches has no records and a deadline past every round.
    One step, ``place``, folds a source's traversal into the vertices it
    reaches, burned ones included since nothing reads them again.  Its scan
    of the live vertices then picks the next round's source and, in the same
    loop, the radius of the next traversal.  The scan trims records from the
    front only, so a last record changes only in the fold.
    """

    def __init__(self, adjacency):
        self.adjacency = adjacency
        self.placed = 0
        self.live = list(range(len(adjacency)))
        self.reach = [sys.maxsize] * len(adjacency)
        self.records: list[list[tuple[int, int]]] = [[] for _ in adjacency]
        self.radius = None  # of the next traversal; None: the whole component

    def place(self, source: int) -> tuple[int | None, int]:
        """Place the next source, then return round k's source (None if
        nothing is left) and the unburned count, for k one past the sources
        placed."""
        self.placed += 1
        j = self.placed
        reach, records = self.reach, self.records
        dist, reached = _bfs(self.adjacency, (source,), self.radius)
        for v in reached:
            d = dist[v]
            if d + j < reach[v]:
                reach[v] = d + j
            own = records[v]
            if not own or d < own[-1][0]:
                own.append((d, j))
        k = j + 1
        self.live = live = [v for v in self.live if reach[v] >= k]
        best, best_num, best_den = None, -1, 1
        far = 0
        for v in live:
            own = records[v]
            if len(own) == 1:  # most live vertices hold one record
                ((num, j),) = own
                den = k - j + 1
                if num > far:
                    far = num
            elif own:
                if own[-1][0] > far:
                    far = own[-1][0]
                num, j = own[0]
                den = k - j + 1
                argmin = 0
                for i in range(1, len(own)):
                    d, j = own[i]
                    if d * den <= num * (k - j + 1):
                        argmin, num, den = i, d, k - j + 1
                if argmin:
                    del own[:argmin]
            else:
                num, den = 1, 0
                far = len(reach)  # past every distance
            if num * best_den > best_num * den:
                best, best_num, best_den = v, num, den
        self.radius = far - 1
        return best, len(live)


def next_fire_source(G: Graph, k: int, S) -> list[int]:
    """Append round k's source: the unburned vertex u maximizing
    min over placed sources j of d(u, x_j) / (k - j + 1).

    Unreachable distances count as infinite, which forces untouched
    components to get seeded.  Ties break toward the smallest vertex.
    """
    prefix = list(S)
    if len(prefix) != k - 1:
        raise RejectedInputError(f"expected a prefix of length {k - 1}, got {len(prefix)}")
    if k < 2:
        raise RejectedInputError("the first source is chosen freely, not by ratio")
    _check_vertices(G, prefix, "prefix vertex")
    frontier = _Frontier(G.adjacency)
    for x in prefix:
        vertex, unburned = frontier.place(x)
    if not unburned:
        raise RejectedInputError("every vertex is already burned; nothing to place")
    return prefix + [vertex]


def burn_3approx(G: Graph, x1: int | None = None) -> ApproxResult:
    """Grow a burning sequence greedily until its coverage balls reach V.

    The result always verifies; its length is at most three times the
    burning number, and ``implied_lower`` is a sound lower bound derived
    from the final failing prefix.  Each source is one ``place`` step: a
    traversal of radius far - 1, far the largest distance of any live
    vertex's last record (unbounded while a live vertex has no record), then
    one scan of the live (unburned) vertices and their trimmed records that
    picks the next source and the next far.  The module docstring gives the
    facts that keep both exact.
    """
    if G.n == 0:
        raise RejectedInputError("cannot burn the empty graph")
    start = 0 if x1 is None else x1
    _check_vertices(G, (start,), "start vertex")
    sequence = [start]
    frontier = _Frontier(G.adjacency)
    vertex, unburned = frontier.place(start)
    trace: list[tuple[int, int, int]] = []
    while unburned:
        length = len(sequence)
        trace.append((length, unburned, -(-length // 3) + 1))
        sequence.append(vertex)
        vertex, unburned = frontier.place(vertex)
    k = len(sequence)
    # the last failing prefix, of length k - 1, certifies ceil((k-1)/3) + 1 >= ceil(k/3)
    implied_lower = trace[-1][2] if trace else 1
    return ApproxResult(tuple(sequence), k, implied_lower, tuple(trace))
