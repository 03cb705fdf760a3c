"""Three-approximation burner for arbitrary graphs.

Each round appends the unburned vertex that maximizes its worst
distance-to-deadline ratio against the sources already placed; the loop
stops as soon as the coverage balls reach every vertex.  Sequence length k
certifies that the optimum is at least ceil((k-1)/3) + 1.  A ratio
d / (k - j + 1) is the integer pair (d, k - j + 1), compared by
cross-multiplication; (1, 0) is the infinite ratio of an unreachable vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RejectedInputError
from .graph import UNREACHED, Graph, _bfs


@dataclass(frozen=True)
class ApproxResult:
    sequence: tuple[int, ...]
    k: int
    implied_lower: int
    trace: tuple[tuple[int, int, int], ...]
    """Per failed prefix: (length, uncovered count, certified lower bound)."""


def _pick(rows: list[list[int]], k: int) -> tuple[int | None, int]:
    """Round k's source (None if nothing is left) and the unburned count, in one pass.

    ``rows[j-1]`` is source j's BFS row; it burns v when d(v) <= k - 1 - j.
    An unburned vertex scores its least ratio (d, k - j + 1), or (1, 0) if no
    source reaches it; the highest score wins, ties to the smallest vertex.
    """
    best, best_num, best_den, unburned = None, -1, 1, 0
    for v in range(len(rows[0])):
        num, den = 1, 0
        for j, row in enumerate(rows, start=1):
            d = row[v]
            if UNREACHED < d < k - j:
                break
            if d != UNREACHED and d * den < num * (k - j + 1):
                num, den = d, k - j + 1
        else:
            unburned += 1
            if num * best_den > best_num * den:
                best, best_num, best_den = v, num, den
    return best, unburned


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
    for x in prefix:
        if not 0 <= x < G.n:
            raise RejectedInputError(f"prefix vertex {x} out of range")
    vertex, unburned = _pick([_bfs(G.adjacency, x) for x in prefix], k)
    if not unburned:
        raise RejectedInputError("every vertex is already burned; nothing to place")
    return prefix + [vertex]


def burn_3approx(G: Graph, x1: int | None = None) -> ApproxResult:
    """Grow a burning sequence greedily until its coverage balls reach V.

    The result always verifies; its length is at most three times the
    burning number, and ``implied_lower`` is a sound lower bound derived
    from the final failing prefix.  Each source's BFS row is kept across rounds.
    """
    if G.n == 0:
        raise RejectedInputError("cannot burn the empty graph")
    start = 0 if x1 is None else x1
    if not 0 <= start < G.n:
        raise RejectedInputError(f"start vertex {start} out of range")
    sequence, rows = [start], [_bfs(G.adjacency, start)]
    trace: list[tuple[int, int, int]] = []
    while True:
        length = len(sequence)
        vertex, unburned = _pick(rows, length + 1)
        if not unburned:
            break
        trace.append((length, unburned, -(-length // 3) + 1))
        sequence.append(vertex)
        rows.append(_bfs(G.adjacency, vertex))
    k = len(sequence)
    implied_lower = max(-(-k // 3), trace[-1][2] if trace else 1)
    return ApproxResult(tuple(sequence), k, implied_lower, tuple(trace))
