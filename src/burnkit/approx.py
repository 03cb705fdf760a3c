"""Three-approximation burner for arbitrary graphs.

Each round appends the unburned vertex that maximizes its worst
distance-to-deadline ratio against the sources already placed; the loop
stops as soon as the coverage balls reach every vertex.  Sequence length k
certifies that the optimum is at least ceil((k-1)/3) + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .burning import coverage
from .errors import RejectedInputError
from .graph import UNREACHED, Graph, _bfs


@dataclass(frozen=True)
class ApproxResult:
    sequence: tuple[int, ...]
    k: int
    implied_lower: int
    trace: tuple[tuple[int, int, int], ...]
    """Per failed prefix: (length, uncovered count, certified lower bound)."""


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
    rows = [_bfs(G.adjacency, x) for x in prefix]
    burned = set()
    for j, row in enumerate(rows, start=1):
        horizon = (k - 1) - j
        burned.update(v for v, d in enumerate(row) if d != UNREACHED and d <= horizon)
    candidates = [v for v in range(G.n) if v not in burned]
    if not candidates:
        raise RejectedInputError("every vertex is already burned; nothing to place")
    best_vertex = None
    best_score = None
    for u in candidates:
        score = math.inf
        for j, row in enumerate(rows, start=1):
            d = row[u]
            ratio = math.inf if d == UNREACHED else Fraction(d, k - j + 1)
            if ratio < score:
                score = ratio
        if best_score is None or score > best_score:
            best_score = score
            best_vertex = u
    return prefix + [best_vertex]


def burn_3approx(G: Graph, x1: int | None = None) -> ApproxResult:
    """Grow a burning sequence greedily until its coverage balls reach V.

    The result always verifies; its length is at most three times the
    burning number, and ``implied_lower`` is a sound lower bound derived
    from the final failing prefix.
    """
    if G.n == 0:
        raise RejectedInputError("cannot burn the empty graph")
    start = 0 if x1 is None else x1
    if not 0 <= start < G.n:
        raise RejectedInputError(f"start vertex {start} out of range")
    sequence = [start]
    trace: list[tuple[int, int, int]] = []
    while True:
        covered = len(coverage(G, sequence))
        if covered == G.n:
            break
        length = len(sequence)
        trace.append((length, G.n - covered, _prefix_bound(length)))
        sequence = next_fire_source(G, length + 1, sequence)
    k = len(sequence)
    implied_lower = max(-(-k // 3), trace[-1][2] if trace else 1)
    return ApproxResult(tuple(sequence), k, implied_lower, tuple(trace))


def _prefix_bound(length: int) -> int:
    """Lower bound certified by a failing prefix of this length."""
    return -(-length // 3) + 1

