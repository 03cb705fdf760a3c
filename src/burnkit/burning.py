"""Burning-process semantics: step simulation, coverage, and verification.

A burning run places one new fire source per round and then spreads fire one
hop from everything burned in earlier rounds.  A sequence of k sources is
valid when no source lands on an already-burned vertex, and complete when
round k leaves no vertex unburned.
"""

from __future__ import annotations

from ._record import Record
from .errors import InvalidSequenceError, RejectedInputError
from .graph import Graph, _bfs, _check_vertices


class BurnSchedule(Record):
    """Fire sources plus the per-vertex round and cause of burning.

    ``burn_step[v]`` is the 1-based round in which v burned (None if never);
    ``labels[v]`` is "a" for vertices ignited as sources, "b" for spread.
    """

    sources: tuple[int, ...]
    burn_step: tuple[int | None, ...]
    labels: tuple[str | None, ...]


class BurnOutcome(Record):
    valid: bool
    complete: bool
    schedule: BurnSchedule
    first_violation: tuple[int, str] | None


def _check_sequence(G: Graph, sequence) -> tuple[int, ...]:
    S = tuple(sequence)
    if not S:
        raise RejectedInputError("burning sequence must be nonempty")
    _check_vertices(G, S, "sequence vertex")
    return S


def simulate(G: Graph, sequence) -> BurnOutcome:
    """Run the burning process for len(sequence) rounds.

    Placement precedes spread within a round, and spread emanates only from
    vertices burned in earlier rounds.  An illegal placement (on an
    already-burned vertex) marks the outcome invalid but the process keeps
    running so that the final burned set still matches the coverage formula.
    """
    S = _check_sequence(G, sequence)
    burn_step: list[int | None] = [None] * G.n
    labels: list[str | None] = [None] * G.n
    burned = 0
    # Vertices that burned in the previous round.  Anything burned earlier
    # already has every neighbour burned, so only these can spread.
    frontier: list[int] = []
    first_violation: tuple[int, str] | None = None
    for step, source in enumerate(S, start=1):
        reached = []
        if burn_step[source] is not None:
            if first_violation is None:
                first_violation = (step, f"source {source} already burned")
        else:
            burn_step[source] = step
            labels[source] = "a"
            reached.append(source)
        for v in frontier:
            for u in G.adjacency[v]:
                if burn_step[u] is None:
                    burn_step[u] = step
                    labels[u] = "b"
                    reached.append(u)
        burned += len(reached)
        frontier = reached
    schedule = BurnSchedule(S, tuple(burn_step), tuple(labels))
    return BurnOutcome(
        valid=first_violation is None,
        complete=burned == G.n,
        schedule=schedule,
        first_violation=first_violation,
    )


def _balls(G: Graph, sequence) -> tuple[list[list[int]], bool]:
    """Per source i (0-based), the vertices of its radius k-i-1 ball, and
    whether no later source x_j lies within distance j-i-1 of an earlier
    source x_i (it would already be burned when placed).

    One source at a time, the later sources are read from its ball's distance
    row, which is then dropped, so only the k sparse balls are kept.
    """
    S = _check_sequence(G, sequence)
    k = len(S)
    balls = []
    legal = True
    for i, source in enumerate(S):
        dist, reached = _bfs(G.adjacency, (source,), k - i - 1)
        # UNREACHED is negative
        legal = legal and not any(0 <= dist[S[j]] < j - i for j in range(i + 1, k))
        balls.append(reached)
    return balls, legal


def coverage(G: Graph, sequence) -> set[int]:
    """Union of the k balls a k-round run reaches: radius k-i around source i."""
    balls, _ = _balls(G, sequence)
    return set().union(*balls)


def covers_all(G: Graph, sequence) -> bool:
    """Whether the coverage union equals the whole vertex set."""
    return len(coverage(G, sequence)) == G.n


def verify(G: Graph, sequence) -> bool:
    """Polynomial validity check for a burning sequence: the closed form of burning.

    True iff the k coverage balls together reach every vertex and no later
    source sits inside an earlier source's forbidden ball (which would mean
    it was already burned when placed).
    """
    balls, legal = _balls(G, sequence)
    return legal and len(set().union(*balls)) == G.n


def clusters(G: Graph, sequence) -> list[frozenset[int]]:
    """Per-source coverage balls of a valid sequence (radius k-i around source i)."""
    balls, legal = _balls(G, sequence)
    if not (legal and len(set().union(*balls)) == G.n):
        raise InvalidSequenceError("clusters are defined only for valid burning sequences")
    return [frozenset(ball) for ball in balls]
