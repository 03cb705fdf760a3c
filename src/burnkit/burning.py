"""Burning-process semantics: step simulation, coverage, and verification.

A burning run places one new fire source per round and then spreads fire one
hop from everything burned in earlier rounds.  A sequence of k sources is
valid when no source lands on an already-burned vertex, and complete when
round k leaves no vertex unburned.

``simulate`` is the one implementation of the process; ``coverage``,
``covers_all`` and ``verify`` read its outcome.  The closed-form lemma
(Bonato, Janssen & Roshanbin 2016) states what it computes: with sources
x_0..x_{k-1}, the run is valid iff d(x_i, x_j) >= j - i for every i < j, and
it burns the union of the balls of radius k-1-i around x_i.
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
    running, so the final burned set is still the union of all k balls.
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


def coverage(G: Graph, sequence) -> set[int]:
    """The vertices a k-round run burns: by the closed-form lemma, the union
    of the balls of radius k-1-i around sources i = 0..k-1, an illegal source
    included, as it lies inside an earlier source's ball."""
    steps = simulate(G, sequence).schedule.burn_step
    return {v for v, step in enumerate(steps) if step is not None}


def covers_all(G: Graph, sequence) -> bool:
    """Whether a k-round run burns every vertex."""
    return simulate(G, sequence).complete


def verify(G: Graph, sequence) -> bool:
    """Whether ``sequence`` is a burning sequence, a run of it valid and
    complete: by the closed-form lemma, d(x_i, x_j) >= j - i for every i < j
    and the coverage balls reach every vertex."""
    outcome = simulate(G, sequence)
    return outcome.valid and outcome.complete


def clusters(G: Graph, sequence) -> list[frozenset[int]]:
    """Per-source balls of a burning sequence: radius k-1-i around source i = 0..k-1."""
    S = tuple(sequence)
    if not verify(G, S):
        raise InvalidSequenceError("clusters are defined only for valid burning sequences")
    k = len(S)
    return [frozenset(_bfs(G.adjacency, (source,), k - i - 1)[1]) for i, source in enumerate(S)]
