"""Companion contact processes: firefighting and bootstrap percolation.

Firefighting is the dual game: fire starts at one vertex, one vertex per
round is permanently protected, and the goal is to maximize the vertices
that never burn.  Bootstrap percolation infects any vertex seeing at least
r infected neighbors until a fixed point.
"""

from __future__ import annotations

from ._record import Record
from .errors import RejectedInputError, VertexCapError
from .graph import Graph, _check_vertices


class FirefightRun(Record):
    """Outcome of one firefighting simulation.

    ``burned_steps`` holds the cumulative burned set after each round,
    starting with round 1 (the origin).  ``saved`` counts vertices never
    burned.  Invalid runs carry the offending round in ``violation``.
    """

    origin: int
    placements: tuple[int, ...]
    burned_steps: tuple[frozenset[int], ...]
    protected: frozenset[int]
    saved: int
    valid: bool
    violation: tuple[int, str] | None


def _spread(adjacency, burned, blocked) -> set[int]:
    """Neighbors of ``burned`` that are neither burned nor in ``blocked``."""
    return {u for v in burned for u in adjacency[v] if u not in burned and u not in blocked}


def verify_firefighter(G: Graph, s: int, placements) -> FirefightRun:
    """Simulate a placement sequence against a fire starting at ``s``.

    Round 1 burns ``s``; each later round places the next firefighter (on an
    unburned, unprotected vertex, or the run is invalid) and then spreads
    fire to unprotected neighbors of burned vertices.  The run stops once a
    round spreads nothing; leftover placements are never consumed.
    """
    _check_vertices(G, (s,), "fire origin")
    S = tuple(placements)
    _check_vertices(G, S, "placement vertex")
    burned = {s}
    protected: set[int] = set()
    steps = [frozenset(burned)]
    step = 1
    violation = None
    while True:
        step += 1
        if step - 2 < len(S):
            vertex = S[step - 2]
            if vertex in burned or vertex in protected:
                state = "burned" if vertex in burned else "protected"
                violation = (step, f"vertex {vertex} already {state}")
                break
            protected.add(vertex)
        spread = _spread(G.adjacency, burned, protected)
        burned |= spread
        steps.append(frozenset(burned))
        if not spread:
            break
    return FirefightRun(
        origin=s,
        placements=S,
        burned_steps=tuple(steps),
        protected=frozenset(protected),
        saved=G.n - len(burned),
        valid=violation is None,
        violation=violation,
    )


def _search_strategies(G: Graph, s: int, max_placements: int) -> FirefightRun:
    """Best strategy by (most saved, fewest placements, lexicographic order).

    Depth-first over placement prefixes, ranked by the least key (final
    burned count, placements, sequence); once no spread is possible, longer
    sequences change nothing and are skipped.  A prefix is not extended once
    (burned so far, placements + 1) is no less than the best key's first two
    parts: each extension burns at least as much with one more firefighter,
    and the search meets sequences in lexicographic order, so an extension
    that only ties the best comes after it.
    """
    adjacency = G.adjacency
    best = None

    def dfs(sequence: tuple[int, ...], burned: set[int], protected: set[int]) -> None:
        nonlocal best
        final = set(burned)
        while spread := _spread(adjacency, final, protected):
            final |= spread
        key = (len(final), len(sequence), sequence)
        best = key if best is None else min(best, key)
        if len(sequence) >= max_placements or len(final) == len(burned):
            return
        if (len(burned), len(sequence) + 1) >= best[:2]:
            return
        for vertex in range(G.n):
            if vertex not in burned and vertex not in protected:
                blocked = protected | {vertex}
                dfs(sequence + (vertex,), burned | _spread(adjacency, burned, blocked), blocked)

    dfs((), {s}, set())
    return verify_firefighter(G, s, best[2])


def firefight_bruteforce(G: Graph, s: int, cap: int = 9) -> FirefightRun:
    """Optimal firefighting by exhaustive strategy search (tiny graphs only)."""
    _check_vertices(G, (s,), "fire origin")
    if G.n > cap:
        raise VertexCapError(G.n, cap)
    return _search_strategies(G, s, max_placements=G.n)


def firefight_pk_free(G: Graph, s: int, k: int) -> FirefightRun:
    """Optimal firefighting for graphs with no induced path on k vertices.

    Such graphs never need more than k-2 placements, so the bounded search
    is polynomial for fixed k.  The caller asserts the structural property.
    """
    _check_vertices(G, (s,), "fire origin")
    if k < 2:
        raise RejectedInputError("path bound k must be at least 2")
    return _search_strategies(G, s, max_placements=k - 2)


class PercolationRun(Record):
    seed: frozenset[int]
    threshold: int
    timeline: tuple[frozenset[int], ...]
    percolates: bool

    @property
    def steps(self) -> int:
        return len(self.timeline) - 1


def bootstrap_percolate(G: Graph, A, r: int) -> PercolationRun:
    """Iterate infection to a fixed point: a healthy vertex becomes infected
    once at least r vertices of its closed neighborhood are infected.

    A healthy vertex is not itself infected, so only its infected
    neighbors count toward r.
    """
    seed = frozenset(A)
    _check_vertices(G, seed, "seed vertex")
    if r < 2:
        raise RejectedInputError("infection threshold must be at least 2")
    timeline = [seed]
    current = set(seed)
    while True:
        infected = {
            v
            for v in range(G.n)
            if v not in current
            and sum(1 for u in G.adjacency[v] if u in current) >= r
        }
        if not infected:
            break
        current |= infected
        timeline.append(frozenset(current))
    return PercolationRun(
        seed=seed,
        threshold=r,
        timeline=tuple(timeline),
        percolates=len(current) == G.n,
    )
