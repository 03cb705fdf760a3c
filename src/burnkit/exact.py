"""Exact burning-number computation and cheap bounds.

Two engines: a permutation-enumeration oracle for tiny graphs, and an
iterative-deepening depth-first search with ball-coverage pruning that
handles larger instances.  Both return a verified witness sequence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .burning import BurnSchedule, simulate
from .errors import NodeBudgetError, RejectedInputError, VertexCapError
from .families import _ceil_sqrt
from .graph import UNREACHED, Graph, _bfs, components

_FAR = 1 << 30  # larger than any finite distance


@dataclass(frozen=True)
class ExactResult:
    """A proven burning number with a verified witness schedule."""

    k: int
    witness: BurnSchedule
    nodes_explored: int


def _distance_matrix(G: Graph) -> list[list[int]]:
    rows = []
    for v in range(G.n):
        row = _bfs(G.adjacency, v)
        rows.append([_FAR if d == UNREACHED else d for d in row])
    return rows


def _is_path_forest(G: Graph) -> bool:
    if any(len(neighbors) > 2 for neighbors in G.adjacency):
        return False
    # acyclic with max degree 2 <=> every component has |E| = |V| - 1
    return G.edge_count == G.n - len(components(G))


def lower_bound(G: Graph) -> int:
    """Max of the component count, the square-root law for path forests, and
    the square-root of each tree component's diameter-path order."""
    comps = components(G)
    bound = len(comps)
    if G.n and _is_path_forest(G):
        bound = max(bound, _ceil_sqrt(G.n))
    for comp in comps:
        members = sorted(comp)
        edge_ends = sum(len(G.adjacency[v]) for v in members)
        if edge_ends // 2 != len(members) - 1:
            continue  # not a tree
        # double BFS finds a tree diameter exactly
        first = _bfs(G.adjacency, members[0])
        far = max(members, key=lambda v: first[v])
        second = _bfs(G.adjacency, far)
        diameter_order = max(second[v] for v in members) + 1
        bound = max(bound, _ceil_sqrt(diameter_order))
    return bound


def upper_bound_radius(G: Graph) -> int:
    """Radius bound: worst component radius plus the number of components."""
    comps = components(G)
    worst_radius = 0
    for comp in comps:
        members = sorted(comp)
        radius = min(max(_bfs(G.adjacency, v)[u] for u in members) for v in members)
        worst_radius = max(worst_radius, radius)
    return worst_radius + len(comps)


def burning_number_bruteforce(G: Graph, cap: int = 9) -> ExactResult:
    """Try every ordered vertex tuple by increasing length; first hit wins.

    The first verifying tuple in enumeration order is also the
    lexicographically smallest witness of minimum length.
    """
    if G.n == 0:
        raise RejectedInputError("burning number undefined for the empty graph")
    if G.n > cap:
        raise VertexCapError(G.n, cap)
    dist = _distance_matrix(G)
    nodes = 0
    for k in range(1, G.n + 1):
        for S in itertools.permutations(range(G.n), k):
            nodes += 1
            if _verify_by_matrix(dist, G.n, S):
                return ExactResult(k, simulate(G, S).schedule, nodes)
    raise AssertionError("a burning sequence of length n always exists")


def _verify_by_matrix(dist: list[list[int]], n: int, S: tuple[int, ...]) -> bool:
    k = len(S)
    for i in range(k):
        row = dist[S[i]]
        for j in range(i + 1, k):
            if row[S[j]] < j - i:
                return False
    covered = 0
    for v in range(n):
        if any(dist[x][v] <= k - i - 1 for i, x in enumerate(S)):
            covered += 1
    return covered == n


class _Search:
    """Depth-first cover search for one target length k."""

    def __init__(self, G: Graph, dist: list[list[int]], k: int, budget: int | None):
        self.n = G.n
        self.dist = dist
        self.k = k
        self.budget = budget
        self.nodes = 0
        self.full = (1 << G.n) - 1
        self._ball_cache: dict[tuple[int, int], int] = {}
        max_ball = [0] * k
        for r in range(k):
            best = 0
            for v in range(G.n):
                row = dist[v]
                size = sum(1 for u in range(G.n) if row[u] <= r)
                if size > best:
                    best = size
            max_ball[r] = best
        self.max_ball = max_ball
        # reachable[j] bounds how much j balls of radii 0..j-1 can ever cover
        self.reachable = [0] * (k + 1)
        for j in range(1, k + 1):
            self.reachable[j] = self.reachable[j - 1] + max_ball[j - 1]

    def ball(self, v: int, r: int) -> int:
        key = (v, r)
        mask = self._ball_cache.get(key)
        if mask is None:
            row = self.dist[v]
            mask = 0
            for u in range(self.n):
                if row[u] <= r:
                    mask |= 1 << u
            self._ball_cache[key] = mask
        return mask

    def _candidates(
        self, chosen: tuple[int, ...], covered: int
    ) -> tuple[list[tuple[int, int]], int]:
        depth = len(chosen)
        radius = self.k - depth - 1
        uncovered = self.full & ~covered
        ranked = []
        legal_mask = 0
        for v in range(self.n):
            legal = True
            for t, x in enumerate(chosen):
                if self.dist[x][v] < depth - t:
                    legal = False
                    break
            if not legal:
                continue
            legal_mask |= 1 << v
            gain = (self.ball(v, radius) & uncovered).bit_count()
            ranked.append((-gain, v))
        ranked.sort()
        return ranked, legal_mask

    def run(self, chosen: tuple[int, ...], covered: int) -> tuple[int, ...] | None:
        """Extend ``chosen`` to a full-length covering sequence, or None."""
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise NodeBudgetError(self.budget, 0, 0)  # bounds filled by caller
        depth = len(chosen)
        if depth == self.k:
            return chosen if covered == self.full else None
        uncovered = self.full & ~covered
        uncovered_count = uncovered.bit_count()
        remaining = self.k - depth
        if uncovered_count > self.reachable[remaining]:
            return None
        ranked, legal_mask = self._candidates(chosen, covered)
        radius = self.k - depth - 1
        if uncovered_count:
            if not ranked or -ranked[0][0] == 0:
                return None  # nothing legal can still reach the uncovered set
            # balls only shrink and legality only tightens, so no future
            # source can gain more than the best current candidate does
            best_gain = -ranked[0][0]
            achievable = sum(min(best_gain, self.max_ball[r]) for r in range(radius + 1))
            if uncovered_count > achievable:
                return None
            # a vertex with no legal candidate inside the current radius is
            # lost for good
            probe = uncovered
            while probe:
                low = probe & -probe
                if not self.ball(low.bit_length() - 1, radius) & legal_mask:
                    return None
                probe ^= low
        for negative_gain, v in ranked:
            if uncovered_count and negative_gain == 0 and remaining == 1:
                return None  # the last ball must finish the job
            result = self.run(chosen + (v,), covered | self.ball(v, radius))
            if result is not None:
                return result
        return None


def burning_number_exact(
    G: Graph,
    *,
    node_budget: int | None = None,
    workers: int = 1,
) -> ExactResult:
    """Iterative deepening from lower_bound(G) with coverage pruning.

    Returns the same k as the brute-force oracle with some verified witness
    (not necessarily the lexicographically smallest one).  Root subtrees are
    searched one after another in candidate order up to the first success;
    each root may use the node budget left at the start of its depth.
    ``workers`` must be at least 1 and is otherwise ignored: the search is
    pure Python, so threads cannot speed it up, and the result and node count
    never depended on it.
    """
    if G.n == 0:
        raise RejectedInputError("burning number undefined for the empty graph")
    if workers < 1:
        raise RejectedInputError("workers must be >= 1")
    dist = _distance_matrix(G)
    total_nodes = 0
    start = max(1, lower_bound(G))
    for k in range(start, G.n + 1):
        probe = _Search(G, dist, k, None)
        if G.n > probe.reachable[k]:
            continue  # coverage can never suffice at this depth
        roots, _ = probe._candidates((), 0)
        budget_left = None if node_budget is None else node_budget - total_nodes
        for _, root in roots:
            search = _Search(G, dist, k, budget_left)
            try:
                found = search.run((root,), search.ball(root, k - 1))
            except NodeBudgetError:
                raise NodeBudgetError(node_budget, k, upper_bound_radius(G)) from None
            total_nodes += search.nodes
            if found is not None:
                return ExactResult(k, simulate(G, found).schedule, total_nodes)
            if node_budget is not None and total_nodes > node_budget:
                raise NodeBudgetError(node_budget, k, upper_bound_radius(G))
    raise AssertionError("a burning sequence of length n always exists")
