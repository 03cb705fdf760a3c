"""Exact burning-number computation and cheap bounds.

Two engines: a permutation-enumeration oracle for tiny graphs, and an
iterative-deepening radius-cover search: at each depth k from the lower
bound it asks whether balls of radii k - 1, ..., 0 cover the graph, and
turns the first cover it finds into the witness.  Both return a verified
witness sequence.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from ._record import Record
from .burning import BurnSchedule, simulate
from .errors import NodeBudgetError, RejectedInputError, VertexCapError
from .families import _ceil_sqrt
from .graph import Graph, _bfs, _EccentricityBounds, _rows, components


class ExactResult(Record):
    """A proven burning number with a verified witness schedule."""

    k: int
    witness: BurnSchedule
    nodes_explored: int


def _grown(adjacency: list[list[int]], ball: list[int]) -> list[int]:
    """The radius-(r + 1) row of a ball table from ``ball``, its radius-r row:
    ball(v, r + 1) is ball(v, r) joined with ball(u, r) for every neighbour
    u, so a row costs n + 2m big-int ORs."""
    grown = []
    for v, neighbors in enumerate(adjacency):
        mask = ball[v]
        for u in neighbors:
            mask |= ball[u]
        grown.append(mask)
    return grown


def _ball_masks(G: Graph, k: int) -> list[list[int]]:
    """``masks[r][v]``: the bitmask of ball(v, r) for r < k, grown one radius
    at a time by ``_grown``."""
    masks = [[1 << v for v in range(G.n)]]
    while len(masks) < k:
        masks.append(_grown(G.adjacency, masks[-1]))
    return masks[:k]


def _tree_diameter(G: Graph, trees: list[frozenset[int]]) -> int:
    """The largest diameter among ``trees``, tree components of two or more
    vertices, by one double sweep: a run from each tree's smallest vertex,
    then one from each tree's farthest vertex.  Each tree holds one source
    of a run, so its distances are those of its own sweep."""
    first, _ = _bfs(G.adjacency, [min(tree) for tree in trees])
    second, _ = _bfs(G.adjacency, [max(tree, key=first.__getitem__) for tree in trees])
    return max(second)


def _is_tree(G: Graph, comp: frozenset[int]) -> bool:
    """A component with |E| = |V| - 1, so 2|V| - 2 edge ends."""
    return sum(len(G.adjacency[v]) for v in comp) == 2 * len(comp) - 2


def lower_bound(G: Graph) -> int:
    """Max of the component count, the square-root law for path forests, and
    the square-root of each tree component's diameter-path order.

    The diameters come from one double sweep over every tree of two or more
    vertices (see ``_tree_diameter``); a one-vertex tree gives 1, which the
    component count already reaches.
    """
    comps = components(G)
    bound = len(comps)
    # a path forest: max degree 2 and acyclic, so every component has |E| = |V| - 1
    if all(len(neighbors) <= 2 for neighbors in G.adjacency) and G.edge_count == G.n - len(comps):
        bound = max(bound, _ceil_sqrt(G.n))
    trees = [comp for comp in comps if len(comp) > 1 and _is_tree(G, comp)]
    if trees:
        bound = max(bound, _ceil_sqrt(_tree_diameter(G, trees) + 1))
    return bound


def upper_bound_radius(G: Graph) -> int:
    """Radius bound: worst component radius plus the number of components.

    A component's radius is the least eccentricity among its vertices.  Three
    kinds of component have it without a bounding run: a single vertex has
    radius 0; a tree of diameter D has radius ceil(D / 2), and one double
    sweep gives the largest D over all trees at once (see ``_tree_diameter``);
    a cycle, a component whose every degree is 2, has radius floor(|C| / 2).
    Any other component bounds eccentricities with a few BFS runs on its own
    rows (``graph._rows``; the graph's own when it is the whole graph), which
    stop once its least lower bound equals its least upper bound (see
    ``graph._EccentricityBounds``).  On a vertex-transitive
    component the bounds do not close, and after a few runs the fallback
    finishes with one plain BFS per undecided vertex.
    """
    comps = components(G)
    radius = 0
    trees = []
    for comp in comps:
        if len(comp) == 1:
            continue
        if _is_tree(G, comp):
            trees.append(comp)
        elif all(len(G.adjacency[v]) == 2 for v in comp):  # connected and 2-regular: a cycle
            radius = max(radius, len(comp) // 2)
        else:
            rows = G.adjacency if len(comp) == G.n else _rows(G.adjacency, sorted(comp))
            radius = max(radius, _EccentricityBounds(rows).radius())
    if trees:
        radius = max(radius, (_tree_diameter(G, trees) + 1) // 2)
    return radius + len(comps)


def burning_number_bruteforce(G: Graph, cap: int = 9) -> ExactResult:
    """Try every ordered vertex tuple by increasing length; first hit wins.

    Tuples are tested by the closed form on the ball masks of ``_ball_masks``.
    The first verifying tuple in enumeration order is also the
    lexicographically smallest witness of minimum length.
    """
    if G.n == 0:
        raise RejectedInputError("burning number undefined for the empty graph")
    if G.n > cap:
        raise VertexCapError(G.n, cap)
    full = (1 << G.n) - 1
    nodes = 0
    for k in range(1, G.n + 1):
        masks = _ball_masks(G, k)
        for S in itertools.permutations(range(G.n), k):
            nodes += 1
            if _burns(masks, full, S):
                return ExactResult(k, simulate(G, S).schedule, nodes)
    raise AssertionError("a burning sequence of length n always exists")


def _burns(masks: list[list[int]], full: int, S: tuple[int, ...]) -> bool:
    """x_1..x_k burns G: no x_j in ball(x_i, j - i - 1), and the balls ball(x_i, k - i) cover V."""
    k = len(S)
    covered = 0
    for i, x in enumerate(S):
        for j in range(i + 1, k):
            if masks[j - i - 1][x] >> S[j] & 1:
                return False
        covered |= masks[k - i - 1][x]
    return covered == full


class _OutOfBudget(Exception):
    """A search needed more nodes than its budget."""


class _Cover:
    """Decides whether balls of radii k - 1, ..., 0, one each, cover V, which
    holds exactly when b(G) <= k (Bonato, Janssen & Roshanbin 2016).

    One run from every component's smallest vertex, its root, orders the
    vertices: bit i of a mask is the i-th vertex it reaches, and the search
    runs on the rows renamed to bits (``graph._rows``), so vertex ids appear
    only in reported centres.  u, the uncovered vertex of highest bit, is one
    of the farthest from its root.  A node branches on which remaining radius
    r covers u and on the ball's centre, which lies within r of u.  A cover
    it finds keeps the centre it chose for each radius, and ``_repair`` turns
    those into a burning sequence.  On every graph a memo of failed
    (uncovered, radii) states prunes, and so does packing: uncovered vertices
    picked by falling bit, each more than 2·r_max from the earlier picks,
    need a ball each.

    On a forest, u's parent is its one neighbour of smaller bit, as bits are
    in breadth-first order, and every uncovered vertex that some radius-r
    ball around u covers lies in ball(a, r), where a is u's ancestor at
    distance r, or the root when u is shallower (the exchange argument for
    tree centres, Kariv & Hakimi 1979).  So the ancestor is the only centre,
    a radius that leaves what a smaller one leaves is skipped, and each ball
    mask is built on first use.

    Off forests every vertex within r of u is a centre.  The balls come from
    one table in bit order, ``balls[r][v]`` for r <= 2k - 2 (packing reads
    radius 2·r_max), grown one radius at a time as deeper k ask for it.  A
    branch whose rest contains another branch's rest at no larger radius is
    dropped: a cover of the larger rest, with the other branch's ball widened
    to the larger radius, which stays available, covers the smaller rest.
    Capacity prunes too: the uncovered vertices outnumber the sum, over the
    remaining radii, of the largest gain of any ball of that radius.
    """

    def __init__(self, G: Graph, budget: int | None):
        self.budget = budget
        self.nodes = 0
        comps = components(G)
        self.vertex = _bfs(G.adjacency, [min(comp) for comp in comps])[1]  # bit -> vertex
        self.rows = _rows(G.adjacency, self.vertex)
        self.forest = G.edge_count == G.n - len(comps)
        if self.forest:
            self.parent = [next((u for u in row if u < i), -1) for i, row in enumerate(self.rows)]
            self.masks: dict[tuple[int, int], int] = {}
        else:
            self.balls = [[1 << i for i in range(G.n)]]
            self.largest = [1]  # the size of each row's largest ball
        self.full = (1 << G.n) - 1
        self.failed: set[tuple[int, int]] = set()

    def _mask(self, centre: int, radius: int) -> int:
        mask = self.masks.get((centre, radius))
        if mask is None:
            mask = 0
            for i in _bfs(self.rows, (centre,), radius)[1]:
                mask |= 1 << i
            self.masks[centre, radius] = mask
        return mask

    def _packs(self, uncovered: int, radii: int) -> bool:
        """More uncovered vertices lie pairwise beyond 2·r_max than radii remain."""
        reach = 2 * (radii.bit_length() - 1)
        left = radii.bit_count()
        while uncovered:
            if not left:
                return True
            left -= 1
            top = uncovered.bit_length() - 1
            ball = self._mask(top, reach) if self.forest else self.balls[reach][top]
            uncovered &= ~ball
        return False

    def _short(self, uncovered: int, radii: int) -> bool:
        """The uncovered vertices outnumber what balls of the ``radii`` can
        gain, each at most the largest gain of its radius.  A row's scan
        stops at a gain equal to its largest ball, which no ball beats."""
        need = uncovered.bit_count()
        for r in range(radii.bit_length() - 1, -1, -1):
            if radii >> r & 1:
                best, largest = 0, self.largest[r]
                for ball in self.balls[r]:
                    gain = (ball & uncovered).bit_count()
                    if gain > best:
                        if gain >= need:
                            return False
                        best = gain
                        if gain == largest:
                            break
                need -= best
        return True

    def _forest_branches(self, uncovered: int, radii: int) -> Iterable[tuple[int, tuple[int, int]]]:
        """``(rest, (radius, centre))`` for each radius that covers u by its
        ancestor, the largest radius first."""
        # what each radius leaves -> the smallest such radius and its centre
        rests: dict[int, tuple[int, int]] = {}
        centre, climbed = uncovered.bit_length() - 1, 0
        for r in range(radii.bit_length()):
            if radii >> r & 1:
                while climbed < r and self.parent[centre] >= 0:
                    centre, climbed = self.parent[centre], climbed + 1
                rests.setdefault(uncovered & ~self._mask(centre, r), (r, self.vertex[centre]))
        return reversed(rests.items())

    def _branches(self, uncovered: int, radii: int) -> list[tuple[int, tuple[int, int]]]:
        """``(rest, (radius, centre))`` for each radius and each centre within
        it of u that no other branch dominates, the largest radius first."""
        top = uncovered.bit_length() - 1
        candidates = []
        for r in range(radii.bit_length()):
            if radii >> r & 1:
                row = self.balls[r]
                near = row[top]
                while near:
                    c = near.bit_length() - 1
                    near ^= 1 << c
                    rest = uncovered & ~row[c]
                    candidates.append((rest.bit_count(), r, rest, self.vertex[c]))
        candidates.sort()
        kept: list[tuple[int, tuple[int, int]]] = []
        for _, r, rest, centre in candidates:  # a dominating branch comes first
            for other_rest, (other_r, _) in kept:
                if other_r <= r and not other_rest & ~rest:
                    break
            else:
                kept.append((rest, (r, centre)))
        kept.sort(key=lambda branch: -branch[1][0])
        return kept

    def _covers(self, uncovered: int, radii: int) -> dict[int, int] | None:
        """The centre of each radius used to cover ``uncovered`` with balls of
        the ``radii`` (a bit per radius), or None when they cannot."""
        if not uncovered:
            return {}
        if (uncovered, radii) in self.failed or self._packs(uncovered, radii):
            return None
        if self.forest:
            branches = self._forest_branches(uncovered, radii)
        elif self._short(uncovered, radii):
            return None
        else:
            branches = self._branches(uncovered, radii)
        for rest, (r, centre) in branches:
            if self.nodes == self.budget:  # never true for a budget of None
                raise _OutOfBudget
            self.nodes += 1
            centres = self._covers(rest, radii & ~(1 << r))
            if centres is not None:
                centres[r] = centre
                return centres
        self.failed.add((uncovered, radii))
        return None

    def covers(self, k: int) -> dict[int, int] | None:
        """A cover of the graph by balls of radii k - 1, ..., 0, as the centre
        of each radius it uses (a radius it needs no ball of is missing), or
        None when there is none.  Off forests the ball table first grows to
        radius 2k - 2.  Each node entered adds one to ``nodes``, and one more
        than ``budget`` raises ``_OutOfBudget``."""
        if not self.forest:
            while len(self.balls) < 2 * k - 1:
                self.balls.append(_grown(self.rows, self.balls[-1]))
                self.largest.append(max(ball.bit_count() for ball in self.balls[-1]))
        return self._covers(self.full, (1 << k) - 1)


def _repair(G: Graph, k: int, centres: dict[int, int]) -> tuple[int, ...]:
    """A burning sequence of length k from ``centres``, a cover of G by balls
    of radii k - 1, ..., 0 (radius -> centre), at the least k that has one.

    Source i takes the centre of radius k - 1 - i.  A missing centre, or one
    already burned when it would be placed, gives way to the smallest
    unburned vertex.  Nothing is lost: an already burned centre lies in
    ball(x_t, i - t - 1) for an earlier source x_t, so its ball of radius
    k - 1 - i lies inside ball(x_t, k - 1 - t), which x_t covers.  An unburned
    vertex always remains, since otherwise fewer than k sources would burn G.
    The fire spreads as in ``simulate``: placement, then one hop from the
    vertices burned in the round before.
    """
    burned = [False] * G.n
    lowest = 0  # every vertex below it is burned
    frontier: list[int] = []
    sequence = []
    for r in range(k - 1, -1, -1):
        source = centres.get(r)
        if source is None or burned[source]:
            while burned[lowest]:
                lowest += 1
            source = lowest
        sequence.append(source)
        burned[source] = True
        reached = [source]
        for v in frontier:
            for u in G.adjacency[v]:
                if not burned[u]:
                    burned[u] = True
                    reached.append(u)
        frontier = reached
    return tuple(sequence)


def burning_number_exact(
    G: Graph,
    *,
    node_budget: int | None = None,
    workers: int = 1,
) -> ExactResult:
    """Iterative deepening from lower_bound(G) by radius cover.

    Returns the same k as the brute-force oracle with some verified witness
    (not necessarily the lexicographically smallest one).  One search (see
    ``_Cover``) asks at each depth k whether balls of radii k - 1, ..., 0 can
    cover the graph, branching on which radius, and off forests which
    centre, covers its farthest uncovered vertex; it keeps its memo and, off
    forests, its ball table from depth to depth.  The first depth it does
    not refute is b(G), and the centres of its cover become the witness (see
    ``_repair``).  ``nodes_explored`` counts the search's nodes over every
    depth.

    One node budget covers every depth, so ``nodes_explored`` never exceeds
    it: a search that needs more raises NodeBudgetError.  A budget of 0
    raises it with ``lower_bound(G)`` before anything is built.  A negative
    budget is rejected.  ``workers`` must be at least 1 and is otherwise
    ignored: the search is pure Python, so threads cannot speed it up, and
    the result and node count never depended on it.  The witness is checked
    by ``simulate`` before it is returned.
    """
    if G.n == 0:
        raise RejectedInputError("burning number undefined for the empty graph")
    if workers < 1:
        raise RejectedInputError("workers must be >= 1")
    if node_budget is not None and node_budget < 0:
        raise RejectedInputError(f"node budget must be >= 0, got {node_budget}")
    if node_budget == 0:
        raise NodeBudgetError(0, lower_bound(G), upper_bound_radius(G))
    k = lower_bound(G)
    cover = _Cover(G, node_budget)
    try:
        while (centres := cover.covers(k)) is None:
            k += 1
    except _OutOfBudget:
        raise NodeBudgetError(node_budget, k, upper_bound_radius(G)) from None
    found = _repair(G, k, centres)
    outcome = simulate(G, found)
    if not (outcome.valid and outcome.complete):
        raise AssertionError(f"witness {found} does not burn the graph in {k} rounds")
    return ExactResult(k, outcome.schedule, cover.nodes)
