"""Exact burning-number computation and cheap bounds.

Two engines: a permutation-enumeration oracle for tiny graphs, and an
iterative-deepening depth-first search with ball-coverage pruning that
handles larger instances; on forests, a radius-cover search takes its
place, refuting the depths below the optimum and turning the first cover
it finds into the witness.  Both return a verified witness sequence.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from operator import itemgetter

from ._record import Record
from .burning import BurnSchedule, simulate
from .errors import NodeBudgetError, RejectedInputError, VertexCapError
from .families import _ceil_sqrt
from .graph import Graph, _bfs, _EccentricityBounds, components


class ExactResult(Record):
    """A proven burning number with a verified witness schedule."""

    k: int
    witness: BurnSchedule
    nodes_explored: int


def _ball_masks(G: Graph, k: int) -> list[list[int]]:
    """``masks[r][v]``: the bitmask of ball(v, r) for r < k, grown one radius
    at a time: ball(v, r) is ball(v, r - 1) joined with ball(u, r - 1) for
    every neighbour u, so the table costs (k - 1)(n + 2m) big-int ORs."""
    ball = [1 << v for v in range(G.n)]
    masks = [ball]
    for _ in range(k - 1):
        previous, ball = ball, []
        for v, neighbors in enumerate(G.adjacency):
            mask = previous[v]
            for u in neighbors:
                mask |= previous[u]
            ball.append(mask)
        masks.append(ball)
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
    Any other component bounds eccentricities with a few BFS runs (see
    ``graph._EccentricityBounds``), which stop once the least lower bound in
    the component equals its least upper bound.  On a vertex-transitive
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
            radius = max(radius, _EccentricityBounds(G.adjacency, sorted(comp)).radius())
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


class _Search:
    """Depth-first cover search for one target length k.

    ``balls[r][v]`` is the bitmask of the radius-r ball around v, for every
    r < k, from ``_ball_masks``: (k - 1)(n + 2m) big-int ORs, one radius at a
    time.  By the closed form of the process, a vertex is a legal source at
    depth d when it lies outside ball(x_t, d - t - 1) for every earlier source
    x_t, so the legal set is the complement of one OR of table entries.

    Every uncovered vertex u is a legal source that covers itself, since
    d(u, x_t) > k - t - 1 >= d - t - 1, so the best gain is >= 1.  An illegal
    v gains nothing: d(v, x_t) <= d - t - 1 puts its ball of radius k - d - 1
    inside the covered ball(x_t, k - t - 1).  The one prune is capacity: the
    uncovered count exceeds the remaining balls' sizes, first uncapped, then
    capped by the best gain.  The uncapped sum is one table lookup.  The
    capped sum needs the best gain only to compare it with ``need``, the least
    gain that could still cover the uncovered vertices, which is >= 1; so a
    threshold scan of all balls by falling size decides it from coverage
    alone, until one reaches ``need`` or the sizes, which bound every gain,
    drop below it.  Only a node that passes both builds the legal set and
    ranks its candidates.
    """

    def __init__(self, G: Graph, k: int, budget: int | None):
        self.n = G.n
        self.k = k
        self.budget = budget
        self.nodes = 0
        self.full = (1 << G.n) - 1
        self.balls = _ball_masks(G, k)
        self.sizes = [[ball.bit_count() for ball in table] for table in self.balls]
        # capacity[r][g] = Σ_{r' <= r} min(g, max_ball[r']) for g <= max_ball[r]:
        # what balls of radii 0..r cover when no gain exceeds g.  A ball grows
        # with its radius, so max_ball rises and min(g, max_ball[r]) is g; and
        # capacity[r][-1], the sum of max_ball[r'], is all they can ever cover.
        self.capacity = []
        below = [0]
        for top in map(max, self.sizes):
            below = [below[min(g, len(below) - 1)] + g for g in range(top + 1)]
            self.capacity.append(below)
        self.by_size: list[list[tuple[int, int]] | None] = [None] * k

    def _largest_first(self, radius: int) -> list[tuple[int, int]]:
        """``(|ball|, ball)`` of every radius-``radius`` ball, largest first,
        sorted on first use: a search that stops early sorts few radii."""
        order = self.by_size[radius]
        if order is None:
            entries = zip(self.sizes[radius], self.balls[radius])
            order = self.by_size[radius] = sorted(entries, key=itemgetter(0), reverse=True)
        return order

    def _candidates(self, chosen: tuple[int, ...], covered: int) -> list[tuple[int, int]]:
        """The legal next sources as ``(-gain, v)``, best first."""
        depth = len(chosen)
        burned = 0  # the vertices no source at this depth may take
        for t, x in enumerate(chosen):
            burned |= self.balls[depth - t - 1][x]
        uncovered = self.full & ~covered
        balls = self.balls[self.k - depth - 1]
        return sorted(
            (-(balls[v] & uncovered).bit_count(), v)
            for v in range(self.n)
            if not burned >> v & 1
        )

    def run(self, chosen: tuple[int, ...], covered: int) -> tuple[int, ...] | None:
        """Extend ``chosen`` to a full-length covering sequence, or None.

        ``run((), 0)`` searches the whole depth.  Every node entered below
        ``chosen`` adds one to ``nodes``; rather than enter one more than
        ``budget`` nodes, the search stops with ``_OutOfBudget``.
        """
        depth = len(chosen)
        if depth == self.k:
            return chosen if covered == self.full else None
        uncovered = self.full & ~covered
        uncovered_count = uncovered.bit_count()
        radius = self.k - depth - 1
        if uncovered_count > self.capacity[radius][-1]:
            return None
        if uncovered_count:
            # the least best gain whose capped capacity still covers them all
            need = bisect_left(self.capacity[radius], uncovered_count)
            for size, ball in self._largest_first(radius):
                if size < need:
                    return None
                if (ball & uncovered).bit_count() >= need:
                    break
            else:
                return None
        ranked = self._candidates(chosen, covered)
        balls = self.balls[radius]
        for _, v in ranked:
            if self.nodes == self.budget:  # never true for a budget of None
                raise _OutOfBudget
            self.nodes += 1
            result = self.run(chosen + (v,), covered | balls[v])
            if result is not None:
                return result
        return None


class _ForestCover:
    """Decides on a forest whether balls of radii k - 1, ..., 0, one each, cover
    V, which holds exactly when b(G) <= k (Bonato, Janssen & Roshanbin 2016).

    One run from every component's smallest vertex, its root, gives the
    depths, and bit i of a mask is the i-th vertex it reaches, so the deepest
    uncovered vertex u is the highest set bit; u's parent is its neighbour
    one level shallower.  Every uncovered vertex that some radius-r ball
    around u covers lies in ball(a, r), where a is u's ancestor at distance
    r, or the root when u is shallower (the exchange argument for tree
    centres, Kariv & Hakimi 1979).  So a node branches only on which
    remaining radius covers u.  A cover it finds keeps the centre it chose
    for each radius, and ``_repair`` turns those into a burning sequence.
    Three rules prune: packing (uncovered vertices picked deepest first, each
    more than 2·r_max from the earlier picks, need a ball each), dominance (a
    radius that leaves what a smaller one leaves is skipped) and a memo of
    failed (uncovered, radii) states.  Ball masks are built on first use.
    """

    def __init__(self, G: Graph, budget: int | None):
        self.adjacency = G.adjacency
        self.budget = budget
        self.nodes = 0
        depth, self.vertex = _bfs(self.adjacency, [min(comp) for comp in components(G)])  # bit -> vertex
        self.parent = [-1] * G.n
        for v in self.vertex:
            for u in self.adjacency[v]:
                if depth[u] > depth[v]:
                    self.parent[u] = v
        self.bit = [0] * G.n
        for i, v in enumerate(self.vertex):
            self.bit[v] = i
        self.full = (1 << G.n) - 1
        self.masks: dict[tuple[int, int], int] = {}
        self.failed: set[tuple[int, int]] = set()

    def _mask(self, centre: int, radius: int) -> int:
        mask = self.masks.get((centre, radius))
        if mask is None:
            bit = self.bit
            mask = 0
            for v in _bfs(self.adjacency, (centre,), radius)[1]:
                mask |= 1 << bit[v]
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
            uncovered &= ~self._mask(self.vertex[uncovered.bit_length() - 1], reach)
        return False

    def _covers(self, uncovered: int, radii: int) -> dict[int, int] | None:
        """The centre of each radius used to cover ``uncovered`` with balls of
        the ``radii`` (a bit per radius), or None when they cannot."""
        if not uncovered:
            return {}
        if (uncovered, radii) in self.failed or self._packs(uncovered, radii):
            return None
        u = self.vertex[uncovered.bit_length() - 1]
        # what each radius leaves -> the smallest such radius and its centre
        rests: dict[int, tuple[int, int]] = {}
        centre, climbed = u, 0
        for r in range(radii.bit_length()):
            if radii >> r & 1:
                while climbed < r and self.parent[centre] >= 0:
                    centre, climbed = self.parent[centre], climbed + 1
                rests.setdefault(uncovered & ~self._mask(centre, r), (r, centre))
        for rest, (r, centre) in reversed(rests.items()):  # the largest radius first
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
        """A cover of the forest by balls of radii k - 1, ..., 0, as the centre of
        each radius it uses (a radius it needs no ball of is missing), or None
        when there is none.  Each node entered adds one to ``nodes``, and one
        more than ``budget`` raises ``_OutOfBudget``."""
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
    """Iterative deepening from lower_bound(G) with coverage pruning.

    Returns the same k as the brute-force oracle with some verified witness
    (not necessarily the lexicographically smallest one).  Each depth k
    builds one search holding the radius-r ball masks for r < k, grown one
    radius at a time in (k - 1)(n + 2m) big-int ORs; a vertex is a legal next
    source when it lies outside ball(x_t, depth - t - 1) for every earlier
    source x_t.  A node checks the capacity prune before it
    ranks anything: first the reachable sum (the uncovered count against the
    remaining balls' largest sizes), then a threshold scan of the balls by
    falling size for one whose gain is at least the least best gain that can
    still cover the uncovered vertices; an illegal vertex's ball is already
    covered, so legality never enters the scan.  Only a node that survives
    both sorts its legal candidates by gain.

    On a forest (|E| = n minus the component count) the search above never
    runs.  A refuter asks instead, at each depth k, whether balls of radii
    k - 1, ..., 0 can cover the graph, branching only on which radius covers
    the deepest uncovered vertex (see ``_ForestCover``).  The first depth it
    does not refute is b(G), and the centres of its cover become the witness
    (see ``_repair``).  ``nodes_explored`` counts the refuter's nodes.

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
    try:
        if G.edge_count == G.n - len(components(G)):  # a forest
            cover = _ForestCover(G, node_budget)
            while (centres := cover.covers(k)) is None:
                k += 1
            found, nodes = _repair(G, k, centres), cover.nodes
        else:
            nodes = 0
            while True:  # at k = n every vertex is a legal source, so a search settles
                search = _Search(G, k, None if node_budget is None else node_budget - nodes)
                found = search.run((), 0)
                nodes += search.nodes
                if found is not None:
                    break
                k += 1
    except _OutOfBudget:
        raise NodeBudgetError(node_budget, k, upper_bound_radius(G)) from None
    outcome = simulate(G, found)
    if not (outcome.valid and outcome.complete):
        raise AssertionError(f"witness {found} does not burn the graph in {k} rounds")
    return ExactResult(k, outcome.schedule, nodes)
