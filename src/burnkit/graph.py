"""Immutable undirected graphs plus geometric builders.

Vertices are dense integers ``0..n-1``.  The geometric builders (interval
sets, permutation pairs, disk arrangements) use exact rational arithmetic so
adjacency decisions never flip with floating-point rounding.  Overlap is
closed-set: intervals or disks that share exactly one boundary point count
as overlapping.

The interval and disk builders decide adjacency in one integer frame: every
coordinate c becomes ``c.numerator * (L // c.denominator)``, where L is the
lcm of the input's denominators, so every comparison is between plain ints.
L is capped at ``_FRAME_BITS`` bits, because n distinct denominators can
make it the product of all of them, carried by every coordinate.  Past the
cap the builders sort the exact ``Fraction`` keys instead, and the disk test
scales each pair by its own denominators (see ``disk_graph``).

Every breadth-first distance in burnkit comes from one private kernel,
``_bfs``: a run from several sources, bounded by a radius or not.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from fractions import Fraction

from ._record import Record
from .errors import DisconnectedGraphError, RejectedInputError

UNREACHED = -1


class Graph(Record):
    """Simple undirected graph held as sorted per-vertex neighbor tuples.

    Direct construction, ``Graph(n, adjacency)``, validates the rows it is
    given: no self-loops, no parallel edges, symmetric adjacency, every
    endpoint below ``n``.  The builders all go through ``from_edge_list``,
    which checks the edge list once and constructs valid rows, so their graphs
    skip this second check.  Instances are immutable and safe to share across
    threads; the components are walked once, when first asked for, and kept.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "adjacency", tuple(tuple(row) for row in self.adjacency)
        )
        if self.n < 0:
            raise RejectedInputError("vertex count must be nonnegative")
        if len(self.adjacency) != self.n:
            raise RejectedInputError("adjacency list length must equal vertex count")
        transposed: list[list[int]] = [[] for _ in range(self.n)]
        for v, neighbors in enumerate(self.adjacency):
            previous = -1
            for u in neighbors:
                if not 0 <= u < self.n:
                    raise RejectedInputError(f"edge endpoint {u} out of range")
                if u == v:
                    raise RejectedInputError(f"self-loop at vertex {v}")
                if u <= previous:
                    raise RejectedInputError(
                        f"adjacency of vertex {v} must be strictly increasing"
                    )
                previous = u
                transposed[u].append(v)  # in increasing v, like a valid row
        # symmetric iff every row equals its transposed row
        if self.adjacency != tuple(map(tuple, transposed)):
            v, u = next(
                (v, u) for v, row in enumerate(self.adjacency) for u in row
                if v not in self.adjacency[u]
            )
            raise RejectedInputError(f"edge ({v}, {u}) lacks its mirror arc")

    @property
    def _components(self) -> tuple[frozenset[int], ...]:
        """Connected components, ordered by their smallest vertex: one walk per
        graph.  The walk is kept by ``object.__setattr__``, as the fields
        are; a write into the instance ``__dict__``, as
        ``functools.cached_property`` makes, would cost CPython the inline
        attribute values and slow every later ``n`` or ``adjacency`` read."""
        walked = getattr(self, "_walked", None)
        if walked is None:
            walked = _component_walk(self.adjacency)
            object.__setattr__(self, "_walked", walked)
        return walked

    @property
    def edge_count(self) -> int:
        return sum(len(neighbors) for neighbors in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ordered pairs (u, v) with u < v."""
        return [(v, u) for v in range(self.n) for u in self.adjacency[v] if v < u]


def _component_walk(adjacency: Sequence[Sequence[int]]) -> tuple[frozenset[int], ...]:
    """Connected components, ordered by their smallest vertex."""
    seen = [False] * len(adjacency)
    out = []
    for start in range(len(adjacency)):
        if not seen[start]:
            seen[start] = True
            reached = [start]
            for v in reached:  # the list grows as the search reaches vertices
                for u in adjacency[v]:
                    if not seen[u]:
                        seen[u] = True
                        reached.append(u)
            out.append(frozenset(reached))
    return tuple(out)


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicates collapse, isolated vertices stay.

    The list is checked here, once: the first edge with an endpoint out of
    range, in input order, then a negative ``n``, then the smallest self-loop
    vertex.  The rows it then builds are sorted and symmetric by
    construction, so the graph skips ``Graph``'s check of every row.
    """
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise RejectedInputError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    if n < 0:
        raise RejectedInputError("vertex count must be nonnegative")
    for v, neighbors in enumerate(neighbor_sets):
        if v in neighbors:
            raise RejectedInputError(f"self-loop at vertex {v}")
    graph = object.__new__(Graph)
    object.__setattr__(graph, "n", n)
    object.__setattr__(graph, "adjacency", tuple(tuple(sorted(s)) for s in neighbor_sets))
    return graph


def _bfs(
    adjacency: Sequence[Sequence[int]], sources: Iterable[int], radius: int | None = None
) -> tuple[list[int], list[int]]:
    """``(dist, reached)``: a dense row of the hops from the nearest source,
    UNREACHED past ``radius`` (None: unbounded) and in other components, and
    the vertices that have a distance, in breadth-first order: the sources
    first, deduplicated and in the order given.  A negative radius reaches
    the sources alone; the run stops at its first vertex at distance radius.
    """
    dist = [UNREACHED] * len(adjacency)
    reached = []
    for source in sources:
        if dist[source] == UNREACHED:
            dist[source] = 0
            reached.append(source)
    if radius is None:
        radius = len(adjacency)  # past every distance
    for v in reached:  # the list grows as the search reaches vertices
        d = dist[v]
        if d >= radius:
            break
        d += 1
        for u in adjacency[v]:
            if dist[u] == UNREACHED:
                dist[u] = d
                reached.append(u)
    return dist, reached


def _rows(adjacency: Sequence[Sequence[int]], order: Sequence[int]) -> list[list[int]]:
    """The rows induced on ``order``, a union of components, with ``order[i]`` renamed to i."""
    index = {v: i for i, v in enumerate(order)}  # not a dense n-row: O(|order| + its edges)
    return [[index[u] for u in adjacency[v]] for v in order]


class _EccentricityBounds:
    """Bounds ``lower[v] <= ecc(v) <= upper[v]`` over one connected graph on
    0..n-1, a component on its own rows (see ``_rows``), tightened one BFS at
    a time (Takes & Kosters 2011).

    A BFS from v fixes e = ecc(v) and bounds every vertex u at distance d by
    ``max(d, e - d) <= ecc(u) <= e + d``.  A vertex is decided once its bounds
    meet.  Bounds cannot close on a vertex-transitive graph, where a run
    decides only its own source, so once the runs exceed
    ``4 + decided / 2`` the next ``probe`` runs one plain BFS per open vertex
    instead, which decides them all.
    """

    def __init__(self, adjacency: Sequence[Sequence[int]]):
        self.adjacency = adjacency
        self.lower = [0] * len(adjacency)
        self.upper = [2 * len(adjacency)] * len(adjacency)  # above any e + d
        self.runs = 0
        self.decided = 0
        self.previous: list[int] = []  # the row of the bounding run before the latest
        self.latest: list[int] = []  # the row of the latest bounding run

    def tighten(self, dist: list[int]) -> None:
        """Apply one BFS row."""
        self.runs += 1
        self.previous, self.latest = self.latest, dist
        e = max(dist)
        lower, upper = self.lower, self.upper
        for u, d in enumerate(dist):
            low, high = lower[u], upper[u]
            if low == high:
                continue
            far = d if d > e - d else e - d
            if far > low:
                lower[u] = low = far
            if e + d < high:
                upper[u] = high = e + d
            if low == high:
                self.decided += 1

    def probe(self, v: int) -> None:
        """Decide vertex v, and more: by one bounding BFS, or by the fallback."""
        if self.runs <= 4 + self.decided / 2:
            self.tighten(_bfs(self.adjacency, (v,))[0])
            return
        lower, upper = self.lower, self.upper
        for u in range(len(lower)):
            if lower[u] < upper[u]:
                lower[u] = upper[u] = max(_bfs(self.adjacency, (u,))[0])
        self.decided = len(lower)

    def pick(self) -> int:
        """The next vertex to probe: the open one of smallest lower bound after
        an odd number of runs, else of largest upper bound; ties to the smallest."""
        lower, upper = self.lower, self.upper
        open_ = [v for v in range(len(lower)) if lower[v] < upper[v]]
        if self.runs % 2:
            return min(open_, key=lower.__getitem__)
        return max(open_, key=upper.__getitem__)

    def radius(self) -> int:
        """The least eccentricity: probe until the least lower bound is the least upper bound."""
        while min(self.lower) < min(self.upper):
            self.probe(self.pick())
        return min(self.upper)


def _path_order(adjacency: Sequence[Sequence[int]], members: Iterable[int]) -> list[int] | None:
    """The members end to end from the smaller end, or None if they do not induce a path."""
    members = set(members)
    if len(members) == 1:
        return list(members)
    ends = []
    for v in members:
        inside = sum(1 for u in adjacency[v] if u in members)
        if inside == 1:
            ends.append(v)
        elif inside != 2:
            return None
    if len(ends) != 2:
        return None
    previous, current = None, min(ends)
    order = [current]
    while True:
        following = [u for u in adjacency[current] if u != previous and u in members]
        if not following:
            break
        previous, current = current, following[0]
        order.append(current)
    # a cycle among the members leaves the walk short
    return order if len(order) == len(members) else None


def _check_vertices(G: Graph, vertices: Iterable[int], what: str) -> None:
    """RejectedInputError "``what`` v out of range" for the first v not in 0..n-1."""
    for v in vertices:
        if not 0 <= v < G.n:
            raise RejectedInputError(f"{what} {v} out of range")


def bfs_distances(G: Graph, source: int) -> list[int | float]:
    """Shortest-path distances from ``source``; unreachable vertices get ``math.inf``."""
    _check_vertices(G, (source,), "source")
    dist, _ = _bfs(G.adjacency, (source,))
    return [math.inf if d == UNREACHED else d for d in dist]


def neighborhood(G: Graph, X: Iterable[int], i: int) -> set[int]:
    """Closed neighborhood at distance ``i``: every vertex within ``i`` hops of ``X``."""
    members = set(X)
    _check_vertices(G, members, "vertex")
    if i < 0:
        raise RejectedInputError("radius must be nonnegative")
    return set(_bfs(G.adjacency, members, i)[1])


def components(G: Graph) -> list[frozenset[int]]:
    """Connected components, ordered by their smallest vertex.

    The graph walks them once, on the first call; each call returns a new list.
    """
    return list(G._components)


def diameter_path(G: Graph) -> list[int]:
    """A longest shortest path, deterministic by smallest (source, target, path).

    The source is the smallest vertex of greatest eccentricity and the target
    the smallest vertex farthest from it.  Eccentricities are bounded from a
    few BFS runs (see ``_EccentricityBounds``), the first from vertex 0, which
    also checks connectivity.  The diameter D is fixed once the largest upper
    bound equals the largest lower bound; the source is then the smallest
    vertex whose upper bound reaches D, once its lower bound does too.  On a
    vertex-transitive graph the bounds do not close, and after a few runs the
    fallback finishes with one plain BFS per undecided vertex.  Extra memory
    is O(n): only the first, the previous and the latest bounding rows are
    kept, and the source and target rows are taken from them when they match.

    Raises DisconnectedGraphError when the diameter is undefined.
    """
    if G.n == 0:
        raise DisconnectedGraphError("diameter undefined for the empty graph")
    first, _ = _bfs(G.adjacency, (0,))
    if UNREACHED in first:
        raise DisconnectedGraphError("diameter undefined for a disconnected graph")
    ecc = _EccentricityBounds(G.adjacency)
    ecc.tighten(first)
    while True:
        best = max(ecc.lower)
        if max(ecc.upper) > best:
            ecc.probe(ecc.pick())
            continue
        source = next(v for v, high in enumerate(ecc.upper) if high >= best)
        if ecc.lower[source] == best:
            break
        ecc.probe(source)
    # keyed by the one vertex at distance 0
    rows = {row.index(0): row for row in (first, ecc.previous, ecc.latest) if row}
    target = (rows.get(source) or _bfs(G.adjacency, (source,))[0]).index(best)
    # Greedy minimal-neighbor descent on distances-to-target yields the
    # lexicographically smallest shortest path.
    to_target = rows.get(target) or _bfs(G.adjacency, (target,))[0]
    path = [source]
    current = source
    while current != target:
        current = min(u for u in G.adjacency[current] if to_target[u] == to_target[current] - 1)
        path.append(current)
    return path


# -- geometric inputs -------------------------------------------------------

Rational = Fraction | int | str


_FRAME_BITS = 64
"""Most bits of the lcm that puts a geometric input on integers (module docstring)."""


def _ratio(value) -> tuple[int, int]:
    """``(numerator, denominator)`` of a rational in lowest terms, as ``Fraction``
    reads it: the same value, or RejectedInputError with the same message.

    Fraction's grammar allows space and a sign only before a numerator, and
    ``int`` reads every numerator that ends in a digit as Fraction would once
    ``str.lstrip`` has taken the space off (``int`` keeps U+001C to U+001F),
    so integers and ``int/int`` strings skip its regex; every other string, a
    zero denominator included, goes through Fraction.
    """
    try:
        if isinstance(value, str):
            numerator, slash, denominator = value.partition("/")
            if slash:
                if denominator.isdecimal() and numerator[-1:].isdecimal():
                    d = int(denominator)
                    if d:
                        n = int(numerator.lstrip())
                        g = math.gcd(n, d)
                        return n // g, d // g
            elif value.lstrip("+-").isdecimal():
                return int(value), 1
            # Fraction would build 10**exponent: cap it at Python's int digit limit
            _, e, exponent = value.lower().rpartition("e")
            if e and abs(int(exponent)) > 4300:
                raise RejectedInputError(f"exponent of {value!r} exceeds 4300 in absolute value")
        value = Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise RejectedInputError(f"not a rational number: {value!r}") from exc
    return value.numerator, value.denominator


def _as_fraction(value) -> Fraction:
    return Fraction(*_ratio(value))


def _check_interval(start: tuple[int, int], end: tuple[int, int]) -> None:
    """RejectedInputError unless start < end, each ``(numerator, denominator)``."""
    (sn, sd), (en, ed) = start, end
    if not sn * ed < en * sd:
        raise RejectedInputError(
            f"interval [{Fraction(*start)}, {Fraction(*end)}] must have start < end"
        )


class IntervalSet(Record):
    """Closed intervals on the line with exact rational endpoints."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        for start, end in self.intervals:
            if not (isinstance(start, Fraction) and isinstance(end, Fraction)):
                raise RejectedInputError("interval endpoints must be Fractions")
            _check_interval(start.as_integer_ratio(), end.as_integer_ratio())

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Rational, Rational]]) -> "IntervalSet":
        return cls(tuple((_as_fraction(s), _as_fraction(e)) for s, e in pairs))


def _frame(ratios: Sequence[tuple[int, int]]) -> list[int] | None:
    """Each ``(numerator, denominator)`` times L, the lcm of the denominators,
    as an int; None if L has more than ``_FRAME_BITS`` bits."""
    lcm = 1
    for d in {d for _, d in ratios}:
        lcm = math.lcm(lcm, d)
        if lcm.bit_length() > _FRAME_BITS:
            return None
    return [n * (lcm // d) for n, d in ratios]


def _overlaps(starts: Sequence, ends: Sequence) -> list[tuple[int, int]]:
    """Index pairs (a, b) whose closed extents ``[starts[i], ends[i]]`` meet.

    In order of start, b meets an earlier-starting a iff b starts by a's
    end: one bisection per extent finds them.  The keys are ints in the
    frame, or exact Fractions past it; the extents are intervals, or disks'
    x-extents (see ``disk_graph``).
    """
    order = sorted(range(len(starts)), key=starts.__getitem__)
    ranked = [starts[i] for i in order]
    pairs = []
    for rank, a in enumerate(order, 1):
        for b in order[rank : bisect_right(ranked, ends[a], rank)]:
            pairs.append((a, b))
    return pairs


def _interval_edges(ratios: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Meeting pairs of closed intervals, given as ratios: start, end, start, ..."""
    keys = _frame(ratios) or [Fraction(n, d) for n, d in ratios]
    return _overlaps(keys[0::2], keys[1::2])


def interval_graph(L: IntervalSet) -> Graph:
    """One vertex per interval; edge wherever two closed intervals intersect."""
    ratios = [c.as_integer_ratio() for interval in L.intervals for c in interval]
    return from_edge_list(len(L.intervals), _interval_edges(ratios))


def _interval_graph_from_rows(rows: Sequence[Sequence[str]]) -> Graph:
    """``interval_graph(IntervalSet.from_pairs(rows))``, the same graph or
    message, without building Fractions: the tokens go as ratios to the kernel."""
    ratios = [_ratio(token) for row in rows for token in row]
    for start, end in zip(ratios[0::2], ratios[1::2]):
        _check_interval(start, end)
    return from_edge_list(len(rows), _interval_edges(ratios))


class PermutationPair(Record):
    """The identity sequence ``1..k`` together with a permutation of it."""

    perm: tuple[int, ...]

    def __post_init__(self):
        k = len(self.perm)
        if sorted(self.perm) != list(range(1, k + 1)):
            raise RejectedInputError("perm must be a bijection on 1..k")

    @property
    def k(self) -> int:
        return len(self.perm)

    @property
    def original(self) -> tuple[int, ...]:
        return tuple(range(1, self.k + 1))


def permutation_graph(pp: PermutationPair) -> Graph:
    """Vertex ``i-1`` per number ``i``; edge iff the pair is inverted by the permutation."""
    k = pp.k
    position = [0] * (k + 1)
    for idx, value in enumerate(pp.perm):
        position[value] = idx
    edges = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if position[j] < position[i]:
                edges.append((i - 1, j - 1))
    return from_edge_list(k, edges)


def _check_radius(r: tuple[int, int]) -> None:
    """RejectedInputError unless the ``(numerator, denominator)`` r is positive."""
    if r[0] <= 0:
        raise RejectedInputError("disk radii must be strictly positive")


class DiskArrangement(Record):
    """Disks in the plane with exact rational centers and positive radii."""

    disks: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def __post_init__(self):
        for x, y, r in self.disks:
            if not all(isinstance(c, Fraction) for c in (x, y, r)):
                raise RejectedInputError("disk coordinates must be Fractions")
            _check_radius(r.as_integer_ratio())

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[Rational, Rational, Rational]]) -> "DiskArrangement":
        return cls(tuple((_as_fraction(x), _as_fraction(y), _as_fraction(r)) for x, y, r in triples))


def _disk_edges(ratios: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Meeting pairs of closed disks, given as ratios: x, y, r, x, ... (see ``disk_graph``)."""
    frame = _frame(ratios)
    if frame is None:
        keys = [Fraction(n, d) for n, d in ratios]
        disks = []
        for disk in zip(ratios[0::3], ratios[1::3], ratios[2::3]):
            d = math.lcm(*(den for _, den in disk))
            disks.append(tuple(num * (d // den) for num, den in disk) + (d,))
    else:
        keys = frame
        disks = [(x, y, r, 1) for x, y, r in zip(frame[0::3], frame[1::3], frame[2::3])]
    xs, ys, rs = keys[0::3], keys[1::3], keys[2::3]
    edges = []
    for a, b in _overlaps([x - r for x, r in zip(xs, rs)], [x + r for x, r in zip(xs, rs)]):
        if abs(ys[a] - ys[b]) > rs[a] + rs[b]:
            continue  # the y-extents miss
        xa, ya, ra, da = disks[a]
        xb, yb, rb, db = disks[b]
        dx, dy, reach = xa * db - xb * da, ya * db - yb * da, ra * db + rb * da
        if dx * dx + dy * dy <= reach * reach:
            edges.append((a, b))
    return edges


def disk_graph(D: DiskArrangement) -> Graph:
    """Edge wherever two closed disks intersect (tangency counts).

    Two disks meet only if their x-extents ``[x - r, x + r]`` do, since a
    shared point's x lies in both, and likewise their y-extents; so only the
    pairs that ``_overlaps`` finds among the x-extents are tested, a pair
    whose centres lie further apart in y than the sum of the radii is
    dropped, and the others are tested by one exact integer comparison.

    A disk is held as ``(X, Y, R, d)``: its coordinates times d, so that all
    three are ints.  Two disks meet iff
    ``(Xa db - Xb da)^2 + (Ya db - Yb da)^2 <= (Ra db + Rb da)^2``, both sides
    being the rational test times ``(da db)^2``.  In the frame (see the
    module docstring) d is L for every disk, so the coordinates are the
    frame's ints, d is taken as 1 and the sweep sorts ints.  L is capped at
    ``_FRAME_BITS`` bits; past the cap d is the lcm of the disk's own
    denominators, so no coordinate carries more than its own three, and
    the sweep sorts the exact ``Fraction`` extents.
    """
    ratios = [c.as_integer_ratio() for disk in D.disks for c in disk]
    return from_edge_list(len(D.disks), _disk_edges(ratios))


def _disk_graph_from_rows(rows: Sequence[Sequence[str]]) -> Graph:
    """``disk_graph(DiskArrangement.from_triples(rows))``, the same graph or
    message, without building Fractions: the tokens go as ratios to the kernel."""
    ratios = [_ratio(token) for row in rows for token in row]
    for r in ratios[2::3]:
        _check_radius(r)
    return from_edge_list(len(rows), _disk_edges(ratios))
