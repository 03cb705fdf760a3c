"""Distinct 3-partition handling and hard-instance generators.

Each generator turns a distinct 3-partition instance into a graph whose
optimal burning encodes the partition: a caterpillar interval graph, a
permutation graph that is a path forest, and a disk arrangement realizing a
spider with pendant paths.  Generators emit machine-checkable certificates
with a canonical optimal sequence whenever a partition solution is supplied.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from ._record import Record
from .errors import BudgetError, RejectedInputError
from .graph import (
    DiskArrangement,
    Graph,
    IntervalSet,
    PermutationPair,
    _path_order,
    disk_graph,
    from_edge_list,
    interval_graph,
    permutation_graph,
)

_SCALE = 10**9  # denominator for rational snapshots of disk positions
SOLVER_CAP = 12  # most elements solve_d3p_bruteforce accepts by default


class D3PInstance(Record):
    """A distinct 3-partition input with its derived parameters.

    ``x`` holds 3n distinct positive integers strictly between b/4 and b/2
    that sum to n*b.  ``x_prime`` doubles them to odd numbers, and ``y`` is
    what remains of the first m odd numbers.
    """

    x: tuple[int, ...]
    n: int
    m: int
    b: int
    k: int
    x_prime: tuple[int, ...]
    b_prime: int
    y: tuple[int, ...]

    @property
    def first_odds(self) -> tuple[int, ...]:
        return tuple(range(1, 2 * self.m, 2))

    @property
    def y_descending(self) -> tuple[int, ...]:
        return tuple(sorted(self.y, reverse=True))


def validate_d3p(X: Iterable[int]) -> D3PInstance:
    elements = sorted(X)
    if not elements:
        raise RejectedInputError("instance must be nonempty")
    if len(set(elements)) != len(elements):
        raise RejectedInputError("instance elements must be distinct")
    if len(elements) % 3:
        raise RejectedInputError("instance size must be divisible by 3")
    if any(a <= 0 or not isinstance(a, int) for a in elements):
        raise RejectedInputError("instance elements must be positive integers")
    n = len(elements) // 3
    total = sum(elements)
    if total % n:
        raise RejectedInputError(f"sum {total} is not divisible by n={n}")
    b = total // n
    for a in elements:
        if not (4 * a > b and 2 * a < b):
            raise RejectedInputError(
                f"element {a} is not strictly between {b}/4 and {b}/2"
            )
    m = elements[-1]
    x_prime = tuple(2 * a - 1 for a in elements)
    y = tuple(sorted(set(range(1, 2 * m, 2)) - set(x_prime)))
    inst = D3PInstance(
        x=tuple(elements),
        n=n,
        m=m,
        b=b,
        k=m - 3 * n,
        x_prime=x_prime,
        b_prime=2 * b - 3,
        y=y,
    )
    assert sum(x_prime) == n * inst.b_prime
    assert sum(inst.first_odds) == m * m
    return inst


def check_d3p_solution(inst: D3PInstance, parts: Iterable[Iterable[int]]) -> bool:
    triples = [tuple(sorted(part)) for part in parts]
    if len(triples) != inst.n or any(len(t) != 3 for t in triples):
        return False
    flattened = sorted(v for t in triples for v in t)
    if flattened != list(inst.x):
        return False
    return all(sum(t) == inst.b for t in triples)


def solve_d3p_bruteforce(
    inst: D3PInstance, cap: int = SOLVER_CAP
) -> list[tuple[int, int, int]] | None:
    """Lexicographically first partition into triples summing to b, or None."""
    if 3 * inst.n > cap:
        raise BudgetError(
            f"instance has {3 * inst.n} elements, exceeding the solver cap of {cap}"
        )

    def recurse(remaining: list[int]) -> list[tuple[int, int, int]] | None:
        if not remaining:
            return []
        a = remaining[0]
        rest = remaining[1:]
        for bi in range(len(rest)):
            for ci in range(bi + 1, len(rest)):
                if a + rest[bi] + rest[ci] == inst.b:
                    sub = [v for t, v in enumerate(rest) if t not in (bi, ci)]
                    tail = recurse(sub)
                    if tail is not None:
                        return [(a, rest[bi], rest[ci])] + tail
        return None

    return recurse(list(inst.x))


# -- spiders ----------------------------------------------------------------


def _spider_order(s: int, r: int) -> int:
    """Vertices of ``gen_spider(s, r)``."""
    return 1 + s * r


def gen_spider(s: int, r: int) -> Graph:
    """A head of degree s with s arms of r vertices each."""
    if s < 1 or r < 0:
        raise RejectedInputError("spider needs s >= 1 arms of length r >= 0")
    # arms are numbered on from 1, r vertices each, and the first vertex of
    # an arm hangs off the head: no step is spent on an arm of length 0
    edges = [(v - 1 if (v - 1) % r else 0, v) for v in range(1, _spider_order(s, r))]
    return from_edge_list(_spider_order(s, r), edges)


def _spider_forest_order(degrees: Sequence[int]) -> int:
    """Vertices of ``gen_spider_forest(degrees)``."""
    return sum(_spider_order(d, i - 1) for i, d in enumerate(degrees, start=1))


def gen_spider_forest(degrees: Sequence[int]) -> Graph:
    """Disjoint union of spiders with arm counts d_i and arm lengths i-1."""
    total = 0
    edges = []
    for i, d in enumerate(degrees, start=1):
        if d < i + 1:
            raise RejectedInputError(f"component {i} needs at least {i + 1} arms, got {d}")
        spider = gen_spider(d, i - 1)
        edges.extend((total + u, total + v) for u, v in spider.edges())
        total += spider.n
    return from_edge_list(total, edges)


# -- certificates -----------------------------------------------------------


class SubpathSpec(Record):
    """A labeled path segment of a gadget, listed end to end."""

    label: str
    vertices: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.vertices)


class GadgetCertificate(Record):
    """Construction metadata emitted with a generated hard instance."""

    kind: str
    graph: Graph
    params: dict
    name_table: dict[str, int]
    spine: tuple[int, ...] | None
    decomposition: tuple[SubpathSpec, ...]
    combs: dict[str, tuple[int, ...]] | None
    canonical_sequence: tuple[int, ...] | None
    claimed_k: int
    intervals: IntervalSet | None = None


def _normalized_solution(inst: D3PInstance, solution) -> list[tuple[int, int, int]]:
    triples = sorted(tuple(sorted(part)) for part in solution)
    if not check_d3p_solution(inst, triples):
        raise RejectedInputError("supplied parts do not solve the instance")
    return triples


def _split_consecutively(vertices: Sequence[int], orders: Sequence[int]) -> list[tuple[int, ...]]:
    assert sum(orders) == len(vertices)
    out = []
    start = 0
    for order in orders:
        out.append(tuple(vertices[start : start + order]))
        start += order
    return out


def _forest_orders(inst: D3PInstance) -> list[int]:
    """Path orders of the forest every gadget embeds: n of order 2b-3, then y descending."""
    return [inst.b_prime] * inst.n + list(inst.y_descending)


def _base_params(inst: D3PInstance) -> dict:
    return {
        "x": list(inst.x),
        "n": inst.n,
        "m": inst.m,
        "b": inst.b,
        "k": inst.k,
        "b_prime": inst.b_prime,
        "y": list(inst.y),
    }


def _canonical_middles(
    inst: D3PInstance,
    solution,
    triple_blocks: Sequence[Sequence[int]],
    other_blocks: Iterable[Sequence[int]],
) -> list[int]:
    """Middle vertex of each canonical unit, largest order first.

    The i-th solved triple splits ``triple_blocks[i]`` into consecutive paths
    of its three odd orders, and every block of ``other_blocks`` is one more
    unit.  All unit orders are distinct, so the order alone ranks them.
    """
    units = list(other_blocks)
    for triple, block in zip(_normalized_solution(inst, solution), triple_blocks):
        orders = sorted((2 * a - 1 for a in triple), reverse=True)
        units += _split_consecutively(block, orders)
    return [unit[(len(unit) - 1) // 2] for unit in sorted(units, key=len, reverse=True)]


# -- caterpillar interval gadget --------------------------------------------


def _ig_order(m: int) -> int:
    """Vertices of ``gen_ig_gadget`` on an instance of largest element m: the
    spine, then one pendant per interior vertex of the m+1 combs."""
    return (2 * m + 1) ** 2 + (m + 1) * (3 * m - 1)


def gen_ig_gadget(inst: D3PInstance, solution=None) -> GadgetCertificate:
    """Caterpillar whose spine is a path of order (2m+1)^2 with combs.

    Spine: n blocks of order 2b-3 and k blocks with the leftover odd orders,
    interleaved with m+1 comb segments of orders 4m+1 down to 2m+1; every
    interior comb vertex carries one pendant.  Optimal burning in 2m+1
    rounds exists exactly when the instance has a 3-partition; with a
    supplied solution the canonical sequence ignites the middle of the i-th
    largest decomposition segment in round i.  The graph is the interval
    graph of the emitted representation, so the two cannot disagree.
    """
    n, m = inst.n, inst.m
    forest = _forest_orders(inst)
    # forest block j, if there is one, then comb T_j
    plan: list[tuple[str, int]] = []
    for j in range(1, m + 2):
        if j <= len(forest):
            plan.append((f"Q{j}" if j <= n else f"Q'{j - n}", forest[j - 1]))
        plan.append((f"T{j}", 2 * (2 * m + 1 - j) + 1))

    segments: dict[str, tuple[int, ...]] = {}
    next_id = 0
    for label, order in plan:
        segments[label] = tuple(range(next_id, next_id + order))
        next_id += order
    spine = tuple(range(next_id))
    # caterpillar interval representation: unit-ish spine windows, pendants
    # stabbed into the region their anchor covers alone
    pairs = [(Fraction(v), Fraction(5 * v + 6, 5)) for v in spine]

    name_table = {
        f"{label}[{t}]": v
        for label, seg in segments.items()
        for t, v in enumerate(seg, start=1)
    }
    combs: dict[str, tuple[int, ...]] = {}
    for label, _ in plan:
        if not label.startswith("T"):
            continue
        ids = []
        for h, anchor in enumerate(segments[label][1:-1], start=1):
            name_table[f"u{label[1:]}^{h}"] = len(pairs)
            ids.append(len(pairs))
            pairs.append((Fraction(10 * anchor + 3, 10), Fraction(5 * anchor + 2, 5)))
        combs[label] = tuple(ids)
    intervals = IntervalSet(tuple(pairs))
    graph = interval_graph(intervals)

    canonical = None
    if solution is not None:
        forest_blocks = [segments[label] for label, _ in plan if label.startswith("Q")]
        canonical = tuple(
            _canonical_middles(
                inst,
                solution,
                forest_blocks[:n],
                forest_blocks[n:] + [segments[f"T{j}"] for j in range(1, m + 2)],
            )
        )

    return GadgetCertificate(
        kind="ig",
        graph=graph,
        params=_base_params(inst),
        name_table=name_table,
        spine=spine,
        decomposition=tuple(SubpathSpec(label, segments[label]) for label, _ in plan),
        combs=combs,
        canonical_sequence=canonical,
        claimed_k=2 * m + 1,
        intervals=intervals,
    )


# -- permutation gadget ------------------------------------------------------


def _permutation_block(x: int, y: int) -> list[int]:
    """A permutation of x..y whose inversion graph is a path on y-x+1 vertices."""
    t = y - x + 1
    # at t = 4 the rule gives another valid block than the one kept here
    if t == 4:
        return [x + 1, y, x, x + 2]
    # offsets from x run 2, 0, 4, 1, 6, 3, ...: place i holds i+2 when i is
    # even and i-2 when i is odd, with 0 at place 1; the one offset that
    # reaches t gives way to the offset the list leaves out
    offsets = [max(0, i + 2 - 4 * (i % 2)) for i in range(t)]
    (missing,) = set(range(t)) - set(offsets)
    return [x + (offset if offset < t else missing) for offset in offsets]


def _pg_order(m: int) -> int:
    """Vertices of ``gen_pg_gadget`` on an instance of largest element m."""
    return m * m


def gen_pg_gadget(
    inst: D3PInstance, solution=None
) -> tuple[PermutationPair, GadgetCertificate]:
    """Permutation of 1..m^2 whose inversion graph is the target path forest.

    Blocks j <= n are paths of order 2b-3; the remaining k blocks take the
    leftover odd orders in descending order.  Burning the forest in m rounds
    encodes the 3-partition.
    """
    n, m = inst.n, inst.m
    bounds: list[tuple[int, int]] = []
    end = 0
    for order in _forest_orders(inst):
        bounds.append((end + 1, end + order))
        end += order
    assert end == _pg_order(m)

    perm: list[int] = []
    for x, y in bounds:
        perm.extend(_permutation_block(x, y))
    pp = PermutationPair(tuple(perm))
    graph = permutation_graph(pp)

    blocks = []
    for x, y in bounds:
        order = _path_order(graph.adjacency, range(x - 1, y))
        if order is None:
            raise RejectedInputError("vertex block does not induce a path")
        blocks.append(tuple(order))
    name_table = {
        f"Q{j}[{t}]": v
        for j, block in enumerate(blocks, start=1)
        for t, v in enumerate(block, start=1)
    }

    canonical = None
    if solution is not None:
        canonical = tuple(_canonical_middles(inst, solution, blocks[:n], blocks[n:]))

    certificate = GadgetCertificate(
        kind="pg",
        graph=graph,
        params={**_base_params(inst), "perm": list(perm)},
        name_table=name_table,
        spine=None,
        decomposition=tuple(
            SubpathSpec(f"Q{j}", block) for j, block in enumerate(blocks, start=1)
        ),
        combs=None,
        canonical_sequence=canonical,
        claimed_k=m,
    )
    return pp, certificate


# -- disk gadget -------------------------------------------------------------


def _dk_order(m: int, q: int) -> int:
    """Vertices of ``gen_dk_gadget`` with ring size q on an instance of
    largest element m: the hub, q arms of m disks, and the m^2 path vertices."""
    return 1 + q * m + m * m


def gen_dk_gadget(
    inst: D3PInstance, q: int, solution=None
) -> tuple[DiskArrangement, GadgetCertificate]:
    """Disk arrangement realizing a spider SP(q, m) with pendant paths.

    A hub disk is ringed by q unit disks, each backing a radial chain of
    m-1 disks at spacing 1.5; the first n+k chains continue into pendant
    chains with the path-forest orders.  The hub radius is the smallest
    half-integer keeping ring disks strictly separated, so the realized
    adjacency is exactly the intended spider-plus-paths (checked before
    returning).  Optimal burning takes m+1 rounds, hub first.
    """
    n, m, k = inst.n, inst.m, inst.k
    p = m - 1
    if not 2 * (p + 2) <= q <= 3 * p:
        raise RejectedInputError(
            f"q={q} outside the feasible range [{2 * (p + 2)}, {3 * p}]"
        )
    half_steps = 1
    while 2.0 * (half_steps / 2 + 1.0) * math.sin(math.pi / q) <= 2.0:
        half_steps += 1
    hub_clearance = Fraction(half_steps, 2)  # ring disks sit at this radius + 1
    hub_radius = hub_clearance + Fraction(1, 2)
    ring_rho = float(hub_clearance) + 1.0
    unit = Fraction(1)

    attached = _forest_orders(inst) + [0] * (q - n - k)
    disks: list[tuple[Fraction, Fraction, Fraction]] = [
        (Fraction(0), Fraction(0), hub_radius)
    ]
    name_table = {"h": 0}
    intended_edges: list[tuple[int, int]] = []
    arm_paths: list[tuple[int, ...]] = []
    next_id = 1
    for arm in range(q):
        angle = 2.0 * math.pi * arm / q
        ux, uy = math.cos(angle), math.sin(angle)
        length = 1 + p + attached[arm]  # ring disk + chain + pendant path
        previous = 0
        arm_ids = []
        for t in range(length):
            rho = ring_rho + 1.5 * t
            disks.append(
                (
                    Fraction(round(ux * rho * _SCALE), _SCALE),
                    Fraction(round(uy * rho * _SCALE), _SCALE),
                    unit,
                )
            )
            intended_edges.append((previous, next_id))
            if t == 0:
                name_table[f"c{arm + 1}"] = next_id
            elif t <= p:
                name_table[f"c{arm + 1}^{t}"] = next_id
            else:
                name_table[f"Q{arm + 1}[{t - p}]"] = next_id
                arm_ids.append(next_id)
            previous = next_id
            next_id += 1
        arm_paths.append(tuple(arm_ids))

    arrangement = DiskArrangement(tuple(disks))
    graph = disk_graph(arrangement)
    # intended edges are distinct (u, v) pairs with u < v, as edges() lists them
    if graph.edges() != sorted(intended_edges):
        raise RejectedInputError("disk placement failed to realize the intended adjacency")

    canonical = None
    if solution is not None:
        canonical = tuple(
            [0] + _canonical_middles(inst, solution, arm_paths[:n], arm_paths[n : n + k])
        )

    certificate = GadgetCertificate(
        kind="dk",
        graph=graph,
        params={
            **_base_params(inst),
            "q": q,
            "hub_clearance": str(hub_clearance),
            "hub_radius": str(hub_radius),
        },
        name_table=name_table,
        spine=None,
        decomposition=tuple(
            SubpathSpec(f"P'{i + 1}", path)
            for i, path in enumerate(arm_paths)
            if path
        ),
        combs=None,
        canonical_sequence=canonical,
        claimed_k=m + 1,
    )
    return arrangement, certificate
