"""File formats and serialization.

Edge-list text: first line ``n m``, then m lines ``u v`` (0-based).  ``#``
starts a comment, blank lines are skipped.  Interval, permutation, and disk
inputs are one record per line: ``start end``, one permutation entry, and
``x y r`` respectively, all accepting rationals like ``3/2`` or ``1.5``.
JSON is emitted canonically (sorted keys) so equal inputs give equal bytes.

Every parser refuses an input of more than ``_VERTEX_CAP`` vertices (the
edge-list header's n, or the number of records) with a ParseError that
names the cap, before it builds the graph or its coordinates.
"""

from __future__ import annotations

import json
from typing import Iterable

from .burning import BurnOutcome
from .errors import ParseError, RejectedInputError
from .graph import (
    DiskArrangement,
    Graph,
    IntervalSet,
    PermutationPair,
    _disk_graph_from_rows,
    _interval_graph_from_rows,
    from_edge_list,
)
from .hardness import GadgetCertificate
from .processes import FirefightRun, PercolationRun


_VERTEX_CAP = 100_000
"""Most vertices a parsed input may have.  It bounds what an edge-list header
can make the parser allocate, and sits far above every golden and benchmark
input (a few thousand vertices at most).  ``gen`` refuses to write a graph
past it, so every file it writes reads back."""


def _check_vertex_count(n: int) -> None:
    if n > _VERTEX_CAP:
        raise ParseError(f"graph has {n} vertices, exceeding the vertex cap of {_VERTEX_CAP}")


def _content_lines(text: str) -> list[list[str]]:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


def parse_edge_list(text: str) -> Graph:
    rows = _content_lines(text)
    if not rows:
        raise ParseError("empty edge-list input")
    try:
        n, m = (int(token) for token in rows[0])
    except ValueError as exc:
        raise ParseError(f"bad header line {rows[0]!r}; expected 'n m'") from exc
    _check_vertex_count(n)
    if len(rows) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        try:
            u, v = (int(token) for token in row)
        except ValueError as exc:
            raise ParseError(f"bad edge line {row!r}") from exc
        edges.append((u, v))
    try:
        return from_edge_list(n, edges)
    except RejectedInputError as exc:
        raise ParseError(str(exc)) from exc


def format_edge_list(G: Graph) -> str:
    edges = G.edges()
    lines = [f"{G.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def _records(text: str, width: int, shape: str) -> list[list[str]]:
    """The content lines of a one-record-per-line input, each ``width`` tokens."""
    rows = _content_lines(text)
    _check_vertex_count(len(rows))
    for row in rows:
        if len(row) != width:
            raise ParseError(f"{shape}, got {row!r}")
    return rows


def parse_intervals(text: str) -> IntervalSet:
    rows = _records(text, 2, "interval line needs 'start end'")
    try:
        return IntervalSet.from_pairs(rows)
    except RejectedInputError as exc:
        raise ParseError(str(exc)) from exc


def _interval_graph(text: str) -> Graph:
    """``interval_graph(parse_intervals(text))``, the same graph or message,
    without building Fractions (see ``graph._interval_graph_from_rows``)."""
    rows = _records(text, 2, "interval line needs 'start end'")
    try:
        return _interval_graph_from_rows(rows)
    except RejectedInputError as exc:
        raise ParseError(str(exc)) from exc


def format_intervals(L: IntervalSet) -> str:
    return "".join(f"{s} {e}\n" for s, e in L.intervals)


def parse_permutation(text: str) -> PermutationPair:
    rows = _content_lines(text)
    _check_vertex_count(sum(map(len, rows)))
    values = []
    for row in rows:
        for token in row:
            try:
                values.append(int(token))
            except ValueError as exc:
                raise ParseError(f"bad permutation entry {token!r}") from exc
    try:
        return PermutationPair(tuple(values))
    except RejectedInputError as exc:
        raise ParseError(str(exc)) from exc


def format_permutation(pp: PermutationPair) -> str:
    return "".join(f"{value}\n" for value in pp.perm)


def parse_disks(text: str) -> DiskArrangement:
    rows = _records(text, 3, "disk line needs 'x y r'")
    try:
        return DiskArrangement.from_triples(rows)
    except RejectedInputError as exc:
        raise ParseError(str(exc)) from exc


def _disk_graph(text: str) -> Graph:
    """``disk_graph(parse_disks(text))``, the same graph or message, without
    building Fractions (see ``graph._disk_graph_from_rows``)."""
    rows = _records(text, 3, "disk line needs 'x y r'")
    try:
        return _disk_graph_from_rows(rows)
    except RejectedInputError as exc:
        raise ParseError(str(exc)) from exc


def format_disks(D: DiskArrangement) -> str:
    return "".join(f"{x} {y} {r}\n" for x, y, r in D.disks)


# -- DOT export ---------------------------------------------------------------

_STEP_COLORS = (
    "#fee08b", "#fdae61", "#f46d43", "#d53e4f", "#9e0142",
    "#e6f598", "#abdda4", "#66c2a5", "#3288bd", "#5e4fa2",
)


def graph_to_dot(
    G: Graph,
    burn_step: Iterable[int | None] | None = None,
    labels: Iterable[str | None] | None = None,
    roles: Iterable[str] | None = None,
) -> str:
    """Graphviz text; vertices carry ``burnstep`` and ``role`` attributes."""
    steps = list(burn_step) if burn_step is not None else None
    tags = list(labels) if labels is not None else None
    role_list = list(roles) if roles is not None else None
    lines = ["graph G {", "  node [shape=circle style=filled fillcolor=white];"]
    for v in range(G.n):
        attrs = []
        role = None
        if role_list is not None:
            role = role_list[v]
        elif steps is not None:
            step = steps[v]
            tag = tags[v] if tags is not None else None
            role = f"{step}{tag or ''}" if step is not None else "unburned"
        if steps is not None:
            step = steps[v]
            attrs.append(f'burnstep={step if step is not None else -1}')
            if step is not None:
                color = _STEP_COLORS[(step - 1) % len(_STEP_COLORS)]
                attrs.append(f'fillcolor="{color}"')
        if role is not None:
            attrs.append(f'role="{role}"')
            attrs.append(f'label="{v}:{role}"')
        lines.append(f"  {v} [{' '.join(attrs)}];" if attrs else f"  {v};")
    lines.extend(f"  {u} -- {v};" for u, v in G.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


def firefight_to_dot(G: Graph, run: FirefightRun) -> str:
    final_burned = run.burned_steps[-1]
    roles = []
    for v in range(G.n):
        if v in run.protected:
            roles.append("protected")
        elif v in final_burned:
            roles.append("burned")
        else:
            roles.append("saved")
    burn_round = [None] * G.n
    for step, burned in enumerate(run.burned_steps, start=1):
        for v in burned:
            if burn_round[v] is None:
                burn_round[v] = step
    return graph_to_dot(G, burn_step=burn_round, roles=roles)


# -- JSON records -------------------------------------------------------------


def dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def burn_outcome_record(outcome: BurnOutcome) -> dict:
    schedule = outcome.schedule
    return {
        "sources": list(schedule.sources),
        "burn_step": list(schedule.burn_step),
        "labels": list(schedule.labels),
        "valid": outcome.valid,
        "complete": outcome.complete,
        "first_violation": list(outcome.first_violation) if outcome.first_violation else None,
    }


def firefight_record(run: FirefightRun) -> dict:
    return {
        "origin": run.origin,
        "placements": list(run.placements),
        "burned_steps": [sorted(step) for step in run.burned_steps],
        "protected": sorted(run.protected),
        "saved": run.saved,
        "valid": run.valid,
        "violation": list(run.violation) if run.violation else None,
    }


def percolation_record(run: PercolationRun) -> dict:
    return {
        "seed": sorted(run.seed),
        "threshold": run.threshold,
        "timeline": [sorted(stage) for stage in run.timeline],
        "steps": run.steps,
        "percolates": run.percolates,
        "threshold_at_lower_limit": run.threshold == 2,
    }


def certificate_record(cert: GadgetCertificate) -> dict:
    return {
        "kind": cert.kind,
        "claimed_k": cert.claimed_k,
        "params": cert.params,
        "n": cert.graph.n,
        "m": cert.graph.edge_count,
        "name_table": cert.name_table,
        "spine": list(cert.spine) if cert.spine is not None else None,
        "decomposition": [
            {"label": segment.label, "vertices": list(segment.vertices)}
            for segment in cert.decomposition
        ],
        "combs": (
            {label: list(ids) for label, ids in cert.combs.items()}
            if cert.combs is not None
            else None
        ),
        "canonical_sequence": (
            list(cert.canonical_sequence) if cert.canonical_sequence is not None else None
        ),
        "intervals": (
            [[str(s), str(e)] for s, e in cert.intervals.intervals]
            if cert.intervals is not None
            else None
        ),
    }


def load_certificate_record(text: str) -> dict:
    try:
        record = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer literal past the digit limit, or nesting too deep
        raise ParseError(f"bad certificate JSON: {exc}") from exc
    if not isinstance(record, dict) or "claimed_k" not in record:
        raise ParseError("certificate JSON missing required fields")
    return record
