"""File formats and serialization.

Edge-list text: first line ``n m``, then m lines ``u v`` (0-based).  ``#``
starts a comment, blank lines are skipped.  Interval, permutation, and disk
inputs are one record per line: ``start end``, one permutation entry, and
``x y r`` respectively, all accepting rationals like ``3/2`` or ``1.5``.
JSON is emitted canonically (sorted keys) so equal inputs give equal bytes:
``dumps`` writes exactly the bytes of ``json.dumps(record, sort_keys=True,
indent=2)`` plus a newline.  Before Python 3.13 it has ``json``'s C encoder
write them, one call per container of scalars; where that encoder is
missing, and from 3.13 on, where ``json.dumps`` indents in C itself, it
calls ``json.dumps``.

Every parser refuses an input of more than ``_VERTEX_CAP`` vertices (the
edge-list header's n, or the number of records) with a ParseError that
names the cap, before it builds the graph or its coordinates.
"""

from __future__ import annotations

import functools
import json
import sys
from collections.abc import Iterable
from json.encoder import c_make_encoder, encode_basestring_ascii

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
input (a few thousand vertices at most).  ``gen`` and ``bench`` refuse a
graph past it before they build it, so every file ``gen`` writes reads back."""


def _check_vertex_count(n: int) -> None:
    if n > _VERTEX_CAP:
        raise ParseError(f"graph has {n} vertices, exceeding the vertex cap of {_VERTEX_CAP}")


def _parsed(build, *args):
    """``build(*args)`` on values read from text: the builder's
    RejectedInputError is the text's ParseError, with the same message."""
    try:
        return build(*args)
    except RejectedInputError as exc:
        raise ParseError(str(exc)) from exc


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
        n, m = map(int, rows[0])
    except ValueError as exc:
        raise ParseError(f"bad header line {rows[0]!r}; expected 'n m'") from exc
    _check_vertex_count(n)
    if len(rows) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        try:
            u, v = map(int, row)
        except ValueError as exc:
            raise ParseError(f"bad edge line {row!r}") from exc
        edges.append((u, v))
    return _parsed(from_edge_list, n, edges)


def format_edge_list(G: Graph) -> str:
    edges = G.edges()
    lines = [f"{G.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


# record shapes: tokens per line, and the message for a line of another width
_INTERVAL_RECORD = (2, "interval line needs 'start end'")
_DISK_RECORD = (3, "disk line needs 'x y r'")


def _records(text: str, shape: tuple[int, str]) -> list[list[str]]:
    """The content lines of a one-record-per-line input, each of the shape's width."""
    width, message = shape
    rows = _content_lines(text)
    _check_vertex_count(len(rows))
    for row in rows:
        if len(row) != width:
            raise ParseError(f"{message}, got {row!r}")
    return rows


def parse_intervals(text: str) -> IntervalSet:
    return _parsed(IntervalSet.from_pairs, _records(text, _INTERVAL_RECORD))


def _interval_graph(text: str) -> Graph:
    """``interval_graph(parse_intervals(text))``, the same graph or message,
    without building Fractions (see ``graph._interval_graph_from_rows``)."""
    return _parsed(_interval_graph_from_rows, _records(text, _INTERVAL_RECORD))


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
    return _parsed(PermutationPair, tuple(values))


def format_permutation(pp: PermutationPair) -> str:
    return "".join(f"{value}\n" for value in pp.perm)


def parse_disks(text: str) -> DiskArrangement:
    return _parsed(DiskArrangement.from_triples, _records(text, _DISK_RECORD))


def _disk_graph(text: str) -> Graph:
    """``disk_graph(parse_disks(text))``, the same graph or message, without
    building Fractions (see ``graph._disk_graph_from_rows``)."""
    return _parsed(_disk_graph_from_rows, _records(text, _DISK_RECORD))


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
    """``json.dumps(record, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    Before Python 3.13, ``json`` encodes in pure Python once ``indent`` is
    set.  So ``_write`` lays out the containers, and each container whose
    values are all scalars is written by one call to the C encoder that
    ``json`` uses without ``indent``, the indentation folded into its item
    separator.  ``json.dumps`` writes the record where ``json`` has no C
    encoder, and from 3.13 on, where its C encoder writes the indentation
    itself and is the faster.  A circular record raises RecursionError from
    ``_write``, not ``json``'s ValueError.
    """
    if c_make_encoder is None or sys.version_info >= (3, 13):
        return json.dumps(record, sort_keys=True, indent=2) + "\n"
    return _write(record, 0) + "\n"


_SCALARS = frozenset({str, int, float, bool, type(None)})
_refuse = json.JSONEncoder().default  # TypeError: Object of type X is not JSON serializable


@functools.cache
def _layout(depth: int):
    """For a container ``depth`` indents in: the C encoder of its items
    (sorted keys, ``": "`` after a key, and between items a comma, a newline
    and the items' indentation), the newline and indentation before its
    first item, and those before its closing bracket."""
    inner = "\n" + "  " * (depth + 1)
    encoder = c_make_encoder(None, _refuse, encode_basestring_ascii, None, ": ", "," + inner, True, False, True)
    return encoder, inner, "\n" + "  " * depth


def _scalar(value) -> str:
    return "".join(_layout(0)[0](value, 0))


def _key(key) -> str:
    """A dict key as ``json`` writes it: a string, or the quoted text of a scalar."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{_scalar(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write(value, depth: int) -> str:
    """``value`` as ``json.dumps(..., sort_keys=True, indent=2)`` writes it
    ``depth`` indents in."""
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        return _scalar(value)
    if not value:
        return "{}" if is_dict else "[]"
    encoder, inner, outer = _layout(depth)
    if _SCALARS.issuperset(map(type, value.values() if is_dict else value)):
        text = "".join(encoder(value, 0))
        return f"{text[0]}{inner}{text[1:-1]}{outer}{text[-1]}"
    if is_dict:
        items = [f"{_key(k)}: {_write(v, depth + 1)}" for k, v in sorted(value.items())]
        return f"{{{inner}{(',' + inner).join(items)}{outer}}}"
    items = [_write(v, depth + 1) for v in value]
    return f"[{inner}{(',' + inner).join(items)}{outer}]"


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
    """The certificate JSON as a dict with ``claimed_k``, whose
    ``canonical_sequence``, if not null, is a list of ints, whose ``n`` and
    ``m`` are ints, and whose ``decomposition`` is a list of
    ``{"label": str, "vertices": [int]}``; else ParseError."""
    try:
        record = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer literal past the digit limit, or nesting too deep
        raise ParseError(f"bad certificate JSON: {exc}") from exc
    if not isinstance(record, dict) or "claimed_k" not in record:
        raise ParseError("certificate JSON missing required fields")
    sequence = record.get("canonical_sequence")
    if sequence is not None and not (
        isinstance(sequence, list) and all(type(v) is int for v in sequence)
    ):
        raise ParseError("certificate canonical_sequence must be a list of integers")
    if not (type(record.get("n")) is int and type(record.get("m")) is int):
        raise ParseError("certificate n and m must be integers")
    decomposition = record.get("decomposition")
    if not (isinstance(decomposition, list) and all(_is_segment(s) for s in decomposition)):
        raise ParseError("certificate decomposition must be a list of {label, vertices: [int]}")
    return record


def _is_segment(segment) -> bool:
    return (
        isinstance(segment, dict)
        and isinstance(segment.get("label"), str)
        and isinstance(segment.get("vertices"), list)
        and all(type(v) is int for v in segment["vertices"])
    )
