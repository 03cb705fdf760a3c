import enum
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit import ParseError, disk_graph, interval_graph, simulate
from burnkit import formats
from burnkit.formats import (
    burn_outcome_record,
    dumps,
    firefight_record,
    firefight_to_dot,
    format_disks,
    format_edge_list,
    format_intervals,
    format_permutation,
    graph_to_dot,
    parse_disks,
    parse_edge_list,
    parse_intervals,
    parse_permutation,
    percolation_record,
)
from burnkit.processes import bootstrap_percolate, verify_firefighter

from helpers import fig_example_graph, path_graph


class TestEdgeList:
    def test_round_trip(self):
        g = fig_example_graph()
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blanks(self):
        text = "# header\n\n3 2\n0 1  # edge\n\n1 2\n"
        g = parse_edge_list(text)
        assert g.n == 3 and g.edge_count == 2

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_edge_list("x y\n")

    def test_wrong_edge_count(self):
        with pytest.raises(ParseError):
            parse_edge_list("3 2\n0 1\n")

    def test_out_of_range_edge(self):
        with pytest.raises(ParseError):
            parse_edge_list("2 1\n0 5\n")


class TestStructuredInputs:
    def test_intervals_round_trip(self):
        text = "0 2\n1/2 3/2\n1.5 4\n"
        intervals = parse_intervals(text)
        assert intervals.intervals[1] == (Fraction(1, 2), Fraction(3, 2))
        assert parse_intervals(format_intervals(intervals)) == intervals

    def test_permutation_round_trip(self):
        pp = parse_permutation("3\n1\n2\n")
        assert pp.perm == (3, 1, 2)
        assert parse_permutation(format_permutation(pp)) == pp

    def test_disks_round_trip(self):
        disks = parse_disks("0 0 1\n3/2 0 1\n")
        assert disks.disks[1][0] == Fraction(3, 2)
        assert parse_disks(format_disks(disks)) == disks

    def test_bad_rational(self):
        with pytest.raises(ParseError):
            parse_intervals("0 zebra\n")


class TestVertexCap:
    """Every parser refuses more vertices than the cap, before it builds anything."""

    @pytest.mark.parametrize(
        "parse, at_cap, past_cap",
        [
            (parse_edge_list, "4 0\n", "5 0\n"),
            (parse_intervals, "0 1\n" * 4, "0 1\n" * 5),
            (parse_permutation, "1 2\n3 4\n", "1 2\n3 4 5\n"),
            (parse_disks, "0 0 1\n" * 4, "0 0 1\n" * 5),
            (formats._interval_graph, "0 1\n" * 4, "0 1\n" * 5),
            (formats._disk_graph, "0 0 1\n" * 4, "0 0 1\n" * 5),
        ],
    )
    def test_refused_past_the_cap(self, monkeypatch, parse, at_cap, past_cap):
        monkeypatch.setattr(formats, "_VERTEX_CAP", 4)
        parse(at_cap)
        with pytest.raises(ParseError, match="5 vertices, exceeding the vertex cap of 4"):
            parse(past_cap)

    def test_edge_list_header_is_checked_before_its_lines(self, monkeypatch):
        monkeypatch.setattr(formats, "_VERTEX_CAP", 4)
        with pytest.raises(ParseError, match="vertex cap of 4"):
            parse_edge_list("9 1\n0 1\n")


_GOLDEN = Path(__file__).parent / "golden" / "inputs"
_GEOMETRIC_TEXTS = {
    "intervals": [
        "0 2\n1/2 3/2\n1.5 4\n",
        "# comment\n\n-1/3 1/3  # tail\n1/3 5/9\n",
        "0 1\n" * 3,
        "",
        "2 1\n",  # empty interval
        "0 1\n1/2 1/2\n",
        "0 zebra\n",
        "0 1/0\n",
        "0 1e4301\n0 zebra\n",
        "0 3/-2\n",
        "1 2 3\n",
        "1/18446744073709551629 1/18446744073709551653\n0 1\n",
    ]
    + [path.read_text() for path in sorted(_GOLDEN.glob("*.intervals"))],
    "disks": [
        "0 0 1\n2 0 1\n5 0 1\n",
        "0 0 1\n3/2 0 1\n-7/3 1/9 5/4\n",
        "0 0 0\n",
        "0 0 -1/2\n",
        "0 0 -1\n0 0 zebra\n",
        "0 0 1\n2 0 one\n",
        "0 0\n",
        "0 1e4300 1\n1/18446744073709551629 0 1\n",
    ]
    + [path.read_text() for path in sorted(_GOLDEN.glob("*.disks"))],
}


class TestTextToGraph:
    """The CLI reads interval and disk text straight into the builders'
    integer kernel; it must give the public parser's graph, or its error."""

    @staticmethod
    def outcome(read, text):
        try:
            return read(text).adjacency
        except ParseError as exc:
            return str(exc)

    @pytest.mark.parametrize(
        "fmt, text",
        [(fmt, text) for fmt, texts in _GEOMETRIC_TEXTS.items() for text in texts],
        ids=[f"{fmt}-{i}" for fmt, texts in _GEOMETRIC_TEXTS.items() for i in range(len(texts))],
    )
    def test_matches_the_public_parser(self, fmt, text):
        fast, public = {
            "intervals": (formats._interval_graph, lambda t: interval_graph(parse_intervals(t))),
            "disks": (formats._disk_graph, lambda t: disk_graph(parse_disks(t))),
        }[fmt]
        assert self.outcome(fast, text) == self.outcome(public, text)


class TestDot:
    def test_burn_attributes_present(self):
        g = path_graph(3)
        outcome = simulate(g, (0, 2))
        dot = graph_to_dot(g, burn_step=outcome.schedule.burn_step, labels=outcome.schedule.labels)
        assert "burnstep=1" in dot and 'role="1a"' in dot
        assert "0 -- 1;" in dot

    def test_firefight_roles(self):
        g = path_graph(3)
        run = verify_firefighter(g, 0, [1])
        dot = firefight_to_dot(g, run)
        assert 'role="protected"' in dot and 'role="saved"' in dot and 'role="burned"' in dot


def _reference(record) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def _written(record) -> str:
    """The C-encoder route of ``dumps``: the one it takes before Python 3.13."""
    return formats._write(record, 0) + "\n"


def _outcome(emit, record):
    """What ``emit`` writes, or the type of the error it raises."""
    try:
        return emit(record)
    except Exception as exc:
        return type(exc)


_SCALAR_VALUES = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


def _records(keys):
    """Nested lists, tuples and dicts of scalars, the dicts keyed by ``keys``."""
    return st.recursive(
        _SCALAR_VALUES,
        lambda children: st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(keys, children, max_size=5),
        max_leaves=30,
    )


class _Level(enum.IntEnum):
    LOW = 1


_EXAMPLES = [
    # empty containers at every depth
    {},
    [],
    {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": [[], {}]}}},
    [[[[]]], [{}], {"x": []}],
    # tuples
    {"t": (1, 2), "u": ((1, "a"), ()), "v": ({"w": (3,)},)},
    # True next to 1, bool and int subclasses
    {"flags": [True, 1, False, 0], "mixed": [1, True, None, [0, False]]},
    {"level": _Level.LOW, "levels": [_Level.LOW, 2], "nested": [[_Level.LOW], {"x": _Level.LOW}]},
    # big ints and the floats json spells its own way
    {"big": 2**70, "neg": -(2**70), "list": [2**70, -1, 0]},
    {"floats": [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 5e-324, 0.1]},
    {"nan": float("nan"), "inner": {"inf": float("inf"), "neg_zero": -0.0}, "xs": [[-0.0]]},
    # strings that need escaping
    {"text": ["é", "日本", "\U0001f600", "\ud800", '"', "\\", "\x00\x1f\n\t\r\x7f", "</script>"]},
    {"é": 1, '"q"': [2], "a\\b": {"\n": None}, "\x01": []},
    # interval-style [str, str] pairs, as the ig certificates hold them
    {"intervals": [["1/2", "3/2"], ["-7/3", "0"], ["5", "11/2"]], "kind": "ig"},
    # scalars at the top and lists that mix scalars with containers
    "top",
    7,
    None,
    [1, [2], {"a": 3}, None, "s", [[4, [5]]]],
]


class TestDumps:
    """``dumps`` writes exactly ``json.dumps(record, sort_keys=True, indent=2)``
    and a newline, whichever route it takes."""

    @pytest.mark.parametrize("record", _EXAMPLES, ids=range(len(_EXAMPLES)))
    def test_examples_match_json(self, record):
        assert dumps(record) == _written(record) == _reference(record)

    @given(_records(st.text()))
    @settings(max_examples=300, deadline=None)
    def test_matches_json(self, record):
        assert dumps(record) == _written(record) == _reference(record)

    @given(_records(st.integers() | st.floats() | st.booleans() | st.none() | st.text(max_size=2)))
    @settings(max_examples=300, deadline=None)
    def test_any_scalar_keys_match_json_or_its_error(self, record):
        # keys of types that do not sort against each other raise TypeError in both
        assert _outcome(_written, record) == _outcome(dumps, record) == _outcome(_reference, record)

    @pytest.mark.parametrize(
        "record",
        [
            {1: "a", 2: [3], 10: {"b": 4}},
            {2: {1: [], 10: 1}, 10: 1},
            {1.5: [1], True: [None], None: [2]},
            {1: 1, "a": 2},
            {"a": {1: [1], "b": [2]}},
            {(1, 2): 1},
            {"a": [1], (1, 2): [2]},
            {"a": {1, 2}},
            {"a": [Fraction(1, 2)]},
            {"a": [[Fraction(1, 2)]]},
        ],
    )
    def test_int_keys_and_refused_values_match_json_or_its_error(self, record):
        assert _outcome(_written, record) == _outcome(dumps, record) == _outcome(_reference, record)

    @given(_records(st.text()))
    @settings(max_examples=100, deadline=None)
    def test_matches_json_without_the_c_encoder(self, record):
        expected = _reference(record)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "c_make_encoder", None)
            mp.setattr(json.encoder, "c_make_encoder", None)
            assert dumps(record) == expected


class TestRecords:
    def test_dumps_is_canonical(self):
        a = dumps({"b": 1, "a": [2, 3]})
        b = dumps({"a": [2, 3], "b": 1})
        assert a == b

    def test_burn_outcome_record_fields(self):
        out = simulate(path_graph(3), (0, 2))
        record = burn_outcome_record(out)
        assert record["sources"] == [0, 2]
        assert record["valid"] and record["complete"]

    def test_firefight_record_fields(self):
        run = verify_firefighter(path_graph(3), 0, [1])
        record = firefight_record(run)
        assert record["saved"] == 2 and record["valid"]

    def test_percolation_record_flags_threshold_two(self):
        run = bootstrap_percolate(path_graph(3), {0, 2}, 2)
        record = percolation_record(run)
        assert record["threshold_at_lower_limit"] is True
        assert record["percolates"] is True
