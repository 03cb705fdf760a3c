"""The exact text of the toolkit's precondition and parse messages.

Each case pins one raise, or one verdict branch, that no other test reaches,
plus the text of every vertex-range message (``tests/test_approx.py`` pins
the prefix one).  The messages are part of the CLI's output, so a refactor
that moves a check must keep its words.
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stdout

import pytest

from burnkit import (
    BurnkitError,
    DiskArrangement,
    DisconnectedGraphError,
    Graph,
    IntervalSet,
    InvalidSequenceError,
    RejectedInputError,
    SplitPartition,
    bfs_distances,
    bootstrap_percolate,
    burn_3approx,
    burning_number_exact,
    check_d3p_solution,
    covers_all,
    diameter_path,
    firefight_bruteforce,
    firefight_pk_free,
    gen_spider,
    neighborhood,
    next_fire_source,
    simulate,
    validate_d3p,
    validate_split,
    verify_firefighter,
)
from burnkit import cli
from burnkit.cli import main

from helpers import path_graph

P3 = path_graph(3)


def _raises(error, message, call, *args, **kwargs):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(*args, **kwargs)


RANGE_CASES = [
    ("sequence vertex 5 out of range", simulate, P3, (0, 5)),
    ("sequence vertex -1 out of range", simulate, P3, (-1,)),
    ("start vertex 3 out of range", burn_3approx, P3, 3),
    ("start vertex -1 out of range", burn_3approx, P3, -1),
    ("source 3 out of range", bfs_distances, P3, 3),
    ("source -2 out of range", bfs_distances, P3, -2),
    ("vertex 7 out of range", neighborhood, P3, {0, 7}, 1),
    ("fire origin 9 out of range", verify_firefighter, P3, 9, []),
    ("fire origin -1 out of range", verify_firefighter, P3, -1, [4]),
    ("placement vertex 7 out of range", verify_firefighter, P3, 0, [2, 7]),
    ("placement vertex -3 out of range", verify_firefighter, P3, 0, [-3]),
    ("fire origin 5 out of range", firefight_bruteforce, P3, 5),
    ("fire origin -1 out of range", firefight_pk_free, P3, -1, 3),
    ("fire origin 3 out of range", firefight_pk_free, P3, 3, 1),
    ("seed vertex 4 out of range", bootstrap_percolate, P3, {4}, 2),
    ("seed vertex 4 out of range", bootstrap_percolate, P3, {4}, 1),
]


def _case_id(x) -> str:
    """A callable by its name: its repr holds a memory address, which would
    change the test id from run to run."""
    return x.__name__ if callable(x) else str(x)[:40]


@pytest.mark.parametrize(
    "message, call, args", [(m, c, a) for m, c, *a in RANGE_CASES], ids=_case_id
)
def test_vertex_range_messages(message, call, args):
    _raises(RejectedInputError, message, call, *args)


def test_range_is_checked_before_the_cap():
    # firefight_bruteforce checks the origin before the vertex cap
    _raises(RejectedInputError, "fire origin 12 out of range", firefight_bruteforce, path_graph(12), 12)


PRECONDITION_CASES = [
    ("instance must be nonempty", validate_d3p, []),
    ("instance size must be divisible by 3", validate_d3p, [5, 6, 7, 8]),
    ("instance elements must be positive integers", validate_d3p, [-1, 2, 3]),
    ("instance elements must be positive integers", validate_d3p, [1.5, 2, 3]),
    ("spider needs s >= 1 arms of length r >= 0", gen_spider, 0, 3),
    ("path bound k must be at least 2", firefight_pk_free, P3, 0, 1),
    ("radius must be nonnegative", neighborhood, P3, {0}, -1),
    ("interval endpoints must be Fractions", IntervalSet, ((1, 2),)),
    ("disk coordinates must be Fractions", DiskArrangement, ((0, 0, 1),)),
    ("the first source is chosen freely, not by ratio", next_fire_source, P3, 1, []),
    (
        "independent part contains edge (1, 2)",
        validate_split,
        P3,
        SplitPartition(frozenset({0}), frozenset({1, 2})),
    ),
    (
        "partition must split the vertex set exactly",
        validate_split,
        P3,
        SplitPartition(frozenset({0}), frozenset({1})),
    ),
]


@pytest.mark.parametrize(
    "message, call, args", [(m, c, a) for m, c, *a in PRECONDITION_CASES], ids=_case_id
)
def test_precondition_messages(message, call, args):
    _raises(RejectedInputError, message, call, *args)


def test_exact_workers_message():
    _raises(RejectedInputError, "workers must be >= 1", burning_number_exact, P3, workers=0)


def test_diameter_of_the_empty_graph():
    _raises(DisconnectedGraphError, "diameter undefined for the empty graph", diameter_path, Graph(0, ()))


def test_d3p_solution_verdicts():
    inst = validate_d3p([4, 5, 6])
    assert check_d3p_solution(inst, [(6, 5, 4)])
    assert not check_d3p_solution(inst, [(4, 5)])  # a part that is not a triple
    assert not check_d3p_solution(inst, [(4, 5, 7)])  # not the instance's elements


def test_covers_all_verdicts():
    assert covers_all(P3, (1, 0))
    assert not covers_all(P3, (1,))


@pytest.mark.parametrize(
    "fmt, text, message",
    [
        ("edges", "", "empty edge-list input"),
        ("edges", "# only a comment\n\n", "empty edge-list input"),
        ("edges", "2 1\n0 x\n", "bad edge line ['0', 'x']"),
        ("edges", "2 1\n0 1 1\n", "bad edge line ['0', '1', '1']"),
        ("permutation", "1\nx\n", "bad permutation entry 'x'"),
    ],
)
def test_parse_messages_exit_3(tmp_path, capsys, fmt, text, message):
    target = tmp_path / "input.txt"
    target.write_text(text)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["burn", "--format", fmt, str(target)])
    assert (code, buffer.getvalue()) == (3, "")
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_split_clique_outside_the_vertex_set_exits_5(tmp_path, capsys):
    target = tmp_path / "p3.edges"
    target.write_text("3 2\n0 1\n1 2\n")
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["burn", "--engine", "split", "--clique", "0,99", str(target)])
    assert (code, buffer.getvalue()) == (5, "")
    assert capsys.readouterr().err == "precondition violated: partition must split the vertex set exactly\n"


@pytest.mark.parametrize("text", ["{}", "[]"], ids=["empty-object", "list"])
def test_certificate_without_claimed_k_exits_3(tmp_path, capsys, text):
    certificate = tmp_path / "c.cert.json"
    certificate.write_text(text)
    target = tmp_path / "p3.edges"
    target.write_text("3 2\n0 1\n1 2\n")
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["verify", "--certificate", str(certificate), str(target)])
    assert (code, buffer.getvalue()) == (3, "")
    assert capsys.readouterr().err == "parse error: certificate JSON missing required fields\n"


@pytest.mark.parametrize(
    "error, code, prefix",
    [(InvalidSequenceError, 2, "invalid sequence"), (BurnkitError, 1, "error")],
    ids=["invalid-sequence", "catch-all"],
)
def test_errors_no_command_raises_exit_cleanly(monkeypatch, tmp_path, capsys, error, code, prefix):
    """No CLI path raises either error now; the handlers keep a future one
    from ending in a traceback."""

    def engine(args, G):
        raise error("boom")

    monkeypatch.setitem(cli._BURN_ENGINES, "path", engine)
    target = tmp_path / "p3.edges"
    target.write_text("3 2\n0 1\n1 2\n")
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        exit_code = main(["burn", "--engine", "path", str(target)])
    assert (exit_code, buffer.getvalue()) == (code, "")
    assert capsys.readouterr().err == f"{prefix}: boom\n"
