"""Property tests over ``cli.main``: any argv over small files of any format
ends in a documented exit code, with a message on every failure, and never
in a traceback; and it answers byte for byte as the full parser would."""

import argparse
import contextlib
import json
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit import cli, formats
from helpers import run_main

CAP = 7
"""The vertex cap under test.  Every graph a run reads or builds is this
small, so brute force over any of them stays fast."""


def _mostly(good, bad):
    """Draws from ``good``, and about one time in eight from ``bad``.  Bad is
    a middle roll, because hypothesis draws the ends of a range more often."""
    return st.integers(0, 7).flatmap(lambda roll: bad if roll == 5 else good)


def _lines(rows) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


NUMBERS = st.sampled_from(
    ["-2", "-1", "0", "1", "2", "3", "5", "7", "8", "9", "3/2", "1.5", "1/0", "1e3", "1e4301", "9" * 30]
)
MALFORMED = st.sampled_from(["", "x", "-", "1.5", "3/2", "1e3", "9" * 5000])
TOKENS = st.one_of(
    NUMBERS,
    MALFORMED,
    st.sampled_from([",", "0,0", "1,2", "4,5,6", "5,6,8", "9,10,11,12,13,15"]),
    st.lists(st.integers(-2, 9), max_size=4).map(lambda values: ",".join(map(str, values))),
)
"""Values of the list and text options: small, boundary and malformed."""

WELL_FORMED = {
    "edges": st.integers(1, CAP).flatmap(
        lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n).map(
            lambda edges: _lines([(n, len(edges)), *edges])
        )
    ),
    "intervals": st.lists(
        st.tuples(st.integers(0, 18), st.integers(1, 6)).map(lambda t: (f"{t[0]}/2", f"{t[0] + t[1]}/2")),
        max_size=CAP,
    ).map(_lines),
    "permutation": st.integers(0, CAP).flatmap(lambda k: st.permutations(range(1, k + 1))).map(
        lambda perm: _lines((value,) for value in perm)
    ),
    "disks": st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.sampled_from([1, 2, "3/2"])), max_size=CAP
    ).map(_lines),
}
"""Input files that parse in each format, within the cap."""

ANY_TEXT = st.one_of(
    st.lists(st.lists(NUMBERS, min_size=1, max_size=4), max_size=CAP + 2).map(_lines),
    st.sampled_from([CAP, CAP + 1, -1]).map(lambda n: f"{n} 0\n"),
    st.text(max_size=40),
    st.binary(max_size=20),
)
"""Input files of any format: records of one to four tokens, an edge-list
header at and past the cap, and garbage, as ``str`` or raw ``bytes``."""

CERTIFICATES = st.one_of(
    st.fixed_dictionaries(
        {
            "claimed_k": st.integers(0, 3),
            # n, m and the decomposition are almost always well formed, so
            # that drawn certificates reach the checks against the graph
            "n": _mostly(st.integers(0, CAP), st.none()),
            "m": _mostly(st.integers(0, 9), st.none()),
            "decomposition": st.lists(
                st.fixed_dictionaries(
                    {"label": st.just("Q1"), "vertices": st.lists(st.integers(-1, 8), max_size=4)}
                ),
                max_size=3,
            ),
        },
        optional={
            "canonical_sequence": st.one_of(
                st.none(),
                st.lists(st.integers(-1, 8), max_size=4),
                st.text(max_size=3),
                st.lists(st.one_of(st.booleans(), st.floats(), st.lists(st.integers()))),
            )
        },
    ).map(json.dumps),
    st.sampled_from(["", "[]", "{}", "nan", "[" * 100_000]),
    st.binary(max_size=12),
)


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    return cli._parsers()[1]


@st.composite
def invocations(draw, workdir: Path) -> list[str]:
    """An argv over one subcommand's options, each optional one present or not."""
    command = draw(st.sampled_from(sorted(_subcommands())))
    files = {
        "input": _mostly(st.just("input"), st.sampled_from(["absent", "."])),
        "certificate": _mostly(st.just("cert.json"), st.just("absent")),
        "out": _mostly(st.just("out/g"), st.just("input/g")),
    }
    engines = st.lists(st.sampled_from([*cli._BURN_ENGINES, "fastest"]), max_size=3).map(",".join)
    argv = [command]
    for action in _subcommands()[command]._actions:
        if action.dest == "help" or not (action.required or draw(st.booleans())):
            continue
        if action.choices is not None:
            value = draw(_mostly(st.sampled_from(list(action.choices)), st.just("bogus")))
        elif action.type in (int, float):
            # at most 9, a node budget or --vertex-cap included; --pk at most 5
            top = 5 if action.dest == "pk" else 9
            value = draw(_mostly(st.integers(-1, top).map(str), MALFORMED))
        elif action.dest in files:
            value = str(workdir / draw(files[action.dest]))
        else:
            value = draw(engines if action.dest == "engines" else TOKENS)
        if not action.option_strings:
            argv.append(value)
        elif action.nargs == 0:
            argv.append(action.option_strings[0])
        else:
            argv += [action.option_strings[0], value]
    return argv + draw(_mostly(st.just([]), st.just(["--bogus"])))


def _write(path: Path, content) -> None:
    path.write_bytes(content if isinstance(content, bytes) else content.encode())


@contextlib.contextmanager
def _drawn_job(data, certificate, env_budget):
    """A drawn argv over a scratch directory holding its drawn input and
    certificate files, under the test's vertex cap and the drawn node budget."""
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        workdir = Path(scratch)
        argv = data.draw(invocations(workdir), label="argv")
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "edges"
        _write(workdir / "input", data.draw(_mostly(WELL_FORMED.get(fmt, ANY_TEXT), ANY_TEXT), label="input"))
        _write(workdir / "cert.json", certificate)
        patch.setattr(formats, "_VERTEX_CAP", CAP)
        if env_budget is None:
            patch.delenv(cli.NODE_BUDGET_ENV, raising=False)
        else:
            patch.setenv(cli.NODE_BUDGET_ENV, env_budget)
        yield argv


ENV_BUDGETS = st.sampled_from([None, "", "0", "1", "9", "500", "lots", "-3"])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), certificate=CERTIFICATES, env_budget=ENV_BUDGETS)
def test_every_invocation_ends_in_a_documented_exit(data, certificate, env_budget):
    with _drawn_job(data, certificate, env_budget) as argv:
        code, stdout, message = run_main(argv)
    assert code in {0, 2, 3, 4, 5}, (argv, message)
    # an invalid sequence or firefighter run (exit 2) is a verdict: its report
    # is on stdout; every other failure says why on stderr
    assert code == 0 or message.strip() or (code == 2 and stdout), argv
    assert "Traceback" not in message


@settings(max_examples=150, deadline=None)
@given(data=st.data(), certificate=CERTIFICATES, env_budget=ENV_BUDGETS)
def test_every_invocation_answers_as_the_full_parser_does(data, certificate, env_budget):
    """Exit code, stdout and stderr, usage errors and ``--bogus`` included."""
    with _drawn_job(data, certificate, env_budget) as argv, pytest.MonkeyPatch.context() as patch:
        # a clock that stands still, so that ``--timings`` reports repeat
        patch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        assert run_main(argv) == run_main(argv, reference=True), argv
