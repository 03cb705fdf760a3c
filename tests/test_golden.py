"""Golden CLI corpus: recorded stdout bytes, exit codes and written files.

Every case runs in a scratch directory holding a copy of
``tests/golden/inputs`` and uses paths relative to it, so the recorded
bytes do not depend on where the checkout lives.  Each case runs under all
three ``--output`` renderings.  To record the corpus afresh (only when a
change is meant to alter CLI output):

    PYTHONPATH=src python tests/test_golden.py --record

It lists the keys it added, removed and changed, and counts the rest, which
kept their bytes.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from burnkit.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected.json"
OUTPUTS = ("json", "text", "dot")

_FORMAT_INPUTS = (
    ("edges", "p9.edges"),
    ("intervals", "small.intervals"),
    ("permutation", "small.perm"),
    ("disks", "small.disks"),
)
_ENGINES = (
    "exact",
    "bruteforce",
    "approx3",
    "path",
    "cycle",
    "split",
    "cograph",
    "interval-approx",
)


def _cases() -> list[list[str]]:
    cases = [
        ["burn", "--engine", engine, "--format", fmt, path]
        for engine in _ENGINES
        for fmt, path in _FORMAT_INPUTS
    ]
    cases += [
        ["burn", "--engine", "cycle", "c9.edges"],
        ["burn", "--engine", "split", "split.edges"],
        ["burn", "--engine", "split", "--clique", "0,1,2", "split.edges"],
        # split graphs with an empty independent side, isolated vertices or no clique
        ["burn", "--engine", "split", "k4.edges"],
        ["burn", "--engine", "split", "splitiso.edges"],
        ["burn", "--engine", "split", "--clique", "0,1,2", "splitiso.edges"],
        ["burn", "--engine", "split", "e5.edges"],
        ["burn", "--engine", "cograph", "k4.edges"],
        ["burn", "--engine", "cograph", "example.edges"],
        ["burn", "--engine", "exact", "example.edges"],
        ["burn", "--engine", "exact", "--workers", "2", "sp34.edges"],
        ["burn", "--engine", "exact", "--node-budget", "1", "sp34.edges"],
        # searches deep enough to pin the candidate order and where a budget runs out
        ["burn", "--engine", "exact", "sp47.edges"],
        ["burn", "--engine", "exact", "sp55.edges"],
        ["burn", "--engine", "exact", "grid56.edges"],
        ["burn", "--engine", "exact", "grid10.edges"],
        ["burn", "--engine", "exact", "--node-budget", "115", "sp47.edges"],
        ["burn", "--engine", "exact", "--node-budget", "116", "sp47.edges"],
        ["burn", "--engine", "exact", "--node-budget", "52", "sp55.edges"],
        ["burn", "--engine", "exact", "--node-budget", "53", "sp55.edges"],
        ["burn", "--engine", "exact", "--node-budget", "6", "grid56.edges"],
        ["burn", "--engine", "exact", "--node-budget", "7", "grid56.edges"],
        ["burn", "--engine", "exact", "--node-budget", "85", "grid10.edges"],
        ["burn", "--engine", "exact", "--node-budget", "86", "grid10.edges"],
        ["burn", "--engine", "bruteforce", "example.edges"],
        ["burn", "--engine", "bruteforce", "--vertex-cap", "5", "p9.edges"],
        ["burn", "--engine", "approx3", "--trace", "--x1", "4", "p9.edges"],
        ["burn", "--engine", "approx3", "--trace", "sp34.edges"],
        # approx3 runs of many rounds, one of them on a disconnected graph
        ["burn", "--engine", "approx3", "--trace", "grid56.edges"],
        ["burn", "--engine", "approx3", "--trace", "pg456.edges"],
        ["burn", "--engine", "approx3", "--trace", "sp55.edges"],
        ["burn", "--engine", "approx3", "--trace", "--format", "intervals", "ig456.intervals"],
        ["burn", "--engine", "approx3", "--trace", "--format", "disks", "dk456.disks"],
        # disks on the boundary: tangencies, a duplicate, a nested and a giant disk
        ["burn", "--engine", "approx3", "--format", "disks", "tangent.disks"],
        # denominators past 2**64, tangency and a miss by one unit of them, a 1e4300 centre
        ["burn", "--engine", "approx3", "--format", "disks", "bigden.disks"],
        # diameter ties and the radius bound on larger graphs
        ["burn", "--engine", "interval-approx", "grid56.edges"],
        ["burn", "--engine", "interval-approx", "sp55.edges"],
        ["burn", "--engine", "interval-approx", "--format", "intervals", "ig456.intervals"],
        # rejections: disconnected, a path forest, a path that is not a cycle, two cycles
        ["burn", "--engine", "interval-approx", "pg456.edges"],
        ["burn", "--engine", "path", "pg456.edges"],
        ["burn", "--engine", "cycle", "p9.edges"],
        ["burn", "--engine", "cycle", "2c3.edges"],
        # a path listed out of order whose first source clamps to position 1
        ["burn", "--engine", "path", "p6.edges"],
        # rationals that do not parse
        ["burn", "--engine", "approx3", "--format", "disks", "bad.disks"],
        ["burn", "--engine", "approx3", "--format", "intervals", "zero.intervals"],
        ["verify", "--sequence", "2,6,8", "p9.edges"],
        ["verify", "--sequence", "1,6,5", "example.edges"],
        ["verify", "--sequence", "1,1", "p9.edges"],
        ["verify", "--sequence", "2,6,3", "p9.edges"],
        ["verify", "--sequence", "2,6", "p9.edges"],
        ["verify", "--sequence", "0,3,6", "--format", "intervals", "small.intervals"],
        ["verify", "p9.edges"],
        ["verify", "--certificate", "pg456.cert.json", "pg456.edges"],
        ["verify", "--certificate", "ig456.cert.json", "--format", "intervals", "ig456.intervals"],
        ["verify", "--certificate", "dk456.cert.json", "--format", "disks", "dk456.disks"],
        ["verify", "--certificate", "pg456nosol.cert.json", "pg456.edges"],
        ["gen", "spider", "--s", "4", "--r", "2", "--out", "out/sp"],
        ["gen", "spider-forest", "--degrees", "2,3", "--out", "out/sf"],
        ["gen", "path", "--n", "9", "--out", "out/p"],
        ["gen", "cycle", "--n", "9", "--out", "out/c"],
        ["gen", "cycle", "--n", "2", "--out", "out/c"],
        ["gen", "random", "--n", "10", "--p", "0.4", "--seed", "3", "--out", "out/r"],
        ["gen", "intervals", "--n", "6", "--seed", "1", "--out", "out/i"],
        ["gen", "permutation", "--k", "7", "--seed", "2", "--out", "out/perm"],
        ["gen", "ig-gadget", "--x", "4,5,6", "--out", "out/ig"],
        ["gen", "ig-gadget", "--x", "4,5,6", "--solve", "no", "--out", "out/ig"],
        ["gen", "ig-gadget", "--x", "5,6,8", "--solve", "no", "--out", "out/ig"],
        ["gen", "pg-gadget", "--x", "4,5,6", "--out", "out/pg"],
        ["gen", "pg-gadget", "--x", "10,11,12,14,15,16", "--solve", "no", "--out", "out/pg"],
        # the smallest two-triple instance, solved under --solve auto
        ["gen", "pg-gadget", "--x", "9,10,11,12,13,15", "--out", "out/pg"],
        ["gen", "dk-gadget", "--x", "9,10,11,12,13,15", "--q", "32", "--out", "out/dk"],
        ["gen", "dk-gadget", "--x", "4,5,6", "--q", "14", "--out", "out/dk"],
        # both ends of the ring sizes that x=5,6,8 admits
        ["gen", "dk-gadget", "--x", "5,6,8", "--q", "18", "--out", "out/dk"],
        ["gen", "dk-gadget", "--x", "5,6,8", "--q", "21", "--out", "out/dk"],
        ["gen", "dk-gadget", "--x", "4,5,6", "--out", "out/dk"],
        ["firefight", "--origin", "0", "--engine", "brute", "p9.edges"],
        ["firefight", "--origin", "4", "--engine", "verify", "--placements", "3", "p9.edges"],
        ["firefight", "--origin", "0", "--engine", "verify", "--placements", "0", "p9.edges"],
        ["firefight", "--origin", "0", "--engine", "pkfree", "example.edges"],
        ["firefight", "--origin", "4", "--engine", "verify", "--placements", "3,3", "p9.edges"],
        ["firefight", "--origin", "0", "--engine", "brute", "c9.edges"],
        ["firefight", "--origin", "1", "--engine", "brute", "k4.edges"],
        ["firefight", "--origin", "2", "--engine", "pkfree", "--pk", "4", "split.edges"],
        ["percolate", "--seed-set", "0,2", "--threshold", "2", "p9.edges"],
        ["percolate", "--seed-set", "0,1", "--threshold", "2", "k4.edges"],
        ["bench"],
        ["bench", "--kind", "cycle", "--sizes", "9,16", "--engines", "path,approx3,exact"],
    ]
    return [case + ["--output", output] for case in cases for output in OUTPUTS]


CASES = _cases()


def _case_id(argv: list[str]) -> str:
    return " ".join(argv)


def _run(argv: list[str], workdir: Path) -> dict:
    """Run one case in ``workdir``; returns exit code, stdout and written files."""
    for source in INPUTS.iterdir():
        shutil.copy(source, workdir / source.name)
    before = set(workdir.rglob("*"))
    previous = os.getcwd()
    os.chdir(workdir)
    buffer = io.StringIO()
    try:
        with redirect_stdout(buffer):
            code = main(argv)
    finally:
        os.chdir(previous)
    written = {
        path.relative_to(workdir).as_posix(): path.read_text()
        for path in sorted(set(workdir.rglob("*")) - before)
        if path.is_file()
    }
    return {"exit": code, "stdout": buffer.getvalue(), "files": written}


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED.read_text())


def test_corpus_lists_every_case(expected):
    assert sorted(expected) == sorted(_case_id(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=_case_id)
def test_golden_case(argv, expected, tmp_path):
    assert _run(argv, tmp_path) == expected[_case_id(argv)]


def _record() -> None:
    """Record every case, then print the ids of the keys added, removed and
    changed against the previous recording, and how many stayed identical."""
    previous = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    recorded = {}
    with redirect_stderr(io.StringIO()):  # the error messages of the failing cases
        for argv in CASES:
            with tempfile.TemporaryDirectory() as scratch:
                recorded[_case_id(argv)] = _run(argv, Path(scratch))
    EXPECTED.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n")
    print(f"recorded {len(recorded)} cases into {EXPECTED}")
    changed = sorted(key for key in recorded.keys() & previous.keys() if recorded[key] != previous[key])
    for label, keys in (
        ("added", sorted(recorded.keys() - previous.keys())),
        ("removed", sorted(previous.keys() - recorded.keys())),
        ("changed", changed),
    ):
        print(f"{label}: {len(keys)}")
        for key in keys:
            print(f"  {key}")
    print(f"identical: {len(recorded.keys() & previous.keys()) - len(changed)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden.py --record")
    _record()
