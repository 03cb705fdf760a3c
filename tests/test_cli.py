import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from burnkit import cli
from burnkit.cli import _BURN_ENGINES, build_parser, main
from burnkit.formats import format_edge_list

from helpers import fig_example_graph, path_graph, run_main


def run_cli(*args) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(args))
    return code, buffer.getvalue()


@pytest.fixture
def p9(tmp_path):
    target = tmp_path / "p9.edges"
    target.write_text(format_edge_list(path_graph(9)))
    return str(target)


@pytest.fixture
def example(tmp_path):
    target = tmp_path / "example.edges"
    target.write_text(format_edge_list(fig_example_graph()))
    return str(target)


class TestBurnCommand:
    def test_exact_on_path(self, p9):
        code, out = run_cli("burn", "--engine", "exact", p9)
        record = json.loads(out)
        assert code == 0 and record["k"] == 3 and record["valid"]

    def test_exact_on_example_graph(self, example):
        code, out = run_cli("burn", "--engine", "exact", example)
        assert json.loads(out)["k"] == 3

    def test_approx_reports_lower_bound(self, p9):
        code, out = run_cli("burn", "--engine", "approx3", "--trace", p9)
        record = json.loads(out)
        assert code == 0
        assert record["k"] <= 9
        assert record["implied_lower"] <= 3
        assert record["trace"]

    def test_path_engine(self, p9):
        code, out = run_cli("burn", "--engine", "path", p9)
        assert json.loads(out)["sequence"] == [2, 6, 8]

    def test_dot_output(self, p9):
        code, out = run_cli("burn", "--engine", "path", "--output", "dot", p9)
        assert out.startswith("graph G {") and "burnstep" in out

    def test_split_engine_on_non_split_input(self, p9):
        code, _ = run_cli("burn", "--engine", "split", p9)
        assert code == 5

    def test_budget_exit_code(self, tmp_path):
        from burnkit.hardness import gen_spider

        target = tmp_path / "sp.edges"
        target.write_text(format_edge_list(gen_spider(4, 4)))
        code, _ = run_cli("burn", "--engine", "exact", "--node-budget", "1", str(target))
        assert code == 4

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("not a graph\n")
        code, _ = run_cli("burn", bad.as_posix())
        assert code == 3

    def test_negative_vertex_count_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "negative.edges"
        bad.write_text("-1 0\n")
        assert run_cli("burn", str(bad)) == (3, "")
        assert capsys.readouterr().err == "parse error: vertex count must be nonnegative\n"

    def test_interval_format_input(self, tmp_path):
        source = tmp_path / "nine.intervals"
        source.write_text("".join(f"{i} {i + 1}\n" for i in range(9)))
        code, out = run_cli(
            "burn", "--engine", "interval-approx", "--format", "intervals", str(source)
        )
        assert code == 0 and json.loads(out)["k"] == 3

    def test_approx_start_vertex_flag(self, p9):
        code, out = run_cli("burn", "--engine", "approx3", "--x1", "4", p9)
        assert json.loads(out)["sequence"][0] == 4

    def test_bruteforce_engine(self, example):
        code, out = run_cli("burn", "--engine", "bruteforce", example)
        record = json.loads(out)
        assert code == 0 and record["k"] == 3 and record["nodes_explored"] > 0

    def test_cycle_engine(self, tmp_path):
        from helpers import cycle_graph

        target = tmp_path / "c9.edges"
        target.write_text(format_edge_list(cycle_graph(9)))
        code, out = run_cli("burn", "--engine", "cycle", str(target))
        assert code == 0 and json.loads(out)["k"] == 3

    def test_cograph_engine(self, tmp_path):
        target = tmp_path / "k4.edges"
        from helpers import complete_graph

        target.write_text(format_edge_list(complete_graph(4)))
        code, out = run_cli("burn", "--engine", "cograph", str(target))
        assert code == 0 and json.loads(out)["k"] == 2

    def test_text_output(self, p9):
        code, out = run_cli("burn", "--engine", "path", "--output", "text", p9)
        assert code == 0 and "k: 3" in out

    def test_node_budget_environment_default(self, monkeypatch, tmp_path):
        from burnkit.hardness import gen_spider

        target = tmp_path / "sp.edges"
        target.write_text(format_edge_list(gen_spider(4, 4)))
        monkeypatch.setenv("BURNKIT_NODE_BUDGET", "1")
        code, _ = run_cli("burn", "--engine", "exact", str(target))
        assert code == 4
        monkeypatch.delenv("BURNKIT_NODE_BUDGET")
        code, _ = run_cli("burn", "--engine", "exact", str(target))
        assert code == 0

    def test_non_integer_node_budget_environment(self, monkeypatch, p9, capsys):
        monkeypatch.setenv("BURNKIT_NODE_BUDGET", "lots")
        code, _ = run_cli("burn", "--engine", "exact", p9)
        assert code == 3 and "BURNKIT_NODE_BUDGET" in capsys.readouterr().err

    def test_negative_node_budget_rejected(self, monkeypatch, p9, capsys):
        code, _ = run_cli("burn", "--engine", "exact", "--node-budget", "-5", p9)
        assert code == 5 and "node budget must be >= 0" in capsys.readouterr().err
        monkeypatch.setenv("BURNKIT_NODE_BUDGET", "-5")
        code, _ = run_cli("burn", "--engine", "exact", p9)
        assert code == 5
        # zero stays a legal budget that is spent at once
        code, _ = run_cli("burn", "--engine", "exact", "--node-budget", "0", p9)
        assert code == 4

    @pytest.mark.parametrize("engine", tuple(_BURN_ENGINES))
    def test_empty_graph_rejected_by_every_engine(self, engine, tmp_path, capsys):
        target = tmp_path / "empty.edges"
        target.write_text("0 0\n")
        code, out = run_cli("burn", "--engine", engine, str(target))
        err = capsys.readouterr().err
        assert code == 5 and out == "" and "Traceback" not in err
        assert err.startswith("precondition violated: ")
        assert err.removeprefix("precondition violated: ").strip()
        assert "empty" in err

    @pytest.mark.parametrize(
        "text, m",
        [
            ("0 0 1e200\n5 0 1\n", 1),  # squaring the float radius sum overflows
            ("1e400 0 1\n0 0 1\n", 0),  # the centre has no float at all
        ],
        ids=["radius-sum-squared", "centre"],
    )
    def test_disks_beyond_the_float_range(self, text, m, tmp_path, capsys):
        from fractions import Fraction

        target = tmp_path / "huge.disks"
        target.write_text(text)
        code, out = run_cli("burn", "--engine", "approx3", "--format", "disks", str(target))
        assert code == 0 and "Traceback" not in capsys.readouterr().err
        (xa, ya, ra), (xb, yb, rb) = ([Fraction(t) for t in line.split()] for line in text.splitlines())
        assert m == int((xa - xb) ** 2 + (ya - yb) ** 2 <= (ra + rb) ** 2)
        record = json.loads(out)
        assert (record["n"], record["m"], record["valid"]) == (2, m, True)

    @pytest.mark.parametrize(
        "engine, text",
        [
            ("path", "4 2\n0 1\n2 3\n"),  # two paths
            ("path", "5 4\n0 1\n2 3\n3 4\n4 2\n"),  # a path and a triangle
            ("path", "2 0\n"),  # two isolated vertices
            ("cycle", "6 6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n"),  # two triangles
            ("cycle", "3 2\n0 1\n1 2\n"),  # a path
        ],
        ids=["two-paths", "path-and-triangle", "two-vertices", "two-triangles", "path"],
    )
    def test_linear_engines_reject_other_graphs(self, engine, text, tmp_path, capsys):
        target = tmp_path / "g.edges"
        target.write_text(text)
        code, out = run_cli("burn", "--engine", engine, str(target))
        assert (code, out) == (5, "")
        assert capsys.readouterr().err == f"precondition violated: graph is not a {engine}\n"

    def test_timings_add_only_seconds(self, p9):
        _, plain = run_cli("burn", "--engine", "exact", p9)
        code, timed = run_cli("burn", "--engine", "exact", "--timings", p9)
        plain, timed = json.loads(plain), json.loads(timed)
        timings = timed.pop("timings")
        assert code == 0 and timed == plain
        assert list(timings) == ["seconds"]
        assert isinstance(timings["seconds"], float) and timings["seconds"] >= 0

    def test_dot_rendered_only_for_dot_output(self, monkeypatch, p9):
        from burnkit import formats

        def refuse(*args, **kwargs):
            raise AssertionError("DOT rendered for non-DOT output")

        monkeypatch.setattr(formats, "graph_to_dot", refuse)
        monkeypatch.setattr(formats, "firefight_to_dot", refuse)
        for output in ("json", "text"):
            for args in (
                ("burn", "--engine", "path", p9),
                ("verify", "--sequence", "2,6,8", p9),
                ("firefight", "--origin", "0", p9),
            ):
                code, _ = run_cli(*args, "--output", output)
                assert code == 0


class TestVerifyCommand:
    def test_valid_sequence(self, example):
        code, out = run_cli("verify", "--sequence", "1,6,5", example)
        assert code == 0 and json.loads(out)["valid"]

    def test_invalid_sequence(self, example):
        code, out = run_cli("verify", "--sequence", "1", example)
        assert code == 2 and not json.loads(out)["valid"]

    def test_certificate_round_trip(self, tmp_path):
        prefix = tmp_path / "gadget"
        code, _ = run_cli("gen", "pg-gadget", "--x", "4,5,6", "--out", str(prefix))
        assert code == 0
        code, out = run_cli(
            "verify",
            "--certificate",
            str(prefix) + ".cert.json",
            str(prefix) + ".edges",
        )
        assert code == 0 and json.loads(out)["valid"]


    @pytest.fixture
    def pg456(self, tmp_path):
        """The pg gadget for x=4,5,6: (edge-list path, certificate dict)."""
        prefix = tmp_path / "gadget"
        assert run_cli("gen", "pg-gadget", "--x", "4,5,6", "--out", str(prefix))[0] == 0
        return str(prefix) + ".edges", json.loads(Path(str(prefix) + ".cert.json").read_text())

    def assert_certificate_exit(self, code_wanted, graph, cert, tmp_path, capsys, message):
        path = tmp_path / "edited.cert.json"
        path.write_text(json.dumps(cert))
        code, out = run_cli("verify", "--certificate", str(path), graph)
        assert (code, out) == (code_wanted, "")
        assert capsys.readouterr().err.endswith(message + "\n")

    def test_certificate_for_another_graph(self, pg456, tmp_path, capsys):
        edges, cert = pg456
        lines = Path(edges).read_text().splitlines()
        n, m = map(int, lines[0].split())
        extra = tmp_path / "extra.edges"
        extra.write_text("\n".join([f"{n} {m + 1}", "0 1", *lines[1:]]) + "\n")
        self.assert_certificate_exit(
            5, str(extra), cert, tmp_path, capsys,
            "certificate has n=36, m=32, but the graph has n=36, m=33",
        )

    def test_segment_that_is_not_a_path(self, pg456, tmp_path, capsys):
        edges, cert = pg456
        first = cert["decomposition"][0]
        assert first["vertices"][:3] == [0, 2, 1]
        first["vertices"][1:3] = [1, 2]
        self.assert_certificate_exit(
            5, edges, cert, tmp_path, capsys,
            "certificate segment Q1 is not a path of the graph: no edge (0, 1)",
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda c: c.update(claimed_k=5),
                "certificate canonical_sequence has 6 sources, but claimed_k is 5",
            ),
            (
                lambda c: c["decomposition"][2]["vertices"].insert(0, 30),
                "certificate decomposition lists vertex 30 twice",
            ),
            (
                lambda c: c["decomposition"][3]["vertices"].append(35),
                "certificate decomposition lists vertex 35 twice",
            ),
            (
                lambda c: c["decomposition"][3].update(vertices=[36]),
                "certificate segment Q4 vertex 36 out of range",
            ),
            (
                lambda c: c["decomposition"][3].update(vertices=[]),
                "certificate segment Q4 is empty",
            ),
        ],
        ids=["claimed-k", "overlap", "repeat", "range", "empty"],
    )
    def test_certificate_mismatch_exits_5(self, pg456, tmp_path, capsys, edit, message):
        edges, cert = pg456
        edit(cert)
        self.assert_certificate_exit(5, edges, cert, tmp_path, capsys, message)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: c.pop("n"), "certificate n and m must be integers"),
            (lambda c: c.update(m="32"), "certificate n and m must be integers"),
            (lambda c: c.update(n=True), "certificate n and m must be integers"),
            (
                lambda c: c.update(decomposition=None),
                "certificate decomposition must be a list of {label, vertices: [int]}",
            ),
            (
                lambda c: c["decomposition"][0].pop("label"),
                "certificate decomposition must be a list of {label, vertices: [int]}",
            ),
            (
                lambda c: c["decomposition"][0].update(vertices=[0, 2.0]),
                "certificate decomposition must be a list of {label, vertices: [int]}",
            ),
        ],
        ids=["no-n", "string-m", "bool-n", "null", "no-label", "float-vertex"],
    )
    def test_malformed_certificate_exits_3(self, pg456, tmp_path, capsys, edit, message):
        edges, cert = pg456
        edit(cert)
        self.assert_certificate_exit(3, edges, cert, tmp_path, capsys, message)

    def test_missing_certificate_file(self, p9, tmp_path, capsys):
        missing = str(tmp_path / "absent.cert.json")
        code, out = run_cli("verify", "--certificate", missing, p9)
        assert code == 3 and out == "" and "absent.cert.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sequence",
        ["12", [1.5, 2], 7, [True, 2], [[1], 2]],
        ids=["string", "float", "number", "bool", "nested"],
    )
    def test_malformed_canonical_sequence(self, p9, tmp_path, capsys, sequence):
        cert = tmp_path / "bad.cert.json"
        cert.write_text(json.dumps({"claimed_k": 3, "canonical_sequence": sequence}))
        code, out = run_cli("verify", "--certificate", str(cert), p9)
        assert code == 3 and out == "" and "canonical_sequence" in capsys.readouterr().err


class TestGenCommand:
    def test_spider(self, tmp_path):
        prefix = tmp_path / "sp"
        code, out = run_cli("gen", "spider", "--s", "4", "--r", "4", "--out", str(prefix))
        record = json.loads(out)
        assert code == 0 and record["n"] == 17
        assert Path(record["files"][0]).exists()

    def test_random_round_trip_identical(self, tmp_path):
        from burnkit.formats import parse_edge_list

        prefix = tmp_path / "rand"
        code, out = run_cli("gen", "random", "--n", "12", "--p", "0.4", "--seed", "7", "--out", str(prefix))
        record = json.loads(out)
        text = Path(str(prefix) + ".edges").read_text()
        g = parse_edge_list(text)
        assert g.n == record["n"] and g.edge_count == record["m"]
        # regeneration with the same seed writes identical bytes
        (tmp_path / "again").mkdir()
        prefix2 = tmp_path / "again" / "rand"
        run_cli("gen", "random", "--n", "12", "--p", "0.4", "--seed", "7", "--out", str(prefix2))
        assert Path(str(prefix2) + ".edges").read_text() == text

    def test_random_edge_probability_out_of_range(self, tmp_path, capsys):
        for p in ("2", "-1"):
            prefix = tmp_path / f"rand{p}"
            code, out = run_cli("gen", "random", "--n", "5", "--p", p, "--out", str(prefix))
            assert code == 5 and out == "" and not Path(str(prefix) + ".edges").exists()
            assert "--p must lie in [0, 1]" in capsys.readouterr().err
        for p in ("0", "1"):
            code, _ = run_cli("gen", "random", "--n", "5", "--p", p, "--out", str(tmp_path / "ok"))
            assert code == 0

    def test_ig_gadget_files(self, tmp_path):
        prefix = tmp_path / "ig"
        code, out = run_cli("gen", "ig-gadget", "--x", "4,5,6", "--out", str(prefix))
        record = json.loads(out)
        assert record["claimed_k"] == 13 and record["n"] == 288
        cert = json.loads(Path(str(prefix) + ".cert.json").read_text())
        assert len(cert["canonical_sequence"]) == 13

    def test_written_graph_round_trips_to_identical_vertex_ids(self, tmp_path):
        from burnkit import gen_ig_gadget, validate_d3p
        from burnkit.formats import parse_edge_list

        prefix = tmp_path / "ig"
        run_cli("gen", "ig-gadget", "--x", "4,5,6", "--out", str(prefix))
        parsed = parse_edge_list(Path(str(prefix) + ".edges").read_text())
        built = gen_ig_gadget(validate_d3p([4, 5, 6]), [(4, 5, 6)]).graph
        assert parsed == built

    def test_dk_gadget(self, tmp_path):
        prefix = tmp_path / "dk"
        code, out = run_cli("gen", "dk-gadget", "--x", "4,5,6", "--q", "14", "--out", str(prefix))
        record = json.loads(out)
        assert record["n"] == 121 and record["claimed_k"] == 7

    def test_pg_gadget_full_scale_orders(self, tmp_path):
        prefix = tmp_path / "pg"
        code, out = run_cli(
            "gen", "pg-gadget", "--x", "10,11,12,14,15,16", "--out", str(prefix)
        )
        record = json.loads(out)
        assert record["n"] == 256 and record["claimed_k"] == 16
        cert = json.loads(Path(str(prefix) + ".cert.json").read_text())
        orders = [len(entry["vertices"]) for entry in cert["decomposition"]]
        assert orders == [75, 75, 25, 17, 15, 13, 11, 9, 7, 5, 3, 1]

    def test_bad_parameters(self, tmp_path):
        code, _ = run_cli("gen", "dk-gadget", "--x", "4,5,6", "--q", "13", "--out", str(tmp_path / "x"))
        assert code == 5

    def test_missing_ring_size(self, tmp_path):
        code, _ = run_cli("gen", "dk-gadget", "--x", "4,5,6", "--out", str(tmp_path / "x"))
        assert code == 3

    @pytest.mark.parametrize(
        "kind, size",
        [("path", "--n"), ("random", "--n"), ("intervals", "--n"), ("permutation", "--k")],
    )
    def test_negative_order_writes_nothing(self, kind, size, tmp_path, capsys):
        prefix = tmp_path / "p"
        assert run_cli("gen", kind, size, "-3", "--out", str(prefix)) == (5, "")
        assert "vertex count must be nonnegative" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestUnreadableAndUnwritableFiles:
    """Files that cannot be decoded, parsed or written exit 3 with a message."""

    def assert_exit_3(self, argv, capsys, *needles):
        code, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert (code, out) == (3, "") and "Traceback" not in err
        assert err.startswith("parse error: ") and all(needle in err for needle in needles)

    def test_input_not_utf8(self, tmp_path, capsys):
        target = tmp_path / "bad.edges"
        target.write_bytes(b"\xff\xfe 3 2\n")
        self.assert_exit_3(["burn", str(target)], capsys, "cannot read", "bad.edges")

    def test_certificate_not_utf8(self, p9, tmp_path, capsys):
        cert = tmp_path / "bad.cert.json"
        cert.write_bytes(b"\xff\xfe{}")
        self.assert_exit_3(
            ["verify", "--certificate", str(cert), p9], capsys, "cannot read", "bad.cert.json"
        )

    @pytest.mark.parametrize(
        "content, code, message",
        [(b"2 1\n0 1 # caf\xc3\xa9\n", 0, ""), (b"2 1\n0 1 # caf\xe9\n", 3, "'utf-8' codec can't decode")],
        ids=["utf8", "latin1"],
    )
    def test_input_is_utf8_whatever_the_locale(self, tmp_path, content, code, message):
        target = tmp_path / "f.edges"
        target.write_bytes(content)
        src = Path(__file__).resolve().parent.parent / "src"
        # the C locale's encoding is ASCII once neither coercion nor UTF-8 mode applies
        env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "burnkit", "verify", str(target), "--sequence", "0,1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == code and message in proc.stderr, proc.stderr

    def test_certificate_nested_too_deep(self, p9, tmp_path, capsys):
        cert = tmp_path / "deep.cert.json"
        cert.write_text("[" * 100_000 + "]" * 100_000)
        self.assert_exit_3(["verify", "--certificate", str(cert), p9], capsys, "bad certificate JSON")

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no integer digit limit before 3.11"
    )
    def test_certificate_integer_past_the_digit_limit(self, p9, tmp_path, capsys):
        cert = tmp_path / "long.cert.json"
        cert.write_text('{"claimed_k": ' + "9" * 5000 + "}")
        self.assert_exit_3(["verify", "--certificate", str(cert), p9], capsys, "bad certificate JSON")

    @pytest.mark.parametrize("token", ["1e4301", "1e-4301", "1e999999999"])
    @pytest.mark.parametrize(
        "fmt, text",
        [("disks", "0 0 1\n0 {} 1\n"), ("intervals", "{} 1e4300\n")],
        ids=["disks", "intervals"],
    )
    def test_rational_exponent_past_the_digit_limit(self, fmt, text, token, tmp_path, capsys):
        # rejected before 10**exponent is built, which would take hours for 1e999999999
        target = tmp_path / f"huge.{fmt}"
        target.write_text(text.format(token))
        self.assert_exit_3(
            ["burn", "--engine", "approx3", "--format", fmt, str(target)], capsys, "exceeds 4300"
        )

    @pytest.mark.parametrize(
        "fmt, text", [("edges", "5 0\n"), ("intervals", "0 1\n" * 5), ("disks", "0 0 1\n" * 5)]
    )
    def test_input_past_the_vertex_cap(self, fmt, text, monkeypatch, tmp_path, capsys):
        from burnkit import formats

        monkeypatch.setattr(formats, "_VERTEX_CAP", 4)
        target = tmp_path / f"five.{fmt}"
        target.write_text(text)
        self.assert_exit_3(
            ["burn", "--engine", "approx3", "--format", fmt, str(target)], capsys, "vertex cap of 4"
        )

    @pytest.mark.parametrize(
        "kind, past, at",
        [
            (kind, [flag, "5"], [flag, "4"])
            for kind, flag in [
                ("path", "--n"),
                ("cycle", "--n"),
                ("random", "--n"),
                ("intervals", "--n"),
                ("permutation", "--k"),
            ]
        ]
        # a spider has one center and s arms of r vertices
        + [("spider", ["--s", "2", "--r", "2"], ["--s", "1", "--r", "3"])],
    )
    def test_gen_writes_only_what_reads_back(self, kind, past, at, monkeypatch, tmp_path, capsys):
        from burnkit import formats

        monkeypatch.setattr(formats, "_VERTEX_CAP", 4)
        self.assert_exit_3(
            ["gen", kind, *past, "--out", str(tmp_path / "past")],
            capsys,
            "graph has 5 vertices, exceeding the vertex cap of 4",
        )
        assert list(tmp_path.iterdir()) == []
        assert run_cli("gen", kind, *at, "--out", str(tmp_path / "at"))[0] == 0
        assert run_cli("burn", "--engine", "approx3", str(tmp_path / "at.edges"))[0] == 0

    @pytest.mark.parametrize(
        "kind, options, n",
        [
            ("spider", ["--s", "2", "--r", "2"], 5),
            ("spider-forest", ["--degrees", "2,3"], 5),
            ("path", ["--n", "5"], 5),
            ("cycle", ["--n", "5"], 5),
            ("random", ["--n", "5"], 5),
            ("intervals", ["--n", "5"], 5),
            ("permutation", ["--k", "5"], 5),
            ("ig-gadget", ["--x", "4,5,6"], 288),
            ("pg-gadget", ["--x", "4,5,6"], 36),
            ("dk-gadget", ["--x", "4,5,6", "--q", "14"], 121),
            # validating this instance would allocate the odd numbers below 2 * 10**9
            ("pg-gadget", ["--x", "999999999,1000000000,1000000001"], (10**9 + 1) ** 2),
        ],
    )
    def test_gen_checks_the_cap_before_building(self, kind, options, n, monkeypatch, tmp_path, capsys):
        from burnkit import formats

        def refuse(*args):
            raise AssertionError(f"{kind} built a graph past the vertex cap")

        order, _ = cli._GEN_KINDS[kind]
        monkeypatch.setitem(cli._GEN_KINDS, kind, (order, refuse))
        monkeypatch.setattr(formats, "_VERTEX_CAP", n - 1)
        self.assert_exit_3(
            ["gen", kind, *options, "--out", str(tmp_path / "past")],
            capsys,
            f"graph has {n} vertices, exceeding the vertex cap of {n - 1}",
        )
        assert list(tmp_path.iterdir()) == []

    def test_gen_random_checks_its_pairs_before_drawing(self, monkeypatch, tmp_path, capsys):
        import random

        class Drew(Exception):
            pass

        def refuse(self):
            raise Drew

        monkeypatch.setattr(random.Random, "random", refuse)
        self.assert_exit_3(
            ["gen", "random", "--n", "4473", "--p", "0", "--out", str(tmp_path / "past")],
            capsys,
            "random graph on 4473 vertices has 10001628 vertex pairs, exceeding the pair cap of 10000000",
        )
        assert list(tmp_path.iterdir()) == []
        # 4472 * 4471 / 2 = 9997156 pairs pass the check and reach the first coin
        with pytest.raises(Drew):
            run_cli("gen", "random", "--n", "4472", "--p", "0", "--out", str(tmp_path / "at"))

    def test_output_directory_is_a_file(self, tmp_path, capsys):
        (tmp_path / "plain").write_text("")
        prefix = tmp_path / "plain" / "x"
        self.assert_exit_3(
            ["gen", "path", "--n", "3", "--out", str(prefix)], capsys, f"cannot write {prefix}.edges"
        )

    def test_output_file_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "x.edges").mkdir()
        prefix = tmp_path / "x"
        self.assert_exit_3(
            ["gen", "path", "--n", "3", "--out", str(prefix)], capsys, f"cannot write {prefix}.edges"
        )


class TestFirefightAndPercolate:
    def test_firefight_brute(self, tmp_path):
        target = tmp_path / "p3.edges"
        target.write_text(format_edge_list(path_graph(3)))
        code, out = run_cli("firefight", "--origin", "0", "--engine", "brute", str(target))
        assert code == 0 and json.loads(out)["saved"] == 2

    def test_firefight_invalid_run(self, tmp_path):
        target = tmp_path / "p3.edges"
        target.write_text(format_edge_list(path_graph(3)))
        code, out = run_cli(
            "firefight", "--origin", "0", "--engine", "verify", "--placements", "0", str(target)
        )
        assert code == 2 and not json.loads(out)["valid"]

    def test_percolate(self, tmp_path):
        from helpers import complete_graph

        target = tmp_path / "k4.edges"
        target.write_text(format_edge_list(complete_graph(4)))
        code, out = run_cli("percolate", "--seed-set", "0,1", "--threshold", "2", str(target))
        record = json.loads(out)
        assert code == 0 and record["percolates"] and record["steps"] == 1


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        target = tmp_path / "p9.edges"
        target.write_text(format_edge_list(path_graph(9)))
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "burnkit", "burn", "--engine", "path", str(target)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["k"] == 3

    def test_parser_is_shared_and_keeps_no_state(self, p9):
        assert build_parser() is build_parser()
        _, first = run_cli("burn", "--engine", "approx3", "--x1", "4", p9)
        _, second = run_cli("burn", "--engine", "approx3", p9)
        assert json.loads(first)["sequence"][0] == 4
        assert json.loads(second)["sequence"][0] == 0

    def test_imports_only_the_standard_library(self):
        loaded = _modules_after_fresh_import()
        assert loaded - set(sys.stdlib_module_names) == {"burnkit", "__main__"}

    def test_import_loads_no_code_generating_modules(self):
        """The records build no code at import, so nothing pulls in
        dataclasses and, through it, inspect; typing is only annotated."""
        loaded = _modules_after_fresh_import()
        assert not loaded & {"ast", "dataclasses", "dis", "inspect", "tokenize", "typing"}


def _modules_after_fresh_import() -> set[str]:
    """Top-level names in sys.modules after ``import burnkit, burnkit.cli``
    in a fresh ``python -S`` that puts this checkout's ``src`` first."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "import burnkit, burnkit.cli\n"
        "print(*sorted({name.partition('.')[0] for name in sys.modules}))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


class TestArgvReader:
    """main reads a plain argv from the subcommand parser's own actions, and
    answers every argv byte for byte as the full parser does."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["blaze", "{p9}"],
            ["burn", "-h"],
            ["burn", "{p9}", "--bogus"],
            ["burn", "{p9}", "--engine", "fastest"],
            ["burn", "{p9}", "--node-budget", "lots"],
            ["firefight", "{p9}"],
            ["burn", "--engine", "path", "--", "{p9}"],
            ["burn", "--", "--engine", "path", "{p9}"],
            ["--", "burn", "{p9}"],
            ["burn", "{p9}", "--engine=path"],
            ["burn", "{p9}", "--engine", "approx3", "--x1", "-1"],
            ["burn", "{p9}", "--eng", "path"],
        ],
    )
    def test_answers_as_the_full_parser_does(self, p9, argv):
        argv = [arg.format(p9=p9) for arg in argv]
        assert run_main(argv) == run_main(argv, reference=True)

    @pytest.mark.parametrize(
        "argv",
        [
            ["burn", "{p9}", "--engine", "path"],
            ["verify", "{p9}", "--sequence", "2,6,8"],
            ["gen", "path", "--n", "4", "--out", "{tmp}/p4"],
            ["firefight", "{p9}", "--origin", "0"],
            ["percolate", "{p9}", "--seed-set", "0,8", "--threshold", "2"],
            ["bench", "--sizes", "4", "--engines", "path"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_plain_job_runs_no_argparse_parse(self, monkeypatch, p9, tmp_path, argv):
        argv = [arg.format(p9=p9, tmp=tmp_path) for arg in argv]
        calls = []
        with monkeypatch.context() as patch:
            for name in ("parse_args", "parse_known_args"):
                parse = getattr(argparse.ArgumentParser, name)

                def counted(parser, *args, _parse=parse, **kwargs):
                    calls.append(parser.prog)
                    return _parse(parser, *args, **kwargs)

                patch.setattr(argparse.ArgumentParser, name, counted)
            code, _ = run_cli(*argv)
        assert code == 0 and calls == []
        assert vars(cli._read_argv(argv)) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["blaze", "p9"],
            ["burn", "-h"],
            ["burn", "p9", "--engine=path"],
            ["burn", "p9", "--eng", "path"],
            ["burn", "p9", "--engine", "approx3", "--x1", "-1"],
            ["burn", "--engine", "path", "--", "p9"],
            ["burn", "p9", "--engine", "fastest"],
            ["burn", "p9", "--node-budget", "lots"],
            ["burn", "p9", "--engine"],
            ["burn", "p9", "p9"],
            ["burn", "--engine", "path"],
            ["firefight", "p9"],
            ["gen", "spiral", "--out", "g"],
        ],
    )
    def test_the_reader_hands_back_every_other_form(self, argv):
        assert cli._read_argv(argv) is None


class TestBench:
    def test_bench_reports_all_cells(self):
        code, out = run_cli("bench", "--sizes", "9,16", "--engines", "path,approx3,exact")
        record = json.loads(out)
        assert code == 0 and len(record["results"]) == 6
        exact_k = {r["size"]: r["k"] for r in record["results"] if r["engine"] == "exact"}
        assert exact_k == {9: 3, 16: 4}

    def test_timings_add_only_seconds(self):
        args = ("bench", "--sizes", "9,16", "--engines", "path,approx3,exact")
        _, plain = run_cli(*args)
        code, timed = run_cli(*args, "--timings")
        plain, timed = json.loads(plain), json.loads(timed)
        assert code == 0 and len(timed["results"]) == len(plain["results"])
        for entry in timed["results"]:
            seconds = entry.pop("seconds")
            assert isinstance(seconds, float) and seconds >= 0
        assert timed == plain

    def test_exact_honours_the_node_budget_environment(self, monkeypatch, capsys):
        args = ("bench", "--sizes", "9", "--engines", "exact")
        monkeypatch.setenv("BURNKIT_NODE_BUDGET", "1")
        code, _ = run_cli(*args)
        assert code == 4 and "budget" in capsys.readouterr().err
        monkeypatch.delenv("BURNKIT_NODE_BUDGET")
        assert run_cli(*args)[0] == 0

    def test_path_engine_is_the_kinds_own_burner(self):
        for kind in ("path", "cycle"):
            _, out = run_cli("bench", "--kind", kind, "--sizes", "10", "--engines", "path," + kind)
            own, named = json.loads(out)["results"]
            assert own["k"] == named["k"] == 4

    def test_unknown_engine_is_a_parse_error(self, capsys):
        code, _ = run_cli("bench", "--sizes", "9", "--engines", "path,fastest")
        assert code == 3 and "unknown bench engine 'fastest'" in capsys.readouterr().err

    def test_unknown_engine_is_refused_before_any_engine_runs(self, monkeypatch, capsys):
        calls = []
        approx3 = cli._BURN_ENGINES["approx3"]
        monkeypatch.setitem(cli._BURN_ENGINES, "approx3", lambda args, G: calls.append(G.n) or approx3(args, G))
        assert run_cli("bench", "--sizes", "9,16", "--engines", "approx3,nope") == (3, "")
        assert "unknown bench engine 'nope'" in capsys.readouterr().err
        assert calls == []
        # with no sizes the engine list is still checked
        assert run_cli("bench", "--sizes", "", "--engines", "nope") == (3, "")

    def test_sizes_past_the_vertex_cap_build_nothing(self, monkeypatch, capsys):
        from burnkit import cli, formats

        monkeypatch.setattr(formats, "_VERTEX_CAP", 4)
        assert run_cli("bench", "--sizes", "4")[0] == 0
        monkeypatch.setitem(cli._BENCH_KINDS, "path", None)
        code, out = run_cli("bench", "--sizes", "4,5,9")
        assert (code, out) == (3, "")
        assert "graph has 5 vertices, exceeding the vertex cap of 4" in capsys.readouterr().err

    def test_negative_size_is_rejected(self, capsys):
        assert run_cli("bench", "--sizes", "-5") == (5, "")
        assert "vertex count must be nonnegative" in capsys.readouterr().err

    def test_degenerate_size_fails_as_burn_does(self, capsys):
        assert run_cli("bench", "--kind", "cycle", "--sizes", "2", "--engines", "path")[0] == 5
        assert "graph is not a cycle" in capsys.readouterr().err
