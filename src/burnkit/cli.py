"""Batch command-line front end.

Subcommands: burn, verify, gen, firefight, percolate, bench.  Reports are
canonical JSON on stdout (or a text/DOT rendering); identical configuration
and seed always produce identical bytes.  Exit codes: 0 success or valid,
2 invalid sequence/run, 3 parse error, 4 budget exhausted, 5 precondition
violated.

Input formats (``--format``):
  edges        first line ``n m``, then m lines ``u v`` with 0-based vertex
               ids; ``#`` starts a comment and blank lines are skipped
  intervals    one interval per line as ``start end`` (rationals: 3/2, 1.5)
  permutation  one entry of the permutation of 1..k per line
  disks        one disk per line as ``x y r`` (rationals)

Parsing: a job's argv is parsed once, by the parser of the subcommand it
names.  The full parser, which would find that subparser and hand it the
rest, runs only when there is no such subcommand or arguments are left over,
so that its usage and error messages are the ones printed.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
import time
from collections.abc import Callable
from fractions import Fraction
from pathlib import Path

from . import approx, exact, families, formats, hardness, processes
from .burning import simulate
from .errors import (
    BudgetError,
    BurnkitError,
    InvalidSequenceError,
    ParseError,
    RejectedInputError,
)
from .graph import (
    Graph,
    _check_vertices,
    _path_order,
    from_edge_list,
    interval_graph,
    permutation_graph,
)

NODE_BUDGET_ENV = "BURNKIT_NODE_BUDGET"


def _int_list(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(token) for token in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseError(f"bad integer list {text!r}") from exc


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


# Table entries name burnkit functions through their modules at call time,
# so functions rebound on those modules (by a tracer, say) are the ones run.
_FORMATS: dict[str, Callable[[str], Graph]] = {
    "edges": lambda text: formats.parse_edge_list(text),
    "intervals": lambda text: formats._interval_graph(text),
    "permutation": lambda text: permutation_graph(formats.parse_permutation(text)),
    "disks": lambda text: formats._disk_graph(text),
}


def _load_graph(path: str, fmt: str) -> Graph:
    return _FORMATS[fmt](_read(path))


def _path_graph(n: int) -> Graph:
    return from_edge_list(n, [(v, v + 1) for v in range(n - 1)])


def _cycle_graph(n: int) -> Graph:
    return from_edge_list(n, [(v, (v + 1) % n) for v in range(n)])


def _trace_linear(G: Graph, closed: bool) -> list[int]:
    """Vertex order of a path (closed=False) or cycle (closed=True) graph.

    A cycle starts at vertex 0 and runs on through its smaller neighbor.
    """
    if G.n == 0:
        raise RejectedInputError("empty graph")
    if not closed:
        order = _path_order(G.adjacency, range(G.n))
    elif all(G.degree(v) == 2 for v in range(G.n)):
        # a 2-regular graph without vertex 0 is a path between 0's neighbors
        # exactly when the graph is connected
        tail = _path_order(G.adjacency, range(1, G.n))
        order = None if tail is None else [0] + tail
    else:
        order = None
    if order is None:
        raise RejectedInputError(f"graph is not a {'cycle' if closed else 'path'}")
    return order


def _emit(args, record: dict, dot: Callable[[], str] | None = None) -> None:
    """Write the record; ``dot`` renders the DOT view and runs only under --output dot."""
    if args.output == "json":
        sys.stdout.write(formats.dumps(record))
    elif args.output == "dot":
        sys.stdout.write(dot() if dot is not None else formats.dumps(record))
    else:
        for key in sorted(record):
            sys.stdout.write(f"{key}: {record[key]}\n")


def _burn_dot(G: Graph, outcome) -> str:
    schedule = outcome.schedule
    return formats.graph_to_dot(G, burn_step=schedule.burn_step, labels=schedule.labels)


# -- burn ----------------------------------------------------------------------


def _exact_engine(args, G: Graph):
    budget = args.node_budget
    if budget is None and os.environ.get(NODE_BUDGET_ENV):
        value = os.environ[NODE_BUDGET_ENV]
        try:
            budget = int(value)
        except ValueError as exc:
            raise ParseError(f"{NODE_BUDGET_ENV} must be an integer, got {value!r}") from exc
    result = exact.burning_number_exact(G, node_budget=budget, workers=args.workers)
    return list(result.witness.sources), {"nodes_explored": result.nodes_explored}


def _bruteforce_engine(args, G: Graph):
    result = exact.burning_number_bruteforce(G, cap=args.vertex_cap)
    return list(result.witness.sources), {"nodes_explored": result.nodes_explored}


def _approx3_engine(args, G: Graph):
    result = approx.burn_3approx(G, x1=args.x1)
    extras: dict = {"implied_lower": result.implied_lower}
    if args.trace:
        extras["trace"] = [list(entry) for entry in result.trace]
    return list(result.sequence), extras


def _split_engine(args, G: Graph):
    if args.clique is not None:
        clique = frozenset(_int_list(args.clique))
        partition = families.SplitPartition(clique, frozenset(range(G.n)) - clique)
    else:
        partition = families.split_partition(G)
        if partition is None:
            raise RejectedInputError("input is not a split graph")
    return families.burn_split(G, partition), {}


# engine name -> (args, G) -> (sequence, extra report fields)
_BURN_ENGINES: dict[str, Callable] = {
    "exact": _exact_engine,
    "bruteforce": _bruteforce_engine,
    "approx3": _approx3_engine,
    "path": lambda args, G: (families.burn_path(_trace_linear(G, closed=False)), {}),
    "cycle": lambda args, G: (families.burn_cycle(_trace_linear(G, closed=True)), {}),
    "split": _split_engine,
    "cograph": lambda args, G: (families.burn_cograph(G), {}),
    "interval-approx": lambda args, G: (families.burn_interval_approx(G), {}),
}


def cmd_burn(args) -> int:
    G = _load_graph(args.input, args.format)
    started = time.perf_counter()
    sequence, extras = _BURN_ENGINES[args.engine](args, G)
    elapsed = time.perf_counter() - started
    outcome = simulate(G, sequence)
    record = {
        "command": "burn",
        "engine": args.engine,
        "input": args.input,
        "seed": args.seed,
        "n": G.n,
        "m": G.edge_count,
        "k": len(sequence),
        "sequence": list(sequence),
        "valid": outcome.valid and outcome.complete,
        "complete": outcome.complete,
        "bounds": {
            "lower": exact.lower_bound(G),
            "upper": exact.upper_bound_radius(G),
        },
    }
    record.update(extras)
    if args.timings:
        record["timings"] = {"seconds": elapsed}
    _emit(args, record, lambda: _burn_dot(G, outcome))
    return 0


# -- verify --------------------------------------------------------------------


def _check_certificate(G: Graph, record: dict) -> None:
    """RejectedInputError unless a loaded certificate describes G: the same n
    and m, a canonical sequence (if any) of ``claimed_k`` sources, and
    decomposition segments that are disjoint paths of G, listed end to end."""
    if (record["n"], record["m"]) != (G.n, G.edge_count):
        raise RejectedInputError(
            f"certificate has n={record['n']}, m={record['m']}, "
            f"but the graph has n={G.n}, m={G.edge_count}"
        )
    sequence = record.get("canonical_sequence")
    if sequence is not None and len(sequence) != record["claimed_k"]:
        raise RejectedInputError(
            f"certificate canonical_sequence has {len(sequence)} sources, "
            f"but claimed_k is {record['claimed_k']}"
        )
    listed: set[int] = set()
    for segment in record["decomposition"]:
        label, vertices = segment["label"], segment["vertices"]
        if not vertices:
            raise RejectedInputError(f"certificate segment {label} is empty")
        _check_vertices(G, vertices, f"certificate segment {label} vertex")
        for previous, v in zip([None, *vertices], vertices):
            if v in listed:
                raise RejectedInputError(f"certificate decomposition lists vertex {v} twice")
            if previous is not None and v not in G.adjacency[previous]:
                raise RejectedInputError(
                    f"certificate segment {label} is not a path of the graph: "
                    f"no edge ({previous}, {v})"
                )
            listed.add(v)


def cmd_verify(args) -> int:
    G = _load_graph(args.input, args.format)
    if args.certificate is not None:
        record_in = formats.load_certificate_record(_read(args.certificate))
        _check_certificate(G, record_in)
        sequence = record_in.get("canonical_sequence")
        if sequence is None:
            raise RejectedInputError("certificate carries no canonical sequence")
    elif args.sequence is not None:
        sequence = _int_list(args.sequence)
    else:
        raise ParseError("verify needs --sequence or --certificate")
    outcome = simulate(G, sequence)
    valid = outcome.valid and outcome.complete
    record = {
        "command": "verify",
        "input": args.input,
        "seed": args.seed,
        "k": len(sequence),
        "sequence": list(sequence),
        "valid": valid,
        "complete": outcome.complete,
        "outcome": formats.burn_outcome_record(outcome),
    }
    _emit(args, record, lambda: _burn_dot(G, outcome))
    return 0 if valid else 2


# -- gen -----------------------------------------------------------------------


def _gen_random(args, rng, write, record) -> Graph:
    n = args.n
    # one coin per vertex pair, so the pairs are checked before the first draw
    pairs = n * (n - 1) // 2
    if pairs > _RANDOM_PAIR_CAP:
        raise ParseError(
            f"random graph on {n} vertices has {pairs} vertex pairs, "
            f"exceeding the pair cap of {_RANDOM_PAIR_CAP}"
        )
    if not 0 <= args.p <= 1:
        raise RejectedInputError(f"--p must lie in [0, 1], got {args.p}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < args.p]
    return from_edge_list(n, edges)


def _gen_cycle(args, rng, write, record) -> Graph:
    if args.n < 3:
        raise RejectedInputError("a cycle needs at least three vertices")
    return _cycle_graph(args.n)


def _gen_intervals(args, rng, write, record) -> Graph:
    pairs = []
    for _ in range(args.n):
        start = rng.randint(0, 3 * args.n)
        pairs.append((Fraction(start), Fraction(start + rng.randint(1, 4))))
    intervals = formats.IntervalSet(tuple(pairs))
    write(".intervals", formats.format_intervals(intervals))
    return interval_graph(intervals)


def _gen_permutation(args, rng, write, record) -> Graph:
    values = list(range(1, args.k + 1))
    rng.shuffle(values)
    pp = formats.PermutationPair(tuple(values))
    write(".perm", formats.format_permutation(pp))
    return permutation_graph(pp)


def _gen_gadget(build):
    """A gen kind for one gadget; ``build(args, inst, solution, write)`` returns its certificate."""

    def generate(args, rng, write, record) -> Graph:
        inst = hardness.validate_d3p(_int_list(args.x))
        solution = None
        if args.solve == "yes" or (args.solve == "auto" and 3 * inst.n <= hardness.SOLVER_CAP):
            solution = hardness.solve_d3p_bruteforce(inst)
        cert = build(args, inst, solution, write)
        write(".cert.json", formats.dumps(formats.certificate_record(cert)))
        record["claimed_k"] = cert.claimed_k
        record["has_canonical_sequence"] = cert.canonical_sequence is not None
        return cert.graph

    return generate


def _build_ig(args, inst, solution, write):
    cert = hardness.gen_ig_gadget(inst, solution)
    write(".intervals", formats.format_intervals(cert.intervals))
    return cert


def _build_pg(args, inst, solution, write):
    pp, cert = hardness.gen_pg_gadget(inst, solution)
    write(".perm", formats.format_permutation(pp))
    return cert


def _build_dk(args, inst, solution, write):
    arrangement, cert = hardness.gen_dk_gadget(inst, args.q, solution)
    write(".disks", formats.format_disks(arrangement))
    return cert


def _largest(args) -> int:
    """m of the instance in --x, or 0 where there is no positive element."""
    return max([0, *_int_list(args.x)])


def _dk_gadget_order(args) -> int:
    if args.q is None:
        raise ParseError("dk-gadget requires --q (ring size)")
    return hardness._dk_order(_largest(args), args.q)


# ``gen random`` draws one coin per vertex pair: n = 4472 is the largest n allowed
_RANDOM_PAIR_CAP = 10**7

# kind -> (order, generate).  ``order(args)`` is the vertex count the options
# imply, checked against the vertex cap before anything is built.
# ``generate(args, rng, write, record)`` returns the graph; ``write(suffix,
# text)`` adds a file beside it and the record may gain fields.
_GEN_KINDS: dict[str, tuple[Callable, Callable]] = {
    "spider": (
        lambda args: hardness._spider_order(args.s, args.r),
        lambda args, rng, write, record: hardness.gen_spider(args.s, args.r),
    ),
    "spider-forest": (
        lambda args: hardness._spider_forest_order(_int_list(args.degrees)),
        lambda args, rng, write, record: hardness.gen_spider_forest(_int_list(args.degrees)),
    ),
    "path": (lambda args: args.n, lambda args, rng, write, record: _path_graph(args.n)),
    "cycle": (lambda args: args.n, _gen_cycle),
    "random": (lambda args: args.n, _gen_random),
    "ig-gadget": (lambda args: hardness._ig_order(_largest(args)), _gen_gadget(_build_ig)),
    "pg-gadget": (lambda args: hardness._pg_order(_largest(args)), _gen_gadget(_build_pg)),
    "dk-gadget": (_dk_gadget_order, _gen_gadget(_build_dk)),
    "intervals": (lambda args: args.n, _gen_intervals),
    "permutation": (lambda args: args.k, _gen_permutation),
}


def cmd_gen(args) -> int:
    prefix = Path(args.out)
    outputs: dict[Path, str] = {}
    record: dict = {"command": "gen", "kind": args.kind, "seed": args.seed}

    def write(suffix: str, text: str) -> None:
        outputs[prefix.parent / (prefix.name + suffix)] = text

    order, generate = _GEN_KINDS[args.kind]
    # no file is written for a graph that reading it back would refuse
    n = order(args)
    if n < 0:
        raise RejectedInputError("vertex count must be nonnegative")
    formats._check_vertex_count(n)
    G = generate(args, random.Random(args.seed), write, record)
    formats._check_vertex_count(G.n)
    write(".edges", formats.format_edge_list(G))
    for path, text in outputs.items():
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc}") from exc
    record["n"] = G.n
    record["m"] = G.edge_count
    record["files"] = sorted(str(path) for path in outputs)
    _emit(args, record)
    return 0


# -- firefight / percolate -------------------------------------------------------


_FIREFIGHT_ENGINES: dict[str, Callable] = {
    "verify": lambda args, G: processes.verify_firefighter(
        G, args.origin, _int_list(args.placements or "")
    ),
    "brute": lambda args, G: processes.firefight_bruteforce(G, args.origin, cap=args.cap),
    "pkfree": lambda args, G: processes.firefight_pk_free(G, args.origin, args.pk),
}


def cmd_firefight(args) -> int:
    G = _load_graph(args.input, args.format)
    run = _FIREFIGHT_ENGINES[args.engine](args, G)
    record = {"command": "firefight", "engine": args.engine, "input": args.input, "seed": args.seed}
    record.update(formats.firefight_record(run))
    _emit(args, record, lambda: formats.firefight_to_dot(G, run))
    return 0 if run.valid else 2


def cmd_percolate(args) -> int:
    G = _load_graph(args.input, args.format)
    run = processes.bootstrap_percolate(G, _int_list(args.seed_set), args.threshold)
    record = {"command": "percolate", "input": args.input, "seed": args.seed}
    record.update(formats.percolation_record(run))
    _emit(args, record)
    return 0


# -- bench -----------------------------------------------------------------------


# kind -> graph of n vertices
_BENCH_KINDS: dict[str, Callable[[int], Graph]] = {"path": _path_graph, "cycle": _cycle_graph}


def cmd_bench(args) -> int:
    """Run burn engines over the kind's graphs; the ``path`` engine is the kind's own burner."""
    sizes = _int_list(args.sizes)
    for size in sizes:
        formats._check_vertex_count(size)
    engines = [token for token in args.engines.split(",") if token]
    results = []
    for size in sizes:
        G = _BENCH_KINDS[args.kind](size)
        for engine in engines:
            started = time.perf_counter()
            run = _BURN_ENGINES.get(args.kind if engine == "path" else engine)
            if run is None:
                raise ParseError(f"unknown bench engine {engine!r}")
            sequence, extras = run(args, G)
            entry = {"k": len(sequence), **extras, "size": size, "engine": engine}
            if args.timings:
                entry["seconds"] = time.perf_counter() - started
            results.append(entry)
    _emit(args, {"command": "bench", "kind": args.kind, "seed": args.seed, "results": results})
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args`` keeps no state."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser, and subcommand name -> the subparser it holds."""
    # the description is the docstring up to its note on parsing
    description = __doc__ and __doc__.partition("\nParsing:")[0]
    parser = argparse.ArgumentParser(prog="burnkit", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_format=True):
        p.add_argument("--output", choices=("json", "text", "dot"), default="json")
        p.add_argument("--seed", type=int, default=0)
        if with_format:
            p.add_argument("--format", choices=tuple(_FORMATS), default="edges")

    burn = sub.add_parser("burn", help="compute a burning sequence")
    burn.add_argument("input")
    burn.add_argument("--engine", choices=tuple(_BURN_ENGINES), default="exact")
    burn.add_argument("--x1", type=int, default=None, help="first source for approx3")
    burn.add_argument("--clique", default=None, help="split partition clique, e.g. '0,1,2'")
    burn.add_argument("--workers", type=int, default=1, help="ignored; must be >= 1")
    burn.add_argument("--node-budget", type=int, default=None)
    burn.add_argument("--vertex-cap", type=int, default=9)
    burn.add_argument("--timings", action="store_true")
    burn.add_argument("--trace", action="store_true", help="emit failing-prefix bounds")
    common(burn)
    burn.set_defaults(func=cmd_burn)

    ver = sub.add_parser("verify", help="validate a burning sequence")
    ver.add_argument("input")
    ver.add_argument("--sequence", default=None, help="comma-separated vertices")
    ver.add_argument("--certificate", default=None, help="certificate JSON path")
    common(ver)
    ver.set_defaults(func=cmd_verify)

    gen = sub.add_parser("gen", help="generate graphs and hard instances")
    gen.add_argument("kind", choices=tuple(_GEN_KINDS))
    gen.add_argument("--out", required=True, help="output path prefix")
    gen.add_argument("--s", type=int, default=3, help="spider arm count")
    gen.add_argument("--r", type=int, default=3, help="spider arm length")
    gen.add_argument("--degrees", default="", help="spider-forest arm counts")
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--p", type=float, default=0.3)
    gen.add_argument("--k", type=int, default=8, help="permutation size")
    gen.add_argument("--x", default="", help="distinct 3-partition elements")
    gen.add_argument("--q", type=int, default=None, help="ring size for dk-gadget")
    gen.add_argument("--solve", choices=("auto", "yes", "no"), default="auto")
    common(gen, with_format=False)
    gen.set_defaults(func=cmd_gen)

    fire = sub.add_parser("firefight", help="simulate or optimize firefighting")
    fire.add_argument("input")
    fire.add_argument("--origin", type=int, required=True)
    fire.add_argument("--engine", choices=tuple(_FIREFIGHT_ENGINES), default="brute")
    fire.add_argument("--placements", default=None, help="comma-separated vertices")
    fire.add_argument("--pk", type=int, default=5, help="path bound for pkfree")
    fire.add_argument("--cap", type=int, default=9)
    common(fire)
    fire.set_defaults(func=cmd_firefight)

    perc = sub.add_parser("percolate", help="run bootstrap percolation")
    perc.add_argument("input")
    perc.add_argument("--seed-set", required=True, help="comma-separated vertices")
    perc.add_argument("--threshold", type=int, required=True)
    common(perc)
    perc.set_defaults(func=cmd_percolate)

    bench = sub.add_parser("bench", help="run engines over generated families")
    bench.add_argument("--kind", choices=tuple(_BENCH_KINDS), default="path")
    bench.add_argument("--sizes", default="9,16,25")
    bench.add_argument("--engines", default="path,approx3")
    bench.add_argument("--timings", action="store_true")
    common(bench, with_format=False)
    # what the burn engines read from options that bench does not offer
    bench.set_defaults(
        func=cmd_bench, x1=None, trace=False, clique=None, workers=1, node_budget=None, vertex_cap=9
    )

    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    subparser = _parsers()[1].get(argv[0]) if argv else None
    if subparser is not None:
        args, extras = subparser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one job; returns its exit code (argparse exits 2 on a usage error).

    The subcommand's own parser reads the arguments after the subcommand
    name, so a job's argv is parsed once; the full parser would scan it to
    find the subcommand and then hand the rest to that same subparser.  The
    full parser runs instead when ``argv[0]`` names no subcommand or the
    subparser leaves arguments over: there it is the one that reports the
    error, so every usage, help and error message is the full parser's.
    """
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 4
    except InvalidSequenceError as exc:
        print(f"invalid sequence: {exc}", file=sys.stderr)
        return 2
    except RejectedInputError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 5
    except BurnkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
