"""burnkit benchmark: one command, two workloads, every output checked.

    python3 bench/run.py --workload cli-batch --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout; burnkit is imported from its ``src``
directory.  The seed generates the workload's corpus (bench/corpus.py).  A
closed loop with one client then runs whole passes over the job list, in
this one process, until the time is up.  Jobs are ``burnkit.cli.main(argv)``
with stdout captured, or calls to burnkit's public library functions.
After the loop, every job's output is checked by an oracle that does not
use burnkit (bench/oracle.py).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate, spans are written to bench/out/, and the JSON carries the
per-layer metrics instead, per traced pass.  bench/README.md lists the
metrics and what each is expected to move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import corpus
import oracle
from tracer import MODULES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # jobs per pass beyond the tail percentile
REFERENCE_S = 0.0045
"""Median time of ``reference_s()`` on the baseline machine at its usual speed."""
REFERENCE_EVERY_S = 0.2  # loop time between reference samples
WARMUP = {"cli-batch": "verify-", "gadget-pipeline": "gen-"}

SELF_TIME = {
    "exact.upper_bound_radius_s": ["exact.upper_bound_radius"],
    "exact.lower_bound_s": ["exact.lower_bound"],
    "exact.search_s": ["exact.burning_number_exact"],
    "exact.bruteforce_s": ["exact.burning_number_bruteforce"],
    "approx.burn_3approx_s": ["approx.burn_3approx", "approx.next_fire_source"],
    "graph.from_edge_list_s": ["graph.from_edge_list"],
    "graph.interval_graph_s": ["graph.interval_graph"],
    "graph.permutation_graph_s": ["graph.permutation_graph"],
    "graph.disk_graph_s": ["graph.disk_graph"],
    "graph.diameter_path_s": ["graph.diameter_path"],
    "graph.components_s": ["graph.components"],
    "families.burn_interval_approx_s": ["families.burn_interval_approx"],
    "families.burn_linear_s": ["families.burn_path", "families.burn_cycle"],
    "families.burn_split_s": ["families.burn_split", "families.split_partition", "families.validate_split"],
    "families.burn_cograph_s": ["families.burn_cograph"],
    "burning.verify_s": ["burning.verify"],
    "burning.simulate_s": ["burning.simulate"],
    "burning.coverage_s": ["burning.coverage", "burning.covers_all", "burning.clusters"],
    "hardness.gen_ig_gadget_s": ["hardness.gen_ig_gadget"],
    "hardness.gen_pg_gadget_s": ["hardness.gen_pg_gadget"],
    "hardness.gen_dk_gadget_s": ["hardness.gen_dk_gadget"],
    "hardness.solve_d3p_s": ["hardness.solve_d3p_bruteforce"],
    "processes.percolate_s": ["processes.bootstrap_percolate"],
    "processes.firefight_s": [
        "processes.firefight_bruteforce", "processes.firefight_pk_free", "processes.verify_firefighter",
    ],
    "formats.parse_s": [
        "formats.parse_edge_list", "formats.parse_intervals", "formats.parse_permutation",
        "formats.parse_disks", "formats.load_certificate_record",
    ],
    "formats.emit_s": [
        "formats.dumps", "formats.graph_to_dot", "formats.firefight_to_dot",
        "formats.burn_outcome_record", "formats.firefight_record", "formats.percolation_record",
        "formats.certificate_record", "formats.format_edge_list", "formats.format_intervals",
        "formats.format_permutation", "formats.format_disks",
    ],
    "cli.self_s": ["cli"],
}
COUNTS = [
    "exact.nodes", "exact.settled", "exact.attempted", "approx.rounds", "graph.edges_built",
    "burning.sources_checked", "hardness.gadget_vertices",
]


# -- machine speed ----------------------------------------------------------------

# A 120-vertex cycle with a chord from every seventh vertex: fixed, burnkit-free input.
REFERENCE_ADJ = [
    [(v - 1) % 120, (v + 1) % 120] + ([(v + 41) % 120] if v % 7 == 0 else [])
    + ([(v - 41) % 120] if (v - 41) % 7 == 0 else [])
    for v in range(120)
]


def reference_s() -> float:
    """Seconds for one fixed piece of pure-Python graph work: breadth-first
    search from every vertex of REFERENCE_ADJ, much as burnkit's radius bound does.

    The host changes speed by tens of percent over tens of seconds, on every
    job alike.  Samples of this, taken between jobs, measure that speed, and
    the end-to-end times are scaled by it (see ``Speed``).
    """
    start = time.perf_counter()
    for source in range(len(REFERENCE_ADJ)):
        dist = {source: 0}
        queue = [source]
        for v in queue:
            d = dist[v] + 1
            for u in REFERENCE_ADJ[v]:
                if u not in dist:
                    dist[u] = d
                    queue.append(u)
    return time.perf_counter() - start


class Speed:
    """Reference samples taken between jobs, grouped by the pass they fall in."""

    def __init__(self):
        self.samples: list[list[float]] = []
        self._last = -math.inf

    def new_pass(self):
        self.samples.append([])
        self._last = -math.inf

    def maybe_sample(self):
        now = time.perf_counter()
        if now - self._last >= REFERENCE_EVERY_S:
            self.samples[-1].append(reference_s())
            self._last = time.perf_counter()

    def factor(self) -> float:
        """How many times slower than the baseline the machine ran in the latest pass."""
        return statistics.median(self.samples[-1]) / REFERENCE_S


# -- running jobs ----------------------------------------------------------------


def run_job(bk, job) -> tuple:
    """(exit code, stdout, stderr) of one job; library results come back as JSON."""
    stdout, stderr = io.StringIO(), io.StringIO()
    if job.argv is not None:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = bk.cli.main(job.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "crash"
                stderr.write(traceback.format_exc())
        return code, stdout.getvalue(), stderr.getvalue()
    engine, path = job.lib
    try:
        G = bk.formats.parse_edge_list(Path(path).read_text())
        if engine == "approx3":
            result = bk.approx.burn_3approx(G)
            record = {"sequence": list(result.sequence), "k": result.k,
                      "implied_lower": result.implied_lower}
        else:
            sequence = bk.families.burn_interval_approx(G)
            record = {"sequence": list(sequence), "k": len(sequence)}
    except Exception:
        return "crash", "", traceback.format_exc()
    return 0, json.dumps(record), ""


# -- output checks -------------------------------------------------------------------


class Checker:
    """Output checks per job kind; each returns a list of failure reasons."""

    def __init__(self):
        self._graphs: dict[tuple[str, str], list] = {}
        self._bounds: dict[tuple[str, str], tuple[int, int]] = {}

    def graph(self, path: str, fmt: str):
        key = (path, fmt)
        if key not in self._graphs:
            self._graphs[key] = oracle.BUILDERS[fmt](Path(path).read_text())
        return self._graphs[key]

    def bounds(self, path: str, fmt: str):
        key = (path, fmt)
        if key not in self._bounds:
            self._bounds[key] = oracle.bounds(self.graph(path, fmt))
        return self._bounds[key]

    def __call__(self, job, code, out, err) -> list[str]:
        if code not in job.expect:
            return [f"exit {code}, expected {job.expect}: {err.strip()[-300:]}"]
        if code == 4:
            return [] if err.startswith("budget error") else [f"exit 4 without a budget message: {err!r}"]
        try:
            record = json.loads(out)
        except ValueError:
            return [f"output is not JSON: {out[:200]!r}"]
        problems: list[str] = []
        getattr(self, "check_" + job.check)(job, record, problems.append)
        return problems

    def _sequence(self, adj, sequence, fail, label="sequence"):
        legal, complete = oracle.burn_check(adj, sequence)
        if not (legal and complete):
            fail(f"{label} {sequence} is not a complete legal burning sequence")

    def check_burn(self, job, rec, fail):
        facts = job.facts
        adj = self.graph(facts["input"], facts["format"])
        lower, upper = self.bounds(facts["input"], facts["format"])
        seq, k = rec["sequence"], rec["k"]
        self._sequence(adj, seq, fail)
        if not (rec["valid"] is True and rec["complete"] is True and k == len(seq)):
            fail(f"report says valid={rec['valid']} complete={rec['complete']} k={k}")
        if (rec["n"], rec["m"]) != (len(adj), sum(map(len, adj)) // 2):
            fail(f"n, m = {rec['n']}, {rec['m']} disagree with the input")
        reported = rec["bounds"]
        if reported["upper"] != upper or not reported["lower"] <= k:
            fail(f"bounds {reported} against radius bound {upper} and k={k}")
        engine, opt = facts["engine"], facts["opt"]
        if engine == "bruteforce":
            opt, witness = oracle.optimum_bruteforce(adj)
            if seq != list(witness):
                fail(f"bruteforce witness {seq} is not the smallest optimum {list(witness)}")
        elif engine in ("split", "cograph"):
            opt = oracle.at_most_two(adj) or 3
        elif engine == "interval-approx" and k > lower + 1:
            fail(f"k={k} exceeds the diameter-path bound {lower} by more than one")
        elif engine == "approx3":
            implied = rec["implied_lower"]
            if not (implied <= k and implied <= upper and k <= 3 * upper):
                fail(f"approx3 k={k}, implied_lower={implied} against upper bound {upper}")
        if opt is not None and not (k == opt and reported["lower"] <= opt <= reported["upper"]):
            fail(f"k={k} and bounds {reported} against the optimum {opt}")
        if k < lower or (engine == "exact" and k > upper):
            fail(f"k={k} outside the oracle's bounds [{lower}, {upper}]")

    def check_verify(self, job, rec, fail):
        facts = job.facts
        adj = self.graph(facts["input"], facts["format"])
        legal, complete = oracle.burn_check(adj, facts["sequence"])
        if (rec["valid"], rec["complete"]) != (legal and complete, complete):
            fail(f"valid={rec['valid']} complete={rec['complete']}, oracle says {legal and complete}, {complete}")
        if rec["sequence"] != facts["sequence"] or job.expect != ((0,) if legal and complete else (2,)):
            fail("sequence or expected exit code does not match the oracle")

    def check_percolate(self, job, rec, fail):
        facts = job.facts
        adj = self.graph(facts["input"], facts["format"])
        timeline = oracle.percolate(adj, facts["seed_set"], facts["threshold"])
        if rec["timeline"] != timeline or rec["percolates"] != (len(timeline[-1]) == len(adj)):
            fail("percolation timeline differs from the oracle's")

    def check_firefight(self, job, rec, fail):
        facts = job.facts
        adj = self.graph(facts["input"], facts["format"])
        saved, best = oracle.firefight_best(adj, facts["origin"])
        valid, replayed = oracle.firefight(adj, facts["origin"], rec["placements"])
        if not (rec["valid"] and valid and rec["saved"] == replayed == saved):
            fail(f"saved {rec['saved']} (replayed {replayed}), optimum {saved}")
        if rec["placements"] != list(best):
            fail(f"placements {rec['placements']} are not the first optimal strategy {list(best)}")

    def _certificate(self, facts, fail):
        cert = json.loads(Path(facts["prefix"] + ".cert.json").read_text())
        sequence = cert["canonical_sequence"]
        if cert["claimed_k"] != facts["claimed_k"] or len(sequence or ()) != facts["claimed_k"]:
            fail(f"certificate claims k={cert['claimed_k']} with {len(sequence or ())} sources")
        return sequence

    def check_gen(self, job, rec, fail):
        facts = job.facts
        adj = self.graph(facts["prefix"] + ".edges", "edges")
        if rec["claimed_k"] != facts["claimed_k"] or rec["has_canonical_sequence"] is not True:
            fail(f"claimed_k={rec['claimed_k']}, expected {facts['claimed_k']} with a sequence")
        if (rec["n"], rec["m"]) != (len(adj), sum(map(len, adj)) // 2):
            fail("n, m disagree with the written edge list")
        self._sequence(adj, self._certificate(facts, fail), fail, "canonical sequence")

    def check_certificate(self, job, rec, fail):
        facts = job.facts
        sequence = self._certificate(facts, fail)
        adj = self.graph(facts["prefix"] + corpus.EXTENSIONS[facts["format"]], facts["format"])
        if adj != self.graph(facts["prefix"] + ".edges", "edges"):
            fail(f"the {facts['format']} file does not realize the written edge list")
        self._sequence(adj, sequence, fail, "canonical sequence")
        if not (rec["valid"] is True and rec["complete"] is True and rec["sequence"] == sequence):
            fail(f"verify reports valid={rec['valid']} complete={rec['complete']}")

    def check_library(self, job, rec, fail):
        engine, path = job.lib
        claimed = job.facts["claimed_k"]
        adj = self.graph(path, "edges")
        seq, k = rec["sequence"], rec["k"]
        self._sequence(adj, seq, fail)
        if engine == "approx3":
            implied = rec["implied_lower"]
            if not (implied <= claimed and implied <= k == len(seq) <= 3 * claimed):
                fail(f"approx3 k={k}, implied_lower={implied}, optimum {claimed}")
        elif not k == len(seq) <= claimed + 1:
            fail(f"interval-approx k={k} against claimed_k={claimed}")


# -- metrics ----------------------------------------------------------------------------


def quantile(values, fraction):
    """Linear interpolation between the closest ranks."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "burnkit").glob("*.py")) + sorted(BENCH.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cross_run_drift(state_path: Path, observed: dict) -> list[str]:
    """Compare per-job outputs and counts with earlier runs of this seed and code."""
    digest = source_digest()
    jobs: dict = {}
    if state_path.exists():
        state = json.loads(state_path.read_text())
        if state.get("digest") == digest:
            jobs = state["jobs"]
    drifted = []
    for job_id, entry in observed.items():
        earlier = jobs.setdefault(job_id, {})
        for key, value in entry.items():
            if key in earlier and earlier[key] != value:
                drifted.append(f"{job_id}: {key} changed since an earlier run of this seed")
            earlier[key] = value
    tmp = state_path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"digest": digest, "jobs": jobs}, sort_keys=True))
    os.replace(tmp, state_path)
    return drifted


def layer_metrics(tracer: Tracer, traced_passes: int, pass_seconds) -> dict:
    self_times = tracer.self_times()
    per_pass = lambda value: value / traced_passes  # noqa: E731
    metrics = {
        name: (per_pass(sum(self_times.get(fn, 0.0) for fn in functions)), "s")
        for name, functions in SELF_TIME.items()
    }
    for module in MODULES:
        total = sum(v for k, v in self_times.items() if k.startswith(module + "."))
        metrics[f"{module}.self_s"] = (per_pass(total), "s")
    totals = defaultdict(int)
    for counts in tracer.counts.values():
        for key, value in counts.items():
            totals[key] += value
    for key in COUNTS:
        metrics[key] = (per_pass(totals[key]), "count")
    search_s = metrics["exact.search_s"][0]
    metrics["exact.nodes_per_s"] = (metrics["exact.nodes"][0] / search_s if search_s else 0.0, "1/s")
    attempted = metrics["exact.attempted"][0]
    metrics["exact.settled_frac"] = (metrics["exact.settled"][0] / attempted if attempted else 0.0, "ratio")
    rounds = metrics["approx.rounds"][0]
    metrics["approx.s_per_round"] = (metrics["approx.burn_3approx_s"][0] / rounds if rounds else 0.0, "s")
    traced = statistics.mean(pass_seconds[True])
    untraced = statistics.mean(pass_seconds[False])
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    return metrics


# -- main -----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "burnkit" / "__init__.py").is_file():
        print(f"bench: no burnkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    load_at_start = os.getloadavg()
    out = Path(BENCH.name) / "out"
    corpus_dir = out / f"{args.workload}-{args.seed}"

    # set-up: import, then corpus generation plus one warm-up job, several times
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    bk = importlib.import_module("burnkit")
    for name in ("cli", "formats", *MODULES):
        importlib.import_module(f"burnkit.{name}")
    import_s = time.perf_counter() - started
    if not Path(bk.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: imported burnkit from {bk.__file__}, not from this checkout", file=sys.stderr)
        return 2
    reference_s()  # the interpreter specializes its code on the first calls
    speed = Speed()
    speed.new_pass()
    repeats = []
    for _ in range(SETUP_REPEATS):
        speed.samples[-1] += [reference_s() for _ in range(3)]
        started = time.perf_counter()
        jobs = corpus.build(args.workload, args.seed, corpus_dir)
        run_job(bk, min((job for job in jobs if job.id.startswith(WARMUP[args.workload])),
                        key=lambda job: job.id))
        repeats.append(time.perf_counter() - started)
    raw_setup_s = import_s + statistics.median(repeats)
    setup_factor = speed.factor()

    # timed loop: whole passes, one client, until the time is (nearly) up
    tracer = Tracer() if args.trace else None
    first: dict[str, tuple] = {}
    job_seconds: dict[str, list[float]] = defaultdict(list)  # untraced passes only
    drift: set[str] = set()
    pass_seconds: dict[bool, list[float]] = {False: [], True: []}  # job time per pass
    factors: list[float] = []  # the machine's slowness in each untraced pass
    speed = Speed()
    loop_start = time.perf_counter()
    passes = 0
    while True:
        traced = bool(args.trace) and passes % 2 == 1
        if traced:
            tracer.install()
        speed.new_pass()
        seconds = {}
        for job in jobs:
            speed.maybe_sample()
            if traced:
                tracer.job = (passes, job.id)
                root = tracer.begin("cli" if job.argv is not None else "lib")
            job_start = time.perf_counter()
            result = run_job(bk, job)
            seconds[job.id] = time.perf_counter() - job_start
            if traced:
                tracer.end(root)
            if first.setdefault(job.id, result) != result:
                drift.add(job.id)
        pass_seconds[traced].append(sum(seconds.values()))
        if not traced:
            factors.append(speed.factor())
            for job_id, value in seconds.items():
                job_seconds[job_id].append(value)
        if traced:
            tracer.uninstall()
        passes += 1
        elapsed = time.perf_counter() - loop_start
        if elapsed + elapsed / passes / 2 >= args.seconds and (passes >= 2 or not args.trace):
            break
    loop_s = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # checks, outside the timed region
    check = Checker()
    failures: dict[str, list[str]] = {job_id: ["output differs between passes"] for job_id in drift}
    observed: dict[str, dict] = {}
    for job in jobs:
        code, stdout, stderr = first[job.id]
        try:
            problems = check(job, code, stdout, stderr)
        except Exception:
            problems = ["check raised: " + traceback.format_exc(limit=3)]
        if problems:
            failures.setdefault(job.id, []).extend(problems)
        observed[job.id] = {"output": hashlib.sha256(repr(first[job.id]).encode()).hexdigest()}
    if tracer is not None:
        per_job = defaultdict(list)
        for (pass_no, job_id), counts in sorted(tracer.counts.items()):
            per_job[job_id].append(dict(counts))
        for job_id, seen in per_job.items():
            if any(counts != seen[0] for counts in seen):
                failures.setdefault(job_id, []).append("counts differ between traced passes")
            observed[job_id]["counts"] = seen[0]
    out.mkdir(exist_ok=True)
    (out / f"jobs-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"pass_seconds": pass_seconds[False], "traced_pass_seconds": pass_seconds[True],
                    "pass_factors": factors, "setup_factor": setup_factor,
                    "job_seconds": job_seconds}, indent=1)
    )
    for line in cross_run_drift(out / f"determinism-{args.workload}-{args.seed}.json", observed):
        failures.setdefault(line.split(":")[0], []).append(line)
    attempted = passes * len(jobs)
    failed = passes * len(failures)

    # report
    per_pass = len(jobs)
    tail_fraction = 1 - TAIL_BEYOND / per_pass
    print(f"workload {args.workload} seed {args.seed}: {passes} passes of {per_pass} jobs "
          f"in {loop_s:.2f} s; python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"load average at start {load_at_start[0]:.2f}")
    for job_id, problems in sorted(failures.items()):
        for problem in problems:
            print(f"FAIL {job_id}: {problem}")
    print(f"fail_frac {failed / attempted:.4f} ({failed} of {attempted} jobs)")
    if args.trace:
        traced_passes = len(pass_seconds[True])
        metrics = layer_metrics(tracer, traced_passes, pass_seconds)
        tracer.write(out / f"trace-{args.workload}-{args.seed}.jsonl", loop_start)
        print(f"per-layer metrics per traced pass ({traced_passes} traced, "
              f"{len(pass_seconds[False])} untraced); spans in {out}/")
    else:
        statuses = [first[job.id][0] for job in jobs if job.facts.get("engine") == "exact"]
        if statuses:
            print(f"settled_frac {statuses.count(0) / len(statuses):.4f} "
                  f"({statuses.count(0)} of {len(statuses)} exact jobs in a pass)")
        # Times at the baseline machine's speed: each pass's times divided by
        # the machine's slowness measured during that pass, then the median
        # over passes, so neither a slow spell nor a slow run decides them.
        typical = [
            statistics.median(value / factor for value, factor in zip(runs, factors))
            for runs in job_seconds.values()
        ]
        throughput = [per_pass * factor / seconds for seconds, factor in zip(pass_seconds[False], factors)]
        print(f"job_p50_s and job_tail_s (p{100 * tail_fraction:.1f}) are over N={len(typical)} jobs, "
              f"each its median over {len(factors)} passes; the machine ran "
              f"{min(factors):.3f}-{max(factors):.3f}x (set-up {setup_factor:.3f}x) the baseline's time; "
              f"as measured: {per_pass * len(factors) / sum(pass_seconds[False]):.4g} jobs/s, "
              f"set-up {raw_setup_s:.4g} s")
        metrics = {
            "setup_s": (raw_setup_s / setup_factor, "s"),
            "jobs_per_s": (statistics.median(throughput), "1/s"),
            "job_p50_s": (quantile(typical, 0.5), "s"),
            "job_tail_s": (quantile(typical, tail_fraction), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    shutil.rmtree(corpus_dir, ignore_errors=True)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
