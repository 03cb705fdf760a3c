"""Spans around burnkit's public functions, installed from outside.

Every public function of the traced modules is replaced, in every burnkit
module namespace that refers to it (including the names ``burnkit.cli``
imports), by a wrapper that records a span: name, start, end, parent span
and job id.  Spans stay in memory until the run writes them out.  A few
wrappers also read a count off the call's result, so counts are taken at
the same boundaries as the times.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("exact", "approx", "graph", "families", "burning", "hardness", "processes", "formats")


def _exact(args, result, error):
    settled = error is None
    return {
        "exact.attempted": 1,
        "exact.settled": int(settled),
        # an exhausted search has done exactly its budget of nodes
        "exact.nodes": result.nodes_explored if settled else getattr(error, "budget", 0),
    }


def _on_success(counter, value):
    return lambda args, result, error: {} if error else {counter: value(args, result)}


COUNTERS = {
    # qualified function name -> counts read off one call's (args, result, error)
    "exact.burning_number_exact": _exact,
    "approx.burn_3approx": _on_success("approx.rounds", lambda a, r: r.k),
    "graph.from_edge_list": _on_success("graph.edges_built", lambda a, r: r.edge_count),
    "burning.verify": _on_success("burning.sources_checked", lambda a, r: len(tuple(a[1]))),
    "hardness.gen_ig_gadget": _on_success("hardness.gadget_vertices", lambda a, r: r.graph.n),
    "hardness.gen_pg_gadget": _on_success("hardness.gadget_vertices", lambda a, r: r[1].graph.n),
    "hardness.gen_dk_gadget": _on_success("hardness.gadget_vertices", lambda a, r: r[1].graph.n),
}


class Tracer:
    """Span and count recorder for one run; inactive until ``install``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, (pass, job id)]
        self.counts: dict[tuple, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.job: tuple | None = None  # (pass number, job id) of the running job
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            error = result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                self.end(index)
                if counter is not None:
                    counts = self.counts[self.job]
                    for key, value in counter(args, result, error).items():
                        counts[key] += value

        return traced

    def install(self) -> None:
        """Rebind every public function of MODULES to its traced wrapper."""
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"burnkit.{short}"]
            for attr, fn in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for modname, module in list(sys.modules.items()):
            if modname == "burnkit" or modname.startswith("burnkit."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, net of the time its child spans cover."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] is not None:
                own[span[3]] -= span[2] - span[1]
        totals: dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, own):
            totals[span[0]] += seconds
        return totals

    def write(self, path, origin: float) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, (pass_no, job)) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "job": job, "pass": pass_no,
                }) + "\n")
