"""The ``bfs_runs`` fixture, shared by the work contracts of several modules."""

import sys

import pytest

from burnkit import graph


class _Work:
    """The traversals of one measured call, by source, the vertices its
    bounded runs reach, the vertices every run reaches, in all and per run,
    and the summed length of the distance rows the runs return."""

    def __init__(self):
        self.sources: list = []
        self.sizes: list[int] = []
        self.ball_vertices = 0
        self.reached = 0
        self.row_length = 0

    def __call__(self, fn, g) -> int:
        """Run ``fn(g)`` and return its ``_bfs`` runs."""
        self.sources = []
        self.sizes = []
        self.ball_vertices = 0
        self.reached = 0
        self.row_length = 0
        fn(g)
        return len(self.sources)


@pytest.fixture
def bfs_runs(monkeypatch):
    """Counts every ``_bfs`` call as a run, the vertices each reaches and the
    length of the row it returns, while the test runs, through each burnkit
    module's binding of the kernel.  A run is recorded by its source, or by
    its tuple of sources when it starts from several; the vertices of a
    bounded run also count as ball vertices."""
    work = _Work()
    bfs = graph._bfs

    def counting_bfs(adjacency, sources, radius=None):
        sources = tuple(sources)
        work.sources.append(sources[0] if len(sources) == 1 else sources)
        dist, reached = bfs(adjacency, sources, radius)
        if radius is not None:
            work.ball_vertices += len(reached)
        work.reached += len(reached)
        work.sizes.append(len(reached))
        work.row_length += len(dist)
        return dist, reached

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "burnkit"]
    for module in modules:
        if vars(module).get("_bfs") is bfs:
            monkeypatch.setattr(module, "_bfs", counting_bfs)
    return work
