"""In-memory spans around the calls into each lesionwise layer.

The traced run wraps the package functions at the module attributes through
which the CLI, ``case_metrics`` and ``combined_loss`` look them up, so it
times the same call path as the untraced run, from the benchmark's own code.
Spans are kept in memory and written out when the run ends.

A span's parent is the span open when it starts. Traced passes run one case
or step at a time (the CLI with one worker), so at most one span stack is
live even though the CLI runs its case in a pool thread.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import lesionwise.cli
import lesionwise.losses
import lesionwise.metrics


def _file_bytes(path) -> int:
    path = Path(path)
    side = path.with_name(path.name + ".json")
    return os.path.getsize(path) + (os.path.getsize(side) if side.exists() else 0)


# (module, attribute, span name, count taken from (args, result) or None)
LAYER_CALLS = [
    (lesionwise.cli, "read_mask", "io.read", lambda a, r: _file_bytes(a[0])),
    (lesionwise.cli, "read_volume", "io.read", lambda a, r: _file_bytes(a[0])),
    (lesionwise.cli, "sigmoid", "volumes.binarize", None),
    (lesionwise.cli, "binarize", "volumes.binarize", None),
    (lesionwise.cli, "case_metrics", "metrics.case", None),
    (lesionwise.cli, "aggregate", "metrics.corpus", None),
    (lesionwise.cli, "quartile_recall", "metrics.corpus", None),
    (lesionwise.metrics, "label_components", "components.label", lambda a, r: r.count),
    (lesionwise.metrics, "match_instances", "metrics.match", lambda a, r: len(r.pairs)),
    (lesionwise.metrics, "voronoi_partition", "voronoi.partition", lambda a, r: r.count),
    (lesionwise.metrics, "cc_dice", "metrics.cc_dice", None),
    (lesionwise.metrics, "hard_dice", "metrics.hard_dice", None),
    (lesionwise.losses, "dicece_loss", "losses.global", None),
    (lesionwise.losses, "cc_instance_loss", "losses.cc_instance", None),
    (lesionwise.losses, "blob_instance_loss", "losses.blob_instance", None),
    (lesionwise.losses, "label_components", "components.label", lambda a, r: r.count),
    (lesionwise.losses, "voronoi_partition", "voronoi.partition", lambda a, r: r.count),
]


class Tracer:
    """Span recorder: name, start, end, parent index, op id and a count."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[str] = []
        self.count: list[int] = []
        self._stack: list[int] = []
        self._op = ""

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.count.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: str | None = None):
        if op is not None:
            self._op = op
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    @contextmanager
    def active(self):
        """Wrap every function in LAYER_CALLS for the duration of the block."""
        saved = []
        try:
            for module, attr, name, counter in LAYER_CALLS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, counter))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.count[idx] = counter(args, result)
            return result

        return traced

    def self_times(self, roots: set[str]) -> tuple[dict[str, float], dict[str, int], float, int]:
        """Self time and count per span name under the named root spans.

        Returns (self seconds by name, summed counts by name, total root
        seconds, number of roots). A root's own self time is keyed by its name.
        """
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        root_of = [-1] * n
        for i in range(n):  # parents precede children
            p = self.parent[i]
            root_of[i] = i if p < 0 else root_of[p]
        selfs: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        total, n_roots = 0.0, 0
        for i in range(n):
            if self.names[root_of[i]] not in roots:
                continue
            selfs[self.names[i]] += dur[i] - child[i]
            counts[self.names[i]] += self.count[i]
            if self.parent[i] < 0:
                total += dur[i]
                n_roots += 1
        return selfs, counts, total, n_roots

    def dump(self, path: Path) -> None:
        t0 = min(self.start, default=0.0)
        rows = [
            {"name": self.names[i], "start": self.start[i] - t0, "end": self.end[i] - t0,
             "parent": self.parent[i], "op": self.op[i], "count": self.count[i]}
            for i in range(len(self.names))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n")
