"""Spans around the calls one layer of the package makes into the next.

A Tracer replaces module attributes with timing wrappers for the length of
a `with` block and puts the originals back when it ends.  Nothing under
`src/` changes: a wrapper sits where a caller looks the name up, such as
the `replay` that `optimize` imported from `environment`, so calls a
module makes to itself (the recursion inside `eval_formula`, say) stay
inside their caller's span.

Each span is (name, start, end, parent) and lives in flat arrays until
the run writes them out.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import gzip
import time
from array import array

# (module, attribute, span name).  The `cli` rows are the command-level
# boundary; timed runs patch only those, traced runs patch every row.
PATCHES = (
    ("cli", "load_env", "serialize.load"),
    ("cli", "load_scheme", "serialize.load"),
    ("cli", "write_results", "serialize.write"),
    ("cli", "write_status_csv", "serialize.write"),
    ("cli", "optimize_exhaustive", "optimize"),
    ("cli", "optimize_greedy", "optimize"),
    ("cli", "optimize_memory_q", "optimize"),
    ("cli", "rollout", "environment.replay"),
    ("cli", "pluralism_score", "scheme.score"),
    ("cli", "log_pluralism_score", "scheme.log_score"),
    ("serialize", "require_valid", "machine.validate"),
    ("serialize", "status_table", "scheme.score"),
    ("optimize", "replay", "environment.replay"),
    ("optimize", "pluralism_score", "scheme.score"),
    ("optimize", "status_eval", "scheme.status_eval"),
    ("optimize", "aggregate", "scheme.aggregate"),
    ("scheme", "aggregate", "scheme.aggregate"),
    ("scheme", "step_machine", "machine.step"),
    ("machine", "step_machine", "machine.step"),
    ("machine", "eval_formula", "formula.eval"),
)

# Methods of each loaded environment instance, wrapped in traced runs.
ENV_METHODS = (
    ("reset", "environment.reset"),
    ("step", "environment.step"),
    ("state_id", "environment.state_id"),
)

COMMAND = "cli"
SETUP = ("serialize.load",)
SOLVE = ("optimize", "environment.replay", "scheme.score", "scheme.log_score")


class Tracer:
    """Records spans while installed; `full` selects every layer boundary."""

    def __init__(self, package, full: bool):
        self.package = package
        self.full = full
        self.names: list = []
        self._index: dict = {}
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.aggregate_entries = 0
        self._saved: list = []

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn):
        """fn, recording one span per call."""
        idx = self.name_index(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _count_entries(self, fn):
        def counted(agg, vectors):
            self.aggregate_entries += sum(len(v) for v in vectors)
            return fn(agg, vectors)

        return counted

    def _instrument_env(self, load_env):
        def loaded(*args, **kwargs):
            env = load_env(*args, **kwargs)
            for method, name in ENV_METHODS:
                setattr(env, method, self.wrap(name, getattr(env, method)))
            return env

        return loaded

    def __enter__(self):
        for module_name, attr, name in PATCHES:
            if module_name != "cli" and not self.full:
                continue
            module = getattr(self.package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            patched = self.wrap(name, original)
            if name == "scheme.aggregate":
                patched = self._count_entries(patched)
            if attr == "load_env" and self.full:
                patched = self._instrument_env(patched)
            setattr(module, attr, patched)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    # -- reading the spans -------------------------------------------------

    def self_times(self) -> tuple:
        """(calls, self seconds) per span name."""
        n = len(self.start)
        child = [0.0] * n
        duration = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_of[i]
            calls[k] += 1
            own[k] += duration[i] - child[i]
        return dict(zip(self.names, calls)), dict(zip(self.names, own))

    def child_count(self, name: str, parent_name: str) -> int:
        """Spans called `name` whose direct parent is called `parent_name`."""
        if name not in self._index or parent_name not in self._index:
            return 0
        k, pk = self._index[name], self._index[parent_name]
        return sum(
            1 for i in range(len(self.start))
            if self.name_of[i] == k and self.parent[i] >= 0 and self.name_of[self.parent[i]] == pk
        )

    def per_command(self) -> list:
        """[(wall, setup, solve)] per root `cli` span, in call order."""
        cmd = self._index.get(COMMAND)
        setup = {self._index[n] for n in SETUP if n in self._index}
        solve = {self._index[n] for n in SOLVE if n in self._index}
        rows: dict = {}
        for i in range(len(self.start)):
            k = self.name_of[i]
            if k == cmd and self.parent[i] < 0:
                rows[i] = [self.end[i] - self.start[i], 0.0, 0.0]
                continue
            p = self.parent[i]
            if p in rows:
                if k in setup:
                    rows[p][1] += self.end[i] - self.start[i]
                elif k in solve:
                    rows[p][2] += self.end[i] - self.start[i]
        return [tuple(rows[i]) for i in sorted(rows)]

    def write(self, path) -> None:
        """Spans as gzipped TSV: id, command id, parent, name, start, end (s)."""
        origin = self.start[0] if len(self.start) else 0.0
        root = array("q", [0]) * len(self.start)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tcommand\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                p = self.parent[i]
                root[i] = i if p < 0 else root[p]
                fh.write(
                    f"{i}\t{root[i]}\t{p}\t{self.names[self.name_of[i]]}\t"
                    f"{self.start[i] - origin:.9f}\t{self.end[i] - origin:.9f}\n"
                )
