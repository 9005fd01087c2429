"""In-memory span recording around the public functions of the symsum modules.

A span is (name, start, end, parent).  ``install`` wraps every public function
defined in one of the six library modules at every ``symsum.*`` module binding
that refers to that function object, so a function re-exported or imported
under its own name elsewhere (``search_cli.classify_profile`` and
``balance.classify_profile``) is traced under one name wherever it is called
from.  Spans are named ``<defining module>.<function>``.

Spans live in flat arrays until ``Recorder.write`` dumps them once at the end
of the process; ``read`` and ``aggregate`` turn a span file back into counts,
self times (duration minus the part covered by child spans) and inclusive
times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

MODULES = ("boolean_core", "expsum", "recurrence", "diophantine", "balance", "search_cli")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Counters computed from the arguments or the result of one call, keyed by
# function name.  They are summed per process next to the spans.
CALL_COUNTERS = {
    "exp_sum_profile": lambda a, k, r: {"expsum.binomial_terms": _arg(a, k, 2, "inner_n") + 1},
    "exp_sum_symmetric": lambda a, k, r: {"expsum.binomial_terms": _arg(a, k, 0, "n") + 1},
    "run_search": lambda a, k, r: {"search_cli.candidates": r[0].candidates,
                                   "search_cli.balanced": r[0].balanced},
}


class Recorder:
    """Spans of one process, kept in memory until ``write``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start[sid] = time.perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a call into a layer."""
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, fn, name: str):
        name_id = self._name_id(name)
        counted = CALL_COUNTERS.get(fn.__name__)
        open_, close = self._open, self._close
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if counted is not None:
                counters.update(counted(args, kwargs, result))
            return result

        return traced

    def write(self, path) -> None:
        header = {"names": self.names, "spans": len(self.start), "counters": dict(self.counters)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def install(recorder: Recorder) -> None:
    """Wrap the public functions of the library modules at every binding."""
    targets = {}
    for short in MODULES:
        mod = importlib.import_module(f"symsum.{short}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                targets[id(obj)] = recorder.wrap(obj, f"{short}.{obj.__name__}")
    for modname, mod in list(sys.modules.items()):
        if modname != "symsum" and not modname.startswith("symsum."):
            continue
        for attr, obj in list(vars(mod).items()):
            wrapper = targets.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)


def read(path):
    """Load a span file written by ``Recorder.write``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, count)
            arrays.append(arr)
    return header, arrays


def aggregate(path, outer_groups) -> tuple[Counter, Counter, Counter, Counter, float]:
    """Per-name call counts, self times and counters of one span file.

    ``outer_groups`` maps a label to a set of function names (span names
    without their module); for each label the result's inclusive-time counter
    holds the summed duration of the spans of that set that have no ancestor
    in the set.  The last value is the summed
    duration of the root spans.
    """
    header, (name, parent, start, end) = read(path)
    names = header["names"]
    count = len(start)
    dur = [end[i] - start[i] for i in range(count)]
    child = [0.0] * count
    for i in range(count):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    calls: Counter = Counter()
    self_s: Counter = Counter()
    root_s = 0.0
    for i in range(count):
        n = names[name[i]]
        calls[n] += 1
        self_s[n] += dur[i] - child[i]
        if parent[i] < 0:
            root_s += dur[i]
    inclusive: Counter = Counter()
    for label, members in outer_groups.items():
        ids = {k for k, n in enumerate(names) if n.rsplit(".", 1)[-1] in members}
        if not ids:
            continue
        inside = [False] * count
        for i in range(count):
            p = parent[i]
            mine = name[i] in ids
            if mine and not (p >= 0 and inside[p]):
                inclusive[label] += dur[i]
            inside[i] = mine or (p >= 0 and inside[p])
    return calls, self_s, Counter(header["counters"]), inclusive, root_s
