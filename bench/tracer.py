"""Span tracer that times torusdyn's layers from outside the package.

`install` rebinds the public functions of each torusdyn module (plus the
two hot methods and the classical sampler) to timing wrappers, in every
torusdyn namespace that imported them, so no file under `src/` changes.
Spans are kept in memory as tuples and turned into per-layer self times
and work counts by `layer_stats` when the run ends.
"""
from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("maps", "lattice", "rectangles", "discretize", "entropy", "cli")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _size(x) -> int:
    return int(getattr(x, "size", 1))


# Work counts recorded at the wrappers, keyed by layer name: stat -> f(args, kwargs).
WORK_COUNTS = {
    "entropy.Partition.atom_index": {
        # args[0] is the partition itself; the points are the x1 array.
        "points": lambda a, k: _size(_arg(a, k, 1, "x1")),
    },
    "entropy.cell_weights": {"cells": lambda a, k: _arg(a, k, 1, "cfg").points},
    "entropy.ProbabilityTable.from_counts": {
        # args[0] is the class.
        "values": lambda a, k: _size(_arg(a, k, 1, "values")),
    },
    "discretize.egorov_defect": {"mesh_points": lambda a, k: _arg(a, k, 4, "grid") ** 2},
    "lattice.orbit_period": {"points": lambda a, k: _arg(a, k, 1, "cfg").points},
}

# Layers whose escaping exceptions are counted as failures: an exception out
# of the CLI entry point is a traceback for the user.
FAILURE_COUNTED = ("cli.main",)


class Tracer:
    """In-memory spans (id, parent, name, start, end, op) and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = None
        self._stack: list[int] = []
        self._next = 0

    def _open(self) -> tuple[int, object]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    @contextmanager
    def span(self, name: str, op_id=None):
        """A benchmark-side span; with op_id set, child spans carry that op id."""
        previous = self.op_id
        if op_id is not None:
            self.op_id = op_id
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, self.op_id))
            self.op_id = previous

    def wrap(self, name: str, fn):
        counters = WORK_COUNTS.get(name, {})
        count_failures = name in FAILURE_COUNTED
        counts = self.counts
        spans = self.spans
        stack = self._stack
        calls_key = name + ".calls"
        failed_key = name + ".failed"

        def traced(*args, **kwargs):
            counts[calls_key] += 1
            for stat, f in counters.items():
                counts[f"{name}.{stat}"] += int(f(args, kwargs))
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except SystemExit:
                raise
            except BaseException:
                if count_failures:
                    counts[failed_key] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.op_id))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "op": op}) + "\n")


def layer_stats(spans: list[tuple], counts: dict[str, int]) -> dict[str, float]:
    """`<layer>.self_s` for every span name, plus every counter.

    `spans` must hold every child of each span it holds, as a slice of
    `Tracer.spans` taken between root spans does.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _sid, parent, _name, start, end, _op in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats: dict[str, float] = defaultdict(float)
    for sid, _parent, name, start, end, _op in spans:
        stats[name + ".self_s"] += (end - start) - child_time[sid]
    for key, value in counts.items():
        stats[key] += value
    return dict(stats)


def install(tracer: Tracer) -> list[tuple]:
    """Rebind torusdyn's layer functions to traced wrappers; returns the undo list."""
    package = importlib.import_module("torusdyn")
    modules = [importlib.import_module(f"torusdyn.{m}") for m in LAYERS]
    namespaces = [package, *modules]
    undo: list[tuple] = []

    def rebind(original, wrapped) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    undo.append((ns, attr, original))
                    setattr(ns, attr, wrapped)

    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            rebind(obj, tracer.wrap(f"{short}.{attr}", obj))

    entropy = importlib.import_module("torusdyn.entropy")
    # The classical Monte Carlo sampler is private but is the ladder's largest
    # stage; timing it separates its float stepping from the lattice walk.
    sampler = entropy._classical_atom_matrix
    rebind(sampler, tracer.wrap("entropy._classical_atom_matrix", sampler))

    atom_index = entropy.Partition.atom_index
    undo.append((entropy.Partition, "atom_index", atom_index))
    entropy.Partition.atom_index = tracer.wrap("entropy.Partition.atom_index", atom_index)

    from_counts = vars(entropy.ProbabilityTable)["from_counts"]
    undo.append((entropy.ProbabilityTable, "from_counts", from_counts))
    entropy.ProbabilityTable.from_counts = classmethod(
        tracer.wrap("entropy.ProbabilityTable.from_counts", from_counts.__func__)
    )
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
