"""Span tracing for the benchmark's traced runs.

The wrappers live here, not in the library: :func:`install_layer_spans`
patches the public entry points of each layer (engine, executor, shard,
core tree, kernels, WAL) for the duration of a traced phase and
:meth:`Patches.undo` restores the originals, so untraced runs execute the
library exactly as shipped.

A span records its name, start, end, parent span, request id and phase.
Spans stay in memory; :meth:`Tracer.export` turns them into plain lists for
writing out when the run ends.  A layer's self time is its span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np


class Tracer:
    """In-memory span recorder (one per process)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.phases: list[str] = []
        self._phase_index: dict[str, int] = {}
        #: One record per span: [name, start, end, parent span, request id, phase].
        self.spans: list[list] = []
        #: Counters per phase: ``counters[phase][name]``.
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.request_id = -1
        self._phase = self._intern_phase("setup")
        self._local = threading.local()
        self._lock = threading.Lock()

    def _intern_phase(self, phase: str) -> int:
        if phase not in self._phase_index:
            self._phase_index[phase] = len(self.phases)
            self.phases.append(phase)
        return self._phase_index[phase]

    def set_phase(self, phase: str) -> None:
        self._phase = self._intern_phase(phase)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[self.phases[self._phase]][name] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str) -> list:
        index = self._name_index.get(name)
        if index is None:
            with self._lock:
                index = self._name_index.setdefault(name, len(self.names))
                if index == len(self.names):
                    self.names.append(name)
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = [index, time.perf_counter(), 0.0, parent, self.request_id, self._phase]
        self.spans.append(span)  # list.append is atomic: no lock on the hot path
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` inside a span; ``before(args)`` / ``after(args, result)`` hooks."""

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(args, result)
            return result

        return traced

    def export(self) -> dict:
        """Spans as plain lists (JSON-ready), parents as span indexes (-1: none)."""
        position = {id(span): i for i, span in enumerate(self.spans)}
        spans = [
            [name, start, end, -1 if parent is None else position[id(parent)], rid, phase]
            for name, start, end, parent, rid, phase in self.spans
        ]
        return {
            "names": self.names,
            "phases": self.phases,
            "spans": spans,
            "counters": {phase: dict(values) for phase, values in self.counters.items()},
        }


class Patches:
    """Reversible attribute patches on classes."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def replace(self, cls, attr: str, value) -> None:
        had = attr in cls.__dict__
        self._undo.append((cls, attr, had, cls.__dict__.get(attr)))
        setattr(cls, attr, value)

    def wrap(self, tracer: Tracer, cls, attr: str, name: str, before=None, after=None) -> None:
        self.replace(cls, attr, tracer.wrap(name, getattr(cls, attr), before, after))

    def undo(self) -> None:
        while self._undo:
            cls, attr, had, original = self._undo.pop()
            if had:
                setattr(cls, attr, original)
            else:
                delattr(cls, attr)


def install_layer_spans(tracer: Tracer, engine_before: Optional[Callable] = None) -> Patches:
    """Wrap every in-process layer's public entry points; return the undo handle.

    ``engine_before`` runs at the start of every engine read call (the
    server child uses it to stamp when a gateway batch reached the engine).
    """
    from repro.core.ait import AIT
    from repro.kernels import resolve_backend
    from repro.persist.wal import DeltaLog
    from repro.service.engine import ShardedEngine
    from repro.service.executor import SerialExecutor
    from repro.service.shard import Shard

    def count_returned(args, rows) -> None:
        tracer.count("engine.samples_returned", sum(len(row) for row in rows))

    def count_drawn(args, hits) -> None:
        tracer.count("kernels.samples_drawn", float(np.sum(hits)))

    def count_rebuild(args, rebuilt) -> None:
        tracer.count("shard.rebuilds", bool(rebuilt))

    def count_sync(args, result) -> None:
        tracer.count("persist.wal_syncs")

    patches = Patches()
    patches.wrap(tracer, ShardedEngine, "sample_many", "engine.read", engine_before, count_returned)
    patches.wrap(tracer, ShardedEngine, "count_many", "engine.read", engine_before)
    patches.wrap(tracer, ShardedEngine, "insert_many", "engine.write")
    patches.wrap(tracer, ShardedEngine, "delete_many", "engine.write")
    patches.wrap(tracer, ShardedEngine, "sync_wal", "engine.sync_wal")
    patches.wrap(tracer, SerialExecutor, "map", "executor.scatter")
    patches.wrap(tracer, Shard, "refresh", "shard.refresh", after=count_rebuild)
    patches.wrap(tracer, AIT, "insert_many", "core.replay")
    patches.wrap(tracer, AIT, "delete_many", "core.replay")
    patches.wrap(tracer, AIT, "flat", "core.flat")
    backend = type(resolve_backend(None))
    for method in ("descend_many", "rank_search", "count_node"):
        patches.wrap(tracer, backend, method, f"kernels.{method}")
    patches.wrap(tracer, backend, "multinomial_draw", "kernels.multinomial_draw", after=count_drawn)
    patches.wrap(tracer, DeltaLog, "append_insert", "persist.wal_append")
    patches.wrap(tracer, DeltaLog, "append_delete", "persist.wal_append")
    patches.wrap(tracer, DeltaLog, "sync", "persist.wal_sync", after=count_sync)
    return patches


def summarize(export: dict, phase: str) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s`` within one phase."""
    names, spans = export["names"], export["spans"]
    if phase not in export["phases"] or not spans:
        return {}
    table = np.asarray(spans, dtype=np.float64)
    name_idx = table[:, 0].astype(np.int64)
    duration = table[:, 2] - table[:, 1]
    parent = table[:, 3].astype(np.int64)
    child_time = np.zeros(len(spans))
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], duration[has_parent])
    self_time = duration - child_time
    in_phase = table[:, 5].astype(np.int64) == export["phases"].index(phase)
    out: dict[str, dict[str, float]] = {}
    for index, name in enumerate(names):
        mask = in_phase & (name_idx == index)
        if mask.any():
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
    return out

