"""In-memory spans around the program's public calls, installed from outside.

The tracer replaces chosen functions and methods with timing wrappers; the
program's own files are untouched.  A span is ``(name, start, end,
parent, op)``: ``parent`` is the index of the enclosing span (-1 at top
level) and ``op`` the benchmark operation it belongs to.  Spans stay in
memory and are written out once, at the end.

A layer's *self time* is its spans' durations minus the part covered by
their child spans, so the self times of one op add up to its traced
latency.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.aliases: dict = {}
        self.op = None
        self._stack: list[int] = []
        self._seq = 0

    def reset(self) -> None:
        self.spans = []
        self.aliases = {}
        self.op = None
        self._stack = []
        self._seq = 0

    # ------------------------------------------------------------- recording

    def begin(self, name: str) -> int:
        # Allocating the span can start a collection, whose callback opens
        # and closes a span of its own; so the span is allocated first and
        # its index and parent are read only after that.
        span = [name, 0.0, 0.0, -1, self.op]
        span[3] = self._stack[-1] if self._stack else -1
        self.spans.append(span)
        index = len(self.spans) - 1
        self._stack.append(index)
        span[1] = _clock()
        return index

    def end(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = _clock()

    def next_op(self) -> None:
        """Start a new op numbered in call order (server side)."""
        self.op = self._seq
        self._seq += 1

    def wrap(self, owner, attr: str, name: str, starts_op: bool = False) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind else raw
        tracer = self

        def traced(*args, **kwargs):
            if starts_op:
                tracer.next_op()
            index = tracer.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.end(index)

        traced.__wrapped__ = function
        setattr(owner, attr, kind(traced) if kind else traced)

    # -------------------------------------------------------------- analysis

    def self_times(self, spans=None, keep=None) -> dict[str, list]:
        """``name -> [self seconds, total seconds, calls]`` over the spans
        ``keep(span)`` accepts (all by default)."""
        spans = self.spans if spans is None else spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for index, span in enumerate(spans):
            if keep is not None and not keep(span):
                continue
            name, start, end, _parent, _op = span
            entry = out[name]
            entry[0] += end - start - child_time[index]
            entry[1] += end - start
            entry[2] += 1
        return dict(out)

    def dump(self, path: Path, extra: dict | None = None) -> None:
        payload = {"spans": self.spans, "aliases": self.aliases, **(extra or {})}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def in_op(span) -> bool:
    """Whether a span was recorded inside a timed op."""
    return span[4] is not None


def in_setup(span) -> bool:
    """Whether a span was recorded outside the timed ops (set-up)."""
    return span[4] is None


def op_coverage(spans, op_name: str = "op") -> list[float]:
    """Per op: the share of its duration covered by its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _op in spans:
        if parent >= 0 and spans[parent][0] == op_name:
            covered[parent] += end - start
    return [
        covered[index] / (end - start)
        for index, (name, start, end, _parent, _op) in enumerate(spans)
        if name == op_name and end > start
    ]


def merge_layers(*layer_sets: dict) -> dict:
    """Sum ``self_times`` results, e.g. from client and server processes."""
    merged: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
    for layers in layer_sets:
        for name, values in layers.items():
            for position, value in enumerate(values):
                merged[name][position] += value
    return dict(merged)


def replay_ms(setup_layers: dict) -> float:
    """Per open: ``Store.open`` time outside ``load_snapshot`` (WAL replay,
    locking, journal attach), in ms."""
    _self, open_total, opens = setup_layers.get("persist.open", (0.0, 0.0, 0))
    _self, load_total, _loads = setup_layers.get("persist.snapshot_load", (0.0, 0.0, 0))
    return 1e3 * (open_total - load_total) / opens if opens else 0.0


def overhead_pct(spans_per_op: float, latencies: list[float]) -> float:
    """Estimated tracing share of op latency: spans x measured span cost."""
    mean = sum(latencies) / len(latencies)
    return 100.0 * spans_per_op * span_cost_seconds() / mean


def span_cost_seconds(samples: int = 20000) -> float:
    """Measured cost of one wrapped call over an unwrapped one."""

    class Probe:
        def call(self):
            return None

    tracer = Tracer()
    probe = Probe()
    started = _clock()
    for _ in range(samples):
        probe.call()
    bare = _clock() - started
    tracer.wrap(Probe, "call", "probe")
    started = _clock()
    for _ in range(samples):
        probe.call()
    return max(0.0, (_clock() - started - bare) / samples)


# --------------------------------------------------------------- layer sets


def install_persist(tracer: Tracer) -> None:
    from repro.persist import store, wal
    from repro.persist.store import Store
    from repro.persist.wal import WriteAheadLog

    tracer.wrap(Store, "open", "persist.open")
    tracer.wrap(store, "load_snapshot", "persist.snapshot_load")
    tracer.wrap(store, "write_snapshot", "persist.snapshot_write")
    tracer.wrap(Store, "refresh", "persist.refresh")
    tracer.wrap(Store, "checkpoint", "persist.checkpoint")
    tracer.wrap(wal, "encode_frame", "persist.encode")
    tracer.wrap(WriteAheadLog, "append", "persist.wal_append")


def install_core(tracer: Tracer) -> None:
    from repro.core.cvd import CVD
    from repro.core.orpheus import OrpheusDB
    from repro.core.translator import QueryTranslator
    from repro.core.version_graph import VersionGraph
    from repro.storage.ridset import RidSet

    tracer.wrap(CVD, "checkout_rows", "core.checkout")
    tracer.wrap(OrpheusDB, "checkout", "core.checkout")
    tracer.wrap(CVD, "member_rids", "core.membership")
    for attr in ("__or__", "__and__", "__sub__"):
        tracer.wrap(RidSet, attr, "core.membership")
    tracer.wrap(OrpheusDB, "commit", "core.commit")
    tracer.wrap(QueryTranslator, "translate", "core.translate")
    tracer.wrap(VersionGraph, "ancestors", "core.lineage")
    tracer.wrap(VersionGraph, "descendants", "core.lineage")


def install_storage(tracer: Tracer) -> None:
    from repro.core import orpheus
    from repro.core.datamodels.base import DataModel
    from repro.core.datamodels.split_rlist import SplitByRlistModel
    from repro.partition.partition_manager import PartitionedRlistModel
    from repro.storage import engine
    from repro.storage.engine import Database

    tracer.wrap(orpheus, "parse_sql", "storage.parse")
    tracer.wrap(engine, "parse_sql", "storage.parse")
    tracer.wrap(Database, "execute_statements", "storage.execute")
    for model in (DataModel, SplitByRlistModel, PartitionedRlistModel):
        for attr in ("fetch_version", "fetch_rows"):
            if attr in model.__dict__:
                tracer.wrap(model, attr, "storage.fetch")


def install_partition(tracer: Tracer) -> None:
    from repro.core.orpheus import OrpheusDB
    from repro.partition.online import PartitionOptimizer

    tracer.wrap(OrpheusDB, "optimize", "partition.optimize")
    tracer.wrap(PartitionOptimizer, "evaluate_maintenance", "partition.maintain")
    tracer.wrap(PartitionOptimizer, "migrate", "partition.migrate")


class _JsonShim:
    """Stands in for the ``json`` module inside the serve workers so the
    request decode and reply encode are timed where they happen."""

    def __init__(self, tracer: Tracer):
        import json as real

        self._real = real
        self._tracer = tracer

    def loads(self, *args, **kwargs):
        index = self._tracer.begin("serve.decode")
        try:
            return self._real.loads(*args, **kwargs)
        finally:
            self._tracer.end(index)

    def dumps(self, *args, **kwargs):
        index = self._tracer.begin("serve.encode")
        try:
            return self._real.dumps(*args, **kwargs)
        finally:
            self._tracer.end(index)

    def __getattr__(self, name):
        return getattr(self._real, name)


def install_serve(tracer: Tracer) -> None:
    """Prefork worker layers: one op per handled request line."""
    from repro.serve import workers
    from repro.serve.sharedcache import CacheClient

    tracer.wrap(workers, "_handle_line", "serve.handle", starts_op=True)
    dispatch = workers._dispatch

    def traced_dispatch(request, session):
        if isinstance(request, dict):
            tracer.aliases[tracer.op] = request.get("trace")
        index = tracer.begin("serve.dispatch")
        try:
            return dispatch(request, session)
        finally:
            tracer.end(index)

    workers._dispatch = traced_dispatch
    tracer.wrap(workers.WorkerSession, "checkout", "serve.cache")
    tracer.wrap(CacheClient, "get", "serve.l2")
    tracer.wrap(CacheClient, "put", "serve.l2")
    tracer.wrap(workers, "checkout_response", "serve.encode")
    workers.json = _JsonShim(tracer)
