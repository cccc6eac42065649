"""``checkout_serve``: version retrieval over the wire from a prefork server.

One client connection drives ``orpheus --ro serve --workers 1 --cache 16``
in a closed loop with seeded rounds of requests: each round holds the same
single recent versions and a few fresh 2-3-version checkouts, with full
rows in every reply.  One untimed warm-up round fills the caches first.
Every reply is checked afterwards against ``checkout_rows`` on a separate,
uncached read-only store (cached == uncached).
"""

from __future__ import annotations

import json
import random
import select
import socket
import subprocess
import sys
import time
import zlib
from pathlib import Path

from common import (
    HERE,
    GcRecorder,
    Timeline,
    build_fixture,
    calibration_seconds,
    coverage_note,
    dir_bytes,
    distinct_record_bytes,
    fixture_write_ratio,
    python_env,
    reset_peak_rss,
    rows_digest,
    settle_heap,
    vm_hwm_mb,
)
from fixtures import CVD, SHAPES
from tracer import Tracer, merge_layers, op_coverage, overhead_pct, replay_ms

#: Timed rounds per measured second: a round of ``ROUND`` requests takes
#: about a second on a 2-CPU reference box.  The op count is fixed from
#: ``--seconds`` alone, never from elapsed time.
ROUNDS_PER_SECOND = 1
L1_CAPACITY = 16
#: Ops between two calibration points (see ``common.Timeline``).
CALIBRATE_EVERY = 10
SETUP_REPEATS = 5
#: Single-version requests of one round, as offsets back from the newest
#: version: 20 requests over 13 versions, skewed toward recent ones.  With
#: the round's fresh multi-version keys that is 18 distinct keys per round,
#: more than the L1 holds, so singles hit in both L1 and L2.
SINGLE_QUOTA = {0: 5, 1: 3, 2: 2, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 9: 1, 11: 1}
SINGLE_QUOTA.update({14: 1, 17: 1, 21: 1})
#: Versions per multi-version request of one round; every one of these is a
#: key no earlier request used, so it misses both caches.
MULTI_SIZES = (2, 2, 3, 3, 3)
ROUND = sum(SINGLE_QUOTA.values()) + len(MULTI_SIZES)


def make_rounds(seed: int, versions: int, rounds: int) -> list[list[tuple[int, ...]]]:
    """Seeded rounds of requests with one fixed mix.

    Every round holds the same single-version requests (``SINGLE_QUOTA``)
    and ``len(MULTI_SIZES)`` fresh multi-version keys drawn from the newer
    half of the history; the seed draws those keys and shuffles each round,
    so garbage collections do not fall on the same request every round.
    """
    rng = random.Random(seed * 7919 + 1)
    singles = [
        (versions - offset,)
        for offset, count in SINGLE_QUOTA.items()
        for _ in range(count)
    ]
    recent = range(versions // 2, versions + 1)
    used: set[tuple[int, ...]] = set()
    trace = []
    for _ in range(rounds):
        batch = list(singles)
        for size in MULTI_SIZES:
            key = tuple(rng.sample(recent, size))
            while key in used:
                key = tuple(rng.sample(recent, size))
            used.add(key)
            batch.append(key)
        rng.shuffle(batch)
        trace.append(batch)
    return trace


class Connection:
    """One persistent JSON-lines connection that times its own phases."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=60)
        self.reader = self.sock.makefile("rb")

    def request(self, payload: dict, tracer: Tracer | None = None):
        """Returns ``(reply, raw reply line)``; spans when ``tracer`` is set."""
        if tracer is None:
            self.sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
            raw = self.reader.readline()
            return json.loads(raw), raw
        index = tracer.begin("client.send")
        self.sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        tracer.end(index)
        index = tracer.begin("client.wait")
        raw = self.reader.readline()
        tracer.end(index)
        index = tracer.begin("client.decode")
        reply = json.loads(raw)
        tracer.end(index)
        return reply, raw

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Server:
    """An ``orpheus --ro serve --workers 1`` subprocess."""

    def __init__(self, store: Path, work: Path, trace_out: Path | None = None):
        args = ["--store", str(store), "--ro", "serve", "--workers", "1"]
        args += ["--cache", str(L1_CAPACITY)]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.cli.main", *args]
        else:
            command = [sys.executable, str(HERE / "launcher.py"), str(trace_out), *args]
        # The server's shared-cache socket lives under TMPDIR: keep it in
        # the work directory unless that path is too long for a unix socket.
        tmp = work / "tmp"
        tmp.mkdir(exist_ok=True)
        use_tmp = len(str(tmp)) < 60
        self.stderr = open(work / "server.err", "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            env=python_env(tmp if use_tmp else None),
        )
        try:
            banner = self._banner(timeout=120)
            host, port = banner.split(" on ", 1)[1].split(" ", 1)[0].rsplit(":", 1)
            self.conn = Connection(host, int(port))
            reply, _ = self.conn.request({"op": "ping"})
            self.ready_seconds = time.perf_counter() - started
            self.worker_pid = reply["pid"]
        except BaseException:
            self.kill()
            raise

    def _banner(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError("server printed no banner")
        line = self.proc.stdout.readline().decode("utf-8")
        if " on " not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        return line

    def shutdown(self) -> None:
        try:
            self.conn.request({"op": "shutdown"})
            self.conn.close()
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.stderr.close()


def run(seed: int, seconds: int, traced: bool, work: Path) -> dict:
    shape = SHAPES["checkout_serve"]
    store = work / "store"
    fixture = build_fixture("checkout_serve", seed, store)
    # Round 0 is an untimed warm-up: it puts every single-version key in
    # the caches, so each timed round meets them in the same state.
    timed_rounds = max(4, ROUNDS_PER_SECOND * seconds)
    rounds = make_rounds(seed, shape["versions"], 1 + timed_rounds)
    requests = [vids for batch in rounds for vids in batch]
    timed_ops = len(requests) - ROUND

    # Each set-up: (seconds, calibration before, calibration after).
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        before = calibration_seconds()
        server = Server(store, work)
        setups.append((server.ready_seconds, before, calibration_seconds()))
        server.shutdown()
    trace_out = work / "trace" if traced else None
    before = calibration_seconds()
    server = Server(store, work, trace_out)
    setups.append((server.ready_seconds, before, calibration_seconds()))

    tracer = Tracer() if traced else None
    gc_recorder = GcRecorder(tracer)
    timeline = Timeline(CALIBRATE_EVERY)
    digests, reply_bytes = [], 0
    # Per request key: (CRC of the raw reply, row digest of the decoded
    # rows).  A reply byte-identical to the key's first one shares its
    # digest; any other reply is digested itself.  Every reply is checked.
    first_reply: dict = {}

    def check(vids, reply, raw) -> None:
        wire_crc = zlib.crc32(raw)
        known = first_reply.get(vids)
        if known is not None and known[0] == wire_crc:
            digests.append(known[1])
        else:
            digests.append(rows_digest(reply["rows"]) if reply.get("ok") else None)
            first_reply.setdefault(vids, (wire_crc, digests[-1]))

    try:
        for vids in rounds[0]:
            payload = {"op": "checkout", "cvd": CVD, "vids": list(vids)}
            reply, raw = server.conn.request(payload)
            check(vids, reply, raw)
        warm_status, _ = server.conn.request({"op": "status"})
        warm_stats, _ = server.conn.request({"op": "stats"})
        settle_heap()
        reset_peak_rss(server.worker_pid)
        gc_recorder.install()
        for index, vids in enumerate(requests[ROUND:]):
            payload = {"op": "checkout", "cvd": CVD, "vids": list(vids)}
            payload["trace"] = index
            timeline.before_op()
            if tracer is not None:
                tracer.op = index
                op_span = tracer.begin("op")
            started = time.perf_counter()
            reply, raw = server.conn.request(payload, tracer)
            timeline.record(time.perf_counter() - started)
            if tracer is not None:
                tracer.end(op_span)
                tracer.op = None
            reply_bytes += len(raw)
            check(vids, reply, raw)
            # Freed here, untimed, not when the next op rebinds the names.
            del reply, raw
        timeline.close()
        gc_recorder.remove()
        status, _ = server.conn.request({"op": "status"})
        stats, _ = server.conn.request({"op": "stats"})
        peak_rss = vm_hwm_mb(server.worker_pid)
    finally:
        server.shutdown()

    from repro.persist import Store

    # Oracle: every reply against an uncached checkout on its own store.
    with Store.open(store, mode="ro") as reference:
        expected = {
            vids: rows_digest(reference.orpheus.checkout_rows(CVD, list(vids)))
            for vids in sorted(set(requests))
        }
        user_bytes = distinct_record_bytes(reference.orpheus, CVD)
    failed = sum(1 for vids, got in zip(requests, digests) if got != expected[vids])

    # Cache counts of the timed rounds alone: the status after them minus
    # the status after the warm-up round.
    cache = _since(status["status"]["cache"], warm_status["status"]["cache"])
    l2 = _since(status["status"]["l2"], warm_status["status"]["l2"])
    ops = timed_ops
    counts = {
        "ops": ops,
        "warmup_ops": ROUND,
        "distinct_keys": len(expected),
        "rows_returned": sum(d[0] for d in digests[ROUND:] if d),
        "reply_bytes": reply_bytes,
        "l1_hits": cache["hits"],
        "l1_misses": cache["misses"],
        "l2_hits": l2["hits"],
        "l2_misses": l2["misses"],
        "client_gc_gen2": gc_recorder.gen2,
    }
    result = {
        "attempted": len(requests),
        "failed": failed,
        "timeline": timeline,
        "setups": setups,
        "counts": counts,
        "notes": [
            f"store: {shape}; {len(expected)} distinct request keys; "
            f"{ROUND} warm-up + {ops} timed ops in rounds of {ROUND}",
            f"cache: L1 {L1_CAPACITY} entries per worker, L2 shared (timed: hits "
            f"L1 {cache['hits']} / L2 {l2['hits']} / misses {l2['misses']})",
        ],
    }
    if not traced:
        result["end_to_end"] = {
            "peak_rss_mb": (peak_rss, "MB"),
            "disk_bytes_per_user_byte": (dir_bytes(store) / user_bytes, "ratio"),
            "write_bytes_per_user_byte": (fixture_write_ratio(fixture), "ratio"),
        }
        return result

    parent = json.loads(Path(f"{trace_out}.parent.json").read_text())
    worker = json.loads(Path(f"{trace_out}.worker.json").read_text())
    # Worker ops are numbered per request line; the checkout requests carry
    # the client's op index, which maps them back (control ops map to None).
    aliases = {int(k): v for k, v in worker["aliases"].items()}

    def in_op(span):
        return aliases.get(span[4]) is not None

    # Top-level request handling and reply encoding block the client; a
    # worker collection between requests runs while the client decodes.
    server_seconds = sum(
        span[2] - span[1]
        for span in worker["spans"]
        if span[3] == -1 and span[0].startswith("serve.") and in_op(span)
    )
    result["op_layers"] = merge_layers(
        tracer.self_times(keep=lambda span: span[4] is not None),
        tracer.self_times(worker["spans"], keep=in_op),
    )
    result["setup_layers"] = tracer.self_times(parent["spans"])
    histogram = _since(
        stats["stats"]["metrics"]["serve"]["request_seconds"]["checkout"],
        warm_stats["stats"]["metrics"]["serve"]["request_seconds"]["checkout"],
    )
    misses = l2["misses"]
    # The server often starts while the client is still inside sendall, so
    # the wire share is the client's whole transport time minus server time.
    layers = result["op_layers"]
    transport = layers["client.send"][1] + layers["client.wait"][1]
    spans_per_op = (len(tracer.spans) + sum(map(in_op, worker["spans"]))) / ops
    coverage = op_coverage(tracer.spans)
    result["notes"].append(coverage_note(coverage))
    result["direct"] = {
        "serve.request_ms": 1e3 * histogram["sum"] / histogram["count"],
        "serve.wire_ms": 1e3 * (transport - server_seconds) / ops,
        "serve.reply_bytes_per_op": reply_bytes / ops,
        "serve.cache_hit_ratio": (ops - misses) / ops,
        "serve.l1_hits": cache["hits"],
        "serve.misses": misses,
        "persist.replay_ms": replay_ms(result["setup_layers"]),
        "runtime.gc_ms": 1e3 * gc_recorder.seconds,
        "runtime.gc_gen2": gc_recorder.gen2,
        "runtime.server_gc_ms": 1e3 * worker["gc_seconds"],
        "runtime.server_gc_gen2": worker["gc_gen2"],
        "trace.coverage_min": min(coverage),
        "trace.overhead_pct": overhead_pct(spans_per_op, timeline.latencies()),
    }
    return result


def _since(after: dict, before: dict) -> dict:
    """Counter-wise difference of two status or histogram snapshots."""
    return {
        name: after[name] - before.get(name, 0)
        for name in ("hits", "misses", "sum", "count")
        if name in after
    }
