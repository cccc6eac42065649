"""Serving-layer benchmark: one read session, pre-fork workers, raw store.

The serving tier has two shapes — the threaded server's ServeManager
(one process, one cached read session) and the pre-fork worker pool
(``--workers N``: one snapshot load, N reader processes).  This
benchmark replays one deterministic request trace (seeded, skewed toward
recent versions — the regime a serving tier lives in) across both, plus
the pre-serve baseline:

* **baseline** — one exclusive store, no cache: every request re-merges
  its version set from scratch;
* **serve x1** — the ServeManager's one cached read session;
* **prefork x1 / x4 (cached)** — warm steady state of the worker pool
  over real TCP: L1 per-process caches plus the cross-process L2, with
  per-worker ``stats`` snapshots proving zero snapshot loads after fork;
* **prefork scaling x1 / x4** — caches off, ``"rows": false`` responses
  (count + checksum only), warmup round excluded: the closest thing to a
  pure "N processes, N cores" read-throughput measurement.  Startup
  (parent snapshot load + fork) is reported separately, never mixed into
  steady-state throughput.

Wall-clock ratios are advisory except two, checked by a full run: the
cached session must serve ``>= 2x`` the baseline's checkout throughput,
and on a machine with >= 4 cores the scaling pass must show ``x4 >=
2.5x x1`` aggregate throughput — the latter is emitted under
``"ratios"`` with an eligibility flag and also enforced by
``check_regression.py``.  The
regression gate otherwise compares only deterministic counters (cache
hits/misses, logical records touched, per-worker snapshot loads, worker
count observed) against the committed smoke baseline.

Run directly for the full sweep::

    PYTHONPATH=src python benchmarks/bench_serve.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import tempfile
import threading
import time
from pathlib import Path

if __package__ in (None, ""):
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks._common import print_header
from repro.obs import Histogram
from repro.persist import Store
from repro.serve import PreforkServer, ServeManager
from repro.serve.server import ServeClient

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

FULL = {
    "root_records": 20_000,
    "num_versions": 40,
    "churn": 300,
    "requests": 600,
    "trace_seed": 23,
    "scale_warmup_rounds": 1,
    "scale_timed_rounds": 2,
}
SMOKE = {
    "root_records": 1_500,
    "num_versions": 12,
    "churn": 60,
    "requests": 150,
    "trace_seed": 23,
    "scale_warmup_rounds": 1,
    "scale_timed_rounds": 4,
}

#: The x4-vs-x1 scaling floor a >=4-core machine must clear.
SCALING_FLOOR = 2.5

#: Finer-grained latency edges than the metrics default: serve requests
#: cluster between ~50us (cache hit over TCP) and ~50ms (cold multi-set
#: merge), where DURATION_BUCKETS has only a handful of edges — p50 would
#: snap to 0.1ms and p95 to 50ms.  A 1-1.5-2-3-4-6-8 mantissa ladder per
#: decade keeps every reported percentile within ~35% of the true value.
LATENCY_BUCKETS = tuple(
    mantissa * scale
    for scale in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    for mantissa in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
)


# ----------------------------------------------------------------- workload


def build_store(path: Path, config: dict) -> None:
    """A chained history: every version deletes a slice and inserts churn."""
    churn = config["churn"]
    with Store.open(path, checkpoint_interval=0) as store:
        orpheus = store.orpheus
        orpheus.init(
            "bench",
            [("id", "int"), ("grp", "text"), ("val", "int")],
            rows=[(i, f"g{i % 7}", i % 101) for i in range(config["root_records"])],
            primary_key=("id",),
            message="root",
        )
        for step in range(config["num_versions"] - 1):
            vid = step + 1
            work = f"w{step}"
            orpheus.checkout("bench", vid, table_name=work)
            low = step * churn
            orpheus.run(
                f"DELETE FROM {work} WHERE id >= {low} AND id < {low + churn // 3}"
            )
            base = 1_000_000 + step * churn
            values = ", ".join(
                f"({base + i}, 'g{i % 7}', {(step + i) % 101})" for i in range(churn)
            )
            orpheus.run(f"INSERT INTO {work} (id, grp, val) VALUES {values}")
            orpheus.commit(work, message=f"v{vid + 1}")
        # Readers should recover from a snapshot, not replay the build.
        store.checkpoint()


def build_trace(config: dict) -> list[tuple[int, ...]]:
    """Deterministic skewed request trace: mostly hot (recent) versions,
    single- and multi-version checkouts mixed."""
    rng = random.Random(config["trace_seed"])
    vids = list(range(1, config["num_versions"] + 1))
    weights = [vid * vid for vid in vids]  # recency skew
    trace = []
    for _ in range(config["requests"]):
        size = rng.choice((1, 1, 1, 1, 2, 2, 3))
        chosen = set()
        while len(chosen) < size:
            chosen.add(rng.choices(vids, weights=weights, k=1)[0])
        trace.append(tuple(sorted(chosen)))
    return trace


# -------------------------------------------------------------- measurement


def _latency_ms(latency: Histogram) -> dict:
    """Advisory per-request percentiles (bucket upper edges, in ms)."""
    return {
        "p50": latency.quantile(0.50) * 1e3,
        "p95": latency.quantile(0.95) * 1e3,
        "p99": latency.quantile(0.99) * 1e3,
    }


def run_baseline(path: Path, trace) -> dict:
    """The pre-serve path: exclusive store, uncached merges per request."""
    latency = Histogram("baseline_latency_seconds", buckets=LATENCY_BUCKETS)
    with Store.open(path, checkpoint_interval=0) as store:
        orpheus = store.orpheus
        orpheus.db.reset_stats()
        started = time.perf_counter()
        checksum = 0
        for vids in trace:
            begun = time.perf_counter()
            checksum += len(orpheus.checkout_rows("bench", list(vids)))
            latency.observe(time.perf_counter() - begun)
        seconds = time.perf_counter() - started
        stats = orpheus.db.stats.snapshot()
    return {
        "seconds": seconds,
        "throughput": len(trace) / seconds if seconds else float("inf"),
        "rows_served": checksum,
        "records_scanned": stats.records_scanned,
        "total_touched": stats.total_touched,
        "latency_ms": _latency_ms(latency),
    }


def run_serve(path: Path, trace) -> dict:
    """The ServeManager's one cached read session, requests in sequence."""
    latency = Histogram("serve_latency_seconds", buckets=LATENCY_BUCKETS)
    with ServeManager(path, cache_capacity=512) as manager:
        engine = manager.reader.orpheus.db
        engine.reset_stats()
        rows_served = 0
        started = time.perf_counter()
        for vids in trace:
            begun = time.perf_counter()
            rows_served += len(manager.checkout("bench", list(vids)))
            latency.observe(time.perf_counter() - begun)
        seconds = time.perf_counter() - started
        stats = manager.cache.stats
        return {
            "seconds": seconds,
            "throughput": len(trace) / seconds if seconds else float("inf"),
            "rows_served": rows_served,
            "records_scanned": engine.stats.records_scanned,
            "cache_hits": stats.hits,
            "cache_misses": stats.misses,
            "latency_ms": _latency_ms(latency),
        }


class _PreforkHarness:
    """A worker pool plus one pinned connection per worker.

    Holding all the connections open at once forces the client<->worker
    bijection (a worker serves exactly one connection start-to-finish),
    which is what makes the per-connection ``stats``/``status`` snapshots
    trustworthy per-*worker* figures.
    """

    def __init__(self, path: Path, workers: int, cached: bool):
        begun = time.perf_counter()
        self.server = PreforkServer(
            path,
            workers=workers,
            cache_capacity=512 if cached else 0,
            shared_cache=cached,
        ).start()
        host, port = self.server.address
        self.clients = [ServeClient(host, port) for _ in range(workers)]
        # The first response on each connection proves a worker owns it.
        self.pids = [
            client.request({"op": "stats"})["stats"]["pid"]
            for client in self.clients
        ]
        #: Parent snapshot load + fork + first accept — reported apart
        #: from steady-state throughput, never mixed into it.
        self.startup_seconds = time.perf_counter() - begun

    def run_trace(self, trace, latency: Histogram | None = None) -> int:
        """Replay ``trace`` across the pinned connections; total count.

        All prefork requests use ``"rows": false`` — the benchmark gates
        row *counts* (trace equivalence) and measures server-side work;
        shipping and decoding megabytes of JSON rows would measure the
        client instead.
        """
        workers = len(self.clients)
        slices = [trace[i::workers] for i in range(workers)]
        totals = [0] * workers

        def drive(index: int) -> None:
            client = self.clients[index]
            total = 0
            for vids in slices[index]:
                begun = time.perf_counter()
                reply = client.request(
                    {"op": "checkout", "cvd": "bench",
                     "vids": list(vids), "rows": False}
                )
                if latency is not None:
                    latency.observe(time.perf_counter() - begun)
                assert reply["ok"], reply
                total += reply["count"]
            totals[index] = total

        if workers == 1:
            drive(0)
        else:
            pool = [
                threading.Thread(target=drive, args=(n,))
                for n in range(workers)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
        return sum(totals)

    def worker_figures(self) -> dict:
        """Per-worker deterministic counters, read over the pinned conns."""
        metrics_snaps = [
            client.request({"op": "stats"})["stats"]["metrics"]
            for client in self.clients
        ]
        statuses = [
            client.request({"op": "status"})["status"]
            for client in self.clients
        ]
        return {
            "workers_observed": len(set(self.pids)),
            "snapshot_loads": sum(
                snap.get("persist.snapshot.loads", 0) for snap in metrics_snaps
            ),
            "cache_hits": sum(s["cache"]["hits"] for s in statuses),
            "cache_misses": sum(s["cache"]["misses"] for s in statuses),
            "l2_hits": sum(
                snap.get("serve.l2.hits", 0) for snap in metrics_snaps
            ),
        }

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.shutdown()


def run_prefork_cached(path: Path, trace, workers: int) -> dict:
    """Warm steady state of the worker pool, caches on (L1 + shared L2)."""
    latency = Histogram("prefork_latency_seconds", buckets=LATENCY_BUCKETS)
    harness = _PreforkHarness(path, workers, cached=True)
    try:
        started = time.perf_counter()
        rows_served = harness.run_trace(trace, latency)
        seconds = time.perf_counter() - started
        figures = harness.worker_figures()
    finally:
        harness.close()
    return {
        "workers": workers,
        "startup_seconds": harness.startup_seconds,
        "seconds": seconds,
        "throughput": len(trace) / seconds if seconds else float("inf"),
        "rows_served": rows_served,
        "latency_ms": _latency_ms(latency),
        **figures,
    }


def run_prefork_scaling(path: Path, trace, workers: int, config: dict) -> dict:
    """Caches-off scan throughput: the process-parallelism measurement.

    A warmup round (excluded) settles page cache and lazy engine state;
    the timed rounds then measure pure per-request merge work spread
    over N worker processes.
    """
    latency = Histogram("prefork_scale_latency_seconds", buckets=LATENCY_BUCKETS)
    harness = _PreforkHarness(path, workers, cached=False)
    try:
        for _ in range(config["scale_warmup_rounds"]):
            harness.run_trace(trace)
        rounds = config["scale_timed_rounds"]
        started = time.perf_counter()
        rows = 0
        for _ in range(rounds):
            rows += harness.run_trace(trace, latency)
        seconds = time.perf_counter() - started
        figures = harness.worker_figures()
    finally:
        harness.close()
    requests = len(trace) * rounds
    return {
        "workers": workers,
        "startup_seconds": harness.startup_seconds,
        "rounds": rounds,
        "requests": requests,
        "seconds": seconds,
        "throughput": requests / seconds if seconds else float("inf"),
        "rows_served_per_round": rows // rounds,
        "workers_observed": figures["workers_observed"],
        "snapshot_loads": figures["snapshot_loads"],
        "latency_ms": _latency_ms(latency),
    }


def measure(config: dict, base_dir: Path) -> dict:
    store_path = base_dir / "serve-bench-store"
    build_store(store_path, config)
    trace = build_trace(config)
    distinct = len(set(trace))
    with Store.open(store_path, mode="ro") as probe:
        num_records = probe.orpheus.cvd("bench").record_count

    baseline = run_baseline(store_path, trace)
    serve1 = run_serve(store_path, trace)
    prefork1 = run_prefork_cached(store_path, trace, workers=1)
    prefork4 = run_prefork_cached(store_path, trace, workers=4)
    scale1 = run_prefork_scaling(store_path, trace, workers=1, config=config)
    scale4 = run_prefork_scaling(store_path, trace, workers=4, config=config)

    out = {
        "bench": "serve",
        "config": dict(config),
        "num_versions": config["num_versions"],
        "num_records": num_records,
        "trace": {"requests": len(trace), "distinct_sets": distinct},
        "baseline": baseline,
        "serve_x1": serve1,
        "prefork_x1": prefork1,
        "prefork_x4": prefork4,
        "prefork_scale_x1": scale1,
        "prefork_scale_x4": scale4,
        "speedup_x1_vs_baseline": serve1["throughput"] / baseline["throughput"],
    }
    # Every path must serve the identical logical rows for the trace.
    assert baseline["rows_served"] == serve1["rows_served"]
    assert baseline["rows_served"] == prefork1["rows_served"]
    assert baseline["rows_served"] == prefork4["rows_served"]
    assert baseline["rows_served"] == scale1["rows_served_per_round"]
    assert baseline["rows_served"] == scale4["rows_served_per_round"]

    # Deterministic figures for the CI regression gate.  Session counters
    # come from the sequential serve pass; prefork cache counters from the
    # x1 pool (with 4
    # workers, which worker first computes a shared entry is a race — the
    # x4 pool instead gates the topology: 4 distinct worker pids, zero
    # post-fork snapshot loads anywhere).
    out["counters"] = {
        "serve_cache_misses": serve1["cache_misses"],
        "serve_records_scanned": serve1["records_scanned"],
        "baseline_records_scanned": baseline["records_scanned"],
        "scanned_per_request": serve1["records_scanned"] / len(trace),
        "prefork_cache_misses": prefork1["cache_misses"],
        "prefork_l2_hits": prefork1["l2_hits"],
        "prefork_snapshot_loads": (
            prefork1["snapshot_loads"]
            + prefork4["snapshot_loads"]
            + scale1["snapshot_loads"]
            + scale4["snapshot_loads"]
        ),
        "prefork_workers_observed": prefork4["workers_observed"],
        "prefork_rows_served": prefork4["rows_served"],
    }
    # The one gated wall-clock figure, guarded by hardware eligibility:
    # process scaling needs processors.  Ineligible runs still report it.
    cpu_count = os.cpu_count() or 1
    out["ratios"] = {
        "prefork_scale_x4_vs_x1": {
            "value": scale4["throughput"] / scale1["throughput"],
            "floor": SCALING_FLOOR,
            "eligible": cpu_count >= 4,
            "cpu_count": cpu_count,
        }
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small configuration for CI; emits JSON, skips ratio asserts",
    )
    args = parser.parse_args(argv)
    config = SMOKE if args.smoke else FULL
    print_header(
        f"Serving-layer benchmark ({config['num_versions']} versions x "
        f"{config['root_records']} root records, {config['requests']} requests)"
    )
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        result = measure(config, Path(tmp))
    result["mode"] = "smoke" if args.smoke else "full"

    for name in ("baseline", "serve_x1", "prefork_x1", "prefork_x4"):
        entry = result[name]
        extra = (
            f"   hits {entry['cache_hits']:>5}  misses {entry['cache_misses']:>4}"
            if "cache_hits" in entry
            else ""
        )
        lat = entry["latency_ms"]
        print(
            f"  {name:<16} {entry['seconds'] * 1e3:9.1f} ms   "
            f"{entry['throughput']:9.0f} req/s   "
            f"p50/p95/p99 {lat['p50']:.2f}/{lat['p95']:.2f}/{lat['p99']:.2f} ms"
            f"{extra}"
        )
    print(
        f"  checkout throughput, cached session vs baseline: "
        f"{result['speedup_x1_vs_baseline']:.1f}x"
    )
    scale1, scale4 = result["prefork_scale_x1"], result["prefork_scale_x4"]
    ratio = result["ratios"]["prefork_scale_x4_vs_x1"]
    print(
        f"  prefork scaling (caches off, rows off)  "
        f"x1 {scale1['throughput']:8.0f} req/s   "
        f"x4 {scale4['throughput']:8.0f} req/s   {ratio['value']:.2f}x "
        f"(startup {scale4['startup_seconds'] * 1e3:.0f} ms excluded; "
        f"{ratio['cpu_count']} cores, "
        f"{'gated' if ratio['eligible'] else 'advisory on this machine'})"
    )
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {OUTPUT}")
    if not args.smoke:
        speedup = result["speedup_x1_vs_baseline"]
        if speedup < 2.0:
            print(f"ACCEPTANCE FAILED: {speedup:.1f}x < 2x vs single-store baseline")
            return 1
        print("acceptance: >=2x checkout throughput with one cached session")
        if ratio["eligible"] and ratio["value"] < ratio["floor"]:
            print(
                f"ACCEPTANCE FAILED: prefork x4 scaling {ratio['value']:.2f}x "
                f"< {ratio['floor']}x over x1"
            )
            return 1
        if ratio["eligible"]:
            print(
                f"acceptance: >={ratio['floor']}x prefork read scaling with "
                f"4 workers"
            )
    return 0


# ------------------------------------------------------- pytest acceptance


class TestServeAcceptance:
    """Deterministic equivalence checks (timing-free, safe for CI)."""

    def test_serve_paths_agree_with_baseline(self, tmp_path):
        config = dict(
            SMOKE,
            root_records=400,
            num_versions=6,
            requests=40,
            scale_warmup_rounds=0,
            scale_timed_rounds=1,
        )
        result = measure(config, tmp_path)
        assert result["baseline"]["rows_served"] > 0
        # The trace repeats version sets, so the cache must actually hit
        # and spare the engine most of the baseline's logical reads.
        assert result["serve_x1"]["cache_hits"] > 0
        counters = result["counters"]
        assert counters["serve_cache_misses"] <= result["trace"]["distinct_sets"]
        assert counters["serve_records_scanned"] < (
            counters["baseline_records_scanned"]
        )
        # Prefork steady state: a single worker's L1 misses exactly once
        # per distinct version set (nothing else may populate it), no L2
        # hit can exist with one process, and no worker — across all four
        # prefork passes — ever re-loads the snapshot after the fork.
        assert counters["prefork_cache_misses"] == result["trace"]["distinct_sets"]
        assert counters["prefork_l2_hits"] == 0
        assert counters["prefork_snapshot_loads"] == 0
        assert counters["prefork_workers_observed"] == 4
        assert counters["prefork_rows_served"] == result["baseline"]["rows_served"]
        ratio = result["ratios"]["prefork_scale_x4_vs_x1"]
        assert ratio["floor"] == SCALING_FLOOR and ratio["value"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
