"""OrpheusDB benchmark: three closed-loop, fixed-work workloads.

    python3 perfbench/run.py --workload <checkout_serve|versioned_sql|commit_cycle>
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each workload builds a seeded store
fixture (untimed, in a child process), sets up several times and reports
the median set-up, then runs a fixed number of ops derived from
``--seconds`` and checks every op against a reference path.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` installs span wrappers
around each layer's public calls and prints the per-layer metrics.  The
last line of standard output is one JSON object; the lines before it
give the same numbers for people, plus the deterministic counts that
``repeat_check.py`` compares.  See ``LAYERS.md`` for what each metric
measures and which end-to-end metric it should move.

The ``*_ref`` op timings and ``setup_s`` are normalized to the machine's
speed: a fixed calibration kernel runs between ops (``common.Timeline``)
and around each set-up, and each wall time is scaled by the kernel's
reference time over its time next to it.  On a shared host the speed
drifts by a third within minutes; the scaled times do not.  The
wall-clock figures are printed above the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src" / "repro" / "__init__.py"

WORKLOADS = ("checkout_serve", "versioned_sql", "commit_cycle")

#: Per-layer metrics read from span self/total times.  ``basis`` "op"
#: divides by the op count (time per op), "call" by the number of calls.
SPAN_METRICS = [
    # name, unit, span, statistic, basis, phase
    ("serve.encode_ms", "ms", "serve.encode", "self", "op", "op"),
    ("serve.client_decode_ms", "ms", "client.decode", "self", "op", "op"),
    ("persist.refresh_ms", "ms", "persist.refresh", "self", "op", "op"),
    ("core.checkout_ms", "ms", "core.checkout", "self", "op", "op"),
    ("core.membership_ms", "ms", "core.membership", "self", "op", "op"),
    ("storage.fetch_ms", "ms", "storage.fetch", "self", "op", "op"),
    ("core.run_ms", "ms", "core.run", "self", "op", "op"),
    ("core.translate_ms", "ms", "core.translate", "self", "op", "op"),
    ("storage.parse_ms", "ms", "storage.parse", "self", "op", "op"),
    ("storage.execute_ms", "ms", "storage.execute", "self", "op", "op"),
    ("core.lineage_ms", "ms", "core.lineage", "self", "op", "op"),
    ("storage.dml_ms", "ms", "storage.dml", "total", "op", "op"),
    ("core.commit_ms", "ms", "core.commit", "self", "op", "op"),
    ("partition.maintain_ms", "ms", "partition.maintain", "self", "op", "op"),
    ("partition.migrate_ms", "ms", "partition.migrate", "total", "call", "op"),
    ("partition.migrations", "count", "partition.migrate", "calls", "", "op"),
    ("persist.encode_ms", "ms", "persist.encode", "self", "op", "op"),
    ("persist.wal_append_ms", "ms", "persist.wal_append", "self", "op", "op"),
    ("persist.checkpoint_ms", "ms", "persist.checkpoint", "total", "call", "op"),
    ("persist.checkpoints", "count", "persist.checkpoint", "calls", "", "op"),
    ("partition.optimize_ms", "ms", "partition.optimize", "total", "call", "setup"),
    (
        "persist.snapshot_load_ms",
        "ms",
        "persist.snapshot_load",
        "total",
        "call",
        "setup",
    ),
]

#: Per-layer metrics a workload reports directly (0 where it bypasses
#: the layer), in print order after the span metrics.
DIRECT_METRICS = [
    ("serve.request_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.reply_bytes_per_op", "bytes"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.l1_hits", "count"),
    ("serve.misses", "count"),
    ("storage.records_scanned_per_row", "ratio"),
    ("storage.exprs_interpreted", "count"),
    ("lineage.nodes_visited", "count"),
    ("persist.wal_fsyncs", "count"),
    ("persist.snapshot_bytes_per_checkpoint", "bytes"),
    ("persist.replay_ms", "ms"),
    ("runtime.gc_ms", "ms"),
    ("runtime.gc_gen2", "count"),
    ("runtime.server_gc_ms", "ms"),
    ("runtime.server_gc_gen2", "count"),
    ("trace.coverage_min", "ratio"),
    ("trace.overhead_pct", "%"),
]


def end_to_end_metrics(result: dict) -> dict:
    from common import CALIBRATION_REFERENCE_S, median, normalize, tail

    timeline = result["timeline"]
    raw = timeline.latencies()
    scaled = timeline.normalized()
    scaled_ms = [1e3 * latency for latency in scaled]
    tail_ms, percentile = tail(scaled_ms)
    loops = [1e3 * point for pair in timeline.pairs for point in pair]
    result["notes"] += [
        f"timed: {len(raw)} ops in {len(timeline.segments)} calibrated segments",
        f"calibration loop: median {median(loops):.2f} ms, range {min(loops):.2f}-"
        f"{max(loops):.2f} ms (reference {1e3 * CALIBRATION_REFERENCE_S:.1f} ms)",
        f"wall clock, not normalized: {len(raw) / sum(raw):.3f} ops/s, p50 "
        f"{1e3 * median(raw):.3f} ms, tail {1e3 * tail(raw)[0]:.3f} ms, "
        f"set-up {median(seconds for seconds, _, _ in result['setups']):.4f} s",
        f"tail_ref_ms is p{percentile:.1f} of {len(scaled)} op latencies "
        f"(the 11th-slowest op)",
    ]
    metrics = {
        "setup_s": (median(normalize(*setup) for setup in result["setups"]), "s"),
        "throughput_ref_ops_s": (len(scaled) / sum(scaled), "1/s"),
        "p50_ref_ms": (median(scaled_ms), "ms"),
        "tail_ref_ms": (tail_ms, "ms"),
    }
    metrics.update(result["end_to_end"])
    return metrics


def per_layer_metrics(result: dict) -> dict:
    ops = result["counts"]["ops"]
    result["notes"].append(
        f"traced timed phase: {ops / sum(result['timeline'].latencies()):.3f} ops/s "
        f"wall clock (compare an untraced run's for the tracing overhead)"
    )
    phases = {"op": result["op_layers"], "setup": result["setup_layers"]}
    metrics = {}
    for name, unit, span, statistic, basis, phase in SPAN_METRICS:
        self_s, total_s, calls = phases[phase].get(span, (0.0, 0.0, 0))
        if statistic == "calls":
            metrics[name] = (calls, unit)
            continue
        seconds = self_s if statistic == "self" else total_s
        divisor = ops if basis == "op" else calls
        metrics[name] = (1e3 * seconds / divisor if divisor else 0.0, unit)
    direct = result["direct"]
    for name, unit in DIRECT_METRICS:
        metrics[name] = (direct.get(name, 0), unit)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SOURCE.is_file():
        print(f"error: program source not found at {SOURCE}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE.parent.parent), str(HERE)]

    import importlib

    from common import WorkDir

    # A terminated run still unwinds, so the server it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # The client, the server it spawns and the calibration loop share one
    # CPU, so the loop is timed on the CPU that does the work.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = importlib.import_module(args.workload)
    with WorkDir(args.workload) as work:
        result = workload.run(args.seed, args.seconds, bool(args.trace), work)
    metrics = per_layer_metrics(result) if args.trace else end_to_end_metrics(result)

    print(f"workload {args.workload} seed {args.seed}", end=" ")
    print(f"seconds {args.seconds} trace {args.trace}")
    for note in result["notes"]:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    print("counts " + json.dumps(result["counts"], sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
