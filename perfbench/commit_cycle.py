"""``commit_cycle``: checkout -> DML -> commit on a durable, partitioned store.

The write side of the layers ``checkout_serve`` reads through: each op
checks out a seeded recent version (usually the head, sometimes one of
the versions just before it, which branches), runs DELETE/UPDATE/INSERT
on the staged table through ``OrpheusDB.run`` and commits.  The CVD is
LyreSplit-partitioned at set-up with a tolerance low enough that online
migrations fire during a pass, so Section 4.3 maintenance runs on every
commit.  Flush policy: one fsync per journaled WAL record (the store's
fixed policy) and an automatic checkpoint every ``PASS_COMMITS //
CHECKPOINTS`` records.

The timed phase is a number of identical passes: each copies the seeded
fixture, opens and optimizes it (one set-up sample), runs the same
``PASS_COMMITS`` seeded commits and closes the store.  After each pass the
store is reopened and every version must read back as it did live
(recovered == live), and as it did in the first pass.
"""

from __future__ import annotations

import random
import shutil
import time
from pathlib import Path

from common import (
    GcRecorder,
    Timeline,
    build_fixture,
    calibration_seconds,
    counter_value,
    coverage_note,
    csv_bytes,
    dir_bytes,
    distinct_record_bytes,
    reset_peak_rss,
    rows_digest,
    settle_heap,
    vm_hwm_mb,
)
from fixtures import CVD, SHAPES, ChainEditor, chain_editor_after_build
from tracer import (
    Tracer,
    in_op,
    in_setup,
    install_core,
    install_partition,
    install_persist,
    install_storage,
    op_coverage,
    overhead_pct,
    replay_ms,
)

#: Timed passes per measured second on a 2-CPU reference box (fixes the op
#: count from ``--seconds`` alone).
PASSES_PER_SECOND = 0.4
#: Commits per pass.
PASS_COMMITS = 16
#: Checkpoints per pass: the interval is ``PASS_COMMITS // CHECKPOINTS``
#: journaled records, so every pass spans the same checkpoints.
CHECKPOINTS = 2
#: Migration trigger mu: low enough that migrations fire within a pass.
TOLERANCE = 1.01
#: Every ``BRANCH_EVERY``-th op commits onto the version before the head.
BRANCH_EVERY = 4
#: Commits between two calibration points (see ``common.Timeline``).
CALIBRATE_EVERY = 2


def _counters() -> dict:
    return {
        name: counter_value(name)
        for name in (
            "persist.wal.appends",
            "persist.wal.fsyncs",
            "persist.wal.bytes_written",
            "persist.snapshot.bytes_written",
            "persist.store.checkpoints",
        )
    }


def run(seed: int, seconds: int, traced: bool, work: Path) -> dict:
    from repro.core.orpheus import OrpheusDB
    from repro.persist import Store

    shape = SHAPES["commit_cycle"]
    fixture_path = work / "fixture"
    build_fixture("commit_cycle", seed, fixture_path)
    passes = max(3, round(PASSES_PER_SECOND * seconds))
    ops = passes * PASS_COMMITS
    checkpoint_every = PASS_COMMITS // CHECKPOINTS
    built = chain_editor_after_build(seed, shape)

    tracer = Tracer() if traced else None
    if tracer is not None:
        install_persist(tracer)
        install_core(tracer)
        install_storage(tracer)
        install_partition(tracer)
        tracer.wrap(OrpheusDB, "run", "storage.dml")
    gc_recorder = GcRecorder(tracer)
    # Each set-up: (seconds, calibration before, calibration after).
    setups: list[tuple[float, float, float]] = []
    timeline = Timeline(CALIBRATE_EVERY)
    delta = dict.fromkeys(_counters(), 0)
    first_pass: dict = {}
    failed = migrations = user_written = 0
    spans = tracer.spans if tracer is not None else []
    settle_heap()
    reset_peak_rss()
    for number in range(passes):
        path = work / f"pass{number}"
        shutil.copytree(fixture_path, path)
        before = calibration_seconds()
        started = time.perf_counter()
        store = Store.open(path, checkpoint_interval=checkpoint_every)
        store.orpheus.optimize(CVD, tolerance=TOLERANCE)
        seconds = time.perf_counter() - started
        setups.append((seconds, before, calibration_seconds()))
        orpheus = store.orpheus
        optimizer = orpheus.optimizer_for(CVD)
        migrations_before = len(optimizer.trace.migrations)
        versions = [entry["vid"] for entry in orpheus.version_log(CVD)]
        # Every pass makes the same edits from the same editor state.
        editor = ChainEditor(random.Random(seed * 15485863 + 5), dict(built.rows))
        editor.next_id = built.next_id
        committed = []
        try:
            settle_heap()
            counted = _counters()
            gc_recorder.install()
            for step in range(PASS_COMMITS):
                index = number * PASS_COMMITS + step
                branch = step % BRANCH_EVERY == BRANCH_EVERY - 1
                parent = max(versions) - (1 if branch else 0)
                table = f"s{step}"
                statements, _written = editor.edit_sql(table, shape["churn"])
                timeline.before_op()
                if tracer is not None:
                    tracer.op = index
                    op_span = tracer.begin("op")
                started = time.perf_counter()
                orpheus.checkout(CVD, parent, table_name=table)
                for sql in statements:
                    orpheus.run(sql)
                vid = orpheus.commit(table, message=f"op{step}")
                timeline.record(time.perf_counter() - started)
                if tracer is not None:
                    tracer.end(op_span)
                    tracer.op = None
                versions.append(vid)
                committed.append((parent, vid))
            gc_recorder.remove()
            after = _counters()
            timeline.close()
            migrations += len(optimizer.trace.migrations) - migrations_before
            # What follows is checking, not measurement: its spans are dropped.
            mark = len(spans)
            live = {
                vid: rows_digest(orpheus.checkout_rows(CVD, vid)) for vid in versions
            }
        finally:
            store.close()
        for name in delta:
            delta[name] += after[name] - counted[name]
        first_pass = first_pass or live

        # Oracle: reopen from disk and compare every version, with what the
        # pass read live and with what the first pass read.
        with Store.open(path, mode="ro") as recovered:
            orpheus = recovered.orpheus
            mismatched = {
                vid
                for vid in versions
                if rows_digest(orpheus.checkout_rows(CVD, vid)) != live[vid]
                or live[vid] != first_pass.get(vid)
            }
            for parent, vid in committed:
                _gone, added = orpheus.diff(CVD, parent, vid)
                user_written += sum(csv_bytes(row[1:]) for row in added)
            if number == passes - 1:
                user_bytes = distinct_record_bytes(orpheus, CVD)
                disk_bytes = dir_bytes(path)
            else:
                shutil.rmtree(path)
        del spans[mark:]
        failed += sum(1 for _parent, vid in committed if vid in mismatched)
        failed += len(mismatched - {vid for _parent, vid in committed})
    peak_rss = vm_hwm_mb()

    counts = {
        "ops": ops,
        "passes": passes,
        "wal_appends": delta["persist.wal.appends"],
        "wal_fsyncs": delta["persist.wal.fsyncs"],
        "checkpoints": delta["persist.store.checkpoints"],
        "migrations": migrations,
        "user_bytes_written": user_written,
        "gc_gen2": gc_recorder.gen2,
    }
    wal_bytes = delta["persist.wal.bytes_written"]
    snapshot_bytes = delta["persist.snapshot.bytes_written"]
    written = wal_bytes + snapshot_bytes
    result = {
        "attempted": ops,
        "failed": failed,
        "timeline": timeline,
        "setups": setups,
        "counts": counts,
        "notes": [
            f"store: {shape}; {passes} passes of {PASS_COMMITS} commits, "
            f"tolerance {TOLERANCE}",
            f"flush policy: fsync per WAL record, checkpoint every {checkpoint_every} "
            f"records ({delta['persist.store.checkpoints']} checkpoints, "
            f"{migrations} migrations in the timed phase)",
            f"bytes written in the timed phase: WAL {wal_bytes}, "
            f"snapshots {snapshot_bytes}; user bytes {user_written}",
        ],
    }
    if not traced:
        result["end_to_end"] = {
            "peak_rss_mb": (peak_rss, "MB"),
            "disk_bytes_per_user_byte": (disk_bytes / user_bytes, "ratio"),
            "write_bytes_per_user_byte": (written / user_written, "ratio"),
        }
        return result

    coverage = op_coverage(spans)
    result["notes"].append(coverage_note(coverage))
    result["op_layers"] = tracer.self_times(spans, keep=in_op)
    result["setup_layers"] = tracer.self_times(spans, keep=in_setup)
    checkpoints = delta["persist.store.checkpoints"]
    result["direct"] = {
        "persist.wal_fsyncs": delta["persist.wal.fsyncs"],
        "persist.snapshot_bytes_per_checkpoint": (
            snapshot_bytes / checkpoints if checkpoints else 0.0
        ),
        "persist.replay_ms": replay_ms(result["setup_layers"]),
        "runtime.gc_ms": 1e3 * gc_recorder.seconds,
        "runtime.gc_gen2": gc_recorder.gen2,
        "trace.coverage_min": min(coverage),
        "trace.overhead_pct": overhead_pct(len(spans) / ops, timeline.latencies()),
    }
    return result
