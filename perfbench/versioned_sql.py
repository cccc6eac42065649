"""``versioned_sql``: versioned SQL through ``OrpheusDB.run`` on a read-only store.

A branchy CVD (WorkloadBuilder, four branches) is queried in-process in
rounds; each round runs one fixed set of seeded texts in its own seeded
order, over the templates: a per-version GROUP BY aggregate, a
two-version filter, an ORDER BY ... LIMIT top-k, a grouped top-k over a
window, and the lineage relations.  The ``ALL VERSIONS`` aggregate is left
out: at ~45x the median it alone would set the tail.  Every result is
checked afterwards against the same text on a second read-only store
running the interpreted executor and the lineage walk (compiled ==
interpreted, probe == walk).
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from common import (
    GcRecorder,
    Timeline,
    build_fixture,
    calibration_seconds,
    counter_value,
    coverage_note,
    dir_bytes,
    distinct_record_bytes,
    fixture_write_ratio,
    reset_peak_rss,
    rows_digest,
    settle_heap,
    vm_hwm_mb,
)
from fixtures import CVD, SHAPES
from tracer import (
    Tracer,
    in_op,
    in_setup,
    install_core,
    install_persist,
    install_storage,
    op_coverage,
    overhead_pct,
    replay_ms,
)

#: Timed rounds per measured second on a 2-CPU reference box (fixes the op
#: count from ``--seconds`` alone).
ROUNDS_PER_SECOND = 2
#: Seeded parameter sets per template; every round runs all
#: ``len(TEMPLATES) * PARAMETER_SETS`` texts once, in its own seeded order.
PARAMETER_SETS = 8
SETUP_REPEATS = 7
#: Queries between two calibration points (see ``common.Timeline``).
CALIBRATE_EVERY = 24

TEMPLATES = {
    "group_by": (
        "SELECT a3 % 16 AS g, count(*) AS n, sum(a1) AS s, max(a2) AS m "
        "FROM VERSION {v} OF CVD bench GROUP BY a3 % 16 ORDER BY g"
    ),
    "two_versions": (
        "SELECT gid, a1, a2 FROM VERSION {v}, {w} OF CVD bench "
        "WHERE a2 < {x} ORDER BY gid, a1"
    ),
    "top_k": (
        "SELECT gid, a1 FROM VERSION {v} OF CVD bench WHERE a2 > {x} "
        "ORDER BY a1 DESC, gid LIMIT 10"
    ),
    "grouped_top_k": (
        "SELECT t.gid, t.a1, t.rn FROM (SELECT gid, a1, row_number() OVER "
        "(PARTITION BY a3 % 50 ORDER BY a1 DESC, gid) AS rn "
        "FROM VERSION {v} OF CVD bench) AS t WHERE t.rn <= 3 ORDER BY t.gid"
    ),
    "ancestors": (
        "SELECT vid, num_records FROM VERSIONS ANCESTOR OF {v} OF CVD bench "
        "ORDER BY vid"
    ),
    "descendants": (
        "SELECT vid, num_records FROM VERSIONS DESCENDANT OF {u} OF CVD bench "
        "ORDER BY vid"
    ),
}


def make_rounds(seed: int, versions: int, rounds: int) -> list[list[str]]:
    """``rounds`` seeded orders of one seeded set of texts.

    Each round is shuffled on its own, so garbage collections do not fall
    on the same text every round.
    """
    rng = random.Random(seed * 104729 + 3)
    texts = []
    for template in TEMPLATES.values():
        for index in range(PARAMETER_SETS):
            # Seeded versions; fixed selectivities, so every seed asks for
            # the same amount of work per template.
            v, w = rng.sample(range(versions // 2, versions + 1), 2)
            u = rng.randrange(1, versions // 2)
            texts.append(template.format(v=v, w=w, u=u, x=600 + 150 * index))
    return [rng.sample(texts, len(texts)) for _ in range(rounds)]


def run(seed: int, seconds: int, traced: bool, work: Path) -> dict:
    from repro.core.orpheus import OrpheusDB
    from repro.persist import Store

    shape = SHAPES["versioned_sql"]
    path = work / "store"
    fixture = build_fixture("versioned_sql", seed, path)
    timed_rounds = max(4, ROUNDS_PER_SECOND * seconds)
    rounds = make_rounds(seed, shape["versions"], timed_rounds)
    queries = [text for batch in rounds for text in batch]
    ops = len(queries)

    tracer = Tracer() if traced else None
    if tracer is not None:
        for install in (install_persist, install_core, install_storage):
            install(tracer)
        # The op's entry call: its self time is the versioning layer's own
        # statement handling around translate, parse and execute.
        tracer.wrap(OrpheusDB, "run", "core.run")
    # Each set-up: (seconds, calibration before, calibration after).
    setups = []
    for repeat in range(SETUP_REPEATS):
        before = calibration_seconds()
        started = time.perf_counter()
        store = Store.open(path, mode="ro")
        seconds = time.perf_counter() - started
        setups.append((seconds, before, calibration_seconds()))
        if repeat < SETUP_REPEATS - 1:
            store.close()

    orpheus = store.orpheus
    stats = orpheus.db.stats
    for text in rounds[0]:
        orpheus.run(text)  # untimed warm-up round: lazy plans and kernels
    gc_recorder = GcRecorder(tracer)
    timeline = Timeline(CALIBRATE_EVERY)
    digests = []
    rows_returned = 0
    try:
        settle_heap()
        reset_peak_rss()
        io_before = stats.snapshot()
        nodes_before = counter_value("lineage.nodes_visited")
        gc_recorder.install()
        for index, text in enumerate(queries):
            timeline.before_op()
            if tracer is not None:
                tracer.op = index
                op_span = tracer.begin("op")
            started = time.perf_counter()
            result = orpheus.run(text)
            timeline.record(time.perf_counter() - started)
            if tracer is not None:
                tracer.end(op_span)
                tracer.op = None
            digests.append(rows_digest(result.rows))
            rows_returned += len(result.rows)
            # Freed here, untimed, not when the next op rebinds the name.
            del result
        timeline.close()
        gc_recorder.remove()
        io = stats.snapshot().since(io_before)
        nodes_visited = counter_value("lineage.nodes_visited") - nodes_before
        peak_rss = vm_hwm_mb()
    finally:
        store.close()
    spans = tracer.spans if tracer is not None else []
    if tracer is not None:
        tracer.reset()  # the oracle below is not part of the measurement

    # Oracle: the same texts on the interpreted executor and lineage walk.
    with Store.open(path, mode="ro") as reference:
        reference.orpheus.db.exec_mode = "interpreted"
        reference.orpheus.cvd(CVD).graph.lineage_mode = "walk"
        run = reference.orpheus.run
        expected = {text: rows_digest(run(text).rows) for text in set(queries)}
        user_bytes = distinct_record_bytes(reference.orpheus, CVD)
    failed = sum(1 for text, got in zip(queries, digests) if got != expected[text])

    counts = {
        "ops": ops,
        "distinct_queries": len(expected),
        "rows_returned": rows_returned,
        "records_scanned": io.records_scanned,
        "exprs_interpreted": io.exprs_interpreted,
        "lineage_nodes_visited": nodes_visited,
        "gc_gen2": gc_recorder.gen2,
    }
    result = {
        "attempted": ops,
        "failed": failed,
        "timeline": timeline,
        "setups": setups,
        "counts": counts,
        "notes": [
            f"store: {shape}; {len(expected)} distinct queries; "
            f"{len(rounds)} rounds of {len(rounds[0])} queries after a warm-up round",
        ],
    }
    if not traced:
        result["end_to_end"] = {
            "peak_rss_mb": (peak_rss, "MB"),
            "disk_bytes_per_user_byte": (dir_bytes(path) / user_bytes, "ratio"),
            "write_bytes_per_user_byte": (fixture_write_ratio(fixture), "ratio"),
        }
        return result

    coverage = op_coverage(spans)
    result["notes"].append(coverage_note(coverage))
    result["op_layers"] = tracer.self_times(spans, keep=in_op)
    result["setup_layers"] = tracer.self_times(spans, keep=in_setup)
    result["direct"] = {
        "storage.records_scanned_per_row": io.records_scanned / max(1, rows_returned),
        "storage.exprs_interpreted": io.exprs_interpreted,
        "lineage.nodes_visited": nodes_visited,
        "persist.replay_ms": replay_ms(result["setup_layers"]),
        "runtime.gc_ms": 1e3 * gc_recorder.seconds,
        "runtime.gc_gen2": gc_recorder.gen2,
        "trace.coverage_min": min(coverage),
        "trace.overhead_pct": overhead_pct(len(spans) / ops, timeline.latencies()),
    }
    return result
