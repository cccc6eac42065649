"""Seeded store fixtures for the perfbench workloads.

Every store is built through the public OrpheusDB API (``init``, then a
CSV ``checkout``/``commit`` per version) inside a
:class:`repro.persist.Store`, then checkpointed so readers recover from a
snapshot.  Run as a script it builds one fixture
and prints a one-line JSON build report::

    PYTHONPATH=src python3 perfbench/fixtures.py <workload> <seed> <store-dir>
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

from common import counter_value, csv_bytes

#: Store shapes.  ``chain``: one linear history where each version deletes
#: ``churn // 3`` rows, updates ``churn // 3`` and inserts ``churn``.
#: ``branchy``: a WorkloadBuilder DAG whose derived versions round-robin over
#: ``branches`` tips, each editing ``churn`` records.
SHAPES = {
    "checkout_serve": {"kind": "chain", "root": 12_000, "versions": 24, "churn": 300},
    "versioned_sql": {
        "kind": "branchy",
        "root": 8_000,
        "versions": 32,
        "branches": 4,
        "churn": 200,
    },
    "commit_cycle": {"kind": "chain", "root": 3_000, "versions": 12, "churn": 150},
}

CVD = "bench"
CHAIN_COLUMNS = [("id", "int"), ("grp", "text"), ("val", "int")]
BRANCHY_COLUMNS = [("gid", "int")] + [(f"a{i}", "int") for i in range(1, 5)]


def _values_sql(rows) -> str:
    return ", ".join(
        "(" + ", ".join(f"'{v}'" if isinstance(v, str) else str(v) for v in row) + ")"
        for row in rows
    )


#: Seeds the id ranges the chain edits delete and update.  The ranges are
#: the same for every ``--seed`` (only the values are seeded), so every
#: seed builds the same version/record structure: the same version sizes
#: for ``checkout_serve`` and the same LyreSplit decisions, migrations
#: included, for ``commit_cycle``.
CHAIN_LAYOUT_SEED = 1


class ChainEditor:
    """Seeded edits on a chained CVD of ``(id, grp, val)`` rows.

    Keeps a model of the newest version so the edits it emits always hit
    live keys; the commit workload uses the same editor for its ops.
    """

    def __init__(self, rng: random.Random, rows: dict[int, tuple[str, int]]):
        self.rng = rng
        self.layout = random.Random(CHAIN_LAYOUT_SEED)
        self.rows = rows
        self.next_id = max(rows, default=-1) + 1

    @classmethod
    def root(cls, rng: random.Random, count: int) -> "ChainEditor":
        rows = {}
        for key in range(count):
            rows[key] = (f"g{rng.randrange(16)}", rng.randrange(100_000))
        return cls(rng, rows)

    def edit_sql(self, table: str, churn: int) -> tuple[list[str], int]:
        """DML for one version; returns the statements and the logical bytes
        of the rows they insert or update.

        Deletes and updates hit id ranges drawn from ``layout``, so each
        statement's predicate is one comparison pair per row.
        """
        width = churn // 3
        lo_del = self.layout.randrange(self.next_id - width)
        lo_upd = self.layout.randrange(self.next_id - width)
        bump = self.rng.randrange(1, 1000)
        inserted = []
        for _ in range(churn):
            grp, val = f"g{self.rng.randrange(16)}", self.rng.randrange(100_000)
            inserted.append((self.next_id, grp, val))
            self.next_id += 1
        for key in range(lo_del, lo_del + width):
            self.rows.pop(key, None)
        written = 0
        for key in range(lo_upd, lo_upd + width):
            if key in self.rows:
                grp, val = self.rows[key]
                self.rows[key] = (grp, val + bump)
                written += csv_bytes((key, grp, val + bump))
        for key, grp, val in inserted:
            self.rows[key] = (grp, val)
            written += csv_bytes((key, grp, val))
        statements = [
            f"DELETE FROM {table} WHERE id >= {lo_del} AND id < {lo_del + width}",
            f"UPDATE {table} SET val = val + {bump} "
            f"WHERE id >= {lo_upd} AND id < {lo_upd + width}",
            f"INSERT INTO {table} (id, grp, val) VALUES {_values_sql(inserted)}",
        ]
        return statements, written


def chain_editor_after_build(seed: int, shape: dict) -> ChainEditor:
    """The editor state :func:`build_chain` ends in, replayed without a store."""
    editor = ChainEditor.root(random.Random(seed), shape["root"])
    for _ in range(shape["versions"] - 1):
        editor.edit_sql("staged", shape["churn"])
    return editor


def build_chain(orpheus, seed: int, shape: dict, orpheus_dir: Path) -> int:
    rng = random.Random(seed)
    editor = ChainEditor.root(rng, shape["root"])
    rows = [(key, *editor.rows[key]) for key in sorted(editor.rows)]
    orpheus.init(CVD, CHAIN_COLUMNS, rows=rows, primary_key=("id",), message="root")
    written = sum(csv_bytes(row) for row in rows)
    # The history is written through the CSV checkout/commit pair from the
    # editor's model: the same versions as running its DML, built faster.
    staged = Path(orpheus_dir) / "staged.csv"
    for step in range(shape["versions"] - 1):
        orpheus.checkout_csv(CVD, step + 1, staged)
        _statements, step_bytes = editor.edit_sql("staged", shape["churn"])
        rows = ((key, *editor.rows[key]) for key in sorted(editor.rows))
        _write_csv(staged, CHAIN_COLUMNS, rows)
        orpheus.commit_csv(staged, message=f"v{step + 2}")
        written += step_bytes
    staged.unlink()
    return written


def _write_csv(path: Path, columns, rows) -> None:
    with path.open("w", encoding="utf-8") as handle:
        handle.write(",".join(name for name, _ in columns) + "\n")
        for row in rows:
            handle.write(",".join(map(str, row)) + "\n")


def build_branchy(orpheus, seed: int, shape: dict, orpheus_dir: Path) -> int:
    from repro.workloads.benchmark_graph import WorkloadBuilder

    builder = WorkloadBuilder(CVD, num_attributes=4, seed=seed)
    root = builder.root(shape["root"])
    tips = [root] * shape["branches"]
    churn = shape["churn"]
    for step in range(shape["versions"] - 1):
        branch = step % shape["branches"]
        tips[branch] = builder.derive(
            tips[branch], inserts=churn // 4, updates=churn // 2, deletes=churn // 4
        )
    workload = builder.build(shape["branches"], churn)
    versions = workload.versions
    root_rows = [(rid, *workload.payload(rid)) for rid in sorted(versions[0].members)]
    orpheus.init(
        CVD, BRANCHY_COLUMNS, rows=root_rows, primary_key=("gid",), message="root"
    )
    written = sum(csv_bytes(row) for row in root_rows)
    vid_of = {versions[0].vid: 1}
    # Each version goes through the CSV checkout/commit pair: the staged
    # file is rewritten with the child's rows, where deleting the
    # generator's random rid lists through ``IN (...)`` would cost
    # rows x list comparisons per version.
    staged = Path(orpheus_dir) / "staged.csv"
    for version in versions[1:]:
        (parent,) = version.parents
        orpheus.checkout_csv(CVD, vid_of[parent], staged)
        _write_csv(
            staged,
            BRANCHY_COLUMNS,
            ((rid, *workload.payload(rid)) for rid in sorted(version.members)),
        )
        added = [(rid, *workload.payload(rid)) for rid in version.new_rids]
        written += sum(csv_bytes(row) for row in added)
        vid_of[version.vid] = orpheus.commit_csv(staged, message=f"g{version.vid}")
    staged.unlink()
    return written


def build(workload: str, seed: int, path: Path) -> dict:
    from repro.persist import Store

    shape = SHAPES[workload]
    started = time.perf_counter()
    with Store.open(path, checkpoint_interval=0) as store:
        builder = build_chain if shape["kind"] == "chain" else build_branchy
        user_bytes = builder(store.orpheus, seed, shape, path.parent)
        store.checkpoint()
    return {
        "workload": workload,
        "seed": seed,
        "shape": shape,
        "build_s": time.perf_counter() - started,
        "user_bytes_written": user_bytes,
        "wal_bytes_written": counter_value("persist.wal.bytes_written"),
        "snapshot_bytes_written": counter_value("persist.snapshot.bytes_written"),
    }


if __name__ == "__main__":
    name, seed_text, target = sys.argv[1:4]
    print(json.dumps(build(name, int(seed_text), Path(target))))
