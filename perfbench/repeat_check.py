"""Fixed-work check: two runs at one seed must repeat every count exactly.

Runs each workload twice through ``run.py --trace 1`` and compares the ``counts``
line (cache hits and misses, rows returned, records scanned, WAL appends
and fsyncs, checkpoints, migrations, gen-2 collections of the measuring
process, ...) and asserts that no op failed.  WAL and snapshot *bytes* are
not compared: ``optimize`` and ``migration_finish`` journal records carry a
float ``wall_seconds``, so their encoded size can differ by a few bytes
between runs; they are reported as measured.  Exit status 0 when every
count repeats::

    python3 perfbench/repeat_check.py [--seed N] [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("checkout_serve", "versioned_sql", "commit_cycle")


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    completed = subprocess.run(
        command,
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} failed: {completed.stderr[-2000:]}")
    lines = completed.stdout.strip().splitlines()
    prefix = "counts "
    counts = next(line for line in lines if line.startswith(prefix))
    return json.loads(counts[len(prefix) :]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=4)
    args = parser.parse_args()
    problems = []
    for workload in WORKLOADS:
        first, result_a = run_once(workload, args.seed, args.seconds)
        second, result_b = run_once(workload, args.seed, args.seconds)
        for result in (result_a, result_b):
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload}: {result['failed']} failed ops")
        for name in sorted(set(first) | set(second)):
            if first.get(name) != second.get(name):
                pair = f"{first.get(name)} != {second.get(name)}"
                problems.append(f"{workload}: {name} {pair}")
        print(f"{workload}: {json.dumps(first, sort_keys=True)}")
    for problem in problems:
        print(f"MISMATCH {problem}")
    print("ok" if not problems else f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
