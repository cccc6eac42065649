"""Helpers shared by the perfbench workloads: statistics, digests, sizes.

Nothing here imports the program under test at module level, so the
runner can check that the source tree exists before anything else.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys
import time
import zlib
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def tail(latencies: list[float], beyond: int = 10) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``: the sample with exactly ``beyond``
    larger samples, and the percentile it stands for.
    """
    ordered = sorted(latencies)
    if len(ordered) <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {len(ordered)}")
    index = len(ordered) - beyond - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


#: Seconds one calibration loop takes on the reference box (2-vCPU Xeon
#: VM, Python 3.11) when nothing else runs on the host.  Normalized
#: timings are stated at that speed.
CALIBRATION_REFERENCE_S = 0.020


def calibration_seconds(repeats: int = 2) -> float:
    """The fastest of ``repeats`` runs of a fixed pure-stdlib kernel.

    A yardstick of how fast the machine runs Python right now, taken
    between the ops of a workload.  The kernel is an interpreter loop
    plus a build, sort and group-by over 20 000 small tuples, so it slows
    down both when the CPU is shared and when memory is.  It never calls
    the program and keeps nothing alive, so a change to the program
    cannot move it.  The collector is off while it runs.
    """
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            total = 0
            for value in range(200_000):
                total += value * value % 7
            rows = [(i, i % 16, (i * 7919) % 100_003) for i in range(20_000)]
            rows.sort(key=lambda row: row[2])
            groups: dict[int, int] = {}
            for _key, group, value in rows:
                groups[group] = groups.get(group, 0) + value
            del rows
            best = min(best, time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return best


def normalize(seconds: float, before: float, after: float) -> float:
    """``seconds`` stated at the reference speed, given the calibration
    times taken just before and just after it."""
    return seconds * CALIBRATION_REFERENCE_S / ((before + after) / 2)


class Timeline:
    """Op latencies in segments of at most ``every`` ops, each segment
    between two calibration points taken outside the ops.

    Call :meth:`before_op` before starting each op's clock, :meth:`record`
    with its latency, and :meth:`close` after the last op of a stretch of
    timed work (work done after that is not bracketed).
    """

    def __init__(self, every: int):
        self.every = every
        self.segments: list[list[float]] = []
        self.pairs: list[tuple[float, float]] = []
        self._point: float | None = None

    def before_op(self) -> None:
        if self._point is not None and len(self.segments[-1]) < self.every:
            return
        point = calibration_seconds()
        if self._point is not None:
            self.pairs.append((self._point, point))
        self._point = point
        self.segments.append([])

    def record(self, seconds: float) -> None:
        self.segments[-1].append(seconds)

    def close(self) -> None:
        if self._point is not None:
            self.pairs.append((self._point, calibration_seconds()))
            self._point = None

    def latencies(self) -> list[float]:
        return [seconds for segment in self.segments for seconds in segment]

    def normalized(self) -> list[float]:
        """Op latencies stated at the reference speed, in run order: each
        segment's are scaled by the reference time over the mean of its
        two calibration points."""
        return [
            normalize(seconds, before, after)
            for segment, (before, after) in zip(self.segments, self.pairs, strict=True)
            for seconds in segment
        ]


def rows_digest(rows) -> tuple[int, int]:
    """``(count, crc32)`` over rows, independent of list-vs-tuple shape.

    ``repr`` of a tuple of ints/strs/None is the same before and after a
    JSON round trip, so a decoded reply digests like the rows it encodes.
    """
    crc = 0
    count = 0
    for row in rows:
        crc = zlib.crc32(repr(tuple(row)).encode("utf-8"), crc)
        count += 1
    return count, crc


def csv_bytes(values) -> int:
    """Logical size of one record: its UTF-8 CSV line, newline included."""
    return len(
        (",".join("" if v is None else str(v) for v in values) + "\n").encode("utf-8")
    )


def distinct_record_bytes(orpheus, cvd_name: str) -> int:
    """Logical bytes of every distinct record the CVD holds (rid-keyed)."""
    seen: dict[int, int] = {}
    for entry in orpheus.version_log(cvd_name):
        for row in orpheus.checkout_rows(cvd_name, entry["vid"]):
            if row[0] not in seen:
                seen[row[0]] = csv_bytes(row[1:])
    return sum(seen.values())


def dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reset_peak_rss(pid: int | str = "self") -> None:
    """Restart a process's VmHWM from its current RSS, so the peak read
    later belongs to the timed phase alone."""
    with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


class GcRecorder:
    """Counts and times generation-2 collections through ``gc.callbacks``.

    With a tracer, every collection is also a span (``runtime.gc`` for
    generation 2, ``runtime.gc_young`` for 0 and 1) under whatever span was
    open, so a collection is never an unmeasured gap in an op.
    """

    def __init__(self, tracer=None):
        self.gen2 = 0
        self.seconds = 0.0
        self.tracer = tracer
        self._started = None
        self._span = None

    def _callback(self, phase: str, info: dict) -> None:
        generation = info.get("generation")
        if phase == "start":
            if self.tracer is not None:
                self._span = self.tracer.begin(
                    "runtime.gc" if generation == 2 else "runtime.gc_young"
                )
            if generation == 2:
                self._started = time.perf_counter()
            return
        if generation == 2 and self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self._started = None
            self.gen2 += 1
        if self._span is not None:
            self.tracer.end(self._span)
            self._span = None

    def install(self) -> "GcRecorder":
        gc.callbacks.append(self._callback)
        return self

    def remove(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)

    def reset(self) -> None:
        self.gen2 = 0
        self.seconds = 0.0


def settle_heap() -> None:
    """Untimed full collection so every timed phase starts from one heap."""
    gc.collect()


def counter_value(name: str) -> int:
    from repro.obs import metrics

    return metrics.registry().counter(name).value


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, workload: str):
        self.root = ROOT / ".perfbench-work"
        self.path = self.root / f"{workload}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.root.rmdir()
        except OSError:
            pass  # another run is still using it


def python_env(extra_tmp: Path | None = None) -> dict:
    """Environment for child Python processes: the source tree on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p
    )
    # Fixed string hashing: a child's dict and set orders, and so its
    # allocation pattern and GC counts, repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    if extra_tmp is not None:
        env["TMPDIR"] = str(extra_tmp)
    return env


def build_fixture(kind: str, seed: int, store: Path, timeout: float = 150.0) -> dict:
    """Build a seeded store in a child process; returns its build report.

    A separate process keeps the build's allocations out of the measuring
    process's heap and peak RSS.
    """
    completed = subprocess.run(
        [sys.executable, str(HERE / "fixtures.py"), kind, str(seed), str(store)],
        env=python_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    if completed.returncode != 0:
        stderr = completed.stderr[-2000:]
        raise RuntimeError(f"fixture {kind} failed ({completed.returncode}): {stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def fixture_write_ratio(report: dict) -> float:
    """WAL + snapshot bytes the fixture build wrote per logical byte."""
    written = report["wal_bytes_written"] + report["snapshot_bytes_written"]
    return written / report["user_bytes_written"]


def coverage_note(coverage: list[float]) -> str:
    low, middle = min(coverage), median(coverage)
    return f"span coverage of op latency: min {low:.3f}, median {middle:.3f}"
