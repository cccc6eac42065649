"""Traced ``orpheus`` entry point for the serve workload's traced run.

Installs the tracer's wrappers and a gen-2 GC recorder, then runs
``repro.cli.main``.  Each forked worker starts from an empty trace and
writes ``<out>.worker.json`` when its loop ends; the parent writes
``<out>.parent.json`` on exit::

    PYTHONPATH=src:perfbench python3 perfbench/launcher.py <out> <orpheus args...>
"""

from __future__ import annotations

import sys

from common import GcRecorder
from tracer import Tracer, install_core, install_persist, install_serve, install_storage


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    gc_recorder = GcRecorder(tracer).install()
    for install in (install_persist, install_core, install_storage, install_serve):
        install(tracer)

    from repro.cli.main import main as orpheus_main
    from repro.serve import workers

    worker_loop = workers._worker_loop

    def traced_worker_loop(*args, **kwargs):
        tracer.reset()
        gc_recorder.reset()
        try:
            return worker_loop(*args, **kwargs)
        finally:
            tracer.dump(
                f"{out}.worker.json",
                {"gc_gen2": gc_recorder.gen2, "gc_seconds": gc_recorder.seconds},
            )

    workers._worker_loop = traced_worker_loop
    try:
        return orpheus_main(cli_args)
    finally:
        tracer.dump(
            f"{out}.parent.json",
            {"gc_gen2": gc_recorder.gen2, "gc_seconds": gc_recorder.seconds},
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
