"""A line-oriented JSON TCP front end over :class:`ServeManager`.

One request per line, one JSON object per response line::

    {"op": "checkout", "cvd": "proteins", "vids": [3, 5]}
    {"ok": true, "columns": ["rid", ...], "rows": [...], "count": 2}

Supported ops: ``ping``, ``status``, ``stats`` (full per-process
observability snapshot), ``checkout``, ``query``, ``refresh`` (bring the
read session up to date), ``shutdown``.  Connections are handled by
daemon threads (``ThreadingTCPServer``) that all run the one request
loop of :mod:`repro.serve.workers` over the manager's single read
session, taking turns on it; the pre-fork pool is the read scale-out
path.  Errors come back as ``{"ok": false, "error": <human text>,
"code": <stable machine string>}`` on the same line — the connection
stays usable.  A request may carry ``"trace": "<id>"``; every span the
request touches (down to store refresh and executor work) then carries
that trace id in the structured log stream.

This module also holds the wire helpers both front ends share and the
clients (:func:`request`, :class:`ServeClient`).
"""

from __future__ import annotations

import json
import os
import re
import socket
import socketserver
import threading
import weakref
import zlib
from typing import Any

from repro.obs import metrics

from repro.serve.manager import ServeManager

#: The op vocabulary; anything else buckets under the ``unknown`` label so
#: a misbehaving client cannot mint unbounded metric names.
KNOWN_OPS = ("ping", "status", "stats", "checkout", "query", "refresh", "shutdown")

_CAMEL = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")


def error_response(message: str, code: str) -> dict:
    """The wire shape of a failed request; charges the per-code counter."""
    metrics.registry().counter(f"serve.errors.{code}").inc()
    return {"ok": False, "error": message, "code": code}


def rows_checksum(rows: Any) -> int:
    """CRC-32 over a checkout's rows, stable across processes and runs.

    The body of a ``"rows": false`` response: the client gets integrity
    evidence (count + checksum) without the server JSON-encoding — or the
    client decoding — the payload, which would otherwise dominate a
    throughput measurement.  ``repr`` of tuples of plain values is
    deterministic (unlike ``hash``, which is salted per interpreter).
    """
    crc = 0
    for row in rows:
        crc = zlib.crc32(repr(tuple(row)).encode("utf-8"), crc)
    return crc


def checkout_response(
    columns: list, rows: list, lsn: int, include_rows: bool = True
) -> dict:
    """The wire shape of a successful checkout."""
    response: dict = {"ok": True, "columns": columns, "count": len(rows), "lsn": lsn}
    if include_rows:
        response["rows"] = [list(row) for row in rows]
    else:
        response["checksum"] = rows_checksum(rows)
    return response


def error_code(exc: BaseException) -> str:
    """A stable machine-readable code for an exception.

    Derived from the class name — ``ReadOnlyError`` → ``read_only``,
    ``StoreLockedError`` → ``store_locked`` — so the wire codes track the
    exception hierarchy without a hand-maintained table.
    """
    name = type(exc).__name__
    if name.endswith("Error"):
        name = name[: -len("Error")]
    return _CAMEL.sub("_", name).lower() or "error"


class _RequestHandler(socketserver.BaseRequestHandler):
    """Accept/thread wiring only: the request loop is the workers' own."""

    def handle(self) -> None:
        # Imported here: the workers module imports this one's wire helpers.
        from repro.serve import workers

        server: "_Server" = self.server  # type: ignore[assignment]
        # The loop returns only after the shutdown acknowledgement is sent
        # — the other order races the process exit and the client can see
        # EOF instead of the reply.
        if workers._serve_connection(
            self.request, server.manager.reader, server.draining
        ):
            server.request_shutdown()


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    manager: ServeManager
    #: Set on the way out: idle connections drop within one recv timeout.
    draining: threading.Event

    def request_shutdown(self) -> None:
        # shutdown() joins the serve_forever loop, which must not run on
        # the calling thread; hand it to a helper thread so both handler
        # threads and signal handlers can trigger it safely.
        threading.Thread(target=self.shutdown, daemon=True).start()


class ServeServer:
    """Own a manager-backed TCP server; start/stop cleanly."""

    def __init__(
        self,
        manager: ServeManager,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.manager = manager
        self._server = _Server((host, port), _RequestHandler)
        self._server.manager = manager
        self._server.draining = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return host, port

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` (or the shutdown
        op) is called; the manager is closed on the way out."""
        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self._server.draining.set()
            self._server.server_close()
            self.manager.close()

    def start(self) -> "ServeServer":
        """Serve on a background thread (tests and embedding)."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self._server.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None


def request(host: str, port: int, payload: dict, timeout: float = 30.0) -> dict:
    """One-shot client: send a request line, return the decoded response."""
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        with conn.makefile("rb") as reader:
            line = reader.readline()
    if not line:
        raise ConnectionError("server closed the connection without replying")
    return json.loads(line.decode("utf-8"))


#: Live client sockets in this process.  A pre-fork worker forked while
#: the host process holds open client connections inherits duplicate FDs
#: for them; those duplicates keep the TCP connections ESTABLISHED after
#: the real client closes, which pins the worker serving that connection
#: forever (and can self-deadlock a worker serving a connection whose
#: client end it inherited).  The registry lets the freshly forked child
#: close every inherited client socket before it starts serving.
_live_clients: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()
_live_clients_lock = threading.Lock()
# Keep the registry consistent across fork: another thread may be mutating
# the WeakSet at the instant the supervisor forks a replacement worker.
os.register_at_fork(
    before=_live_clients_lock.acquire,
    after_in_parent=_live_clients_lock.release,
    after_in_child=_live_clients_lock.release,
)


def close_inherited_clients() -> int:
    """Close every live client socket (called by a forked worker child);
    returns how many were closed.  The parent's own sockets are untouched
    — closing a duplicate FD only drops this process's reference.

    ``detach()`` + ``os.close()`` rather than ``socket.close()``: each
    client holds a ``makefile()`` reader whose io-ref makes ``close()``
    defer the real FD close — exactly the deferral that must NOT happen
    here.  Detaching first also means the child's copy of the socket
    object can never double-close a since-reused FD from a destructor.
    """
    with _live_clients_lock:
        inherited = list(_live_clients)
    closed = 0
    for sock in inherited:
        try:
            fd = sock.detach()
        except OSError:  # pragma: no cover - already dead
            continue
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass
            closed += 1
    return closed


class ServeClient:
    """A persistent-connection client for request loops (benchmarks)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        # Register BEFORE connecting: a worker forked between connect()
        # and registration would inherit an invisible connected socket —
        # exactly the duplicate-FD pinning the registry exists to stop.
        # A child closing a not-yet-connected socket is harmless.
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        with _live_clients_lock:
            _live_clients.add(sock)
        try:
            sock.settimeout(timeout)
            sock.connect((host, port))
        except BaseException:
            with _live_clients_lock:
                _live_clients.discard(sock)
            sock.close()
            raise
        self._conn = sock
        self._reader = self._conn.makefile("rb")

    def request(self, payload: dict) -> dict:
        self._conn.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    def close(self) -> None:
        with _live_clients_lock:
            _live_clients.discard(self._conn)
        self._reader.close()
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def serve(
    path: str,
    host: str = "127.0.0.1",
    port: int = 0,
    cache_capacity: int = 256,
    writer: bool = True,
    checkpoint_interval: int = 256,
    workers: int = 0,
    shared_cache: bool = True,
    respawn_limit: int = 16,
):
    """Build a server for ``orpheus serve`` (not yet started).

    ``workers=0`` (the default) builds the in-process threaded server
    (the writer plus one read session).  ``workers=N`` builds the
    pre-fork :class:`~repro.serve.workers.PreforkServer` instead: N
    reader *processes* that inherit one loaded snapshot, always in
    follower mode (the writer, if any, lives in another process).
    """
    if workers:
        from repro.serve.workers import PreforkServer

        return PreforkServer(
            path,
            host=host,
            port=port,
            workers=workers,
            cache_capacity=cache_capacity,
            shared_cache=shared_cache,
            respawn_limit=respawn_limit,
        )
    manager = ServeManager(
        path,
        cache_capacity=cache_capacity,
        writer=writer,
        checkpoint_interval=checkpoint_interval,
    )
    try:
        return ServeServer(manager, host=host, port=port)
    except BaseException:
        manager.close()
        raise
