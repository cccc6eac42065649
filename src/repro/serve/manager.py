"""One writer store plus one read-only serving session.

The shape the paper's bolt-on design wants at serving time: a single
update path (the exclusive-lock writer store) next to a read session, a
:class:`repro.persist.Store` opened with ``mode="ro"`` so it shares the
store directory without writing a byte.  A request borrows the session,
brings it up to date with a cheap lsn-tail
:meth:`~repro.persist.Store.refresh`, serves through the
:class:`~repro.serve.cache.CheckoutCache`, and hands it back.

Reentrancy model: the session is used by one thread at a time — one lock
serialises borrowers, which the GIL would serialise anyway — and the
cache carries its own lock.  Read scale-out is the pre-fork worker pool
(:mod:`repro.serve.workers`), one such session per process.  With an
in-process writer, the session knows exactly when it is behind (the
writer's lsn is a field away); in follower mode (``writer=False``, the
writer lives in another process) every borrow polls the WAL tail, which
the byte-offset resume keeps cheap.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.errors import PersistenceError, StaleReadError
from repro.obs import metrics
from repro.persist import RefreshResult, Store

from repro.serve.cache import CheckoutCache, checkout_key, query_key

# Pid-aware handles: a pre-fork serve worker charges its own registry.
_BORROW_WAIT = metrics.histogram("serve.pool.borrow_wait_seconds")
_IN_FLIGHT = metrics.gauge("serve.pool.in_flight")

_MISSING = object()


class ReadSession:
    """One read-only store plus its view of the cache, one borrower at a
    time."""

    def __init__(
        self,
        store: Store,
        cache: CheckoutCache,
        session_id: int = 0,
        writer: Store | None = None,
    ):
        self.store = store
        self.cache = cache
        self.session_id = session_id
        #: The in-process writer, if any: a session already at its lsn
        #: skips the WAL poll.  Without one (follower mode, prefork
        #: workers) every borrow polls the durable tail.
        self.writer = writer
        self.refreshes = 0
        self.requests = 0
        self._turn = threading.Condition()
        self._busy = False
        self._closed = False

    @property
    def orpheus(self):
        return self.store.orpheus

    @property
    def last_lsn(self) -> int:
        return self.store.last_lsn

    def refresh(self) -> RefreshResult:
        """Catch up with the writer and evict what it made stale."""
        result = self.store.refresh()
        if result.changed:
            self.refreshes += 1
            self._invalidate(result)
        return result

    def ensure_lsn(self, min_lsn: int | None) -> None:
        """The refresh fence: never answer from behind ``min_lsn``.

        ``min_lsn`` is an lsn the client has already observed (a prior
        response carried it).  A session at or past it serves as-is; one
        behind it refreshes to the durable tip first.  If even the tip is
        behind, the client's watermark came from a future this store has
        not seen (wrong store, or an unsynced replica) — error out rather
        than silently time-travel the client backwards.
        """
        if min_lsn is None or self.last_lsn >= min_lsn:
            return
        self.refresh()
        if self.last_lsn < min_lsn:
            raise StaleReadError(
                f"store is at lsn {self.last_lsn}, behind the client's "
                f"required lsn {min_lsn}"
            )

    def _invalidate(self, result: RefreshResult) -> None:
        if result.full_reload:
            # No per-record classification available: everything older
            # than the reloaded lsn is suspect.
            self.cache.invalidate(cvds=None, below_lsn=result.last_lsn)
            return
        self.cache.invalidate(
            # Empty touched set with ran_sql still drops query entries.
            cvds=result.touched_cvds,
            below_lsn=result.last_lsn,
            queries=bool(result.ran_sql or result.touched_cvds),
        )

    # ------------------------------------------------------------ borrowing

    @contextmanager
    def borrow(self, min_lsn: int | None = None) -> Iterator["ReadSession"]:
        """Exclusive use of the session, caught up and fenced at
        ``min_lsn``; blocks while another request holds it."""
        waited = time.perf_counter()
        with self._turn:
            while self._busy and not self._closed:
                self._turn.wait()
            if self._closed:
                raise PersistenceError("serve manager is closed")
            self._busy = True
        _BORROW_WAIT.observe(time.perf_counter() - waited)
        _IN_FLIGHT.inc()
        try:
            if self.writer is None or self.last_lsn < self.writer.last_lsn:
                self.refresh()
            self.ensure_lsn(min_lsn)
            yield self
        finally:
            _IN_FLIGHT.dec()
            with self._turn:
                self._busy = False
                if self._closed:
                    # close() ran mid-request and left the store to us.
                    self.store.close()
                else:
                    self._turn.notify()

    def close(self) -> None:
        """Close now if idle, else on the borrower's way out; waiters wake
        with a clean error instead of hanging."""
        with self._turn:
            if self._closed:
                return
            self._closed = True
            busy = self._busy
            self._turn.notify_all()
        if not busy:
            self.store.close()

    # -------------------------------------------------------------- serving

    def checkout(self, cvd: str, vids: int | Sequence[int]) -> list[tuple]:
        """Cached merged checkout of ``vids`` at this session's lsn."""
        self.requests += 1
        key = checkout_key(cvd, vids, self.last_lsn)
        rows = self.cache.get(key, _MISSING)
        if rows is _MISSING:
            rows = self.orpheus.checkout_rows(cvd, vids)
            self.cache.put(key, rows)
        return rows

    def query(self, sql: str, params: Sequence[Any] = ()):
        """Cached read-only SQL at this session's lsn."""
        self.requests += 1
        key = query_key(sql, params, self.last_lsn)
        result = self.cache.get(key, _MISSING)
        if result is _MISSING:
            result = self.orpheus.run(sql, params)
            self.cache.put(key, result)
        return result

    def status(self) -> dict:
        """The payload of the serve ``{"op": "status"}`` endpoint."""
        return {
            "path": str(self.store.path),
            "mode": "writer" if self.writer is not None else "follower",
            "pid": os.getpid(),
            "worker": self.session_id,
            "writer_lsn": self.writer.last_lsn if self.writer is not None else None,
            "lsn": self.last_lsn,
            "requests": self.requests,
            "refreshes": self.refreshes,
            "cache": self.cache.stats_dict(),
        }


class ServeManager:
    """The optional writer store plus one read session."""

    def __init__(
        self,
        path: str | Path,
        cache_capacity: int = 256,
        writer: bool = True,
        checkpoint_interval: int = 256,
    ):
        self.path = Path(path)
        self.cache = CheckoutCache(cache_capacity)
        self.writer_store: Store | None = None
        self.reader: ReadSession | None = None
        self._write_lock = threading.RLock()
        #: Collector names this manager registered with the obs registry,
        #: remembered with their callables so close() only unregisters its
        #: own (a fresher manager may have overwritten a name).
        self._collectors: list[tuple[str, Any]] = []
        try:
            if writer:
                self.writer_store = Store.open(
                    path, checkpoint_interval=checkpoint_interval
                )
            self.reader = ReadSession(
                Store.open(path, mode="ro"), self.cache, writer=self.writer_store
            )
        except BaseException:
            self.close()
            raise
        self._register_collectors()

    def _register_collectors(self) -> None:
        """Expose the cache and the engine I/O pull-style.

        Registration is snapshot-time only: the counters themselves are the
        unmodified CacheStats/IOStats the hot paths already charge, so the
        gated benchmark figures cannot drift.
        """
        obs = metrics.registry()
        entries: list[tuple[str, Any]] = [
            ("serve.cache", self.cache.stats_dict),
            ("serve.session_0.io", self.reader.orpheus.db.stats.as_dict),
        ]
        if self.writer_store is not None:
            writer_stats = self.writer_store.orpheus.db.stats
            entries.append(("serve.writer.io", writer_stats.as_dict))
        for name, collect in entries:
            obs.register_collector(name, collect)
        self._collectors = entries

    # --------------------------------------------------------------- writer

    @property
    def writer(self):
        """The writer session's OrpheusDB (None in follower mode)."""
        return self.writer_store.orpheus if self.writer_store else None

    @property
    def writer_lsn(self) -> int | None:
        return self.writer_store.last_lsn if self.writer_store else None

    @contextmanager
    def write(self) -> Iterator[Any]:
        """Serialized access to the writer; the read session picks changes
        up on its next borrow (bounded staleness, never inconsistency)."""
        if self.writer_store is None:
            raise PersistenceError(
                "this manager follows an external writer (writer=False); "
                "commit through the owning process instead"
            )
        with self._write_lock:
            yield self.writer_store.orpheus

    # --------------------------------------------------------------- reader

    def session(self) -> Iterator[ReadSession]:
        """Borrow the read session (blocks while a request holds it)."""
        return self.reader.borrow()

    def checkout(self, cvd: str, vids: int | Sequence[int]) -> list[tuple]:
        with self.session() as session:
            return session.checkout(cvd, vids)

    def query(self, sql: str, params: Sequence[Any] = ()):
        with self.session() as session:
            return session.query(sql, params)

    def columns(self, cvd: str) -> list[str]:
        """Column names of a checkout payload (rid first, like the rows)."""
        with self.session() as session:
            schema = session.orpheus.cvd(cvd).data_schema
            return ["rid", *schema.column_names]

    def status(self) -> dict:
        return self.reader.status()

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        obs = metrics.registry()
        for name, collect in self._collectors:
            obs.unregister_collector(name, collect)
        self._collectors = []
        if self.reader is not None:
            # Never closes the store under an in-flight request: the
            # borrower retires it on its way out.
            self.reader.close()
        if self.writer_store is not None:
            self.writer_store.close()
            self.writer_store = None

    def __enter__(self) -> "ServeManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
