"""repro.serve — a read-serving layer over the durable store.

OrpheusDB is bolt-on versioning for a *shared* relational store; the HTAP
split this package implements is one update path plus read replicas:

* :mod:`repro.serve.cache` — a version-aware LRU whose keys carry
  ``(cvd, tuple(vids), last_lsn)``; correctness comes from the lsn
  tag (replay is deterministic, so state at an lsn is state at an lsn),
  invalidation on commit / schema evolution / partition migration is
  memory hygiene.
* :mod:`repro.serve.manager` — :class:`ServeManager`, one ``mode="rw"``
  writer store plus one ``mode="ro"`` :class:`ReadSession` that catches
  up via the WAL-tail :meth:`Store.refresh`.
* :mod:`repro.serve.server` — a JSON-line TCP front end
  (``orpheus serve``) over a manager, with a one-shot and a persistent
  client.
* :mod:`repro.serve.workers` — the one request loop and dispatcher both
  front ends run, and :class:`PreforkServer`, the process-parallel front
  end (``orpheus serve --workers N``): one snapshot load in the parent,
  N forked reader workers accepting on a shared socket, a supervisor
  that respawns the dead.
* :mod:`repro.serve.sharedcache` — the cross-process L2 checkout cache
  (an owner thread in the parent, one unix-socket client per worker).
"""

from repro.serve.cache import CacheStats, CheckoutCache, checkout_key, query_key
from repro.serve.manager import ReadSession, ServeManager
from repro.serve.server import ServeClient, ServeServer, request, serve
from repro.serve.sharedcache import CacheClient, CacheOwner
from repro.serve.workers import PreforkServer

__all__ = [
    "CheckoutCache",
    "CacheStats",
    "checkout_key",
    "query_key",
    "ReadSession",
    "ServeManager",
    "ServeClient",
    "ServeServer",
    "CacheClient",
    "CacheOwner",
    "PreforkServer",
    "request",
    "serve",
]
