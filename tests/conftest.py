"""Shared fixtures: a fresh engine, the paper's protein example, workloads."""

from __future__ import annotations

import pytest

from repro.core.orpheus import OrpheusDB
from repro.storage.engine import Database
from repro.workloads import dataset, load_workload
from repro.workloads.protein import (
    PROTEIN_COLUMNS,
    PROTEIN_PRIMARY_KEY,
)

#: Per-test wall-clock budget when pytest-timeout is installed (CI
#: installs it; the container image may not have it, so everything below
#: is gated on the plugin's presence).  Suites that fork worker pools or
#: drive subprocesses override via module-level
#: ``pytestmark = pytest.mark.timeout(...)``.
DEFAULT_TEST_TIMEOUT = 60


def pytest_configure(config):
    # Register the marker ourselves so `pytest.mark.timeout(...)`
    # overrides stay warning-free when the plugin is not installed
    # (when it is, this line is a harmless duplicate of its own).
    config.addinivalue_line(
        "markers",
        "timeout(seconds): per-test wall-clock limit (enforced by "
        "pytest-timeout when installed; inert otherwise)",
    )


def pytest_collection_modifyitems(config, items):
    # A hung fork/subprocess test must fail the run, not wedge it: give
    # every test a default budget — but only when pytest-timeout is
    # actually present to enforce it.
    if not config.pluginmanager.hasplugin("timeout"):
        return
    for item in items:
        if item.get_closest_marker("timeout") is None:
            item.add_marker(pytest.mark.timeout(DEFAULT_TEST_TIMEOUT))


@pytest.fixture(params=["threaded", "prefork"])
def front_end(request, tmp_path):
    """Each serve front end, live over the same small store: (host, port).

    The prefork pool runs without the L2 cache, so its ``status`` has the
    threaded server's keys exactly.
    """
    from repro.serve import PreforkServer, ServeManager, ServeServer

    from test_persist_readonly import build_store

    build_store(tmp_path / "s").close()
    if request.param == "threaded":
        server = ServeServer(ServeManager(tmp_path / "s")).start()
    else:
        server = PreforkServer(tmp_path / "s", workers=1, shared_cache=False)
        server.start()
    try:
        yield server.address
    finally:
        server.shutdown()


# Figure 1's protein rows: (protein1, protein2, neighborhood, cooccurrence,
# coexpression).  r1 and r5 are two "versions" of the same logical record.
PAPER_ROWS = [
    ("ENSP273047", "ENSP261890", 0, 53, 0),
    ("ENSP273047", "ENSP235932", 0, 87, 0),
    ("ENSP300413", "ENSP274242", 426, 0, 164),
]


@pytest.fixture
def db() -> Database:
    return Database()


@pytest.fixture
def orpheus() -> OrpheusDB:
    return OrpheusDB()


@pytest.fixture
def protein_cvd(orpheus):
    """A CVD reproducing Figure 1's four-version history.

    v1 = {r1 r2 r3}; v2 edits r1's coexpression (r1->r4) and adds r5;
    v3 deletes r3 from v1; v4 merges v2 and v3.
    """
    orpheus.init(
        "proteins",
        PROTEIN_COLUMNS,
        rows=PAPER_ROWS,
        primary_key=PROTEIN_PRIMARY_KEY,
    )
    orpheus.checkout("proteins", 1, table_name="w2")
    orpheus.db.execute(
        "UPDATE w2 SET coexpression = 83 "
        "WHERE protein1 = 'ENSP273047' AND protein2 = 'ENSP261890'"
    )
    orpheus.db.execute(
        "INSERT INTO w2 VALUES (NULL, 'ENSP309334', 'ENSP346022', 0, 227, 975)"
    )
    orpheus.commit("w2", message="rescore + discover")
    orpheus.checkout("proteins", 1, table_name="w3")
    orpheus.db.execute("DELETE FROM w3 WHERE protein1 = 'ENSP300413'")
    orpheus.commit("w3", message="prune")
    orpheus.checkout("proteins", [2, 3], table_name="w4")
    orpheus.commit("w4", message="merge")
    return orpheus.cvd("proteins")


@pytest.fixture(scope="session")
def sci_tiny():
    return dataset("SCI_TINY").generate()


@pytest.fixture(scope="session")
def cur_tiny():
    return dataset("CUR_TINY").generate()


@pytest.fixture
def sci_cvd(sci_tiny):
    db = Database()
    return load_workload(db, "sci", sci_tiny)


@pytest.fixture
def cur_cvd(cur_tiny):
    db = Database()
    return load_workload(db, "cur", cur_tiny)
