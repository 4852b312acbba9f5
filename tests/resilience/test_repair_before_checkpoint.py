"""Repairs run before the cadence checkpoint, and the tick waits for them.

Regression: a deferred fold that trips on a damaged base leaf leaves
the engine half-folded (base partly folded, AD still full) with WAL
recovery queued.  A cadence checkpoint taken *then* snapshots that
engine and truncates the very log recovery needs, after which the
"recovered" server answers wrong and unlabelled.
"""

from collections import Counter

import pytest

from repro.core.strategies import Strategy
from repro.durability.manager import DurabilityManager
from repro.engine.transaction import Transaction, Update
from repro.resilience.degradation import DegradedResult
from repro.resilience.faults import fault_profile
from repro.resilience.policy import ResilienceConfig
from repro.service.traffic import demo_server


def build(resilience=None):
    return demo_server(
        n_tuples=400, domain=200, view_bound=60, strategy=Strategy.DEFERRED,
        adaptive=False, fault_profile=fault_profile("none"),
        resilience=resilience,
    )


def updates(demo):
    """Two 5-op transactions moving tuples in and out of the view."""
    for batch in range(2):
        yield Transaction.of(demo.relation, [
            Update(key, {"a": (key * 7 + batch) % demo.domain, "v": key + batch})
            for key in range(batch * 5, batch * 5 + 5)
        ])


def damage_upper_base_leaves(db):
    db.pool.flush_all()
    pages = db.storage_disk.file_pages("r.leaf")
    for page_id in pages[len(pages) // 2:]:
        assert db.storage_disk.corrupt(page_id) is not None
    db.pool.invalidate_all()


@pytest.fixture
def manager(tmp_path):
    """The state dir's durability manager, closed at teardown."""
    manager = DurabilityManager(tmp_path / "state")
    yield manager
    manager.close()


def unwrap(answer):
    answer = answer.unwrap() if isinstance(answer, DegradedResult) else answer
    return Counter(answer) if isinstance(answer, list) else answer


def test_cadence_checkpoint_waits_for_queued_recovery(manager, monkeypatch):
    demo = build(ResilienceConfig())
    twin = build()
    server = demo.server
    server.attach_durability(manager, checkpoint_every=3)
    server.checkpoint()
    for txn in updates(demo):
        server.apply_update(txn)
    for txn in updates(twin):
        twin.server.apply_update(txn)
    damage_upper_base_leaves(server.database)

    # Every snapshot from here on must be of a healthy engine (here
    # recovery is pending exactly while the two views are degraded).
    unhealthy_snapshots = []
    take = manager.checkpoint

    def checked(database, state=None):
        if server.degraded_views():
            unhealthy_snapshots.append(manager.checkpoints_taken)
        return take(database, state)

    monkeypatch.setattr(manager, "checkpoint", checked)
    taken = manager.checkpoints_taken

    # Third request since the checkpoint: the fold faults halfway, the
    # answer is a labelled fallback, recovery is queued *and* the
    # cadence checkpoint is due.
    first = server.query("v_total")
    assert isinstance(first, DegradedResult) and first.mode == "qm_fallback"
    assert unwrap(first) == unwrap(twin.server.query("v_total"))
    assert server.metrics.counter("fault_recoveries_total", trigger="repair").value == 1
    assert server.degraded_views() == {}
    # Recovery ran first; the tick then snapshotted the recovered engine.
    assert manager.checkpoints_taken == taken + 1

    for name in ("v_tuples", "v_total", "v_tuples"):
        answer = server.query(name)
        assert not isinstance(answer, DegradedResult)
        assert unwrap(answer) == unwrap(twin.server.query(name)), name
    assert manager.checkpoints_taken == taken + 2
    assert unhealthy_snapshots == []


def test_cadence_tick_is_deferred_while_a_view_is_degraded(manager):
    demo = build(ResilienceConfig(repair=False))
    server = demo.server
    server.attach_durability(manager, checkpoint_every=2)
    server.checkpoint()
    db = server.database
    db.pool.flush_all()
    db.storage_disk.corrupt(db.storage_disk.file_pages("view.v_tuples.leaf")[0])
    db.pool.invalidate_all()
    taken = manager.checkpoints_taken
    for _ in range(5):
        assert isinstance(server.query("v_tuples"), DegradedResult)
    assert server.degraded_views()
    assert manager.checkpoints_taken == taken  # counter kept, nothing published
    server.resilience = ResilienceConfig(repair=True)
    server.repair()
    assert server.degraded_views() == {}
    server.query("v_tuples")
    assert manager.checkpoints_taken == taken + 1  # the deferred tick fires
