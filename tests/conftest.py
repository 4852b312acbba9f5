"""Suite-wide fixtures.

``REPRO_LOCK_ORDER=1`` turns the whole test suite into a lock-order
experiment: a :class:`repro.analysis.lockorder.LockOrderRecorder` is
installed on the RWLock observer hook for the session, and the run
fails at the end if the accumulated acquisition-order graph has a
cycle — a potential ABBA deadlock somewhere in the exercised paths.
Off by default: the observer hook then stays ``None`` and the lock
fast path pays a single pointer check.

Tests that install their own recorder (the ``repro.analysis`` suite)
temporarily displace the session recorder via ``recording()``'s
save/restore, so deliberately seeded cycles in those tests never leak
into the session graph.

``examples/`` goes on ``sys.path`` here, once, so the tests import the
example package ``quel`` under the same name the example scripts do
(``python examples/x.py`` puts ``examples/`` on the path).
"""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "examples"))


@pytest.fixture(scope="session", autouse=True)
def lock_order_session_gate():
    if os.environ.get("REPRO_LOCK_ORDER") != "1":
        yield
        return

    from repro.analysis.lockorder import format_cycle, recording

    with recording(capture_stacks=False) as recorder:
        yield recorder

    cycles = recorder.cycles()
    if cycles:  # pragma: no cover - only on a real ordering regression
        pytest.fail(
            "lock-order graph has cycle(s) across the suite:\n"
            + "\n".join(format_cycle(cycle) for cycle in cycles)
        )
