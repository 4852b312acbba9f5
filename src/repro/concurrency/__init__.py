"""Concurrency primitives for the serving layer.

The paper's cost model is single-user, but the ROADMAP's serving layer
is not: many client threads issue interleaved queries and updates
against many views.  This package provides the locking substrate the
server builds its striped reader-writer scheme on:

* :class:`RWLock` — a writer-preference reader-writer lock with
  timeouts, re-entrant write acquisition, and read-acquire-as-no-op
  while the calling thread already holds the write side (so admin
  operations can call read-locked helpers without deadlocking).
* :class:`LockManager` — named on-demand locks acquired in one
  canonical global order (sorted by name), which is what makes the
  server's per-relation/per-view striping deadlock-free.
* :class:`Pacer` — realizes *modelled* milliseconds as wall-clock
  sleeps, so concurrent requests genuinely overlap their modelled I/O
  waits instead of being serialized by Python's GIL.
* :class:`EngineMutex` — the one mutex around the shared buffer pool
  and cost meter; each section's meter delta is priced into the
  running request's :class:`CostBox` and paced outside the mutex.
* :class:`Coalescer` — leader/follower coalescing of one run per key:
  the shared-delta planner's refresh and the cluster's refresh epoch.
"""

from .locks import (
    Coalescer, CostBox, EngineMutex, LockManager, LockTimeout, Pacer, RWLock,
)

__all__ = [
    "Coalescer", "CostBox", "EngineMutex", "LockTimeout", "LockManager",
    "Pacer", "RWLock",
]
