"""Deterministic storage fault injection over the simulated disk.

:class:`FaultyDisk` subclasses :class:`~repro.storage.pager.SimulatedDisk`
and injects four fault classes, each rolled from one seeded RNG so a
given (profile, seed, operation sequence) always produces the same
faults:

* **transient read errors** — the read attempt raises
  :class:`TransientReadError`; the page itself is fine and a retry can
  succeed.
* **transient write errors** — the write attempt raises
  :class:`TransientWriteError` without persisting anything.
* **torn writes** — the write "succeeds" (charged, acknowledged) but
  persists only a prefix of the page while the checksum records the
  full intended image; the damage surfaces on a later verified read.
* **bit-flips (at-rest rot)** — a page image is corrupted in place on
  the read path, again without touching the checksum.

Faults start *disarmed* so schema bootstrap and bulk loads run clean;
callers :meth:`~FaultyDisk.arm` the disk once the interesting workload
begins (``demo_server`` does this right after its setup phase).

Named :class:`FaultProfile` presets (``transient``, ``torn``,
``bitrot``, ``mixed``) back the ``repro-serve --fault-profile`` flag
and the chaos-experiment matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.storage.pager import (
    CostMeter,
    Page,
    PageId,
    SimulatedDisk,
    TransientIOError,
)

__all__ = [
    "FaultProfile",
    "FaultRates",
    "FaultyDisk",
    "TransientIOError",
    "TransientReadError",
    "TransientWriteError",
    "fault_profile",
    "profile_names",
]

FAULT_KINDS = ("read_error", "write_error", "torn_write", "bit_flip")


class TransientReadError(TransientIOError):
    """A page read failed transiently."""

    def __init__(self, page_id: PageId) -> None:
        super().__init__(page_id, "read")


class TransientWriteError(TransientIOError):
    """A page write failed transiently (nothing was persisted)."""

    def __init__(self, page_id: PageId) -> None:
        super().__init__(page_id, "write")


@dataclass(frozen=True)
class FaultRates:
    """Per-operation injection probabilities, one per fault class."""

    read_error: float = 0.0
    write_error: float = 0.0
    torn_write: float = 0.0
    bit_flip: float = 0.0


@dataclass(frozen=True)
class FaultProfile:
    """A named, seeded fault mix, optionally scoped to file prefixes.

    ``files`` is a tuple of file-name prefixes; when non-empty, only
    operations on matching files can fault (lets a profile target, say,
    materialized-view files while leaving the base relation clean).
    """

    name: str
    seed: int = 1234
    rates: FaultRates = field(default_factory=FaultRates)
    files: tuple[str, ...] = ()

    def rate_for(self, kind: str, file: str) -> float:
        """Injection probability for one fault class on one file."""
        if self.files and not any(file.startswith(prefix) for prefix in self.files):
            return 0.0
        return getattr(self.rates, kind)

    def with_seed(self, seed: int) -> "FaultProfile":
        """The same mix under a different RNG seed."""
        return replace(self, seed=seed)


#: Named presets for ``--fault-profile`` and the chaos matrix.  Rates
#: are tuned so retries absorb almost every transient fault while the
#: persistent classes (torn/bitrot) reliably exercise degradation and
#: repair within a few hundred operations.
_PRESETS: dict[str, FaultProfile] = {
    "none": FaultProfile(name="none"),
    "transient": FaultProfile(
        name="transient",
        rates=FaultRates(read_error=0.05, write_error=0.02),
    ),
    "torn": FaultProfile(
        name="torn",
        rates=FaultRates(torn_write=0.03, read_error=0.01),
    ),
    "bitrot": FaultProfile(
        name="bitrot",
        rates=FaultRates(bit_flip=0.01),
        files=("view.", "agg."),
    ),
    "mixed": FaultProfile(
        name="mixed",
        rates=FaultRates(
            read_error=0.03, write_error=0.01, torn_write=0.01, bit_flip=0.005
        ),
        files=("view.", "agg."),
    ),
}


def profile_names() -> list[str]:
    """Names accepted by :func:`fault_profile` (CLI choices)."""
    return sorted(_PRESETS)


def fault_profile(name: str, seed: int | None = None) -> FaultProfile:
    """Look up a preset profile, optionally re-seeded."""
    try:
        profile = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault profile {name!r}; choose from {profile_names()}"
        ) from None
    return profile if seed is None else profile.with_seed(seed)


class FaultyDisk(SimulatedDisk):
    """A :class:`SimulatedDisk` that injects seeded faults per operation.

    Determinism contract: the fault sequence is a pure function of the
    profile's seed and the order of read/write calls, so a failing run
    replays exactly under the same workload seed.
    """

    def __init__(
        self, meter: CostMeter | None = None, profile: FaultProfile | None = None
    ) -> None:
        super().__init__(meter)
        self.profile = profile if profile is not None else fault_profile("none")
        self._rng = random.Random(self.profile.seed)
        self.armed = False
        #: Count of injected faults per kind (for metrics / experiments).
        self.injected: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    def arm(self) -> None:
        """Start injecting faults (call after clean bootstrap)."""
        self.armed = True

    def disarm(self) -> None:
        """Stop injecting faults; the disk behaves like the clean base."""
        self.armed = False

    @property
    def injected_total(self) -> int:
        """Total faults injected across every kind."""
        return sum(self.injected.values())

    def _roll(self, kind: str, file: str) -> bool:
        if not self.armed:
            return False
        rate = self.profile.rate_for(kind, file)
        return rate > 0.0 and self._rng.random() < rate

    def read(self, page_id: PageId) -> Page:
        """Read with fault injection: possible rot, then possible error."""
        if self._roll("bit_flip", page_id.file):
            if self.corrupt(page_id) is not None:
                self.injected["bit_flip"] += 1
        if self._roll("read_error", page_id.file):
            self.injected["read_error"] += 1
            # The failed attempt still spins the disk: charge the read.
            self.meter.record_read()
            raise TransientReadError(page_id)
        return super().read(page_id)

    def write(self, page: Page) -> None:
        """Write with fault injection: transient failure or torn write."""
        page_id = page.page_id
        if self._roll("write_error", page_id.file):
            self.injected["write_error"] += 1
            raise TransientWriteError(page_id)
        if self._roll("torn_write", page_id.file):
            if page_id not in self._pages:
                raise KeyError(f"cannot write unallocated page: {page_id}")
            self.injected["torn_write"] += 1
            self.meter.record_write()
            torn = page.clone()
            if torn.records:
                torn.keep_range(0, len(torn.records) // 2)
            else:
                torn.next_page = PageId(page_id.file, page_id.number + 1_000_003)
            self._pages[page_id] = torn
            # The page header records the *intended* image — exactly
            # how a torn sector is caught later.
            self._checksums.record(page)
            return
        super().write(page)
