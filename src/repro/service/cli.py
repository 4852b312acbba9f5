"""``repro-serve``: drive the view server from the command line.

Replays a drifting-``P`` workload against the two-view demo server and
reports what it cost — with the adaptive router on (default) or pinned
to one static strategy::

    repro-serve                                  # adaptive, default drift
    repro-serve --static deferred                # a static baseline
    repro-serve --phases 0.15:70:3,0.9:70:8      # P:ops[:l] per phase
    repro-serve --json                           # metrics export (schema v1)
    repro-serve --dashboard                      # ASCII metrics dashboard
    repro-serve --state-dir st --checkpoint-every 50   # journaled + recoverable
    repro-serve --fault-profile mixed --degraded-reads # chaos + resilience
"""

from __future__ import annotations

import argparse
import sys

from repro.cluster.harness import add_stack_args, stack_from_args
from .server import DEGRADABLE_ERRORS
from .traffic import PhaseSpec, ServiceDemo, drifting_traffic, run_traffic

__all__ = ["main", "parse_phases"]

DEFAULT_PHASES = "0.15:70:3,0.9:70:8"


def parse_phases(text: str) -> tuple[PhaseSpec, ...]:
    """Parse ``P:ops[:l]`` comma-separated phase specs."""
    phases = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"bad phase {chunk!r}: expected P:operations[:batch_size]"
            )
        p = float(parts[0])
        ops = int(parts[1])
        batch = int(parts[2]) if len(parts) == 3 else 5
        phases.append(PhaseSpec(operations=ops, update_probability=p, batch_size=batch))
    if not phases:
        raise ValueError("at least one phase is required")
    return tuple(phases)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve a drifting update/query workload over materialized "
        "views, with adaptive strategy routing (Hanson, SIGMOD 1987).",
    )
    parser.add_argument("--phases", default=DEFAULT_PHASES,
                        help="comma-separated P:operations[:batch] phases "
                        f"(default {DEFAULT_PHASES!r})")
    parser.add_argument("--json", action="store_true",
                        help="print the metrics JSON export instead of the summary")
    parser.add_argument("--dashboard", action="store_true",
                        help="print the ASCII metrics dashboard after the summary")
    add_stack_args(parser, "server")
    # The traffic below is seeded from the data seed, and the default
    # drift phases are short: decide sooner than the router's own cadence.
    parser.set_defaults(seed=7, decision_every=20)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        phases = parse_phases(args.phases)
    except ValueError as exc:
        print(f"invalid phases: {exc}", file=sys.stderr)
        return 2
    try:
        demo = stack_from_args(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    assert isinstance(demo, ServiceDemo)
    adaptive = args.static is None
    profile = demo.database.fault_profile

    requests = drifting_traffic(demo, phases, seed=args.seed + 1)
    try:
        summary = run_traffic(demo.server, requests)
    except DEGRADABLE_ERRORS as exc:
        # Base-relation or AD damage is beyond local repair; only a
        # WAL-backed run can recover from it.
        print(f"unrecoverable storage damage: {exc}", file=sys.stderr)
        if args.state_dir is None:
            print("hint: rerun with --state-dir DIR to arm checkpoint+WAL "
                  "recovery", file=sys.stderr)
        try:
            demo.server.shutdown()
        except DEGRADABLE_ERRORS:
            pass  # the WAL is sealed regardless; recovery replays it
        return 1
    manager = demo.server.durability
    # Unconditional graceful stop: with durability armed this takes the
    # final checkpoint and seals the WAL; without it the call is an
    # idempotent no-op — scripts can always pair a serve with a
    # shutdown without tracking whether --state-dir was given.
    demo.server.shutdown()

    total_ms = demo.database.meter.milliseconds(demo.server.params)
    per_query = total_ms / summary.queries if summary.queries else 0.0

    if args.json:
        print(demo.server.metrics_json())
        return 0

    mode = "adaptive" if adaptive else f"static {args.static}"
    print(f"served {summary.operations} requests "
          f"({summary.queries} queries, {summary.updates} updates) [{mode}]")
    print(f"total modelled cost {total_ms:.0f} ms, {per_query:.1f} ms/query")
    router = demo.server.router
    if router is not None:
        if router.switches:
            for sw in router.switches:
                print(f"  switch: {sw.view} {sw.from_strategy.label} -> "
                      f"{sw.to_strategy.label} at op {sw.at_operation} "
                      f"(P~{sw.estimated_p:.2f}, advantage {sw.relative_advantage:.0%})")
        else:
            print("  no strategy switches")
    for view in demo.view_names:
        report = demo.server.staleness(view)
        print(f"  {view}: strategy={demo.server.strategy_of(view).label}, "
              f"pending AD entries={report.pending_ad_entries}")
    if profile is not None:
        faults = demo.database.faults
        injected = dict(faults.injected) if faults is not None else {}
        mix = ", ".join(f"{k}={v}" for k, v in injected.items() if v) or "none"
        print(f"  faults[{profile.name}]: injected {mix}; "
              f"{summary.degraded} degraded answers, "
              f"{len(demo.server.degraded_views())} views still degraded")
    if args.state_dir is not None:
        assert manager is not None
        print(f"  durability: {manager.checkpoints_taken} checkpoints, "
              f"{manager.wal.records_appended} WAL records, "
              f"{manager.wal.fsyncs} fsyncs -> {args.state_dir}")
    if args.dashboard:
        print()
        print(demo.server.dashboard())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
