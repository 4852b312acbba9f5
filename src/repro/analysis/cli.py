"""``repro-lint`` — the invariant lint suite and lock-order detector.

Static mode (the default) lints ``src/repro`` with the project rule
catalog, prints findings, and exits non-zero when any finding is *new*
relative to the committed baseline (``lint-baseline.json``, empty after
the PR-9 sweep — the baseline exists so an emergency merge can park a
finding without losing it).  ``--lock-order`` instead drives a live
multi-threaded serving harness under the dynamic lock-order recorder
and exits non-zero if the recorded acquisition graph has a cycle.

Exit codes: 0 clean, 1 findings (or a cycle), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from .framework import (
    Finding,
    diff_against_baseline,
    findings_to_doc,
    lint_paths,
    load_baseline,
)
from .lockorder import format_cycle, recording
from .rules import default_rules

__all__ = ["main", "run_lock_order_harness"]


def _repo_default_paths() -> list[Path]:
    """``src/repro`` relative to cwd, else the installed package dir."""
    candidate = Path("src") / "repro"
    if candidate.is_dir():
        return [candidate]
    return [Path(__file__).resolve().parent.parent]


def run_lock_order_harness(
    operations: int = 240,
    threads: int = 4,
    seed: int = 7,
) -> dict[str, Any]:
    """Drive the serving stack's lock hierarchy and record the order graph.

    A small :func:`~repro.service.traffic.demo_server` takes concurrent
    mixed query/update traffic on ``threads`` threads while a fourth
    path exercises the world write lock (checkpoint-style refresh), so
    the recorded graph covers world → striped → per-view ordering —
    the full hierarchy ``LockManager.acquire`` must keep acyclic.
    """
    from repro.service.traffic import (
        PhaseSpec,
        demo_server,
        drifting_traffic,
        run_traffic,
    )

    demo = demo_server(n_tuples=400, seed=seed)
    phases = (PhaseSpec(update_probability=0.3, operations=operations,
                        batch_size=4),)
    requests = drifting_traffic(demo, phases, seed=seed)
    with recording() as recorder:
        run_traffic(
            demo.server, [requests[i::threads] for i in range(threads)],
            threads=threads,
        )
        demo.server.refresh_all_stale()
        report = recorder.report()
    report["harness"] = {
        "operations": operations, "threads": threads, "seed": seed,
    }
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST invariant lints and lock-order deadlock detection",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--rules", help="comma-separated rule subset (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog",
    )
    parser.add_argument(
        "--json", type=Path, metavar="FILE",
        help="write the findings (or lock-order) report as JSON",
    )
    parser.add_argument(
        "--baseline", type=Path, default=Path("lint-baseline.json"),
        help="committed findings baseline to diff against "
             "(default: lint-baseline.json; ignored if missing)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline with the current findings and exit 0",
    )
    parser.add_argument(
        "--lock-order", action="store_true",
        help="run the dynamic lock-order harness instead of linting",
    )
    parser.add_argument(
        "--operations", type=int, default=240,
        help="lock-order harness: total operations (default 240)",
    )
    parser.add_argument(
        "--threads", type=int, default=4,
        help="lock-order harness: worker threads (default 4)",
    )
    parser.add_argument(
        "--seed", type=int, default=7,
        help="lock-order harness: workload seed (default 7)",
    )
    return parser


def _run_lock_order(args: argparse.Namespace) -> int:
    report = run_lock_order_harness(
        operations=args.operations, threads=args.threads, seed=args.seed
    )
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"lock-order: {report['acquisitions']} acquisitions, "
        f"{len(report['locks'])} locks, {len(report['edges'])} edges, "
        f"{len(report['cycles'])} cycle(s)"
    )
    if report["cycles"]:
        from .lockorder import Edge

        for cycle_doc in report["cycles"]:
            edges = [
                Edge(
                    source=str(doc["source"]), target=str(doc["target"]),
                    count=int(doc["count"]),
                    source_stack=list(doc["source_stack"]),
                    target_stack=list(doc["target_stack"]),
                )
                for doc in cycle_doc
            ]
            print(format_cycle(edges))
        return 1
    print("lock-order graph is acyclic")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        rule_names = (
            [name.strip() for name in args.rules.split(",") if name.strip()]
            if args.rules else None
        )
        rules = default_rules(rule_names)
    except ValueError as exc:
        parser.error(str(exc))

    if args.list_rules:
        for rule in rules:
            print(f"{rule.name}: {rule.description}")
        return 0

    if args.lock_order:
        return _run_lock_order(args)

    paths = args.paths or _repo_default_paths()
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        parser.error(f"no such path(s): {', '.join(missing)}")
    findings, pragmas = lint_paths(paths, rules)

    if args.write_baseline:
        doc = findings_to_doc(findings, pragmas, rules)
        args.baseline.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"baseline written: {len(findings)} finding(s) "
              f"-> {args.baseline}")
        return 0

    baseline: list[Finding] = []
    if args.baseline.exists():
        baseline = load_baseline(args.baseline)
    new, known = diff_against_baseline(findings, baseline)

    doc = findings_to_doc(findings, pragmas, rules)
    doc["baseline"] = {
        "path": str(args.baseline) if args.baseline.exists() else None,
        "known": len(known),
        "new": len(new),
    }
    if args.json is not None:
        args.json.write_text(json.dumps(doc, indent=2) + "\n")

    for finding in findings:
        marker = "" if finding in new else " [baselined]"
        print(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.rule}: {finding.message}{marker}"
        )
    for pragma in pragmas:
        print(
            f"{pragma.path}:{pragma.line}: note: pragma suppressed "
            f"{pragma.rule}"
        )
    print(
        f"repro-lint: {len(findings)} finding(s) "
        f"({len(new)} new, {len(known)} baselined), "
        f"{len(pragmas)} pragma suppression(s)"
    )
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
