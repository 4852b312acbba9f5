"""The ``main`` of an experiment that is also an acceptance gate.

``ext-failover``, ``ext-gateway``, ``ext-resilience`` and
``ext-durability`` each run standalone in CI (``python -m
repro.experiments.<name> [--json PATH]``); what differs between them is
their arguments, run, table and bar, and the rest is here.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable

from .series import TableData

__all__ = ["acceptance_main", "fmt_ms"]


def fmt_ms(value: float | None) -> str:
    """A table cell for a latency in milliseconds (``-`` when undefined)."""
    return f"{value:.0f}" if value is not None else "-"


def acceptance_main(
    argv: list[str] | None,
    description: str,
    add_args: Callable[[argparse.ArgumentParser], None],
    run: Callable[..., Any],
    table: Callable[[Any], TableData],
    to_doc: Callable[[Any], dict[str, Any]],
    check: Callable[[Any], list[str]] | None = None,
) -> int:
    """Parse, run, print the table, judge, report; returns the exit code.

    ``run`` is called with the parsed arguments as keywords (name the
    ``dest`` after its parameter) and its result feeds ``table``,
    ``check`` and ``to_doc``.  One ``ACCEPTANCE VIOLATION:`` line per
    missed bar goes to stderr and the exit code is 1 if there is any;
    ``--json`` writes the table (under the experiment id the table
    carries), the verdicts when there is a bar, and ``to_doc``'s keys.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write table, verdicts and runs as JSON")
    add_args(parser)
    options = vars(parser.parse_args(argv))
    json_path = options.pop("json")

    result = run(**options)
    rendered = table(result)
    print(rendered.render())
    violations = check(result) if check is not None else []
    for violation in violations:
        print(f"ACCEPTANCE VIOLATION: {violation}", file=sys.stderr)
    if json_path:
        doc = {
            "experiment": rendered.table_id,
            "title": rendered.title,
            "columns": list(rendered.columns),
            "rows": [list(row) for row in rendered.rows],
            "notes": rendered.notes,
        }
        if check is not None:
            doc["acceptance_violations"] = violations
        doc.update(to_doc(result))
        Path(json_path).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {json_path}")
    return 1 if violations else 0
