"""``repro-advisor``: strategy recommendation from the command line.

Feed it your database/workload parameters and a view structure, get
the paper's cost comparison and a recommendation::

    repro-advisor --model 1 --n-tuples 250000 -f 0.05 --fv 0.5 -P 0.1
    repro-advisor --model 2 --sweep-p      # winner across P
    repro-advisor --model 3 --breakdown    # component-level costs
    repro-advisor --json                   # machine-readable output
"""

from __future__ import annotations

import argparse
import json
import sys

from .advisor import evaluate, recommend
from .model1 import whole_system_total
from .parameters import PAPER_DEFAULTS, ParameterError, Parameters
from .strategies import ViewModel

__all__ = ["main", "build_parameters"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-advisor",
        description="Pick the cheapest view materialization strategy "
        "(query modification vs immediate vs deferred) using Hanson's "
        "SIGMOD 1987 cost model.",
    )
    parser.add_argument("--model", type=int, choices=(1, 2, 3), default=1,
                        help="view structure: 1=select-project, 2=two-way join, "
                        "3=aggregate (default 1)")
    parser.add_argument("--n-tuples", type=int, default=PAPER_DEFAULTS.N,
                        metavar="N", help="tuples in the base relation")
    parser.add_argument("--tuple-bytes", type=int, default=PAPER_DEFAULTS.S,
                        metavar="S", help="bytes per tuple")
    parser.add_argument("--block-bytes", type=int, default=PAPER_DEFAULTS.B,
                        metavar="B", help="bytes per disk block")
    parser.add_argument("-f", "--selectivity", type=float, default=PAPER_DEFAULTS.f,
                        help="view predicate selectivity f")
    parser.add_argument("--fv", type=float, default=PAPER_DEFAULTS.f_v,
                        help="fraction of the view each query reads")
    parser.add_argument("--fr2", type=float, default=PAPER_DEFAULTS.f_r2,
                        help="inner relation size as a fraction of the outer (Model 2)")
    parser.add_argument("-P", "--update-probability", type=float, default=None,
                        help="fraction of operations that are updates "
                        "(overrides -k/-q)")
    parser.add_argument("-k", "--updates", type=float, default=PAPER_DEFAULTS.k,
                        help="update transactions")
    parser.add_argument("-q", "--queries", type=float, default=PAPER_DEFAULTS.q,
                        help="view queries")
    parser.add_argument("-l", "--tuples-per-txn", type=float, default=PAPER_DEFAULTS.l,
                        help="tuples modified per transaction")
    parser.add_argument("--io-ms", type=float, default=PAPER_DEFAULTS.c2,
                        help="cost of one disk I/O in ms (C2)")
    parser.add_argument("--screen-ms", type=float, default=PAPER_DEFAULTS.c1,
                        help="cost of one predicate screen in ms (C1)")
    parser.add_argument("--adset-ms", type=float, default=PAPER_DEFAULTS.c3,
                        help="per-tuple A/D set maintenance cost in ms (C3)")
    parser.add_argument("--breakdown", action="store_true",
                        help="print component-level costs for every strategy")
    parser.add_argument("--sweep-p", action="store_true",
                        help="print the winner across update probabilities")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    return parser


def build_parameters(args: argparse.Namespace) -> Parameters:
    """Translate CLI flags into a validated parameter set."""
    params = Parameters(
        N=args.n_tuples,
        S=args.tuple_bytes,
        B=args.block_bytes,
        k=args.updates,
        l=args.tuples_per_txn,
        q=args.queries,
        f=args.selectivity,
        f_v=args.fv,
        f_r2=args.fr2,
        c1=args.screen_ms,
        c2=args.io_ms,
        c3=args.adset_ms,
    )
    if args.update_probability is not None:
        params = params.with_update_probability(args.update_probability)
    return params


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        params = build_parameters(args)
    except ParameterError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    model = ViewModel(args.model)

    if args.sweep_p:
        points = []
        for percent in range(5, 100, 5):
            p = percent / 100
            rec = recommend(params.with_update_probability(p), model)
            points.append((p, rec))
        if args.json:
            print(json.dumps({
                "model": args.model,
                "sweep": [
                    {"P": p, "recommended": rec.strategy.value,
                     "total_ms": rec.best.total}
                    for p, rec in points
                ],
            }, indent=2))
            return 0
        print(f"Winner vs update probability (Model {args.model}):")
        for p, rec in points:
            print(f"  P = {p:4.2f}  {rec.strategy.label:<12} "
                  f"{rec.best.total:12.1f} ms/query")
        return 0

    rec = recommend(params, model)
    if args.json:
        print(json.dumps(rec.to_dict(), indent=2))
        return 0
    print(rec.describe())
    if args.breakdown:
        print()
        for breakdown in evaluate(params, model).values():
            print(breakdown.describe())
            whole = whole_system_total(params, breakdown)
            print(f"  {'whole system':<16} {whole:10.2f} ms  (total + C_base)")
            print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
