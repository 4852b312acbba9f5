"""``repro-gateway``: serve the network front door and drive load at it.

Two subcommands::

    repro-gateway serve --listen 127.0.0.1:7411            # demo ViewServer
    repro-gateway serve --shards 4 --pacing 2e-4           # sharded backend
    repro-gateway serve --shards 2 --replicas 1            # replicated shards
    repro-gateway serve --static deferred --state-dir st   # pinned, journaled
    repro-gateway serve --global-rate 60 --max-queue 16    # tuned admission

    repro-gateway load --connect 127.0.0.1:7411 --rate 120 --duration 2
    repro-gateway load --connect ... --closed 4            # saturation probe
    repro-gateway load --connect ... --json burst.json     # CI artifact

``load`` exits nonzero when any admitted answer violated its validator
(wrong result) or the gateway's ingress queue exceeded its cap — the
two conditions CI's ``gateway-overload-smoke`` job gates on.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Callable

from repro.cluster.harness import add_stack_args, stack_from_args
from repro.cluster.router import ClusterRouter
from repro.service.spec import demo_spec
from repro.workload.clients import (
    OpenLoopConfig,
    demo_request_factory,
    run_closed_loop,
    run_open_loop,
)
from .admission import AdmissionConfig
from .client import GatewayCallError, call_once
from .protocol import GATEWAY_PROTOCOL
from .server import (
    Backend,
    ClusterBackend,
    GatewayConfig,
    GatewayHandle,
    ViewServerBackend,
)

__all__ = ["main", "parse_listen", "serve_until_interrupted", "wait_for_gateway"]


def parse_listen(text: str) -> tuple[str, int]:
    """Parse ``host:port`` (port 0 asks the OS to pick)."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected host:port, got {text!r}")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(f"bad port in {text!r}") from exc
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} out of range")
    return host, port


def serve_until_interrupted(
    backend: Backend,
    host: str,
    port: int,
    config: GatewayConfig | None = None,
    duration: float | None = None,
) -> int:
    """Run a gateway over ``backend`` until ^C (or for ``duration`` s)."""
    handle = GatewayHandle.launch(backend, config, host=host, port=port)
    print(
        f"gateway listening on {handle.host}:{handle.port} "
        f"(protocol {GATEWAY_PROTOCOL}, "
        f"views: {', '.join(backend.views())})"
    )
    try:
        if duration is not None:
            time.sleep(duration)
        else:
            while True:  # pragma: no cover - interactive serving
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive serving
        pass
    finally:
        handle.stop()
    return 0


def wait_for_gateway(host: str, port: int, timeout: float = 10.0) -> bool:
    """Poll ``ping`` until a gateway of this protocol answers.

    The spawn-order helper, and the tag check: a peer of another
    protocol version never counts as up, so no answer of its form is
    ever parsed.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            reply = asyncio.run(call_once(host, port, {"op": "ping"}))
            if reply.ok and reply.result.get("protocol") == GATEWAY_PROTOCOL:
                return True
        except (GatewayCallError, ConnectionError, OSError):
            pass
        time.sleep(0.2)
    return False


def _admission_from_args(args: argparse.Namespace) -> AdmissionConfig:
    return AdmissionConfig(
        global_rate=args.global_rate,
        global_burst=args.global_burst,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
        client_concurrency=args.client_concurrency,
        max_queue=args.max_queue,
        default_deadline_ms=args.default_deadline_ms,
    )


def _add_admission_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("admission control")
    group.add_argument("--global-rate", type=float, default=None, metavar="RPS",
                       help="global token-bucket rate (default: unlimited)")
    group.add_argument("--global-burst", type=int, default=64)
    group.add_argument("--client-rate", type=float, default=None, metavar="RPS",
                       help="per-client token-bucket rate (default: unlimited)")
    group.add_argument("--client-burst", type=int, default=16)
    group.add_argument("--client-concurrency", type=int, default=32,
                       metavar="N", help="per-client in-flight cap")
    group.add_argument("--max-queue", type=int, default=64,
                       help="bounded ingress queue cap (default 64)")
    group.add_argument("--default-deadline-ms", type=float, default=None,
                       metavar="MS",
                       help="deadline budget for requests that name none")
    group.add_argument("--workers", type=int, default=4,
                       help="threads executing admitted requests (default 4)")


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        host, port = parse_listen(args.listen)
    except ValueError as exc:
        print(f"invalid --listen: {exc}", file=sys.stderr)
        return 2
    config = GatewayConfig(
        admission=_admission_from_args(args), workers=args.workers
    )
    try:
        stack = stack_from_args(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    close: Callable[[], None]
    if isinstance(stack, ClusterRouter):
        backend: Backend = ClusterBackend(stack)
        close = stack.close
    else:
        backend = ViewServerBackend(stack.server)
        close = stack.server.shutdown
    try:
        return serve_until_interrupted(
            backend, host, port, config=config, duration=args.duration,
        )
    finally:
        close()


def _cmd_load(args: argparse.Namespace) -> int:
    try:
        host, port = parse_listen(args.connect)
    except ValueError as exc:
        print(f"invalid --connect: {exc}", file=sys.stderr)
        return 2
    if not wait_for_gateway(host, port, timeout=args.connect_timeout):
        print(f"no {GATEWAY_PROTOCOL} gateway answered at {host}:{port} "
              f"within {args.connect_timeout:.0f}s", file=sys.stderr)
        return 2
    # Updating a key that is not live is refused, so the generated
    # key range must match the serve side's record count: the same demo
    # spec, hence the same defaults, describes both sides.
    factory = demo_request_factory(
        demo_spec(n_records=args.records, serving=args.target == "demo")
    )

    if args.closed is not None:
        report = run_closed_loop(
            host, port, factory, concurrency=args.closed,
            duration_s=args.duration, deadline_ms=args.deadline_ms,
            seed=args.seed,
        )
    else:
        report = run_open_loop(
            host, port,
            OpenLoopConfig(
                rate=args.rate, duration_s=args.duration,
                deadline_ms=args.deadline_ms, n_clients=args.clients,
                zipf_s=args.zipf_s, seed=args.seed,
            ),
            factory,
        )

    doc = report.to_dict()
    failures: list[str] = []
    if report.wrong:
        failures.append(
            f"{len(report.wrong)} wrong results, e.g. {report.wrong[0]}"
        )
    queue = (report.server_stats or {}).get("queue", {})
    if queue and queue["peak"] > queue["cap"]:
        failures.append(
            f"queue peaked at {queue['peak']} above cap {queue['cap']}"
        )
    doc["failures"] = failures

    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")

    mode = (f"closed x{args.closed}" if args.closed is not None
            else f"open @ {args.rate:.0f} rps")
    print(f"load [{mode}]: offered {report.offered} in "
          f"{doc['duration_s']}s -> goodput {doc['goodput_rps']} rps, "
          f"{report.ok} ok, {report.rejected} rejected, "
          f"{len(report.wrong)} wrong")
    for outcome in sorted(report.outcomes):
        summary = doc["outcomes"][outcome]
        # Every listed outcome completed at least once: its percentiles exist.
        print(f"  {outcome:<22} n={summary['count']:<6} "
              f"p50={summary['p50_ms']:7.1f}ms "
              f"p95={summary['p95_ms']:7.1f}ms p99={summary['p99_ms']:7.1f}ms")
    if queue:
        print(f"  queue: peak {queue['peak']} / cap {queue['cap']}, "
              f"{queue['rejected']} rejected at the door")
    for failure in failures:
        print(f"FAILURE: {failure}", file=sys.stderr)
    if args.json:
        print(f"wrote {args.json}")
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gateway",
        description="Network front door for the materialized-view stack: "
        "admission-controlled serving and open-loop load generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="serve a demo backend behind the gateway")
    serve.add_argument("--listen", default="127.0.0.1:7411", metavar="HOST:PORT")
    serve.add_argument("--duration", type=float, default=None, metavar="S",
                       help="serve for S seconds then exit (default: until ^C)")
    add_stack_args(serve)
    _add_admission_args(serve)
    serve.set_defaults(func=_cmd_serve)

    load = sub.add_parser("load", help="drive open- or closed-loop load")
    load.add_argument("--connect", default="127.0.0.1:7411", metavar="HOST:PORT")
    load.add_argument("--target", choices=("demo", "cluster"), default="demo",
                      help="request mix matching the serve-side backend")
    load.add_argument("--records", type=int, default=None,
                      help="key range for generated updates — must match the "
                      "serve side's record count (default: the target's "
                      "serve default, 2000 for demo, 480 for cluster)")
    load.add_argument("--rate", type=float, default=100.0, metavar="RPS",
                      help="open-loop offered load (default 100)")
    load.add_argument("--duration", type=float, default=2.0, metavar="S")
    load.add_argument("--deadline-ms", type=float, default=600.0, metavar="MS")
    load.add_argument("--clients", type=int, default=20,
                      help="Zipf client population size (default 20)")
    load.add_argument("--zipf-s", type=float, default=1.1)
    load.add_argument("--closed", type=int, default=None, metavar="N",
                      help="closed-loop with N workers instead of open-loop")
    load.add_argument("--seed", type=int, default=17)
    load.add_argument("--connect-timeout", type=float, default=10.0)
    load.add_argument("--json", metavar="PATH", default=None,
                      help="write the latency/rejection summary as JSON")
    load.set_defaults(func=_cmd_load)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
