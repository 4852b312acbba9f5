"""Command line of the end-to-end benchmark, and its process hygiene.

One invocation with ``--workload`` is one run in the form the builder's
contract fixes: it starts a child process in its own session, lets it
measure for ``--seconds``, stops whatever is left of that session, and
prints one JSON object as the last line of standard output.  Without
``--workload`` it does that for all four workloads and prints every
metric by name.  ``--check-repeat`` and ``--self-test`` are the
benchmark's checks of itself (see README.md).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from .gen import SHAPES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = list(SHAPES)

#: A run must end within the contract's 180 s; the child gets less so
#: the parent still has time to stop the session and report.
CHILD_TIMEOUT_S = 170.0
#: Untraced repetitions a run makes at the least, whatever ``--seconds``.
MIN_REPETITIONS = 3

#: Metrics that must repeat bit for bit between two runs of one seed on
#: the workloads with a single client thread (``gateway_point`` has two
#: clients whose interleaving decides who pays a shared page read).
EXACT = frozenset({
    "modelled_ms_per_op",
    "cluster.rpc_bytes_per_op", "cluster.legs_per_query",
    "cluster.moves_per_update", "service.refresh_epochs",
    "concurrency.lock_acquisitions_per_op", "engine.page_reads_per_op",
    "engine.page_writes_per_op", "engine.screens_per_op",
    "engine.ad_ops_per_op", "maintenance.refreshes_per_query",
    "maintenance.net_reads", "maintenance.net_computes",
    "maintenance.screen_pass_share", "hr.net_tuples_per_refresh",
    "hr.ad_entries_peak", "views.tuples_per_query",
    "storage.pool_hit_share", "storage.pool_misses_per_op",
    "durability.fsyncs", "durability.wal_bytes_per_update",
    "durability.checkpoints", "durability.checkpoint_bytes",
})
CONCURRENT_WORKLOADS = frozenset({"gateway_point"})


class Leak(RuntimeError):
    """A process of a finished run's session was still alive."""


# ----------------------------------------------------------------------
# the child: measure one workload in this process
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    from .clock import kernel_seconds, time_scale
    from .gen import make_inputs
    from .systems import best_seconds, run_repetition, summarise
    from .trace import Tracer

    inputs = make_inputs(args.workload, args.seed, args.scale)
    plain, traced = [], []
    kernel_s: list[float] = []
    tracer = None
    deadline = time.perf_counter() + args.seconds
    while True:
        # A traced run alternates plain and traced repetitions, so both
        # sides of the overhead ratio see the same slow machine drift.
        trace_this = bool(args.trace) and len(plain) > len(traced)
        tracer = Tracer() if trace_this else None
        began = time.perf_counter()
        kernel_s += kernel_seconds()
        rep = run_repetition(args.workload, inputs, args.workdir, tracer, args.fail_at)
        (traced if trace_this else plain).append(rep)
        took = time.perf_counter() - began
        done = len(traced) >= 1 if args.trace else len(plain) >= MIN_REPETITIONS
        if done and time.perf_counter() + took > deadline:
            break

    reps = plain + traced
    scale = time_scale(kernel_s)
    result: dict[str, Any] = {
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(len(rep.failures) for rep in reps),
        "failures": [why for rep in reps for why in rep.failures][:20],
        "repetitions": len(reps),
        "time_scale": scale,
    }
    if args.trace:
        metrics = {name: statistics.median(rep.layers[name] for rep in traced)
                   for name in traced[0].layers}
        for metric in declared(1):
            if metric["unit"] in ("us", "ms", "s") and metric["name"] in metrics:
                metrics[metric["name"]] *= scale
        metrics["trace.overhead_share"] = (
            best_seconds([rep.chunk_wall_s for rep in traced])
            / best_seconds([rep.chunk_wall_s for rep in plain]) - 1.0)
        result["budget"] = {
            layer: statistics.median(rep.budget.get(layer, 0.0) for rep in traced)
            for layer in traced[0].budget}
        if args.out and tracer is not None:
            tracer.write(args.out)
    else:
        metrics = summarise(plain, inputs, scale)
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# the parent: start the child, stop its session, report
# ----------------------------------------------------------------------
def _session_members(sid: int) -> list[int]:
    """Pids of live (non-zombie) processes in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we were looking
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry))
    return members


def _stop_session(proc: subprocess.Popen) -> list[int]:
    """SIGTERM, then SIGKILL, the child's process group; who survived."""
    for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
        if not _session_members(proc.pid):
            break
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            pass
        until = time.monotonic() + grace
        while _session_members(proc.pid) and time.monotonic() < until:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=0.05)
                except subprocess.TimeoutExpired:
                    pass
            else:
                time.sleep(0.05)
    if proc.poll() is None:
        proc.wait()
    return _session_members(proc.pid)


def run_child(args: argparse.Namespace, workload: str, trace: int) -> dict[str, Any]:
    """One run of one workload in a child session; its parsed result.

    Raises :class:`Leak` if any process of the session outlived it, and
    ``RuntimeError`` if the child failed; either way the session is
    stopped and the run's scratch directory removed first.
    """
    work_root = Path(args.work_root)
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    command = [
        sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--scale", str(args.scale), "--workdir", workdir,
    ]
    if args.fail_at is not None:
        command += ["--fail-at", str(args.fail_at)]
    if args.out and trace:
        command += ["--out", f"{args.out}.{workload}.jsonl"]
    # PYTHONHASHSEED pins set order in the program, so page contents
    # and therefore modelled costs repeat exactly across processes.
    # TMPDIR keeps anything the program's libraries put in a temporary
    # directory inside the run's own, which is removed below.
    env = {**os.environ, "PYTHONHASHSEED": "0", "TMPDIR": workdir}
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, env=env, cwd=ROOT)
    stdout = ""
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        survivors = _stop_session(proc)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()  # only once the last run's directory is gone
        except OSError:
            pass
    if survivors:
        raise Leak(f"{workload}: processes {survivors} outlived the run")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


@functools.cache
def _benchmark_json() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(trace: int) -> list[dict[str, Any]]:
    """The metrics ``BENCHMARK.json`` declares for that kind of run."""
    return _benchmark_json()["per_layer" if trace else "end_to_end"]


def contract_line(result: dict[str, Any], trace: int) -> dict[str, Any]:
    """The child's result in exactly the keys the contract names."""
    names = [metric["name"] for metric in declared(trace)]
    if sorted(names) != sorted(result["metrics"]):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(result['metrics']))}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric["name"]: {"value": result["metrics"][metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in declared(trace)},
    }


def _explain(workload: str, result: dict[str, Any]) -> None:
    """Human-readable detail on stderr; stdout stays the contract's."""
    print(f"{workload}: {result['repetitions']} repetitions; times are on the "
          f"reference clock, measured seconds x {result['time_scale']:.3f}",
          file=sys.stderr)
    for why in result["failures"]:
        print(f"  FAILED {why}", file=sys.stderr)
    budget = result.get("budget")
    if budget:
        total = sum(budget.values())
        top = sorted(budget.items(), key=lambda item: -item[1])[:4]
        print("  self time by layer: " + ", ".join(
            f"{layer} {seconds / total:.0%}" for layer, seconds in top),
            file=sys.stderr)


def run_one(args: argparse.Namespace) -> int:
    result = run_child(args, args.workload, args.trace)
    _explain(args.workload, result)
    line = contract_line(result, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _print_table(title: str, rows: dict[str, dict[str, Any]], trace: int) -> None:
    print(f"\n{title}")
    print(f"{'metric':38s} {'unit':8s}" + "".join(f"{w:>22s}" for w in rows))
    for metric in declared(trace):
        name = metric["name"]
        print(f"{name:38s} {metric['unit']:8s}" + "".join(
            f"{rows[w]['metrics'][name]['value']:22.6g}" for w in rows))


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then (with ``--trace 1``) traced."""
    correct = True
    for trace in range(2 if args.trace else 1):
        rows = {}
        for workload in WORKLOADS:
            result = run_child(args, workload, trace)
            _explain(workload, result)
            rows[workload] = contract_line(result, trace)
            correct = correct and rows[workload]["correct"]
        _print_table("per-layer metrics (traced)" if trace else
                     "end-to-end metrics (untraced)", rows, trace)
        print("failed / attempted: " + ", ".join(
            f"{w} {r['failed']}/{r['attempted']}" for w, r in rows.items()))
    print(json.dumps({"correct": correct}))
    return 0 if correct else 1


def check_repeat(args: argparse.Namespace) -> int:
    """Two full sets of one seed: gaps within bounds, exact ones equal."""
    sets: list[dict[tuple[str, int], dict[str, Any]]] = [{}, {}]
    for results in sets:
        # Workloads interleave (w1 w2 w3 w4, then again): the sandbox's
        # noise is slow drift, which back-to-back runs of one workload
        # would mistake for a difference between the sets.
        for trace in (0, 1):
            for workload in WORKLOADS:
                results[workload, trace] = contract_line(
                    run_child(args, workload, trace), trace)
    bad = 0
    print(f"{'workload':22s} {'metric':38s} {'first':>14s} {'second':>14s} {'gap':>8s}")
    for (workload, trace), first in sets[0].items():
        second = sets[1][workload, trace]
        bad += (not first["correct"]) + (not second["correct"])
        for metric in declared(trace):
            name = metric["name"]
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            gap = abs(b - a) / abs(a) if a else float(b != a)
            verdict = ""
            if name in EXACT and workload not in CONCURRENT_WORKLOADS:
                verdict = "" if a == b else "  NOT EXACT"
            elif "bound" in metric and gap > metric["bound"]:
                verdict = f"  OVER {metric['bound']:.0%}"
            bad += bool(verdict)
            if not trace or verdict:
                print(f"{workload:22s} {name:38s} {a:14.6g} {b:14.6g} "
                      f"{gap:8.2%}{verdict}")
    print(json.dumps({"repeatable": bad == 0}))
    return 0 if bad == 0 else 1


def self_test(args: argparse.Namespace) -> int:
    """Tiny runs, an injected failure and a SIGTERM: nothing may leak."""
    args.scale, args.seconds = 0.05, 0
    args.work_root = tempfile.mkdtemp(prefix="selftest-", dir=ROOT)

    def leftovers() -> list[str]:
        found = []
        for entry in os.listdir("/proc"):
            if entry.isdigit() and int(entry) != os.getpid():
                try:
                    cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
                except OSError:
                    continue
                if args.work_root.encode() in cmdline:
                    found.append(f"pid {entry}")
        if os.path.isdir(args.work_root):
            found += [f"dir {name}" for name in os.listdir(args.work_root)]
        return found

    def require(holds: bool, otherwise: str) -> None:
        if not holds:
            raise RuntimeError(f"self-test: {otherwise}")

    try:
        for workload in WORKLOADS:
            for trace in (0, 1):
                line = contract_line(run_child(args, workload, trace), trace)
                require(line["correct"], f"{workload} answered wrongly at tiny scale")
        args.fail_at = 30
        try:
            run_child(args, "cluster_scatter", 0)
        except Leak:
            raise
        except RuntimeError:
            pass  # the child died of the injected failure, as it should
        else:
            require(False, "the injected failure did not fail the run")
        require(not leftovers(), f"after an injected failure: {leftovers()}")
        args.fail_at = None

        # SIGTERM to a whole command while its workers are serving.
        os.makedirs(args.work_root, exist_ok=True)
        victim = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", "cluster_scatter",
             "--seconds", "20", "--work-root", args.work_root],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=ROOT)
        until = time.monotonic() + 10.0
        while not os.listdir(args.work_root) and time.monotonic() < until:
            time.sleep(0.05)
        time.sleep(1.0)
        victim.send_signal(signal.SIGTERM)
        code = victim.wait(timeout=20.0)
        require(code != 0, "a terminated run reported success")
        require(not leftovers(), f"after SIGTERM: {leftovers()}")
    finally:
        shutil.rmtree(args.work_root, ignore_errors=True)
    print(json.dumps({"self_test": "passed"}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float,
                        default=_benchmark_json()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="prefix of the span files a traced run writes")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    # Plumbing between the parent and its child, and for --self-test.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--work-root", default=str(ROOT / ".bench_e2e"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--fail-at", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    def on_signal(signum: int, _frame: Any) -> None:
        raise SystemExit(128 + signum)  # unwinds through run_child's finally

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    if args.self_test:
        return self_test(args)
    if args.check_repeat:
        return check_repeat(args)
    return run_one(args) if args.workload else run_all(args)
