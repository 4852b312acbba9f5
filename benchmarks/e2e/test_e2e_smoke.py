"""Smoke tests of the end-to-end benchmark itself.

Not in the tier-1 ``testpaths``; run them with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Everything runs at ``--scale 0.05`` (tiny data, tiny streams), so the
numbers mean nothing; what is checked is determinism, the output's
shape, and that no run leaves a process or a directory behind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from benchmarks.e2e import cli
from benchmarks.e2e.gen import make_inputs

RUN = [sys.executable, str(cli.HERE / "run.py")]
ENV = {**os.environ, "PYTHONPATH": str(cli.ROOT / "src")}


def _digest(workload: str, seed: int) -> str:
    inputs = make_inputs(workload, seed, scale=0.05)
    doc = [inputs.records, inputs.inner,
           [[s.ops, s.expected, s.final] for s in inputs.streams]]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _tiny_args(**overrides: object) -> argparse.Namespace:
    base = dict(seed=5, seconds=0, scale=0.05, fail_at=None, out=None,
                work_root=str(cli.ROOT / ".bench_e2e"))
    return argparse.Namespace(**{**base, **overrides})


@pytest.mark.parametrize("workload", cli.WORKLOADS)
def test_same_seed_gives_the_same_inputs_in_any_process(workload):
    here = _digest(workload, 7)
    assert here == _digest(workload, 7)
    # Another process with another hash seed: str/set order must not leak in.
    code = ("from benchmarks.e2e.test_e2e_smoke import _digest; "
            f"print(_digest({workload!r}, 7))")
    there = subprocess.run(
        [sys.executable, "-c", code], cwd=cli.ROOT, text=True, check=True,
        capture_output=True,
        env={**ENV, "PYTHONHASHSEED": "4242",
             "PYTHONPATH": f"{cli.ROOT}:{cli.ROOT / 'src'}"},
    ).stdout.strip()
    assert here == there


@pytest.mark.parametrize("workload", cli.WORKLOADS)
def test_another_seed_gives_other_inputs(workload):
    assert _digest(workload, 7) != _digest(workload, 8)


@pytest.mark.parametrize("workload",
                         sorted(set(cli.WORKLOADS) - cli.CONCURRENT_WORKLOADS))
def test_exact_metrics_repeat_bit_for_bit(workload):
    runs = [cli.run_child(_tiny_args(), workload, trace) for trace in (0, 1, 0, 1)]
    for first, second in (runs[0::2], runs[1::2]):
        assert first["failed"] == second["failed"] == 0
        for name in cli.EXACT & set(first["metrics"]):
            assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("trace", (0, 1))
def test_output_is_the_declared_metrics_and_nothing_else(trace):
    out = subprocess.run(
        RUN + ["--workload", "gateway_point", "--seed", "3", "--seconds", "0",
               "--trace", str(trace), "--scale", "0.05"],
        cwd=cli.ROOT, env=ENV, text=True, check=True, capture_output=True,
    ).stdout
    line = json.loads(out.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 < line["attempted"]
    declared = cli.declared(trace)
    assert list(line["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for source in cli.HERE.glob("*.py"):
        (bare / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((cli.ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "gateway_point",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, capture_output=True)
    assert done.returncode != 0 and done.stdout == ""


def test_self_test_passes_quickly_and_leaves_nothing():
    began = time.monotonic()
    done = subprocess.run(RUN + ["--self-test"], cwd=cli.ROOT, env=ENV,
                          text=True, capture_output=True)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.strip().splitlines()[-1]) == {"self_test": "passed"}
    assert time.monotonic() - began < 30.0
    assert not (cli.ROOT / ".bench_e2e").exists()
