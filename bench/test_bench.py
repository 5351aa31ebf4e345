"""The benchmark's own checks.  Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import EventCounter, Tracer
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))

GOLDENS = json.loads(run.GOLDENS.read_text())
REPEATING = ("calls", "rows", "changed", "hops", "events", "trials", "observations")


def oracle_ops(workdir: Path):
    """Two walk-bound points and the 50-agent reference table of pool
    member 0: every oracle layer in well under a second."""
    ops = WORKLOADS["oracles"].ops([0], workdir)
    return ops[:2] + [op for op in ops if op.name.endswith("/sa50")]


def churn_ops(workdir: Path):
    return WORKLOADS["churn-n250"].ops([2, 1], workdir)


def traced_counts(ops, goldens, workdir: Path):
    tracer = Tracer()
    with tracer.installed():
        result = run.run_pass(ops, goldens, tracer, workdir)
    assert result.failures == []
    assert tracer.leftover() == []
    return {
        name: value
        for name, value in tracer.layer_metrics().items()
        if name.split(".")[-1] in REPEATING or name.startswith("sim.events")
    }


def test_pinned_outputs_pass(tmp_path):
    with EventCounter().installed() as counter:
        result = run.run_pass(oracle_ops(tmp_path), GOLDENS["oracles"], counter, tmp_path)
    assert result.failures == []
    assert result.attempted == 3


def test_tampered_golden_is_a_failure_and_the_run_goes_on(tmp_path):
    ops = oracle_ops(tmp_path)
    tampered = dict(GOLDENS["oracles"])
    tampered[ops[0].expected[0]] = "0" * 64
    with EventCounter().installed() as counter:
        result = run.run_pass(ops, tampered, counter, tmp_path)
    assert result.attempted == 3
    assert len(result.failures) == 1
    assert result.failures[0].startswith(f"{ops[0].name}: digest mismatch")


def test_missing_output_is_a_failure(tmp_path):
    ops = churn_ops(tmp_path)
    goldens = dict(GOLDENS["churn-n250"])
    op = ops[0]
    broken = type(op)(op.name, op.run, op.outputs, op.expected + ("n250-seed99.jsonl",))
    with EventCounter().installed() as counter:
        result = run.run_pass([broken], goldens, counter, tmp_path)
    assert len(result.failures) == 1 and "n250-seed99.jsonl" in result.failures[0]


@pytest.mark.parametrize("workload", ["churn-n250", "oracles"])
def test_traced_counts_repeat_exactly(tmp_path, workload):
    make = churn_ops if workload == "churn-n250" else oracle_ops
    goldens = GOLDENS[workload]
    first = traced_counts(make(tmp_path), goldens, tmp_path)
    second = traced_counts(make(tmp_path), goldens, tmp_path)
    assert first == second
    assert any(first.values())


def test_wrappers_are_removed_even_when_the_traced_code_raises():
    from stegrouter import cli, sim
    from stegrouter.router import StegRouter

    before = (StegRouter.process_update, sim.EventKernel.run_until, sim.run, cli.run, cli.main)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert StegRouter.process_update is not before[0]
            raise RuntimeError("boom")
    assert tracer.missing == []
    assert tracer.leftover() == []
    assert (StegRouter.process_update, sim.EventKernel.run_until, sim.run, cli.run, cli.main) == before


def test_exits_nonzero_without_a_result_when_the_source_is_missing(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
