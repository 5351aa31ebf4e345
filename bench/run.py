"""stegrouter benchmark: host time of scenario sweeps and anonymity oracles.

Usage, from the root of a checkout:

    python3 bench/run.py --workload converge-n1000 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing off:
it repeats passes over the seed's panel until another pass would end after
``--seconds`` (always at least one pass), and reports operation times
calibrated for the machine's speed (see calibrate.py).  With ``--trace 1``
it makes the same untraced passes without calibration, then one pass with
every layer wrapped; it reports the per-layer metrics of the traced pass
and the tracing overhead, checks that all passes produced the pinned
outputs and that the wrappers are gone, and writes the spans.

Every operation's outputs are checked against the SHA-256 digests in
``bench/goldens.json``; a mismatch counts as a failed operation and does not
stop the run.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
record, with the environment, goes to ``.perfbench/results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDENS = BENCH / "goldens.json"
SETUP_SAMPLES = 5

sys.path.insert(0, str(BENCH))

from calibrate import Sampler  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402


@dataclass
class PassResult:
    times: list[tuple[float, float]] = field(default_factory=list)  # (start, end) per op
    op_s: list[float] = field(default_factory=list)  # calibrated, see calibrate.py
    trials: list[int] = field(default_factory=list)  # 0 for ops without Monte-Carlo trials
    events: int = 0
    elapsed_s: float = 0.0  # wall clock of the whole pass, output checks included
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def raw_s(self) -> list[float]:
        return [end - start for start, end in self.times]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_op(op: Op, outputs: dict[str, bytes], goldens: dict[str, str]) -> list[str]:
    """Names of the op's outputs that are missing, unexpected or differ
    from their pinned digest."""
    bad = sorted(set(outputs) ^ set(op.expected))
    bad += [
        key for key in op.expected
        if key in outputs and goldens.get(key) != sha256(outputs[key])
    ]
    return bad


def run_op(op: Op, goldens: dict[str, str], result: PassResult) -> None:
    start = time.perf_counter()
    try:
        value = op.run()
    except Exception as exc:  # a failed op is counted, the run goes on
        result.times.append((start, time.perf_counter()))
        result.trials.append(0)
        result.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        return
    result.times.append((start, time.perf_counter()))
    result.trials.append(op.trials(value) if op.trials is not None else 0)
    try:
        outputs = op.outputs(value)
    except OSError as exc:
        result.failures.append(f"{op.name}: outputs unreadable: {exc}")
        return
    result.digests.update((key, sha256(data)) for key, data in outputs.items())
    bad = check_op(op, outputs, goldens)
    if bad:
        result.failures.append(f"{op.name}: digest mismatch: {', '.join(bad)}")


def run_pass(ops: list[Op], goldens: dict[str, str], probe, workdir: Path) -> PassResult:
    """Run every op once, timing each and checking its outputs.  ``probe``
    is an EventCounter or a Tracer; it must already be installed."""
    started = time.perf_counter()
    result = PassResult()
    events_before = probe.events
    for index, op in enumerate(ops):
        if hasattr(probe, "op_id"):
            probe.op_id = index
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        run_op(op, goldens, result)
    result.events = probe.events - events_before
    result.elapsed_s = time.perf_counter() - started
    return result


def measure_setup(workload: Workload, members: list[int]) -> list[float]:
    """Seconds that fresh interpreters spend on the workload's set-up, one
    sample per interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
        "t = time.perf_counter()\n"
        "import workloads\n"
        f"workloads.WORKLOADS[{workload.name!r}].setup({members!r})\n"
        "print(time.perf_counter() - t)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
            text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout))
    return samples


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    in an exported tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pass_time(op_s: list[list[float]]) -> float:
    """Seconds of one pass with each op at its median over the passes, so
    a burst of machine noise that slows one op in one pass does not move
    the result."""
    return sum(statistics.median(times) for times in zip(*op_s))


def end_to_end(passes: list[PassResult], setup: list[float]) -> dict[str, float]:
    op_s = [t for p in passes for t in p.op_s]
    wall_s = pass_time([p.op_s for p in passes])
    # Every pass runs the same inputs, so its work counts are the same.
    trials = passes[0].trials
    if any(trials):
        trial_s = pass_time([[t for t, n in zip(p.op_s, trials) if n] for p in passes])
        work_per_s = sum(trials) / trial_s
    else:
        work_per_s = passes[0].events / wall_s
    return {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup),
        "work_per_s": work_per_s,
        "op_p50_s": statistics.median(op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def select(values: dict[str, float], spec: list[dict]) -> dict[str, dict]:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def measure_passes(ops, goldens, seconds, workdir, sampler=None) -> list[PassResult]:
    """Untraced passes until another would end after ``seconds``; at
    least one.  With a Sampler, the ops' calibrated times are filled in."""
    from tracer import EventCounter

    passes: list[PassResult] = []
    started = time.perf_counter()
    running = sampler.running() if sampler else contextlib.nullcontext()
    with running, EventCounter().installed() as counter:
        while True:
            gc.collect()
            passes.append(run_pass(ops, goldens, counter, workdir))
            typical = statistics.median(p.elapsed_s for p in passes)
            if time.perf_counter() - started + typical > seconds:
                break
    if sampler:
        factor = sampler.factor()
        for p in passes:
            p.op_s = [sampler.net(start, end) * factor for start, end in p.times]
    return passes


def untraced_run(workload, members, ops, goldens, seconds, workdir):
    setup_raw = measure_setup(workload, members)
    sampler = Sampler()
    passes = measure_passes(ops, goldens, seconds, workdir, sampler)
    setup = [s * sampler.factor() for s in setup_raw]
    extra = {"setup_raw_s": setup_raw, "factor": sampler.factor(),
             "calibration": list(zip(sampler.starts, sampler.seconds))}
    return passes, end_to_end(passes, setup), extra


def traced_run(ops, goldens, seconds, workdir, spans_path):
    """The untraced passes of a ``--trace 0`` run, which also warm the
    process up, then one traced pass."""
    from tracer import Tracer

    passes = measure_passes(ops, goldens, seconds, workdir)
    # Per-layer times are raw host seconds, so the overhead is too, and
    # these passes run without calibration samples.
    untraced_s = pass_time([p.raw_s for p in passes])
    tracer = Tracer()
    gc.collect()
    with tracer.installed():
        traced = run_pass(ops, goldens, tracer, workdir)
    failures = []
    if any(traced.digests != p.digests for p in passes):
        failures.append("traced outputs differ from untraced outputs")
    left = tracer.leftover()
    if left:
        failures.append("wrappers left installed: " + ", ".join(left))
    if tracer.missing:
        failures.append("entry points not found: " + ", ".join(tracer.missing))
    tracer.write_spans(spans_path)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = sum(traced.raw_s) - untraced_s
    extra = {
        "untraced_wall_s": untraced_s,
        "traced_wall_s": sum(traced.raw_s),
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "run_failures": failures,
    }
    return passes + [traced], metrics, extra


def print_table(title: str, metrics: dict[str, dict]) -> None:
    print(title)
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        value = m["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {text:>14} {m['unit']}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stegrouter" / "__init__.py").is_file():
        print(f"bench: no stegrouter source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stegrouter

    if Path(stegrouter.__file__).resolve().parent != SRC / "stegrouter":
        print(f"bench: imported stegrouter from {stegrouter.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    goldens = json.loads(GOLDENS.read_text()).get(args.workload, {})

    workload = WORKLOADS[args.workload]
    members = workload.panel(args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops = workload.ops(members, workdir)
    try:
        if args.trace:
            passes, values, extra = traced_run(
                ops, goldens, args.seconds, workdir, OUT / "spans" / f"{tag}.npz"
            )
            metrics = select(values, spec["per_layer"])
        else:
            passes, values, extra = untraced_run(
                workload, members, ops, goldens, args.seconds, workdir
            )
            metrics = select(values, spec["end_to_end"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = len(failures)
    run_failures = extra.pop("run_failures", [])
    correct = failed == 0 and not run_failures
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "panel": members,
        "environment": environment(),
        "passes": [{"op_s": p.op_s, "times": p.times, "events": p.events,
                    "trials": sum(p.trials)} for p in passes],
        "failures": failures + run_failures,
        "failed_ratio": failed / attempted,
        "metrics": metrics,
        **extra,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"{args.workload} seed={args.seed} panel={members} trace={args.trace} "
          f"passes={len(passes)} ops={attempted} failed_ratio={failed / attempted:.4g}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for failure in failures + run_failures:
        print(f"FAILED {failure}")
    if args.trace:
        print(f"tracing overhead: {values['trace.overhead_s']:.3f} s "
              f"(untraced {extra['untraced_wall_s']:.3f} s, traced {extra['traced_wall_s']:.3f} s); "
              f"{extra['spans']} spans in {extra['spans_file']}")
    print_table("metrics:", metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
