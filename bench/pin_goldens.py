"""Regenerate bench/goldens.json: the SHA-256 digest of every output of
every pool member of every workload.

Run it only when a change alters the program's output bytes on purpose,
and say so in the change's notes:

    python3 bench/pin_goldens.py [workload ...]

Workloads not named keep their current digests.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run
from tracer import EventCounter
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    names = argv or sorted(WORKLOADS)
    sys.path.insert(0, str(run.SRC))
    goldens = json.loads(run.GOLDENS.read_text()) if run.GOLDENS.exists() else {}
    workdir = run.OUT / f"pin-{os.getpid()}"
    try:
        for name in names:
            workload = WORKLOADS[name]
            ops = workload.ops(list(workload.pool), workdir)
            with EventCounter().installed() as counter:
                result = run.run_pass(ops, {}, counter, workdir)
            errors = [f for f in result.failures if "digest mismatch" not in f]
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
            goldens[name] = dict(sorted(result.digests.items()))
            print(f"{name}: {len(result.digests)} digests in {result.wall_s:.1f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
