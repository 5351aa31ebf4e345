"""The benchmark's workloads.

Each workload owns a pinned pool of inputs.  A run draws its panel, a
fixed-size sample of that pool, from ``--seed``, so the same seed always
gives the same inputs, every input of every run has a pinned golden digest,
and two runs on different seeds share most of their inputs.  The last point
keeps host-time medians steady: eight N=1000 simulation seeds, run one after
another, took between 8.3 s and 12.5 s each.

This module imports only the standard library at the top: ``stegrouter`` is
imported inside ``setup`` and ``ops``, so the set-up probe times the
package import too.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

MC_TRIALS = 1_000_000
CHURN_MIGRATION_RATE = "0.0166667"

# The acceptance suite's 44-point adaptive grid (N in {5, 10, 50}).
ORACLE_GRID = tuple(
    (n, c, p_f)
    for n in (5, 10, 50)
    for c in sorted({0, 1, 2, n // 2})
    for p_f in (0.5, 0.66, 0.75, 0.8)
)
# Bootstrap-bound points at N=10^4, both attacks.
ORACLE_LARGE = tuple(
    (10_000, c, 0.75, attack)
    for c in (100, 1000, 5000)
    for attack in ("adaptive", "static")
)
REFERENCE_TABLE_SIZES = (50, 100)


@dataclass(frozen=True)
class Op:
    """One operation: a seed run, a CLI call or an oracle point.

    ``run`` is the timed call.  ``outputs`` turns its result into named
    output bytes after the clock stops; ``expected`` names the outputs the
    golden file must match; ``trials`` counts Monte-Carlo trials."""

    name: str
    run: Callable[[], Any]
    outputs: Callable[[Any], dict[str, bytes]]
    expected: tuple[str, ...]
    trials: Optional[Callable[[Any], int]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple[int, ...]
    panel_size: int

    def panel(self, seed: int) -> list[int]:
        """The pool members one run uses, in run order."""
        return random.Random(f"{self.name}:{seed}").sample(self.pool, self.panel_size)

    def setup(self, members: Sequence[int]) -> None:
        """What a user pays before the first operation: imports, config
        construction, and Platform construction or scenario building."""
        raise NotImplementedError

    def ops(self, members: Sequence[int], workdir: Path) -> list[Op]:
        raise NotImplementedError


def _read_files(paths: Sequence[Path], _result: Any = None) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in paths}


def _simulate(sim, config, path: Path) -> None:
    sim.write_run_jsonl(sim.run(config), str(path))


class ConvergeN1000(Workload):
    def setup(self, members: Sequence[int]) -> None:
        from stegrouter.sim import Platform, SimConfig

        Platform(SimConfig(n_agents=1000, seed=members[0]))

    def ops(self, members: Sequence[int], workdir: Path) -> list[Op]:
        from stegrouter import sim

        ops = []
        for seed in members:
            path = workdir / f"n1000-seed{seed}.jsonl"
            config = sim.SimConfig(n_agents=1000, seed=seed)
            ops.append(
                Op(
                    name=f"seed{seed}",
                    run=partial(_simulate, sim, config, path),
                    outputs=partial(_read_files, [path]),
                    expected=(path.name,),
                )
            )
        return ops


def _cli_simulate(cli, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"stegrouter simulate exited with code {code}")


def _churn_outputs(seed: int, workdir: Path, _result: Any) -> dict[str, bytes]:
    out = _read_files([workdir / f"n250-seed{seed}.jsonl"])
    header, *rows = (workdir / "n250-summary.csv").read_bytes().splitlines(keepends=True)
    out["n250-summary.csv:header"] = header
    for row in rows:
        out[f"n250-summary.csv:seed{row.split(b',', 1)[0].decode()}"] = row
    return out


class ChurnN250(Workload):
    def setup(self, members: Sequence[int]) -> None:
        import stegrouter.cli  # noqa: F401  (the CLI's import cost is part of set-up)
        from stegrouter.sim import Platform, SimConfig

        Platform(
            SimConfig.from_mapping(
                {"n_agents": "250", "migration_rate": CHURN_MIGRATION_RATE, "seed": members[0]}
            )
        )

    def ops(self, members: Sequence[int], workdir: Path) -> list[Op]:
        """One ``stegrouter simulate`` call per seed, so that each seed
        run is timed on its own."""
        from stegrouter import cli

        ops = []
        for seed in members:
            argv = [
                "simulate", "--preset", "n250",
                "--set", f"migration_rate={CHURN_MIGRATION_RATE}",
                "--seeds", str(seed), "--output-dir", str(workdir),
            ]
            ops.append(
                Op(
                    name=f"simulate-seed{seed}",
                    run=partial(_cli_simulate, cli, argv),
                    outputs=partial(_churn_outputs, seed, workdir),
                    expected=(
                        f"n250-seed{seed}.jsonl",
                        "n250-summary.csv:header",
                        f"n250-summary.csv:seed{seed}",
                    ),
                )
            )
        return ops


def _mc_row(key: str, result) -> dict[str, bytes]:
    report = result.report
    row = [
        report.entropy_bits, report.max_entropy_bits, result.ci_low, result.ci_high,
        result.trials, result.observations, result.observation_rate,
    ]
    return {key: json.dumps(row).encode()}


def _tables_bytes(key: str, tables) -> dict[str, bytes]:
    plain = {str(u): {str(v): list(m) for v, m in row.items()} for u, row in tables.items()}
    return {key: json.dumps(plain, sort_keys=True).encode()}


def _mc(anonymity, scenario, seed: int):
    return anonymity.monte_carlo_entropy(scenario, trials=MC_TRIALS, seed=seed)


def _reference_tables(router, capabilities, profiles):
    return router.reference_tables(capabilities, profiles)


class Oracles(Workload):
    @staticmethod
    def _inputs(member: int):
        from stegrouter.anonymity import AdversaryScenario, AttackKind
        from stegrouter.core import derive_capabilities, method_table

        points = []
        base = member * 1000
        for i, (n, c, p_f) in enumerate(ORACLE_GRID):
            points.append((f"m{member}/grid/n{n}-c{c}-pf{p_f}", AdversaryScenario(n, c, p_f), base + i))
        for j, (n, c, p_f, attack) in enumerate(ORACLE_LARGE):
            scenario = AdversaryScenario(n, c, p_f, AttackKind(attack))
            points.append((f"m{member}/n{n}/c{c}-{attack}", scenario, base + 100 + j))
        panels = []
        for size in REFERENCE_TABLE_SIZES:
            rng = random.Random(f"oracles:{member}:sa{size}")
            caps = {agent: derive_capabilities(rng) for agent in range(size)}
            panels.append((f"m{member}/reference_tables/sa{size}", caps))
        return points, panels, method_table()

    def setup(self, members: Sequence[int]) -> None:
        for member in members:
            self._inputs(member)

    def ops(self, members: Sequence[int], workdir: Path) -> list[Op]:
        from stegrouter import anonymity, router

        ops = []
        for member in members:
            points, panels, profiles = self._inputs(member)
            for key, scenario, seed in points:
                ops.append(
                    Op(
                        name=key,
                        run=partial(_mc, anonymity, scenario, seed),
                        outputs=partial(_mc_row, key),
                        expected=(key,),
                        trials=lambda result: result.trials,
                    )
                )
            for key, caps in panels:
                ops.append(
                    Op(
                        name=key,
                        run=partial(_reference_tables, router, caps, profiles),
                        outputs=partial(_tables_bytes, key),
                        expected=(key,),
                    )
                )
        return ops


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        ConvergeN1000(
            name="converge-n1000",
            pool=(1, 2, 3, 4),
            panel_size=3,
        ),
        ChurnN250(
            name="churn-n250",
            pool=tuple(range(1, 11)),
            panel_size=8,
        ),
        Oracles(
            name="oracles",
            pool=tuple(range(8)),
            panel_size=1,
        ),
    )
}
