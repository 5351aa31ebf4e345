"""Command-line front end.

Subcommands: `simulate` runs scenario sweeps and writes JSONL reports
plus a summary CSV; `entropy` evaluates the sender-anonymity closed
forms over a parameter grid; `report` aggregates summary CSVs into
mean/CI/quantile tables; `presets` lists bundled scenarios; `validate`
checks a configuration without running it.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 runtime
failure.  Configuration precedence: --set overrides > config file >
preset > built-in defaults.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import io
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
from scipy import stats as scipy_stats

from .anonymity import (
    AdversaryScenario,
    AttackKind,
    InvalidScenarioError,
    evaluate_scenarios,
    write_entropy_csv,
)
from .sim import (
    ConfigError,
    SimConfig,
    run,
    summary_row,
    write_run_jsonl,
    write_summary_csv,
    atomic_write_text,
    SUMMARY_CSV_COLUMNS,
)

OUTPUT_DIR_ENV = "STEGROUTER_OUTPUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


# Bundled scenarios, name -> config overrides.  The family varies only
# the population size; every other knob keeps its built-in default.
PRESETS: dict[str, dict] = {f"n{n}": {"n_agents": n} for n in (250, 500, 1000, 5000, 10000)}


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on usage errors; keep 2 reserved
    # for validation failures and report usage problems as 1.
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="stegrouter", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario over a seed sweep")
    _add_config_args(sim)
    sim.add_argument("--seeds", default="1", help="seed list: '3', '1,2,7', '1..10' or '1..9:2'")
    sim.add_argument("--output-dir", default=None, help=f"output directory (or ${OUTPUT_DIR_ENV})")
    sim.add_argument("--workers", type=int, default=1, help="parallel worker processes")

    ent = sub.add_parser("entropy", help="evaluate sender-anonymity entropy over a grid")
    ent.add_argument("--n", required=True, help="population sizes, e.g. '10000' or '100,1000'")
    ent.add_argument("--colluders", required=True, help="colluder counts: '100', '0..5000:100'")
    ent.add_argument("--pf", required=True, help="forwarding probabilities, e.g. '0.5,0.75'")
    ent.add_argument(
        "--attack", choices=("adaptive", "static", "both"), default="both",
        help="adversary model(s) to evaluate",
    )
    ent.add_argument("--oracle", type=int, default=None, metavar="TRIALS",
                     help="also simulate TRIALS walks per point as an independent check")
    ent.add_argument("--oracle-seed", type=int, default=0)
    ent.add_argument("--output", default="-", help="CSV path, or - for stdout")

    rep = sub.add_parser("report", help="aggregate summary CSVs into scenario tables")
    rep.add_argument("input_dir", help="directory containing summary CSV files")
    rep.add_argument("--output", default="-", help="CSV path, or - for stdout")

    sub.add_parser("presets", help="list bundled scenario presets")

    val = sub.add_parser("validate", help="check a configuration without running")
    _add_config_args(val)
    return parser


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", default=None, help="bundled scenario name")
    parser.add_argument("--config", default=None, help="INI config file path")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override one knob, e.g. p_f=0.9 or timers.hold_time=20",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "entropy":
            return _cmd_entropy(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "presets":
            return _cmd_presets()
        return _cmd_validate(args)
    except (ConfigError, InvalidScenarioError) as exc:
        print(f"stegrouter: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failures map to a distinct code
        print(f"stegrouter: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


# -- configuration assembly ----------------------------------------------------

# Config-file section (and --set prefix) -> the SimConfig field its keys
# fill; None puts the keys at the top level.
_SECTION_KEYS = {"run": None, "timers": "timers", "messages": "sizes"}


def _resolve_config(args: argparse.Namespace) -> SimConfig:
    mapping: dict = {}
    if args.preset is not None:
        overrides = PRESETS.get(args.preset)
        if overrides is None:
            known = ", ".join(sorted(PRESETS))
            raise ConfigError(f"unknown preset {args.preset!r}; available: {known}")
        _merge(mapping, overrides)
    if args.config is not None:
        _merge(mapping, _load_config_file(args.config))
    for item in args.overrides:
        _merge(mapping, _parse_override(item))
    return SimConfig.from_mapping(mapping)


def _merge(base: dict, extra: Mapping) -> None:
    for key, value in extra.items():
        old = base.get(key)
        if isinstance(old, Mapping) and isinstance(value, Mapping):
            base[key] = {**old, **value}
        else:
            base[key] = value


def _load_config_file(path: str) -> dict:
    """Parse the INI config format: [run] scalars, [timers], [messages],
    and optional [method:ID] sections that replace the default carrier
    catalogue wholesale."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    mapping: dict = {}
    methods = []
    for section in parser.sections():
        items = dict(parser.items(section))
        if section in _SECTION_KEYS:
            target = _SECTION_KEYS[section]
            if target is None:
                mapping.update(items)
            else:
                mapping[target] = items
        elif section.startswith("method:"):
            methods.append({"id": section.split(":", 1)[1], **items})
        else:
            raise ConfigError(f"unknown config section [{section}]")
    if methods:
        mapping["methods"] = methods
    return mapping


def _parse_override(item: str) -> dict:
    if "=" not in item:
        raise ConfigError(f"override must look like key=value, got {item!r}")
    key, value = item.split("=", 1)
    key = key.strip()
    value = value.strip()
    if "." in key:
        section, field = key.split(".", 1)
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown override section {section!r}")
        target = _SECTION_KEYS[section]
        return {field: value} if target is None else {target: {field: value}}
    return {key: value}


def _output_dir(args: argparse.Namespace) -> Path:
    if args.output_dir is not None:
        return Path(args.output_dir)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path("runs")


# -- simulate -------------------------------------------------------------------


def _run_one(payload: tuple[dict, str]) -> tuple[int, dict]:
    mapping, jsonl_path = payload
    config = SimConfig.from_mapping(mapping)
    report = run(config)
    write_run_jsonl(report, jsonl_path)
    return config.seed, summary_row(report)


def _cmd_simulate(args: argparse.Namespace) -> int:
    base = _resolve_config(args)
    seeds = _parse_int_grid(args.seeds, "seed")
    label = args.preset or (Path(args.config).stem if args.config else "run")
    out_dir = _output_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs = []
    for seed in seeds:
        mapping = base.to_mapping()
        mapping["seed"] = seed
        jobs.append((mapping, str(out_dir / f"{label}-seed{seed}.jsonl")))

    if args.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_run_one, jobs))
    else:
        results = [_run_one(job) for job in jobs]

    rows = [row for _, row in sorted(results, key=lambda r: r[0])]
    csv_path = out_dir / f"{label}-summary.csv"
    write_summary_csv(rows, str(csv_path))
    for _, path in jobs:
        print(path)
    print(csv_path)
    return EXIT_OK


# -- entropy ---------------------------------------------------------------------


def _parse_int_grid(text: str, label: str) -> list[int]:
    values: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if ".." in part:
                body, _, step_s = part.partition(":")
                lo, hi = body.split("..", 1)
                step = int(step_s) if step_s else 1
                if step <= 0:
                    raise ValueError("step must be positive")
                values.extend(range(int(lo), int(hi) + 1, step))
            else:
                values.append(int(part))
    except ValueError as exc:
        raise ConfigError(f"bad {label} grid {text!r}: {exc}") from None
    if not values:
        raise ConfigError(f"empty {label} grid: {text!r}")
    return values


def _parse_float_grid(text: str, label: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {label} grid {text!r}: {exc}") from None
    if not values:
        raise ConfigError(f"empty {label} grid: {text!r}")
    return values


def _cmd_entropy(args: argparse.Namespace) -> int:
    ns = _parse_int_grid(args.n, "population")
    cs = _parse_int_grid(args.colluders, "colluder")
    pfs = _parse_float_grid(args.pf, "p_f")
    kinds = {
        "adaptive": (AttackKind.ADAPTIVE,),
        "static": (AttackKind.STATIC,),
        "both": (AttackKind.ADAPTIVE, AttackKind.STATIC),
    }[args.attack]
    scenarios = [
        AdversaryScenario(total_agents=n, colluders=c, p_f=pf, attack=kind)
        for n in ns
        for pf in pfs
        for c in cs
        for kind in kinds
    ]
    rows = evaluate_scenarios(
        scenarios, oracle_trials=args.oracle, seed=args.oracle_seed
    )
    if args.output == "-":
        write_entropy_csv(rows, sys.stdout)
    else:
        buf = io.StringIO()
        write_entropy_csv(rows, buf)
        atomic_write_text(args.output, buf.getvalue())
        print(args.output)
    return EXIT_OK


# -- report -----------------------------------------------------------------------

_SCENARIO_KEY = ("n_agents", "sa_fraction", "p_f", "migration_rate")

REPORT_CSV_COLUMNS = (
    "n_agents",
    "sa_fraction",
    "p_f",
    "migration_rate",
    "runs",
    "converged",
    "convergence_time_min_mean",
    "convergence_time_min_ci95_low",
    "convergence_time_min_ci95_high",
    "convergence_time_min_q25",
    "convergence_time_min_q75",
    "undiscovered_fraction_mean",
    "mean_overhead_bps",
    "ci_degenerate",
)


def _read_summary_rows(input_dir: str) -> list[dict]:
    directory = Path(input_dir)
    if not directory.is_dir():
        raise ConfigError(f"not a directory: {input_dir}")
    rows: list[dict] = []
    for path in sorted(directory.glob("*.csv")):
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or not set(SUMMARY_CSV_COLUMNS) <= set(reader.fieldnames):
                continue
            rows.extend(reader)
    if not rows:
        raise ConfigError(f"no summary rows found under {input_dir}")
    return rows


def _mean_ci_quantiles(values: Sequence[float]) -> tuple[float, float, float, float, float, bool]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, mean, mean, mean, mean, True
    sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
    half = float(scipy_stats.t.ppf(0.975, arr.size - 1)) * sem
    q25, q75 = (float(q) for q in np.percentile(arr, [25, 75]))
    return mean, mean - half, mean + half, q25, q75, False


def _cmd_report(args: argparse.Namespace) -> int:
    rows = _read_summary_rows(args.input_dir)
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = tuple(row[k] for k in _SCENARIO_KEY)
        groups.setdefault(key, []).append(row)

    out_rows = []
    for key in sorted(groups, key=lambda k: tuple(float(x) for x in k)):
        members = groups[key]
        conv = [float(r["convergence_time_min"]) for r in members if r["convergence_time_min"]]
        undisc = [float(r["undiscovered_fraction"]) for r in members if r["undiscovered_fraction"]]
        overhead = [float(r["mean_overhead_bps"]) for r in members if r["mean_overhead_bps"]]
        record = dict(zip(_SCENARIO_KEY, key))
        record["runs"] = len(members)
        record["converged"] = len(conv)
        if conv:
            mean, lo, hi, q25, q75, degenerate = _mean_ci_quantiles(conv)
            record.update(
                convergence_time_min_mean=f"{mean:.6g}",
                convergence_time_min_ci95_low=f"{lo:.6g}",
                convergence_time_min_ci95_high=f"{hi:.6g}",
                convergence_time_min_q25=f"{q25:.6g}",
                convergence_time_min_q75=f"{q75:.6g}",
                ci_degenerate=str(degenerate).lower(),
            )
        else:
            record.update(
                convergence_time_min_mean="",
                convergence_time_min_ci95_low="",
                convergence_time_min_ci95_high="",
                convergence_time_min_q25="",
                convergence_time_min_q75="",
                ci_degenerate="",
            )
        record["undiscovered_fraction_mean"] = (
            f"{float(np.mean(undisc)):.6g}" if undisc else ""
        )
        record["mean_overhead_bps"] = (
            f"{float(np.mean(overhead)):.6g}" if overhead else ""
        )
        out_rows.append({k: str(record[k]) for k in REPORT_CSV_COLUMNS})

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=REPORT_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(out_rows)
    if args.output == "-":
        sys.stdout.write(buf.getvalue())
    else:
        atomic_write_text(args.output, buf.getvalue())
        print(args.output)
    return EXIT_OK


# -- presets / validate -------------------------------------------------------------


def _cmd_presets() -> int:
    for name, overrides in PRESETS.items():
        print(f"{name}: " + ", ".join(f"{k}={v}" for k, v in overrides.items()))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    print("configuration ok")
    for key, value in sorted(config.to_mapping().items()):
        if not isinstance(value, (dict, list)):
            print(f"  {key} = {value}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
