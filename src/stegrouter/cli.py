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
import dataclasses
import io
import math
import os
import statistics
import sys
from pathlib import Path
from typing import Mapping, Optional, Sequence

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
    sim.add_argument("--workers", type=_positive_int, default=1, help="parallel worker processes")

    ent = sub.add_parser("entropy", help="evaluate sender-anonymity entropy over a grid")
    ent.add_argument("--n", required=True, help="population sizes, e.g. '10000' or '100,1000'")
    ent.add_argument("--colluders", required=True, help="colluder counts: '100', '0..5000:100'")
    ent.add_argument("--pf", required=True, help="forwarding probabilities, e.g. '0.5,0.75'")
    ent.add_argument(
        "--attack", choices=("adaptive", "static", "both"), default="both",
        help="adversary model(s) to evaluate",
    )
    ent.add_argument("--oracle", type=_positive_int, default=None, metavar="TRIALS",
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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


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
    except ConfigError as exc:
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
    return Path(os.environ.get(OUTPUT_DIR_ENV) or "runs")


def _write_output(path: str, text: str) -> None:
    """Write `text` to stdout for `-`; otherwise write it to `path`
    atomically and print the path."""
    if path == "-":
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)
        print(path)


# -- simulate -------------------------------------------------------------------


def _run_one(payload: tuple[SimConfig, str]) -> tuple[int, dict]:
    config, jsonl_path = payload
    report = run(config)
    write_run_jsonl(report, jsonl_path)
    return config.seed, summary_row(report)


def _cmd_simulate(args: argparse.Namespace) -> int:
    base = _resolve_config(args)
    seeds = _parse_int_grid(args.seeds, "seed")
    seen: set[int] = set()
    for seed in seeds:
        if seed in seen:
            raise ConfigError(f"seed {seed} appears more than once in --seeds {args.seeds!r}")
        seen.add(seed)
    label = args.preset or (Path(args.config).stem if args.config else "run")
    out_dir = _output_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs = [
        (dataclasses.replace(base, seed=seed), str(out_dir / f"{label}-seed{seed}.jsonl"))
        for seed in seeds
    ]

    if args.workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

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
    # anonymity (and with it numpy) is imported here, not at module level,
    # so that `simulate` runs on the standard library alone
    from .anonymity import (
        AdversaryScenario,
        AttackKind,
        InvalidScenarioError,
        evaluate_scenarios,
        write_entropy_csv,
    )

    ns = _parse_int_grid(args.n, "population")
    cs = _parse_int_grid(args.colluders, "colluder")
    pfs = _parse_float_grid(args.pf, "p_f")
    kinds = list(AttackKind) if args.attack == "both" else [AttackKind(args.attack)]
    try:
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
    except InvalidScenarioError as exc:
        raise ConfigError(str(exc)) from None
    buf = io.StringIO()
    write_entropy_csv(rows, buf)
    _write_output(args.output, buf.getvalue())
    return EXIT_OK


# -- report -----------------------------------------------------------------------

_SCENARIO_KEY = ("n_agents", "sa_fraction", "p_f", "migration_rate")
# The per-run values `report` aggregates; an empty cell means "not reached".
_VALUE_COLUMNS = ("convergence_time_min", "undiscovered_fraction", "mean_overhead_bps")

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


def _number(path: Path, row: dict, column: str) -> float:
    try:
        value = float(row[column])
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{path}: seed {row['seed']}: column {column} holds "
                          f"{row[column]!r}, not a finite number")
    return value


def _read_scenarios(input_dir: str) -> dict[tuple, tuple[dict, list]]:
    """Scenario values -> (its cells as first read, files in name order;
    per run, the value columns, None for an empty cell), from every
    summary CSV under `input_dir`, each row read once."""
    directory = Path(input_dir)
    if not directory.is_dir():
        raise ConfigError(f"not a directory: {input_dir}")
    scenarios: dict[tuple, tuple[dict, list]] = {}
    # (scenario, seed) -> the file its run was first read from
    sources: dict[tuple, Path] = {}
    for path in sorted(directory.glob("*.csv")):
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or not set(SUMMARY_CSV_COLUMNS) <= set(reader.fieldnames):
                continue
            for row in reader:
                key = tuple(_number(path, row, c) for c in _SCENARIO_KEY)
                values = tuple(
                    None if row[c] == "" else _number(path, row, c) for c in _VALUE_COLUMNS
                )
                run = key + (_number(path, row, "seed"),)
                cells, runs = scenarios.setdefault(key, ({c: row[c] for c in _SCENARIO_KEY}, []))
                if run in sources:
                    scenario = ", ".join(f"{k}={v}" for k, v in cells.items())
                    raise ConfigError(
                        f"seed {row['seed']} of scenario {scenario} appears in both "
                        f"{sources[run]} and {path}; each run must be counted once"
                    )
                sources[run] = path
                runs.append(values)
    if not scenarios:
        raise ConfigError(f"no summary rows found under {input_dir}")
    return scenarios


def _incomplete_beta(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b) for 0 < x < 1,
    from its continued fraction evaluated by the modified Lentz method
    (Numerical Recipes, 3rd ed., section 6.4).  The fraction converges
    fast for x < (a + 1) / (a + b + 2); above that, I_x(a, b) is
    1 - I_{1-x}(b, a)."""
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _incomplete_beta(1.0 - x, b, a)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    ) / a
    c = 1.0
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10_000):
        # the even and the odd step of the fraction
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / (1.0 + num * d)
            c = 1.0 + num / c
            h *= d * c
        if abs(d * c - 1.0) <= sys.float_info.epsilon:
            break
    return front * h


def _student_t_975(df: int) -> float:
    """Student's t quantile t(0.975, df): the t whose upper tail
    0.5 * I_x(df/2, 1/2), x = df / (df + t^2), is 0.025, found by
    bisection to float resolution.  It is below 13 for every df >= 1
    (12.7062 at df = 1)."""
    lo, hi = 0.0, 13.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if 0.5 * _incomplete_beta(df / (df + mid * mid), 0.5 * df, 0.5) > 0.025:
            lo = mid
        else:
            hi = mid


def _mean_ci_quantiles(values: Sequence[float]) -> tuple[float, float, float, float, float, bool]:
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, mean, mean, mean, mean, True
    sem = statistics.stdev(values) / math.sqrt(len(values))
    half = _student_t_975(len(values) - 1) * sem
    q25, _, q75 = statistics.quantiles(values, n=4, method="inclusive")
    return mean, mean - half, mean + half, q25, q75, False


def _cmd_report(args: argparse.Namespace) -> int:
    scenarios = _read_scenarios(args.input_dir)
    out_rows = []
    for key in sorted(scenarios):
        cells, runs = scenarios[key]
        conv, undisc, overhead = ([v for v in column if v is not None] for column in zip(*runs))
        record = {**cells, "runs": len(runs), "converged": len(conv)}
        if conv:
            *stats, degenerate = _mean_ci_quantiles(conv)
            for name, value in zip(("mean", "ci95_low", "ci95_high", "q25", "q75"), stats):
                record[f"convergence_time_min_{name}"] = f"{value:.6g}"
            record["ci_degenerate"] = str(degenerate).lower()
        if undisc:
            record["undiscovered_fraction_mean"] = f"{statistics.fmean(undisc):.6g}"
        if overhead:
            record["mean_overhead_bps"] = f"{statistics.fmean(overhead):.6g}"
        out_rows.append(record)

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=REPORT_CSV_COLUMNS, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(out_rows)
    _write_output(args.output, buf.getvalue())
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
