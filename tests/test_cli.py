"""Command-line interface tests, driven in-process through main()."""

import ast
import csv
import dataclasses
import hashlib
import json
import math
import random
import re
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import stegrouter
from stegrouter.cli import (
    PRESETS, REPORT_CSV_COLUMNS, _SECTION_KEYS, _load_config_file, _student_t_975, main,
)
from stegrouter.sim import SUMMARY_CSV_COLUMNS, SimConfig, write_summary_csv

from harness import run_in_child


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestPresets:
    def test_listing(self, capsys):
        assert run_cli("presets") == 0
        assert capsys.readouterr().out == "".join(
            f"n{n}: n_agents={n}\n" for n in (250, 500, 1000, 5000, 10000))

    def test_exactly_the_documented_scale_points(self):
        assert [o["n_agents"] for o in PRESETS.values()] == [250, 500, 1000, 5000, 10000]


    def test_unknown_preset_lists_alternatives(self, capsys):
        assert run_cli("validate", "--preset", "n9000") == 2
        err = capsys.readouterr().err
        assert "n9000" in err
        assert "n250" in err


class TestValidate:
    def test_preset_with_override_echo(self, capsys):
        assert run_cli("validate", "--preset", "n250", "--set", "p_f=0.9") == 0
        out = capsys.readouterr().out
        assert "configuration ok" in out
        assert "p_f" in out and "0.9" in out

    def test_rejects_out_of_range_value(self):
        assert run_cli("validate", "--set", "p_f=1.5") == 2

    def test_rejects_unknown_knob(self):
        assert run_cli("validate", "--set", "bogus=1") == 2

    def test_rejects_malformed_override(self):
        assert run_cli("validate", "--set", "p_f") == 2
        assert run_cli("validate", "--set", "timers=5") == 2
        assert run_cli("validate", "--set", "sizes=5") == 2
        assert run_cli("validate", "--set", "timers.hold_time=25", "--set", "timers=5") == 2

    @pytest.mark.parametrize("override", [
        "duration=nan", "duration=inf", "sampling_interval=nan", "discovery_interval=inf",
        "migration_rate=inf", "walk_hop_latency=inf", "timers.hold_time=nan",
        "timers.hello_interval=nan", "timers.update_interval=inf",
    ])
    def test_rejects_non_finite_value(self, override):
        assert run_cli("validate", "--set", override) == 2

    def test_nested_override_sections(self, capsys):
        assert run_cli("validate", "--set", "timers.hold_time=25",
                       "--set", "messages.hello=48") == 0

    def test_config_file_roundtrip(self, tmp_path, capsys):
        ini = tmp_path / "scenario.ini"
        ini.write_text(
            "[run]\n"
            "n_agents = 40\n"
            "duration = 60\n"
            "p_f = 0.66\n"
            "[timers]\n"
            "update_interval = 45\n"
            "[method:text]\n"
            "name = Text\n"
            "bandwidth_bps = 80\n"
            "delay_s = 0\n"
            "occurrence = 1.0\n"
            "preference_rank = 6\n"
        )
        assert run_cli("validate", "--config", str(ini)) == 0
        out = capsys.readouterr().out
        assert "0.66" in out

    def test_unknown_config_section(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[simulation]\nn_agents = 10\n")
        assert run_cli("validate", "--config", str(ini)) == 2

    def test_missing_config_file(self, tmp_path):
        assert run_cli("validate", "--config", str(tmp_path / "absent.ini")) == 2

    def test_output_bytes(self, capsys):
        assert run_cli("validate", "--preset", "n1000", "--set", "timers.hold_time=20",
                       "--set", "p_f=0.8") == 0
        assert capsys.readouterr().out == (
            "configuration ok\n"
            "  discovery_interval = 10.0\n"
            "  duration = 1800.0\n"
            "  hop_limit = 32\n"
            "  migration_rate = 0.0\n"
            "  n_agents = 1000\n"
            "  p_f = 0.8\n"
            "  sa_fraction = 0.1\n"
            "  sampling_interval = 10.0\n"
            "  seed = 1\n"
            "  walk_hop_latency = 0.001\n"
        )

    def test_section_table_names_the_nested_config_fields(self, tmp_path):
        hints = typing.get_type_hints(SimConfig)
        nested = {f.name for f in dataclasses.fields(SimConfig)
                  if dataclasses.is_dataclass(hints[f.name])}
        assert {target for target in _SECTION_KEYS.values() if target} == nested
        ini = tmp_path / "sections.ini"
        ini.write_text("[run]\nseed = 3\n[timers]\nhold_time = 20\n[messages]\nhello = 48\n")
        assert _load_config_file(str(ini)) == {
            "seed": "3", "timers": {"hold_time": "20"}, "sizes": {"hello": "48"}}

    def test_field_names_are_not_section_names(self, tmp_path):
        # sections go by their config-file names only
        ini = tmp_path / "sizes.ini"
        ini.write_text("[sizes]\nhello = 1\n")
        assert run_cli("validate", "--config", str(ini)) == 2
        assert run_cli("validate", "--set", "sizes.hello=1") == 2


class TestUsageErrors:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as info:
            run_cli("simulate", "--bogus")
        assert info.value.code == 1

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as info:
            run_cli()
        assert info.value.code == 1


class TestSimulate:
    def small_args(self, out_dir, *extra):
        return ("simulate", "--set", "n_agents=30", "--set", "duration=60",
                "--output-dir", str(out_dir), *extra)

    def test_seed_sweep_outputs(self, tmp_path, capsys):
        assert run_cli(*self.small_args(tmp_path, "--seeds", "1..3")) == 0
        out = capsys.readouterr().out
        for seed in (1, 2, 3):
            path = tmp_path / f"run-seed{seed}.jsonl"
            assert path.exists()
            assert str(path) in out
        rows = read_csv(tmp_path / "run-summary.csv")
        assert [row["seed"] for row in rows] == ["1", "2", "3"]
        assert tuple(rows[0]) == SUMMARY_CSV_COLUMNS

    def test_jsonl_header_echoes_overrides(self, tmp_path):
        assert run_cli("simulate", "--preset", "n250",
                       "--set", "duration=30", "--set", "n_agents=50",
                       "--seeds", "2", "--output-dir", str(tmp_path)) == 0
        lines = (tmp_path / "n250-seed2.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["config"]["n_agents"] == 50
        assert header["config"]["duration"] == 30.0
        assert header["config"]["seed"] == 2

    def test_comma_seed_list(self, tmp_path):
        assert run_cli(*self.small_args(tmp_path, "--seeds", "2,7")) == 0
        assert (tmp_path / "run-seed2.jsonl").exists()
        assert (tmp_path / "run-seed7.jsonl").exists()

    def test_output_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STEGROUTER_OUTPUT_DIR", str(tmp_path / "env-out"))
        assert run_cli("simulate", "--set", "n_agents=30",
                       "--set", "duration=60", "--seeds", "1") == 0
        assert (tmp_path / "env-out" / "run-seed1.jsonl").exists()

    def test_default_output_dir_is_runs(self, tmp_path, monkeypatch):
        monkeypatch.delenv("STEGROUTER_OUTPUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert run_cli("simulate", "--set", "n_agents=30",
                       "--set", "duration=60", "--seeds", "1") == 0
        assert (tmp_path / "runs" / "run-seed1.jsonl").exists()
        assert (tmp_path / "runs" / "run-summary.csv").exists()

    def test_parallel_workers_match_serial(self, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert run_cli(*self.small_args(serial, "--seeds", "1,2")) == 0
        assert run_cli(*self.small_args(parallel, "--seeds", "1,2",
                                        "--workers", "2")) == 0
        for name in ("run-seed1.jsonl", "run-seed2.jsonl", "run-summary.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_bad_seed_spec(self, tmp_path):
        assert run_cli(*self.small_args(tmp_path, "--seeds", "one")) == 2
        for spec in ("", ",", "5..3", "1..9:0", "1..x"):
            assert run_cli(*self.small_args(tmp_path, "--seeds", spec)) == 2

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_non_positive_workers_is_a_usage_error(self, tmp_path, capsys, workers):
        with pytest.raises(SystemExit) as info:
            run_cli(*self.small_args(tmp_path, "--seeds", "1", "--workers", workers))
        assert info.value.code == 1
        assert "--workers" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("spec, seed", [("1,1", 1), ("1..3,2", 2)])
    def test_duplicate_seed_is_rejected(self, tmp_path, capsys, spec, seed):
        # a repeated seed would run twice and count twice in `report`
        assert run_cli(*self.small_args(tmp_path, "--seeds", spec)) == 2
        assert f"seed {seed} appears more than once" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_stepped_seed_range(self, tmp_path):
        # --seeds takes the same grid syntax as the entropy grids
        assert run_cli(*self.small_args(tmp_path, "--seeds", "1..5:2")) == 0
        rows = read_csv(tmp_path / "run-summary.csv")
        assert [row["seed"] for row in rows] == ["1", "3", "5"]


class TestEntropy:
    # both attacks at N=10^4 over 51 colluder counts and 3 forwarding
    # probabilities: 306 closed-form rows, pinned while numpy was still
    # imported with the closed forms
    GRID = ("entropy", "--n", "10000", "--colluders", "0..5000:100", "--pf", "0.66,0.75,0.8")
    GRID_SHA256 = "d9c8029307a8c1e8c183b2cad8d76d22eedade69e427478cfc82e8e51aec77b6"

    def test_closed_form_grid_is_pinned(self, capsys):
        assert run_cli(*self.GRID) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 + 306
        assert hashlib.sha256(out.encode()).hexdigest() == self.GRID_SHA256

    def test_stdout_grid(self, capsys):
        assert run_cli("entropy", "--n", "100", "--colluders", "10",
                       "--pf", "0.75", "--attack", "adaptive") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("n_agents,colluders,p_f,attack")
        assert len(lines) == 2
        assert lines[1].startswith("100,10,0.75,adaptive,")

    def test_both_attacks_cross_product(self, capsys):
        assert run_cli("entropy", "--n", "100", "--colluders", "0..20:10",
                       "--pf", "0.66,0.75") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # 1 n x 3 c x 2 pf x 2 attacks
        assert len(lines) == 1 + 12

    def test_large_sweep_keeps_static_below_adaptive(self, capsys):
        # full colluder sweep at N=10^4: curve data ordered rowwise
        assert run_cli("entropy", "--n", "10000", "--colluders", "0..5000:100",
                       "--pf", "0.75", "--attack", "both") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 51 * 2
        bits = {}
        for line in lines[1:]:
            cells = line.split(",")
            bits[(int(cells[1]), cells[3])] = float(cells[4])
        for c in range(0, 5001, 100):
            if c == 0:
                assert bits[(0, "static")] <= bits[(0, "adaptive")]
            else:
                assert bits[(c, "static")] < bits[(c, "adaptive")]

    def test_oracle_columns_filled(self, tmp_path, capsys):
        out = tmp_path / "entropy.csv"
        assert run_cli("entropy", "--n", "10", "--colluders", "2", "--pf", "0.75",
                       "--attack", "adaptive", "--oracle", "5000",
                       "--output", str(out)) == 0
        rows = read_csv(out)
        assert rows[0]["mc_trials"] == "5000"
        assert rows[0]["mc_entropy_bits"] != ""

    def test_rows_end_in_newline_only(self, tmp_path, capsys):
        # like `report` and `simulate`: no \r before the \n, on stdout or in a file
        args = ("entropy", "--n", "10", "--colluders", "0..2", "--pf", "0.75")
        assert run_cli(*args) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "entropy.csv"
        assert run_cli(*args, "--output", str(out)) == 0
        written = out.read_bytes()
        assert printed.count("\n") == 1 + 3 * 2
        assert "\r" not in printed
        assert written == printed.encode()

    @pytest.mark.parametrize("trials", ["0", "-5", "many"])
    def test_non_positive_oracle_is_a_usage_error(self, capsys, trials):
        # 0 would silently skip the oracle and -5 fail at run time
        with pytest.raises(SystemExit) as info:
            run_cli("entropy", "--n", "10", "--colluders", "2", "--pf", "0.75",
                    "--oracle", trials)
        assert info.value.code == 1
        captured = capsys.readouterr()
        assert "--oracle" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("args", [
        ("--colluders", "9", "--pf", "0.75", "--oracle", "1000"),
        ("--colluders", "0", "--pf", "0.0"),
    ])
    def test_zero_entropies_print_without_sign(self, capsys, args):
        # a certain sender has entropy 0.0, never -0.0
        assert run_cli("entropy", "--n", "10", *args) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert rows
        for row in rows:
            for value in row.values():
                assert not value.startswith("-0.0"), row

    def test_empty_grid_is_an_error(self):
        assert run_cli("entropy", "--n", "100", "--colluders", "5..1",
                       "--pf", "0.75") == 2

    def test_domain_error_maps_to_config_exit(self):
        # colluders beyond the population: scenario domain rejects it
        assert run_cli("entropy", "--n", "10", "--colluders", "11",
                       "--pf", "0.75") == 2


class TestReport:
    def write_summary(self, directory, scenario, rows, name=None):
        directory.mkdir(parents=True, exist_ok=True)
        n, sa, pf, m = scenario
        csv_rows = []
        for seed, conv_min in rows:
            csv_rows.append({
                "seed": str(seed), "n_agents": str(n), "sa_fraction": str(sa),
                "p_f": str(pf), "migration_rate": str(m),
                "convergence_time_s": "" if conv_min is None else str(conv_min * 60),
                "undiscovered_fraction": "0.0" if conv_min is not None else "0.2",
                "mean_overhead_bps": "400.0", "mean_capacity_usage": "0.0005",
                "mean_saturation": "0.0",
                "convergence_time_min": "" if conv_min is None else str(conv_min),
            })
        write_summary_csv(csv_rows, str(directory / (name or f"n{n}-summary.csv")))

    def test_aggregates_by_scenario(self, tmp_path, capsys):
        self.write_summary(tmp_path, (250, 0.1, 0.75, 0.0),
                           [(1, 5.0), (2, 6.0), (3, 7.0)])
        self.write_summary(tmp_path, (500, 0.1, 0.75, 0.0), [(1, 9.0)])
        assert run_cli("report", str(tmp_path)) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(REPORT_CSV_COLUMNS)
        rows = list(csv.DictReader(lines))
        assert len(rows) == 2
        first, second = rows
        assert first["n_agents"] == "250"
        assert first["runs"] == "3" and first["converged"] == "3"
        assert float(first["convergence_time_min_mean"]) == 6.0
        assert first["ci_degenerate"] == "false"
        assert float(first["convergence_time_min_ci95_low"]) < 6.0
        assert second["runs"] == "1"
        assert second["ci_degenerate"] == "true"

    def test_unconverged_runs_counted_but_excluded_from_stats(self, tmp_path, capsys):
        self.write_summary(tmp_path, (250, 0.1, 0.75, 0.0167),
                           [(1, 5.0), (2, None), (3, 7.0)])
        assert run_cli("report", str(tmp_path)) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.strip().splitlines()))
        assert rows[0]["runs"] == "3"
        assert rows[0]["converged"] == "2"
        assert float(rows[0]["convergence_time_min_mean"]) == 6.0

    def test_report_to_file(self, tmp_path, capsys):
        self.write_summary(tmp_path / "in", (250, 0.1, 0.75, 0.0), [(1, 5.0)])
        out = tmp_path / "aggregate.csv"
        assert run_cli("report", str(tmp_path / "in"), "--output", str(out)) == 0
        assert read_csv(out)[0]["n_agents"] == "250"

    def test_missing_directory(self, tmp_path):
        assert run_cli("report", str(tmp_path / "void")) == 2

    def test_directory_without_summaries(self, tmp_path):
        (tmp_path / "noise.csv").write_text("a,b\n1,2\n")
        assert run_cli("report", str(tmp_path)) == 2

    def test_duplicate_run_across_files_is_rejected(self, tmp_path, capsys):
        # two sweeps of one scenario written into one directory: seed 2 is
        # in both, and counting it twice would shrink the CI
        scenario = (30, 0.1, 0.75, 0.0)
        self.write_summary(tmp_path, scenario, [(1, 5.0), (2, 6.0)], name="a-summary.csv")
        self.write_summary(tmp_path, scenario, [(2, 6.0), (3, 7.0)], name="b-summary.csv")
        assert run_cli("report", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = captured.err
        assert "seed 2" in message
        assert "n_agents=30, sa_fraction=0.1, p_f=0.75, migration_rate=0.0" in message
        assert "a-summary.csv" in message and "b-summary.csv" in message

    # One scenario spelled two ways: the cells are read as numbers, so its
    # runs are grouped, and a seed is matched, by value.
    SPELLINGS = ((250, "0.1", 0.75, "0.0"), (250, "0.10", 0.75, "0"))

    def test_scenarios_are_matched_by_value(self, tmp_path, capsys):
        first, second = self.SPELLINGS
        self.write_summary(tmp_path, first, [(1, 5.0)], name="a-summary.csv")
        self.write_summary(tmp_path, second, [(2, 7.0)], name="b-summary.csv")
        assert run_cli("report", str(tmp_path)) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 1
        row = rows[0]
        # printed with the cells of the first file read
        assert (row["sa_fraction"], row["migration_rate"]) == ("0.1", "0.0")
        assert row["runs"] == "2" and row["converged"] == "2"
        assert row["convergence_time_min_mean"] == "6"

    def test_duplicate_run_in_two_spellings_is_rejected(self, tmp_path, capsys):
        first, second = self.SPELLINGS
        self.write_summary(tmp_path, first, [(1, 5.0)], name="a-summary.csv")
        self.write_summary(tmp_path, second, [(1, 5.0)], name="b-summary.csv")
        assert run_cli("report", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed 1 of scenario" in captured.err
        assert "a-summary.csv" in captured.err and "b-summary.csv" in captured.err

    def test_unreadable_seed_is_rejected(self, tmp_path, capsys):
        self.write_summary(tmp_path, (250, 0.1, 0.75, 0.0), [("abc", 5.0)])
        assert run_cli("report", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n250-summary.csv: seed abc: column seed holds 'abc'" in captured.err

    # Two summary CSVs holding three scenarios: one with four converged runs
    # and one unconverged run, one with a single converged run (degenerate
    # CI), and one with no converged run at all.
    PINNED_INPUT = {
        "n250-summary.csv": (
            "seed,n_agents,sa_fraction,p_f,migration_rate,convergence_time_s,"
            "undiscovered_fraction,mean_overhead_bps,mean_capacity_usage,"
            "mean_saturation,convergence_time_min\n"
            "1,250,0.1,0.75,0.0,300,0.0,412.5,0.0005,0.0,5\n"
            "2,250,0.1,0.75,0.0,390,0.0,398.25,0.0005,0.0,6.5\n"
            "3,250,0.1,0.75,0.0,435,0.0,405,0.0005,0.0,7.25\n"
            "4,250,0.1,0.75,0.0,660,0.0,431.125,0.0005,0.0,11\n"
            "5,250,0.1,0.75,0.0,,0.2,388,0.0005,0.0,\n"
        ),
        "n500-summary.csv": (
            "seed,n_agents,sa_fraction,p_f,migration_rate,convergence_time_s,"
            "undiscovered_fraction,mean_overhead_bps,mean_capacity_usage,"
            "mean_saturation,convergence_time_min\n"
            "1,500,0.1,0.75,0.0,540,0.0,402,0.0005,0.0,9\n"
            "1,500,0.1,0.75,0.0166667,,0.125,377.5,0.0005,0.0,\n"
            "2,500,0.1,0.75,0.0166667,,0.25,380.5,0.0005,0.0,\n"
        ),
    }
    # The first scenario's 95% CI is mean -/+ t(0.975, 3) * sd / sqrt(4)
    # = 7.4375 -/+ 3.182446 * 2.552572 / 2.
    PINNED_OUTPUT = (
        "n_agents,sa_fraction,p_f,migration_rate,runs,converged,"
        "convergence_time_min_mean,convergence_time_min_ci95_low,"
        "convergence_time_min_ci95_high,convergence_time_min_q25,"
        "convergence_time_min_q75,undiscovered_fraction_mean,mean_overhead_bps,"
        "ci_degenerate\n"
        "250,0.1,0.75,0.0,5,4,7.4375,3.37579,11.4992,6.125,8.1875,0.04,406.975,false\n"
        "500,0.1,0.75,0.0,1,1,9,9,9,9,9,0,402,true\n"
        "500,0.1,0.75,0.0166667,2,0,,,,,,0.1875,379,\n"
    )

    def test_output_bytes_are_pinned(self, tmp_path):
        for name, text in self.PINNED_INPUT.items():
            (tmp_path / name).write_text(text)
        out = tmp_path / "out" / "report.csv"
        out.parent.mkdir()
        assert run_cli("report", str(tmp_path), "--output", str(out)) == 0
        assert out.read_bytes() == self.PINNED_OUTPUT.encode()

    # A value `report` cannot read is an input error, named by file, seed
    # and column; read as a float, a `nan` time would count as converged.
    @pytest.mark.parametrize("column, value", [
        ("convergence_time_min", "nan"),
        ("mean_overhead_bps", "inf"),
        ("undiscovered_fraction", "abc"),
        ("p_f", "abc"),
    ])
    def test_unreadable_value_is_rejected(self, tmp_path, capsys, column, value):
        header, *rows = self.PINNED_INPUT["n250-summary.csv"].splitlines()
        at = header.split(",").index(column)
        cells = rows[2].split(",")
        cells[at] = value
        rows[2] = ",".join(cells)
        (tmp_path / "n250-summary.csv").write_text("\n".join([header, *rows]) + "\n")
        assert run_cli("report", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"n250-summary.csv: seed 3: column {column} holds {value!r}" in captured.err


class TestStudentT:
    # `report`'s quantile against scipy's, which the test extra installs

    def test_quantile_matches_scipy(self):
        dfs = [*range(1, 2001), 5_000, 10_000, 100_000]
        got = np.array([_student_t_975(df) for df in dfs])
        want = stats.t.ppf(0.975, dfs)
        assert np.max(np.abs(got - want) / want) <= 1e-10

    def test_ci_bounds_print_as_with_scipy(self):
        # convergence times on the 10-s sampling grid, 2-40 converged runs
        rng = random.Random(24)
        ours = {df: _student_t_975(df) for df in range(1, 40)}
        for _ in range(5000):
            arr = np.array([rng.randrange(1, 181) / 6 for _ in range(rng.randint(2, 40))])
            mean = float(arr.mean())
            sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
            want = float(stats.t.ppf(0.975, arr.size - 1))
            for sign in (-1, 1):
                bound = mean + sign * ours[arr.size - 1] * sem
                assert f"{bound:.6g}" == f"{mean + sign * want * sem:.6g}", arr


class TestImportPath:
    # a probe shared by the child interpreters: the loaded modules of a package
    LOADED = (
        "import json\n"
        "def loaded(package):\n"
        "    return sorted(m for m in sys.modules if m == package or m.startswith(package + '.'))\n"
    )

    def test_simulate_imports_no_scipy(self, tmp_path):
        # numpy's and scipy's imports alone cost more than a short simulate
        # run; only the Monte-Carlo oracle may pull numpy in, and nothing scipy
        grid = "'entropy', '--n', '100', '--colluders', '5', '--pf', '0.75'"
        out = run_in_child(
            self.LOADED
            + "import stegrouter.sim\n"
            "after_import = loaded('numpy') + loaded('scipy')\n"
            "from stegrouter import cli\n"
            "code = cli.main(['simulate', '--set', 'n_agents=30', '--set', 'duration=60',\n"
            f"                 '--output-dir', {str(tmp_path)!r}])\n"
            "after_simulate = loaded('numpy') + loaded('scipy')\n"
            f"entropy_code = cli.main([{grid}, '--output', {str(tmp_path / 'entropy.csv')!r}])\n"
            "after_entropy = loaded('numpy') + loaded('scipy')\n"
            f"oracle_code = cli.main([{grid}, '--oracle', '10',\n"
            f"                        '--output', {str(tmp_path / 'oracle.csv')!r}])\n"
            "oracle_loads = ['numpy' in loaded('numpy'), 'scipy' in loaded('scipy')]\n"
            "print(json.dumps([code, after_import, after_simulate, entropy_code, after_entropy,\n"
            "                  oracle_code, oracle_loads]))\n"
        )
        (code, after_import, after_simulate, entropy_code, after_entropy,
         oracle_code, oracle_loads) = json.loads(out.splitlines()[-1])
        assert code == 0
        assert after_import == []
        assert after_simulate == []
        # the closed forms run on the standard library alone
        assert entropy_code == 0
        assert after_entropy == []
        # the probe does see numpy once the oracle imports it
        assert oracle_code == 0
        assert oracle_loads == [True, False]

        # next to the simulate run's summary, the pinned report input: it
        # holds a scenario whose CI needs the Student-t quantile
        for name, text in TestReport.PINNED_INPUT.items():
            (tmp_path / name).write_text(text)
        out = run_in_child(
            self.LOADED
            + "from stegrouter import cli\n"
            "before = loaded('numpy')\n"
            f"code = cli.main(['report', {str(tmp_path)!r}])\n"
            "after_report = ['numpy' in loaded('numpy'), loaded('scipy')]\n"
            "import scipy.stats\n"
            "print(json.dumps([code, before, after_report, 'scipy.stats' in loaded('scipy')]))\n"
        )
        header, row, *rows, probe = out.splitlines(keepends=True)
        pinned = TestReport.PINNED_OUTPUT.splitlines(keepends=True)
        assert header == pinned[0]
        assert row.startswith("30,0.1,0.75,0,1,")
        assert rows == pinned[1:]
        # `report` loads neither numpy nor scipy; the probe does see scipy
        # once it is imported
        assert json.loads(probe) == [0, [], [False, []], True]

    def test_report_runs_without_numpy(self, tmp_path):
        # numpy blocked outright: every import of it fails in the child
        for name, text in TestReport.PINNED_INPUT.items():
            (tmp_path / name).write_text(text)
        out = run_in_child(
            "sys.modules['numpy'] = None\n"
            "from stegrouter import cli\n"
            f"sys.exit(cli.main(['report', {str(tmp_path)!r}]))\n"
        )
        assert out == TestReport.PINNED_OUTPUT

    # every closed form, and the scenario table without the oracle, as JSON
    CLOSED_FORMS = (
        "import dataclasses, io\n"
        "from stegrouter import anonymity as a\n"
        "scenarios = [a.AdversaryScenario(100, c, 0.75, kind)\n"
        "             for c in (0, 5, 99) for kind in a.AttackKind]\n"
        "closed = [[a.predecessor_probability(s), a.escape_probability(s),\n"
        "           *(list(dataclasses.astuple(f(s))) for f in\n"
        "             (a.sender_distribution, a.adaptive_entropy, a.static_entropy))]\n"
        "          for s in scenarios]\n"
        "closed += [a.mean_path_length(0.75), list(a.recommended_pf_range())]\n"
        "table = io.StringIO()\n"
        "a.write_entropy_csv(a.evaluate_scenarios(scenarios, oracle_trials=None), table)\n"
        "closed.append(table.getvalue())\n"
    )

    def test_closed_forms_run_without_numpy(self):
        # numpy blocked outright: every import of it fails in the child
        grid = list(TestEntropy.GRID)
        out = run_in_child(
            "sys.modules['numpy'] = None\n"
            + self.CLOSED_FORMS
            + "import contextlib, hashlib, json\n"
            "from stegrouter import cli\n"
            "rows, oracle, err = io.StringIO(), io.StringIO(), io.StringIO()\n"
            "with contextlib.redirect_stdout(rows):\n"
            f"    code = cli.main({grid!r})\n"
            "with contextlib.redirect_stdout(oracle), contextlib.redirect_stderr(err):\n"
            f"    oracle_code = cli.main({grid + ['--oracle', '10']!r})\n"
            "print(json.dumps([closed, code, hashlib.sha256(rows.getvalue().encode()).hexdigest(),\n"
            "                  oracle_code, oracle.getvalue(), err.getvalue()]))\n"
        )
        closed, code, digest, oracle_code, oracle_out, oracle_err = json.loads(out)
        expected = {}
        exec(self.CLOSED_FORMS, expected)
        assert closed == json.loads(json.dumps(expected["closed"]))
        assert (code, digest) == (0, TestEntropy.GRID_SHA256)
        # the oracle needs numpy: a runtime failure that names it
        assert (oracle_code, oracle_out) == (3, "")
        assert "numpy" in oracle_err

    def test_numpy_is_imported_by_anonymity_alone(self):
        # every import in the package's modules, read from their syntax
        # trees: numpy only in the Monte-Carlo oracle's module, and nothing
        # outside the standard library that pyproject.toml does not declare
        tomllib = pytest.importorskip("tomllib")
        package = Path(stegrouter.__file__).parent
        pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
        declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                    for dep in pyproject["project"]["dependencies"]}
        imports = {}
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    imports.setdefault(name.partition(".")[0], set()).add(path.name)
        third_party = {name: files for name, files in imports.items()
                       if name not in sys.stdlib_module_names}
        assert third_party == {"numpy": {"anonymity.py"}}
        assert set(third_party) <= declared
