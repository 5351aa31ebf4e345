"""Command-line interface tests, driven in-process through main()."""

import csv
import dataclasses
import json
import typing

import pytest

from stegrouter.cli import PRESETS, REPORT_CSV_COLUMNS, _SECTION_KEYS, _load_config_file, main
from stegrouter.sim import SUMMARY_CSV_COLUMNS, SimConfig, write_summary_csv


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

    def test_stepped_seed_range(self, tmp_path):
        # --seeds takes the same grid syntax as the entropy grids
        assert run_cli(*self.small_args(tmp_path, "--seeds", "1..5:2")) == 0
        rows = read_csv(tmp_path / "run-summary.csv")
        assert [row["seed"] for row in rows] == ["1", "3", "5"]


class TestEntropy:
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

    def test_empty_grid_is_an_error(self):
        assert run_cli("entropy", "--n", "100", "--colluders", "5..1",
                       "--pf", "0.75") == 2

    def test_domain_error_maps_to_config_exit(self):
        # colluders beyond the population: scenario domain rejects it
        assert run_cli("entropy", "--n", "10", "--colluders", "11",
                       "--pf", "0.75") == 2


class TestReport:
    def write_summary(self, directory, scenario, rows):
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
        write_summary_csv(csv_rows, str(directory / f"n{n}-summary.csv"))

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
