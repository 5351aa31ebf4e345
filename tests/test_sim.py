"""Simulator tests: config plumbing, determinism, accounting conservation,
convergence semantics, migration, and the traffic meters."""

import dataclasses
import hashlib
import json
import math

import pytest

from stegrouter.core import DEFAULT_METHODS, MessageSizes, StegMethodProfile
from stegrouter.router import RouterTimers
from stegrouter.sim import (
    SUMMARY_CSV_COLUMNS,
    ConfigError,
    MetricsFrame,
    Platform,
    SimConfig,
    _first_sustained_full,
    run,
    run_report_lines,
    summary_row,
    write_run_jsonl,
)

from harness import digest_under_hash_seed

# one universally shared method: every SA pair has a link, graph always connected
TEXT_ONLY = (StegMethodProfile("text", "Text", 80, 0.0, 1.0, 6),)


@pytest.fixture(scope="module")
def churn_panel():
    return [run(SimConfig(migration_rate=1 / 60, seed=seed))
            for seed in range(1, 13)]


def frame(time, level):
    return MetricsFrame(time, level, level, 0.0, 0.0, 0.0)


# A valid config in which every field differs from its default.
OTHER = SimConfig(
    duration=900.0, n_agents=40, sa_fraction=0.25, p_f=0.5, migration_rate=0.01, seed=7,
    sampling_interval=5.0, discovery_interval=20.0, walk_hop_latency=0.002, hop_limit=8,
    timers=RouterTimers(4.0, 12.5, 20.0), sizes=MessageSizes(65, 33, 17, 25),
    methods=(StegMethodProfile("x", "X", 123.5, 0.25, 0.5, 9),),
)
SECTIONS = {"timers": RouterTimers, "sizes": MessageSizes, "methods": StegMethodProfile}
CONFIG_FIELDS = [
    (None, f.name) for f in dataclasses.fields(SimConfig) if f.name not in SECTIONS
] + [(section, f.name) for section, cls in SECTIONS.items() for f in dataclasses.fields(cls)]


class TestConfig:
    def test_defaults_echo_roundtrip(self):
        cfg = SimConfig()
        assert SimConfig.from_mapping(cfg.to_mapping()) == cfg

    def test_override_roundtrip(self):
        cfg = SimConfig(n_agents=500, p_f=0.8, migration_rate=1 / 60, seed=9)
        again = SimConfig.from_mapping(cfg.to_mapping())
        assert again == cfg
        assert again.n_steg_agents == 50

    def test_steg_agent_count(self):
        assert SimConfig(n_agents=250, sa_fraction=0.10).n_steg_agents == 25

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig.from_mapping({"n_agnets": 100})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(duration=-1.0)
        with pytest.raises(ConfigError):
            SimConfig(sa_fraction=0.0)
        with pytest.raises(ConfigError):
            SimConfig(p_f=1.0)
        with pytest.raises(ConfigError):
            SimConfig(sampling_interval=0.0)
        with pytest.raises(ConfigError):
            SimConfig(methods=())
        # a section that is not a mapping, or a catalogue that is not a
        # list of mappings, is a configuration error too
        for mapping in ({"timers": 5}, {"sizes": "5"}, {"methods": 5}, {"methods": [5]},
                        {"methods": "text"}):
            with pytest.raises(ConfigError):
                SimConfig.from_mapping(mapping)

    @pytest.mark.parametrize("section,name", CONFIG_FIELDS)
    def test_string_value_roundtrip(self, section, name):
        # every field of every section is parsed from its string form (as
        # the CLI and the INI file give it) and echoed back unchanged
        mapping = OTHER.to_mapping()
        default = SimConfig().to_mapping()
        if section is None:
            fields, default_fields = mapping, default
        elif section == "methods":
            fields, default_fields = mapping["methods"][0], default["methods"][0]
        else:
            fields, default_fields = mapping[section], default[section]
        assert fields[name] != default_fields[name]
        fields[name] = str(fields[name])
        echoed = SimConfig.from_mapping(mapping).to_mapping()
        assert json.dumps(echoed, sort_keys=True) == json.dumps(OTHER.to_mapping(), sort_keys=True)

    def test_zero_duration_allowed(self):
        report = run(SimConfig(duration=0.0, n_agents=20))
        assert report.frames == ()
        assert report.convergence_time_s is None
        assert report.undiscovered_fraction is None


class TestDeterminism:
    def test_identical_runs_serialize_identically(self):
        cfg = SimConfig(duration=300.0, n_agents=60, seed=5)
        first = list(run_report_lines(run(cfg)))
        second = list(run_report_lines(run(cfg)))
        assert first == second

    def test_seed_changes_the_run(self):
        base = SimConfig(duration=300.0, n_agents=60, seed=5)
        other = SimConfig(duration=300.0, n_agents=60, seed=6)
        assert list(run_report_lines(run(base))) != list(run_report_lines(run(other)))

    def test_independent_of_interpreter_hash_randomization(self, tmp_path):
        # set-iteration order leaking into the event stream would show up
        # as hash-seed-dependent output; two interpreters must agree
        script = (
            "import hashlib, sys\n"
            "from stegrouter.sim import SimConfig, run, run_report_lines\n"
            "text = '\\n'.join(run_report_lines(run(SimConfig("
            "duration=240.0, n_agents=60, seed=3))))\n"
            "sys.stdout.write(hashlib.sha256(text.encode()).hexdigest())\n"
        )
        digests = {digest_under_hash_seed(script, hashseed)
                   for hashseed in ("1", "271828")}
        assert len(digests) == 1


class TestAccounting:
    def collect(self, cfg):
        events = []

        def trace(time, kind, sender, recipient, count, nbytes):
            events.append((time, kind, sender, recipient, count, nbytes))

        report = run(cfg, trace=trace)
        return report, events

    def test_totals_match_trace(self):
        cfg = SimConfig(duration=300.0, n_agents=50, methods=TEXT_ONLY, seed=2)
        report, events = self.collect(cfg)
        for kind in ("discovery", "hello", "routing_update", "data"):
            msgs = sum(e[4] for e in events if e[1] == kind)
            nbytes = sum(e[5] for e in events if e[1] == kind)
            assert report.totals[kind] == {"messages": msgs, "bytes": nbytes}

    def test_fixed_size_message_identities(self):
        cfg = SimConfig(duration=300.0, n_agents=50, methods=TEXT_ONLY, seed=2)
        report, _ = self.collect(cfg)
        totals = report.totals
        # every walk hop and every capability response is one 64-byte carrier
        assert totals["discovery"]["bytes"] == 64 * totals["discovery"]["messages"]
        assert totals["hello"]["bytes"] == 32 * totals["hello"]["messages"]
        # updates carry at least the 16-byte header plus the mandatory self row
        assert totals["routing_update"]["bytes"] >= 40 * totals["routing_update"]["messages"]
        assert totals["data"] == {"messages": 0, "bytes": 0}

    def test_overhead_meter_conserves_traced_bytes(self):
        # 5 text-only SAs: the link graph is a fixed 10-link clique, so each
        # frame's per-link rate must reproduce the window's traced bits exactly
        cfg = SimConfig(duration=125.0, n_agents=50, methods=TEXT_ONLY, seed=4)
        report, events = self.collect(cfg)
        n_links = 10
        previous = 0.0
        for f in report.frames:
            window_bits = sum(
                e[5] * 8 for e in events if previous < e[0] <= f.time
            )
            rebuilt = window_bits / ((f.time - previous) * n_links)
            assert rebuilt == f.routing_overhead_per_link_bps
            previous = f.time


class TestConvergence:
    def test_sustained_full_level_helper(self):
        assert _first_sustained_full([]) is None
        assert _first_sustained_full([frame(10, 0.4)]) is None
        assert _first_sustained_full([frame(10, 1.0), frame(20, 1.0)]) == 10
        # a later dip discards the earlier plateau
        frames = [frame(10, 1.0), frame(20, 0.9), frame(30, 1.0)]
        assert _first_sustained_full(frames) == 30
        assert _first_sustained_full([frame(10, 1.0), frame(20, 0.9)]) is None

    def test_desk_scale_run_converges(self):
        # 25 SAs, no migration: full tables well before the 30 min horizon
        report = run(SimConfig(seed=1))
        assert report.convergence_time_s is not None
        assert report.convergence_time_s < 1800.0
        assert report.undiscovered_fraction == 0.0

    def test_single_steg_agent_is_vacuously_converged(self):
        platform = Platform(SimConfig(n_agents=10, duration=60.0))
        assert platform.config.n_steg_agents == 1
        platform.run_until(60.0)
        assert platform.convergence_level() == 1.0

    def test_no_steg_agents_idle_platform(self):
        platform = Platform(SimConfig(n_agents=4, duration=60.0))
        assert platform.config.n_steg_agents == 0
        platform.run_until(60.0)
        assert platform.convergence_level() == 1.0
        last = platform.frames[-1]
        assert last.routing_overhead_per_link_bps == 0.0
        assert last.capacity_usage == 0.0
        assert last.saturated_link_fraction == 0.0

    def test_join_drops_level_until_tables_propagate(self):
        platform = Platform(SimConfig(duration=900.0, n_agents=40,
                                      methods=TEXT_ONLY, seed=8))
        platform.run_until(600.0)
        assert platform.convergence_level() == 1.0
        # a fresh SA joins: its links exist capability-wise immediately,
        # but no tables mention it yet
        platform._spawn_replacement(True, 600.0)
        assert platform.convergence_level() < 1.0
        platform.run_until(900.0)
        assert platform.convergence_level() == 1.0

    def test_removal_expires_at_neighbors_within_hold_time(self):
        platform = Platform(SimConfig(duration=400.0, n_agents=30,
                                      methods=TEXT_ONLY, seed=6))
        platform.run_until(200.0)
        assert platform.convergence_level() == 1.0
        sa_ids = sorted(platform.routers)
        victim, survivor = sa_ids[0], sa_ids[1]
        platform.remove_agent(victim)
        platform.run_until(230.0)
        router = platform.routers[survivor]
        assert victim in router.neighbors
        assert victim not in router.up_neighbors(platform.now)
        assert victim not in router.routes
        assert platform.convergence_level() == 1.0


class TestMigration:
    def test_no_migration_no_churn(self):
        platform = Platform(SimConfig(duration=600.0, n_agents=60, seed=3))
        platform.run_until(600.0)
        assert platform._alive == list(range(60))

    def test_poisson_event_count_and_conservation(self):
        # M = 1/60 over 1800 s: Poisson mean 30, 3 sigma ~ 16.4
        cfg = SimConfig(duration=1800.0, n_agents=60, migration_rate=1 / 60, seed=11)
        platform = Platform(cfg)
        platform.run_until(1800.0)
        migrations = platform._next_id - 60
        assert 14 <= migrations <= 46
        assert len(platform._alive) == len(set(platform._alive)) == 60
        # replacements preserve the agent kind, so the SA head count holds
        assert len(platform.routers) == cfg.n_steg_agents
        assert set(platform.routers) <= set(platform._alive)

    def test_routers_stay_in_ascending_id_order(self):
        # timer draws and topology sums iterate the routers in id order,
        # which the dict keeps only because ids enter in ascending order
        cfg = SimConfig(duration=600.0, n_agents=40, sa_fraction=0.5, migration_rate=1 / 5, seed=4)
        platform = Platform(cfg)
        replaced = set()
        for step in range(1, 61):
            platform.run_until(step * 10.0)
            ids = list(platform.routers)
            assert ids == sorted(ids)
            replaced.update(i for i in ids if i >= cfg.n_agents)
        assert len(replaced) >= 10

    def test_churn_causes_convergence_dips(self, churn_panel):
        # churn must visibly interrupt converged operation: most seeds
        # dip below full tables during the final third of the run
        dipped = 0
        for report in churn_panel:
            tail = [f for f in report.frames if f.time > 1200.0]
            if any(f.convergence_level < 1.0 for f in tail):
                dipped += 1
        assert dipped >= 7

    def test_churn_leaves_most_runs_unconverged_at_the_end(self, churn_panel):
        # KNOWN RED: with the discovery rate this build needs to hit the
        # documented mean convergence band, recovery after a single agent
        # swap takes 1-3 simulated minutes, so by t=1800 most seeds are back
        # at full tables (measured 2 of 12 below 1.0).  A majority below 1.0
        # at the final sample needs recovery times on the order of the
        # initial convergence time, which no free constant provides while
        # the convergence-time band holds.  See README "Expected failures".
        below = 0
        for report in churn_panel:
            if report.frames[-1].convergence_level < 1.0:
                below += 1
        assert below >= 7, (
            f"final-frame convergence_level < 1.0 in {below}/12 seeds; "
            "the churn-vs-recovery ratio of this parameterization keeps "
            "most runs converged at the horizon"
        )

    def test_migration_stress_ordering(self):
        # more churn depresses the mean end-state.  The margin is small
        # (~0.003 per step) against large per-seed spread (an unlucky
        # capability draw can strand one SA below full tables at M=0,
        # while churn may even heal such a run by replacing the agent),
        # so the panel needs 30 seeds for the ordering to emerge; runs
        # are deterministic, making this a stable regression check.
        def mean_final(m):
            reports = [run(SimConfig(migration_rate=m, seed=s))
                       for s in range(1, 31)]
            return sum(r.frames[-1].convergence_level for r in reports) / 30

        means = (mean_final(0.0), mean_final(1 / 120), mean_final(1 / 60))
        assert means[0] >= means[1] >= means[2], (
            f"mean final convergence_level not ordered by churn: "
            f"M=0 {means[0]:.4f}, M=1/120 {means[1]:.4f}, M=1/60 {means[2]:.4f}")


class TestForwardProbabilityEffect:
    def test_higher_pf_never_slower_within_noise(self):
        # raising the forwarding probability must not slow route formation:
        # per-panel mean convergence times may not increase beyond the
        # overlap of their 95% confidence intervals
        seeds = range(1, 21)
        stats = {}
        for p_f in (0.66, 0.75, 0.8):
            times = []
            for seed in seeds:
                report = run(SimConfig(p_f=p_f, seed=seed))
                if report.convergence_time_s is not None:
                    times.append(report.convergence_time_s / 60.0)
            mean = sum(times) / len(times)
            var = sum((t - mean) ** 2 for t in times) / (len(times) - 1)
            stats[p_f] = (mean, 1.96 * (var / len(times)) ** 0.5)
        ordered = [stats[p] for p in (0.66, 0.75, 0.8)]
        for (lo_mean, lo_hw), (hi_mean, hi_hw) in zip(ordered, ordered[1:]):
            assert hi_mean <= lo_mean + lo_hw + hi_hw, (
                f"mean convergence minutes rose with p_f beyond CI overlap: "
                f"{lo_mean:.2f}+/-{lo_hw:.2f} -> {hi_mean:.2f}+/-{hi_hw:.2f}")


class TestMeters:
    def make_two_sa_platform(self):
        # n=20 at 10%: exactly two text-only SAs, one 80 bit/s link
        return Platform(SimConfig(n_agents=20, duration=60.0, methods=TEXT_ONLY,
                                  seed=1))

    def test_hello_stream_usage(self):
        # one 32-byte hello each way per 5 s on an 80 bit/s link:
        # 512 bits / (80 bit/s * 10 s) = 0.64, below saturation
        platform = self.make_two_sa_platform()
        a, b = sorted(platform.routers)
        platform._send("hello", a, b, 32)
        platform._send("hello", b, a, 32)
        f = platform._measure(10.0)
        assert f.capacity_usage == 0.64
        assert f.saturated_link_fraction == 0.0
        assert f.routing_overhead_per_link_bps == 51.2

    def test_full_table_saturates_text_link(self):
        # a 100-row update is 2416 bytes; against 80 bit/s * 30 s = 2400 bits
        # the link is past capacity for the window
        platform = self.make_two_sa_platform()
        a, b = sorted(platform.routers)
        payload = platform.config.sizes.update_payload(100)
        assert payload == 2416
        platform._send("routing_update", a, b, payload)
        f = platform._measure(30.0)
        assert f.saturated_link_fraction == 1.0

    def test_walk_traffic_counts_toward_overhead_not_links(self):
        platform = self.make_two_sa_platform()
        a, b = sorted(platform.routers)
        platform._walk_sent(a, b, 4)
        f = platform._measure(10.0)
        assert f.routing_overhead_per_link_bps == 256 * 8 / 10
        assert f.capacity_usage == 0.0

    def test_halving_update_rate_halves_update_share(self):
        reports = []
        for update_interval in (30.0, 60.0):
            cfg = SimConfig(duration=900.0, n_agents=100, seed=7,
                            timers=RouterTimers(5.0, 15.0, update_interval))
            reports.append(run(cfg))
        slow, fast = reports[1], reports[0]
        ratio = slow.totals["routing_update"]["bytes"] / fast.totals["routing_update"]["bytes"]
        assert 0.35 < ratio < 0.65


class TestSerialization:
    def test_jsonl_structure(self):
        report = run(SimConfig(duration=60.0, n_agents=40, seed=2))
        lines = list(run_report_lines(report))
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["config"]["n_agents"] == 40
        body = [json.loads(line) for line in lines[1:-1]]
        assert all(entry["type"] == "frame" for entry in body)
        assert [entry["time"] for entry in body] == [10.0 * k for k in range(1, 7)]
        trailer = json.loads(lines[-1])
        assert trailer["type"] == "summary"
        assert set(trailer["totals"]) == {"discovery", "hello", "routing_update", "data"}

    def test_config_echo_reproduces_run(self):
        report = run(SimConfig(duration=120.0, n_agents=40, seed=9))
        echoed = SimConfig.from_mapping(report.config)
        again = run(echoed)
        assert list(run_report_lines(report)) == list(run_report_lines(again))

    def test_summary_row_columns(self):
        report = run(SimConfig(duration=120.0, n_agents=40, seed=2))
        row = summary_row(report)
        assert tuple(row) == SUMMARY_CSV_COLUMNS
        assert row["seed"] == "2"
        assert row["n_agents"] == "40"
        if row["convergence_time_s"]:
            minutes = float(row["convergence_time_min"])
            seconds = float(row["convergence_time_s"])
            assert math.isclose(minutes, seconds / 60.0, rel_tol=1e-9)

    def test_write_run_jsonl_atomic(self, tmp_path):
        report = run(SimConfig(duration=30.0, n_agents=20, seed=1))
        path = tmp_path / "run.jsonl"
        write_run_jsonl(report, str(path))
        text = path.read_text()
        assert text.endswith("\n")
        assert text.count("\n") == len(list(run_report_lines(report)))
        assert not list(tmp_path.glob(".tmp-*"))

    def test_jsonl_hash_stability_reference(self):
        # frozen digest of a small run; a change here means serialization
        # or simulation order drifted and determinism claims must be re-checked
        report = run(SimConfig(duration=120.0, n_agents=30, seed=12))
        text = "\n".join(run_report_lines(report))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == EXPECTED_SMALL_RUN_DIGEST


# frozen by running the build once; guards against accidental format drift
EXPECTED_SMALL_RUN_DIGEST = (
    "5a63354994ac6dffdac30e31f74a7116a431d3dcb2fc20bbad3ef6aa813aa0ea"
)
