"""Simulator tests: config plumbing, determinism, accounting conservation,
convergence semantics, migration, and the traffic meters."""

import dataclasses
import hashlib
import json
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stegrouter import sim
from stegrouter.core import DEFAULT_METHODS, MessageSizes, StegMethodProfile, method_table
from stegrouter.router import RouterTimers, StegRouter, best_method_on_link, resolve_steg_path
from stegrouter.cli import PRESETS
from stegrouter.sim import (
    SUMMARY_CSV_COLUMNS,
    ConfigError,
    MetricsFrame,
    Platform,
    SimConfig,
    _build_topology,
    _first_sustained_full,
    run,
    run_report_lines,
    summary_row,
    write_run_jsonl,
)

from harness import TEXT_ONLY, digest_under_hash_seed, dyadic_delay_methods, run_in_child


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

    @pytest.mark.parametrize("name, value", [
        ("n_agents", 0), ("migration_rate", -1.0), ("discovery_interval", 0.0),
        ("walk_hop_latency", -1.0), ("hop_limit", 0),
    ])
    def test_out_of_range_value_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            SimConfig(**{name: value})

    def test_duplicate_method_id_is_a_config_error(self):
        twin = DEFAULT_METHODS[0]
        with pytest.raises(ConfigError, match="duplicate method id"):
            SimConfig(methods=(twin, twin))

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

    def test_emission_accounts_each_message_and_delivers_to_the_alive(self, monkeypatch):
        # 5 text-only SAs; the first links to the other four and learns
        # routes through two of them, so its group sizes, and with them
        # the payloads, differ by recipient
        rows = []
        platform = Platform(SimConfig(n_agents=50, duration=60.0, methods=TEXT_ONLY, seed=1),
                            trace=lambda *row: rows.append(row))
        sender, *peers = sorted(platform.routers)
        for peer in peers:
            platform.form_link(sender, peer, 0.0)
        for peer in peers[:2]:
            platform._emit(platform.routers[peer].build_update(0.0), (sender,), 0.0)
        batch = platform.routers[sender].build_update(1.0)
        recipients = platform.routers[sender].neighbors
        assert tuple(recipients) == tuple(peers)
        departed = peers[2]
        platform.remove_agent(departed)
        processed = []
        original = StegRouter.process_update

        def recording(router, batch, now):
            processed.append(router.agent_id)
            return original(router, batch, now)

        monkeypatch.setattr(StegRouter, "process_update", recording)
        sizes = platform.config.sizes
        payloads = {r: sizes.update_header + sizes.update_entry * batch.row_count_for(r)
                    for r in recipients}
        assert len(set(payloads.values())) > 1
        totals = list(platform._totals["routing_update"])
        window = dict(platform._win_link_bits)
        del rows[:]

        platform._emit(batch, recipients, 1.0)

        assert platform._totals["routing_update"] == [
            totals[0] + len(peers), totals[1] + sum(payloads.values())]
        for r, payload in payloads.items():
            key = (min(sender, r), max(sender, r))
            assert platform._win_link_bits[key] == window.get(key, 0) + 8 * payload
        assert rows == [(1.0, "routing_update", sender, r, 1, payloads[r]) for r in peers]
        assert processed == [r for r in peers if r != departed]

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
        router = platform.routers[survivor]
        assert victim in router.neighbors
        assert router.vouched == len(router.neighbors) - 1
        # past the hold time the departed peer's entry is deleted, and with
        # it gone every entry left is vouched for again
        platform.run_until(230.0)
        for router in platform.routers.values():
            assert victim not in router.neighbors
            assert victim not in router.routes
            assert router.vouched == len(router.neighbors)
        assert platform.convergence_level() == 1.0

    def test_path_through_a_departed_relay_does_not_resolve(self):
        platform = Platform(SimConfig(duration=400.0, n_agents=40, seed=1))
        platform.run_until(300.0)
        source, dest, relay = next(
            (source, dest, route[0]) for source, router in platform.routers.items()
            for dest, route in router.routes.items() if route[0] != dest)
        assert resolve_steg_path(platform.routers, source, dest, platform.now) is not None
        platform.remove_agent(relay)
        # the relay has left the platform, but the source still routes via
        # it and counts it Up until the hold time has passed
        assert relay not in platform.routers
        assert platform.routers[source].routes[dest][0] == relay
        assert platform.routers[source].is_up(relay, platform.now)
        assert resolve_steg_path(platform.routers, source, dest, platform.now) is None


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

    @pytest.mark.parametrize("rate, seed", [
        (1 / 60, 1), (1 / 60, 2), (1 / 60, 3), (0.1, 1), (1.0, 1),
    ])
    def test_routed_pairs_count_only_routes_to_alive_agents(self, monkeypatch, rate, seed):
        # routes to a departed steg agent linger until they count to the
        # hop limit; at every sample the count must equal a brute-force
        # count over every table, including samples long after a departure
        counted = []
        routed_pairs = Platform._routed_pairs

        def checked(platform):
            routers = platform.routers
            held = sum(len(router.routes) for router in routers.values())
            alive = sum(dest in routers for router in routers.values() for dest in router.routes)
            counted.append((routed_pairs(platform), alive, held))
            return counted[-1][0]

        monkeypatch.setattr(Platform, "_routed_pairs", checked)
        run(SimConfig(migration_rate=rate, seed=seed))
        assert len(counted) == 180
        assert [fast for fast, _, _ in counted] == [alive for _, alive, _ in counted]
        assert any(alive < held for _, alive, held in counted)

    def test_removing_a_departed_agent_again_is_a_no_op(self):
        config = SimConfig(duration=300.0, n_agents=30, methods=TEXT_ONLY, seed=6)
        reports = []
        for removals in (1, 2):
            platform = Platform(config)
            platform.run_until(100.0)
            victim = min(platform.routers)
            for _ in range(removals):
                platform.remove_agent(victim)
            platform.run_until(config.duration)
            reports.append(list(run_report_lines(platform.report())))
        assert reports[0] == reports[1]

    def test_departed_mask_is_kept_at_exactly_the_hold_time(self):
        # b departs at t=100 right after its final beacon, so a's entry of b
        # is Up through t=100 + hold_time inclusive: a sample at exactly that
        # time must keep b's mask, because a's hello to b at the same time
        # puts bits on their link for the next window to measure
        platform = Platform(SimConfig(n_agents=20, methods=TEXT_ONLY, seed=1))
        a, b = sorted(platform.routers)
        assert platform.form_link(a, b, 0.0)
        hold_time = platform.config.timers.hold_time
        platform.kernel.now = 100.0
        platform._on_hello(b, 100.0)
        platform.remove_agent(b)
        platform._on_sample(100.0 + hold_time)
        assert b in platform._mask
        platform._on_hello(a, 100.0 + hold_time)
        assert (a, b) in platform._win_link_bits
        platform._on_sample(105.0 + hold_time)

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


class TestChangeLogs:
    @pytest.mark.parametrize("cfg", [
        SimConfig(n_agents=1000, seed=1), SimConfig(migration_rate=1 / 60, seed=1),
        SimConfig(migration_rate=1 / 60, seed=3),
    ], ids=["n1000", "churn", "churn-seed3"])
    def test_routers_hold_only_what_a_neighbor_has_yet_to_read(self, cfg):
        # every periodic emission reaches every live neighbor, so its
        # sender may drop its change log up to that table; without the
        # trim the N=1000 routers hold 61,850 entries at the horizon.  Each
        # emission also drops the loss-log entries every neighbor's mark
        # has passed; untrimmed, the churn routers hold 184 (seed 1) and
        # 1,407 (seed 3) of them at the horizon
        platform = Platform(cfg)
        platform.run_until(cfg.duration)
        routers = platform.routers
        assert sum(len(router._log) for router in routers.values()) <= 500
        assert sum(len(router._lost) for router in routers.values()) <= 150
        # no live receiver's mark lies before its sender's first entry, and
        # every loss-log mark lies within the log
        for router in routers.values():
            for peer, entry in router.neighbors.items():
                if peer in routers:
                    assert entry.seen_version >= routers[peer]._base
                assert 0 <= entry.seen_lost <= len(router._lost)

    @pytest.mark.slow
    def test_n10000_report_and_memory_are_pinned(self):
        # the report digest of the untrimmed logs, within a peak RSS budget
        # (the untrimmed logs peaked at 242 MB).  The peak is the child's
        # VmHWM: on Linux a child's ru_maxrss starts from the RSS of the
        # process that forked it, here the whole test session.
        out = run_in_child(
            "import hashlib\n"
            "from stegrouter.sim import SimConfig, run, run_report_lines\n"
            "text = '\\n'.join(run_report_lines(run(SimConfig(n_agents=10000, seed=1))))\n"
            "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
            "print(hashlib.sha256(text.encode()).hexdigest(), hwm.split()[1])\n"
        )
        digest, peak_kib = out.split()
        assert digest == "9dc9cb99353ca9d84c8d6f67b579ddd66b1e222b7060619ff1fca680293927e7"
        assert int(peak_kib) / 1024 <= 185


class TestSharedValues:
    @pytest.mark.parametrize("cfg, max_tuples", [
        (SimConfig(n_agents=1000, seed=1), 7000), (SimConfig(migration_rate=1 / 60, seed=1), 570),
    ], ids=["n1000", "churn"])
    def test_routers_share_link_keys_and_route_tuples(self, cfg, max_tuples):
        # a router makes one link key per method, and a route through a
        # link reuses the link's last route tuple when its key is the same
        # object; with a tuple per entry and per route change the N=1000
        # routers hold 2,810 link keys and 9,900 route tuples at the
        # horizon, and the churn routers 312 and 626
        platform = Platform(cfg)
        platform.run_until(cfg.duration)
        routers = platform.routers.values()
        for router in routers:
            by_method = {}
            for entry in router.neighbors.values():
                assert by_method.setdefault(entry.best_method, entry.link_key) is entry.link_key
        tuples = {id(route) for router in routers for route in router.routes.values()}
        assert len(tuples) <= max_tuples


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

    def hello_only_window(self, hello_interval):
        # the link forms through walk delivery at t=0 (reply and tables go
        # into the first window); with no later walk and no periodic update
        # before t=20, the window (10, 20] carries hellos and nothing else
        cfg = SimConfig(n_agents=20, duration=20.0, methods=TEXT_ONLY, seed=1,
                        discovery_interval=1e9,
                        timers=RouterTimers(hello_interval, 3 * hello_interval, 1e6))
        platform = Platform(cfg)
        a, b = sorted(platform.routers)
        platform._on_walk_deliver(b, (a, 0), 0.0)
        platform.run_until(20.0)
        return platform.frames[1]

    def test_hello_stream_usage(self):
        # one 32-byte hello each way per 10 s on an 80 bit/s link:
        # 512 bits / (80 bit/s * 10 s) = 0.64, below saturation
        f = self.hello_only_window(10.0)
        assert f.capacity_usage == 0.64
        assert f.saturated_link_fraction == 0.0
        assert f.routing_overhead_per_link_bps == 51.2

    def test_hellos_alone_saturate_text_link(self):
        # every 5 s: two hellos each way in 10 s, 1024 bits against 800
        f = self.hello_only_window(5.0)
        assert f.capacity_usage == 1.28
        assert f.saturated_link_fraction == 1.0
        assert f.routing_overhead_per_link_bps == 102.4

    def test_full_table_saturates_text_link(self):
        # a 100-row update is 2416 bytes; against 80 bit/s * 30 s = 2400 bits
        # the link is past capacity for the window
        platform = self.make_two_sa_platform()
        a, b = sorted(platform.routers)
        sizes = platform.config.sizes
        payload = sizes.update_header + sizes.update_entry * 100
        assert payload == 2416
        platform._send("routing_update", a, b, payload)
        f = platform._measure(30.0)
        assert f.saturated_link_fraction == 1.0

    def test_link_at_exactly_capacity_is_saturated(self):
        # one 200 bit/s link formed at 0 and two beacons from each end in
        # (0, 10]: the hello bound is 2 * 2 * 256 = 1,024 bits, and a
        # 122-byte discovery message puts 976 more on the link, so bits
        # plus bound reach the 2,000-bit capacity exactly and the link,
        # with its 1,024 hello bits, carries exactly its capacity
        methods = (StegMethodProfile("m", "M", 200, 0.0, 1.0, 1),)
        platform = Platform(SimConfig(n_agents=20, methods=methods, seed=1))
        a, b = sorted(platform.routers)
        assert platform.form_link(a, b, 0.0)
        for now in (4.0, 8.0):
            platform._on_hello(a, now)
            platform._on_hello(b, now)
        platform._send("discovery", a, b, 122)
        f = platform._measure(10.0)
        assert f.capacity_usage == 1.0
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


@st.composite
def sa_populations(draw):
    """A catalogue width and the capability masks of 0-40 alive SAs; about
    half the SAs hold a single method, and the masks of the rest are drawn
    freely, so some share no bit with any other SA."""
    width = draw(st.integers(1, 16))
    single = st.integers(0, width - 1).map(lambda bit: 1 << bit)
    masks = draw(st.lists(st.one_of(single, st.integers(1, (1 << width) - 1)), max_size=40))
    return width, masks


def components_by_bfs(masks):
    """Ordered pairs of SAs joined by a path of links, two SAs being linked
    when their masks share a bit."""
    unseen = set(range(len(masks)))
    pairs = 0
    while unseen:
        frontier = [unseen.pop()]
        size = 1
        while frontier:
            a = frontier.pop()
            linked = [b for b in unseen if masks[a] & masks[b]]
            unseen.difference_update(linked)
            frontier.extend(linked)
            size += len(linked)
        pairs += size * (size - 1)
    return pairs


class TestTopology:
    def test_rebuilt_only_when_the_steg_agents_change(self, monkeypatch):
        # ordinary agents leave and join far more often than steg agents,
        # and the topology counts steg agents only
        seen = []
        build = sim._build_topology

        def recording(alive_sas, mask, bw_by_mask):
            seen.append(list(alive_sas))
            return build(alive_sas, mask, bw_by_mask)

        monkeypatch.setattr(sim, "_build_topology", recording)
        run(SimConfig(n_agents=250, seed=1, migration_rate=0.0166667))
        assert len(seen) > 1
        assert all(before != after for before, after in zip(seen, seen[1:]))

    @given(sa_populations(), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    @example((3, [0b001, 0b010, 0b100]), False, random.Random(0))  # three isolated single-method SAs
    @example((3, [0b001, 0b011, 0b110, 0b100]), True, random.Random(0))  # a chain joined by multi-method SAs
    @example((4, [0b0001, 0b0001, 0b0110, 0b1000, 0b1000, 0b1000]), True, random.Random(1))
    def test_matches_brute_force(self, population, fractional, rng):
        width, masks = population
        # any table of the catalogue's width: a distinct integer per mask,
        # or fractional bandwidths whose float sums round
        if fractional:
            bw_by_mask = [0.0] + [rng.uniform(0.0, 1e6) for _ in range(1, 1 << width)]
        else:
            bw_by_mask = [float(m) for m in range(1 << width)]
        n_links, sum_best_bw, connected_pairs = _build_topology(
            range(len(masks)), dict(enumerate(masks)), bw_by_mask)
        pairs = [(a, b) for a in range(len(masks)) for b in range(a + 1, len(masks))]
        assert connected_pairs == components_by_bfs(masks)
        assert n_links == sum(1 for a, b in pairs if masks[a] & masks[b])
        assert sum_best_bw == float(
            sum(Fraction(bw_by_mask[masks[a] & masks[b]]) for a, b in pairs))

    @pytest.mark.parametrize("catalogue", [DEFAULT_METHODS, dyadic_delay_methods(1), TEXT_ONLY],
                             ids=["default", "dyadic", "text-only"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_bandwidth_sum_is_the_numpy_sum_on_integer_catalogues(self, preset, catalogue):
        # the former formula: numpy's pairwise sum over the upper triangle of
        # the SA-by-SA mask intersections, in the order of the alive SAs; its
        # partial sums are exact on an integer-valued catalogue, so the exact
        # sum matches it bit for bit and no report moves
        platform = Platform(SimConfig(**PRESETS[preset], methods=catalogue, seed=5))
        masks = np.fromiter((platform._mask[a] for a in platform.routers), dtype=np.int64)
        pair = np.bitwise_and.outer(masks, masks)
        np.fill_diagonal(pair, 0)
        upper = pair[np.triu_indices(len(masks), 1)]
        bw = platform._bw_by_mask
        numpy_sum = float(np.array([bw[m] if m else 0.0 for m in upper.tolist()]).sum())
        n_links, sum_best_bw, _ = _build_topology(platform.routers, platform._mask, bw)
        assert sum_best_bw.hex() == numpy_sum.hex()
        assert n_links == int((upper != 0).sum())

    def test_best_bandwidth_table_matches_best_method_on_link(self):
        # few distinct bandwidths and delays, so the one-hop keys often tie on them
        rng = random.Random(9)
        for width in [*range(1, 11), *range(1, 11), 16, 16]:
            ranks = rng.sample(range(1, 100), width)
            table = method_table(
                StegMethodProfile(f"m{i}", f"M{i}", rng.choice((40, 80, 100.5)),
                                  rng.choice((0.0, 0.5)), 0.5, ranks[i])
                for i in range(width))
            ids = list(table)
            lazy = sim._BestBandwidth(table)
            assert not lazy  # filled on first use
            for mask in range(1, 1 << width):
                shared = [m for i, m in enumerate(ids) if mask >> i & 1]
                # the best method is the widest: bandwidth leads the one-hop key
                assert lazy[mask] == table[best_method_on_link(shared, table)].bandwidth_bps
                assert lazy[mask] == max(table[m].bandwidth_bps for m in shared)
            assert len(lazy) == (1 << width) - 1


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

    def test_failed_write_leaves_no_file(self, tmp_path):
        # a lone surrogate cannot be encoded: the error propagates, and
        # neither the target nor the temp file is left behind
        with pytest.raises(UnicodeEncodeError):
            sim.atomic_write_text(str(tmp_path / "out.txt"), "\udcff")
        assert not list(tmp_path.iterdir())

    def test_write_error_survives_a_vanished_temp_file(self, tmp_path, monkeypatch):
        # the temp file is gone when the rename fails: the rename's error
        # propagates, not the clean-up's
        def replace(src, dst):
            os.unlink(src)
            raise PermissionError("rename refused")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(PermissionError, match="rename refused"):
            sim.atomic_write_text(str(tmp_path / "out.txt"), "text")
        assert not list(tmp_path.iterdir())

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
