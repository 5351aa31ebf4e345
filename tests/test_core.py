"""Data-model tests: method profiles, capability draws, steg-links as the
routers and the platform form them, message sizes."""

import dataclasses
import math
import random

import pytest

from stegrouter.core import (
    DEFAULT_METHODS,
    MessageSizes,
    StegMethodProfile,
    derive_capabilities,
    method_table,
)
from stegrouter.router import StegRouter
from stegrouter.sim import Platform, SimConfig

PROFILES = method_table(DEFAULT_METHODS)
# one universally shared method: every SA pair can link
TEXT_ONLY = (StegMethodProfile("text", "Text", 80, 0.0, 1.0, 6),)


class TestMethodCatalogue:
    def test_default_table_contents(self):
        table = method_table(DEFAULT_METHODS)
        assert set(table) == {"internet", "hiccups", "image", "video", "audio", "text"}
        expected = {
            # id: (bandwidth_bps, delay_s, occurrence)
            "internet": (300000, 0.0, 0.90),
            "hiccups": (225000, 0.0, 0.05),
            "image": (100, 0.0, 0.10),
            "video": (100, 0.0, 0.10),
            "audio": (80, 0.0, 0.10),
            "text": (80, 0.0, 0.05),
        }
        for method_id, (bw, delay, occ) in expected.items():
            profile = table[method_id]
            assert profile.bandwidth_bps == bw
            assert profile.delay_s == delay
            assert profile.occurrence == occ

    def test_preference_ranks_are_unique_and_ordered(self):
        ranks = [p.preference_rank for p in DEFAULT_METHODS]
        assert sorted(ranks) == list(range(1, len(DEFAULT_METHODS) + 1))
        # higher bandwidth never gets a worse (larger) rank than a slower method
        by_rank = sorted(DEFAULT_METHODS, key=lambda p: p.preference_rank)
        bandwidths = [p.bandwidth_bps for p in by_rank]
        assert bandwidths == sorted(bandwidths, reverse=True)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            StegMethodProfile("x", "X", bandwidth_bps=0, delay_s=0.0, occurrence=0.5,
                              preference_rank=1)
        with pytest.raises(ValueError):
            StegMethodProfile("x", "X", bandwidth_bps=10, delay_s=-1.0, occurrence=0.5,
                              preference_rank=1)
        with pytest.raises(ValueError):
            StegMethodProfile("x", "X", bandwidth_bps=10, delay_s=0.0, occurrence=1.5,
                              preference_rank=1)
        for bandwidth, delay in ((math.inf, 0.0), (math.nan, 0.0), (10, math.inf), (10, math.nan)):
            with pytest.raises(ValueError):
                StegMethodProfile("x", "X", bandwidth_bps=bandwidth, delay_s=delay,
                                  occurrence=0.5, preference_rank=1)

    def test_duplicate_ids_rejected(self):
        twin = DEFAULT_METHODS[0]
        with pytest.raises(ValueError):
            method_table((twin, twin))

    def test_ranks_start_at_one_and_differ(self):
        with pytest.raises(ValueError, match="preference_rank"):
            StegMethodProfile("x", "X", bandwidth_bps=10, delay_s=0.0, occurrence=0.5,
                              preference_rank=0)
        first, second = DEFAULT_METHODS[:2]
        with pytest.raises(ValueError, match="duplicate preference rank"):
            method_table((first, dataclasses.replace(second, preference_rank=1)))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            method_table(())


class TestDeriveCapabilities:
    def test_all_probabilities_one_gives_full_set(self):
        certain = tuple(
            StegMethodProfile(p.id, p.name, p.bandwidth_bps, p.delay_s, 1.0,
                              p.preference_rank)
            for p in DEFAULT_METHODS
        )
        caps = derive_capabilities(random.Random(1), certain)
        assert caps == frozenset(p.id for p in DEFAULT_METHODS)

    def test_internet_inclusion_rate(self):
        # occurrence 0.9 for the internet method: inclusion rate 0.9 +/- 0.01.
        # An always-present filler method keeps the redraw loop from ever
        # triggering, so the marginal is the raw Bernoulli parameter.
        catalogue = tuple(
            p if p.id != "text"
            else StegMethodProfile(p.id, p.name, p.bandwidth_bps, p.delay_s, 1.0,
                                   p.preference_rank)
            for p in DEFAULT_METHODS
        )
        rng = random.Random(71)
        draws = 100_000
        hits = sum("internet" in derive_capabilities(rng, catalogue)
                   for _ in range(draws))
        assert abs(hits / draws - 0.9) < 0.01

    def test_inclusion_rate_conditioned_on_nonempty(self):
        # With the full default catalogue the nonempty redraw conditions the
        # marginal upward: P(present | nonempty) = occurrence / (1 - P(empty)).
        p_empty = 1.0
        for p in DEFAULT_METHODS:
            p_empty *= 1.0 - p.occurrence
        expected = 0.9 / (1.0 - p_empty)
        rng = random.Random(71)
        draws = 100_000
        hits = sum("internet" in derive_capabilities(rng) for _ in range(draws))
        assert abs(hits / draws - expected) < 0.01

    def test_redraw_guarantees_nonempty(self):
        rare = tuple(
            StegMethodProfile(p.id, p.name, p.bandwidth_bps, p.delay_s, 1e-6,
                              p.preference_rank)
            for p in DEFAULT_METHODS
        )
        for seed in range(20):
            assert derive_capabilities(random.Random(seed), rare)


class TestStegLink:
    """A steg-link exists exactly between two live steg agents whose
    capability sets intersect; it carries the best shared method."""

    def test_shared_method_intersection(self):
        x = StegRouter(1, frozenset({"image", "internet"}), PROFILES)
        y = StegRouter(2, frozenset({"image", "audio"}), PROFILES)
        assert x.ingest_discovery(2, y.capabilities, now=0.0)
        assert y.ingest_discovery(1, x.capabilities, now=0.0)
        # only image is shared: neither endpoint may use internet or audio
        assert x.neighbors[2].best_method == "image"
        assert y.neighbors[1].best_method == "image"

    def test_no_shared_method(self):
        x = StegRouter(1, frozenset({"image"}), PROFILES)
        assert x.ingest_discovery(2, frozenset({"audio"}), now=0.0) is False
        assert not x.neighbors

    def test_ordinary_agents_never_link(self):
        platform = Platform(SimConfig(n_agents=50, duration=120.0, methods=TEXT_ONLY, seed=3))
        steg = set(platform.routers)
        ordinary = set(platform._alive) - steg
        assert len(steg) == 5 and len(ordinary) == 45
        platform.run_until(120.0)
        assert any(router.neighbors for router in platform.routers.values())
        for router in platform.routers.values():
            assert set(router.neighbors) <= steg

    def test_dead_or_self_never_link(self):
        x = StegRouter(1, frozenset({"internet"}), PROFILES)
        assert x.ingest_discovery(1, frozenset({"internet"}), now=0.0) is False
        assert not x.neighbors
        # a walk from a departed originator, or ending at a departed
        # holder, forms nothing
        platform = Platform(SimConfig(n_agents=50, duration=60.0, methods=TEXT_ONLY, seed=3))
        a, b, c = sorted(platform.routers)[:3]
        platform.remove_agent(b)
        platform._on_walk_deliver(a, (b, 1), 0.0)
        platform._on_walk_deliver(b, (c, 1), 0.0)
        assert not platform.routers[a].neighbors
        assert not platform.routers[c].neighbors


class TestMessages:
    def test_wire_size_defaults(self):
        sizes = MessageSizes()
        assert (sizes.discovery, sizes.hello) == (64, 32)
        assert (sizes.update_header, sizes.update_entry) == (16, 24)

    def test_sizes_must_be_positive(self):
        with pytest.raises(ValueError):
            MessageSizes(discovery=0)
        with pytest.raises(ValueError):
            MessageSizes(update_entry=-1)

    def test_discovery_message_carries_embedded_advertisement(self):
        # a walk delivers the originator's id and capabilities to the final
        # holder, which links to it; every hop costs one 64-byte carrier
        # message, and so does the holder's reply over the new link
        events = []
        platform = Platform(
            SimConfig(n_agents=50, duration=60.0, methods=TEXT_ONLY, seed=3),
            trace=lambda *row: events.append(row),
        )
        a, b = sorted(platform.routers)[:2]
        platform._on_walk_deliver(b, (a, 3), 0.0)
        assert platform.routers[b].neighbors[a].best_method == "text"
        assert platform.routers[a].neighbors[b].best_method == "text"
        discovery = [row[1:] for row in events if row[1] == "discovery"]
        assert discovery == [("discovery", a, b, 3, 3 * 64), ("discovery", b, a, 1, 64)]


class TestAgentRecord:
    """Membership: an alive agent is a steg agent exactly when it has a
    router, which holds its non-empty capability set."""

    def test_ordinary_agent_has_no_capabilities(self):
        cfg = SimConfig(n_agents=60, duration=600.0, migration_rate=1 / 30, seed=5)
        platform = Platform(cfg)
        platform.run_until(600.0)
        assert platform._next_id > 60  # replacements joined
        ordinary = set(platform._alive) - set(platform.routers)
        assert len(ordinary) == 60 - cfg.n_steg_agents
        # no capability mask, so no steg-link, for any ordinary agent
        assert set(platform._mask) >= set(platform.routers)
        assert not ordinary & set(platform._mask)

    def test_steg_agent_needs_capabilities(self):
        rare = tuple(
            StegMethodProfile(p.id, p.name, p.bandwidth_bps, p.delay_s, 0.01,
                              p.preference_rank)
            for p in DEFAULT_METHODS
        )
        rng = random.Random(4)
        for _ in range(200):
            assert derive_capabilities(rng, rare)
        platform = Platform(SimConfig(n_agents=100, methods=rare, seed=4))
        assert len(platform.routers) == 10
        assert all(router.capabilities for router in platform.routers.values())
