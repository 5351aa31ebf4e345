"""Distance-vector router tests: link keys, route order and path joining,
neighbor lifecycle, update exchange, path resolution, and oracle
equivalence."""

import hashlib
import json
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stegrouter import router as router_module
from stegrouter.core import (
    DEFAULT_METHODS,
    MessageSizes,
    StegMethodProfile,
    derive_capabilities,
    method_table,
)
from stegrouter.router import (
    SELF_KEY,
    UNSEEN,
    RouterTimers,
    StegRouter,
    best_method_on_link,
    reference_tables,
    resolve_steg_path,
)
from stegrouter.sim import SimConfig, run, run_report_lines

from harness import (
    DEFAULT_TABLE,
    DYADIC_DELAYS,
    SPARSE_METHODS,
    build_routers,
    converge,
    dyadic_delay_methods,
    protocol_tables,
    random_population,
    reference_tables_per_agent,
    run_in_child,
    run_rounds,
)


def fresh_router(agent_id=1, caps=("internet",), **kwargs):
    return StegRouter(agent_id, frozenset(caps), DEFAULT_TABLE, **kwargs)


def join(a, b):
    """Key of a path made of segment a followed by segment b."""
    return (max(a[0], b[0]), a[1] + b[1], max(a[2], b[2]), a[3] + b[3])


def route_heard(adverts, order=None):
    """Receiver 1 hears senders over internet links (300 kbps, no delay,
    rank 1), each advertising destination 9 with the wire row (bottleneck,
    delay, rank, hops) in `adverts`; tables are processed in `order`.
    Returns the receiver's route to 9 as (next hop, key)."""
    receiver = fresh_router(1)
    for sender_id in order or sorted(adverts):
        sender = fresh_router(sender_id)
        sender.ingest_discovery(1, receiver.capabilities, 0.0)
        receiver.ingest_discovery(sender_id, sender.capabilities, 0.0)
        bw, delay, rank, hops = adverts[sender_id]
        sender.routes[9] = (8, (-bw, delay, rank, hops))
        sender._via[8] = 1  # the route count that build_update copies
        receiver.process_update(sender.build_update(0.0), 0.0)
    return receiver.routes[9]


class TestLinkMetrics:
    def test_image_link(self):
        r = fresh_router(1, ("image",))
        r.ingest_discovery(2, frozenset({"image"}), now=0.0)
        assert r.neighbors[2].link_key == (-100, 0.0, DEFAULT_TABLE["image"].preference_rank, 1)

    def test_hiccups_link(self):
        r = fresh_router(1, ("hiccups",))
        r.ingest_discovery(2, frozenset({"hiccups"}), now=0.0)
        key = r.neighbors[2].link_key
        assert key[0] == -225000
        assert key[3] == 1

    def test_method_not_on_link(self):
        # 1 also has internet, but only image is shared: the route to 2
        # uses image and image's one-hop metric
        routers = converge({1: frozenset({"internet", "image"}),
                            2: frozenset({"image", "audio"})})
        next_hop, key = routers[1].routes[2]
        assert routers[1].neighbors[next_hop].best_method == "image"
        assert key == (-100, 0.0, DEFAULT_TABLE["image"].preference_rank, 1)

    def test_best_method_prefers_bandwidth(self):
        assert best_method_on_link({"image", "audio"}, DEFAULT_TABLE) == "image"

    def test_best_method_singleton(self):
        assert best_method_on_link({"internet"}, DEFAULT_TABLE) == "internet"

    def test_best_method_rank_breaks_bandwidth_tie(self):
        # image and video share bandwidth 100 and delay 0; image has the
        # lower preference rank under the default catalogue
        assert best_method_on_link({"image", "video"}, DEFAULT_TABLE) == "image"


class TestMetricOrder:
    """Receiver 1 hears senders 2 and 3, whose candidates for one
    destination differ in exactly one key component.  The better one wins
    whichever sender offers it and whichever table arrives first."""

    def assert_better(self, better, worse):
        for order in ((2, 3), (3, 2)):
            assert route_heard({2: better, 3: worse}, order)[0] == 2
            assert route_heard({2: worse, 3: better}, order)[0] == 3
        bw, delay, rank, hops = better
        assert route_heard({2: better, 3: worse}) == (2, (-bw, delay, rank, hops + 1))

    def test_capacity_dominates(self):
        self.assert_better((200, 0.0, 2, 3), (100, 0.0, 2, 3))

    def test_delay_breaks_capacity_tie(self):
        self.assert_better((100, 0.0, 2, 1), (100, 5.0, 2, 1))

    def test_rank_breaks_delay_tie(self):
        self.assert_better((100, 0.0, 3, 1), (100, 0.0, 4, 1))

    def test_hops_break_rank_tie(self):
        self.assert_better((100, 0.0, 3, 1), (100, 0.0, 3, 2))

    def test_identical_metrics_tie(self):
        # equal candidates: the lower next-hop id wins in either order
        same = (80, 1.0, 6, 4)
        for order in ((2, 3), (3, 2)):
            assert route_heard({2: same, 3: same}, order) == (2, (-80, 1.0, 6, 5))


# Chains of one distinct method per link, with exactly representable delays.
LINKS = st.lists(
    st.tuples(st.sampled_from([80.0, 100.0, 225000.0, 300000.0]),
              st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.5])),
    min_size=2, max_size=7,
)


def chain(links):
    """Line topology 0 - 1 - ... - n: link i joins agents i and i+1 with
    its own method, so the only path between two agents is along the line."""
    methods = [StegMethodProfile(f"m{i}", f"M{i}", bw, delay, 1.0, i + 1)
               for i, (bw, delay) in enumerate(links)]
    capabilities = {
        agent: frozenset(m.id for m in methods[max(agent - 1, 0):agent + 1])
        for agent in range(len(links) + 1)
    }
    return converge(capabilities, profiles=method_table(methods)), methods


class TestMetricCombine:
    """A route's key is its path's links joined: the narrowest bottleneck,
    the summed delay, the worst rank and the hop count."""

    def test_join_example(self):
        # an internet hop (300 kbps, rank 1) joined to a 100 bps rank-3 hop
        _, key = route_heard({2: (100, 0.0, 3, 1)})
        assert key == (-100, 0.0, 3, 2)

    def test_zero_metric_is_identity(self):
        # the self row (inf, 0, 0, 0) joined to a link is that link alone:
        # the route to a neighbor heard directly carries the link's key
        table = method_table(dyadic_delay_methods(3))
        for method, profile in table.items():
            a = StegRouter(1, frozenset({method}), table)
            b = StegRouter(2, frozenset({method}), table)
            a.ingest_discovery(2, b.capabilities, 0.0)
            b.ingest_discovery(1, a.capabilities, 0.0)
            a.process_update(b.build_update(0.0), 0.0)
            assert a.routes[2][1] == a.neighbors[2].link_key == (
                -profile.bandwidth_bps, profile.delay_s, profile.preference_rank, 1)

    @given(LINKS)
    @settings(max_examples=40, deadline=None)
    def test_associative(self, links):
        # the route 0 -> k equals the join of routes 0 -> j and j -> k at
        # every split point j, and the join of all its links
        routers, methods = chain(links)
        one_hop = [(-m.bandwidth_bps, m.delay_s, m.preference_rank, 1) for m in methods]
        for k in range(1, len(links) + 1):
            whole = routers[0].routes[k][1]
            folded = one_hop[0]
            for link_key in one_hop[1:k]:
                folded = join(folded, link_key)
            assert whole == folded
            for j in range(1, k):
                assert whole == join(routers[0].routes[j][1], routers[j].routes[k][1])

    def test_joining_never_improves(self):
        # at the fixed point every route is its first link joined to the
        # next hop's own route (the self row when the next hop is the
        # destination), and so is no better in any component
        for seed in range(8):
            routers = converge(random_population(seed, max_agents=12))
            for agent, router in routers.items():
                for dest, (hop, key) in router.routes.items():
                    rest = (-math.inf, 0.0, 0, 0) if hop == dest else routers[hop].routes[dest][1]
                    assert key == join(router.neighbors[hop].link_key, rest)
                    assert key[0] >= rest[0] and key[1] >= rest[1]
                    assert key[2] >= rest[2] and key[3] == rest[3] + 1


class TestTimers:
    def test_defaults(self):
        t = RouterTimers()
        assert (t.hello_interval, t.hold_time, t.update_interval) == (5.0, 15.0, 30.0)

    def test_hold_must_exceed_hello(self):
        with pytest.raises(ValueError):
            RouterTimers(hello_interval=10.0, hold_time=10.0)

    def test_intervals_positive(self):
        with pytest.raises(ValueError):
            RouterTimers(hello_interval=0.0)
        with pytest.raises(ValueError):
            RouterTimers(update_interval=-5.0)


class TestNeighborLifecycle:
    def test_shared_method_forms_neighbor(self):
        r = fresh_router(1, ("internet", "image"))
        assert r.ingest_discovery(2, frozenset({"image"}), now=0.0) is True
        assert r.neighbors[2].best_method == "image"
        assert set(r.hello_tick(0.0)) == {2}

    def test_no_shared_method_no_neighbor(self):
        r = fresh_router(1, ("internet",))
        assert r.ingest_discovery(2, frozenset({"image"}), now=0.0) is False
        assert not r.neighbors

    def test_own_advertisement_ignored(self):
        r = fresh_router(1)
        assert r.ingest_discovery(1, frozenset({"internet"}), now=0.0) is False

    def test_repeat_advertisement_refreshes_only(self):
        r = fresh_router(1)
        assert r.ingest_discovery(2, frozenset({"internet"}), now=0.0)
        assert r.ingest_discovery(2, frozenset({"internet"}), now=4.0) is False
        assert len(r.neighbors) == 2 - 1
        assert r.neighbors[2].last_hello_at == 4.0

    def test_hold_time_boundary(self):
        r = fresh_router(1)
        r.ingest_discovery(2, frozenset({"internet"}), now=0.0)
        hold = r.timers.hold_time
        assert set(r.hello_tick(hold)) == {2}
        assert not r.hello_tick(hold + 1e-9)

    def test_hello_keeps_neighbor_alive(self):
        r = fresh_router(1)
        r.ingest_discovery(2, frozenset({"internet"}), now=0.0)
        for t in (5.0, 10.0, 15.0, 20.0):
            r.receive_hello(2, t)
        assert set(r.hello_tick(22.0)) == {2}

    def test_late_hello_never_moves_last_heard_back(self):
        r = fresh_router(1)
        r.ingest_discovery(2, frozenset({"internet"}), now=0.0)
        r.receive_hello(2, 10.0)
        r.receive_hello(2, 4.0)
        assert r.neighbors[2].last_hello_at == 10.0

    def test_silent_neighbor_expires(self):
        r = fresh_router(1)
        r.ingest_discovery(2, frozenset({"internet"}), now=0.0)
        assert not r.hello_tick(20.0)

    def test_hello_tick_addresses_up_neighbors_only(self):
        r = fresh_router(1)
        r.ingest_discovery(2, frozenset({"internet"}), now=0.0)
        r.ingest_discovery(3, frozenset({"internet"}), now=0.0)
        r.receive_hello(3, 10.0)
        # at t=20 neighbor 2 (silent since 0) is past hold; 3 is fresh
        assert set(r.hello_tick(20.0)) == {3}

    def test_hello_tick_never_invalidates_routes(self):
        # a stale next hop is only dropped by the explicit expiry sweep at
        # table-emission time, never as a side effect of the hello beat
        routers = converge({1: frozenset({"internet"}), 2: frozenset({"internet"}),
                            3: frozenset({"internet"})})
        r1 = routers[1]
        assert set(r1.routes) == {2, 3}
        version = r1._base + len(r1._log)
        assert not r1.hello_tick(50.0)
        assert set(r1.routes) == {2, 3}
        assert r1._base + len(r1._log) == version

    def test_rediscovery_after_expiry_reforms(self):
        r, peer = fresh_router(1), fresh_router(2)
        r.ingest_discovery(2, frozenset({"internet"}), now=0.0)
        peer.ingest_discovery(1, frozenset({"internet"}), now=0.0)
        assert r.process_update(peer.build_update(0.0), 0.0)
        assert r.neighbors[2].seen_version == 0
        assert r.ingest_discovery(2, frozenset({"internet"}), now=100.0) is True
        # the re-formed link drops the marks, so 2's next table is applied in full
        assert r.neighbors[2].seen_version == UNSEEN

    def test_expiry_prunes_routes_silently(self):
        routers = converge({1: frozenset({"internet"}), 2: frozenset({"internet"}),
                            3: frozenset({"internet"})})
        r1 = routers[1]
        assert set(r1.routes) == {2, 3}
        version = r1._base + len(r1._log)
        # neighbor 2 goes silent; 3 keeps helloing
        r1.receive_hello(3, 16.0)
        expired = r1.expire_check(16.0)
        assert expired == [2]
        assert 2 not in r1.routes
        assert r1._base + len(r1._log) == version + 1
        # the expired entry is deleted, so a second check reports nothing
        # and changes nothing
        assert 2 not in r1.neighbors
        assert r1.expire_check(16.5) == []
        assert r1._base + len(r1._log) == version + 1
        # the marks of 2's last processed table went with its entry: the
        # re-formed link's entry has none, so 2's next table is applied in full
        assert r1.ingest_discovery(2, frozenset({"internet"}), now=17.0)
        assert r1.neighbors[2].seen_version == UNSEEN


class TestBuildUpdate:
    def test_nobody_to_talk_to(self):
        assert fresh_router(1).build_update(0.0) is None

    def test_empty_table_single_neighbor(self):
        r = fresh_router(1)
        r.ingest_discovery(2, frozenset({"internet"}), now=0.0)
        batch = r.build_update(0.0)
        assert batch.routes == {1: (None, SELF_KEY)}
        assert batch.row_count_for(2) == 1
        sizes = MessageSizes()
        assert sizes.update_header + sizes.update_entry * batch.row_count_for(2) == 40

    def test_one_message_per_up_neighbor(self):
        # an emission addresses the neighbor entries that build_update's
        # expiry check leaves: every Up neighbor, in the order met
        r = fresh_router(1)
        for peer in (4, 2, 9):
            r.ingest_discovery(peer, frozenset({"internet"}), now=0.0)
        r.build_update(0.0)
        assert list(r.neighbors) == [4, 2, 9]
        r.receive_hello(4, 10.0)
        r.receive_hello(9, 10.0)
        r.build_update(20.0)
        assert list(r.neighbors) == [4, 9]

    def test_split_horizon_omits_routes_learned_from_receiver(self):
        # star with center 1: leaves 2 and 3; center learns each leaf from
        # itself, so the update toward a leaf must omit that leaf's row
        routers = converge({1: frozenset({"internet"}),
                            2: frozenset({"internet"}),
                            3: frozenset({"internet"})})
        batch = routers[1].build_update(0.0)
        assert {dest: hop for dest, (hop, _) in batch.routes.items()} == {2: 2, 3: 3, 1: None}
        assert batch.group_sizes == {2: 1, 3: 1}
        assert batch.row_count_for(2) == batch.row_count_for(3) == 2

    def test_snapshot_reused_until_table_changes(self):
        r = fresh_router(1)
        r.ingest_discovery(2, frozenset({"internet"}), now=0.0)
        first = r.build_update(0.0)
        # an unchanged table snapshots to the same contents and version
        again = r.build_update(1.0)
        assert (again.sender_version, again.routes) == (first.sender_version, first.routes)
        # a table change shows in the next snapshot and bumps its version
        peer = fresh_router(2)
        peer.ingest_discovery(1, frozenset({"internet"}), now=0.0)
        r.process_update(peer.build_update(0.0), now=1.5)
        later = r.build_update(2.0)
        assert later.sender_version == first.sender_version + 1
        assert first.routes == {1: (None, SELF_KEY)}
        # the self row comes last
        assert list(later.routes.items()) == [(2, (2, (-300_000, 0.0, 1, 1))), (1, (None, SELF_KEY))]
        assert later.row_count_for(2) == 1 and later.row_count_for(3) == 2

    def test_batch_keeps_rows_after_table_changes(self):
        # a batch is a snapshot: the sender's later table changes do not
        # reach a batch built before them, whose delivery may come later
        routers = converge({1: frozenset({"internet"}), 2: frozenset({"internet"}),
                            3: frozenset({"internet"})})
        r1 = routers[1]
        batch = r1.build_update(0.0)
        before = dict(batch.routes)
        assert list(before) == [2, 3, 1]
        r1.expire_check(r1.timers.hold_time + 1.0)
        assert not r1.routes
        assert batch.routes == before
        assert batch.row_count_for(2) == 2


class TestProcessUpdate:
    def two_routers(self):
        a, b = fresh_router(1), fresh_router(2)
        a.ingest_discovery(2, frozenset({"internet"}), now=0.0)
        b.ingest_discovery(1, frozenset({"internet"}), now=0.0)
        return a, b

    def test_install_into_empty_table(self):
        a, b = self.two_routers()
        assert a.process_update(b.build_update(0.0), now=0.0) is True
        assert a.routes[2] == (2, (-300000, 0.0, 1, 1))
        assert a.neighbors[2].best_method == "internet"

    def test_never_routes_to_self(self):
        a, b = self.two_routers()
        b.process_update(a.build_update(0.0), now=0.0)
        a.process_update(b.build_update(0.0), now=0.0)
        # b's table now lists 1; a must not adopt a route to itself
        assert b.routes.keys() == {1}
        a.process_update(b.build_update(0.0), now=0.0)
        assert 1 not in a.routes

    def test_update_from_unknown_sender_ignored(self):
        a, _ = self.two_routers()
        stranger = fresh_router(9)
        stranger.ingest_discovery(1, frozenset({"internet"}), now=0.0)
        assert a.process_update(stranger.build_update(0.0), now=0.0) is False
        assert not a.routes

    def test_reprocessing_same_snapshot_is_noop(self):
        a, b = self.two_routers()
        batch = b.build_update(0.0)
        assert a.process_update(batch, now=0.0) is True
        version = a._base + len(a._log)
        assert a.process_update(batch, now=0.5) is False
        assert a._base + len(a._log) == version

    def test_two_hop_bottleneck(self):
        # 1 -(internet)- 2 -(text)- 3: route 1->3 squeezes to the text link
        routers = converge({1: frozenset({"internet"}),
                            2: frozenset({"internet", "text"}),
                            3: frozenset({"text"})})
        assert routers[1].routes[3] == (2, (-80, 0.0, DEFAULT_TABLE["text"].preference_rank, 2))

    def test_worse_candidate_leaves_table_unchanged(self):
        # 1 has a direct internet link to 3 and a text detour via 2
        routers = converge({1: frozenset({"internet", "text"}),
                            2: frozenset({"text"}),
                            3: frozenset({"internet", "text"})})
        next_hop, key = routers[1].routes[3]
        assert next_hop == 3
        assert key[0] == -300000

    def test_equal_paths_prefer_lower_next_hop_id(self):
        # relays 2 and 3 offer identical image+audio two-hop paths 1 -> 4;
        # the tie must fall to the lower relay id
        routers = converge({1: frozenset({"image"}),
                            2: frozenset({"image", "audio"}),
                            3: frozenset({"image", "audio"}),
                            4: frozenset({"audio"})})
        assert routers[1].routes[4][0] == 2

    def test_withdrawal_removes_destination(self):
        a, b = self.two_routers()
        c = fresh_router(3)
        b.ingest_discovery(3, frozenset({"internet"}), now=0.0)
        c.ingest_discovery(2, frozenset({"internet"}), now=0.0)
        b.process_update(c.build_update(0.0), now=0.0)
        a.process_update(b.build_update(0.0), now=0.0)
        assert 3 in a.routes
        # 3 goes silent at b while the a-b adjacency stays fresh; b's next
        # snapshot stops listing 3 and a withdraws it
        b.receive_hello(1, 16.0)
        a.receive_hello(2, 16.0)
        b.expire_check(16.0)
        assert a.process_update(b.build_update(16.0), now=16.0) is True
        assert 3 not in a.routes

    def test_hop_limit_caps_reach(self):
        chain = {i: frozenset({"internet"}) for i in range(8)}
        routers = build_routers(chain, hop_limit=5)
        ids = sorted(routers)
        # line topology: only adjacent ids are ever introduced
        for near, far in zip(ids, ids[1:]):
            routers[near].ingest_discovery(far, routers[far].capabilities, 0.0)
            routers[far].ingest_discovery(near, routers[near].capabilities, 0.0)
        run_rounds(routers)
        assert set(routers[0].routes) == {1, 2, 3, 4, 5}
        assert 6 not in routers[0].routes and 7 not in routers[0].routes

    def test_convergence_is_idempotent(self):
        routers = converge({i: frozenset({"internet"}) for i in range(6)})
        versions = {i: r._base + len(r._log) for i, r in routers.items()}
        run_rounds(routers)
        assert versions == {i: r._base + len(r._log) for i, r in routers.items()}

    def test_unreachable_destination_forgotten_quickly(self):
        # losing the only path: withdrawal propagates along the chain in one
        # update round per hop, with no transient count-to-infinity loop
        chain = {1: frozenset({"image"}),
                 2: frozenset({"image", "audio"}),
                 3: frozenset({"audio"})}
        routers = converge(chain)
        assert 3 in routers[1].routes
        # 3 goes silent at 2
        routers[2].receive_hello(1, 16.0)
        routers[2].expire_check(16.0)
        for _ in range(3):
            batches = [r.build_update(16.0) for _, r in sorted(routers.items())]
            for batch in batches:
                if batch is None:
                    continue
                for recipient in routers[batch.sender].neighbors:
                    if recipient in routers:
                        routers[recipient].process_update(batch, 16.0)
        assert 3 not in routers[1].routes
        assert all(key[3] <= 32 for _, key in routers[1].routes.values())


class TestKeyTables:
    def test_tables_belong_to_the_run(self):
        # each router keeps its own table of key extensions: runs with
        # other hop limits and catalogues earlier in this process leave the
        # pinned run writing what it writes in a fresh interpreter, and the
        # module holds no table that outlives a run
        for cfg in (
            SimConfig(n_agents=60, duration=600.0, hop_limit=2, seed=2),
            SimConfig(n_agents=60, duration=600.0, hop_limit=3,
                      methods=dyadic_delay_methods(1), seed=3),
        ):
            run(cfg)
        text = "\n".join(run_report_lines(run(SimConfig(seed=1))))
        script = (
            "import hashlib, sys\n"
            "from stegrouter.sim import SimConfig, run, run_report_lines\n"
            "text = '\\n'.join(run_report_lines(run(SimConfig(seed=1))))\n"
            "sys.stdout.write(hashlib.sha256(text.encode()).hexdigest())\n"
        )
        assert hashlib.sha256(text.encode()).hexdigest() == run_in_child(script)
        assert not [
            name for name, value in vars(router_module).items()
            if isinstance(value, (dict, list, set)) and not name.startswith("__")
        ]


class TestResolvePath:
    def conversion_chain(self):
        # 1 -(image)- 2 -(audio)- 3 -(video)- 4: relays re-embed en route
        return converge({1: frozenset({"image"}),
                         2: frozenset({"image", "audio"}),
                         3: frozenset({"audio", "video"}),
                         4: frozenset({"video"})})

    def test_method_conversion_chain(self):
        routers = self.conversion_chain()
        path = resolve_steg_path(routers, 1, 4, 0.0)
        assert path == [(2, "image"), (3, "audio"), (4, "video")]

    def test_destination_is_self(self):
        routers = self.conversion_chain()
        assert resolve_steg_path(routers, 1, 1, 0.0) == []

    def test_unreachable_destination(self):
        routers = self.conversion_chain()
        assert resolve_steg_path(routers, 1, 99, 0.0) is None

    def test_expired_next_hop_blocks_path(self):
        routers = self.conversion_chain()
        assert resolve_steg_path(routers, 1, 4, now=0.0) is not None
        # nobody helloed since formation, so at now=16 every hop is stale
        assert resolve_steg_path(routers, 1, 4, now=16.0) is None


class TestDumpTable:
    def test_header_and_rows(self):
        routers = converge({1: frozenset({"internet"}), 2: frozenset({"internet"})})
        text = routers[1].dump_table()
        lines = text.splitlines()
        assert lines[0] == "dest next_hop method bottleneck_bps delay_s rank hops"
        assert lines[1] == "2 2 internet 300000 0 1 1"

    def test_empty_table(self):
        assert fresh_router(5).dump_table().splitlines() == [
            "dest next_hop method bottleneck_bps delay_s rank hops"
        ]


# The metric is not isotone here: 0 reaches 2 over (0-1 internet,
# 1-2 hiccups) at 225 kbps, so 3, whose only link is audio to 0, inherits
# that 3-hop route at 80 bps, although 3-0-2 over audio and image is an
# 80 bps path of 2 hops.
NON_ISOTONE = {0: frozenset({"internet", "image", "audio"}),
               1: frozenset({"internet", "hiccups"}),
               2: frozenset({"hiccups", "image"}),
               3: frozenset({"audio"})}


@st.composite
def adversarial_topologies(draw, max_agents):
    """A sparse capability graph over a catalogue with no dominant
    carrier: 2-6 methods with few distinct bandwidths and dyadic delays,
    each agent holding one to three of them, so wide slow paths and
    narrow fast ones compete, and a hop limit from 1 up.  Four agents at
    least: on three, every locally optimal route is a best simple path."""
    count = draw(st.integers(2, 6))
    ranks = draw(st.permutations(range(1, count + 1)))
    methods = [
        StegMethodProfile(f"m{i}", f"M{i}", draw(st.sampled_from((50.0, 80.0, 100.0, 200.0))),
                          draw(st.sampled_from(DYADIC_DELAYS)), 0.25, ranks[i])
        for i in range(count)
    ]
    ids = [m.id for m in methods]
    agents = draw(st.integers(4, max_agents))
    capabilities = {
        agent: frozenset(draw(st.sets(st.sampled_from(ids), min_size=1, max_size=min(3, count))))
        for agent in range(agents)
    }
    hop_limit = draw(st.sampled_from((1, 2, 3, 4, 32)))
    return capabilities, method_table(methods), hop_limit


def one_hop_keys(capabilities, profiles):
    """(u, v) -> key of the link between u and v, both directions."""
    links = {}
    for u in capabilities:
        for v in capabilities:
            shared = capabilities[u] & capabilities[v]
            if u != v and shared:
                p = profiles[best_method_on_link(shared, profiles)]
                links[u, v] = (-p.bandwidth_bps, p.delay_s, p.preference_rank, 1)
    return links


def simple_path_keys(capabilities, profiles, hop_limit):
    """Brute force: for every ordered pair (u, dest), the keys of all
    simple paths from u to dest within the hop limit, each folded from
    dest outwards as the protocol extends routes."""
    links = one_hop_keys(capabilities, profiles)
    keys = {}

    def walk(dest, node, key, visited):
        for (a, b), link in links.items():
            if a == node and b not in visited and key[3] < hop_limit:
                longer = join(key, link)
                keys.setdefault((b, dest), []).append(longer)
                walk(dest, b, longer, visited | {b})

    for dest in capabilities:
        walk(dest, dest, (-math.inf, 0.0, 0, 0), {dest})
    return keys


class TestReferenceOracle:
    def test_non_isotone_counterexample(self):
        # The protocol settles 3 -> 2 on its neighbor's route, 3 hops,
        # not on the best simple path, of 2 hops; the oracle must agree.
        expected = (80.0, 0.0, 5, 3)
        assert protocol_tables(converge(NON_ISOTONE))[3][2] == expected
        assert reference_tables(NON_ISOTONE, DEFAULT_TABLE)[3][2] == expected
        assert min(simple_path_keys(NON_ISOTONE, DEFAULT_TABLE, 32)[3, 2]) == (-80.0, 0.0, 5, 2)

    @settings(max_examples=300, deadline=None)
    @given(adversarial_topologies(max_agents=12))
    @example((NON_ISOTONE, DEFAULT_TABLE, 32))
    def test_equals_protocol_fixed_point(self, topology):
        capabilities, profiles, hop_limit = topology
        routers = converge(capabilities, profiles, hop_limit)
        assert reference_tables(capabilities, profiles, hop_limit) == protocol_tables(routers)

    @settings(max_examples=150, deadline=None)
    @given(adversarial_topologies(max_agents=7))
    @example((NON_ISOTONE, DEFAULT_TABLE, 32))
    def test_routes_are_locally_optimal_simple_paths(self, topology):
        # Checked against brute force: every route is the key of a simple
        # path within the hop limit, so never better than the best one,
        # and is the best of the neighbors' routes extended by their links.
        # It may be worse than the best simple path (the counterexample
        # above), and a connected pair may have no route.
        capabilities, profiles, hop_limit = topology
        paths = simple_path_keys(capabilities, profiles, hop_limit)
        links = one_hop_keys(capabilities, profiles)
        keys = {
            (u, dest): (-bw, delay, rank, hops)
            for u, row in reference_tables(capabilities, profiles, hop_limit).items()
            for dest, (bw, delay, rank, hops) in row.items()
        }
        for dest in capabilities:
            keys[dest, dest] = (-math.inf, 0.0, 0, 0)
        for (u, dest), key in keys.items():
            if u != dest:
                assert key in paths[u, dest]
        for u in capabilities:
            for dest in capabilities:
                if u == dest:
                    continue
                extended = [
                    join(keys[v, dest], link)
                    for (a, v), link in links.items()
                    if a == u and (v, dest) in keys and keys[v, dest][3] < hop_limit
                ]
                assert keys.get((u, dest)) == min(extended, default=None)

    def test_matches_protocol_on_random_topologies(self):
        for seed in range(12):
            capabilities = random_population(seed, max_agents=12)
            routers = converge(capabilities)
            assert protocol_tables(routers) == reference_tables(capabilities, DEFAULT_TABLE)

    def test_matches_protocol_with_nonzero_delays(self):
        for seed in range(6):
            methods = dyadic_delay_methods(seed)
            table = method_table(methods)
            capabilities = random_population(seed + 100, max_agents=10,
                                             profiles=methods)
            routers = converge(capabilities, profiles=table)
            assert protocol_tables(routers) == reference_tables(capabilities, table)

    def test_oracle_respects_hop_limit(self):
        # a genuine line: consecutive agents share one method, nothing else
        chain = {0: frozenset({"image"}),
                 1: frozenset({"image", "audio"}),
                 2: frozenset({"audio", "video"}),
                 3: frozenset({"video"})}
        tables = reference_tables(chain, DEFAULT_TABLE, hop_limit=2)
        assert 3 not in tables[0]
        assert tables[0][2][3] == 2


@st.composite
def twin_populations(draw):
    """A population over the default catalogue, a dyadic-delay one or
    `SPARSE_METHODS`: most agents take one of a few method sets, so twins
    are common, and some hold no method at all.  Half the time the links
    are a subset of the capability links, kept per pair of three groups
    (so twins can survive) with a share of single pairs flipped (so
    near-twins are split); and a hop limit from 1 up."""
    catalogue = draw(st.sampled_from(("default", "dyadic", "sparse")))
    methods = {"default": DEFAULT_METHODS, "sparse": SPARSE_METHODS}.get(catalogue)
    if methods is None:
        methods = dyadic_delay_methods(draw(st.integers(0, 99)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    palette = [derive_capabilities(rng, methods) for _ in range(draw(st.integers(1, 4)))]
    palette.append(frozenset())
    capabilities = {
        agent: rng.choice(palette) if rng.random() < 0.8 else derive_capabilities(rng, methods)
        for agent in range(draw(st.integers(2, 30)))
    }
    links = None
    if draw(st.booleans()):
        group = {agent: rng.randrange(3) for agent in capabilities}
        kept = {(a, b): rng.random() < 0.7 for a in range(3) for b in range(a, 3)}
        flip = draw(st.sampled_from((0.0, 0.05, 0.3)))
        links = {
            frozenset((u, v)) for u in capabilities for v in capabilities
            if u < v and kept[min(group[u], group[v]), max(group[u], group[v])]
            != (rng.random() < flip)
        }
    hop_limit = draw(st.sampled_from((1, 2, 3, 4, 32)))
    return capabilities, method_table(methods), hop_limit, links


INTERNET = frozenset({"internet"})
BENCH_GOLDENS = Path(__file__).resolve().parents[1] / "bench" / "goldens.json"


def benchmark_panel(member, size):
    """The capability panel of `size` SAs that the `oracles` benchmark
    workload (bench/workloads.py) builds for pool member `member`."""
    rng = random.Random(f"oracles:{member}:sa{size}")
    return {agent: derive_capabilities(rng) for agent in range(size)}


class TestTwinClasses:
    @settings(max_examples=300, deadline=None)
    @given(twin_populations())
    # false twins: same methods and peers, but no link between them
    @example(({0: INTERNET, 1: INTERNET, 2: INTERNET}, DEFAULT_TABLE, 32,
              {frozenset((0, 2)), frozenset((1, 2))}))
    # every agent in one class
    @example(({agent: INTERNET for agent in range(5)}, DEFAULT_TABLE, 32, None))
    # destination 2 alone in its class, 0 and 1 twins
    @example(({0: INTERNET, 1: INTERNET, 2: INTERNET | {"image"}, 3: frozenset({"image"})},
              DEFAULT_TABLE, 32, None))
    # hop limit 1 with a twin class: 0 and 1 reach 3 only over 2 hops
    @example(({0: frozenset({"image"}), 1: frozenset({"image"}),
               2: frozenset({"image", "audio"}), 3: frozenset({"audio"})}, DEFAULT_TABLE, 1, None))
    def test_search_per_class_equals_search_per_agent(self, population):
        capabilities, profiles, hop_limit, links = population
        got = reference_tables(capabilities, profiles, hop_limit, links)
        want = reference_tables_per_agent(capabilities, profiles, hop_limit, links)
        assert got == want
        assert [(u, list(row.items())) for u, row in got.items()] == [
            (u, list(row.items())) for u, row in want.items()
        ]

    def test_benchmark_tables_match_the_benchmark_goldens(self):
        # The 16 capability panels of the `oracles` workload, each table
        # serialized as bench/workloads.py `_tables_bytes` does.
        goldens = json.loads(BENCH_GOLDENS.read_text())["oracles"]
        for member in range(8):
            for size in (50, 100):
                key = f"m{member}/reference_tables/sa{size}"
                tables = reference_tables(benchmark_panel(member, size), DEFAULT_TABLE)
                plain = {str(u): {str(v): list(m) for v, m in row.items()}
                         for u, row in tables.items()}
                digest = hashlib.sha256(json.dumps(plain, sort_keys=True).encode()).hexdigest()
                assert digest == goldens[key], key

    def test_traced_peak_stays_small(self):
        # One search per agent, with a key tuple per pair, peaked at
        # 2.4 MB here; one search per class of twins, with a key tuple per
        # pair of classes, peaks near 0.65 MB.
        capabilities = benchmark_panel(0, 100)
        tracemalloc.start()
        try:
            reference_tables(capabilities, DEFAULT_TABLE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_200_000, f"peak {peak / 1e6:.2f} MB"
