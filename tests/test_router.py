"""Distance-vector router tests: link keys, route order and path joining,
neighbor lifecycle, update exchange, path resolution, and oracle
equivalence."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stegrouter.core import DEFAULT_METHODS, MessageSizes, StegMethodProfile, method_table
from stegrouter.router import (
    RouteEntry,
    RouterTimers,
    StegRouter,
    best_method_on_link,
    reference_tables,
    resolve_steg_path,
)

from harness import (
    build_routers,
    converge,
    dyadic_delay_methods,
    protocol_tables,
    random_population,
    run_rounds,
)

PROFILES = method_table(DEFAULT_METHODS)


def fresh_router(agent_id=1, caps=("internet",), **kwargs):
    return StegRouter(agent_id, frozenset(caps), PROFILES, **kwargs)


def join(a, b):
    """Key of a path made of segment a followed by segment b."""
    return (max(a[0], b[0]), a[1] + b[1], max(a[2], b[2]), a[3] + b[3])


def route_heard(adverts, order=None):
    """Receiver 1 hears senders over internet links (300 kbps, no delay,
    rank 1), each advertising destination 9 with the wire row (bottleneck,
    delay, rank, hops) in `adverts`; tables are processed in `order`.
    Returns the receiver's route to 9."""
    receiver = fresh_router(1)
    for sender_id in order or sorted(adverts):
        sender = fresh_router(sender_id)
        sender.ingest_discovery(1, receiver.capabilities, 0.0)
        receiver.ingest_discovery(sender_id, sender.capabilities, 0.0)
        bw, delay, rank, hops = adverts[sender_id]
        sender.routes[9] = RouteEntry(8, (-bw, delay, rank, hops), "internet")
        receiver.process_update(sender.build_update(0.0), 0.0)
    return receiver.routes[9]


class TestLinkMetrics:
    def test_image_link(self):
        r = fresh_router(1, ("image",))
        r.ingest_discovery(2, frozenset({"image"}), now=0.0)
        assert r.neighbors[2].link_key == (-100, 0.0, PROFILES["image"].preference_rank, 1)

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
        route = routers[1].routes[2]
        assert route.via_method == "image"
        assert route.key == (-100, 0.0, PROFILES["image"].preference_rank, 1)

    def test_best_method_prefers_bandwidth(self):
        assert best_method_on_link({"image", "audio"}, PROFILES) == "image"

    def test_best_method_singleton(self):
        assert best_method_on_link({"internet"}, PROFILES) == "internet"

    def test_best_method_rank_breaks_bandwidth_tie(self):
        # image and video share bandwidth 100 and delay 0; image has the
        # lower preference rank under the default catalogue
        assert best_method_on_link({"image", "video"}, PROFILES) == "image"


class TestMetricOrder:
    """Receiver 1 hears senders 2 and 3, whose candidates for one
    destination differ in exactly one key component.  The better one wins
    whichever sender offers it and whichever table arrives first."""

    def assert_better(self, better, worse):
        for order in ((2, 3), (3, 2)):
            assert route_heard({2: better, 3: worse}, order).next_hop == 2
            assert route_heard({2: worse, 3: better}, order).next_hop == 3
        bw, delay, rank, hops = better
        assert route_heard({2: better, 3: worse}).key == (-bw, delay, rank, hops + 1)

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
            route = route_heard({2: same, 3: same}, order)
            assert route.next_hop == 2
            assert route.key == (-80, 1.0, 6, 5)


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
        route = route_heard({2: (100, 0.0, 3, 1)})
        assert route.key == (-100, 0.0, 3, 2)

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
            assert a.routes[2].key == a.neighbors[2].link_key == (
                -profile.bandwidth_bps, profile.delay_s, profile.preference_rank, 1)

    @given(LINKS)
    @settings(max_examples=40, deadline=None)
    def test_associative(self, links):
        # the route 0 -> k equals the join of routes 0 -> j and j -> k at
        # every split point j, and the join of all its links
        routers, methods = chain(links)
        one_hop = [(-m.bandwidth_bps, m.delay_s, m.preference_rank, 1) for m in methods]
        for k in range(1, len(links) + 1):
            whole = routers[0].routes[k].key
            folded = one_hop[0]
            for link_key in one_hop[1:k]:
                folded = join(folded, link_key)
            assert whole == folded
            for j in range(1, k):
                assert whole == join(routers[0].routes[j].key, routers[j].routes[k].key)

    def test_joining_never_improves(self):
        # at the fixed point every route is its first link joined to the
        # next hop's own route (the self row when the next hop is the
        # destination), and so is no better in any component
        for seed in range(8):
            routers = converge(random_population(seed, max_agents=12))
            for agent, router in routers.items():
                for dest, route in router.routes.items():
                    hop = route.next_hop
                    rest = (-math.inf, 0.0, 0, 0) if hop == dest else routers[hop].routes[dest].key
                    key = route.key
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
        assert set(r.up_neighbors(0.0)) == {2}

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
        assert set(r.up_neighbors(hold)) == {2}
        assert not r.up_neighbors(hold + 1e-9)

    def test_hello_keeps_neighbor_alive(self):
        r = fresh_router(1)
        r.ingest_discovery(2, frozenset({"internet"}), now=0.0)
        for t in (5.0, 10.0, 15.0, 20.0):
            r.receive_hello(2, t)
        assert set(r.up_neighbors(22.0)) == {2}

    def test_silent_neighbor_expires(self):
        r = fresh_router(1)
        r.ingest_discovery(2, frozenset({"internet"}), now=0.0)
        assert not r.up_neighbors(20.0)

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
        version = r1.table_version
        assert not r1.hello_tick(50.0)
        assert set(r1.routes) == {2, 3}
        assert r1.table_version == version

    def test_rediscovery_after_expiry_reforms(self):
        r = fresh_router(1)
        r.ingest_discovery(2, frozenset({"internet"}), now=0.0)
        assert r.ingest_discovery(2, frozenset({"internet"}), now=100.0) is True

    def test_expiry_prunes_routes_silently(self):
        routers = converge({1: frozenset({"internet"}), 2: frozenset({"internet"}),
                            3: frozenset({"internet"})})
        r1 = routers[1]
        assert set(r1.routes) == {2, 3}
        version = r1.table_version
        # neighbor 2 goes silent; 3 keeps helloing
        r1.receive_hello(3, 16.0)
        expired = r1.expire_check(16.0)
        assert expired == [2]
        assert 2 not in r1.routes
        assert r1.table_version == version + 1
        # a second check emits nothing new and changes nothing
        assert r1.expire_check(16.5) == [2]
        assert r1.table_version == version + 1


class TestBuildUpdate:
    def test_nobody_to_talk_to(self):
        assert fresh_router(1).build_update(0.0) is None

    def test_empty_table_single_neighbor(self):
        r = fresh_router(1)
        r.ingest_discovery(2, frozenset({"internet"}), now=0.0)
        batch = r.build_update(0.0)
        assert batch.recipients == (2,)
        assert batch.self_row == (1, math.inf, 0.0, 0, 0)
        assert batch.row_count_for(2) == 1
        assert MessageSizes().update_payload(batch.row_count_for(2)) == 40

    def test_one_message_per_up_neighbor(self):
        r = fresh_router(1)
        for peer in (4, 2, 9):
            r.ingest_discovery(peer, frozenset({"internet"}), now=0.0)
        batch = r.build_update(0.0)
        assert sorted(batch.recipients) == [2, 4, 9]

    def test_split_horizon_omits_routes_learned_from_receiver(self):
        # star with center 1: leaves 2 and 3; center learns each leaf from
        # itself, so the update toward a leaf must omit that leaf's row
        routers = converge({1: frozenset({"internet"}),
                            2: frozenset({"internet"}),
                            3: frozenset({"internet"})})
        batch = routers[1].build_update(0.0)
        to_2 = {row[0] for row in batch.rows_for(2)}
        to_3 = {row[0] for row in batch.rows_for(3)}
        assert 2 not in to_2 and 3 in to_2
        assert 3 not in to_3 and 2 in to_3
        assert batch.row_count_for(2) == len(list(batch.rows_for(2)))

    def test_snapshot_reused_until_table_changes(self):
        r = fresh_router(1)
        r.ingest_discovery(2, frozenset({"internet"}), now=0.0)
        first = r.build_update(0.0)
        # an unchanged table snapshots to the same contents and version
        again = r.build_update(1.0)
        assert (again.sender_version, again.routes, again.recipients) == (
            first.sender_version, first.routes, first.recipients)
        # a table change shows in the next snapshot and bumps its version
        peer = fresh_router(2)
        peer.ingest_discovery(1, frozenset({"internet"}), now=0.0)
        r.process_update(peer.build_update(0.0), now=1.5)
        later = r.build_update(2.0)
        assert later.sender_version == first.sender_version + 1
        assert set(later.routes) == {2} and not first.routes
        assert list(later.rows_for(3)) == [(1, math.inf, 0.0, 0, 0), (2, 300_000.0, 0.0, 1, 1)]

    def test_batch_keeps_rows_after_table_changes(self):
        # a batch is a snapshot: the sender's later table changes do not
        # reach a batch built before them, whose delivery may come later
        routers = converge({1: frozenset({"internet"}), 2: frozenset({"internet"}),
                            3: frozenset({"internet"})})
        r1 = routers[1]
        batch = r1.build_update(0.0)
        before = {receiver: list(batch.rows_for(receiver)) for receiver in (2, 3)}
        assert [row[0] for row in before[2]] == [1, 3]
        r1.expire_check(r1.timers.hold_time + 1.0)
        assert not r1.routes
        assert {receiver: list(batch.rows_for(receiver)) for receiver in (2, 3)} == before
        assert batch.row_count_for(2) == len(before[2])


class TestProcessUpdate:
    def two_routers(self):
        a, b = fresh_router(1), fresh_router(2)
        a.ingest_discovery(2, frozenset({"internet"}), now=0.0)
        b.ingest_discovery(1, frozenset({"internet"}), now=0.0)
        return a, b

    def test_install_into_empty_table(self):
        a, b = self.two_routers()
        assert a.process_update(b.build_update(0.0), now=0.0) is True
        route = a.routes[2]
        assert route.next_hop == 2
        assert route.key == (-300000, 0.0, 1, 1)
        assert route.via_method == "internet"

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
        version = a.table_version
        assert a.process_update(batch, now=0.5) is False
        assert a.table_version == version

    def test_two_hop_bottleneck(self):
        # 1 -(internet)- 2 -(text)- 3: route 1->3 squeezes to the text link
        routers = converge({1: frozenset({"internet"}),
                            2: frozenset({"internet", "text"}),
                            3: frozenset({"text"})})
        route = routers[1].routes[3]
        assert route.key == (-80, 0.0, PROFILES["text"].preference_rank, 2)
        assert route.next_hop == 2

    def test_worse_candidate_leaves_table_unchanged(self):
        # 1 has a direct internet link to 3 and a text detour via 2
        routers = converge({1: frozenset({"internet", "text"}),
                            2: frozenset({"text"}),
                            3: frozenset({"internet", "text"})})
        route = routers[1].routes[3]
        assert route.next_hop == 3
        assert route.key[0] == -300000

    def test_equal_paths_prefer_lower_next_hop_id(self):
        # relays 2 and 3 offer identical image+audio two-hop paths 1 -> 4;
        # the tie must fall to the lower relay id
        routers = converge({1: frozenset({"image"}),
                            2: frozenset({"image", "audio"}),
                            3: frozenset({"image", "audio"}),
                            4: frozenset({"audio"})})
        route = routers[1].routes[4]
        assert route.next_hop == 2

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
        versions = {i: r.table_version for i, r in routers.items()}
        run_rounds(routers)
        assert versions == {i: r.table_version for i, r in routers.items()}

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
                for recipient in batch.recipients:
                    if recipient in routers:
                        routers[recipient].process_update(batch, 16.0)
        assert 3 not in routers[1].routes
        assert all(routers[1].routes[d].key[3] <= 32
                   for d in routers[1].routes)


class TestResolvePath:
    def conversion_chain(self):
        # 1 -(image)- 2 -(audio)- 3 -(video)- 4: relays re-embed en route
        return converge({1: frozenset({"image"}),
                         2: frozenset({"image", "audio"}),
                         3: frozenset({"audio", "video"}),
                         4: frozenset({"video"})})

    def test_method_conversion_chain(self):
        routers = self.conversion_chain()
        path = resolve_steg_path(routers, 1, 4)
        assert path == [(2, "image"), (3, "audio"), (4, "video")]

    def test_destination_is_self(self):
        routers = self.conversion_chain()
        assert resolve_steg_path(routers, 1, 1) == []

    def test_unreachable_destination(self):
        routers = self.conversion_chain()
        assert resolve_steg_path(routers, 1, 99) is None

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


class TestReferenceOracle:
    def test_matches_protocol_on_random_topologies(self):
        for seed in range(12):
            capabilities = random_population(seed, max_agents=12)
            routers = converge(capabilities)
            assert protocol_tables(routers) == reference_tables(capabilities, PROFILES)

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
        tables = reference_tables(chain, PROFILES, hop_limit=2)
        assert 3 not in tables[0]
        assert tables[0][2][3] == 2
