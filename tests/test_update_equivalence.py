"""Incremental update processing equals the full-table rule, step by step.

Two copies of one small network are driven through the same random
sequence of steps.  One copy processes updates with
`StegRouter.process_update`, which re-examines only the destinations that
can have changed since the sender's last processed table; the other
applies `harness.reference_process_update`, the full-table rule, to every
row of every batch.  After each step both copies must hold the same
routes (next hop, key), the same table versions, and every call must
have returned the same value.  In both copies each router's kept count
of routes per next hop must also equal a count made from scratch, every
route's next hop must have a neighbor entry (which holds the method of
the route's first link), every message of every batch built must have
as many rows as `row_count_for` says, and every batch must be addressed
to exactly the sender's neighbor entries, each of them Up.

Steps cover what the simulator does and the orders it never produces:
periodic emission to all Up neighbors, after which the sender trims its
change log as the platform does, or to one of them, a past batch
delivered again (a duplicate, or a stale batch after a newer one, which
can leave the receiver's mark before the sender's trimmed log), time
passing with hellos that skip silenced links, silent neighbor loss
followed by expiry checks, and (re-)discovery of a pair after its link
expired.

`test_platform_matches_full_table_rule` checks the same rule in the
simulator's own event order: `harness.FullTablePlatform` runs random
small configs (sparse catalogues, hop limits 1-4, churn up to one
migration per second) with every router applying the full-table rule,
and must write the same report lines and hold the same routes at every
sample as `Platform`.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stegrouter.core import DEFAULT_METHODS, StegMethodProfile, method_table
from stegrouter.sim import Platform, SimConfig, run_report_lines

from harness import (
    SPARSE_METHODS,
    FullTablePlatform,
    build_routers,
    dyadic_delay_methods,
    form_all_links,
    reference_process_update,
)

# Equal bandwidths and delays, so many candidate keys tie and the
# lower-next-hop rule decides.
TIED_METHODS = (
    StegMethodProfile("a", "A", 100.0, 0.0, 1.0, 1),
    StegMethodProfile("b", "B", 100.0, 0.25, 1.0, 2),
    StegMethodProfile("c", "C", 50.0, 0.0, 1.0, 3),
    StegMethodProfile("d", "D", 100.0, 0.0, 1.0, 4),
)
# Wide carriers are slow and narrow ones fast: a path that gets wider for
# one router can get slower for the router behind a narrow link, so a
# route can be overwritten with a worse one by its own next hop.
SKEWED_METHODS = (
    StegMethodProfile("wide", "Wide", 300.0, 1.0, 1.0, 1),
    StegMethodProfile("mid", "Mid", 200.0, 0.5, 1.0, 2),
    StegMethodProfile("narrow", "Narrow", 100.0, 0.0, 1.0, 3),
)
CATALOGUES = (DEFAULT_METHODS, dyadic_delay_methods(7), TIED_METHODS, SKEWED_METHODS)
KINDS = ("emit", "emit_one", "redeliver", "tick", "expire", "silence", "lose", "discover")


class Network:
    """A network of routers on one clock, whose received batches go
    through `process`."""

    def __init__(self, capabilities, profiles, hop_limit, process):
        self.routers = build_routers(capabilities, profiles, hop_limit=hop_limit)
        form_all_links(self.routers)
        self.ids = sorted(self.routers)
        self.process = process
        self.now = 0.0
        self.silent = set()
        self.history = []
        # pairs that share a method, so silencing or re-discovering one
        # always touches a link
        self.pairs = [(u, v) for u in self.ids for v in self.ids
                      if u < v and self.routers[u].capabilities & self.routers[v].capabilities]

    def deliver(self, batch, recipients):
        return [self.process(self.routers[r], batch, self.now) for r in recipients]

    def tick(self, seconds):
        """Let time pass, then every router hellos its Up neighbors over
        every link that is not silenced."""
        self.now += seconds
        for sender in self.ids:
            for peer in self.routers[sender].hello_tick(self.now):
                if frozenset((sender, peer)) not in self.silent:
                    self.routers[peer].receive_hello(sender, self.now)

    def expire(self):
        return [self.routers[i].expire_check(self.now) for i in self.ids]

    def step(self, kind, a, b):
        """Apply one step; returns everything the routers returned."""
        ids, routers = self.ids, self.routers
        if kind in ("emit", "emit_one"):
            sender = routers[ids[a % len(ids)]]
            batch = sender.build_update(self.now)
            if batch is None:
                return None
            # the expiry check of build_update left only Up neighbors, and
            # the emission addresses every one of them
            recipients = tuple(sender.neighbors)
            assert all(sender.is_up(r, self.now) for r in recipients)
            self.history.append((batch, recipients))
            if kind == "emit_one":
                recipients = (recipients[b % len(recipients)],)
            returned = self.deliver(batch, recipients)
            if kind == "emit":
                # every recipient has been offered this table, as on the
                # platform, so the sender drops the log before it
                sender.trim_log(batch.sender_version)
            return returned
        if kind == "redeliver":
            if not self.history:
                return None
            batch, recipients = self.history[a % len(self.history)]
            return self.deliver(batch, (recipients[b % len(recipients)],))
        if kind == "tick":
            self.tick((1.0, 5.0, 10.0)[a % 3])
            return None
        if kind == "expire":
            return self.expire()
        if not self.pairs:
            return None
        first, second = self.pairs[a % len(self.pairs)]
        if kind == "silence":
            self.silent.add(frozenset((first, second)))
            return None
        if kind == "lose":
            # silent neighbor loss: the link outlives its hold time while
            # every other link keeps hearing hellos, then expiry runs
            self.silent.add(frozenset((first, second)))
            self.tick(8.0)
            self.tick(8.0)
            return self.expire()
        self.silent.discard(frozenset((first, second)))
        return [
            routers[first].ingest_discovery(second, routers[second].capabilities, self.now),
            routers[second].ingest_discovery(first, routers[first].capabilities, self.now),
        ]

    def check_counts(self, batches_before):
        """The kept route counts per next hop match the routes, each next
        hop has a neighbor entry, and the batches built since
        `batches_before` count their rows right."""
        for router in self.routers.values():
            kept = {hop: count for hop, count in router._via.items() if count}
            assert kept == Counter(next_hop for next_hop, _ in router.routes.values())
            assert set(kept) <= set(router.neighbors)
        for batch, recipients in self.history[batches_before:]:
            for recipient in recipients:
                rows = sum(hop != recipient for hop, _ in batch.routes.values())
                assert batch.row_count_for(recipient) == rows

    def state(self):
        return {
            agent_id: (router._base + len(router._log), dict(router.routes))
            for agent_id, router in self.routers.items()
        }


@st.composite
def scenarios(draw):
    methods = draw(st.sampled_from(CATALOGUES))
    ids = [m.id for m in methods]
    n = draw(st.integers(2, 8))
    capabilities = {
        agent_id: frozenset(draw(st.sets(st.sampled_from(ids), min_size=1, max_size=2)))
        for agent_id in range(n)
    }
    hop_limit = draw(st.sampled_from((2, 3, 32)))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(KINDS), st.integers(0, 63), st.integers(0, 63)),
        min_size=10, max_size=80,
    ))
    return method_table(methods), capabilities, hop_limit, steps


def incremental(router, batch, now):
    return router.process_update(batch, now)


# Found by random search against broken variants of process_update, and
# rare under random generation, so pinned.  After a link loss, a sender's
# withdrawal must reach a receiver that routes via that sender:
@example((
    method_table(DEFAULT_METHODS),
    {0: frozenset({"internet", "audio"}), 1: frozenset({"text", "audio"}),
     2: frozenset({"audio"}), 3: frozenset({"hiccups", "video"}),
     4: frozenset({"internet"}), 5: frozenset({"text"}), 6: frozenset({"video"})},
    3,
    [("lose", 56, 51), ("emit", 0, 5), ("emit", 43, 14)],
))
# and a route overwritten with a worse one by its own next hop must let an
# unchanged row from another sender win:
@example((
    method_table(SKEWED_METHODS),
    {0: frozenset({"narrow", "mid"}), 1: frozenset({"wide"}),
     2: frozenset({"mid", "wide"}), 3: frozenset({"narrow"}),
     4: frozenset({"narrow", "wide"})},
    32,
    [("lose", 32, 1), ("emit", 60, 39), ("emit", 4, 15), ("emit", 5, 53)],
))
# One emission from 0 reaches 2 over audio and 4 over image; then an older
# batch from 0 is delivered to 2 again, which applies it in full and moves
# 2's last processed version of 0 back, and the newer batch is delivered
# to 2 once more: 2 must read the longer change-log slice from its earlier
# mark, not the shorter one the batch's memo holds for its later mark.
@example((
    method_table(DEFAULT_METHODS),
    {0: frozenset({"audio", "image"}), 1: frozenset({"text"}),
     2: frozenset({"text", "audio"}), 3: frozenset({"text"}), 4: frozenset({"image"})},
    32,
    [("lose", 39, 21), ("emit", 10, 0), ("redeliver", 48, 10), ("emit", 19, 57),
     ("redeliver", 15, 2)],
))
# A full pass over routes through the sender: 0 loses its only link to 3
# and learns a route to 3 back through 1; then a batch 1 sent before, while
# it routed 3 via 0, is delivered to 0 again.  That row is in 0's
# split-horizon group, so 0 must withdraw its route to 3, not take the row.
@example((
    method_table(DEFAULT_METHODS),
    {0: frozenset({"hiccups", "audio"}), 1: frozenset({"hiccups"}),
     2: frozenset({"hiccups"}), 3: frozenset({"audio"})},
    32,
    [("redeliver", 0, 0), ("lose", 2, 0), ("emit", 2, 0), ("emit", 1, 0),
     ("redeliver", 5, 0)],
))
# A link silenced past its hold time with no expiry check before the next
# emission: the emission's own expiry check must delete the stale entry
# before the batch is addressed to every neighbor entry left.
@example((
    method_table(DEFAULT_METHODS),
    {0: frozenset({"internet"}), 1: frozenset({"internet"}), 2: frozenset({"internet"})},
    32,
    [("silence", 0, 0), ("tick", 2, 0), ("tick", 2, 0), ("emit", 0, 0)],
))
# A receiver two trims behind: 2 loses its link to 1 and emits, so 0
# withdraws its route to 1, then loses its link to 3 and emits again; each
# emission trims 2's change log.  A batch 2 sent before both losses is
# delivered to 0 again, so 0 re-learns its route to 1 via 2 and its mark
# of 2 moves back before both trims.  2's next batch must be applied to 0
# in full, since the withdrawal of 1 is no longer in 2's log.
@example((
    method_table(SKEWED_METHODS),
    {0: frozenset({"wide"}), 1: frozenset({"mid"}), 2: frozenset({"mid", "wide"}),
     3: frozenset({"narrow", "wide"})},
    3,
    [("emit", 2, 0), ("lose", 2, 0), ("emit", 2, 0), ("lose", 3, 0), ("emit", 2, 0),
     ("redeliver", 12, 0), ("emit", 2, 0)],
))
# A batch built before a trim keeps its log: 1 loses its link to 2 and
# sends batch A to 0 alone, loses its link to 0 and sends batch B to 3
# alone, then emits and trims.  A is delivered to 3 again, moving 3's
# mark back into B's log, and then B is: 3 must read B's slice from that
# mark as B was built, which a trim that shortened the shared list in
# place would have emptied.
@example((
    method_table(DEFAULT_METHODS),
    {0: frozenset({"video"}), 1: frozenset({"text", "video"}),
     2: frozenset({"internet", "video"}), 3: frozenset({"audio", "text"})},
    2,
    [("emit", 1, 0), ("lose", 2, 0), ("emit_one", 1, 0), ("lose", 0, 0),
     ("emit_one", 1, 0), ("emit", 1, 0), ("redeliver", 13, 1), ("redeliver", 14, 0)],
))
# A table from a sender that is not Up is ignored: 1 loses its link to 2
# and sends its withdrawal of 2 to 3 alone; then the link from 0 to 1 is
# silenced past its hold time, with no expiry check, and that batch is
# delivered to 0.  0 still routes to 2 via 1, but must not withdraw it.
@example((
    method_table(DEFAULT_METHODS),
    {0: frozenset({"text"}), 1: frozenset({"text", "audio"}), 2: frozenset({"audio"}),
     3: frozenset({"audio"})},
    32,
    [("silence", 1, 0), ("tick", 2, 0), ("tick", 2, 0), ("emit_one", 1, 1),
     ("silence", 0, 0), ("tick", 2, 0), ("tick", 2, 0), ("redeliver", 12, 0)],
))
@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_incremental_matches_full_table_rule(scenario):
    profiles, capabilities, hop_limit, steps = scenario
    fast = Network(capabilities, profiles, hop_limit, incremental)
    full = Network(capabilities, profiles, hop_limit, reference_process_update)
    # a few rounds of emission first, so the random steps act on tables
    # that hold multi-hop routes
    warm_up = [("emit", i, 0) for i in range(len(capabilities))] * 3
    for number, (kind, a, b) in enumerate(warm_up + steps):
        built = len(fast.history)
        returned = fast.step(kind, a, b)
        assert returned == full.step(kind, a, b), (number, kind)
        assert fast.state() == full.state(), (number, kind)
        fast.check_counts(built)
        full.check_counts(built)


def test_a_vouched_sender_is_up_in_both_rules():
    # the platform vouches for every live link instead of refreshing its
    # entry by hellos, so a vouched sender heard from longer ago than the
    # hold time is Up, and both rules apply its table
    results = []
    for process in (incremental, reference_process_update):
        network = Network({1: frozenset({"internet"}), 2: frozenset({"internet"})},
                          method_table(DEFAULT_METHODS), 32, process)
        receiver = network.routers[2]
        receiver.vouch(1)
        batch = network.routers[1].build_update(0.0)
        now = receiver.timers.hold_time + 1.0
        assert now - receiver.neighbors[1].last_hello_at > receiver.timers.hold_time
        results.append((process(receiver, batch, now), network.state()))
    assert results[0] == results[1]
    assert results[0][0] is True


def report_and_tables(platform_cls, cfg):
    """Run `cfg` on `platform_cls`: its report lines, and every router's
    routes at each sample."""
    platform = platform_cls(cfg)
    tables = []
    on_sample = platform._on_sample

    def sample(now):
        on_sample(now)
        tables.append({agent: dict(router.routes) for agent, router in platform.routers.items()})

    platform._on_sample = sample
    platform.run_until(cfg.duration)
    return list(run_report_lines(platform.report())), tables


@st.composite
def platform_configs(draw):
    return SimConfig(
        duration=draw(st.sampled_from((300.0, 600.0, 900.0))),
        n_agents=draw(st.integers(20, 120)),
        sa_fraction=draw(st.sampled_from((0.1, 0.2, 0.35))),
        migration_rate=draw(st.sampled_from((0.0, 1 / 60, 0.1, 1.0))),
        hop_limit=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**16)),
        methods=draw(st.sampled_from((SPARSE_METHODS, SPARSE_METHODS[:8], DEFAULT_METHODS))),
    )


@example(SimConfig(n_agents=120, duration=900.0, sa_fraction=0.35, methods=SPARSE_METHODS,
                   hop_limit=3, migration_rate=1 / 60, seed=3))
@example(SimConfig(n_agents=120, duration=600.0, migration_rate=1.0, hop_limit=2, seed=1))
@settings(max_examples=60, deadline=None)
@given(platform_configs())
def test_platform_matches_full_table_rule(cfg):
    lines, tables = report_and_tables(Platform, cfg)
    full_lines, full_tables = report_and_tables(FullTablePlatform, cfg)
    assert len(tables) == int(cfg.duration / cfg.sampling_interval)
    assert tables == full_tables
    assert lines == full_lines
