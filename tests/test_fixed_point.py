"""The platform's own tables reach the distance-vector fixed point.

`reference_tables` is checked against the round-based `harness.converge`
elsewhere; here the routers are the `Platform`'s, with its walks,
vouching, shared batches, batch memo, expiry and churn.  Each run goes
quiet at `QUIET_AT` (no walk, no migration; see `harness.QuietPlatform`)
and runs on to `END`, ten update intervals later.  Then, over the links
the routers hold:

- every router's routes to live destinations are exactly the locally
  optimal routes (Sobrinho, IEEE/ACM ToN 2005) that `reference_tables`
  computes: every key equals the reference one, and every live
  destination reachable within the hop limit has a route;
- each such route's key is the best row its neighbors offer (outside
  split horizon, within the hop limit, extended by the link), and its
  next hop is the lowest-id neighbor offering that key;
- each such route is usable: `resolve_steg_path` follows it at the
  platform's clock over Up links to the destination, in as many hops as
  its key counts.

Routes to departed agents (ghost routes counting to infinity through
loops of three or more routers) may still be held at `END` and are not
checked there; `test_ghost_routes_are_gone_by_the_bound` derives the time
by which they are gone and checks it.

The default catalogue makes the link graph nearly complete (`internet`
has occurrence 0.90), so routes have one or two hops and the hop limit
never binds.  `SPARSE_METHODS` has sixteen carriers of occurrence 0.12,
none dominant: at N=400 with 80 SAs the routers hold 446-638 links and
routes run up to 9 hops, so hop limits 2 and 3 leave pairs unrouted.
Those runs go on to `SPARSE_END`, twenty update intervals after
`QUIET_AT`, and must hold no ghost route.  At `END` two of the churn
runs at hop limit 32 still held 74 and 160 of them, counting towards
the hop limit.
"""

import dataclasses
import math

import pytest

from stegrouter.router import SELF_KEY, reference_tables, resolve_steg_path
from stegrouter.sim import SimConfig

from harness import SPARSE_METHODS, QuietPlatform

QUIET_AT = 1800.0
END = 2100.0
SPARSE_END = 2400.0


def extend(link_key, key):
    """`key` heard over a link with `link_key`."""
    return (max(link_key[0], key[0]), link_key[1] + key[1], max(link_key[2], key[2]), key[3] + 1)


def settled_platform(config):
    platform = QuietPlatform(config, QUIET_AT)
    platform.run_until(config.duration)
    return platform


def assert_fixed_point(platform):
    routers = platform.routers
    hop_limit = platform.config.hop_limit
    links = {frozenset((u, v)) for u, router in routers.items() for v in router.neighbors}
    assert all(u in routers and v in routers for u, v in links)

    want = reference_tables(
        {agent: router.capabilities for agent, router in routers.items()},
        platform.profiles, hop_limit, links,
    )
    got = {
        agent: {
            dest: (-key[0],) + key[1:]
            for dest, (_, key) in router.routes.items() if dest in routers
        }
        for agent, router in routers.items()
    }
    assert got == want

    for agent, router in routers.items():
        for dest, (next_hop, key) in router.routes.items():
            if dest not in routers:
                continue
            offers = {}
            for peer, entry in router.neighbors.items():
                if peer == dest:
                    row = SELF_KEY
                else:
                    route = routers[peer].routes.get(dest)
                    if route is None or route[0] == agent:
                        continue
                    row = route[1]
                if row[3] < hop_limit:
                    offers[peer] = extend(entry.link_key, row)
            best = min(offers.values())
            assert key == best, (agent, dest)
            assert next_hop == min(peer for peer, offer in offers.items() if offer == best)
            path = resolve_steg_path(routers, agent, dest, platform.now)
            assert path is not None and len(path) == key[3], (agent, dest, path)


@pytest.mark.parametrize("n_agents, migration_rate, seed", [
    (250, 0.0, 1), (250, 0.0, 2), (250, 0.0, 3),
    (250, 1 / 60, 1), (250, 1 / 60, 2), (250, 1 / 60, 3),
    (1000, 0.0, 1),
])
def test_platform_tables_reach_the_fixed_point(n_agents, migration_rate, seed):
    assert_fixed_point(settled_platform(SimConfig(
        n_agents=n_agents, migration_rate=migration_rate, seed=seed, duration=END)))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("hop_limit, migration_rate", [
    (2, 0.0), (3, 0.0), (32, 0.0), (3, 1 / 60), (32, 1 / 60),
])
def test_sparse_catalogue_tables_reach_the_fixed_point(hop_limit, migration_rate, seed):
    platform = settled_platform(SimConfig(
        n_agents=400, sa_fraction=0.2, hop_limit=hop_limit, migration_rate=migration_rate,
        seed=seed, duration=SPARSE_END, methods=SPARSE_METHODS))
    assert_fixed_point(platform)
    routers = platform.routers
    assert not [(agent, dest) for agent, router in routers.items()
                for dest in router.routes if dest not in routers]
    # the case is the one it claims: every pair is routed at hop limit 32,
    # and hop limits 2 and 3 bind, leaving pairs unrouted
    routed = sum(len(router.routes) for router in routers.values())
    assert (routed < len(routers) * (len(routers) - 1)) == (hop_limit < 32)


def ghost_hops(platform):
    """The hop counts of the routes held to departed agents."""
    routers = platform.routers
    return [key[3] for router in routers.values()
            for dest, (_, key) in router.routes.items() if dest not in routers]


@pytest.mark.parametrize("config, held_at_quiet", [
    (SimConfig(migration_rate=1 / 60, seed=1), 49),
    (SimConfig(migration_rate=1 / 60, seed=2), 0),
    (SimConfig(migration_rate=1 / 60, seed=3), 75),
    (SimConfig(hop_limit=2, migration_rate=0.1, seed=1), 3),  # test_golden's n250-hop2-churn-seed1
], ids=["churn-seed1", "churn-seed2", "churn-seed3", "hop2-churn-seed1"])
def test_ghost_routes_are_gone_by_the_bound(config, held_at_quiet):
    """A ghost route (to a departed agent) counts to infinity through
    loops of three or more routers, since split horizon runs without
    poisoned reverse, but it is gone by

        T = QUIET_AT + hold_time + sampling_interval
            + (hop_limit - 1) * update_interval.

    No agent departs from `QUIET_AT` on, and a departed agent's peers
    heard from it last before it left.  Their entries of it are stale
    once more than `hold_time` has passed, and the first sample after
    that (every sample runs `expire_check` on every router) deletes them
    with the routes through them.  So from T0 = QUIET_AT + hold_time +
    sampling_interval on, no route runs through a departed agent, and a
    ghost route has at least 2 hops.

    A route is only ever set from its next hop's advertised key, extended
    by one hop, at the moment that hop emits.  So the fewest hops m of any
    ghost route never falls, and every alive router emits once in every
    `update_interval`: within one interval after t, each ghost route is
    either overwritten by its next hop with at least m(t) + 1 hops,
    withdrawn, or replaced by another extended ghost of at least
    m(t) + 1 hops.  At T0 + k * update_interval every ghost route has at
    least 2 + k hops.  A key of `hop_limit` hops is not extended, so at
    k = hop_limit - 1 none is left.

    The check steps through T0 + k * update_interval and asserts the
    hop floor at each step.  The four runs hold 49, 0, 75 and 3 ghost
    routes at `QUIET_AT`; looked at every 5 s, ghost routes were last
    held at 2430, -, 2200 and 1800 s, against bounds of 2755 s (hop
    limit 32) and 1855 s (hop limit 2).  On the first run the fewest
    hops read 3 at T0, one above the floor, and grow by 1-2 per interval.
    """
    timers = config.timers
    t0 = QUIET_AT + timers.hold_time + config.sampling_interval
    bound = t0 + (config.hop_limit - 1) * timers.update_interval
    platform = QuietPlatform(dataclasses.replace(config, duration=bound), QUIET_AT)
    platform.run_until(QUIET_AT)
    assert len(ghost_hops(platform)) == held_at_quiet
    for k in range(config.hop_limit):
        platform.run_until(t0 + k * timers.update_interval)
        assert min(ghost_hops(platform), default=math.inf) >= 2 + k, k
    assert platform.now == bound
    assert ghost_hops(platform) == []
