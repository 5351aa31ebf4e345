"""Protocol test harness: static topologies driven in synchronous rounds.

Every capability link is formed up front and the clock is pinned at zero,
so no neighbor ever expires; tables then evolve purely through periodic
update exchange until a fixpoint, which is what the reference oracle
models.
"""

import os
import random
import re
import subprocess
import sys

import stegrouter
from stegrouter.core import DEFAULT_METHODS, StegMethodProfile, derive_capabilities, method_table
from stegrouter.router import RouteEntry, RouterTimers, StegRouter

DEFAULT_TABLE = method_table(DEFAULT_METHODS)


def build_routers(capabilities, profiles=DEFAULT_TABLE, timers=None, hop_limit=32):
    timers = timers or RouterTimers()
    return {
        agent_id: StegRouter(agent_id, caps, profiles, timers, hop_limit)
        for agent_id, caps in capabilities.items()
    }


def form_all_links(routers, now=0.0):
    """Mutually introduce every pair of routers with a shared method."""
    ids = sorted(routers)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if routers[a].capabilities & routers[b].capabilities:
                routers[a].ingest_discovery(b, routers[b].capabilities, now)
                routers[b].ingest_discovery(a, routers[a].capabilities, now)


def run_rounds(routers, max_rounds=200, now=0.0):
    """Synchronous update rounds to fixpoint: all agents snapshot their
    tables, then all snapshots are delivered.  Returns the number of
    rounds until no table changed."""
    for rounds in range(1, max_rounds + 1):
        batches = []
        for agent_id in sorted(routers):
            batch = routers[agent_id].build_update(now)
            if batch is not None:
                batches.append(batch)
        changed = False
        for batch in batches:
            for recipient in batch.recipients:
                if routers[recipient].process_update(batch, now):
                    changed = True
        if not changed:
            return rounds
    raise AssertionError(f"no fixpoint within {max_rounds} rounds")


def reference_process_update(router, batch, now):
    """The full-table update rule, applied to every row of the batch on
    every call: the specification that `StegRouter.process_update` must
    match step for step.  Mutates `router` exactly as that method does
    (routes, table version, the per-sender memo) and returns whether its
    table changed."""
    sender = batch.sender
    entry = router.neighbors.get(sender)
    if entry is None or now - entry.last_hello_at > router.timers.hold_time:
        return False
    seen = router._processed.get(sender)
    if seen == (batch.sender_version, router.table_version):
        return False

    neg_link_bw, link_delay, link_rank, _ = entry.link_key
    me = router.agent_id
    routes = router.routes

    advertised = {}
    for dest, bw, delay, rank, hops in batch.rows_for(me):
        if dest == me:
            continue
        total_hops = hops + 1
        if total_hops > router.hop_limit:
            continue
        advertised[dest] = (
            -min(bw, -neg_link_bw),
            delay + link_delay,
            max(rank, link_rank),
            total_hops,
        )

    changed = False
    for dest, key in advertised.items():
        current = routes.get(dest)
        if current is None:
            adopt = True
        elif current.next_hop == sender:
            adopt = key != current.key
        else:
            cur_key = current.key
            adopt = key < cur_key or (key == cur_key and sender < current.next_hop)
        if adopt:
            routes[dest] = RouteEntry(sender, key, entry.best_method)
            changed = True

    withdrawn = [
        dest
        for dest, route in routes.items()
        if route.next_hop == sender and dest not in advertised
    ]
    for dest in withdrawn:
        del routes[dest]
        changed = True

    if changed:
        router.table_version += 1
    router._processed[sender] = (batch.sender_version, router.table_version)
    return changed


def converge(capabilities, profiles=DEFAULT_TABLE, hop_limit=32):
    routers = build_routers(capabilities, profiles, hop_limit=hop_limit)
    form_all_links(routers)
    run_rounds(routers)
    return routers


def protocol_tables(routers):
    """Installed tables as plain (bottleneck_bps, delay_s, worst_rank, hops)
    tuples, oracle-comparable."""
    return {
        agent_id: {
            dest: (-route.key[0],) + route.key[1:]
            for dest, route in router.routes.items()
        }
        for agent_id, router in routers.items()
    }


def random_population(seed, max_agents=50, profiles=DEFAULT_METHODS):
    rng = random.Random(seed)
    n = rng.randint(2, max_agents)
    return {agent_id: derive_capabilities(rng, profiles) for agent_id in range(n)}


def dyadic_delay_methods(seed):
    """Default catalogue with exactly representable nonzero delays, so
    path-delay sums carry no rounding and oracle comparison stays exact."""
    rng = random.Random(seed)
    choices = (0.0, 0.125, 0.25, 0.5, 1.5)
    return tuple(
        StegMethodProfile(p.id, p.name, p.bandwidth_bps, rng.choice(choices),
                          p.occurrence, p.preference_rank)
        for p in DEFAULT_METHODS
    )


# Prefixed to each child script: the first stdout line names the package
# the child actually imported.
_ORIGIN_LINE = "import sys, stegrouter\nsys.stdout.write(stegrouter.__file__ + '\\n')\n"


def digest_under_hash_seed(script, hashseed):
    """Run `script` in a fresh interpreter under PYTHONHASHSEED=`hashseed`
    and return the SHA-256 hex digest it writes to stdout.

    The directory holding the `stegrouter` this process imported goes first
    on the child's PYTHONPATH, so the check needs no pip install, and the
    child must report that same package file: a stale installed copy cannot
    stand in for the code under test.
    """
    package_root = os.path.dirname(os.path.dirname(stegrouter.__file__))
    pythonpath = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _ORIGIN_LINE + script],
        capture_output=True, text=True,
        env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, (
        f"child under PYTHONHASHSEED={hashseed} exited {proc.returncode}:\n{proc.stderr}")
    origin, _, digest = proc.stdout.partition("\n")
    assert os.path.realpath(origin) == os.path.realpath(stegrouter.__file__), (
        f"child under PYTHONHASHSEED={hashseed} imported {origin!r}, "
        f"not {stegrouter.__file__!r}")
    assert re.fullmatch(r"[0-9a-f]{64}", digest), (
        f"child under PYTHONHASHSEED={hashseed} wrote {digest!r}, not a SHA-256 hex digest")
    return digest
