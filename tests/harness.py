"""Protocol test harness: static topologies driven in synchronous rounds.

Every capability link is formed up front and the clock is pinned at zero,
so no neighbor ever expires; tables then evolve purely through periodic
update exchange until a fixpoint, which is what the reference oracle
models.  The per-agent search is the reference for the oracle's search
per class of twins, and the one-shot walk loop at the end is the
reference for the anonymity oracle's chunked one.
"""

import math
import os
import random
import re
import subprocess
import sys
import types
from collections import Counter
from heapq import heappop, heappush

import numpy as np

import stegrouter
from stegrouter.core import DEFAULT_METHODS, StegMethodProfile, derive_capabilities, method_table
from stegrouter.router import RouterTimers, StegRouter, best_method_on_link, one_hop_key
from stegrouter.sim import EventKernel, Platform, _Ev, run

DEFAULT_TABLE = method_table(DEFAULT_METHODS)

# One universally shared method: every steg-agent pair can link, so the
# steg-link graph is always connected.
TEXT_ONLY = (StegMethodProfile("text", "Text", 80, 0.0, 1.0, 6),)


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
            # the sender's neighbor entries, as `Platform._on_update` addresses them
            for recipient in routers[batch.sender].neighbors:
                if routers[recipient].process_update(batch, now):
                    changed = True
        if not changed:
            return rounds
    raise AssertionError(f"no fixpoint within {max_rounds} rounds")


def reference_process_update(router, batch, now):
    """The full-table update rule, applied to every row of the batch on
    every call: the specification that `StegRouter.process_update` must
    match step for step.  Changes the routes as that method does, appends
    each changed destination to the change log so that the table versions
    compare, recounts the routes per next hop, and returns whether the
    table changed."""
    sender = batch.sender
    if not router.is_up(sender, now):
        return False

    neg_link_bw, link_delay, link_rank, _ = router.neighbors[sender].link_key
    me = router.agent_id
    routes = router.routes
    log = router._log
    version = len(log)

    advertised = {}
    for dest, (next_hop, (neg_bw, delay, rank, hops)) in batch.routes.items():
        if dest == me or next_hop == me:  # split horizon
            continue
        total_hops = hops + 1
        if total_hops > router.hop_limit:
            continue
        advertised[dest] = (
            max(neg_bw, neg_link_bw),
            delay + link_delay,
            max(rank, link_rank),
            total_hops,
        )

    for dest, key in advertised.items():
        current = routes.get(dest)
        if current is None:
            adopt = True
        else:
            cur_hop, cur_key = current
            if cur_hop == sender:
                adopt = key != cur_key
            else:
                adopt = key < cur_key or (key == cur_key and sender < cur_hop)
        if adopt:
            routes[dest] = (sender, key)
            log.append(dest)

    withdrawn = [
        dest
        for dest, (next_hop, _) in routes.items()
        if next_hop == sender and dest not in advertised
    ]
    for dest in withdrawn:
        del routes[dest]
        log.append(dest)
    # the per-next-hop route counts that build_update and expire_check read,
    # recounted from the routes
    router._via = dict(Counter(next_hop for next_hop, _ in routes.values()))
    return len(log) != version


class ReferencePlatform(Platform):
    """The platform with every hello sent as its own message: no link is
    vouched for, so each Up neighbor's entry is refreshed by
    `receive_hello` and each hello is accounted by `_send`.  The
    specification that `Platform`, which accounts a hello beacon once per
    tick, must match byte for byte."""

    def _link_formed(self, a, b):
        pass

    def _on_hello(self, agent_id, now):
        router = self.routers.get(agent_id)
        if router is None:
            return
        hello_bytes = self.config.sizes.hello
        for neighbor in router.hello_tick(now):
            self._send("hello", agent_id, neighbor, hello_bytes)
            peer = self.routers.get(neighbor)
            if peer is not None:
                peer.receive_hello(agent_id, now)
        self.kernel.schedule(now + self.config.timers.hello_interval, _Ev.HELLO, agent_id)


class FullTablePlatform(Platform):
    """The platform with every router applying `reference_process_update`,
    the full-table rule, to every table delivered to it: the specification
    that `Platform`, whose routers process updates incrementally, must
    match at every step of the simulator's event order."""

    def _add_agent(self, agent_id, caps, now, rng):
        super()._add_agent(agent_id, caps, now, rng)
        if caps:
            router = self.routers[agent_id]
            router.process_update = types.MethodType(reference_process_update, router)


class QuietPlatform(Platform):
    """The platform with its steg-link graph frozen from `quiet_at` on: no
    discovery walk starts or is delivered and no agent migrates, so only
    hellos, expiry, periodic updates and samples run, and the routers'
    tables can settle to the fixed point over the links they hold."""

    def __init__(self, config, quiet_at):
        self.quiet_at = quiet_at
        super().__init__(config)

    def _on_discovery(self, agent_id, now):
        if now < self.quiet_at:
            super()._on_discovery(agent_id, now)

    def _on_walk_deliver(self, holder, origin_hops, now):
        if now < self.quiet_at:
            super()._on_walk_deliver(holder, origin_hops, now)

    def _on_migrate(self, now):
        if now < self.quiet_at:
            super()._on_migrate(now)


def layer_counts(cfg):
    """Run `cfg` once and count what the benchmark's tracer counts, by
    wrapping the same class attributes: `process_update` calls, the rows
    of their messages (`batch.row_count_for(receiver)`) and the calls that
    changed the table; `hello_tick`, `build_update` and `expire_check`
    calls; and dispatched events per `_Ev` name.  A speed-up that binds a
    method at import, skips a call or schedules tags without a name
    changes these counts."""
    counts = Counter()
    originals = {
        (StegRouter, name): getattr(StegRouter, name)
        for name in ("process_update", "hello_tick", "build_update", "expire_check")
    }
    originals[EventKernel, "run_until"] = EventKernel.run_until

    def process_update(router, batch, now):
        changed = originals[StegRouter, "process_update"](router, batch, now)
        counts["process_update.calls"] += 1
        counts["process_update.rows"] += batch.row_count_for(router.agent_id)
        counts["process_update.changed"] += bool(changed)
        return changed

    def call_counter(name):
        original = originals[StegRouter, name]

        def counted(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            return original(*args, **kwargs)

        return counted

    def run_until(kernel, until, dispatch):
        def counted(tag, a, b, now):
            counts["events." + tag.name.lower()] += 1
            dispatch(tag, a, b, now)

        return originals[EventKernel, "run_until"](kernel, until, counted)

    StegRouter.process_update = process_update
    for name in ("hello_tick", "build_update", "expire_check"):
        setattr(StegRouter, name, call_counter(name))
    EventKernel.run_until = run_until
    try:
        run(cfg)
    finally:
        for (owner, name), original in originals.items():
            setattr(owner, name, original)
    return dict(sorted(counts.items()))


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
            dest: (-key[0],) + key[1:]
            for dest, (_, key) in router.routes.items()
        }
        for agent_id, router in routers.items()
    }


def reference_tables_per_agent(capabilities, profiles, hop_limit=32, links=None):
    """`router.reference_tables` as one generalized Dijkstra per
    destination over every agent: the specification that the search per
    class of twins must match, table for table and in row order."""
    ids = sorted(capabilities)
    # agent -> (neighbor, -bandwidth, delay, rank) of the link's best method
    adjacent: dict[AgentId, list[tuple[AgentId, float, float, int]]] = {u: [] for u in ids}
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            shared = capabilities[u] & capabilities[v]
            if not shared or (links is not None and frozenset((u, v)) not in links):
                continue
            one_hop = one_hop_key(profiles[best_method_on_link(shared, profiles)])
            adjacent[u].append((v, *one_hop))
            adjacent[v].append((u, *one_hop))

    tables: dict[AgentId, dict[AgentId, tuple]] = {u: {} for u in ids}
    for dest in ids:
        # Key order mirrors the metric: (-bottleneck, delay, rank, hops).
        best: dict[AgentId, tuple] = {dest: (-math.inf, 0.0, 0, 0)}
        settled: set[AgentId] = set()
        heap = [(best[dest], dest)]
        while heap:
            key, u = heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            neg_bw, delay, rank, hops = key
            if u != dest:
                tables[u][dest] = (-neg_bw, delay, rank, hops)
            if hops >= hop_limit:
                continue
            hops += 1
            for v, link_neg_bw, link_delay, link_rank in adjacent[u]:
                if v in settled:
                    continue
                cand = (
                    link_neg_bw if link_neg_bw > neg_bw else neg_bw,
                    delay + link_delay,
                    link_rank if link_rank > rank else rank,
                    hops,
                )
                known = best.get(v)
                if known is None or cand < known:
                    best[v] = cand
                    heappush(heap, (cand, v))
    return tables


def random_population(seed, max_agents=50, profiles=DEFAULT_METHODS):
    rng = random.Random(seed)
    n = rng.randint(2, max_agents)
    return {agent_id: derive_capabilities(rng, profiles) for agent_id in range(n)}


# Sixteen carriers of occurrence 0.12, none dominant: the steg-link graph
# is sparse, so routes run over several hops and low hop limits bind.
SPARSE_METHODS = tuple(
    StegMethodProfile(f"m{i}", f"sparse {i}", (80.0, 100.0, 225_000.0, 300_000.0)[i % 4],
                      (0.0, 0.25, 0.5)[i % 3], 0.12, i + 1)
    for i in range(16)
)


# Exactly representable delays, so path-delay sums carry no rounding and
# oracle comparison stays exact.
DYADIC_DELAYS = (0.0, 0.125, 0.25, 0.5, 1.5)


def dyadic_delay_methods(seed):
    """Default catalogue with delays drawn from DYADIC_DELAYS."""
    rng = random.Random(seed)
    return tuple(
        StegMethodProfile(p.id, p.name, p.bandwidth_bps, rng.choice(DYADIC_DELAYS),
                          p.occurrence, p.preference_rank)
        for p in DEFAULT_METHODS
    )


# Prefixed to each child script: the first stdout line names the package
# the child actually imported.
_ORIGIN_LINE = "import sys, stegrouter\nsys.stdout.write(stegrouter.__file__ + '\\n')\n"


def run_in_child(script, hashseed="0"):
    """Run `script` in a fresh interpreter under PYTHONHASHSEED=`hashseed`,
    check that it exited 0, and return what it wrote to stdout.

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
    origin, _, out = proc.stdout.partition("\n")
    assert os.path.realpath(origin) == os.path.realpath(stegrouter.__file__), (
        f"child under PYTHONHASHSEED={hashseed} imported {origin!r}, "
        f"not {stegrouter.__file__!r}")
    return out


def digest_under_hash_seed(script, hashseed):
    """Run `script` in a fresh interpreter (see `run_in_child`) under
    PYTHONHASHSEED=`hashseed` and return the SHA-256 hex digest it writes
    to stdout."""
    digest = run_in_child(script, hashseed)
    assert re.fullmatch(r"[0-9a-f]{64}", digest), (
        f"child under PYTHONHASHSEED={hashseed} wrote {digest!r}, not a SHA-256 hex digest")
    return digest


def reference_simulate_walks(n, c, p_f, trials, rng, recipient_observes):
    """The oracle's walk loop with each hop drawn in one call and int64
    walk state: the specification that `anonymity._simulate_walks` must
    match draw for draw.  Returns the per-honest-agent counts of observed
    predecessors and the number of unobserved walks."""
    honest = n - c
    counts = np.zeros(honest, dtype=np.int64)
    misses = 0
    if c == 0 and not recipient_observes:
        return counts, trials
    pred = np.zeros(trials, dtype=np.int64)
    live = trials
    if c == 0:
        while live:
            receiver = rng.integers(0, n, size=live)
            forward = rng.random(live) < p_f
            counts += np.bincount(pred.compress(~forward), minlength=honest)
            pred = receiver.compress(forward)
            live = pred.size
        return counts, misses
    while live:
        receiver = rng.integers(0, n, size=live)
        hit = receiver >= honest
        if hit.any():
            counts += np.bincount(pred.compress(hit), minlength=honest)
            receiver = receiver.compress(~hit)
            live = receiver.size
            if not live:
                break
        pred = receiver.compress(rng.random(live) < p_f)
        misses += live - pred.size
        live = pred.size
    return counts, misses
