"""Distance-vector routing over steg-links.

Each steg agent keeps a neighbor table maintained by hellos and a route
table exchanged through periodic full-table updates.  A neighbor counts
as Up while it was heard from within the hold time, or while the platform
vouches that it is alive: a live peer beacons every hello interval, which
is shorter than the hold time, so it never goes stale and its hellos need
not refresh the entry one by one.  An expiry check deletes each entry no
longer Up with the routes through it, so every route's next hop has an
entry, which holds the facts of that first steg-link, and a route is only
the pair (next hop, key).  Route quality is a lexicographic metric:
widest bottleneck first, then lowest added delay, then best (lowest)
worst-case method preference rank, then fewest hops; remaining ties are
broken by the lower next-hop id.  Split horizon is applied without
poisoned reverse, updates are strictly periodic (an expiry stays silent
until the next scheduled update), and paths longer than the hop limit are
treated as unreachable.

Updates are processed incrementally.  Each router logs, in order, every
destination whose route changed, and apart from that every destination
whose route got worse or was removed.  Every table change logs at least
one destination, so the table version counts every entry logged.  Once
a receiver R has processed sender S's table, every destination d is
settled: if S advertises d with candidate key c, R's route to d goes via
S with key c, or via another hop with a better key (an equal key only
with a lower hop id); if S does not advertise d, R has no route to d via
S.  Only two things can unsettle d: a change of S's row for d (added,
modified, deleted, or moved into or out of R's split-horizon group), or
R's own route to d getting worse or going away (an overwrite by its own
next hop, a withdrawal, an expiry); a route that only gets better keeps
d settled.  So a later table from S is applied only to the destinations
in S's change log since the table R last processed and in R's loss log
since then; every other destination would come out unchanged.  The loss
log only grows together with the table version, so its length at the
last processed table marks where "since then" starts.  The sender's
neighbor entry holds both marks, so they go with the entry when it
expires.  A first contact, a re-formed link or a table older than the
last one processed is applied in full: the routes through the sender to
destinations it no longer advertises are withdrawn, then every row of
the advertised table (the route table, then the self row) is applied.

A change log holds only what some neighbor may still read: once every
neighbor has processed a table, its sender drops the entries before
that table's version (`trim_log`), so the table version is the number
of entries trimmed plus the number held.  A receiver whose mark lies
before the first entry a batch holds is applied in full too; by
settledness that comes out the same as the dropped slice would have.
Likewise each emission drops the loss-log entries every neighbor's
mark has passed and moves the marks back by as many.

Either pass is one loop over raw rows (destination, the sender's next
hop, its key), under one rule.  A route through the sender takes the row
extended by the link, or is withdrawn where the row is missing, in R's
split-horizon group or past the hop limit.  A route through another hop
changes only for a better candidate, ties going to the lower hop id.
Extending a key by a link makes it strictly worse (every link adds a
hop), so a row whose raw key is no better than R's current key is passed
over before it is extended.

The raw rows of a change-log slice depend on nothing of the receiver but
where the slice starts (its last processed sender version): the batch
fixes the rows and the end of the slice.  So a batch keeps them per
slice start, and every receiver with that start reuses them, whatever
its link key and hop limit.  The rows of R's own loss log are looked up
per pass and follow the slice's.  The router also keeps its number of
routes per next hop as the table changes, so an emission copies the
split-horizon group sizes instead of counting them.

A router shares its immutable values instead of rebuilding them.  A link
key depends only on the link's method, so a router makes one link key
per method it holds when it is made, with one table of the keys extended
by it (the hop limit is the router's own constant), and every neighbor
entry over that method holds the same two objects.  Route keys take few distinct values, so a
key is extended once per table and looked up after that; every extended
key is interned in the router's `_keys`, so two extended keys are equal
exactly when they are the same object.  A neighbor entry keeps the last
route tuple (sender, key) made through its link, and a route through the
link reuses it when its extended key is that same object.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain
from typing import Collection, Iterable, Mapping, Optional

from .core import AgentId, StegMethodId, StegMethodProfile

#: Route quality as one comparable tuple (lower is better):
#: (-bottleneck_bps, delay_s, worst_rank, hops).
Key = tuple[float, float, int, int]

#: A router's key for itself (infinite bandwidth, no delay, rank 0, 0 hops):
#: what the self row at the end of every update message carries.
SELF_KEY: Key = (-math.inf, 0.0, 0, 0)

#: Above every table version, so the next table from a peer marked with it
#: counts as older than the last one processed and is applied in full.
UNSEEN = sys.maxsize


def one_hop_key(profile: StegMethodProfile) -> tuple[float, float, int]:
    """A method's one-hop metric, lower is better: widest, then fastest,
    then lowest preference rank."""
    return (-profile.bandwidth_bps, profile.delay_s, profile.preference_rank)


def best_method_on_link(
    methods: Iterable[StegMethodId], profiles: Mapping[StegMethodId, StegMethodProfile]
) -> StegMethodId:
    """The shared method with the best one-hop metric."""
    return min(methods, key=lambda method: one_hop_key(profiles[method]))


@dataclass(frozen=True, slots=True)
class RouterTimers:
    hello_interval: float = 5.0
    hold_time: float = 15.0
    update_interval: float = 30.0

    def __post_init__(self) -> None:
        for value in (self.hello_interval, self.hold_time, self.update_interval):
            if not math.isfinite(value):
                raise ValueError("timer values must be finite")
        if self.hello_interval <= 0 or self.update_interval <= 0:
            raise ValueError("timer intervals must be positive")
        if self.hold_time <= self.hello_interval:
            raise ValueError("hold_time must exceed hello_interval")


@dataclass(slots=True)
class NeighborEntry:
    """A steg-link as one endpoint sees it: the method it sends over, that
    method's one-hop key and the owner's table of keys extended by that
    link key (both the owner's one objects for the method, shared by its
    entries over it; see `StegRouter._extend_key`), when the peer was last
    heard from (by hello or discovery), whether the platform vouches for
    the peer (see `StegRouter.vouch` and `StegRouter.is_up`), the marks of
    the peer's last processed table: its version, and the owner's loss
    log length right after it (see `StegRouter.process_update`), and the
    last route tuple (peer, key) made through the link, which the next
    route with the identical key object reuses.  Until a table is
    processed over the link, `seen_version` is `UNSEEN` and `route` is
    None."""

    best_method: StegMethodId
    link_key: Key
    table: dict[Key, Optional[Key]]
    last_hello_at: float
    peer_alive: bool = False
    seen_version: int = UNSEEN
    seen_lost: int = 0
    route: Optional[Route] = None


#: A route: (next hop, key); the neighbor entry of the next hop holds the
#: method of its first link.
Route = tuple[AgentId, Key]

#: The raw row of a destination the sender does not advertise.
NO_ROW: tuple[None, None] = (None, None)


@dataclass(slots=True)
class UpdateBatch:
    """Snapshot of a router's table, shared by the per-neighbor update
    messages of one emission.  It is a snapshot by convention: nothing
    changes its fields after `build_update` made it, but the class is not
    frozen, because frozen construction costs about four times as much.

    `routes` is the advertised table: a copy of the sender's route table
    with the self row (None, `SELF_KEY`) last.  It is what the wire
    carries, except that the message addressed to neighbor X skips the
    routes whose next hop is X (split horizon).
    `log` is the sender's change log, whose first entry has table version
    `base`; it is read only up to `sender_version`, the sender's table
    version when the batch was built, which keeps the batch a snapshot.
    A trim replaces the sender's list instead of shortening it, so the
    batch's `log` and `base` stay consistent.

    `slices` is the one mutable part: a memo of `raw_rows` for the
    change-log slices its receivers apply, keyed by the slice start (the
    receiver's last processed sender version).  Raw rows hold the sender's
    own keys, so receivers over every link key and hop limit share them.
    The memo belongs to this batch alone, is dropped with it, and is left
    out of equality.
    """

    sender: AgentId
    sender_version: int
    routes: dict[AgentId, Route]
    group_sizes: dict[AgentId, int]  # routes per sender next hop
    log: list[AgentId]
    base: int  # table version of log[0]
    slices: dict = field(default_factory=dict, compare=False, repr=False)

    def raw_rows(self, dests: Iterable[AgentId]) -> dict[AgentId, tuple]:
        """dest -> (the sender's next hop, its key) for each of `dests`,
        `NO_ROW` for a destination the sender does not advertise."""
        sent = self.routes
        return {dest: sent.get(dest, NO_ROW) for dest in dests}

    def row_count_for(self, receiver: AgentId) -> int:
        """The rows of the message addressed to `receiver`."""
        return len(self.routes) - self.group_sizes.get(receiver, 0)


class StegRouter:
    """Routing state machine of one steg agent."""

    def __init__(
        self,
        agent_id: AgentId,
        capabilities: frozenset[StegMethodId],
        profiles: Mapping[StegMethodId, StegMethodProfile],
        timers: RouterTimers = RouterTimers(),
        hop_limit: int = 32,
    ) -> None:
        self.agent_id = agent_id
        self.capabilities = capabilities
        self.profiles = profiles
        self.timers = timers
        self.hop_limit = hop_limit
        self.neighbors: dict[AgentId, NeighborEntry] = {}
        # Neighbors with `peer_alive` set, and the time of this router's
        # latest hello beacon.
        self.vouched = 0
        self.last_beacon = -math.inf
        self.routes: dict[AgentId, Route] = {}
        # Destinations in the order their route changed (_log, from table
        # version _base on) or got worse or was removed (_lost).
        self._log: list[AgentId] = []
        self._base = 0
        self._lost: list[AgentId] = []
        # next hop -> number of routes through it (entries may be zero)
        self._via: dict[AgentId, int] = {}
        # held method -> (its link key, {sender key: that key extended by the
        # link, None beyond the hop limit}); and the extended keys, interned.
        self._links: dict[StegMethodId, tuple[Key, dict[Key, Optional[Key]]]] = {
            method: ((*one_hop_key(profiles[method]), 1), {}) for method in capabilities
        }
        self._keys: dict[Key, Key] = {}

    # -- neighbor maintenance -------------------------------------------

    def ingest_discovery(
        self, advertiser: AgentId, capabilities: frozenset[StegMethodId], now: float
    ) -> bool:
        """Handle a capability advertisement that reached this agent.

        Returns True when a new (or re-formed) neighbor relation came up,
        which is the caller's cue to answer with its own capabilities and
        a full-table update.  A repeat advertisement only refreshes the
        liveness timestamp.
        """
        if advertiser == self.agent_id:
            return False
        shared = capabilities & self.capabilities
        if not shared:
            return False
        entry = self.neighbors.get(advertiser)
        if entry is not None:
            fresh = self.is_up(advertiser, now)
            entry.last_hello_at = now
            if fresh:
                return False
            entry.seen_version = UNSEEN  # the next table is applied in full
            return True
        method = best_method_on_link(shared, self.profiles)
        link_key, table = self._links[method]
        self.neighbors[advertiser] = NeighborEntry(
            best_method=method,
            link_key=link_key,
            table=table,
            last_hello_at=now,
        )
        return True

    def receive_hello(self, sender: AgentId, now: float) -> None:
        """A hello from `sender` sent at `now`; never moves the entry's
        last-heard time backwards."""
        entry = self.neighbors.get(sender)
        if entry is not None and now > entry.last_hello_at:
            entry.last_hello_at = now

    def vouch(self, peer: AgentId) -> None:
        """The platform guarantees that `peer` is alive and beacons to this
        router every hello interval: its entry counts as Up, without being
        refreshed, until `unvouch`."""
        entry = self.neighbors[peer]
        if not entry.peer_alive:
            entry.peer_alive = True
            self.vouched += 1

    def unvouch(self, peer: AgentId, final_beacon: float) -> None:
        """`peer` departed after its last beacon at `final_beacon`: from now
        on its entry ages from the later of that beacon and the last time
        the peer was heard from otherwise, as if every beacon had arrived."""
        entry = self.neighbors[peer]
        if entry.peer_alive:
            entry.peer_alive = False
            self.vouched -= 1
        self.receive_hello(peer, final_beacon)

    def is_up(self, peer: AgentId, now: float) -> bool:
        """Whether `peer` is vouched for or was heard from within the hold time."""
        entry = self.neighbors.get(peer)
        return entry is not None and (
            entry.peer_alive or now - entry.last_hello_at <= self.timers.hold_time
        )

    def hello_tick(self, now: float) -> Collection[AgentId]:
        """One beat of the liveness beacon: records `now` as this router's
        latest beacon and returns the addressees of this interval's hello,
        the Up neighbors in the order their entries were made.  A hello
        carries no payload beyond the sender's identity, so the emission is
        just the recipient list; when every neighbor is vouched for, it is
        a view of the neighbor table, not a copy, valid until the table
        changes.  A recipient that is not vouched for is refreshed only if
        the hello is delivered through receive_hello.  Stale neighbors are
        merely skipped here — the next expire_check (every table emission
        runs one) deletes them and their routes, never sooner, so link
        loss is only ever disclosed on the regular cadence."""
        self.last_beacon = now
        if self.vouched == len(self.neighbors):
            return self.neighbors.keys()
        return [nid for nid in self.neighbors if self.is_up(nid, now)]

    def expire_check(self, now: float) -> list[AgentId]:
        """Delete the neighbors that have gone stale, each with the routes
        through it and the marks of its last processed table, and return
        them; a neighbor is reported once, when it is deleted.  Expiry is a
        local, silent event: nothing is emitted until the next periodic
        update simply stops mentioning the lost destinations."""
        if self.vouched == len(self.neighbors):
            return []
        expired = [nid for nid in self.neighbors if not self.is_up(nid, now)]
        if expired:
            dead = set(expired)
            stale = [dest for dest, (hop, _) in self.routes.items() if hop in dead]
            for dest in stale:
                del self.routes[dest]
            for nid in expired:
                del self.neighbors[nid]
                self._via.pop(nid, None)
            self._log.extend(stale)
            self._lost.extend(stale)
        return expired

    # -- update emission --------------------------------------------------

    def build_update(self, now: float) -> Optional[UpdateBatch]:
        """Snapshot the advertised table for one emission.  Returns None
        when there is nobody to talk to.  The expiry check runs first and
        deletes every entry that is not Up, so the neighbor table then
        holds exactly the addressees of a periodic emission."""
        self.expire_check(now)
        lost = self._lost
        if lost:
            # drop the loss-log entries every neighbor's mark has passed
            entries = self.neighbors.values()
            done = min([entry.seen_lost for entry in entries], default=len(lost))
            if done:
                del lost[:done]
                for entry in entries:
                    entry.seen_lost -= done
        if not self.neighbors:
            return None
        routes = dict(self.routes)
        routes[self.agent_id] = (None, SELF_KEY)
        return UpdateBatch(
            sender=self.agent_id,
            sender_version=self._base + len(self._log),
            routes=routes,
            group_sizes=dict(self._via),
            log=self._log,
            base=self._base,
        )

    def trim_log(self, version: int) -> None:
        """Drop the change-log entries before table version `version`,
        which every neighbor has read.  The list is replaced, not
        shortened, so batches built before keep their snapshot."""
        self._log = self._log[version - self._base :]
        self._base = version

    # -- update processing ------------------------------------------------

    def process_update(self, batch: UpdateBatch, now: float) -> bool:
        """Apply one received table snapshot; returns True if the local
        table changed.

        Rules: a candidate beating the current route is adopted; a route
        is always overwritten by its own next hop's latest advertisement;
        destinations our current next hop stopped advertising are
        invalidated; candidates beyond the hop limit count as absent;
        metric ties go to the lower next-hop id.  The rules are applied
        only to the destinations that can have changed since the sender's
        last processed table (see the module docstring).
        """
        entry = self.neighbors.get(batch.sender)
        if entry is None:
            return False
        if entry.seen_version == batch.sender_version and entry.seen_lost == len(self._lost):
            return False  # nothing settled before can have changed since
        if not (entry.peer_alive or now - entry.last_hello_at <= self.timers.hold_time):
            return False  # the sender is not Up
        sender = batch.sender
        me = self.agent_id
        routes = self.routes
        log = self._log
        lost = self._lost
        via = self._via
        version = len(log)
        seen_version = entry.seen_version
        rows = None
        if seen_version <= batch.sender_version:
            slices = batch.slices
            rows = slices.get(seen_version)
            if rows is None and seen_version >= batch.base:
                base = batch.base
                rows = slices[seen_version] = batch.raw_rows(
                    batch.log[seen_version - base : batch.sender_version - base]
                )
        if rows is None:
            # In full (a table older than the last one processed, or a
            # slice since then that was trimmed): withdraw the routes
            # through the sender that it no longer advertises, then take
            # every row.
            sent = batch.routes
            gone = [
                (dest, NO_ROW) for dest, (hop, _) in routes.items()
                if hop == sender and dest not in sent
            ] if via.get(sender) else ()
            rows = chain(gone, sent.items())
        else:
            rows = rows.items()
            if len(lost) > entry.seen_lost:
                rows = chain(rows, batch.raw_rows(lost[entry.seen_lost :]).items())

        table = entry.table
        link_key = entry.link_key
        route = entry.route
        for dest, (next_hop, key) in rows:
            current = routes.get(dest)
            if current is None:
                if dest == me:
                    continue
                cur_hop = None
            else:
                cur_hop, cur_key = current
                if cur_hop != sender and (key is None or key >= cur_key):
                    continue  # extending makes a key strictly worse
            if key is not None:
                if next_hop == me:
                    key = None  # split horizon
                else:
                    try:
                        key = table[key]
                    except KeyError:
                        key = self._extend_key(table, key, link_key)
            if cur_hop == sender:
                if key is None:
                    del routes[dest]
                    via[sender] -= 1
                    lost.append(dest)
                    log.append(dest)
                    continue
                if key == cur_key:
                    continue
                if key > cur_key:
                    lost.append(dest)
            elif key is None:
                continue
            else:
                if current is not None:
                    if key > cur_key or (key == cur_key and sender > cur_hop):
                        continue
                    via[cur_hop] -= 1
                via[sender] = via.get(sender, 0) + 1
            # extended keys are interned, so an equal key is the same object
            if route is None or route[1] is not key:
                route = (sender, key)
            routes[dest] = route
            log.append(dest)

        entry.seen_version = batch.sender_version
        entry.seen_lost = len(lost)
        entry.route = route
        return len(log) != version

    def _extend_key(
        self, table: dict[Key, Optional[Key]], key: Key, link_key: Key
    ) -> Optional[Key]:
        """`key` extended by the link, or None beyond the hop limit,
        entered into `table`; route keys take few distinct values, so each
        is extended once per table and looked up after that.  The extended
        key is interned in `_keys`: every key a table holds is the router's
        one object for its value, so `process_update` may test extended
        keys for equality by identity."""
        neg_bw, delay, rank, hops = key
        new = None
        if hops < self.hop_limit:
            neg_link_bw, link_delay, link_rank, _ = link_key
            new = (
                neg_bw if neg_bw > neg_link_bw else neg_link_bw,
                delay + link_delay,
                rank if rank > link_rank else link_rank,
                hops + 1,
            )
            new = self._keys.setdefault(new, new)
        table[key] = new
        return new

    # -- inspection ---------------------------------------------------------

    def dump_table(self) -> str:
        """Plain-text table: one `dest next_hop method bottleneck_bps
        delay_s rank hops` line per destination, sorted by destination."""
        lines = ["dest next_hop method bottleneck_bps delay_s rank hops"]
        for dest in sorted(self.routes):
            next_hop, key = self.routes[dest]
            method = self.neighbors[next_hop].best_method
            lines.append(
                f"{dest} {next_hop} {method} {-key[0]:g} "
                f"{key[1]:g} {key[2]} {key[3]}"
            )
        return "\n".join(lines)


def resolve_steg_path(
    routers: Mapping[AgentId, StegRouter],
    source: AgentId,
    destination: AgentId,
    now: float,
) -> Optional[list[tuple[AgentId, StegMethodId]]]:
    """Resolve the hop-by-hop steg path from source to destination at
    `now` by chaining next-hop lookups, returning (agent,
    method-into-that-agent) pairs; each hop may re-embed the payload with a
    different method.  Returns None when any router on the chain lacks a
    route or its next hop is not Up."""
    if source == destination:
        return []
    path: list[tuple[AgentId, StegMethodId]] = []
    visited = {source}
    current = source
    while current != destination:
        router = routers.get(current)
        if router is None:
            return None
        route = router.routes.get(destination)
        if route is None:
            return None
        next_hop = route[0]
        if next_hop in visited or not router.is_up(next_hop, now):
            return None
        path.append((next_hop, router.neighbors[next_hop].best_method))
        visited.add(next_hop)
        current = next_hop
    return path


def reference_tables(
    capabilities: Mapping[AgentId, frozenset],
    profiles: Mapping[StegMethodId, StegMethodProfile],
    hop_limit: int = 32,
    links: Optional[Collection[frozenset[AgentId]]] = None,
) -> dict[AgentId, dict[AgentId, tuple[float, float, int, int]]]:
    """The routes the protocol converges to on a static topology,
    computed by a generalized Dijkstra per class of interchangeable
    agents instead of by the distributed protocol.

    For every ordered pair this returns (bottleneck_bps, delay_s,
    worst_rank, hops) under the same lexicographic order and hop limit
    the protocol uses.  That metric is strictly monotone (every link adds
    a hop) but not isotone, so distance-vector routing converges to the
    unique locally optimal routes: each agent's key is the best of its
    neighbors' keys extended by the link to them (Sobrinho, IEEE/ACM ToN
    2005).  These are not global optima: the best simple path of a pair
    can be better than its locally optimal route.  Strict monotonicity
    makes a key final once it is the smallest left on the heap.  Kept
    free of StegRouter machinery so converged protocol tables can be
    checked against an independent computation.

    The links are every pair of agents sharing a method, or, given
    `links` (unordered pairs as frozensets), only those of its pairs.

    Two agents are twins when they hold equal method sets and equal
    closed neighbourhoods (each agent and the peers it links to, under
    the rule above), so twins are linked to each other.  Swapping two
    twins maps every link and every link key onto itself, and the
    locally optimal routes are unique, so twins hold the same key to
    every destination but themselves.  So one search serves every
    destination of a class of twins: the destination is the source, the
    rest of its class is one node reached over the class's own link, and
    every other class is one node.  Each link key is computed once per
    pair of classes, and each (class, destination class) pair shares one
    key tuple.  An agent with no method, or with links that no other
    agent matches, is a class of its own; with sparse `links` most
    classes hold one agent.  The tables, and each row, iterate in
    ascending agent order.
    """
    ids = sorted(capabilities)
    # Each agent's closed neighbourhood: itself and the peers it links to.
    closed: dict[AgentId, list[AgentId]] = {u: [u] for u in ids}
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            if capabilities[u] & capabilities[v] and (links is None or frozenset((u, v)) in links):
                closed[u].append(v)
                closed[v].append(u)
    twins: dict[tuple, list[AgentId]] = {}
    for u in ids:
        twins.setdefault((capabilities[u], frozenset(closed[u])), []).append(u)
    classes = list(twins.values())
    # class -> (class, -bandwidth, delay, rank) of the link's best method;
    # a class of twins also links to itself, from a destination to its twins.
    adjacent: list[list[tuple[int, float, float, int]]] = [[] for _ in classes]
    for c, (u, *_) in enumerate(classes):
        for d in range(c, len(classes)):
            v = classes[d][-1]
            if u != v and v in closed[u]:
                shared = capabilities[u] & capabilities[v]
                one_hop = one_hop_key(profiles[best_method_on_link(shared, profiles)])
                adjacent[c].append((d, *one_hop))
                if d != c:
                    adjacent[d].append((c, *one_hop))

    # One search per destination class c.  Node -1 is the destination,
    # node c the rest of its class.  Twins hold equal keys, so each class
    # keeps one key to the destination class, shared by its members.
    keys: list[dict[int, tuple]] = []
    for c in range(len(classes)):
        # Key order mirrors the metric: (-bottleneck, delay, rank, hops).
        best: dict[int, tuple] = {-1: SELF_KEY}
        settled: set[int] = set()
        heap = [(SELF_KEY, -1)]
        while heap:
            key, u = heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            neg_bw, delay, rank, hops = key
            if hops >= hop_limit:
                continue
            hops += 1
            # Every extension is worse than `key`, so no settled node improves.
            for v, link_neg_bw, link_delay, link_rank in adjacent[c if u < 0 else u]:
                cand = (max(neg_bw, link_neg_bw), delay + link_delay, max(rank, link_rank), hops)
                known = best.get(v)
                if known is None or cand < known:
                    best[v] = cand
                    heappush(heap, (cand, v))
        keys.append({d: (-key[0], *key[1:]) for d, key in best.items() if d >= 0})

    of = {u: c for c, group in enumerate(classes) for u in group}
    tables: dict[AgentId, dict[AgentId, tuple]] = {u: {} for u in ids}
    for dest in ids:
        for c, key in keys[of[dest]].items():
            for u in classes[c]:
                if u != dest:
                    tables[u][dest] = key
    return tables
