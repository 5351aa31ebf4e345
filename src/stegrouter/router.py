"""Distance-vector routing over steg-links.

Each steg agent keeps a neighbor table maintained by hellos and a route
table exchanged through periodic full-table updates.  Route quality is a
lexicographic metric: widest bottleneck first, then lowest added delay,
then best (lowest) worst-case method preference rank, then fewest hops;
remaining ties are broken by the lower next-hop id.  Split horizon is
applied without poisoned reverse, updates are strictly periodic (an
expiry stays silent until the next scheduled update), and paths longer
than the hop limit are treated as unreachable.

Updates are processed incrementally.  Each router logs, in order, every
destination whose route changed, and apart from that every destination
whose route got worse or was removed.  Every table change logs at least
one destination, so the change log's length is the table version.  Once
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
last processed table marks where "since then" starts.  A first contact,
a re-formed link or a table older than the last one processed is applied
in full.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from .core import AgentId, StegMethodId, StegMethodProfile

#: Route quality as one comparable tuple (lower is better):
#: (-bottleneck_bps, delay_s, worst_rank, hops).
Key = tuple[float, float, int, int]


def best_method_on_link(
    methods: Iterable[StegMethodId], profiles: Mapping[StegMethodId, StegMethodProfile]
) -> StegMethodId:
    """The shared method with the best one-hop metric: widest, then
    fastest, then lowest preference rank."""

    def one_hop(method: StegMethodId) -> tuple:
        p = profiles[method]
        return (-p.bandwidth_bps, p.delay_s, p.preference_rank)

    return min(methods, key=one_hop)


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
    method's one-hop key, and when the peer was last heard from.  The peer
    counts as Up while `now - last_hello_at <= hold_time`."""

    best_method: StegMethodId
    link_key: Key
    last_hello_at: float


@dataclass(frozen=True, slots=True)
class RouteEntry:
    next_hop: AgentId
    key: Key
    via_method: StegMethodId  # method used on the first steg-link of the path


# A table row on the wire: (destination, bottleneck_bps, delay_s, worst_rank, hops).
Row = tuple[AgentId, float, float, int, int]


@dataclass(frozen=True, slots=True)
class UpdateBatch:
    """Immutable snapshot of a router's table, shared by the per-neighbor
    update messages of one emission.

    `routes` is a copy of the sender's route table; with the sender's self
    row in front, it is what the wire carries, and the message addressed
    to neighbor X skips the routes whose next hop is X (split horizon).
    `log` is the sender's change log, read only up to `sender_version`,
    its length when the batch was built, which keeps the batch a snapshot.
    """

    sender: AgentId
    sender_version: int
    routes: dict[AgentId, RouteEntry]
    group_sizes: Counter  # routes per sender next hop
    recipients: tuple[AgentId, ...]
    log: list[AgentId]

    @property
    def self_row(self) -> Row:
        return (self.sender, math.inf, 0.0, 0, 0)

    def rows_for(self, receiver: AgentId) -> Iterator[Row]:
        """The rows of the message addressed to `receiver`, self row first."""
        if receiver != self.sender:
            yield self.self_row
        for dest, route in self.routes.items():
            if route.next_hop != receiver:
                key = route.key
                yield (dest, -key[0], key[1], key[2], key[3])

    def row_count_for(self, receiver: AgentId) -> int:
        return 1 + len(self.routes) - self.group_sizes.get(receiver, 0)


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
        self.routes: dict[AgentId, RouteEntry] = {}
        # Destinations in the order their route changed (_log) or got worse
        # or was removed (_lost).
        self._log: list[AgentId] = []
        self._lost: list[AgentId] = []
        # sender -> (sender table version, own loss log length) right after
        # a table from that sender was last processed.
        self._processed: dict[AgentId, tuple[int, int]] = {}

    @property
    def table_version(self) -> int:
        return len(self._log)

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
            fresh = now - entry.last_hello_at <= self.timers.hold_time
            entry.last_hello_at = now
            if fresh:
                return False
            self._processed.pop(advertiser, None)
            return True
        method = best_method_on_link(shared, self.profiles)
        profile = self.profiles[method]
        self.neighbors[advertiser] = NeighborEntry(
            best_method=method,
            link_key=(-profile.bandwidth_bps, profile.delay_s, profile.preference_rank, 1),
            last_hello_at=now,
        )
        return True

    def receive_hello(self, sender: AgentId, now: float) -> None:
        entry = self.neighbors.get(sender)
        if entry is not None:
            entry.last_hello_at = now

    def up_neighbors(self, now: float) -> list[AgentId]:
        """Neighbors heard from within the hold time, in the order they
        were first discovered (entries are never deleted)."""
        hold = self.timers.hold_time
        return [
            nid
            for nid, entry in self.neighbors.items()
            if now - entry.last_hello_at <= hold
        ]

    def hello_tick(self, now: float) -> list[AgentId]:
        """One beat of the liveness beacon: the addressees for this
        interval's hello, i.e. every neighbor currently heard from
        recently enough to count as Up.  A hello carries no payload
        beyond the sender's identity, so the emission is just the
        recipient list; delivery refreshes the peer via receive_hello.
        Stale neighbors are merely skipped here — their routes are
        invalidated at the next periodic table emission, never sooner,
        so link loss is only ever disclosed on the regular cadence."""
        return self.up_neighbors(now)

    def expire_check(self, now: float) -> list[AgentId]:
        """Invalidate routes whose next hop has gone stale.  Expiry is a
        local, silent event: nothing is emitted until the next periodic
        update simply stops mentioning the lost destinations."""
        hold = self.timers.hold_time
        expired = [
            nid
            for nid, entry in self.neighbors.items()
            if now - entry.last_hello_at > hold
        ]
        if expired:
            dead = set(expired)
            stale = [
                dest
                for dest, route in self.routes.items()
                if route.next_hop in dead
            ]
            for dest in stale:
                del self.routes[dest]
            self._log.extend(stale)
            self._lost.extend(stale)
        return expired

    # -- update emission --------------------------------------------------

    def build_update(self, now: float) -> Optional[UpdateBatch]:
        """Snapshot the table for one periodic emission, addressed to all
        Up neighbors.  Returns None when there is nobody to talk to."""
        self.expire_check(now)
        recipients = tuple(self.up_neighbors(now))
        if not recipients:
            return None
        routes = dict(self.routes)
        return UpdateBatch(
            sender=self.agent_id,
            sender_version=len(self._log),
            routes=routes,
            group_sizes=Counter(route.next_hop for route in routes.values()),
            recipients=recipients,
            log=self._log,
        )

    # -- update processing ------------------------------------------------

    def process_update(self, batch: UpdateBatch, now: float) -> bool:
        """Apply one received table snapshot; returns True if the local
        table changed.

        Rules: a candidate beating the current entry is adopted; an entry
        is always overwritten by its own next hop's latest advertisement;
        destinations our current next hop stopped advertising are
        invalidated; candidates beyond the hop limit count as absent;
        metric ties go to the lower next-hop id.  The rules are applied
        only to the destinations that can have changed since the sender's
        last processed table (see the module docstring).
        """
        sender = batch.sender
        entry = self.neighbors.get(sender)
        if entry is None or now - entry.last_hello_at > self.timers.hold_time:
            return False
        routes = self.routes
        sent = batch.routes
        seen = self._processed.get(sender)
        if seen is None or batch.sender_version < seen[0]:
            candidates = set(sent)
            candidates.add(sender)
            candidates.update(
                dest for dest, route in routes.items() if route.next_hop == sender
            )
        else:
            candidates = set(batch.log[seen[0] : batch.sender_version])
            candidates.update(self._lost[seen[1] :])
        me = self.agent_id
        candidates.discard(me)

        neg_link_bw, link_delay, link_rank, _ = entry.link_key
        # The sender's self row (infinite bandwidth, no delay, rank 0, 0
        # hops) extended by the link.
        self_key = (neg_link_bw, 0.0 + link_delay, link_rank, 1)
        method = entry.best_method
        hop_limit = self.hop_limit
        log = self._log
        lost = self._lost
        changed = False
        for dest in candidates:
            current = routes.get(dest)
            found = sent.get(dest)
            if found is None:
                key = self_key if dest == sender else None
            elif found.next_hop != me and found.key[3] < hop_limit:
                neg_bw, delay, rank, hops = found.key
                key = (
                    neg_bw if neg_bw > neg_link_bw else neg_link_bw,
                    delay + link_delay,
                    rank if rank > link_rank else link_rank,
                    hops + 1,
                )
            else:
                key = None
            if key is not None:
                if current is None:
                    adopt = True
                elif current.next_hop == sender:
                    cur_key = current.key
                    adopt = key != cur_key
                    if key > cur_key:
                        lost.append(dest)
                else:
                    cur_key = current.key
                    adopt = key < cur_key or (key == cur_key and sender < current.next_hop)
                if adopt:
                    routes[dest] = RouteEntry(sender, key, method)
                    log.append(dest)
                    changed = True
            elif current is not None and current.next_hop == sender:
                del routes[dest]
                log.append(dest)
                lost.append(dest)
                changed = True

        self._processed[sender] = (batch.sender_version, len(lost))
        return changed

    # -- inspection ---------------------------------------------------------

    def dump_table(self) -> str:
        """Plain-text table: one `dest next_hop method bottleneck_bps
        delay_s rank hops` line per destination, sorted by destination."""
        lines = ["dest next_hop method bottleneck_bps delay_s rank hops"]
        for dest in sorted(self.routes):
            r = self.routes[dest]
            key = r.key
            lines.append(
                f"{dest} {r.next_hop} {r.via_method} {-key[0]:g} "
                f"{key[1]:g} {key[2]} {key[3]}"
            )
        return "\n".join(lines)


def resolve_steg_path(
    routers: Mapping[AgentId, StegRouter],
    source: AgentId,
    destination: AgentId,
    now: Optional[float] = None,
) -> Optional[list[tuple[AgentId, StegMethodId]]]:
    """Resolve the hop-by-hop steg path from source to destination by
    chaining next-hop lookups, returning (agent, method-into-that-agent)
    pairs; each hop may re-embed the payload with a different method.
    Returns None when any router on the chain lacks a live route."""
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
        if now is not None:
            entry = router.neighbors.get(route.next_hop)
            if entry is None or now - entry.last_hello_at > router.timers.hold_time:
                return None
        if route.next_hop in visited:
            return None
        path.append((route.next_hop, route.via_method))
        visited.add(route.next_hop)
        current = route.next_hop
    return path


def reference_tables(
    capabilities: Mapping[AgentId, frozenset],
    profiles: Mapping[StegMethodId, StegMethodProfile],
    hop_limit: int = 32,
) -> dict[AgentId, dict[AgentId, tuple[float, float, int, int]]]:
    """Reference optima for a static topology, computed by global
    relaxation instead of the distributed protocol.

    For every ordered pair this returns the best reachable
    (bottleneck_bps, delay_s, worst_rank, hops) under the same
    lexicographic order and hop limit the protocol uses.  Kept free of
    StegRouter machinery so converged protocol tables can be checked
    against an independent computation.
    """
    ids = sorted(capabilities)
    links: list[tuple[AgentId, AgentId, float, float, int]] = []
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            shared = capabilities[u] & capabilities[v]
            if not shared:
                continue
            p = profiles[best_method_on_link(shared, profiles)]
            links.append((u, v, p.bandwidth_bps, p.delay_s, p.preference_rank))

    tables: dict[AgentId, dict[AgentId, tuple]] = {u: {} for u in ids}
    for dest in ids:
        # Key order mirrors the metric: (-bottleneck, delay, rank, hops).
        dist: dict[AgentId, tuple] = {dest: (-math.inf, 0.0, 0, 0)}
        changed = True
        while changed:
            changed = False
            for u, v, bw, delay, rank in links:
                for near, far in ((u, v), (v, u)):
                    base = dist.get(far)
                    if base is None:
                        continue
                    hops = base[3] + 1
                    if hops > hop_limit:
                        continue
                    cand = (
                        max(-bw, base[0]),
                        base[1] + delay,
                        max(rank, base[2]),
                        hops,
                    )
                    known = dist.get(near)
                    if known is None or cand < known:
                        dist[near] = cand
                        changed = True
        for u, key in dist.items():
            if u != dest:
                tables[u][dest] = (-key[0], key[1], key[2], key[3])
    return tables
