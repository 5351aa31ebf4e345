"""Deterministic discrete-event simulation of the overlay platform.

One run builds a mixed population of ordinary and steg-capable agents,
drives periodic discovery walks, hello/update timers and optional agent
migration through a single event queue, and samples four measurements on
a fixed grid: route convergence level, per-link protocol overhead,
platform capacity usage, and the fraction of saturated steg-links.
Identical configs (including the seed) produce byte-identical reports.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import random
import tempfile
import typing
from collections import Counter
from dataclasses import asdict, dataclass, field, is_dataclass
from enum import IntEnum
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence

from .core import (
    AgentId,
    DEFAULT_METHODS,
    MessageSizes,
    StegMethodId,
    StegMethodProfile,
    derive_capabilities,
    method_table,
)
from .router import RouterTimers, StegRouter, UpdateBatch, best_method_on_link
from .walk import run_walk


class ConfigError(ValueError):
    """Raised when a run configuration fails validation."""


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Complete description of one run; two equal configs give identical
    results bit for bit."""

    duration: float = 1800.0
    n_agents: int = 250
    sa_fraction: float = 0.10
    p_f: float = 0.75
    migration_rate: float = 0.0
    seed: int = 1
    sampling_interval: float = 10.0
    discovery_interval: float = 10.0
    walk_hop_latency: float = 0.001
    hop_limit: int = 32
    timers: RouterTimers = field(default_factory=RouterTimers)
    sizes: MessageSizes = field(default_factory=MessageSizes)
    methods: tuple[StegMethodProfile, ...] = DEFAULT_METHODS

    def __post_init__(self) -> None:
        for name in (
            "duration", "sa_fraction", "p_f", "migration_rate",
            "sampling_interval", "discovery_interval", "walk_hop_latency",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.duration < 0:
            raise ConfigError("duration must be >= 0")
        if self.n_agents < 1:
            raise ConfigError("n_agents must be >= 1")
        if not 0.0 < self.sa_fraction < 1.0:
            raise ConfigError("sa_fraction must lie in (0, 1)")
        if not 0.0 <= self.p_f < 1.0:
            raise ConfigError("p_f must lie in [0, 1)")
        if self.migration_rate < 0:
            raise ConfigError("migration_rate must be >= 0")
        if self.sampling_interval <= 0:
            raise ConfigError("sampling_interval must be positive")
        if self.discovery_interval <= 0:
            raise ConfigError("discovery_interval must be positive")
        if self.walk_hop_latency < 0:
            raise ConfigError("walk_hop_latency must be >= 0")
        if self.hop_limit < 1:
            raise ConfigError("hop_limit must be >= 1")
        if not 1 <= len(self.methods) <= 16:
            raise ConfigError("between 1 and 16 method profiles are supported")
        try:
            method_table(self.methods)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def n_steg_agents(self) -> int:
        return round(self.n_agents * self.sa_fraction)

    def to_mapping(self) -> dict:
        """Echo of every knob, sections as nested mappings; feeding it back
        into from_mapping reproduces the identical run."""
        mapping = asdict(self)
        mapping["methods"] = list(mapping["methods"])
        return mapping

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "SimConfig":
        """Build a config from a plain mapping (parsed config file, echo
        from a report, or override set); raises ConfigError on unknown
        keys or malformed values."""
        return _build(cls, mapping)


# Resolving the string annotations costs far more than converting a
# config, so each class is resolved once.
_type_hints = functools.cache(typing.get_type_hints)


def _build(cls: type, mapping: object, label: Optional[str] = None):
    """An instance of the dataclass `cls` from a mapping, each value
    converted to its field's annotated type: a nested dataclass from a
    mapping, a tuple of them from a list of mappings.  `label` names a
    nested section in error messages."""
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{label} must be a mapping, got {mapping!r}")
    hints = _type_hints(cls)
    kwargs: dict = {}
    for key, value in mapping.items():
        hint = hints.get(key)
        if hint is None:
            if label is None:
                raise ConfigError(f"unknown config key {key!r}")
            raise ConfigError(f"unknown {label} field {key!r}")
        if is_dataclass(hint):
            kwargs[key] = _build(hint, value, key)
        elif typing.get_origin(hint) is tuple:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{key} must be a list of mappings, got {value!r}")
            item = typing.get_args(hint)[0]
            kwargs[key] = tuple(
                _build(item, entry, f"{key}[{i}]") for i, entry in enumerate(value)
            )
        else:
            try:
                kwargs[key] = hint(value)
            except (TypeError, ValueError):
                name = key if label is None else f"{label}.{key}"
                raise ConfigError(f"bad value for {name}: {value!r}") from None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc) if label is None else f"bad {label}: {exc}") from None


@dataclass(frozen=True, slots=True)
class MetricsFrame:
    """One sample of the four platform measurements.  Meter values cover
    the window since the previous sample; convergence is instantaneous."""

    time: float
    convergence_level: float
    convergence_level_all_pairs: float
    routing_overhead_per_link_bps: float
    capacity_usage: float
    saturated_link_fraction: float


@dataclass(frozen=True, slots=True)
class RunReport:
    """Everything one run produced: the config echo, the sampled series,
    the derived convergence summary, and traffic totals by message kind."""

    config: dict
    frames: tuple[MetricsFrame, ...]
    convergence_time_s: Optional[float]
    undiscovered_fraction: Optional[float]
    totals: dict


#: Optional per-message-accounting callback:
#: (time, kind value, sender, recipient, message count, payload bytes);
#: a discovery walk is one call with its hop count and the final holder.
TraceFn = Callable[[float, str, AgentId, AgentId, int, int], None]


class _Ev(IntEnum):
    WALK_DELIVER = 1
    HELLO = 2
    UPDATE = 3
    DISCOVERY = 4
    MIGRATE = 5
    SAMPLE = 6


# The tags as module globals, so that the event path compares identities
# instead of loading class attributes and comparing IntEnums.  Events carry
# the `_Ev` members themselves, which name them.
_WALK_DELIVER, _HELLO, _UPDATE = _Ev.WALK_DELIVER, _Ev.HELLO, _Ev.UPDATE
_DISCOVERY, _MIGRATE, _SAMPLE = _Ev.DISCOVERY, _Ev.MIGRATE, _Ev.SAMPLE


class EventKernel:
    """Priority queue of timed events; ties resolve by insertion order."""

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = count()  # insertion order, the tie-breaker
        self.now = 0.0

    def schedule(self, time: float, tag: _Ev, a=None, b=None) -> None:
        heappush(self._heap, (time, next(self._seq), tag, a, b))

    def run_until(self, until: float, dispatch: Callable) -> None:
        heap = self._heap
        while heap and heap[0][0] <= until:
            time, _, tag, a, b = heappop(heap)
            self.now = time
            dispatch(tag, a, b, time)
        self.now = until


class Platform:
    """One simulated platform instance.

    Construction builds the population and schedules all periodic
    processes; run_until drives the event loop.  The instance exposes its
    routers, one per alive steg agent, so failure drills and inspection do
    not need any special hooks.
    """

    def __init__(self, config: SimConfig, trace: Optional[TraceFn] = None) -> None:
        self.config = config
        self.profiles = method_table(config.methods)
        self.kernel = EventKernel()
        # One router per alive steg agent, in ascending id order: ids enter
        # in ascending order and are never reused.
        self.routers: dict[AgentId, StegRouter] = {}
        self.frames: list[MetricsFrame] = []
        self._trace = trace
        self._alive: list[AgentId] = []
        self._mask: dict[AgentId, int] = {}  # every steg agent's, departed ones too
        self._bit = {p.id: 1 << i for i, p in enumerate(config.methods)}
        self._bw_by_mask = _BestBandwidth(self.profiles)
        # (n_links, sum_best_bw, connected_pairs) of the alive steg agents,
        # from `_build_topology`; None: rebuild on next read
        self._topology: Optional[tuple[int, float, int]] = None
        # Departed steg agents that some table may still route to.
        self._gone: set[AgentId] = set()
        self._next_id = 0
        self._last_sample_t = 0.0
        # Bits sent in the current sampling window: per steg-link, except
        # the hellos of a live link (both ends alive and vouched for), which
        # are only summed in `_win_hello_bits`; and by discovery walks.
        self._win_link_bits: dict[tuple[AgentId, AgentId], int] = {}
        self._win_hello_bits = 0
        self._win_walk_bits = 0
        self._hello_bits = 8 * config.sizes.hello
        # Hello beacons per alive steg agent since it joined, and at the
        # start of the window; and the live links by best-link bandwidth,
        # each with the beacons of its two ends when it formed.
        self._beacons: dict[AgentId, int] = {}
        self._win_start: dict[AgentId, int] = {}
        self._links: dict[float, dict[tuple[AgentId, AgentId], int]] = {
            float(p.bandwidth_bps): {} for p in self.profiles.values()
        }
        # Messages and bytes per kind.  "data" is never sent, but its zero
        # total stays in the pinned report bytes until ROADMAP item 13.
        self._totals = {kind: [0, 0] for kind in ("discovery", "hello", "routing_update", "data")}

        self._rng_population = random.Random(f"{config.seed}:population")
        self._rng_walks = random.Random(f"{config.seed}:walks")
        self._rng_timers = random.Random(f"{config.seed}:timers")
        self._rng_migrations = random.Random(f"{config.seed}:migrations")

        self._build_population()
        for agent_id in self.routers:
            self._start_timers(agent_id, 0.0, self._rng_timers)
        if config.migration_rate > 0:
            self.kernel.schedule(
                self._rng_migrations.expovariate(config.migration_rate), _MIGRATE
            )
        if config.sampling_interval <= config.duration:
            self.kernel.schedule(config.sampling_interval, _SAMPLE)

    # -- population --------------------------------------------------------

    def _build_population(self) -> None:
        cfg = self.config
        n = cfg.n_agents
        steg_ids = set(self._rng_population.sample(range(n), cfg.n_steg_agents))
        for agent_id in range(n):
            if agent_id in steg_ids:
                self._add_agent(agent_id, derive_capabilities(self._rng_population, cfg.methods))
            else:
                self._add_agent(agent_id, frozenset())
        self._next_id = n

    def _add_agent(self, agent_id: AgentId, caps: frozenset) -> None:
        """Add an alive agent: a steg agent when `caps` is non-empty, an
        ordinary one otherwise."""
        self._alive.append(agent_id)
        if caps:
            self._mask[agent_id] = sum(self._bit[m] for m in caps)
            self._beacons[agent_id] = self._win_start[agent_id] = 0
            self.routers[agent_id] = StegRouter(
                agent_id,
                caps,
                self.profiles,
                timers=self.config.timers,
                hop_limit=self.config.hop_limit,
            )
            self._topology = None  # the topology counts steg agents only

    def remove_agent(self, agent_id: AgentId) -> None:
        """Forced departure: the agent stops all activity immediately and
        silently; peers notice only through hello loss."""
        if agent_id not in self._alive:
            return
        self._alive.remove(agent_id)
        router = self.routers.pop(agent_id, None)
        if router is not None:
            # Each live link is now a link to a departed peer: its hellos
            # this window move into its bits, and the survivor's entry ages
            # from the departed agent's final beacon, which it would have
            # received.
            win = self._win_link_bits
            for peer, entry in router.neighbors.items():
                if entry.peer_alive:
                    key = (agent_id, peer) if agent_id < peer else (peer, agent_id)
                    links = self._links[self._bw_by_mask[self._mask[agent_id] & self._mask[peer]]]
                    bits = self._window_hello_bits(key, links.pop(key))
                    win[key] = win.get(key, 0) + bits
                    self._win_hello_bits -= bits
                    self.routers[peer].unvouch(agent_id, router.last_beacon)
            del self._beacons[agent_id]
            self._gone.add(agent_id)
            self._topology = None

    def _spawn_replacement(self, steg: bool, now: float) -> AgentId:
        agent_id = self._next_id
        self._next_id += 1
        cfg = self.config
        rng = self._rng_migrations
        self._add_agent(agent_id, derive_capabilities(rng, cfg.methods) if steg else frozenset())
        if steg:
            self._start_timers(agent_id, now, rng)
        return agent_id

    # -- scheduling ---------------------------------------------------------

    def _start_timers(self, agent_id: AgentId, now: float, rng: random.Random) -> None:
        """Schedule a new steg agent's first hello, update and discovery at
        offsets from `now` drawn from `rng` in that order, each uniform over
        its interval."""
        cfg = self.config
        schedule = self.kernel.schedule
        schedule(now + rng.uniform(0, cfg.timers.hello_interval), _HELLO, agent_id)
        schedule(now + rng.uniform(0, cfg.timers.update_interval), _UPDATE, agent_id)
        schedule(now + rng.uniform(0, cfg.discovery_interval), _DISCOVERY, agent_id)

    # -- event loop -----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.kernel.now

    def run_until(self, until: float) -> None:
        self.kernel.run_until(until, self._dispatch)

    def _dispatch(self, tag: _Ev, a, b, now: float) -> None:
        if tag is _HELLO:
            self._on_hello(a, now)
        elif tag is _UPDATE:
            self._on_update(a, now)
        elif tag is _DISCOVERY:
            self._on_discovery(a, now)
        elif tag is _WALK_DELIVER:
            self._on_walk_deliver(a, b, now)
        elif tag is _SAMPLE:
            self._on_sample(now)
        elif tag is _MIGRATE:
            self._on_migrate(now)

    # -- accounting -----------------------------------------------------------

    def _send(self, kind: str, sender: AgentId, recipient: AgentId, nbytes: int) -> None:
        """Account one message of `nbytes` over the sender-recipient link."""
        totals = self._totals[kind]
        totals[0] += 1
        totals[1] += nbytes
        key = (sender, recipient) if sender < recipient else (recipient, sender)
        win = self._win_link_bits
        win[key] = win.get(key, 0) + nbytes * 8
        if self._trace is not None:
            self._trace(self.kernel.now, kind, sender, recipient, 1, nbytes)

    def _walk_sent(self, originator: AgentId, holder: AgentId, hops: int) -> None:
        """Account a discovery walk's `hops` carrier messages, which travel
        over the overlay and not over a steg-link."""
        nbytes = hops * self.config.sizes.discovery
        totals = self._totals["discovery"]
        totals[0] += hops
        totals[1] += nbytes
        self._win_walk_bits += nbytes * 8
        if self._trace is not None:
            self._trace(self.kernel.now, "discovery", originator, holder, hops, nbytes)

    def _window_hello_bits(self, key: tuple[AgentId, AgentId], formed: int) -> int:
        """The hello bits live link `key`, formed when its ends had sent
        `formed` beacons, carried this window: one hello per beacon of
        either end since the later of its forming and the window's start."""
        a, b = key
        beacons, start = self._beacons, self._win_start
        return self._hello_bits * (beacons[a] + beacons[b] - max(formed, start[a] + start[b]))

    def form_link(self, a: AgentId, b: AgentId, now: float) -> bool:
        """Where every steg-link forms: alive steg agent `a` ingests b's
        advertisement, and if a new relation came up, `b` ingests a's
        answer and both ends are vouched for.  Returns whether it came up."""
        ra, rb = self.routers[a], self.routers[b]
        if not ra.ingest_discovery(b, rb.capabilities, now):
            return False
        rb.ingest_discovery(a, ra.capabilities, now)
        self._link_formed(a, b)
        return True

    def _link_formed(self, a: AgentId, b: AgentId) -> None:
        """Vouch for both ends of a steg-link formed between two alive
        agents; its hellos are counted from here on."""
        self.routers[a].vouch(b)
        self.routers[b].vouch(a)
        key = (a, b) if a < b else (b, a)
        links = self._links[self._bw_by_mask[self._mask[a] & self._mask[b]]]
        links[key] = self._beacons[a] + self._beacons[b]

    def _emit(self, batch: UpdateBatch, recipients: Collection[AgentId], now: float) -> None:
        """Send `batch` to each of `recipients` in order: account the
        message addressed to it as `_send` would, then have the recipient
        apply it if it is still alive.  The payload is
        `update_header + update_entry * batch.row_count_for(recipient)`."""
        sizes = self.config.sizes
        header, per_row = sizes.update_header, sizes.update_entry
        rows = len(batch.routes)
        group_sizes = batch.group_sizes
        sender = batch.sender
        routers = self.routers
        win = self._win_link_bits
        trace = self._trace
        nbytes = 0
        for recipient in recipients:
            payload = header + per_row * (rows - group_sizes.get(recipient, 0))
            nbytes += payload
            key = (sender, recipient) if sender < recipient else (recipient, sender)
            win[key] = win.get(key, 0) + payload * 8
            if trace is not None:
                trace(now, "routing_update", sender, recipient, 1, payload)
            peer = routers.get(recipient)
            if peer is not None:
                peer.process_update(batch, now)
        totals = self._totals["routing_update"]
        totals[0] += len(recipients)
        totals[1] += nbytes

    # -- event handlers ---------------------------------------------------------

    def _on_hello(self, agent_id: AgentId, now: float) -> None:
        """One beacon: a hello to every Up neighbor.  A vouched neighbor
        needs no delivery, and its hello is counted in the window's total
        and in the beacon count.  Any other Up neighbor departed within the
        hold time, so its hello reaches nobody and is counted on its own."""
        router = self.routers.get(agent_id)
        if router is None:
            return
        up = router.hello_tick(now)
        n_up = len(up)
        hello_bytes = self.config.sizes.hello
        totals = self._totals["hello"]
        totals[0] += n_up
        totals[1] += n_up * hello_bytes
        self._beacons[agent_id] += 1
        self._win_hello_bits += self._hello_bits * router.vouched
        trace = self._trace
        if n_up != router.vouched or trace is not None:
            neighbors = router.neighbors
            win = self._win_link_bits
            for neighbor in up:
                if trace is not None:
                    trace(now, "hello", agent_id, neighbor, 1, hello_bytes)
                if not neighbors[neighbor].peer_alive:
                    key = (agent_id, neighbor) if agent_id < neighbor else (neighbor, agent_id)
                    win[key] = win.get(key, 0) + hello_bytes * 8
        self.kernel.schedule(now + self.config.timers.hello_interval, _HELLO, agent_id)

    def _on_update(self, agent_id: AgentId, now: float) -> None:
        router = self.routers.get(agent_id)
        if router is None:
            return
        batch = router.build_update(now)
        if batch is not None:
            self._emit(batch, router.neighbors, now)
            # Every link is vouched both ways and a departed recipient has
            # no router, so every live neighbor has now read this table.
            router.trim_log(batch.sender_version)
        self.kernel.schedule(now + self.config.timers.update_interval, _UPDATE, agent_id)

    def _on_discovery(self, agent_id: AgentId, now: float) -> None:
        if agent_id not in self.routers:
            return
        cfg = self.config
        if len(self._alive) >= 2:
            path = run_walk(agent_id, cfg.p_f, self._alive, self._rng_walks)
            hops = len(path) - 1
            self.kernel.schedule(
                now + hops * cfg.walk_hop_latency, _WALK_DELIVER, path[-1], (agent_id, hops)
            )
        self.kernel.schedule(now + cfg.discovery_interval, _DISCOVERY, agent_id)

    def _on_walk_deliver(self, holder: AgentId, origin_hops, now: float) -> None:
        originator, hops = origin_hops
        # The walk's hop transmissions happened regardless of what the
        # final holder does with the advertisement.
        self._walk_sent(originator, holder, hops)
        receiver = self.routers.get(holder)
        origin = self.routers.get(originator)
        if receiver is None or origin is None or not self.form_link(holder, originator, now):
            return
        # New neighbor relation: the holder's answer crossed the fresh
        # covert channel, then both sides swap full tables.
        self._send("discovery", holder, originator, self.config.sizes.discovery)
        for router, dest in ((receiver, originator), (origin, holder)):
            batch = router.build_update(now)
            if batch is not None:
                self._emit(batch, (dest,), now)

    def _on_migrate(self, now: float) -> None:
        victim = self._alive[self._rng_migrations.randrange(len(self._alive))]
        steg = victim in self.routers
        self.remove_agent(victim)
        self._spawn_replacement(steg, now)
        self.kernel.schedule(
            now + self._rng_migrations.expovariate(self.config.migration_rate), _MIGRATE
        )

    def _on_sample(self, now: float) -> None:
        for router in self.routers.values():
            router.expire_check(now)
        self.frames.append(self._measure(now))
        self._win_link_bits = {}
        self._win_hello_bits = 0
        self._win_walk_bits = 0
        self._win_start = dict(self._beacons)
        self._last_sample_t = now
        next_t = now + self.config.sampling_interval
        if next_t <= self.config.duration:
            self.kernel.schedule(next_t, _SAMPLE)

    # -- measurement -----------------------------------------------------------

    def _routed_pairs(self) -> int:
        """The routes held to alive steg agents: all routes less those to
        the departed agents in `_gone`.  A departed agent that no table
        routes to leaves `_gone`, since no route to it can appear again."""
        tables = [router.routes for router in self.routers.values()]
        routed = sum(map(len, tables))
        for gone in tuple(self._gone):
            held = sum(gone in table for table in tables)
            if held:
                routed -= held
            else:
                self._gone.remove(gone)
        return routed

    def convergence_level(self) -> float:
        """The convergence level a sample taken now would record."""
        return self._measure(self.now).convergence_level

    def _measure(self, now: float) -> MetricsFrame:
        """The four meters at `now`.  Convergence is the fraction of
        reachable ordered SA pairs with an installed route; pairs
        disconnected in the steg-link graph are unroutable by construction
        and excluded, and the level is vacuously 1.0 when no pair is
        reachable.  The all-pairs level uses every ordered alive-SA pair."""
        if self._topology is None:
            self._topology = _build_topology(self.routers, self._mask, self._bw_by_mask)
        n_links, sum_best_bw, connected_pairs = self._topology
        window = now - self._last_sample_t
        routed = self._routed_pairs()
        level = 1.0 if connected_pairs == 0 else routed / connected_pairs
        n_sa = len(self.routers)
        level_all = 1.0 if n_sa < 2 else routed / (n_sa * (n_sa - 1))
        # Every bandwidth is positive, so `sum_best_bw` is zero exactly
        # when `n_links` is, and all three link meters read 0.0 then.
        overhead = usage = sat_fraction = 0.0
        if n_links and window > 0:
            win = self._win_link_bits
            link_bits = sum(win.values()) + self._win_hello_bits
            overhead = (link_bits + self._win_walk_bits) / (window * n_links)
            usage = link_bits / (sum_best_bw * window)
            saturated = 0
            mask, bw, links = self._mask, self._bw_by_mask, self._links
            beacons, start = self._beacons, self._win_start
            # No live link carried more hellos this window than its two
            # ends' beacons, so a link below capacity by more is unsaturated.
            bound = self._hello_bits * 2 * max((beacons[a] - start[a] for a in beacons), default=0)
            for key, bits in win.items():
                link_bw = bw[mask[key[0]] & mask[key[1]]]
                capacity = link_bw * window
                if bits + bound >= capacity:
                    formed = links[link_bw].get(key)
                    if formed is not None:
                        bits += self._window_hello_bits(key, formed)
                    if bits >= capacity:
                        saturated += 1
            for link_bw, live in links.items():
                capacity = link_bw * window
                if bound < capacity:
                    continue  # no hello-only link of this class is saturated
                for key, formed in live.items():
                    if key not in win and self._window_hello_bits(key, formed) >= capacity:
                        saturated += 1
            sat_fraction = saturated / n_links
        return MetricsFrame(
            time=now,
            convergence_level=level,
            convergence_level_all_pairs=level_all,
            routing_overhead_per_link_bps=overhead,
            capacity_usage=usage,
            saturated_link_fraction=sat_fraction,
        )

    # -- reporting ------------------------------------------------------------

    def report(self) -> RunReport:
        frames = tuple(self.frames)
        convergence_time = _first_sustained_full(frames)
        undiscovered = 1.0 - frames[-1].convergence_level if frames else None
        totals = {
            kind: {"messages": counts[0], "bytes": counts[1]}
            for kind, counts in self._totals.items()
        }
        return RunReport(
            config=self.config.to_mapping(),
            frames=frames,
            convergence_time_s=convergence_time,
            undiscovered_fraction=undiscovered,
            totals=totals,
        )


def _first_sustained_full(frames: Sequence[MetricsFrame]) -> Optional[float]:
    """First sample time from which convergence_level stays at 1.0 to the
    end of the run; None when never reached or no samples exist."""
    last_below = -1
    for i, frame in enumerate(frames):
        if frame.convergence_level < 1.0:
            last_below = i
    if not frames or last_below == len(frames) - 1:
        return None
    return frames[last_below + 1].time


class _BestBandwidth(dict):
    """Capability-intersection bitmask (bit i standing for the i-th profile)
    -> bandwidth of the method `best_method_on_link` picks on a link whose
    ends share exactly those methods, filled on first use: a run meets a
    few dozen of the 2^k masks of a k-method catalogue."""

    def __init__(self, profiles: Mapping[StegMethodId, StegMethodProfile]) -> None:
        super().__init__()
        self._profiles = profiles

    def __missing__(self, mask: int) -> float:
        profiles = self._profiles
        best = best_method_on_link([m for i, m in enumerate(profiles) if mask >> i & 1], profiles)
        bw = self[mask] = float(profiles[best].bandwidth_bps)
        return bw


def _build_topology(
    alive_sas: Collection[AgentId],
    mask: Mapping[AgentId, int],
    bw_by_mask: Mapping[int, float],
) -> tuple[int, float, int]:
    """Link count, summed best-link bandwidth and ordered connected SA
    pairs of the alive population, counted over its classes of equal
    capability mask (at most 2^16, usually a few dozen) instead of its SAs.

    Two SAs share a steg-link exactly when their capability masks share a
    bit.  So classes of c1 and c2 SAs whose masks m1 and m2 share a bit
    add c1*c2 links, each of best bandwidth `bw_by_mask[m1 & m2]`, and a
    class of c SAs adds c*(c-1)/2 links among its own members.  The
    bandwidth sum is exact and rounded once, so it does not depend on the
    order of the SAs.

    All SAs that hold one method are linked pairwise, so every connected
    component is a union of methods, joined by the SAs that hold several
    of them, and the components are found by merging the classes.  A
    component of k SAs has k*(k-1) ordered connected pairs."""
    classes = list(Counter(mask[a] for a in alive_sas).items())
    links: Counter = Counter()  # shared mask -> links whose ends share exactly it
    for i, (m1, c1) in enumerate(classes):
        links[m1] += c1 * (c1 - 1) // 2
        for m2, c2 in classes[i + 1:]:
            if m1 & m2:
                links[m1 & m2] += c1 * c2
    n_links = sum(links.values())
    sum_best_bw = float(sum(k * Fraction(bw_by_mask[m]) for m, k in links.items()))

    # union of a component's methods -> alive SAs in it; the keys stay
    # disjoint, so a mask joins exactly the components it shares a bit with
    sizes: dict[int, int] = {}
    for m, count in classes:
        for methods in [c for c in sizes if c & m]:
            m |= methods
            count += sizes.pop(methods)
        sizes[m] = count
    connected_pairs = sum(k * (k - 1) for k in sizes.values())
    return n_links, sum_best_bw, connected_pairs


def run(config: SimConfig, trace: Optional[TraceFn] = None) -> RunReport:
    """Execute one full run and return its report."""
    platform = Platform(config, trace=trace)
    platform.run_until(config.duration)
    return platform.report()


# -- serialization -------------------------------------------------------------

SUMMARY_CSV_COLUMNS = (
    "seed",
    "n_agents",
    "sa_fraction",
    "p_f",
    "migration_rate",
    "convergence_time_s",
    "undiscovered_fraction",
    "mean_overhead_bps",
    "mean_capacity_usage",
    "mean_saturation",
    "convergence_time_min",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def summary_row(report: RunReport) -> dict[str, str]:
    """One summary CSV row; empty convergence cells mean not reached."""
    cfg = report.config
    frames = report.frames

    def mean(get: Callable[[MetricsFrame], float]) -> Optional[float]:
        if not frames:
            return None
        return sum(get(f) for f in frames) / len(frames)

    conv_s = report.convergence_time_s
    values = {
        "seed": cfg["seed"],
        "n_agents": cfg["n_agents"],
        "sa_fraction": cfg["sa_fraction"],
        "p_f": cfg["p_f"],
        "migration_rate": cfg["migration_rate"],
        "convergence_time_s": conv_s,
        "undiscovered_fraction": report.undiscovered_fraction,
        "mean_overhead_bps": mean(lambda f: f.routing_overhead_per_link_bps),
        "mean_capacity_usage": mean(lambda f: f.capacity_usage),
        "mean_saturation": mean(lambda f: f.saturated_link_fraction),
        "convergence_time_min": None if conv_s is None else conv_s / 60.0,
    }
    return {k: _fmt(values[k]) for k in SUMMARY_CSV_COLUMNS}


def write_summary_csv(rows: Iterable[Mapping[str, str]], path: str) -> None:
    """Write summary rows atomically (complete file or nothing)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SUMMARY_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def run_report_lines(report: RunReport) -> Iterable[str]:
    """JSONL serialization: header object, one line per frame, then a
    summary trailer.  Key order is fixed so identical runs serialize to
    identical bytes."""
    yield json.dumps({"type": "header", "config": report.config}, sort_keys=True)
    for f in report.frames:
        yield json.dumps({"type": "frame", **asdict(f)}, sort_keys=True)
    yield json.dumps(
        {
            "type": "summary",
            "convergence_time_s": report.convergence_time_s,
            "undiscovered_fraction": report.undiscovered_fraction,
            "totals": report.totals,
        },
        sort_keys=True,
    )


def write_run_jsonl(report: RunReport, path: str) -> None:
    atomic_write_text(path, "\n".join(run_report_lines(report)) + "\n")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a same-directory temp file and rename, so readers never
    observe a partial file and parallel writers cannot interleave."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
