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
import heapq
import io
import json
import math
import os
import random
import tempfile
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from enum import IntEnum
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .core import (
    AgentId,
    DEFAULT_METHODS,
    MessageKind,
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


class EventKernel:
    """Priority queue of timed events; ties resolve by insertion order."""

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self.now = 0.0

    def schedule(self, time: float, tag: int, a=None, b=None) -> None:
        heapq.heappush(self._heap, (time, self._seq, tag, a, b))
        self._seq += 1

    def run_until(self, until: float, dispatch: Callable) -> None:
        heap = self._heap
        while heap and heap[0][0] <= until:
            time, _, tag, a, b = heapq.heappop(heap)
            self.now = time
            dispatch(tag, a, b, time)
        self.now = until


@dataclass(slots=True)
class _Topology:
    """Cached view of the current steg-link graph (alive SAs only)."""

    n_links: int
    sum_best_bw: float
    connected_pairs: int


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
        self._mask: dict[AgentId, int] = {}
        self._bit = {p.id: 1 << i for i, p in enumerate(config.methods)}
        self._bw_by_mask = _best_bandwidth_by_mask(self.profiles)
        self._population_version = 0
        self._topology: Optional[_Topology] = None
        self._topology_version = -1
        self._ever_removed = False
        self._next_id = 0
        self._last_sample_t = 0.0
        # Bits sent in the current sampling window, per steg-link and by
        # discovery walks.
        self._win_link_bits: dict[tuple[AgentId, AgentId], int] = {}
        self._win_walk_bits = 0
        self._totals = {kind.value: [0, 0] for kind in MessageKind}

        self._rng_population = random.Random(f"{config.seed}:population")
        self._rng_walks = random.Random(f"{config.seed}:walks")
        self._rng_timers = random.Random(f"{config.seed}:timers")
        self._rng_migrations = random.Random(f"{config.seed}:migrations")

        self._build_population()
        self._schedule_initial()

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
            self.routers[agent_id] = StegRouter(
                agent_id,
                caps,
                self.profiles,
                timers=self.config.timers,
                hop_limit=self.config.hop_limit,
            )
        self._population_version += 1

    def remove_agent(self, agent_id: AgentId) -> None:
        """Forced departure: the agent stops all activity immediately and
        silently; peers notice only through hello loss."""
        if agent_id not in self._alive:
            return
        self._alive.remove(agent_id)
        self.routers.pop(agent_id, None)
        self._population_version += 1
        self._ever_removed = True

    def _spawn_replacement(self, steg: bool, now: float) -> AgentId:
        agent_id = self._next_id
        self._next_id += 1
        cfg = self.config
        rng = self._rng_migrations
        self._add_agent(agent_id, derive_capabilities(rng, cfg.methods) if steg else frozenset())
        if steg:
            self.kernel.schedule(
                now + rng.uniform(0, cfg.timers.hello_interval), _Ev.HELLO, agent_id
            )
            self.kernel.schedule(
                now + rng.uniform(0, cfg.timers.update_interval), _Ev.UPDATE, agent_id
            )
            self.kernel.schedule(
                now + rng.uniform(0, cfg.discovery_interval), _Ev.DISCOVERY, agent_id
            )
        return agent_id

    # -- scheduling ---------------------------------------------------------

    def _schedule_initial(self) -> None:
        cfg = self.config
        for agent_id in self.routers:
            self.kernel.schedule(
                self._rng_timers.uniform(0, cfg.timers.hello_interval), _Ev.HELLO, agent_id
            )
            self.kernel.schedule(
                self._rng_timers.uniform(0, cfg.timers.update_interval), _Ev.UPDATE, agent_id
            )
            self.kernel.schedule(
                self._rng_timers.uniform(0, cfg.discovery_interval), _Ev.DISCOVERY, agent_id
            )
        if cfg.migration_rate > 0:
            self.kernel.schedule(
                self._rng_migrations.expovariate(cfg.migration_rate), _Ev.MIGRATE
            )
        if cfg.sampling_interval <= cfg.duration:
            self.kernel.schedule(cfg.sampling_interval, _Ev.SAMPLE)

    # -- event loop -----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.kernel.now

    def run_until(self, until: float) -> None:
        self.kernel.run_until(until, self._dispatch)

    def _dispatch(self, tag: int, a, b, now: float) -> None:
        if tag == _Ev.HELLO:
            self._on_hello(a, now)
        elif tag == _Ev.UPDATE:
            self._on_update(a, now)
        elif tag == _Ev.DISCOVERY:
            self._on_discovery(a, now)
        elif tag == _Ev.WALK_DELIVER:
            self._on_walk_deliver(a, b, now)
        elif tag == _Ev.SAMPLE:
            self._on_sample(now)
        elif tag == _Ev.MIGRATE:
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

    def _deliver_update(self, batch: UpdateBatch, recipient: AgentId, now: float) -> None:
        """Account the message of `batch` addressed to `recipient`, then
        have the recipient apply it if it is still alive."""
        payload = self.config.sizes.update_payload(batch.row_count_for(recipient))
        self._send("routing_update", batch.sender, recipient, payload)
        peer = self.routers.get(recipient)
        if peer is not None:
            peer.process_update(batch, now)

    # -- event handlers ---------------------------------------------------------

    def _on_hello(self, agent_id: AgentId, now: float) -> None:
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

    def _on_update(self, agent_id: AgentId, now: float) -> None:
        router = self.routers.get(agent_id)
        if router is None:
            return
        batch = router.build_update(now)
        if batch is not None:
            for recipient in batch.recipients:
                self._deliver_update(batch, recipient, now)
        self.kernel.schedule(now + self.config.timers.update_interval, _Ev.UPDATE, agent_id)

    def _on_discovery(self, agent_id: AgentId, now: float) -> None:
        if agent_id not in self.routers:
            return
        cfg = self.config
        if len(self._alive) >= 2:
            path = run_walk(agent_id, cfg.p_f, self._alive, self._rng_walks)
            hops = len(path) - 1
            self.kernel.schedule(
                now + hops * cfg.walk_hop_latency, _Ev.WALK_DELIVER, path[-1], (agent_id, hops)
            )
        self.kernel.schedule(now + cfg.discovery_interval, _Ev.DISCOVERY, agent_id)

    def _on_walk_deliver(self, holder: AgentId, origin_hops, now: float) -> None:
        originator, hops = origin_hops
        # The walk's hop transmissions happened regardless of what the
        # final holder does with the advertisement.
        self._walk_sent(originator, holder, hops)
        receiver = self.routers.get(holder)
        origin = self.routers.get(originator)
        if receiver is None or origin is None:
            return
        formed = receiver.ingest_discovery(originator, origin.capabilities, now)
        if not formed:
            return
        # New neighbor relation: answer with own capabilities over the
        # fresh covert channel, then both sides swap full tables.
        self._send("discovery", holder, originator, self.config.sizes.discovery)
        origin.ingest_discovery(holder, receiver.capabilities, now)
        for router, dest in ((receiver, originator), (origin, holder)):
            batch = router.build_update(now)
            if batch is not None:
                self._deliver_update(batch, dest, now)

    def _on_migrate(self, now: float) -> None:
        victim = self._alive[self._rng_migrations.randrange(len(self._alive))]
        steg = victim in self.routers
        self.remove_agent(victim)
        self._spawn_replacement(steg, now)
        self.kernel.schedule(
            now + self._rng_migrations.expovariate(self.config.migration_rate), _Ev.MIGRATE
        )

    def _on_sample(self, now: float) -> None:
        for router in self.routers.values():
            router.expire_check(now)
        self.frames.append(self._measure(now))
        self._win_link_bits = {}
        self._win_walk_bits = 0
        self._last_sample_t = now
        next_t = now + self.config.sampling_interval
        if next_t <= self.config.duration:
            self.kernel.schedule(next_t, _Ev.SAMPLE)

    # -- measurement -----------------------------------------------------------

    def _current_topology(self) -> _Topology:
        if self._topology_version != self._population_version:
            self._topology = _build_topology(self.routers, self._mask, self._bw_by_mask)
            self._topology_version = self._population_version
        return self._topology

    def _routed_pairs(self) -> int:
        if not self._ever_removed:
            return sum(len(r.routes) for r in self.routers.values())
        routers = self.routers
        return sum(
            sum(1 for dest in router.routes if dest in routers)
            for router in routers.values()
        )

    def convergence_level(self) -> float:
        """The convergence level a sample taken now would record."""
        return self._measure(self.now).convergence_level

    def _measure(self, now: float) -> MetricsFrame:
        """The four meters at `now`.  Convergence is the fraction of
        reachable ordered SA pairs with an installed route; pairs
        disconnected in the steg-link graph are unroutable by construction
        and excluded, and the level is vacuously 1.0 when no pair is
        reachable.  The all-pairs level uses every ordered alive-SA pair."""
        topo = self._current_topology()
        window = now - self._last_sample_t
        routed = self._routed_pairs()
        level = 1.0 if topo.connected_pairs == 0 else routed / topo.connected_pairs
        n_sa = len(self.routers)
        level_all = 1.0 if n_sa < 2 else routed / (n_sa * (n_sa - 1))
        link_bits = sum(self._win_link_bits.values())
        if topo.n_links and window > 0:
            overhead = (link_bits + self._win_walk_bits) / (window * topo.n_links)
        else:
            overhead = 0.0
        if topo.sum_best_bw and window > 0:
            usage = link_bits / (topo.sum_best_bw * window)
        else:
            usage = 0.0
        saturated = 0
        if topo.n_links and window > 0:
            mask = self._mask
            bw = self._bw_by_mask
            for (a, b), bits in self._win_link_bits.items():
                if bits >= bw[mask[a] & mask[b]] * window:
                    saturated += 1
        sat_fraction = saturated / topo.n_links if topo.n_links else 0.0
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


def _best_bandwidth_by_mask(profiles: Mapping[StegMethodId, StegMethodProfile]) -> np.ndarray:
    """Bandwidth of the best method on a link for every capability-
    intersection bitmask, bit i standing for the i-th profile; index 0 (no
    shared method) maps to 0.0."""
    ids = list(profiles)
    table = np.zeros(1 << len(ids), dtype=np.float64)
    for mask in range(1, 1 << len(ids)):
        shared = [m for i, m in enumerate(ids) if mask >> i & 1]
        table[mask] = profiles[best_method_on_link(shared, profiles)].bandwidth_bps
    return table


def _build_topology(
    alive_sas: Collection[AgentId],
    mask: Mapping[AgentId, int],
    bw_by_mask: np.ndarray,
) -> _Topology:
    n = len(alive_sas)
    if n < 2:
        return _Topology(0, 0.0, 0)
    masks = np.fromiter((mask[a] for a in alive_sas), dtype=np.int64, count=n)
    pair = np.bitwise_and.outer(masks, masks)
    np.fill_diagonal(pair, 0)
    iu = np.triu_indices(n, 1)
    upper = pair[iu]
    exists = upper != 0
    n_links = int(exists.sum())
    sum_best_bw = float(bw_by_mask[upper].sum())
    graph = csr_matrix((pair != 0).astype(np.int8))
    n_comp, labels = connected_components(graph, directed=False)
    sizes = np.bincount(labels, minlength=n_comp)
    connected_pairs = int((sizes * (sizes - 1)).sum())
    return _Topology(n_links, sum_best_bw, connected_pairs)


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
