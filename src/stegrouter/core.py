"""Domain model for the covert overlay: agents, steganographic carrier
methods, and the wire sizes of protocol messages.

Two agent kinds exist on the platform.  Ordinary agents only relay
anonymous traffic; steg-capable agents additionally hold a non-empty set
of carrier methods and can form steg-links with peers whose method sets
intersect.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

AgentId = int
StegMethodId = str


@dataclass(frozen=True, slots=True)
class StegMethodProfile:
    """One hidden-data carrier: its throughput, added latency, how common
    it is in the population, and its preference rank (lower = preferred)."""

    id: StegMethodId
    name: str
    bandwidth_bps: float
    delay_s: float
    occurrence: float
    preference_rank: int

    def __post_init__(self) -> None:
        if not 0 < self.bandwidth_bps < math.inf:
            raise ValueError(f"method {self.id!r}: bandwidth must be positive and finite")
        if not 0 <= self.delay_s < math.inf:
            raise ValueError(f"method {self.id!r}: delay must be >= 0 and finite")
        if not 0 < self.occurrence <= 1:
            raise ValueError(f"method {self.id!r}: occurrence must be in (0, 1]")
        if self.preference_rank < 1:
            raise ValueError(f"method {self.id!r}: preference_rank must be >= 1")


# Default carrier catalogue.  Bandwidth in bit/s; occurrence is the
# probability that a steg-capable agent supports the method; rank orders
# methods for path selection when capacity and delay tie.
DEFAULT_METHODS: tuple[StegMethodProfile, ...] = (
    StegMethodProfile("internet", "Network (Internet)", 300_000.0, 0.0, 0.90, 1),
    StegMethodProfile("hiccups", "Network (HICCUPS)", 225_000.0, 0.0, 0.05, 2),
    StegMethodProfile("image", "Image", 100.0, 0.0, 0.10, 3),
    StegMethodProfile("video", "Video", 100.0, 0.0, 0.10, 4),
    StegMethodProfile("audio", "Audio", 80.0, 0.0, 0.10, 5),
    StegMethodProfile("text", "Text", 80.0, 0.0, 0.05, 6),
)


def method_table(
    profiles: Iterable[StegMethodProfile] = DEFAULT_METHODS,
) -> dict[StegMethodId, StegMethodProfile]:
    """Index profiles by id, rejecting duplicate ids or duplicate ranks."""
    table: dict[StegMethodId, StegMethodProfile] = {}
    ranks: set[int] = set()
    for prof in profiles:
        if prof.id in table:
            raise ValueError(f"duplicate method id {prof.id!r}")
        if prof.preference_rank in ranks:
            raise ValueError(f"duplicate preference rank {prof.preference_rank}")
        table[prof.id] = prof
        ranks.add(prof.preference_rank)
    if not table:
        raise ValueError("method table must not be empty")
    return table


def derive_capabilities(
    rng: random.Random,
    profiles: Sequence[StegMethodProfile] = DEFAULT_METHODS,
) -> frozenset[StegMethodId]:
    """Draw a steg agent's method set: independent inclusion per method at
    its occurrence probability, redrawn until at least one is present."""
    while True:
        caps = frozenset(p.id for p in profiles if rng.random() < p.occurrence)
        if caps:
            return caps


@dataclass(frozen=True, slots=True)
class MessageSizes:
    """Wire sizes (bytes) used for traffic accounting."""

    discovery: int = 64
    hello: int = 32
    update_header: int = 16
    update_entry: int = 24

    def __post_init__(self) -> None:
        for name in ("discovery", "hello", "update_header", "update_entry"):
            if getattr(self, name) <= 0:
                raise ValueError(f"message size {name} must be positive")
