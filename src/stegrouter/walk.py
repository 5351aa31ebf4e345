"""Random-walk anonymous forwarding.

A message performs a random walk over the live population: the holder
forwards it to a uniformly chosen other agent with probability p_f and
otherwise keeps it (the walk terminates and the final holder is the
recipient).  The originator always performs the first send, so every
path has at least two members and the path length is geometrically
distributed: P(len = k) = p_f**(k-2) * (1 - p_f) for k >= 2.

The engine is blind to agent roles and message content: relays see only
the forwarding coin and the candidate list, so ordinary and steg agents
traverse the exact same code path.
"""
from __future__ import annotations

import random
from typing import Sequence

from .core import AgentId


def run_walk(
    originator: AgentId,
    p_f: float,
    population: Sequence[AgentId],
    rng: random.Random,
) -> list[AgentId]:
    """Walk a message from `originator` and return the full path, ending
    with the final holder.

    Each send picks the next holder uniformly from `population`, redrawing
    while the pick is the current holder (earlier path members may be
    revisited).  After every send but the originator's, the holder flips
    the forwarding coin `rng.random() < p_f` and delivers on a miss.  An
    index is drawn as `Random.randrange(len(population))` draws it, from
    `rng.getrandbits(len(population).bit_length())` redrawn while out of
    range, which gives the same stream without its call layers.

    Raises ValueError before any draw when `population` holds fewer than
    two distinct agents, since some holder would then have no candidate."""
    if not 0.0 <= p_f < 1.0:
        raise ValueError(f"p_f must lie in [0, 1), got {p_f}")
    n = len(population)
    if not (n >= 2 and population[0] != population[1]) and len(set(population)) < 2:
        raise ValueError("the population must hold at least two distinct agents")
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    coin = rng.random
    holder = originator
    path = [holder]
    while True:
        i = getrandbits(bits)
        while i >= n or population[i] == holder:
            i = getrandbits(bits)
        holder = population[i]
        path.append(holder)
        if coin() >= p_f:
            return path
