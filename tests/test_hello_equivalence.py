"""Hellos accounted once per beacon equal hellos sent one by one.

`Platform` vouches for both ends of every steg-link, all of which
`Platform.form_link` forms, so a live peer counts as Up without its
hellos refreshing the entry, a beacon adds its messages to the totals in
one step, and a live link's window bits are derived from the beacon
counts of its two ends; only a hello to a peer that departed within the
hold time is counted on its own.  `harness.ReferencePlatform` vouches for
no link and sends and delivers every hello on its own.  On random small
configs both must write the same report lines and make the same trace
calls in the same order.

The configs cover a hold time one float step above the hello interval,
churn up to one migration per second, sampling intervals that are not
multiples of the hello interval, a text-only catalogue sampled every
second (one hello saturates the 80 bit/s link for that window), an
80 bit/s and a 400 bit/s method sampled every second under heavy churn
(a hello from each end saturates a 400 bit/s link for that window, one
hello does not), and links formed through `form_link` before the run
starts.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stegrouter.core import DEFAULT_METHODS, StegMethodProfile
from stegrouter.router import RouterTimers
from stegrouter.sim import Platform, SimConfig, run_report_lines

from harness import TEXT_ONLY, ReferencePlatform, dyadic_delay_methods

TEXT_AND_WIDE = TEXT_ONLY + (StegMethodProfile("wide", "Wide", 400, 0.0, 0.5, 1),)
CATALOGUES = (DEFAULT_METHODS, TEXT_ONLY, dyadic_delay_methods(3))


def outputs(platform_cls, cfg, early_pairs):
    calls = []
    platform = platform_cls(cfg, trace=lambda *row: calls.append(row))
    sa_ids = sorted(platform.routers)
    for i, j in early_pairs:
        if len(sa_ids) < 2:
            break
        platform.form_link(sa_ids[i % len(sa_ids)], sa_ids[j % len(sa_ids)], 0.0)
    platform.run_until(cfg.duration)
    return list(run_report_lines(platform.report())), calls


@st.composite
def configs(draw):
    hello = draw(st.sampled_from((0.5, 1.0, 2.5, 3.3, 5.0)))
    hold = draw(st.sampled_from((
        math.nextafter(hello, math.inf), hello * 1.5, hello * 3.0,
    )))
    timers = RouterTimers(
        hello_interval=hello,
        hold_time=hold,
        update_interval=draw(st.sampled_from((2.0, 7.7, 30.0))),
    )
    return SimConfig(
        duration=draw(st.sampled_from((60.0, 150.0, 300.0))),
        n_agents=draw(st.integers(10, 60)),
        sa_fraction=draw(st.sampled_from((0.1, 0.2, 0.35))),
        p_f=draw(st.sampled_from((0.5, 0.75))),
        migration_rate=draw(st.sampled_from((0.0, 1 / 60, 0.1, 1.0))),
        seed=draw(st.integers(0, 2**16)),
        sampling_interval=draw(st.sampled_from((1.0, 3.7, 10.0, 12.5))),
        discovery_interval=draw(st.sampled_from((2.0, 10.0))),
        walk_hop_latency=draw(st.sampled_from((0.0, 0.001, 0.4))),
        timers=timers,
        methods=draw(st.sampled_from(CATALOGUES)),
    )


early_pairs = st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=3)


@example(
    SimConfig(duration=120.0, n_agents=40, sa_fraction=0.2, methods=TEXT_ONLY,
              sampling_interval=1.0, seed=5),
    [],
)
@example(
    SimConfig(duration=120.0, n_agents=40, sa_fraction=0.2, methods=TEXT_AND_WIDE,
              sampling_interval=1.0, migration_rate=1.0, seed=1),
    [],
)
@example(
    SimConfig(duration=300.0, n_agents=40, migration_rate=1.0, seed=2,
              sampling_interval=3.7,
              timers=RouterTimers(5.0, math.nextafter(5.0, math.inf), 30.0)),
    [(0, 1), (2, 3)],
)
@settings(max_examples=120, deadline=None)
@given(configs(), early_pairs)
def test_beacons_match_hellos_sent_one_by_one(cfg, pairs):
    lines, calls = outputs(Platform, cfg, pairs)
    ref_lines, ref_calls = outputs(ReferencePlatform, cfg, pairs)
    assert lines == ref_lines
    assert calls == ref_calls
