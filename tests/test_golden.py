"""Golden digests: the report bytes of a fixed config panel must not move.

Each report digest is the SHA-256 of `"\\n".join(run_report_lines(run(cfg)))`.
Each trace digest is the SHA-256 of every `TraceFn` call of `run(cfg, trace)`,
one `repr` of its argument tuple per line, so the order of the calls counts.
Each set of layer counts is what `harness.layer_counts` counts over one
run: the calls into the router and the dispatched events by kind, which
the benchmark's tracer reads through the same class attributes.
A change to the simulator that is meant to keep its behaviour (a speed-up,
a refactor) must leave every digest and every count as it is.  A change that moves the
bytes on purpose updates the digests here and names the change in
CHANGES.md.
"""

import hashlib

import pytest

from stegrouter.sim import SimConfig, run, run_report_lines

from harness import dyadic_delay_methods, layer_counts

GOLDEN = {
    "n250-seed1": (
        SimConfig(seed=1),
        "707bc936807e988a1d8b44cf84388be1ee21d0db59454bb64a6b93ac4918e292",
    ),
    "n250-seed2": (
        SimConfig(seed=2),
        "3c0b2e549a3fd8c934f7ddfb7240c9cf70c2953582eba4f1cebcd0e3f722f04f",
    ),
    "n250-seed3": (
        SimConfig(seed=3),
        "d123bbb07d235c984fdb07b66bc47f2c8f626656876f09b1211523e546f27f8d",
    ),
    "n250-churn-seed1": (
        SimConfig(migration_rate=1 / 60, seed=1),
        "230ccf12f876ec14f595b5badb7761b535c24f27067374f3e5b6d662b58ae601",
    ),
    "n250-dyadic-catalogue-seed1": (
        SimConfig(methods=dyadic_delay_methods(1), seed=1),
        "ca9994f0c4bad1f188ec2d17d69e8286351b4f80452b9de59d092b98315d292a",
    ),
    "n1000-seed1": (
        SimConfig(n_agents=1000, seed=1),
        "e14e41e75cfabdd1a7d142f237d7d146f05f9ad81d0e1da282f5e954b3d75465",
    ),
    # A binding hop limit under heavy churn: withdrawals, full passes and
    # routes at the limit (281 of 509 at the horizon).
    "n250-hop2-churn-seed1": (
        SimConfig(hop_limit=2, migration_rate=0.1, seed=1),
        "a3a3d66e5d908ff921b5341a1daba5c7ca9033ec326fc05b3743132da8767c65",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest_is_pinned(name):
    cfg, expected = GOLDEN[name]
    text = "\n".join(run_report_lines(run(cfg)))
    assert hashlib.sha256(text.encode()).hexdigest() == expected


TRACE_GOLDEN = {
    "n250-seed1": (
        SimConfig(seed=1),
        "78c643f96bdd5c3104227730227e8f71698dcd1cbd96bf34d36455a06324673d",
    ),
    "n250-churn-seed1": (
        SimConfig(migration_rate=1 / 60, seed=1),
        "e3fcad85c4a64590c622d61feb883365c84436a969dabd3f41596e00d4772aff",
    ),
}


@pytest.mark.parametrize("name", sorted(TRACE_GOLDEN))
def test_trace_digest_is_pinned(name):
    cfg, expected = TRACE_GOLDEN[name]
    digest = hashlib.sha256()

    def trace(*row):
        digest.update(repr(row).encode() + b"\n")

    run(cfg, trace=trace)
    assert digest.hexdigest() == expected


LAYER_COUNTS = {
    "n250-seed1": (
        SimConfig(seed=1),
        {
            "build_update.calls": 1858,
            "events.discovery": 4500,
            "events.hello": 9000,
            "events.sample": 180,
            "events.update": 1500,
            "events.walk_deliver": 4500,
            "expire_check.calls": 6358,
            "hello_tick.calls": 9000,
            "process_update.calls": 14111,
            "process_update.changed": 943,
            "process_update.rows": 314412,
        },
    ),
    "n250-churn-seed1": (
        SimConfig(migration_rate=1 / 60, seed=1),
        {
            "build_update.calls": 1877,
            "events.discovery": 4505,
            "events.hello": 9002,
            "events.migrate": 30,
            "events.sample": 180,
            "events.update": 1504,
            "events.walk_deliver": 4502,
            "expire_check.calls": 6377,
            "hello_tick.calls": 8999,
            "process_update.calls": 13483,
            "process_update.changed": 1550,
            "process_update.rows": 298735,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(LAYER_COUNTS))
def test_layer_counts_are_pinned(name):
    cfg, expected = LAYER_COUNTS[name]
    assert layer_counts(cfg) == expected
