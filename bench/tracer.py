"""Layer tracing from outside the package.

The tracer replaces the public entry points of each stegrouter layer with
wrappers that record a span (name, start, end, parent, operation) and the
counts that explain the time spent.  A layer's self time is its span's
duration minus the time covered by its child spans.  ``installed()``
restores every original attribute on exit, also when the traced code raises.

``StegRouter.receive_hello`` runs about three million times per N=1000 seed,
so it is timed and counted as a leaf without storing a span per call; its
time still counts as child time of the span that called it.
"""
from __future__ import annotations

import contextlib
import os
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

_now = time.perf_counter_ns


class EventCounter:
    """Counts dispatched simulation events and nothing else; the untraced
    run uses it, so its only cost is one extra call per event."""

    def __init__(self) -> None:
        self.events = 0

    @contextlib.contextmanager
    def installed(self) -> Iterator["EventCounter"]:
        from stegrouter.sim import EventKernel

        original = EventKernel.run_until
        counter = self

        def run_until(kernel, until, dispatch):
            def counted(tag, a, b, now):
                counter.events += 1
                dispatch(tag, a, b, now)

            return original(kernel, until, counted)

        EventKernel.run_until = run_until
        try:
            yield self
        finally:
            EventKernel.run_until = original


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.op = array("q")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[list[int]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []

    @property
    def events(self) -> int:
        return self.counts["sim.events"]

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int) -> None:
        stack = self._stack
        idx = len(self.start)
        t = _now()
        self.start.append(t)
        self.end.append(0)
        self.parent.append(stack[-1][3] if stack else -1)
        self.name.append(nid)
        self.op.append(self.op_id)
        stack.append([nid, t, 0, idx])

    def _exit(self) -> None:
        t = _now()
        nid, start, child, idx = self._stack.pop()
        self.end[idx] = t
        duration = t - start
        name = self.names[nid]
        self.self_ns[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if count is not None:
                count(result, args)
            return result

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            t = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _now() - t
                self.self_ns[name] += duration
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][2] += duration

        return wrapper

    def _kernel(self, original: Callable) -> Callable:
        kernel_id = self._id("sim.kernel")
        event_ids: dict[Any, int] = {}
        counts = self.counts

        def run_until(kernel, until, dispatch):
            def traced(tag, a, b, now):
                nid = event_ids.get(tag)
                if nid is None:
                    label = getattr(tag, "name", str(tag)).lower()
                    nid = event_ids[tag] = self._id(f"sim.{label}")
                counts["sim.events"] += 1
                counts["sim.events." + self.names[nid][4:]] += 1
                self._enter(nid)
                try:
                    dispatch(tag, a, b, now)
                finally:
                    self._exit()

            self._enter(kernel_id)
            try:
                return original(kernel, until, traced)
            finally:
                self._exit()

        return run_until

    # -- installation --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def leftover(self) -> list[str]:
        """Attributes that do not hold their original object any more;
        empty once ``installed()`` has exited."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if getattr(owner, attr) is not original
        ]

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        from stegrouter import anonymity, cli, router, sim, walk
        from stegrouter.router import StegRouter
        from stegrouter.sim import EventKernel, Platform

        counts = self.counts
        last_batch: dict[Any, Any] = {}

        def process_update(changed, args):
            receiver, batch = args[0], args[1]
            counts["router.process_update.rows"] += batch.row_count_for(receiver.agent_id)
            counts["router.process_update.changed"] += bool(changed)

        def build_update(batch, args):
            if batch is not None:
                counts["router.build_update.reused"] += batch is last_batch.get(args[0])
                last_batch[args[0]] = batch

        def expire_check(expired, args):
            counts["router.expire_check.expired"] += len(expired)

        def ingest_discovery(formed, args):
            counts["router.ingest_discovery.formed"] += bool(formed)

        def reference_tables(tables, args):
            counts["router.reference_tables.pairs"] += sum(len(t) for t in tables.values())

        def run_walk(path, args):
            counts["walk.hops"] += len(path) - 1

        def monte_carlo(result, args):
            counts["anonymity.monte_carlo_entropy.trials"] += result.trials
            counts["anonymity.monte_carlo_entropy.observations"] += result.observations

        def serialized(result, args):
            counts["sim.serialize.bytes"] += os.path.getsize(args[1])

        def span(name, count=None):
            return lambda fn: self.span(name, fn, count)

        try:
            self._patch(StegRouter, "process_update", span("router.process_update", process_update))
            self._patch(StegRouter, "build_update", span("router.build_update", build_update))
            self._patch(StegRouter, "hello_tick", span("router.hello_tick"))
            self._patch(StegRouter, "receive_hello", lambda fn: self.leaf("router.receive_hello", fn))
            self._patch(StegRouter, "expire_check", span("router.expire_check", expire_check))
            self._patch(StegRouter, "ingest_discovery", span("router.ingest_discovery", ingest_discovery))
            self._patch(router, "reference_tables", span("router.reference_tables", reference_tables))
            # Functions imported by name are bound in several modules; each
            # binding is wrapped.
            for module in (walk, sim):
                self._patch(module, "run_walk", span("walk.run_walk", run_walk))
            self._patch(EventKernel, "run_until", self._kernel)
            self._patch(Platform, "__init__", span("sim.setup"))
            for module in (sim, cli):
                self._patch(module, "run", span("sim.run"))
                self._patch(module, "write_run_jsonl", span("sim.serialize", serialized))
                self._patch(module, "write_summary_csv", span("sim.serialize", serialized))
            self._patch(anonymity, "monte_carlo_entropy", span("anonymity.monte_carlo_entropy", monte_carlo))
            self._patch(cli, "main", span("cli.main"))
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            last_batch.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of everything traced so far."""
        calls, counts = self.calls, self.counts

        def self_s(*names: str) -> float:
            return sum(self.self_ns[n] for n in names) / 1e9

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: dict[str, float] = {}
        pu_calls = calls["router.process_update"]
        rows = counts["router.process_update.rows"]
        changed = counts["router.process_update.changed"]
        m["router.process_update.calls"] = pu_calls
        m["router.process_update.rows"] = rows
        m["router.process_update.changed"] = changed
        m["router.process_update.useful_ratio"] = ratio(changed, pu_calls)
        m["router.process_update.self_s"] = self_s("router.process_update")
        m["router.process_update.ns_per_row"] = ratio(self.self_ns["router.process_update"], rows)
        m["router.build_update.calls"] = calls["router.build_update"]
        m["router.build_update.reused"] = counts["router.build_update.reused"]
        m["router.build_update.self_s"] = self_s("router.build_update")
        m["router.hello.calls"] = calls["router.hello_tick"] + calls["router.receive_hello"]
        m["router.hello.self_s"] = self_s("router.hello_tick", "router.receive_hello")
        for name, count in (("expire_check", "expired"), ("ingest_discovery", "formed"),
                            ("reference_tables", "pairs")):
            m[f"router.{name}.calls"] = calls[f"router.{name}"]
            m[f"router.{name}.{count}"] = counts[f"router.{name}.{count}"]
            m[f"router.{name}.self_s"] = self_s(f"router.{name}")
        hops = counts["walk.hops"]
        m["walk.run_walk.calls"] = calls["walk.run_walk"]
        m["walk.run_walk.self_s"] = self_s("walk.run_walk")
        m["walk.hops"] = hops
        m["walk.ns_per_hop"] = ratio(self.self_ns["walk.run_walk"], hops)
        m["sim.events"] = counts["sim.events"]
        m["sim.kernel.self_s"] = self_s("sim.kernel")
        for event in ("hello", "update", "discovery", "walk_deliver", "sample", "migrate"):
            m[f"sim.events.{event}"] = counts[f"sim.events.{event}"]
            m[f"sim.{event}.self_s"] = self_s(f"sim.{event}")
        m["sim.setup_s"] = self_s("sim.setup")
        m["sim.serialize.self_s"] = self_s("sim.serialize")
        m["sim.serialize.bytes"] = counts["sim.serialize.bytes"]
        trials = counts["anonymity.monte_carlo_entropy.trials"]
        observations = counts["anonymity.monte_carlo_entropy.observations"]
        m["anonymity.monte_carlo_entropy.calls"] = calls["anonymity.monte_carlo_entropy"]
        m["anonymity.monte_carlo_entropy.self_s"] = self_s("anonymity.monte_carlo_entropy")
        m["anonymity.monte_carlo_entropy.trials"] = trials
        m["anonymity.monte_carlo_entropy.observations"] = observations
        m["anonymity.monte_carlo_entropy.observation_ratio"] = ratio(observations, trials)
        m["cli.main.self_s"] = self_s("cli.main")
        return m

    def write_spans(self, path: Path) -> None:
        """Write every stored span as a compressed NumPy archive: parallel
        arrays start/end (ns), parent (span index, -1 for a root), name
        (index into ``names``) and op (operation index in the pass)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int64),
            names=np.array(self.names),
        )
