"""Outside-in layer tracing for the benchmark's traced run.

Spans are recorded by wrapping each layer's public entry points from the
benchmark's side -- class attributes such as ``Simulator.step`` and
``FairShareSystem.open``, and module bindings such as
``repro.mapreduce.runner.run_mapper`` -- so no program file changes.
Wrappers are installed for the traced iteration only; the end-to-end
metrics come from untraced iterations.

A span's *self* time is its duration minus the time its child spans
cover.  Counting wrappers record no span: their cost lands in the
enclosing span's self time.  Spans and counts stay in memory until the
measured phase ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import zlib
from collections import defaultdict
from typing import Any, Callable, Iterator

#: Process-name prefix of the service surrogate's slot workers: their
#: generator steps are the ``cloud.backend`` layer.
BACKEND_PROCESS_PREFIX = "svc-surrogate"


class Tracer:
    """Span and counter store shared by every installed wrapper.

    ``stack`` holds one child-time accumulator per open span; the bottom
    entry collects time of top-level spans.  The dicts are cleared in
    place by :meth:`reset`, never replaced, because wrappers capture them.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.stack: list[list[float]] = [[0.0]]
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: Objects created while wrappers were installed, by kind.
        self.instances: dict[str, list] = defaultdict(list)
        #: Counter values of each instance when the measured phase began.
        self._marks: dict[int, dict[str, float]] = {}
        #: Map-call keys already seen (``mapreduce.map.repeat_ratio``).
        self.map_keys: set = set()
        #: ``(entry point, completion event)`` of every submitted job.
        self.job_events: list[tuple[str, Any]] = []

    def reset(self) -> None:
        """Forget everything recorded so far (the phase boundary)."""
        if len(self.stack) != 1:
            raise RuntimeError("reset() inside an open span")
        self.stack[0][0] = 0.0
        for table in (self.calls, self.incl, self.self_s, self.counts):
            table.clear()
        self.map_keys.clear()
        self.job_events.clear()
        self._marks = {id(obj): _instance_counters(kind, obj)
                       for kind, objs in self.instances.items()
                       for obj in objs}

    # -- span primitives --------------------------------------------------
    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of ``layer``."""
        clock = self.clock
        stack, calls = self.stack, self.calls
        incl, self_s = self.incl, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                calls[layer] += 1
                incl[layer] += dt
                self_s[layer] += dt - frame[0]
        return wrapper

    def timed_generator(self, layer: str, gen):
        """A generator that forwards to ``gen`` and times each resume of
        ``gen`` as one span of ``layer`` (the time between resumes is the
        kernel's, not the layer's)."""
        step = self.timed(layer, _resume)
        value: Any = None
        error: BaseException | None = None
        while True:
            try:
                target = step(gen, value, error)
            except StopIteration as stop:
                return stop.value
            try:
                value, error = (yield target), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into ``gen``
                value, error = None, exc

    # -- phase snapshot ---------------------------------------------------
    def snapshot(self) -> dict:
        """Mergeable plain-data view of the phase recorded since reset."""
        counts = dict(self.counts)
        maxes: dict[str, float] = {}
        for kind, objs in self.instances.items():
            for obj in objs:
                now = _instance_counters(kind, obj)
                base = self._marks.get(id(obj))
                if base == now:
                    continue  # idle since the phase began (set-up only)
                for key, value in now.items():
                    if key.startswith("max:"):
                        name = key[4:]
                        maxes[name] = max(maxes.get(name, 0.0), value)
                    else:
                        counts[key] = (counts.get(key, 0.0) + value
                                       - (base or {}).get(key, 0.0))
        for entry, event in self.job_events:
            if not (event.triggered and event.ok):
                continue
            if entry == "scheduler":
                counts["scheduler.jobs_done"] = (
                    counts.get("scheduler.jobs_done", 0) + 1)
            counts["mapreduce.jobs"] = counts.get("mapreduce.jobs", 0) + 1
            counts["mapreduce.map.committed"] = (
                counts.get("mapreduce.map.committed", 0)
                + sum(1 for task in event.value.tasks if task.kind == "map"))
        return {"calls": dict(self.calls), "incl": dict(self.incl),
                "self": dict(self.self_s), "counts": counts,
                "maxes": maxes}


def _resume(gen, value, error):
    return gen.throw(error) if error is not None else gen.send(value)


def _instance_counters(kind: str, obj) -> dict[str, float]:
    """Deterministic counters the program keeps on its own objects."""
    if kind == "sim":
        return {"kernel.events_processed": obj.events_processed,
                "kernel.cancelled": obj.cancelled_pruned,
                "max:kernel.heap_max": obj.max_heap_size}
    if kind == "fss":
        return {"fairshare.rebalances": obj.rebalance_count,
                "fairshare.flow_visits": obj.flow_visits,
                "fairshare.completed_flows": obj.completed_count,
                "fairshare.timer_cancellations": obj.timer_cancellations,
                "fairshare.rack_splits": obj.rack_splits,
                "max:fairshare.max_component_flows":
                    obj.max_component_flows}
    if kind == "fabric":
        stats = obj.path_cache_stats()
        return {"net.path_hits": stats["hits"],
                "net.path_misses": stats["misses"]}
    if kind == "service":
        report = obj.report
        return {"cloud.arrivals": report.submitted,
                "cloud.rejected": report.rejected}
    if kind == "alertbook":
        return {"observatory.alerts": len(obj.alerts)}
    if kind == "burn":
        return {"observatory.burn.evals": obj.evaluations}
    raise KeyError(kind)


def merge(snapshots: list[dict]) -> dict:
    """Sum the additive tables of several snapshots; max the maxima."""
    out: dict = {"calls": defaultdict(int), "incl": defaultdict(float),
                 "self": defaultdict(float), "counts": defaultdict(float),
                 "maxes": defaultdict(float)}
    for snap in snapshots:
        for table in ("calls", "incl", "self", "counts"):
            for key, value in snap[table].items():
                out[table][key] += value
        for key, value in snap["maxes"].items():
            out["maxes"][key] = max(out["maxes"][key], value)
    return {table: dict(values) for table, values in out.items()}


def _split_key(records) -> int:
    """Content key of a map split (hash of its records)."""
    try:
        return hash(tuple(records))
    except TypeError:  # unhashable values (vectors): fall back to repr
        return zlib.crc32(repr(records).encode("utf-8"))


# -- installation ----------------------------------------------------------

@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install every layer wrapper for the duration of the block."""
    from repro.cloud.admission import AdmissionController
    from repro.cloud.autoscaler import ElasticAutoscaler
    from repro.cloud.controller import ServiceController
    from repro.datasets import text as text_mod
    from repro.hdfs.client import DfsClient
    from repro.hdfs.namenode import NameNode
    from repro.mapreduce import runner as runner_mod
    from repro.mapreduce.runner import MapReduceRunner
    from repro.net.topology import NetworkFabric
    from repro.observatory.burnrate import BurnRateEngine
    from repro.observatory.slo import AlertBook
    from repro.scheduler.jobtracker import JobScheduler
    from repro.sim import trace as trace_mod
    from repro.sim.fairshare import FairShareSystem
    from repro.sim.kernel import Simulator
    from repro.telemetry.timeseries import TimeSeriesStore
    from repro.virt.migration import LiveMigrator
    from repro.virt.vm import VirtualMachine
    import repro.fuzz as fuzz_mod

    patches: list[tuple[Any, str, Any]] = []
    counts = tracer.counts

    def patch(owner, name: str, wrapper: Callable) -> None:
        patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def span(owner, name: str, layer: str) -> None:
        patch(owner, name, tracer.timed(layer, getattr(owner, name)))

    def count(owner, name: str, metric: str,
              size: Callable | None = None, mb_metric: str = "") -> None:
        fn = getattr(owner, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            if size is not None:
                counts[mb_metric] += size(*args, **kwargs) / 1e6
            return fn(*args, **kwargs)
        patch(owner, name, wrapper)

    def track(cls, kind: str) -> None:
        init = cls.__init__

        @functools.wraps(init)
        def wrapper(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tracer.instances[kind].append(self)
        patch(cls, "__init__", wrapper)

    def collect_events(owner, name: str, entry: str) -> None:
        fn = getattr(owner, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            event = fn(*args, **kwargs)
            tracer.job_events.append((entry, event))
            return event
        patch(owner, name, wrapper)

    def rebind_everywhere(module, name: str, layer: str) -> None:
        """Wrap a function in every ``repro`` module that imported it."""
        original = getattr(module, name)
        wrapper = tracer.timed(layer, original)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and mod.__dict__.get(name) is original):
                patch(mod, name, wrapper)

    # sim.kernel: every processed event is one Simulator.step span.
    span(Simulator, "step", "kernel")
    track(Simulator, "sim")
    process = Simulator.process

    @functools.wraps(process)
    def process_wrapper(self, generator, name=None):
        if name is not None and name.startswith(BACKEND_PROCESS_PREFIX):
            generator = tracer.timed_generator("cloud.backend", generator)
        return process(self, generator, name)
    patch(Simulator, "process", process_wrapper)

    # sim.fairshare: the public flow API.
    for name in ("open", "close", "set_capacity"):
        span(FairShareSystem, name, "fairshare")
    track(FairShareSystem, "fss")

    # mapreduce: the runner's own bindings of the functional pieces.
    run_mapper = runner_mod.run_mapper
    map_keys = tracer.map_keys

    def counted_mapper(mapper, records, context):
        key = (type(mapper), _split_key(records))
        if key in map_keys:
            counts["mapreduce.map.repeats"] += 1
        else:
            map_keys.add(key)
        pairs = run_mapper(mapper, records, context)
        counts["mapreduce.map.records"] += len(records)
        counts["mapreduce.map.pairs"] += len(pairs)
        return pairs
    patch(runner_mod, "run_mapper",
          tracer.timed("mapreduce.map", counted_mapper))

    combine = runner_mod.combine

    def counted_combine(combiner, pairs, context):
        out = combine(combiner, pairs, context)
        counts["mapreduce.combine.in"] += len(pairs)
        counts["mapreduce.combine.out"] += len(out)
        return out
    patch(runner_mod, "combine",
          tracer.timed("mapreduce.combine", counted_combine))

    group_by_key = runner_mod.group_by_key

    def counted_group(pairs):
        pairs = pairs if isinstance(pairs, list) else list(pairs)
        counts["mapreduce.group.pairs"] += len(pairs)
        return group_by_key(pairs)
    patch(runner_mod, "group_by_key",
          tracer.timed("mapreduce.group", counted_group))
    patch(runner_mod, "run_reducer",
          tracer.timed("mapreduce.reduce", runner_mod.run_reducer))
    collect_events(MapReduceRunner, "submit", "runner")

    # hdfs and net: counts of calls that return simulation events.
    count(DfsClient, "write_file", "hdfs.writes")
    count(NameNode, "commit_block", "hdfs.blocks_committed",
          size=lambda self, f, block, *a, **k: block.size,
          mb_metric="hdfs.write_mb")
    count(DfsClient, "read_block", "hdfs.reads",
          size=lambda self, reader, block, *a, **k: block.size,
          mb_metric="hdfs.read_mb")
    count(NetworkFabric, "transfer", "net.transfers",
          size=lambda self, src, dst, nbytes, *a, **k: nbytes,
          mb_metric="net.transfer_mb")
    track(NetworkFabric, "fabric")

    # virt.
    count(VirtualMachine, "compute", "virt.compute.calls")
    count(VirtualMachine, "disk_io", "virt.disk_io.calls")
    count(LiveMigrator, "migrate", "virt.migrations")

    # scheduler: submissions, and their completion events.
    count(JobScheduler, "submit", "scheduler.submits")
    collect_events(JobScheduler, "submit", "scheduler")

    # telemetry and observatory.
    count(trace_mod.Tracer, "emit", "telemetry.emits")
    for name in ("sample_registry", "record", "record_histogram"):
        span(TimeSeriesStore, name, "telemetry.sample")
    span(BurnRateEngine, "evaluate", "observatory.burn")
    span(BurnRateEngine, "observe_service_tick", "observatory.burn")
    track(BurnRateEngine, "burn")
    track(AlertBook, "alertbook")

    # cloud.
    span(AdmissionController, "decide", "cloud.admit")
    span(ElasticAutoscaler, "tick", "cloud.autoscale")
    track(ServiceController, "service")

    # fuzz and datasets.
    span(fuzz_mod, "generate_scenario", "fuzz.generate")
    span(fuzz_mod, "run_scenario", "fuzz.run")
    rebind_everywhere(text_mod, "generate_corpus", "datasets.corpus")

    try:
        yield tracer
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


# -- per-layer metrics -------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict, busy_s: float) -> dict[str, float]:
    """The named per-layer metrics from one (merged) phase snapshot.

    ``busy_s`` is the host time the spans could have covered: the
    measured wall time for in-process workloads, the summed item wall
    time for sharded ones.
    """
    calls, incl, self_s = snap["calls"], snap["incl"], snap["self"]
    c, mx = snap["counts"], snap["maxes"]

    def n(key: str) -> float:
        return c.get(key, 0.0)

    events = calls.get("kernel", 0)
    map_calls = calls.get("mapreduce.map", 0)
    arrivals = n("cloud.arrivals")
    hits, misses = n("net.path_hits"), n("net.path_misses")
    return {
        "kernel.events": events,
        "kernel.heap_max": mx.get("kernel.heap_max", 0.0),
        "kernel.cancelled_ratio": _ratio(
            n("kernel.cancelled"),
            n("kernel.events_processed") + n("kernel.cancelled")),
        "kernel.step_s": incl.get("kernel", 0.0),
        "kernel.self_s": self_s.get("kernel", 0.0),
        "kernel.us_per_event": 1e6 * _ratio(incl.get("kernel", 0.0), events),
        "fairshare.calls": calls.get("fairshare", 0),
        "fairshare.call_s": incl.get("fairshare", 0.0),
        "fairshare.rebalances": n("fairshare.rebalances"),
        "fairshare.flow_visits": n("fairshare.flow_visits"),
        "fairshare.visits_per_rebalance": _ratio(
            n("fairshare.flow_visits"), n("fairshare.rebalances")),
        "fairshare.completed_flows": n("fairshare.completed_flows"),
        "fairshare.timer_cancellations": n("fairshare.timer_cancellations"),
        "fairshare.max_component_flows":
            mx.get("fairshare.max_component_flows", 0.0),
        "fairshare.rack_splits": n("fairshare.rack_splits"),
        "mapreduce.map.calls": map_calls,
        "mapreduce.map.s": incl.get("mapreduce.map", 0.0),
        "mapreduce.map.records": n("mapreduce.map.records"),
        "mapreduce.map.pairs": n("mapreduce.map.pairs"),
        "mapreduce.map.repeat_ratio": _ratio(n("mapreduce.map.repeats"),
                                             map_calls),
        "mapreduce.map.wasted_ratio": _ratio(
            max(0.0, map_calls - n("mapreduce.map.committed")), map_calls),
        "mapreduce.combine.s": incl.get("mapreduce.combine", 0.0),
        "mapreduce.combine.ratio": _ratio(n("mapreduce.combine.out"),
                                          n("mapreduce.combine.in")),
        "mapreduce.group.s": incl.get("mapreduce.group", 0.0),
        "mapreduce.group.pairs": n("mapreduce.group.pairs"),
        "mapreduce.reduce.calls": calls.get("mapreduce.reduce", 0),
        "mapreduce.reduce.s": incl.get("mapreduce.reduce", 0.0),
        "mapreduce.jobs": n("mapreduce.jobs"),
        "hdfs.writes": n("hdfs.writes"),
        "hdfs.write_mb": n("hdfs.write_mb"),
        "hdfs.reads": n("hdfs.reads"),
        "hdfs.read_mb": n("hdfs.read_mb"),
        "net.transfers": n("net.transfers"),
        "net.transfer_mb": n("net.transfer_mb"),
        "net.path_hit_ratio": _ratio(hits, hits + misses),
        "virt.compute.calls": n("virt.compute.calls"),
        "virt.disk_io.calls": n("virt.disk_io.calls"),
        "virt.migrations": n("virt.migrations"),
        "scheduler.submits": n("scheduler.submits"),
        "scheduler.jobs_done": n("scheduler.jobs_done"),
        "telemetry.emits": n("telemetry.emits"),
        "telemetry.sample.calls": calls.get("telemetry.sample", 0),
        "telemetry.sample.s": incl.get("telemetry.sample", 0.0),
        "observatory.burn.evals": n("observatory.burn.evals"),
        "observatory.burn.s": incl.get("observatory.burn", 0.0),
        "observatory.alerts": n("observatory.alerts"),
        "cloud.arrivals": arrivals,
        "cloud.admit.calls": calls.get("cloud.admit", 0),
        "cloud.admit.s": incl.get("cloud.admit", 0.0),
        "cloud.backend.s": incl.get("cloud.backend", 0.0),
        "cloud.autoscale.s": incl.get("cloud.autoscale", 0.0),
        "cloud.rejected_ratio": _ratio(n("cloud.rejected"), arrivals),
        "fuzz.generate.s": incl.get("fuzz.generate", 0.0),
        "fuzz.run.s": incl.get("fuzz.run", 0.0),
        "fuzz.violations": n("fuzz.violations"),
        "datasets.corpus.s": incl.get("datasets.corpus", 0.0),
        "trace.unattributed_s": busy_s - sum(self_s.values()),
    }


def overhead(traced_wall: float, untraced_wall: float) -> float:
    """``trace.overhead``: traced over untraced host cost, minus one."""
    return traced_wall / untraced_wall - 1.0


def self_time_table(snap: dict, busy_s: float) -> list[tuple[str, float]]:
    """``(layer, share of busy time)`` by descending self time, with the
    unattributed remainder as its own row."""
    rows = sorted(snap["self"].items(), key=lambda kv: -kv[1])
    table = [(layer, _ratio(secs, busy_s)) for layer, secs in rows]
    table.append(("(unattributed)",
                  _ratio(busy_s - sum(snap["self"].values()), busy_s)))
    return table
