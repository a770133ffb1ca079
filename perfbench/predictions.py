"""Which end-to-end metric each layer should move, and on which workload.

Written down before any optimisation lands, so a later change can be
checked against it: the traced run prints, per workload, the layers by
self time next to the layers predicted to matter there, and checks the
regime split the workloads were chosen for.
"""

from __future__ import annotations

from typing import Callable

#: layer -> (end-to-end metrics it should move, workloads in order of
#: expected effect, the per-layer metrics that show it).  A workload not
#: listed for a layer is predicted not to move with it.
LAYERS: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    "sim.kernel": ("wall_s", ("service_burst", "ladder_200"), (
        "kernel.events", "kernel.heap_max", "kernel.cancelled_ratio",
        "kernel.step_s", "kernel.self_s", "kernel.us_per_event")),
    "sim.fairshare": ("wall_s", ("ladder_200", "migration_load"), (
        "fairshare.calls", "fairshare.call_s", "fairshare.rebalances",
        "fairshare.flow_visits", "fairshare.visits_per_rebalance",
        "fairshare.completed_flows", "fairshare.timer_cancellations",
        "fairshare.max_component_flows", "fairshare.rack_splits")),
    "mapreduce": ("wall_s, perhaps peak_rss_mb", ("migration_load",), (
        "mapreduce.map.calls", "mapreduce.map.s", "mapreduce.map.records",
        "mapreduce.map.pairs", "mapreduce.map.repeat_ratio",
        "mapreduce.map.wasted_ratio", "mapreduce.combine.s",
        "mapreduce.combine.ratio", "mapreduce.group.s",
        "mapreduce.group.pairs", "mapreduce.reduce.calls",
        "mapreduce.reduce.s", "mapreduce.jobs")),
    "hdfs+net": ("wall_s", ("ladder_200",), (
        "hdfs.writes", "hdfs.write_mb", "hdfs.reads", "hdfs.read_mb",
        "net.transfers", "net.transfer_mb", "net.path_hit_ratio")),
    "virt": ("wall_s", ("migration_load",), (
        "virt.compute.calls", "virt.disk_io.calls", "virt.migrations")),
    "scheduler": ("wall_s", ("fuzz_sharded",), (
        "scheduler.submits", "scheduler.jobs_done")),
    "telemetry+observatory": ("wall_s", ("service_burst", "fuzz_sharded"), (
        "telemetry.emits", "telemetry.sample.calls", "telemetry.sample.s",
        "observatory.burn.evals", "observatory.burn.s",
        "observatory.alerts")),
    "cloud": ("wall_s", ("service_burst",), (
        "cloud.arrivals", "cloud.admit.calls", "cloud.admit.s",
        "cloud.backend.s", "cloud.autoscale.s", "cloud.rejected_ratio")),
    "fuzz+parallel": ("wall_s with cpu_s flat", ("fuzz_sharded",), (
        "fuzz.generate.s", "fuzz.run.s", "fuzz.violations",
        "parallel.workers_spawned", "parallel.item_s",
        "parallel.worker_rss_mb", "parallel.efficiency",
        "parallel.spawn_s", "parallel.tail_s")),
    "datasets": ("setup_s", ("migration_load", "ladder_200",
                             "service_burst", "fuzz_sharded"),
                 ("datasets.corpus.s",)),
}


def _mapreduce_s(m: dict) -> float:
    return (m["mapreduce.map.s"] + m["mapreduce.combine.s"]
            + m["mapreduce.group.s"] + m["mapreduce.reduce.s"])


def _fairshare_largest(m: dict) -> bool:
    layers = {"kernel.self_s": m["kernel.self_s"],
              "mapreduce": _mapreduce_s(m),
              "cloud": m["cloud.admit.s"] + m["cloud.backend.s"]
              + m["cloud.autoscale.s"],
              "telemetry.sample.s": m["telemetry.sample.s"],
              "observatory.burn.s": m["observatory.burn.s"],
              "trace.unattributed_s": m["trace.unattributed_s"]}
    return m["fairshare.call_s"] > max(layers.values())


#: workload -> [(the regime claim, its check over the traced metrics)].
REGIMES: dict[str, list[tuple[str, Callable[[dict], bool]]]] = {
    "migration_load": [
        ("mapreduce.* seconds exceed fairshare.call_s",
         lambda m: _mapreduce_s(m) > m["fairshare.call_s"]),
        ("mapreduce.map.repeat_ratio >= 0.9",
         lambda m: m["mapreduce.map.repeat_ratio"] >= 0.9),
    ],
    "ladder_200": [
        ("fairshare.call_s is the largest layer", _fairshare_largest),
        ("mapreduce.map.repeat_ratio == 0",
         lambda m: m["mapreduce.map.repeat_ratio"] == 0),
    ],
    "service_burst": [
        ("no fair-share flows opened",
         lambda m: m["fairshare.calls"] == 0),
        ("no map tasks run", lambda m: m["mapreduce.map.calls"] == 0),
    ],
    "fuzz_sharded": [
        ("scheduler jobs complete", lambda m: m["scheduler.jobs_done"] > 0),
    ],
}


def predicted_layers(workload: str) -> list[str]:
    """Layers predicted to move an end-to-end metric on ``workload``."""
    return [f"{layer} -> {metric}"
            for layer, (metric, workloads, _names) in LAYERS.items()
            if workload in workloads]
