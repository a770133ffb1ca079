"""The benchmark's four seeded workloads.

Each workload splits into ``setup(seed)`` (outside the measured phase,
timed as ``setup_s``), ``run(state, traced)`` (the measured phase) and
``check(state, result)`` (output checks, after the clock stops).  Every
workload is assembled from public ``repro`` pieces, so the program
receives only what the seed generates.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import time
from dataclasses import dataclass, field

import repro.fuzz as fuzz_mod
from repro import constants as C
from repro.cloud import (AdmissionController, BurstTraffic,
                         ElasticAutoscaler, ServiceController,
                         SlotModelBackend, TenantRegistry)
from repro.cloud.traffic import JOB_CLASSES, mean_job_size_mb
from repro.config import PlatformConfig, TopologySpec, VMConfig
from repro.datasets import text as text_mod
from repro.experiments.common import make_platform, sixteen_node_cluster
from repro.experiments.service import (MARGIN, QUOTA_HEADROOM,
                                       calibrate_cost_model)
from repro.mapreduce.local import LocalJobRunner
from repro.observatory.burnrate import BurnRateEngine
from repro.observatory.slo import AlertBook
from repro.parallel import run_sharded
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.telemetry.timeseries import TimeSeriesStore
from repro.workloads.terasort import run_terasort
from repro.workloads.wordcount import (lines_as_records, scaled_line_sizeof,
                                       wordcount_job)

import hostspeed
import spans


@dataclass
class Outcome:
    """What one measured iteration produced, after its checks."""

    #: Units of completed work (the workload's own unit).
    work: float
    #: Digest of the simulated outputs; identical for identical seeds.
    sim_digest: str
    #: Checked operations, and how many of them failed.
    attempted: int
    failed: int
    #: Peak RSS of fabric workers (sharded workloads only).
    worker_rss_mb: float = 0.0
    #: Fleet timings of a sharded run (``parallel.*`` metrics).
    fleet: dict = field(default_factory=dict)
    #: Trace snapshots returned by fabric workers in a traced run.
    worker_snapshots: list = field(default_factory=list)
    #: Kiloprobes per second where the work ran, for a workload whose
    #: work runs in fabric workers that probe the host's speed themselves.
    probe_rate: float | None = None


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def _wordcount_reference(records, n_reduces: int, volume_scale: int) -> list:
    """LocalJobRunner output of the Wordcount the workload submits."""
    job = wordcount_job("/ref/in", "/ref/out", n_reduces=n_reduces,
                        volume_scale=volume_scale)
    return LocalJobRunner().run(job, records)


class Workload:
    """A workload's class attributes are its full-size scenario, the one
    the self-tests pin to the program's own runs; keyword arguments
    override them to scale an instance down (see :data:`WORKLOADS`)."""

    name = ""
    unit = ""

    def __init__(self, name: str | None = None, **sizes) -> None:
        unknown = sorted(k for k in sizes if not hasattr(type(self), k))
        if unknown:
            raise TypeError(f"{type(self).__name__} has no size {unknown}")
        self.__dict__.update(sizes)
        if name is not None:
            self.name = name
        self._references: dict = {}

    def reference(self, state: dict, n_reduces: int) -> list:
        """The LocalJobRunner Wordcount output for the state's seed,
        computed once per seed: every set-up of a seed uploads the same
        records, so every iteration is checked against the same output."""
        key = (state["seed"], n_reduces)
        if key not in self._references:
            self._references[key] = _wordcount_reference(
                state["records"], n_reduces, self.VOLUME_SCALE)
        return self._references[key]


# -- migration_load ----------------------------------------------------------

class MigrationLoad(Workload):
    """Fig. 5 / Table II: all 16 VMs migrate while Wordcount runs.

    Assembled like ``fig5_migration.migrate_cluster_under("wordcount",
    1024 MiB, seed)``, with corpus generation and upload moved into set-up:
    three streams resubmit the same Wordcount over the same input for the
    whole migration, or, with ``JOBS_PER_STREAM`` set, exactly that many
    times each.  ``CORPUS_SEED``, when set, fixes the corpus: its word mix,
    and with it the cost of a Wordcount, varies about 10% from seed to
    seed, while the run seed still drives the platform and the migration.
    """

    name = "migration_load"
    unit = "jobs"
    INPUT_MB = 1024
    VOLUME_SCALE = 400
    MEMORY = 1024 * C.MiB
    STREAMS = 3
    N_REDUCES = 8
    JOBS_PER_STREAM = None
    CORPUS_SEED = None

    def setup(self, seed: int) -> dict:
        platform = make_platform(seed=seed)
        cluster = sixteen_node_cluster(platform, "normal",
                                       vm_config=VMConfig(memory=self.MEMORY))
        rngs = (platform.datacenter.rng if self.CORPUS_SEED is None
                else RngRegistry(self.CORPUS_SEED))
        lines = text_mod.generate_corpus(
            self.INPUT_MB * C.MB // self.VOLUME_SCALE,
            rng=rngs.fresh("datasets/corpus"))
        records = lines_as_records(lines)
        platform.upload(cluster, "/wc/input", records,
                        sizeof=scaled_line_sizeof(self.VOLUME_SCALE),
                        timed=False)
        return {"platform": platform, "cluster": cluster,
                "records": records, "seed": seed}

    def run(self, state: dict, traced: bool = False) -> dict:
        platform, cluster = state["platform"], state["cluster"]
        dc = platform.datacenter
        runner = platform.runners[cluster.name]
        stop = {"flag": False}
        reports: list = []

        def load_loop(stream):
            index = 0
            while (not stop["flag"] if self.JOBS_PER_STREAM is None
                   else index < self.JOBS_PER_STREAM):
                job = wordcount_job("/wc/input",
                                    f"/wc/output-{stream}-{index}",
                                    n_reduces=self.N_REDUCES,
                                    volume_scale=self.VOLUME_SCALE)
                reports.append((yield runner.submit(job)))
                index += 1
            return index

        for stream in range(self.STREAMS):
            dc.sim.process(load_loop(stream),
                           name=f"wordcount-load-{stream}")
        dc.run(until=dc.now + 20.0)
        label = f"wordcount.{self.MEMORY // C.MiB}MB"
        event = dc.virtlm.migrate_cluster(cluster.vms, dc.machine(1),
                                          label=label)
        while not event.triggered:
            dc.sim.run(until=dc.now + 200.0)
            if dc.sim.peek() == float("inf"):
                break
        stop["flag"] = True
        dc.sim.run()
        return {"migration": event.value if event.triggered else None,
                "reports": reports}

    def check(self, state: dict, result: dict) -> Outcome:
        platform, cluster = state["platform"], state["cluster"]
        migration = result["migration"]
        reference = self.reference(state, self.N_REDUCES)
        failed = 0
        for report in result["reports"]:
            failed += platform.collect(cluster, report) != reference
        records = migration.records if migration is not None else []
        moved = (migration is not None
                 and len(records) == len(cluster.vms)
                 and all(vm.host is platform.datacenter.machine(1)
                         for vm in cluster.vms))
        failed += not moved
        digest = _digest(
            [(r.vm, r.migration_time_s, r.downtime_s) for r in records]
            + [(r.job_name, r.finished_at) for r in result["reports"]])
        return Outcome(work=len(result["reports"]), sim_digest=digest,
                       attempted=len(result["reports"]) + 1, failed=failed)


# -- ladder_500 --------------------------------------------------------------

class ScaleLadder(Workload):
    """A rung of the scale ladder, by default the 500-VM ``25x5x4`` one:
    Wordcount over 1,920 MB, then TeraSort over 512 MB, each once."""

    name = "ladder_500"
    unit = "MB"
    TOPOLOGY = "25x5x4"
    WC_MB = 1920
    WC_REDUCES = 32
    TERA_MB = 512
    TERA_REDUCES = 32
    VOLUME_SCALE = 400

    def setup(self, seed: int) -> dict:
        topo = TopologySpec.parse(self.TOPOLOGY)
        platform = VHadoopPlatform(PlatformConfig(topology=topo, seed=seed))
        cluster = platform.provision_cluster("ladder",
                                             ClusterSpec.racked(topo))
        lines = text_mod.generate_corpus(
            self.WC_MB * C.MB // self.VOLUME_SCALE,
            rng=platform.datacenter.rng.fresh("corpus"))
        records = lines_as_records(lines)
        platform.upload(cluster, "/in", records,
                        sizeof=scaled_line_sizeof(self.VOLUME_SCALE),
                        timed=False)
        return {"platform": platform, "cluster": cluster,
                "records": records, "seed": seed}

    def run(self, state: dict, traced: bool = False) -> dict:
        platform, cluster = state["platform"], state["cluster"]
        wc_report = platform.run_job(
            cluster, wordcount_job("/in", "/out", n_reduces=self.WC_REDUCES,
                                   volume_scale=self.VOLUME_SCALE))
        tera = run_terasort(platform.runner(cluster), cluster,
                            self.TERA_MB * C.MB,
                            n_reduces=self.TERA_REDUCES, seed_tag="ladder")
        return {"wordcount": wc_report, "terasort": tera}

    def check(self, state: dict, result: dict) -> Outcome:
        platform, cluster = state["platform"], state["cluster"]
        wc_report, tera = result["wordcount"], result["terasort"]
        reference = self.reference(state, self.WC_REDUCES)
        failed = int(platform.collect(cluster, wc_report) != reference)
        failed += not tera.validated
        fss = platform.datacenter.fss
        digest = _digest([self.sim_elapsed(result), fss.flow_visits,
                          fss.rebalance_count, fss.completed_count,
                          platform.sim.events_processed])
        return Outcome(work=self.WC_MB + self.TERA_MB, sim_digest=digest,
                       attempted=2, failed=failed)

    @staticmethod
    def sim_elapsed(result: dict) -> list[float]:
        tera = result["terasort"]
        return [result["wordcount"].elapsed,
                tera.generation_time_s + tera.sort_time_s]


# -- service_burst -----------------------------------------------------------

def _size_quantile(q: float) -> float:
    """Quantile of the job-size mix (log-uniform within each class)."""
    acc = 0.0
    for _, lo_mb, hi_mb, prob in JOB_CLASSES:
        if q <= acc + prob:
            return lo_mb * (hi_mb / lo_mb) ** ((q - acc) / prob)
        acc += prob
    return JOB_CLASSES[-1][2]


class ServiceBurst(Workload):
    """The full-size ``burst-burn`` service universe: 160 tenants, burst
    traffic at 8/s with 4x flash crowds, a 25,000 s horizon, the
    autoscaler on, burn-rate alerting over a time-series store."""

    name = "service_burst"
    unit = "requests"
    SERVICE = "burst-burn"
    N_TENANTS = 160
    RATE = 8.0
    BURST_FACTOR = 4.0
    BURST_EVERY_S = 5000.0
    BURST_DURATION_S = 800.0
    HORIZON_S = 25000.0
    TICK_S = 10.0

    def setup(self, seed: int) -> dict:
        cost = calibrate_cost_model(seed, quick=False)
        sim = Simulator()
        rngs = RngRegistry(seed)
        mean_service_s = cost.service_time(mean_job_size_mb())
        slots = max(4, int(math.ceil(self.RATE * mean_service_s * MARGIN)))
        expected_inflight = self.RATE * mean_service_s
        total_weight = sum(1.0 / (1 + i) ** 0.8
                           for i in range(self.N_TENANTS))
        latency_target_s = 2.5 * cost.service_time(_size_quantile(0.99))
        tenants = TenantRegistry.synthetic(
            self.N_TENANTS, rngs.stream("service:fleet"),
            latency_slo_s=latency_target_s,
            quota_scale=QUOTA_HEADROOM * expected_inflight / total_weight)
        traffic = BurstTraffic(
            "burst", tenants, rngs.stream("service:traffic"),
            base_rate_per_s=self.RATE, burst_factor=self.BURST_FACTOR,
            burst_every_s=self.BURST_EVERY_S,
            burst_duration_s=self.BURST_DURATION_S)
        backend = SlotModelBackend(sim, cost, slots=slots,
                                   elastic_max=slots * 4, boot_s=45.0)
        book = AlertBook(sim=sim)
        autoscaler = ElasticAutoscaler(
            backend.pool, book, service=self.SERVICE, cooldown_s=30.0,
            grow_step=max(2, slots // 8), scale_in_util=0.3,
            scale_in_ticks=24)
        store = TimeSeriesStore(sim, step=self.TICK_S)
        controller = ServiceController(
            sim, backend, tenants, traffic,
            admission=AdmissionController(shed_start=12.0, shed_hard=24.0),
            book=book, autoscaler=autoscaler, name=self.SERVICE,
            tick_s=self.TICK_S, latency_target_s=latency_target_s,
            burn_engine=BurnRateEngine(store, book, target=self.SERVICE))
        return {"controller": controller}

    def run(self, state: dict, traced: bool = False):
        return state["controller"].run(self.HORIZON_S)

    def check(self, state: dict, report) -> Outcome:
        controller = state["controller"]
        failed = int(report.submitted != report.admitted + report.rejected)
        failed += report.admitted != (report.completed + report.failed
                                      + controller.inflight)
        names = sorted(report.tenants.names)
        for name in names:
            stats = report.tenants.stats(name)
            failed += stats.submitted != stats.admitted + stats.rejected
            failed += stats.admitted != (stats.completed + stats.failed
                                         + stats.inflight)
        return Outcome(work=report.completed, sim_digest=report.digest(),
                       attempted=2 + 2 * len(names), failed=failed)


# -- fuzz_sharded ------------------------------------------------------------

def fuzz_item(item: tuple[int, bool]) -> dict:
    """Fabric worker: generate and run one scenario.

    It probes the host's speed on its own core while it works.  In a
    traced run it also installs the same layer wrappers around its own
    item and returns the span snapshot with the result.
    """
    seed, traced = item
    t0 = time.time()
    snapshot = None
    with hostspeed.SpeedProbe() as probe:
        start = time.perf_counter()
        if traced:
            with spans.installed(spans.Tracer()) as tracer:
                tracer.reset()
                result = fuzz_mod.run_scenario(
                    fuzz_mod.generate_scenario(seed))
                tracer.counts["fuzz.violations"] += len(result.violations)
                snapshot = tracer.snapshot()
        else:
            result = fuzz_mod.run_scenario(fuzz_mod.generate_scenario(seed))
        busy_s = time.perf_counter() - start
    return {"run_digest": result.run_digest,
            "violations": len(result.violations),
            "t0": t0, "t1": time.time(), "trace": snapshot,
            "units": probe.units, "busy_s": busy_s}


#: The ``parallel.*`` per-layer metrics a sharded run reports.
FLEET_METRICS = ("parallel.workers_spawned", "parallel.item_s",
                 "parallel.worker_rss_mb", "parallel.efficiency",
                 "parallel.spawn_s", "parallel.tail_s")


def _fuzz_key(item: tuple[int, bool]) -> str:
    return str(item[0])


class FuzzSharded(Workload):
    """``run_sharded`` over consecutive scenario seeds (40 at full size),
    each running ``generate_scenario`` + ``run_scenario``, with one job
    per core.

    The scenario window is fixed: one scenario's host cost varies about
    0.9x its mean from seed to seed, so a seed-chosen window would put a
    ~20% seed-to-seed spread into ``wall_s``.  The run seed shuffles the
    item order instead, which changes how items shard over the workers:
    the k-th set-up of a seed takes the k-th order drawn from it, so the
    median over a run's iterations covers many shardings, not one.
    """

    name = "fuzz_sharded"
    unit = "scenarios"
    FIRST_SEED = 0
    N_SCENARIOS = 40
    #: One worker process per core.
    jobs = os.cpu_count() or 1

    def __init__(self, name: str | None = None, **sizes) -> None:
        super().__init__(name, **sizes)
        #: seed -> the generator of that seed's successive item orders.
        self._orders: dict[int, random.Random] = {}

    def setup(self, seed: int) -> dict:
        orders = self._orders.setdefault(seed, random.Random(seed))
        seeds = list(range(self.FIRST_SEED,
                           self.FIRST_SEED + self.N_SCENARIOS))
        orders.shuffle(seeds)
        return {"seeds": seeds}

    def run(self, state: dict, traced: bool = False) -> dict:
        """``traced`` makes each worker trace its own items."""
        items = [(seed, traced) for seed in state["seeds"]]
        start = time.time()
        sharded = run_sharded(items, fuzz_item, jobs=self.jobs,
                              key=_fuzz_key)
        return {"sharded": sharded, "start": start, "end": time.time()}

    def check(self, state: dict, result: dict) -> Outcome:
        sharded = result["sharded"]
        by_seed = sorted(zip(state["seeds"], sharded.results),
                         key=lambda pair: pair[0])
        failed = 0
        parts = []
        ok = [item.value for _, item in by_seed if item.ok]
        busy_s = sum(value["busy_s"] for value in ok)
        for seed, item in by_seed:
            if not item.ok:
                failed += 1
                parts.append((seed, "fabric-error"))
                continue
            failed += item.value["violations"] > 0
            parts.append((seed, item.value["run_digest"]))
        return Outcome(
            work=sharded.n_ok, sim_digest=_digest(parts),
            attempted=len(by_seed), failed=failed,
            worker_rss_mb=sharded.peak_rss_mb,
            fleet=self.fleet_metrics(sharded, result["start"],
                                     result["end"]),
            worker_snapshots=[value["trace"] for value in ok
                              if value["trace"]],
            probe_rate=(sum(value["units"] for value in ok) / busy_s / 1e3
                        if busy_s > 0 else None))

    def fleet_metrics(self, sharded, start: float, end: float) -> dict:
        """Spawn, tail and efficiency of one sharded run (wall clock)."""
        first: dict[int, float] = {}
        last: dict[int, float] = {}
        for item in sharded.results:
            if not item.ok:
                continue
            wid = item.worker
            first[wid] = min(first.get(wid, end), item.value["t0"])
            last[wid] = max(last.get(wid, start), item.value["t1"])
        item_s = sum(item.wall_s for item in sharded.results)
        fleet_s = end - start
        return {
            "parallel.workers_spawned": sharded.stats.workers_spawned,
            "parallel.item_s": item_s,
            "parallel.worker_rss_mb": sharded.peak_rss_mb,
            "parallel.efficiency": (item_s / (self.jobs * fleet_s)
                                    if fleet_s > 0 else 0.0),
            "parallel.spawn_s": (sum(t - start for t in first.values())
                                 / len(first) if first else 0.0),
            "parallel.tail_s": (end - min(last.values()) if last else 0.0),
        }


#: The benchmark's workloads: each full-size scenario scaled down to an
#: iteration of two to three seconds, so that one run measures several
#: iterations and reports their median.  At full size an iteration takes
#: 13-25 s, one per run, and one slow spell of a shared host sets it.
WORKLOADS = {
    # 16 VMs live-migrate under three streams of nine Wordcounts over a
    # fixed corpus, as in Fig. 5.
    "migration_load": lambda: MigrationLoad(MEMORY=128 * C.MiB,
                                            INPUT_MB=128, JOBS_PER_STREAM=9,
                                            CORPUS_SEED=0),
    # The 200-VM 10x5x4 rung at a quarter of the 500-VM rung's volumes;
    # on 500 VMs a job costs 6-12 s of host time whatever its size.
    "ladder_200": lambda: ScaleLadder(name="ladder_200", TOPOLOGY="10x5x4",
                                      WC_MB=480, TERA_MB=128),
    # The burst-burn universe over 4,000 s with two 4x flash crowds.
    "service_burst": lambda: ServiceBurst(HORIZON_S=4000.0,
                                          BURST_EVERY_S=1500.0,
                                          BURST_DURATION_S=300.0),
    "fuzz_sharded": lambda: FuzzSharded(N_SCENARIOS=12),
}
