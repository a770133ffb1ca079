"""MapReduceRunner: the timed, cluster-bound job engine.

Execution model (hadoop-0.20, as the paper ran it):

* One slot-worker process per (TaskTracker, slot).  Workers pull tasks from
  the job's pending queue; map assignment is **locality-aware** (node-local
  replica > host-local replica > remote), which is Hadoop's scheduler
  behaviour and one of DESIGN.md's ablation points.
* Every assignment pays a heartbeat latency (tasks are handed out on
  TaskTracker heartbeats) drawn uniformly from ``[0, heartbeat_s)``, plus a
  fixed startup cost (the JVM launch).  These two constants produce the
  MRBench shape of Fig. 3 — tiny jobs get slower as task counts grow.
* A map task reads its split (disk at the replica holder + a network hop if
  remote), charges CPU through the virtualization layer, runs the *real*
  mapper (and combiner), partitions the output, and spills it to the local
  virtual disk (= NFS, per the paper's image layout).
* After the map phase, reduce tasks shuffle their partition from every map
  VM (at most ``shuffle_parallel_copies`` concurrent fetches), charge the
  sort/merge cost, run the *real* reducer, and write replicated output to
  HDFS.
* A runner-wide **task memo** computes each repeated map split and reduce
  partition once: an attempt whose job fingerprint and input match an
  earlier, still-referenced result reuses that result's outputs and
  counters instead of re-running the user code.  Every simulated cost is
  charged per attempt exactly as without the memo (DESIGN.md §2).

The report records per-task attempts and per-phase spans; the functional
output is bit-identical to :class:`~repro.mapreduce.local.LocalJobRunner`
(tested property).
"""

from __future__ import annotations

import math
import types
import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence, TYPE_CHECKING

from repro import constants as C
from repro.errors import JobConfigError, TaskFailure, VMStateError
from repro.hdfs.datanode import DataNode
from repro.mapreduce.api import (Context, HashPartitioner, RangePartitioner,
                                 Reducer, combine, group_by_key, run_mapper,
                                 run_reducer)
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Job
from repro.sim import Resource
from repro.sim.kernel import AllOf, AnyOf, Event, Interrupt, Process
from repro.sim.trace import Span
from repro.telemetry import events as EV
from repro.virt.vm import VMState

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import HadoopVirtualCluster, TaskTracker


def _cancel_wait(event: Event, cause: str = "aborted") -> None:
    """Interrupt the live process(es) behind an abandoned wait."""
    if isinstance(event, Process):
        if event.is_alive:
            event.interrupt(cause)
    elif isinstance(event, (AllOf, AnyOf)):
        for child in event.events:
            if isinstance(child, Process) and child.is_alive:
                child.interrupt(cause)


def _drive_racing(sim, gen, stop: Event, abortable=None):
    """Run task generator ``gen``, racing every wait against ``stop``.

    Returns ``(result, stopped)``.  When ``stop`` fires first the generator
    is closed and any live sub-processes it was waiting on are interrupted;
    the virt/net layers cancel their flows and bill only the work actually
    done.  ``abortable`` (when given) is consulted at the moment ``stop``
    fires: returning False makes the attempt uninterruptible from then on —
    used by reduces that already hold the output-commit token, which must
    run to completion so the commit protocol stays single-writer.
    """
    def may_abort() -> bool:
        return abortable is None or abortable()

    try:
        target = next(gen)
    except StopIteration as stop_iter:
        return stop_iter.value, False
    while True:
        if stop.triggered:
            if may_abort():
                gen.close()
                _cancel_wait(target)
                return None, True
            yield target
        else:
            yield sim.any_of([target, stop])
            if stop.triggered and not target.triggered:
                if may_abort():
                    gen.close()
                    _cancel_wait(target)
                    return None, True
                yield target
        try:
            target = gen.send(target.value)
        except StopIteration as stop_iter:
            return stop_iter.value, False


class _Unkeyed(Exception):
    """A job part the task memo cannot fingerprint exactly."""


_SCALARS = (type(None), bool, int, float, str, bytes)


def _frozen(value) -> tuple:
    """Exact hashable stand-in for a primitive or a tuple of primitives
    (``repr`` keeps ``1``/``True``/``1.0`` and ``0.0``/``-0.0`` apart)."""
    if type(value) in _SCALARS:
        return type(value), repr(value)
    if type(value) is tuple:
        return tuple(map(_frozen, value))
    raise _Unkeyed


def _code_key(fn):
    """A factory/sizeof counts as a class, or as a plain function whose
    closure cells and defaults are all primitives (so ``wordcount_job``'s
    per-call sizeof lambda matches across jobs; KMeans' centers closure
    does not)."""
    if fn is None or isinstance(fn, type):
        return fn
    if type(fn) is not types.FunctionType:
        raise _Unkeyed
    try:
        cells = tuple(cell.cell_contents for cell in fn.__closure__ or ())
    except ValueError:  # an empty cell
        raise _Unkeyed from None
    return (fn.__module__, fn.__code__, _frozen(cells),
            _frozen(fn.__defaults__ or ()),
            _frozen(tuple((fn.__kwdefaults__ or {}).items())))


def _partitioner_key(partitioner):
    if type(partitioner) is HashPartitioner:
        return "hash"
    if type(partitioner) is RangePartitioner:
        return "range", _frozen(tuple(partitioner.boundaries))
    raise _Unkeyed


def job_fingerprint(job: Job, use_combiner: bool) -> Optional[tuple]:
    """Everything a map or reduce task's functional output depends on
    besides its input, or None when some part cannot be keyed exactly."""
    try:
        return (_code_key(job.mapper), _code_key(job.combiner),
                _code_key(job.reducer), _partitioner_key(job.partitioner),
                job.n_reduces, _code_key(job.intermediate_sizeof),
                _frozen(tuple(job.params.items())), bool(use_combiner))
    except _Unkeyed:
        return None


@dataclass
class _MapSpec:
    """One map task: real records plus the datanodes holding them."""

    index: int
    records: Sequence[tuple[Any, Any]]
    nbytes: float
    holders: tuple[DataNode, ...]
    #: Identity of the records: the write-once HDFS block id(s) they come
    #: from, plus the record range of a ``force_num_maps`` repack.
    split: tuple

    @property
    def task_id(self) -> str:
        return f"m-{self.index:05d}"


@dataclass(eq=False)
class _MapResult:
    """The functional result of one map task, shared (read-only) by every
    attempt that reuses it through the runner's task memo."""

    key: Optional[tuple]                 # None: the job is not keyable
    partitions: dict[int, tuple]         # partition -> ((k, v), ...)
    partition_bytes: dict[int, float]
    counters: Counters
    n_mapped: int
    #: Memoized reduces whose first contributing map is this one:
    #: (partition, map keys) -> (output pairs, counters).
    reduces: dict[tuple, tuple[tuple, Counters]] = field(
        default_factory=dict)


@dataclass
class _MapOutput:
    """Where a finished map left its partitioned intermediate data."""

    spec: _MapSpec
    tracker: "TaskTracker"
    result: _MapResult
    #: Back-references used by shuffle-time map recovery.
    job: "Job" = None
    report: "JobReport" = None

    @property
    def partitions(self) -> dict[int, tuple]:
        return self.result.partitions

    @property
    def partition_bytes(self) -> dict[int, float]:
        return self.result.partition_bytes


@dataclass(frozen=True)
class TaskAttempt:
    """Timing record of one executed task."""

    task_id: str
    kind: str                # "map" | "reduce"
    tracker: str
    start: float
    end: float
    input_bytes: float
    output_bytes: float
    locality: str            # "node" | "host" | "remote" | "-"

    @property
    def elapsed(self) -> float:
        return self.end - self.start


@dataclass
class JobReport:
    """Everything measured about one job run."""

    job_name: str
    submitted_at: float
    finished_at: float = 0.0
    map_phase_end: float = 0.0
    n_maps: int = 0
    n_reduces: int = 0
    input_bytes: float = 0.0
    shuffle_bytes: float = 0.0
    output_bytes: float = 0.0
    output_paths: list[str] = field(default_factory=list)
    tasks: list[TaskAttempt] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    #: Scheduler accounting (filled by the slot workers / repro.scheduler).
    pool: str = "default"
    first_task_at: Optional[float] = None
    slot_seconds: float = 0.0
    preempted_tasks: int = 0
    speculated_maps: int = 0
    speculated_reduces: int = 0

    @property
    def elapsed(self) -> float:
        """Total job runtime in simulated seconds — the paper's y-axis."""
        return self.finished_at - self.submitted_at

    @property
    def wait_s(self) -> float:
        """Submission-to-first-task latency (scheduling + localization)."""
        if self.first_task_at is None:
            return 0.0
        return self.first_task_at - self.submitted_at

    @property
    def map_phase_s(self) -> float:
        return self.map_phase_end - self.submitted_at

    @property
    def reduce_phase_s(self) -> float:
        return self.finished_at - self.map_phase_end

    def locality_fractions(self) -> dict[str, float]:
        maps = [t for t in self.tasks if t.kind == "map"]
        if not maps:
            return {}
        out: dict[str, float] = {}
        for t in maps:
            out[t.locality] = out.get(t.locality, 0.0) + 1.0 / len(maps)
        return out


class MapReduceRunner:
    """Job engine bound to one :class:`HadoopVirtualCluster`."""

    #: Heartbeats a requeued task waits through a total tracker outage
    #: before the job is declared dead (recovery rejoins usually land
    #: within a fault's duration; the cap keeps dead clusters finite).
    MAX_TRACKER_WAITS = 600

    def __init__(self, cluster: "HadoopVirtualCluster"):
        self.cluster = cluster
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        self.metrics = cluster.telemetry.metrics
        self._rng = cluster.datacenter.rng.stream(
            f"mapreduce/heartbeat/{cluster.name}")
        #: (job name, tracker name) -> task failures charged to the tracker.
        self._tracker_failures: dict[tuple[str, str], int] = {}
        #: Per-job blacklist: trackers that failed too many of its tasks.
        self._blacklist: set[tuple[str, str]] = set()
        #: Task memo: (job fingerprint, map index, split) -> result.  Weak,
        #: so a result lives exactly as long as a _MapOutput using it.
        self._map_memo: weakref.WeakValueDictionary = (
            weakref.WeakValueDictionary())

    # -- public ------------------------------------------------------------
    def submit(self, job: Job) -> Event:
        """Run ``job``; the event's value is its :class:`JobReport`."""
        return self.sim.process(self._job_proc(job), name=f"job:{job.name}")

    def run_to_completion(self, job: Job) -> JobReport:
        """Submit and drive the simulator until the job finishes."""
        event = self.submit(job)
        self.sim.run_until(event)
        return event.value

    def read_output(self, report: JobReport) -> list[tuple[Any, Any]]:
        """Concatenated output records of a finished job (control-plane
        peek; charges no simulated time)."""
        out: list[tuple[Any, Any]] = []
        # Part-file name order == partition order (output_paths itself
        # lists them in completion order, which scheduling perturbs).
        for path in sorted(report.output_paths):
            out.extend(self.cluster.dfs.peek_records(path))
        return out

    # -- job orchestration -------------------------------------------------
    def _job_proc(self, job: Job):
        config = self.cluster.config
        report = JobReport(job_name=job.name, submitted_at=self.sim.now,
                           n_reduces=job.n_reduces)
        self.tracer.emit(self.sim.now, EV.JOB_SUBMIT, job.name,
                         n_reduces=job.n_reduces)
        job_span = self.tracer.begin_span(self.sim.now, EV.JOB_RUN, job.name,
                                          n_reduces=job.n_reduces)
        yield self.sim.timeout(config.job_overhead_s / 2)
        yield from self._localize(job)

        specs = self._make_map_specs(job)
        report.n_maps = len(specs)
        report.input_bytes = sum(s.nbytes for s in specs)

        map_span = self.tracer.begin_span(self.sim.now, EV.PHASE_MAP,
                                          job.name, parent=job_span,
                                          n_maps=len(specs))
        map_outputs: list[_MapOutput] = yield self.sim.process(
            self._map_phase(job, specs, report, map_span),
            name=f"{job.name}:maps")
        report.map_phase_end = self.sim.now
        self.tracer.end_span(map_span, self.sim.now)
        self.tracer.emit(self.sim.now, EV.JOB_MAPS_DONE, job.name,
                         n_maps=len(specs))

        if job.map_only:
            yield from self._write_map_only_output(job, map_outputs, report)
        else:
            reduce_span = self.tracer.begin_span(
                self.sim.now, EV.PHASE_REDUCE, job.name, parent=job_span,
                n_reduces=job.n_reduces)
            yield self.sim.process(
                self._reduce_phase(job, map_outputs, report, reduce_span),
                name=f"{job.name}:reduces")
            self.tracer.end_span(reduce_span, self.sim.now)

        yield self.sim.timeout(config.job_overhead_s / 2)
        report.finished_at = self.sim.now
        self.tracer.end_span(job_span, self.sim.now, elapsed=report.elapsed)
        self.tracer.emit(self.sim.now, EV.JOB_DONE, job.name,
                         elapsed=report.elapsed)
        self._record_job_metrics(job, report)
        return report

    def _record_job_metrics(self, job: Job, report: JobReport) -> None:
        labels = {"job": job.name}
        m = self.metrics
        m.counter("mapreduce.jobs.completed", "finished jobs").inc()
        m.histogram("mapreduce.job.duration",
                    "job makespan in simulated seconds",
                    labels).observe(report.elapsed)
        m.counter("mapreduce.input.bytes", "bytes read by map tasks",
                  labels).inc(report.input_bytes)
        m.counter("mapreduce.shuffle.bytes", "bytes moved map -> reduce",
                  labels).inc(report.shuffle_bytes)
        m.counter("mapreduce.output.bytes", "bytes written by reduces",
                  labels).inc(report.output_bytes)

    # -- failure handling ---------------------------------------------------
    @staticmethod
    def _vm_live(vm) -> bool:
        return vm.state in (VMState.RUNNING, VMState.MIGRATING)

    def _live_trackers(self) -> list:
        return [t for t in self.cluster.trackers if self._vm_live(t.vm)]

    def _is_blacklisted(self, job: Job, tracker: "TaskTracker") -> bool:
        return (job.name, tracker.name) in self._blacklist

    def _record_tracker_failure(self, job: Job,
                                tracker: "TaskTracker") -> None:
        key = (job.name, tracker.name)
        n = self._tracker_failures.get(key, 0) + 1
        self._tracker_failures[key] = n
        limit = self.cluster.config.tracker_blacklist_failures
        if n >= limit and key not in self._blacklist:
            self._blacklist.add(key)
            self.tracer.emit(self.sim.now, EV.RECOVERY_TRACKER_BLACKLISTED,
                             tracker.name, job=job.name, failures=n)
            self.metrics.counter(
                "recovery.trackers.blacklisted",
                "trackers blacklisted after repeated task failures",
                {"job": job.name}).inc()

    def _retry_backoff(self, attempts: int) -> float:
        """Capped exponential backoff before re-queueing attempt ``n``."""
        config = self.cluster.config
        return min(config.retry_backoff_s * (2 ** max(0, attempts - 1)),
                   config.retry_backoff_cap_s)

    def _handle_task_failure(self, job: Job, kind: str, state: dict, item,
                             task_id: str, speculative: bool,
                             tracker: "TaskTracker", report: "JobReport",
                             remaining: dict, all_done: Event, cause,
                             on_requeue=None) -> None:
        """Account one failed/aborted task attempt and requeue it.

        The task re-enters the pending queue after a capped exponential
        backoff; ``state["retrying"]`` holds the phase open meanwhile so
        idle workers don't conclude the job is drained.  When the attempt
        budget (``max_task_retries``) is exhausted — or no live tracker
        remains — the phase's ``all_done`` event *fails*, failing the job.
        """
        self._record_tracker_failure(job, tracker)
        index = item.index if kind == "map" else item
        if speculative:
            # The original attempt is still running; just allow a fresh
            # backup to launch later.
            state["duplicated"].discard(index)
            return
        if index in state["finished"]:
            return
        state["running"].pop(index, None)
        attempts = state["attempts"].get(index, 0) + 1
        state["attempts"][index] = attempts
        config = self.cluster.config
        if attempts > config.max_task_retries:
            if not all_done.triggered:
                all_done.fail(TaskFailure(task_id, cause))
            return
        delay = self._retry_backoff(attempts)
        self.tracer.emit(self.sim.now, EV.RECOVERY_TASK_RETRY, task_id,
                         job=job.name, attempt=attempts,
                         tracker=tracker.name, backoff_s=delay,
                         cause=str(cause))
        self.metrics.counter("recovery.task.retries",
                             "task attempts requeued after a failure",
                             {"phase": kind, "job": job.name}).inc()
        state["retrying"]["n"] += 1
        self.sim.process(
            self._requeue_proc(job, kind, state, item, delay, all_done,
                               on_requeue),
            name=f"{job.name}:retry:{task_id}")

    def _requeue_proc(self, job: Job, kind: str, state: dict, item,
                      delay: float, all_done: Event, on_requeue,
                      parked: int = 0):
        if delay > 0:
            yield self.sim.timeout(delay)
        state["retrying"]["n"] -= 1
        if all_done.triggered:
            return
        live = self._live_trackers()
        usable = [t for t in live
                  if not self._is_blacklisted(job, t)] or live
        if not usable:
            task_id = item.task_id if kind == "map" else f"r-{item:05d}"
            if parked >= self.MAX_TRACKER_WAITS:
                all_done.fail(TaskFailure(task_id, "no live trackers left"))
                return
            # A transient total tracker outage (say, the lone worker host
            # crashed with a rejoin already scheduled) must not kill the
            # job: park for a heartbeat and look again.  The wait is
            # bounded so a cluster that never recovers still terminates.
            state["retrying"]["n"] += 1
            self.sim.process(
                self._requeue_proc(job, kind, state, item,
                                   self.cluster.config.heartbeat_s,
                                   all_done, on_requeue, parked + 1),
                name=f"{job.name}:park:{task_id}")
            return
        if kind == "map":
            # Refresh the replica holders: a retried attempt must not try
            # to read its split from a datanode that died meanwhile.
            live_holders = tuple(
                dn for dn in item.holders
                if dn in self.cluster.namenode.datanodes
                and self._vm_live(dn.vm))
            state["pending"].insert(0, replace(item, holders=live_holders))
        else:
            state["pending"].insert(0, item)
        if on_requeue is not None:
            on_requeue()

    def _localize(self, job: Job):
        """Job localization: every TaskTracker pulls job.jar + config from
        the JobTracker/HDFS before it can run a task of this job.  The
        aggregate volume grows linearly with cluster size, which is what
        makes small jobs slower on larger virtual clusters (Fig. 6).
        """
        config = self.cluster.config
        if config.job_localization_bytes <= 0:
            return
        fabric = self.cluster.datacenter.fabric
        master = self.cluster.master
        pulls = []
        for tracker in self._live_trackers():
            pulls.append(fabric.transfer(
                master.node, tracker.vm.node,
                config.job_localization_bytes,
                name=f"{job.name}:localize:{tracker.name}"))
            pulls.append(tracker.vm.disk_io(
                config.job_localization_bytes,
                name=f"{job.name}:localize"))
        yield self.sim.all_of(pulls)

    # -- splits --------------------------------------------------------------
    def _make_map_specs(self, job: Job) -> list[_MapSpec]:
        namenode = self.cluster.namenode
        blocks = []
        for path in job.input_paths:
            # Hadoop semantics: an input path may be a file or a directory
            # of part files (a previous job's output).
            if namenode.exists(path):
                blocks.extend(namenode.get_file(path).blocks)
            else:
                children = namenode.list_files(prefix=path.rstrip("/") + "/")
                if not children:
                    raise JobConfigError(
                        f"job {job.name!r}: input {path!r} not found")
                for child in children:
                    blocks.extend(namenode.get_file(child).blocks)
        if not blocks:
            # Existing-but-empty input: a zero-map job that succeeds with
            # empty output (Hadoop's behaviour for empty input dirs).
            return []

        if job.force_num_maps is None:
            specs = []
            for i, block in enumerate(blocks):
                holders = tuple(namenode.replicas.get(block.block_id, ()))
                payload = namenode.block_store.get(block)
                specs.append(_MapSpec(i, payload, float(block.size), holders,
                                      (block.block_id,)))
            return specs

        # MRBench-style forced map count: repack all records into n groups;
        # each group inherits the replica holders of its dominant block.
        n = job.force_num_maps
        all_records: list = []
        record_home: list[int] = []
        for bi, block in enumerate(blocks):
            payload = namenode.block_store.get(block)
            all_records.extend(payload)
            record_home.extend([bi] * len(payload))
        total_bytes = float(sum(b.size for b in blocks))
        if not all_records:
            raise JobConfigError(f"job {job.name!r}: empty input")
        block_ids = tuple(block.block_id for block in blocks)
        specs = []
        chunk = -(-len(all_records) // n)
        for i in range(n):
            lo, hi = i * chunk, min((i + 1) * chunk, len(all_records))
            group = tuple(all_records[lo:hi])
            if lo >= len(all_records):
                group = ()
            home_block = blocks[record_home[lo]] if lo < len(all_records) \
                else blocks[0]
            holders = tuple(self.cluster.namenode.replicas.get(
                home_block.block_id, ()))
            nbytes = total_bytes * (len(group) / len(all_records))
            specs.append(_MapSpec(i, group, nbytes, holders,
                                  (block_ids, lo, hi)))
        return specs

    # -- map phase --------------------------------------------------------------
    def _map_phase(self, job: Job, specs: list[_MapSpec], report: JobReport,
                   phase_span: Optional[Span] = None):
        # Shared phase state: the task queue plus what speculation needs —
        # which tasks are running (and since when), which have finished,
        # which already have a backup attempt, and completed durations.
        state = {
            "pending": list(specs),
            "running": {},        # spec.index -> (start_time, spec)
            "finished": set(),    # spec.index
            "duplicated": set(),  # spec.index with a backup launched
            "durations": [],      # completed map durations
            "span": phase_span,   # parent for task-attempt spans
            "retrying": {"n": 0},  # failed attempts awaiting their backoff
            "attempts": {},       # spec.index -> failed attempt count
        }
        outputs: list[_MapOutput] = []
        # The phase ends when every *task* has finished — idle trackers
        # still napping between heartbeats must not hold the job open.
        all_done = self.sim.event()
        remaining = {"n": len(specs)}
        if remaining["n"] == 0:
            all_done.succeed(None)

        def spawn(trackers):
            for tracker in trackers:
                for slot in range(tracker.map_slots.capacity):
                    self.sim.process(
                        self._map_worker(job, tracker, state, outputs,
                                         report, remaining, all_done,
                                         on_requeue=respawn),
                        name=f"{job.name}:mapworker:{tracker.name}:{slot}")

        def respawn():
            # A requeued task may find every original worker exited (they
            # leave when the queue drains); restaff the live trackers.
            spawn(t for t in self._live_trackers()
                  if not self._is_blacklisted(job, t))

        spawn(self.cluster.trackers)
        yield all_done
        outputs.sort(key=lambda o: o.spec.index)
        return outputs

    def _pick_speculative(self, state: dict, report: JobReport,
                          kind: str = "map"):
        """The longest-running straggler eligible for a backup attempt.

        Works for both phases: map ``state["running"]`` holds
        ``index -> (start, _MapSpec)``, reduce holds
        ``partition -> (start, partition)``.
        """
        config = self.cluster.config
        if not config.speculative_execution or not state["durations"]:
            return None
        mean = sum(state["durations"]) / len(state["durations"])
        threshold = config.speculative_slowdown * mean
        now = self.sim.now
        candidates = [
            (now - start, index, item)
            for index, (start, item) in state["running"].items()
            if index not in state["finished"]
            and index not in state["duplicated"]
            and (now - start) > threshold]
        if not candidates:
            return None
        _age, index, item = max(candidates, key=lambda trip: trip[0])
        state["duplicated"].add(index)
        if kind == "map":
            task_id = item.task_id
            report.speculated_maps += 1
            speculate_kind = EV.TASK_MAP_SPECULATE
        else:
            task_id = f"r-{index:05d}"
            report.speculated_reduces += 1
            speculate_kind = EV.TASK_REDUCE_SPECULATE
        self.tracer.emit(now, speculate_kind, task_id)
        self.metrics.counter(
            "mapreduce.tasks.speculated",
            "backup attempts launched for straggler tasks",
            {"phase": kind, "job": report.job_name}).inc()
        return item

    def _count_speculation_win(self, job: Job, kind: str,
                               speculative: bool) -> None:
        """Count a backup attempt that beat the original to the finish —
        the payoff side of the straggler counters."""
        if not speculative:
            return
        self.metrics.counter(
            "mapreduce.speculation.wins",
            "speculative attempts that finished before the original",
            {"phase": kind, "job": job.name}).inc()

    def _pick_map_task(self, tracker: "TaskTracker",
                       pending: list[_MapSpec]) -> tuple[Optional[_MapSpec], str]:
        """Locality-aware task selection for one tracker."""
        if not pending:
            return None, "-"
        if self.cluster.config.locality_aware:
            levels = (("node", self._is_node_local),
                      ("host", self._is_host_local))
            if self.cluster.multi_rack:
                # node > host > rack > off-rack: the rack tier only
                # exists on multi-rack topologies, so flat/one-rack runs
                # keep the exact pre-rack decision sequence.
                levels += (("rack", self._is_rack_local),)
            for level, match in levels:
                for spec in pending:
                    if match(tracker, spec):
                        pending.remove(spec)
                        return spec, level
            spec = pending.pop(0)
            return spec, "remote"
        spec = pending.pop(0)
        return spec, self._locality_of(tracker, spec)

    @staticmethod
    def _is_node_local(tracker: "TaskTracker", spec: _MapSpec) -> bool:
        return any(dn.vm is tracker.vm for dn in spec.holders)

    @staticmethod
    def _is_host_local(tracker: "TaskTracker", spec: _MapSpec) -> bool:
        return any(dn.vm.host is tracker.vm.host for dn in spec.holders)

    @staticmethod
    def _is_rack_local(tracker: "TaskTracker", spec: _MapSpec) -> bool:
        rack = tracker.vm.host.rack
        return rack is not None and any(dn.vm.host.rack is rack
                                        for dn in spec.holders)

    def _locality_of(self, tracker, spec) -> str:
        if self._is_node_local(tracker, spec):
            return "node"
        if self._is_host_local(tracker, spec):
            return "host"
        if self.cluster.multi_rack and self._is_rack_local(tracker, spec):
            return "rack"
        return "remote"

    def _map_worker(self, job: Job, tracker: "TaskTracker", state: dict,
                    outputs: list[_MapOutput], report: JobReport,
                    remaining: dict, all_done: Event, on_requeue=None):
        config = self.cluster.config
        pending = state["pending"]
        retrying = state["retrying"]
        while (pending or retrying["n"] > 0
               or (config.speculative_execution and remaining["n"] > 0)):
            if tracker.vm.state in (VMState.FAILED, VMState.STOPPED):
                break  # dead trackers take no more tasks (migration is
                       # transparent: MIGRATING VMs keep working)
            if self._is_blacklisted(job, tracker):
                break  # too many failures: this tracker sits the job out
            # Tasks are handed out on tracker heartbeats: whichever tracker
            # heartbeats next gets the work, so assignment order is random
            # across trackers (and the queue may drain while we wait).
            yield self.sim.timeout(
                float(self._rng.uniform(0.0, config.heartbeat_s)))
            spec, locality = self._pick_map_task(tracker, pending)
            speculative = False
            if spec is None:
                spec = self._pick_speculative(state, report, "map")
                if spec is None:
                    if remaining["n"] > 0 and (config.speculative_execution
                                               or retrying["n"] > 0):
                        continue  # keep heartbeating; stragglers or
                                  # requeued retries may appear
                    break
                speculative = True
                locality = self._locality_of(tracker, spec)
            yield tracker.map_slots.acquire()
            # A running task keeps the whole VM busy (JVM heap, buffers)
            # for its entire duration, not only during CPU bursts — this
            # drives the dirty-page rate seen by live migration.
            tracker.vm.activity += 1
            claimed = self.sim.now
            if report.first_task_at is None:
                report.first_task_at = claimed
            try:
                yield self.sim.timeout(config.task_startup_s)
                start = self.sim.now
                if not speculative:
                    state["running"][spec.index] = (start, spec)
                attempt_span = self.tracer.begin_span(
                    start, EV.TASK_MAP, spec.task_id, parent=state["span"],
                    tracker=tracker.name, locality=locality,
                    speculative=speculative, job=job.name)
                gen = self._run_map_task(job, tracker, spec, locality,
                                         report)
                failure = None
                try:
                    output, died = yield from _drive_racing(
                        self.sim, gen, tracker.vm.failure_event())
                    if died:
                        failure = VMStateError(
                            f"{tracker.name}: tracker died mid-attempt")
                except (VMStateError, TaskFailure) as exc:
                    output, failure = None, exc
                if failure is not None:
                    self.tracer.end_span(attempt_span, self.sim.now,
                                         failed=True)
                    self._handle_task_failure(
                        job, "map", state, spec, spec.task_id, speculative,
                        tracker, report, remaining, all_done, failure,
                        on_requeue=on_requeue)
                    continue
                self.tracer.end_span(attempt_span, self.sim.now,
                                     won=spec.index not in state["finished"])
                self.metrics.histogram(
                    "mapreduce.task.duration", "task attempt duration",
                    {"phase": "map", "job": job.name}).observe(
                        self.sim.now - start)
                if spec.index in state["finished"]:
                    continue  # the other attempt won the race
                self._count_speculation_win(job, "map", speculative)
                state["finished"].add(spec.index)
                state["running"].pop(spec.index, None)
                state["durations"].append(self.sim.now - start)
                outputs.append(output)
                spilled = sum(output.partition_bytes.values())
                report.tasks.append(TaskAttempt(
                    task_id=spec.task_id, kind="map", tracker=tracker.name,
                    start=start, end=self.sim.now, input_bytes=spec.nbytes,
                    output_bytes=spilled, locality=locality))
                self.tracer.emit(self.sim.now, EV.TASK_MAP_DONE,
                                 spec.task_id, tracker=tracker.name,
                                 locality=locality, speculative=speculative)
                remaining["n"] -= 1
                if remaining["n"] == 0 and not all_done.triggered:
                    all_done.succeed(None)
            finally:
                report.slot_seconds += self.sim.now - claimed
                tracker.vm.activity -= 1
                tracker.map_slots.release()
        return None

    def _run_map_task(self, job: Job, tracker: "TaskTracker", spec: _MapSpec,
                      locality: str, report: JobReport, count: bool = True):
        vm = tracker.vm
        # 1. read the split (from a still-live replica holder: a datanode
        # may have died since the specs were built).
        live_holders = tuple(dn for dn in spec.holders
                             if self._vm_live(dn.vm))
        if locality == "node" and any(dn.vm is vm for dn in live_holders):
            local = next(dn for dn in live_holders if dn.vm is vm)
            yield local.vm.disk_io(spec.nbytes, name=f"split:{spec.task_id}")
        elif live_holders:
            rack = vm.host.rack
            source = next(
                (dn for dn in live_holders if dn.vm.host is vm.host),
                next((dn for dn in live_holders
                      if rack is not None and dn.vm.host.rack is rack),
                     live_holders[0]))
            pending = [source.vm.disk_io(spec.nbytes,
                                         name=f"split:{spec.task_id}")]
            pending.append(self.cluster.datacenter.fabric.transfer(
                source.vm.node, vm.node, spec.nbytes,
                name=f"splitxfer:{spec.task_id}"))
            yield self.sim.all_of(pending)
        # 2. CPU.
        work = (job.map_cpu_per_byte * spec.nbytes
                + job.map_cpu_per_record * len(spec.records))
        if work > 0:
            yield vm.compute(work, name=f"map:{spec.task_id}")
        # 3. real map + combine + partition (functional; cost already
        # charged), or the memoized result of an identical earlier attempt.
        fingerprint = job_fingerprint(job, self.cluster.config.use_combiner)
        key = (None if fingerprint is None
               else (fingerprint, spec.index, spec.split))
        result = self._map_memo.get(key)
        if result is None:
            result = self._compute_map(job, spec, key)
            if key is not None:
                self._map_memo[key] = result
        # 4. spill.
        spill = sum(result.partition_bytes.values())
        if spill > 0 and not job.map_only:
            yield vm.disk_io(spill, name=f"spill:{spec.task_id}")
        # Counters land only when the attempt completes: a preempted or
        # superseded attempt must contribute nothing to the job totals.
        # ``count=False`` is the shuffle-recovery re-run, whose original
        # attempt already counted — it must not double-count either.
        if count:
            report.counters.merge(result.counters)
            report.counters.incr("job", "map_input_records",
                                 len(spec.records))
            report.counters.incr("job", "map_output_records",
                                 result.n_mapped)
        return _MapOutput(spec, tracker, result, job=job, report=report)

    def _compute_map(self, job: Job, spec: _MapSpec,
                     key: Optional[tuple]) -> _MapResult:
        """Run the user's mapper (and combiner) over the split and
        partition the pairs; charges no simulated time."""
        ctx = Context(task_id=spec.task_id, config=job.params)
        try:
            pairs = run_mapper(job.mapper(), spec.records, ctx)
        except Exception as exc:
            raise TaskFailure(spec.task_id, exc) from exc
        n_mapped = len(pairs)
        if self.cluster.config.use_combiner:
            pairs = combine(job.combiner, pairs, ctx)
        n_parts = max(1, job.n_reduces)
        part = job.partitioner.partition
        buckets: list[list] = [[] for _ in range(n_parts)]
        for kv in pairs:
            buckets[part(kv[0], n_parts)].append(kv)
        sizeof = job.intermediate_sizeof
        partitions = {p: tuple(rows) for p, rows in enumerate(buckets)}
        partition_bytes = {p: float(sum(map(sizeof, rows)))
                           for p, rows in partitions.items()}
        return _MapResult(key, partitions, partition_bytes, ctx.counters,
                          n_mapped)

    # -- reduce phase --------------------------------------------------------
    def _reduce_phase(self, job: Job, map_outputs: list[_MapOutput],
                      report: JobReport,
                      phase_span: Optional[Span] = None):
        state = self._make_reduce_state(job)
        state["span"] = phase_span
        all_done = self.sim.event()
        remaining = {"n": job.n_reduces}
        if remaining["n"] == 0:
            all_done.succeed(None)

        def spawn(trackers):
            for tracker in trackers:
                for slot in range(tracker.reduce_slots.capacity):
                    self.sim.process(
                        self._reduce_worker(job, tracker, state, map_outputs,
                                            report, remaining, all_done,
                                            on_requeue=respawn),
                        name=f"{job.name}:reduceworker:"
                             f"{tracker.name}:{slot}")

        def respawn():
            spawn(t for t in self._live_trackers()
                  if not self._is_blacklisted(job, t))

        spawn(self.cluster.trackers)
        yield all_done
        return None

    @staticmethod
    def _make_reduce_state(job: Job) -> dict:
        """Shared reduce-phase state, mirroring the map phase plus a
        commit table (``committing``) so racing speculative attempts
        never write the same ``part-r-NNNNN`` file twice."""
        return {
            "pending": list(range(job.n_reduces)),
            "running": {},        # partition -> (start_time, partition)
            "finished": set(),    # partition
            "duplicated": set(),  # partition with a backup launched
            "durations": [],      # completed reduce durations
            "committing": {},     # partition -> attempt token
            "retrying": {"n": 0},  # failed attempts awaiting their backoff
            "attempts": {},       # partition -> failed attempt count
        }

    def _reduce_worker(self, job: Job, tracker: "TaskTracker", state: dict,
                       map_outputs: list[_MapOutput], report: JobReport,
                       remaining: dict, all_done: Event, on_requeue=None):
        config = self.cluster.config
        pending = state["pending"]
        retrying = state["retrying"]
        while (pending or retrying["n"] > 0
               or (config.speculative_execution and remaining["n"] > 0)):
            if tracker.vm.state in (VMState.FAILED, VMState.STOPPED):
                break
            if self._is_blacklisted(job, tracker):
                break  # too many failures: this tracker sits the job out
            yield self.sim.timeout(
                float(self._rng.uniform(0.0, config.heartbeat_s)))
            speculative = False
            if pending:
                partition = pending.pop(0)
            else:
                partition = self._pick_speculative(state, report, "reduce")
                if partition is None:
                    if remaining["n"] > 0 and (config.speculative_execution
                                               or retrying["n"] > 0):
                        continue  # keep heartbeating; stragglers or
                                  # requeued retries may appear
                    break
                speculative = True
            yield tracker.reduce_slots.acquire()
            tracker.vm.activity += 1
            claimed = self.sim.now
            if report.first_task_at is None:
                report.first_task_at = claimed
            try:
                yield self.sim.timeout(config.task_startup_s)
                start = self.sim.now
                if not speculative:
                    state["running"][partition] = (start, partition)
                token = object()
                attempt_span = self.tracer.begin_span(
                    start, EV.TASK_REDUCE, f"r-{partition:05d}",
                    parent=state["span"], tracker=tracker.name,
                    speculative=speculative, job=job.name)
                gen = self._run_reduce_task(
                    job, tracker, partition, map_outputs, report, state,
                    token, attempt_span)
                failure = None
                try:
                    # An attempt that already holds the commit token has
                    # (partially) written the output file; it must finish
                    # even if its tracker dies — single-writer commit.
                    result, died = yield from _drive_racing(
                        self.sim, gen, tracker.vm.failure_event(),
                        abortable=lambda:
                            state["committing"].get(partition) is not token)
                    if died:
                        failure = VMStateError(
                            f"{tracker.name}: tracker died mid-attempt")
                except (VMStateError, TaskFailure) as exc:
                    result, failure = None, exc
                if failure is not None:
                    if state["committing"].get(partition) is token:
                        del state["committing"][partition]
                    self.tracer.end_span(attempt_span, self.sim.now,
                                         failed=True)
                    self._handle_task_failure(
                        job, "reduce", state, partition,
                        f"r-{partition:05d}", speculative, tracker, report,
                        remaining, all_done, failure, on_requeue=on_requeue)
                    continue
                self.tracer.end_span(attempt_span, self.sim.now,
                                     won=result is not None)
                self.metrics.histogram(
                    "mapreduce.task.duration", "task attempt duration",
                    {"phase": "reduce", "job": job.name}).observe(
                        self.sim.now - start)
                if result is None or partition in state["finished"]:
                    continue  # the other attempt won the race
                self._count_speculation_win(job, "reduce", speculative)
                state["finished"].add(partition)
                state["running"].pop(partition, None)
                state["durations"].append(self.sim.now - start)
                nbytes_in, nbytes_out = result
                report.tasks.append(TaskAttempt(
                    task_id=f"r-{partition:05d}", kind="reduce",
                    tracker=tracker.name, start=start, end=self.sim.now,
                    input_bytes=nbytes_in, output_bytes=nbytes_out,
                    locality="-"))
                self.tracer.emit(self.sim.now, EV.TASK_REDUCE_DONE,
                                 f"r-{partition:05d}", tracker=tracker.name,
                                 speculative=speculative)
                remaining["n"] -= 1
                if remaining["n"] == 0 and not all_done.triggered:
                    all_done.succeed(None)
            finally:
                report.slot_seconds += self.sim.now - claimed
                tracker.vm.activity -= 1
                tracker.reduce_slots.release()
        return None

    def _run_reduce_task(self, job: Job, tracker: "TaskTracker",
                         partition: int, map_outputs: list[_MapOutput],
                         report: JobReport, state: dict, token: object,
                         attempt_span: Optional[Span] = None):
        vm = tracker.vm
        config = self.cluster.config
        # 1. shuffle: fetch this partition from every map's VM.
        fetch_sem = Resource(self.sim, config.shuffle_parallel_copies,
                             name=f"{vm.name}.fetchers")
        fetches = [self.sim.process(
            self._fetch(output, partition, vm, fetch_sem, attempt_span,
                        job_name=job.name),
            name=f"fetch:{output.spec.task_id}:r{partition}")
            for output in map_outputs
            if output.partition_bytes.get(partition, 0.0) > 0]
        if fetches:
            yield self.sim.all_of(fetches)
        nbytes_in = sum(output.partition_bytes.get(partition, 0.0)
                        for output in map_outputs)
        report.shuffle_bytes += nbytes_in
        self.metrics.histogram(
            "mapreduce.shuffle.partition_bytes",
            "shuffle bytes fetched per reduce partition",
            {"job": job.name}).observe(nbytes_in)
        # 2. merge-sort + reduce CPU.
        n = sum(len(output.partitions.get(partition, ()))
                for output in map_outputs)
        work = (job.reduce_cpu_per_byte * nbytes_in
                + job.reduce_cpu_per_record * n
                + C.SORT_CPU_PER_RECORD * n * math.log2(n + 2))
        if work > 0:
            yield vm.compute(work, name=f"reduce:r{partition}")
        # 3. real reduce, or the memoized result of the same partition of
        # the same map results (kept only when every map result is keyed).
        keys = tuple(output.result.key for output in map_outputs)
        memo = (map_outputs[0].result.reduces
                if keys and None not in keys else {})
        key = (partition, keys)
        if key not in memo:
            memo[key] = self._compute_reduce(job, partition, map_outputs)
        out_pairs, counters = memo[key]
        # Commit protocol: only one attempt per partition may write the
        # output file (and merge its counters); a racing speculative
        # attempt that arrives second discards its work.
        if (partition in state["finished"]
                or partition in state["committing"]):
            return None
        state["committing"][partition] = token
        report.counters.merge(counters)
        report.counters.incr("job", "reduce_input_records", n)
        report.counters.incr("job", "reduce_output_records", len(out_pairs))
        # 4. replicated output write.
        path = f"{job.output_path}/part-r-{partition:05d}"
        f = yield self.cluster.dfs.write_file(
            vm, path, out_pairs, sizeof=job.output_sizeof,
            replication=job.output_replication)
        report.output_paths.append(path)
        report.output_bytes += f.size
        return nbytes_in, float(f.size)

    @staticmethod
    def _compute_reduce(job: Job, partition: int,
                        map_outputs: list[_MapOutput]) -> tuple:
        """Group the partition's rows and run the user's reducer; returns
        ``(output pairs, counters)`` and charges no simulated time."""
        rows: list = []
        for output in map_outputs:
            rows.extend(output.partitions.get(partition, ()))
        ctx = Context(task_id=f"r-{partition:05d}", config=job.params)
        try:
            reducer = (job.reducer or Reducer)()
            out_pairs = tuple(run_reducer(reducer, group_by_key(rows), ctx))
        except Exception as exc:
            raise TaskFailure(f"r-{partition:05d}", exc) from exc
        return out_pairs, ctx.counters

    def _fetch(self, output: _MapOutput, partition: int, to_vm, sem: Resource,
               parent_span: Optional[Span] = None, job_name: str = ""):
        """One shuffle fetch, bounded by the reduce's parallel-copy limit.

        If the map's VM died since the map ran, its intermediate output is
        gone; Hadoop re-executes the map, which we do on the fetching VM
        (charging startup, the split read and map CPU again) before
        copying.  The source can also die *between* the liveness check and
        the read — or between a recovery re-run and the fetch that needed
        it — so the whole sequence retries until the attempt budget runs
        out rather than crashing the fetch process.
        """
        config = self.cluster.config
        acquired = False
        pending: list[Event] = []
        try:
            yield sem.acquire()
            acquired = True
            for _ in range(config.max_task_retries + 1):
                if not self._vm_live(output.tracker.vm):
                    yield from self._recover_map_output(output, to_vm)
                nbytes = output.partition_bytes[partition]
                span = self.tracer.begin_span(
                    self.sim.now, EV.SHUFFLE_FETCH,
                    f"{output.spec.task_id}:r{partition}",
                    parent=parent_span, tracker=to_vm.name,
                    src=output.tracker.vm.name, nbytes=nbytes,
                    job=job_name)
                try:
                    yield self.sim.timeout(C.SHUFFLE_FETCH_OVERHEAD_S)
                    pending = [output.tracker.vm.disk_io(
                        nbytes, name=f"shufread:{output.spec.task_id}")]
                    if output.tracker.vm.node is not to_vm.node:
                        pending.append(
                            self.cluster.datacenter.fabric.transfer(
                                output.tracker.vm.node, to_vm.node, nbytes,
                                name=f"shuffle:{output.spec.task_id}"
                                     f":r{partition}"))
                    yield self.sim.all_of(pending)
                except VMStateError:
                    # The source died under us; loop back, recover the map
                    # output on a live VM and try again.
                    self.tracer.end_span(span, self.sim.now, failed=True)
                    continue
                self.tracer.end_span(span, self.sim.now)
                return None
            raise TaskFailure(f"{output.spec.task_id}:r{partition}",
                              "shuffle source kept failing")
        except Interrupt:
            # The owning reduce attempt was aborted: cancel any in-flight
            # sub-work so the virt/net layers bill only what moved.
            for ev in pending:
                if isinstance(ev, Process) and ev.is_alive:
                    ev.interrupt("fetch aborted")
            return None
        finally:
            # Only release what we actually acquired: an Interrupt landing
            # in the pending ``acquire()`` above must not mint a permit.
            if acquired:
                sem.release()
        return None

    def _recover_map_output(self, output: _MapOutput, to_vm):
        """Re-execute a lost map task on ``to_vm`` (Hadoop's map re-run).

        The functional output is recomputed deterministically from the
        (replicated) input split, or served by the task memo while the
        lost output's result is still referenced (it is: ``output`` holds
        it); the re-executed task's costs — startup,
        split read and map CPU — are charged to the recovering VM.  Its
        counters are *not* merged again (``count=False``): the original
        attempt already counted.

        Raises :class:`VMStateError` when ``to_vm`` itself is dead or no
        longer a tracker (a double failure): the caller's reduce attempt
        is doomed and must be retried on a live tracker.
        """
        spec = output.spec
        tracker = next((t for t in self.cluster.trackers if t.vm is to_vm),
                       None)
        if tracker is None or not self._vm_live(to_vm):
            raise VMStateError(
                f"{to_vm.name}: cannot recover {spec.task_id}: "
                "recovering tracker is dead")
        self.tracer.emit(self.sim.now, EV.TASK_MAP_RECOVER, spec.task_id,
                         on=to_vm.name, lost_with=output.tracker.vm.name)
        yield self.sim.timeout(self.cluster.config.task_startup_s)
        live_holders = tuple(
            dn for dn in spec.holders
            if dn in self.cluster.namenode.datanodes
            and self._vm_live(dn.vm))
        fresh_spec = replace(spec, holders=live_holders)
        locality = self._locality_of(tracker, fresh_spec)
        job = output.job
        recovered = yield from self._run_map_task(job, tracker, fresh_spec,
                                                  locality, output.report,
                                                  count=False)
        output.tracker = tracker
        output.result = recovered.result

    # -- map-only output --------------------------------------------------------
    def _write_map_only_output(self, job: Job, map_outputs: list[_MapOutput],
                               report: JobReport):
        for output in map_outputs:
            rows = output.partitions.get(0, ())
            path = f"{job.output_path}/part-m-{output.spec.index:05d}"
            f = yield self.cluster.dfs.write_file(
                output.tracker.vm, path, rows, sizeof=job.output_sizeof,
                replication=job.output_replication)
            report.output_paths.append(path)
            report.output_bytes += f.size
