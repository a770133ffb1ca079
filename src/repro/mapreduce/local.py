"""LocalJobRunner: the pure-functional reference implementation.

Runs a :class:`~repro.mapreduce.job.Job` with no cluster, no simulator and
no timing — just map, combine, partition, sort, reduce over in-memory
records.  The cluster runner is property-tested to produce byte-identical
output, which is what makes the timed simulation trustworthy as a
*functional* reproduction (DESIGN.md §5, decision 1).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.mapreduce.api import (Context, Reducer, combine, group_by_key,
                                 run_mapper, run_reducer)
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Job


class LocalJobRunner:
    """In-process runner over explicit input records."""

    def __init__(self) -> None:
        self.counters = Counters()

    def run(self, job: Job, records: Sequence[tuple[Any, Any]]
            ) -> list[tuple[Any, Any]]:
        """Execute ``job`` over ``records``; returns the final output pairs
        ordered by reduce partition then key (Hadoop's part-file order)."""
        self.counters = Counters()
        map_ctx = Context(task_id=f"{job.name}-local-map",
                          counters=self.counters, config=job.params)
        pairs = run_mapper(job.mapper(), records, map_ctx)
        self.counters.incr("job", "map_output_records", len(pairs))
        pairs = combine(job.combiner, pairs, map_ctx)

        if job.map_only:
            return pairs

        partitions: dict[int, list[tuple[Any, Any]]] = {
            p: [] for p in range(job.n_reduces)}
        for key, value in pairs:
            partitions[job.partitioner.partition(key, job.n_reduces)].append(
                (key, value))

        output: list[tuple[Any, Any]] = []
        for p in range(job.n_reduces):
            reduce_ctx = Context(task_id=f"{job.name}-local-reduce-{p}",
                                 counters=self.counters, config=job.params)
            grouped = group_by_key(partitions[p])
            output.extend(run_reducer((job.reducer or Reducer)(), grouped,
                                      reduce_ctx))
        self.counters.incr("job", "reduce_output_records", len(output))
        return output
