"""The runner's task memo: each repeated map split and reduce partition is
computed once, and nothing observable depends on whether it hit."""

import collections
import gc

import pytest

import repro.mapreduce.runner as runner_mod
from repro.config import PlatformConfig
from repro.mapreduce import Job, LocalJobRunner, Mapper
from repro.mapreduce.api import RangePartitioner
from repro.mapreduce.runner import job_fingerprint
from repro.ml.kmeans import KMeansDriver
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.platform.faults import fail_worker
from repro.scheduler import FairScheduler, PoolConfig
from repro.workloads.wordcount import (WordCountReducer, lines_as_records,
                                       line_record_sizeof, wordcount_job)

LINES = ["the quick brown fox", "jumps over the lazy dog",
         "the dog barks", "quick quick fox"] * 5
RECORDS = lines_as_records(LINES)
EXPECTED = dict(collections.Counter(" ".join(LINES).split()))


class CountingMapper(Mapper):
    """Wordcount's mapper plus user counters, to check their totals."""

    def map(self, key, value, context):
        context.counters.incr("user", "lines")
        for word in value.split():
            context.counters.incr("user", "words")
            context.emit(word, 1)


@pytest.fixture
def map_calls(monkeypatch):
    """Count real mapper (``n``) and reducer (``reduces``) executions
    inside the runner."""
    calls = {"n": 0, "reduces": 0}
    run_mapper, run_reducer = runner_mod.run_mapper, runner_mod.run_reducer

    def counted_mapper(mapper, records, context):
        calls["n"] += 1
        return run_mapper(mapper, records, context)

    def counted_reducer(reducer, grouped, context):
        calls["reduces"] += 1
        return run_reducer(reducer, grouped, context)
    monkeypatch.setattr(runner_mod, "run_mapper", counted_mapper)
    monkeypatch.setattr(runner_mod, "run_reducer", counted_reducer)
    return calls


def memo_off(monkeypatch):
    """Make every job unkeyed: every attempt runs the real path."""
    monkeypatch.setattr(runner_mod, "job_fingerprint", lambda *a: None)


def make_cluster(seed=11, n=6):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed))
    cluster = platform.provision_cluster("t", ClusterSpec.single_host(n))
    platform.upload(cluster, "/in", RECORDS, sizeof=line_record_sizeof,
                    timed=False)
    return platform, cluster


def wc(index, n_reduces=3, mapper=None):
    job = wordcount_job("/in", f"/out-{index}", n_reduces=n_reduces,
                        volume_scale=50)
    job.name = f"wc-{index}"
    job.force_num_maps = 4
    if mapper is not None:
        job.mapper = mapper
    return job


def run_concurrently(jobs, seed=11):
    """Submit ``jobs`` at once to one runner; returns reports, outputs."""
    platform, cluster = make_cluster(seed)
    runner = platform.runners[cluster.name]
    events = [runner.submit(job) for job in jobs]
    platform.sim.run()
    reports = [event.value for event in events]
    return reports, [runner.read_output(r) for r in reports]


def summary(report):
    """Everything a JobReport measures, in a comparable form."""
    return (report.elapsed, report.map_phase_end, report.tasks,
            report.counters.as_dict(), report.shuffle_bytes,
            report.output_bytes, sorted(report.output_paths),
            report.slot_seconds)


def test_warm_jobs_match_cold_platform_and_local_runner(monkeypatch,
                                                        map_calls):
    jobs = [wc(i) for i in range(3)]
    warm_reports, warm_outputs = run_concurrently(jobs)
    warm_calls = dict(map_calls)
    # 3 jobs x (4 maps + 3 reduces), but each is computed once.
    assert warm_calls == {"n": 4, "reduces": 3}

    memo_off(monkeypatch)
    cold_reports, cold_outputs = run_concurrently([wc(i) for i in range(3)])
    assert map_calls["n"] - warm_calls["n"] == 12
    assert map_calls["reduces"] - warm_calls["reduces"] == 9

    local = LocalJobRunner().run(jobs[0], RECORDS)
    for warm, cold, out_w, out_c in zip(warm_reports, cold_reports,
                                        warm_outputs, cold_outputs):
        assert summary(warm) == summary(cold)
        assert out_w == out_c == local
        assert dict(out_w) == EXPECTED

    # A job on a fresh platform (nothing to hit) gives the same output.
    platform, cluster = make_cluster(seed=4)
    solo = platform.run_job(cluster, wc(9))
    assert platform.collect(cluster, solo) == local


def test_user_counters_identical_on_hit_and_miss(monkeypatch, map_calls):
    jobs = [wc(i, mapper=CountingMapper) for i in range(2)]
    warm, _ = run_concurrently(jobs)
    assert map_calls["n"] == 4
    memo_off(monkeypatch)
    cold, _ = run_concurrently([wc(i, mapper=CountingMapper)
                                for i in range(2)])
    for report_w, report_c in zip(warm, cold):
        assert report_w.counters.as_dict() == report_c.counters.as_dict()
        assert report_w.counters.get("user", "lines") == len(RECORDS)
        assert report_w.counters.get("user", "words") == sum(
            EXPECTED.values())
        assert report_w.counters.get("job", "map_input_records") == len(
            RECORDS)


def run_with_lost_map_output():
    """A map's VM dies after the map phase; the shuffle re-runs the map."""
    platform, cluster = make_cluster(n=6)
    runner = platform.runners[cluster.name]
    job = wc(0, n_reduces=2, mapper=CountingMapper)
    event = runner.submit(job)
    sim = platform.sim
    while not platform.tracer.count("job.maps.done"):
        sim.step()
    mapper_name = next(platform.tracer.select("task.map.done"))["tracker"]
    fail_worker(cluster, next(tr.vm for tr in cluster.trackers
                              if tr.name == mapper_name))
    sim.run_until(event)
    assert platform.tracer.count("task.map.recover") >= 1
    return event.value, runner.read_output(event.value)


def test_recovery_rerun_hits_without_double_counting(monkeypatch, map_calls):
    warm, warm_out = run_with_lost_map_output()
    # The lost output still references its result: recovery is a hit.
    assert map_calls["n"] == 4
    assert warm.counters.get("user", "lines") == len(RECORDS)
    assert warm.counters.get("job", "map_input_records") == len(RECORDS)

    memo_off(monkeypatch)
    cold, cold_out = run_with_lost_map_output()
    assert map_calls["n"] > 8
    assert summary(warm) == summary(cold)
    assert dict(warm_out) == dict(cold_out) == EXPECTED


def run_scheduled(jobs, seed=5):
    platform, cluster = make_cluster(seed)
    policy = FairScheduler(pools=[PoolConfig("p1"), PoolConfig("p2")])
    reports, _sched = platform.submit_jobs(
        cluster, [(jobs[0], "p1"), (jobs[1], "p2")], policy=policy)
    return reports, [platform.collect(cluster, r) for r in reports]


def test_job_scheduler_hits_and_matches(monkeypatch, map_calls):
    warm, warm_out = run_scheduled([wc(0), wc(1)])
    assert map_calls["n"] == 4
    memo_off(monkeypatch)
    cold, cold_out = run_scheduled([wc(0), wc(1)])
    local = LocalJobRunner().run(wc(0), RECORDS)
    for report_w, report_c, out_w, out_c in zip(warm, cold, warm_out,
                                                cold_out):
        assert summary(report_w) == summary(report_c)
        assert out_w == out_c == local


def test_unkeyable_jobs_always_run_the_real_path(map_calls):
    kmeans = KMeansDriver(k=2)._iteration_job(
        "/in", "/out", [(0.0, 0.0), (1.0, 1.0)], 2)
    assert job_fingerprint(kmeans, True) is None
    listed = wc(0)
    listed.params = {"stopwords": ["the"]}
    assert job_fingerprint(listed, True) is None

    jobs = []
    for i in range(2):
        job = wc(i)
        job.params = {"stopwords": ["the"]}
        jobs.append(job)
    _reports, outputs = run_concurrently(jobs)
    assert map_calls["n"] == 8
    assert outputs[0] == outputs[1] == LocalJobRunner().run(jobs[0], RECORDS)


def test_fingerprint_keys_exactly():
    base = job_fingerprint(wc(0), True)
    assert base is not None
    # A fresh per-call sizeof lambda with the same closure still matches.
    assert job_fingerprint(wc(1), True) == base
    assert job_fingerprint(wc(0), False) != base
    assert job_fingerprint(wc(0, n_reduces=2), True) != base
    scaled = wordcount_job("/in", "/out", n_reduces=3, volume_scale=51)
    assert job_fingerprint(scaled, True) != base
    flagged = [wc(0), wc(0)]
    flagged[0].params = {"x": 1}
    flagged[1].params = {"x": True}
    assert job_fingerprint(flagged[0], True) != job_fingerprint(
        flagged[1], True)
    reducer_swapped = wc(0)
    reducer_swapped.reducer = None
    assert job_fingerprint(reducer_swapped, True) != base
    ranged = [wc(0), wc(0)]
    ranged[0].partitioner = RangePartitioner(["m"])
    ranged[1].partitioner = RangePartitioner(["n"])
    assert None not in (job_fingerprint(ranged[0], True),
                        job_fingerprint(ranged[1], True))
    assert job_fingerprint(ranged[0], True) != job_fingerprint(
        ranged[1], True)
    closure = Job(name="c", input_paths=["/in"], output_path="/o",
                  mapper=lambda: CountingMapper(), reducer=WordCountReducer)
    assert job_fingerprint(closure, True) is not None


def test_memo_holds_results_only_while_outputs_live():
    platform, cluster = make_cluster()
    runner = platform.runners[cluster.name]
    events = [runner.submit(wc(i)) for i in range(2)]
    sim = platform.sim
    while not platform.tracer.count("job.maps.done"):
        sim.step()
    assert len(runner._map_memo) == 4
    sim.run()
    reports = [event.value for event in events]
    outputs = [runner.read_output(r) for r in reports]
    assert outputs[0] == outputs[1]
    del events, reports, outputs
    gc.collect()
    assert len(runner._map_memo) == 0
