"""Self-tests of the benchmark: span arithmetic, derived ratios, failure
counting, and that the workloads reproduce the program's own runs.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  The reproduction tests run full workloads (20-40 s each).
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import pytest

import hostspeed
import predictions
import run
import spans
import workloads
from repro import constants as C
from repro.experiments.fig5_migration import migrate_cluster_under
from repro.sim.kernel import Interrupt, Simulator


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# -- span arithmetic -----------------------------------------------------------

def test_nested_and_sibling_self_time():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf(dt):
        clock.advance(dt)

    child = tracer.timed("child", leaf)

    def body():
        clock.advance(1.0)
        child(2.0)          # two siblings under one parent
        child(3.0)
        clock.advance(0.5)

    tracer.timed("parent", body)()
    tracer.timed("child", leaf)(4.0)   # a top-level span of the same layer
    assert tracer.calls == {"parent": 1, "child": 3}
    assert tracer.incl["parent"] == 6.5
    assert tracer.self_s["parent"] == 1.5
    assert tracer.incl["child"] == tracer.self_s["child"] == 9.0
    assert tracer.stack == [[10.5]]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.timed("layer", boom)()
    assert tracer.incl["layer"] == 1.0 and len(tracer.stack) == 1


def test_timed_generator_forwards_values_and_throws():
    tracer = spans.Tracer()
    seen = []

    def body():
        try:
            seen.append((yield "a"))
        except KeyError as exc:
            seen.append(exc.args[0])
        return "done"

    gen = tracer.timed_generator("layer", body())
    assert next(gen) == "a"
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("k"))
    assert stop.value.value == "done" and seen == ["k"]
    assert tracer.calls["layer"] == 2


def _interrupted_sim():
    sim = Simulator()
    log = []

    def worker():
        try:
            yield sim.timeout(10.0)
        except Interrupt as exc:
            log.append((sim.now, exc.cause))
        yield sim.timeout(1.0)
        return sim.now

    proc = sim.process(worker(), name="svc-surrogate:test")

    def killer():
        yield sim.timeout(3.0)
        proc.interrupt("stop")

    sim.process(killer())
    sim.run()
    return log, proc.value, sim.events_processed


def test_installed_wrappers_leave_the_simulation_unchanged():
    plain = _interrupted_sim()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = _interrupted_sim()
    assert traced == plain == ([(3.0, "stop")], 4.0, plain[2])
    assert tracer.calls["kernel"] == plain[2]
    assert tracer.calls["cloud.backend"] == 3
    assert Simulator.step is not None and "step" in Simulator.__dict__
    assert not hasattr(Simulator.step, "__wrapped__")


# -- derived metrics -------------------------------------------------------------

def _snapshot(**overrides):
    snap = {"calls": {"kernel": 100, "mapreduce.map": 10, "fairshare": 4},
            "incl": {"kernel": 9.0, "mapreduce.map": 3.0, "fairshare": 1.0},
            "self": {"kernel": 5.0, "mapreduce.map": 3.0, "fairshare": 1.0},
            "counts": {"kernel.events_processed": 100,
                       "kernel.cancelled": 25,
                       "fairshare.rebalances": 8,
                       "fairshare.flow_visits": 40,
                       "mapreduce.map.repeats": 9,
                       "mapreduce.map.committed": 8,
                       "net.path_hits": 3, "net.path_misses": 1},
            "maxes": {"kernel.heap_max": 7}}
    snap.update(overrides)
    return snap


def test_layer_ratios_and_unattributed_time():
    m = spans.layer_metrics(_snapshot(), busy_s=10.0)
    assert m["kernel.cancelled_ratio"] == 25 / 125
    assert m["kernel.us_per_event"] == pytest.approx(9.0 / 100 * 1e6)
    assert m["fairshare.visits_per_rebalance"] == 5.0
    assert m["mapreduce.map.repeat_ratio"] == 0.9
    assert m["mapreduce.map.wasted_ratio"] == 0.2
    assert m["net.path_hit_ratio"] == 0.75
    assert m["trace.unattributed_s"] == pytest.approx(1.0)
    assert m["kernel.heap_max"] == 7
    # Layers that did not run report zero, not a division error.
    assert m["cloud.rejected_ratio"] == m["mapreduce.combine.ratio"] == 0.0


def test_overhead_and_merge():
    assert spans.overhead(12.0, 10.0) == pytest.approx(0.2)
    merged = spans.merge([_snapshot(), _snapshot(maxes={"kernel.heap_max":
                                                          3})])
    assert merged["calls"]["kernel"] == 200
    assert merged["self"]["kernel"] == 10.0
    assert merged["maxes"]["kernel.heap_max"] == 7
    table = spans.self_time_table(merged, busy_s=20.0)
    assert table[0] == ("kernel", 0.5)
    assert table[-1] == ("(unattributed)", pytest.approx(0.1))


# -- host-speed probe ---------------------------------------------------------------

def test_speed_probe_charges_each_stretch_at_its_own_speed(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(hostspeed, "probe_loop", lambda: clock.advance(0.001))
    probe = hostspeed.SpeedProbe(clock=clock)
    probe._probe()                      # the probe taken on entry
    clock.advance(0.05)
    probe._tick(None, None)             # 50 ms at 1 ms per probe
    monkeypatch.setattr(hostspeed, "probe_loop", lambda: clock.advance(0.002))
    clock.advance(0.05)
    probe._tick(None, None)             # 50 ms with the host at half speed
    assert probe.units == pytest.approx(50.0 + 25.0)
    assert probe.spent_s == pytest.approx(0.004)
    assert probe.samples == pytest.approx([0.001, 0.001, 0.002])


def test_speed_probe_samples_a_busy_body_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe(period_s=0.01) as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(probe.samples) > 5
    expected = 0.3 / statistics.median(probe.samples)
    assert 0.5 * expected < probe.units < 2.0 * expected


# -- failure counting --------------------------------------------------------------

def _outcome(digest, attempted=3, failed=0):
    return workloads.Outcome(work=1, sim_digest=digest,
                             attempted=attempted, failed=failed)


def test_tally_counts_checks_and_digest_identity():
    assert run.tally([_outcome("a"), _outcome("a")],
                     lambda d: True) == (8, 0)
    assert run.tally([_outcome("a", failed=2), _outcome("b")],
                     lambda d: True) == (8, 3)
    assert run.tally([_outcome("a")], lambda d: False) == (4, 1)


def test_recorded_digest_store(tmp_path):
    store = tmp_path / "state" / "digests.json"
    assert run.check_recorded_digest(store, "w:1:src", "abc")
    assert run.check_recorded_digest(store, "w:1:src", "abc")
    assert not run.check_recorded_digest(store, "w:1:src", "xyz")
    assert run.check_recorded_digest(store, "w:2:src", "xyz")


# -- the workloads reproduce the program's own runs ------------------------------

def test_migration_load_reproduces_migrate_cluster_under():
    expected = migrate_cluster_under("wordcount", 1024 * C.MiB, seed=0)
    workload = workloads.MigrationLoad()
    state = workload.setup(0)
    result = workload.run(state)
    got = result["migration"]
    assert [(r.vm, r.migration_time_s, r.downtime_s) for r in got.records] \
        == [(r.vm, r.migration_time_s, r.downtime_s)
            for r in expected.records]
    outcome = workload.check(state, result)
    assert outcome.failed == 0 and outcome.work == len(result["reports"])


def test_service_burst_reproduces_the_burst_burn_universe():
    from repro.cloud import BurstTraffic
    from repro.experiments import service

    sizes = service._scenario_sizes(quick=False)
    burst = sizes["burst"]
    expected = service._run_scenario(
        "burst-burn", 0, service.calibrate_cost_model(0, quick=False),
        sizes, burst["rate"],
        lambda tenants, rng: BurstTraffic(
            "burst", tenants, rng, base_rate_per_s=burst["rate"],
            burst_factor=burst["factor"], burst_every_s=burst["every"],
            burst_duration_s=burst["duration"]),
        burst["horizon"], autoscale=True, slo_mode="burnrate")
    workload = workloads.ServiceBurst()
    state = workload.setup(0)
    report = workload.run(state)
    assert report.digest() == expected.digest()
    assert report.submitted == 277211
    assert workload.check(state, report).failed == 0


def test_ladder_500_reproduces_the_committed_rung():
    workload = workloads.ScaleLadder()
    state = workload.setup(0)
    result = workload.run(state)
    assert workload.sim_elapsed(result) == [305.64435272242355,
                                            469.432911736351]
    assert state["platform"].datacenter.fss.flow_visits == 3374456
    assert workload.check(state, result).failed == 0


def test_predictions_cover_the_per_layer_catalogue():
    catalogue = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {spec["name"] for spec in catalogue["per_layer"]}
    predicted = {name for _moves, _workloads, names
                 in predictions.LAYERS.values() for name in names}
    assert per_layer - predicted == {"trace.unattributed_s",
                                     "trace.overhead"}
    assert predicted <= per_layer
    for _moves, names, _metrics in predictions.LAYERS.values():
        assert set(names) <= set(workloads.WORKLOADS)
