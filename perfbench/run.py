"""The repository's benchmark: four seeded simulator workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload ladder_200 --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` runs one untimed warm-up iteration, then iterations of
the same seed, each set up afresh, until ``--seconds`` of measured time
have passed (at least ``MIN_ITERATIONS``), and reports the end-to-end
metrics as medians over them.  Host time is reported in kiloprobes
(``hostspeed.py``): seconds with the shared host's drifting speed
divided out.  The raw seconds, printed beside them, are too noisy to
compare run to run.  ``setup_s``, the import time plus the median
set-up, must read in seconds: it is their kiloprobes at the probe's
reference speed.
``--trace 1`` runs a warm-up, one untraced and one traced iteration and
reports the per-layer metrics of the traced one (see ``spans.py``) with
the tracing overhead, from their CPU kiloprobes.

Every iteration's outputs are checked (``workloads.py``) and its
``sim_digest`` must equal the digest of every other run of the same
seed on the same program source, recorded under ``.perfbench/``.  The
last line of standard output is the result as one JSON object; the
metric catalogue and units come from ``BENCHMARK.json``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import predictions  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fewest measured iterations of an untraced run, whatever ``--seconds``.
MIN_ITERATIONS = 3
#: Self-time rows the traced run prints.
TOP_LAYERS = 8


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    """CPU of this process plus every reaped child (fabric workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # the lifetime peak is reported instead


def peak_rss_mb() -> float:
    """Peak RSS since :func:`reset_peak_rss`, in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload, seed: int):
    """``(state, seconds, kiloprobes)`` of one set-up, after collecting
    the garbage an earlier universe left, so no set-up pays for
    another's."""
    gc.collect()
    with hostspeed.SpeedProbe(hostspeed.SHORT_PERIOD_S) as probe:
        t0 = time.perf_counter()
        state = workload.setup(seed)
        seconds = time.perf_counter() - t0
    return state, seconds, probe.units / 1000.0


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts for a
    sharded run, so no process of the run outlives it."""
    from multiprocessing import resource_tracker

    gc.collect()  # finalize queues whose semaphores the helper tracks
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def measure(workload, state, traced: bool):
    """One measured iteration: ``(result, wall_s, cpu_s, peak_rss_mb,
    probe)``, where ``probe`` is the :class:`hostspeed.SpeedProbe` that
    sampled the host's speed while it ran."""
    gc.collect()
    reset_peak_rss()
    with hostspeed.SpeedProbe() as probe:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        result = workload.run(state, traced)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    return result, wall, cpu, peak_rss_mb(), probe


# -- run manifest -------------------------------------------------------------

def _git(*args: str):
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30,
                             check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def manifest(args, jobs: int) -> dict:
    import numpy

    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"git_rev": rev, "git_dirty": None if status is None
            else bool(status), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu_count": os.cpu_count(),
            "jobs": jobs, "seed": args.seed,
            "command": [sys.executable, *sys.argv]}


# -- sim_digest identity across runs --------------------------------------------

def source_digest() -> str:
    """Digest of the program and benchmark sources, so recorded digests
    expire with either."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_recorded_digest(store: Path, key: str, digest: str) -> bool:
    """True when ``digest`` matches the one recorded under ``key`` in the
    JSON file ``store``; the first digest seen for a key is recorded."""
    recorded = json.loads(store.read_text()) if store.exists() else {}
    if key in recorded:
        return recorded[key] == digest
    recorded[key] = digest
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, store)
    return True


def tally(outcomes, recorded_ok) -> tuple[int, int]:
    """``(attempted, failed)`` over every iteration's checks, plus one
    identity check per iteration: its ``sim_digest`` must equal the
    first iteration's and pass ``recorded_ok`` (the cross-run record)."""
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    first = outcomes[0].sim_digest
    for outcome in outcomes:
        attempted += 1
        failed += not (outcome.sim_digest == first
                       and recorded_ok(outcome.sim_digest))
    return attempted, failed


# -- the two run modes -----------------------------------------------------------

def probe_rate(outcome, wall: float, probe) -> float:
    """Kiloprobes per second of an iteration: host seconds times this
    are its cost with the host's momentary speed divided out (see
    ``hostspeed.py``).  A sharded workload's rate is probed in its
    workers, where the work runs."""
    return outcome.probe_rate or probe.units / wall / 1000.0


def iteration(workload, seed: int):
    """Set up, run and check one untraced iteration: ``(outcome, setup,
    wall_s, cpu_s, peak_rss_mb, probe)``, ``setup`` as from
    :func:`timed_setup` without the state."""
    state, *setup = timed_setup(workload, seed)
    result, wall, cpu, peak, probe = measure(workload, state, False)
    outcome = workload.check(state, result)
    return (outcome, setup, wall, cpu, max(peak, outcome.worker_rss_mb),
            probe)


def untraced_run(workload, args, imports: tuple[float, float]):
    # The warm-up pays for first-use costs (lazy imports, caches); its
    # outputs are checked, its times are not reported.
    outcomes = [iteration(workload, args.seed)[0]]
    setup_times, walls, cpus, peaks, units = [], [], [], [], []
    cpu_units, probe_s = [], []
    while sum(walls) < args.seconds or len(walls) < MIN_ITERATIONS:
        outcome, setup, wall, cpu, peak, probe = iteration(workload,
                                                           args.seed)
        outcomes.append(outcome)
        setup_times.append(setup)
        walls.append(wall)
        cpus.append(cpu)
        peaks.append(peak)
        rate = probe_rate(outcome, wall, probe)
        units.append(wall * rate)
        cpu_units.append(cpu * rate)
        probe_s.append(statistics.median(probe.samples))
    work = outcomes[-1].work
    metrics = {
        "wall_kprobe": statistics.median(units),
        "cpu_kprobe": statistics.median(cpu_units),
        # Set-up must read in seconds: its kiloprobes at reference speed.
        "setup_s": hostspeed.reference_seconds(
            imports[1] + statistics.median(kp for _, kp in setup_times)),
        "peak_rss_mb": statistics.median(peaks),
        "work_per_kprobe": statistics.median(work / u for u in units),
    }
    notes = [f"iterations {len(walls)} after a warm-up, "
             f"work {work:g} {workload.unit} per iteration",
             "iteration wall_s " + " ".join(f"{w:.3f}" for w in walls),
             "iteration wall_kprobe " + " ".join(f"{u:.3f}" for u in units),
             "iteration peak_rss_mb " + " ".join(f"{m:.1f}" for m in peaks),
             f"median wall_s {statistics.median(walls):.3f}, cpu_s "
             f"{statistics.median(cpus):.3f}, work_per_s "
             f"{statistics.median(work / w for w in walls):.3f}; probe "
             f"{1e6 * statistics.median(probe_s):.1f} us",
             f"set-up: import {imports[0]:.3f} s / {imports[1]:.3f} kprobe"
             f" + median {statistics.median(s for s, _ in setup_times):.3f}"
             f" s / {statistics.median(kp for _, kp in setup_times):.3f} "
             f"kprobe"]
    return metrics, outcomes, notes


def traced_run(workload, args):
    import workloads

    warm_up = iteration(workload, args.seed)[0]
    untraced, _, wall_untraced, cpu, _, probe = iteration(workload,
                                                          args.seed)
    # CPU, not wall: a sharded run's wall also moves with how its items
    # happened to shard, its workers' CPU only with the work they did.
    kp_untraced = cpu * probe_rate(untraced, wall_untraced, probe)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        state, *_ = timed_setup(workload, args.seed)
        corpus_setup_s = tracer.incl.get("datasets.corpus", 0.0)
        tracer.reset()
        result, wall, cpu, _, probe = measure(workload, state, True)
        snap = tracer.snapshot()
    traced = workload.check(state, result)
    kp_traced = cpu * probe_rate(traced, wall, probe)
    snap = spans.merge([snap] + traced.worker_snapshots)
    # A sharded run's spans live in its workers: compare them with the
    # workers' busy time, not with the parent's wall.
    busy_s = traced.fleet.get("parallel.item_s", wall)
    metrics = spans.layer_metrics(snap, busy_s)
    metrics["datasets.corpus.s"] += corpus_setup_s
    for name in workloads.FLEET_METRICS:
        metrics[name] = traced.fleet.get(name, 0.0)
    metrics["trace.overhead"] = spans.overhead(kp_traced, kp_untraced)
    notes = report_layers(workload.name, snap, busy_s, metrics)
    notes.append(f"wall untraced {wall_untraced:.3f} s, traced {wall:.3f} s;"
                 f" cpu untraced {kp_untraced:.3f} kprobe, traced "
                 f"{kp_traced:.3f} kprobe")
    return metrics, [warm_up, untraced, traced], notes


def report_layers(name: str, snap: dict, busy_s: float,
                  metrics: dict) -> list[str]:
    lines = [f"top layers by self time (share of {busy_s:.3f} s):"]
    table = spans.self_time_table(snap, busy_s)
    for layer, share in table[:-1][:TOP_LAYERS] + table[-1:]:
        lines.append(f"  {layer:<22} {100 * share:6.2f}%")
    lines.append("predicted to move here: "
                 + ", ".join(predictions.predicted_layers(name)))
    for claim, holds in predictions.REGIMES.get(name, []):
        verdict = "holds" if holds(metrics) else "DOES NOT HOLD"
        lines.append(f"regime: {claim}: {verdict}")
    return lines


# -- entry point --------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    with hostspeed.SpeedProbe(hostspeed.SHORT_PERIOD_S) as probe:
        t0 = time.perf_counter()
        try:
            import repro
            import workloads
        except ImportError as exc:
            print(f"perfbench: cannot import the program from "
                  f"{ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        probed_s = time.perf_counter() - t0
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported the program from {repro.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    # The standard-library imports before the probe are charged at the
    # rate it measured over the program's imports.
    imports = (import_s, import_s * probe.units / probed_s / 1000.0)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()

    if args.trace:
        metrics, outcomes, notes = traced_run(workload, args)
        specs = catalogue["per_layer"]
    else:
        metrics, outcomes, notes = untraced_run(workload, args, imports)
        specs = catalogue["end_to_end"]
    if set(metrics) != {spec["name"] for spec in specs}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json")

    key = f"{args.workload}:{args.seed}:{source_digest()}"
    attempted, failed = tally(outcomes, lambda digest: check_recorded_digest(
        ROOT / ".perfbench" / "digests.json", key, digest))

    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: sim_digest {outcomes[0].sim_digest}")
    for line in notes:
        print(line)
    for spec in specs:
        print(f"  {spec['name']:<34} {metrics[spec['name']]:>16.6f} "
              f"{spec['unit']}")
    print(f"  {'failed_ratio':<34} {failed / attempted:>16.6f} "
          f"({failed} of {attempted} checks)")
    print("manifest " + json.dumps(manifest(
        args, getattr(workload, "jobs", 1)), sort_keys=True))
    stop_resource_tracker()
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {spec["name"]: {"value": metrics[spec["name"]],
                                   "unit": spec["unit"]}
                    for spec in specs}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
