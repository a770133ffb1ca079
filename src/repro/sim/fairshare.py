"""Max-min fair fluid-flow sharing of capacitated resources.

This module is the single contention mechanism of the simulator.  A
:class:`SharedResource` is anything with a capacity in *units per second*:
a physical NIC (bytes/s), a software bridge, a disk, an NFS server, a
physical CPU package (core-seconds/s == cores), or a VM's VCPU allocation.

A :class:`FluidFlow` is a demand of a given *size* that traverses an ordered
*path* of resources — e.g. a network transfer crosses ``(src VM NIC, src
host NIC, dst host NIC, dst VM NIC)``, while a burst of CPU work crosses
``(vm.vcpu, host.cpu)``.  At any instant every active flow receives a rate;
the rates are the *max-min fair allocation* with optional per-flow caps,
computed by progressive filling:

1. all unfrozen flows share one common rate *level* that rises from 0;
2. the level stops at the first constraint — a flow cap, or a resource whose
   capacity is exhausted by its frozen load plus its unfrozen flows at the
   level;
3. the constrained flows freeze at that level; repeat with the rest.

Whenever the flow set changes, all flows' progress is advanced to *now*,
rates are recomputed, and the next completion is scheduled.  The result is
an event-driven fluid simulation whose cost is independent of transfer sizes.

Incremental engine
------------------
Max-min fairness decomposes over the *connected components* of the
resource/flow graph (two resources are connected when a live flow crosses
both): the fair rates inside one component are a function of that component
alone.  A flow-set change therefore only recomputes the component it
touches.  Components are maintained incrementally as a union-find-style
partition (:class:`_Component`): a new flow eagerly unions the components
its path bridges (small-to-large), while splits are detected lazily — a
union that lost half its flows since its peak is re-derived from the live
adjacency on first touch.  A union may transiently cover several true
components; the fill over a union decomposes exactly into per-component
fills, so scoping never changes a computed rate.  Disjoint components keep
their rates — recomputing them would reproduce the same values bit for
bit, which is the engine's determinism invariant (see ``tests/sim/
test_fairshare_incremental.py`` and DESIGN.md §Performance).

Two things deliberately stay global so that simulated timestamps are
*bit-identical* to a full recomputation:

* progress advancement (``_advance``) walks every active flow whenever
  simulated time has passed — partial advancement would change the
  floating-point stepping of ``remaining`` and with it completion
  timestamps.  Same-timestamp cascades (the common case) cost O(1).
* the completion horizon of an *untouched* flow is a pure function of its
  unchanged ``remaining``/``rate``, so cached horizons in a lazy-deletion
  heap are exact; the heap replaces the old all-flows min scan.

Resources keep a time-integrated load *fraction* so monitors can report
utilization; capacity changes do not rescale already-integrated history.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Iterable, Optional, Sequence

from repro.errors import ResourceError, SimulationError
from repro.sim.kernel import Event, Simulator

try:  # vectorized _advance; the kernel still works without NumPy
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Flow count from which the vectorized advance pays for its setup.
_VEC_MIN_FLOWS = 64

_EPS = 1e-12
#: Smallest scheduling horizon (seconds); see FairShareSystem._advance.
_MIN_DT = 1e-9
#: A multi-rack union smaller than this is cheaper to fill whole than to
#: split and re-union on the next cross-rack (NFS) flow.
_RACK_MIN_FLOWS = 16


class SharedResource:
    """A capacity shared max-min fairly among the flows crossing it."""

    __slots__ = ("name", "capacity", "nominal", "rack", "_flows",
                 "current_load", "_busy_integral", "_moved_integral",
                 "_last_change", "_comp")

    def __init__(self, name: str, capacity: float):
        if capacity <= 0:
            raise ResourceError(f"resource {name!r} needs capacity > 0, "
                                f"got {capacity}")
        self.name = name
        self.capacity = float(capacity)
        #: Locality tag (rack name) set by the topology layer; ``None``
        #: for untagged or inherently cross-rack resources (aggregation
        #: links).  Purely an engine hint — see the per-rack split in
        #: :meth:`FairShareSystem._rack_split`; a stale tag can cost
        #: sharding opportunity but never correctness.
        self.rack: Optional[str] = None
        #: Design capacity.  ``set_capacity`` (fault injection) moves only
        #: ``capacity``; rate caps derived from device speed must use the
        #: nominal value so a transient degradation is never frozen into a
        #: flow's lifetime cap.
        self.nominal = float(capacity)
        self._flows: set["FluidFlow"] = set()
        #: Union-find component this resource currently belongs to (None
        #: while no live flow has ever crossed it, or after a lazy split
        #: found it isolated).
        self._comp: Optional["_Component"] = None
        self.current_load = 0.0
        self._busy_integral = 0.0
        self._moved_integral = 0.0
        self._last_change = 0.0

    @property
    def utilization(self) -> float:
        """Instantaneous load fraction in [0, 1]."""
        return min(1.0, self.current_load / self.capacity)

    @property
    def n_flows(self) -> int:
        return len(self._flows)

    def _accrue(self, now: float) -> None:
        """Fold the elapsed load *fraction* into the busy integral.

        Integrating the fraction (not the absolute load) makes history
        immune to later capacity changes: a chaos ``disk.slow`` fault must
        not retroactively rescale utilization that was accumulated at the
        old capacity.
        """
        dt = now - self._last_change
        self._busy_integral += self.current_load / self.capacity * dt
        self._moved_integral += self.current_load * dt
        self._last_change = now

    def _set_load(self, load: float, now: float) -> None:
        # Accrue only when the value actually changes: busy_time then
        # depends solely on the load *trajectory*, not on how often the
        # engine happened to re-assert an unchanged load (which differs
        # between incremental and whole-graph rebalancing).
        if load != self.current_load:
            self._accrue(now)
            self.current_load = load

    def busy_time(self, now: float) -> float:
        """Integral of the load fraction up to ``now`` (resource-seconds)."""
        return (self._busy_integral
                + self.current_load / self.capacity
                * (now - self._last_change))

    def moved_through(self, now: float) -> float:
        """Units carried through this resource up to ``now`` — the
        interface byte counter a real NIC/device exposes.  Unlike
        :meth:`busy_time` this is in absolute units, so it *is* sensitive
        to capacity changes: the link-health detector compares its rate
        of change against the nominal capacity."""
        return (self._moved_integral
                + self.current_load * (now - self._last_change))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<SharedResource {self.name} cap={self.capacity:g} "
                f"load={self.current_load:g}>")


class FluidFlow:
    """A demand of ``size`` units crossing a path of shared resources."""

    __slots__ = ("name", "path", "size", "remaining", "rate", "cap",
                 "done", "start_time", "end_time", "meta", "_moved",
                 "_seq", "_horizon", "_upath", "_comp", "_rack")

    def __init__(self, name: str, path: Sequence[SharedResource], size: float,
                 cap: Optional[float], done: Event, start_time: float,
                 meta: Any = None):
        self.name = name
        self.path = tuple(path)
        self.size = float(size)
        self.remaining = float(size)
        self.rate = 0.0
        self.cap = float(cap) if cap is not None else math.inf
        self.done = done
        self.start_time = start_time
        self.end_time: Optional[float] = None
        self.meta = meta
        self._moved = 0.0
        #: Monotone id: deterministic tie-break in the horizon heap.
        self._seq = 0
        #: Cached completion horizon (remaining / rate) as of the flow's
        #: last rate change or the last global advance; ``inf`` when the
        #: flow cannot complete on its own.
        self._horizon = math.inf
        #: Union-find component while the flow is live.
        self._comp: Optional["_Component"] = None
        #: Path with duplicates removed (unfrozen-counter bookkeeping);
        #: load accumulation still charges duplicated path entries twice.
        path = self.path
        if len(path) < 2:
            self._upath = path
        elif len(path) == 2:  # the hot compute/disk case
            self._upath = path if path[0] is not path[1] else path[:1]
        else:
            self._upath = tuple(dict.fromkeys(path))
        #: Rack key, frozen at open time: the common rack tag of every
        #: resource on the path, or ``None`` when the path is cross-rack
        #: or touches an untagged resource.  Consumed by the per-rack
        #: component split.
        rack = self._upath[0].rack
        if rack is not None:
            for res in self._upath[1:]:
                if res.rack != rack:
                    rack = None
                    break
        self._rack = rack

    @property
    def transferred(self) -> float:
        """Units moved so far (works for open-ended flows too)."""
        return self._moved

    @property
    def active(self) -> bool:
        return self.end_time is None

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<FluidFlow {self.name} remaining={self.remaining:g} "
                f"rate={self.rate:g}>")


class _Component:
    """A never-split union of live connected components.

    Unions happen eagerly when a new flow bridges components; splits are
    detected lazily — when a rebalance touches a component whose live flow
    count has halved since its peak, the partition is re-derived from the
    live adjacency (amortized O(1) per flow removal).  A component may
    therefore transiently cover *several* true connected components; the
    progressive fill over such a union decomposes exactly into the
    per-component fills (``global_rebalance`` is the degenerate case of
    one all-covering union), so the lazy split cannot change any computed
    rate, only how much work a rebalance does.
    """

    __slots__ = ("flows", "resources", "peak", "racks", "checked",
                 "nlive", "capped")

    def __init__(self) -> None:
        self.flows: set[FluidFlow] = set()
        self.resources: set[SharedResource] = set()
        #: Largest live flow count seen since the last (re)derivation;
        #: the lazy-split trigger compares against it.
        self.peak = 0
        #: Live flow count per rack key (``None`` = cross-rack/untagged).
        #: Racks not glued together by a live ``None`` flow can split off
        #: without a BFS — see :meth:`FairShareSystem._rack_split`.
        self.racks: dict[Optional[str], int] = {}
        #: Flow count at the last *failed* rack-split attempt (0 = never
        #: attempted).  Re-attempts wait until the count drifts ≥25% from
        #: it, so an unsplittable union doesn't pay the O(incidence)
        #: attempt on every rebalance.
        self.checked = 0
        #: Live flow count per resource (``flow._upath`` incidence),
        #: maintained at attach/detach so a progressive fill seeds its
        #: unfrozen counters with one dict copy instead of re-scanning
        #: every scoped flow's path — see :func:`_maxmin_rates_scoped`.
        self.nlive: dict[SharedResource, int] = {}
        #: Live flows with a finite rate cap; the fill's cap heap is built
        #: from this instead of inspecting every flow.
        self.capped: set[FluidFlow] = set()


class FairShareSystem:
    """Manages all fluid flows of one simulation and their fair rates.

    ``metrics`` (optional) is a :class:`~repro.telemetry.metrics
    .MetricsRegistry`; when given, engine cost counters (rebalances, flow
    visits, timer cancellations, component sizes) are mirrored into it so
    the tuner and traces can see what the fair-share engine is doing.

    ``global_rebalance=True`` forces every rebalance to recompute the whole
    flow graph (the pre-incremental behaviour).  It exists as a reference
    mode for the determinism tests: simulated results must be bit-identical
    with it on or off.

    ``rack_sharding=False`` disables the per-rack component split (the
    eager, BFS-free decomposition of a multi-rack union once its last
    cross-rack flow drains).  Another reference mode: rates and
    timestamps must be bit-identical with it on or off, only
    ``flow_visits`` moves.
    """

    def __init__(self, sim: Simulator, metrics=None,
                 global_rebalance: bool = False,
                 rack_sharding: bool = True):
        self.sim = sim
        self._flows: set[FluidFlow] = set()
        self._last_update = 0.0
        self._timer_version = 0
        self._timer = None
        self.completed_count = 0
        self.global_rebalance = global_rebalance
        self.rack_sharding = rack_sharding
        #: Lazy-deletion heap of (horizon, flow seq, flow); an entry is
        #: valid while the flow is active and its cached horizon matches.
        self._horizon_heap: list = []
        self._flow_seq = 0
        # -- engine statistics (perf harness + telemetry) ----------------
        self.rebalance_count = 0
        #: Flow inspections performed by the scoped progressive fills.
        self.flow_visits = 0
        #: Conservative model of the flow inspections the pre-incremental
        #: engine would have performed: that engine re-counted every
        #: resource's unfrozen flows and re-scanned all flow caps in every
        #: filling round, i.e. at least ``rounds * (incidence + flows)``
        #: visits per rebalance.  Scoped rounds lower-bound global rounds,
        #: so the ratio ``flow_visits_global / flow_visits`` understates
        #: the true saving.
        self.flow_visits_global = 0
        #: Sum of ``len(flow._upath)`` over active flows, maintained O(1).
        self._incidence = 0
        self.timer_cancellations = 0
        self.max_component_flows = 0
        #: Multi-rack unions decomposed along rack lines (no BFS); the
        #: conflict-fallback exact splits are *not* counted here.
        self.rack_splits = 0
        #: Optional flow-completion sink (anything with ``append``); every
        #: flow that leaves the system — completed, closed, interrupted —
        #: is handed over exactly once, after its rate/end_time are final.
        #: The observatory's attribution engine installs a
        #: :class:`repro.observatory.attribution.FlowLog` here via the
        #: telemetry facade; the engine itself stays telemetry-agnostic.
        self.flow_log = None
        self._metrics = metrics
        if metrics is not None:
            self._m_rebalances = metrics.counter(
                "fairshare.rebalances", "component-scoped rate recomputations")
            self._m_visits = metrics.counter(
                "fairshare.flow.visits", "flow visits in progressive fills")
            self._m_cancel = metrics.counter(
                "fairshare.timer.cancellations",
                "superseded completion timers withdrawn from the kernel heap")
            self._m_component = metrics.histogram(
                "fairshare.component.flows",
                "flows per rebalanced connected component",
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                         256.0, 512.0, 1024.0))

    # -- public API ------------------------------------------------------
    def open(self, path: Sequence[SharedResource], size: float,
             cap: Optional[float] = None, name: str = "flow",
             meta: Any = None) -> FluidFlow:
        """Start a flow; ``flow.done`` triggers with the flow on completion.

        ``size`` may be ``math.inf`` for an open-ended background load that
        is ended with :meth:`close`.
        """
        if size < 0:
            raise ResourceError(f"flow size must be >= 0, got {size}")
        if not path:
            raise ResourceError("flow path must contain at least one resource")
        if cap is not None and cap <= 0:
            raise ResourceError(f"flow cap must be > 0, got {cap}")
        flow = FluidFlow(name, path, size, cap, self.sim.event(),
                         self.sim.now, meta=meta)
        self._flow_seq += 1
        flow._seq = self._flow_seq
        completed = self._advance()
        if size <= _EPS and math.isfinite(size):
            # Zero-size fast path: the flow set is unchanged, so no rates
            # move — succeed the event and skip the rebalance entirely
            # (unless the advance itself completed flows).
            flow.remaining = 0.0
            flow.end_time = self.sim.now
            flow.done.succeed(flow)
            if completed:
                self._rebalance([r for f in completed for r in f.path])
            return flow
        self._flows.add(flow)
        for res in flow.path:
            res._flows.add(flow)
        self._incidence += len(flow._upath)
        self._attach_component(flow)
        seeds = list(flow.path)
        for f in completed:
            seeds.extend(f.path)
        self._rebalance(seeds)
        return flow

    def close(self, flow: FluidFlow) -> float:
        """End an open-ended (or any active) flow early.

        Returns the amount transferred.  The flow's ``done`` event triggers
        with the flow.
        """
        if flow not in self._flows:
            raise ResourceError(f"flow {flow.name!r} is not active")
        completed = self._advance()
        if flow in self._flows:  # else the advance just completed it
            self._detach(flow)
            flow.done.succeed(flow)
        seeds = list(flow.path)
        for f in completed:
            seeds.extend(f.path)
        self._rebalance(seeds)
        return flow.transferred

    def set_capacity(self, resource: SharedResource, capacity: float) -> None:
        """Change a resource's capacity mid-simulation (fault injection).

        All in-flight progress is advanced to *now* at the old rates first,
        then rates are recomputed under the new capacity — so a network
        degradation only affects bytes still to be moved.  The busy-time
        integral is flushed at the old capacity first, so utilization
        history is not rescaled.
        """
        if capacity <= 0:
            raise ResourceError(
                f"resource {resource.name!r} needs capacity > 0, "
                f"got {capacity}")
        completed = self._advance()
        resource._accrue(self.sim.now)
        resource.capacity = float(capacity)
        seeds = [resource]
        for f in completed:
            seeds.extend(f.path)
        self._rebalance(seeds)

    @property
    def active_flows(self) -> frozenset[FluidFlow]:
        return frozenset(self._flows)

    def flows_through(self, resource: SharedResource) -> frozenset[FluidFlow]:
        return frozenset(resource._flows)

    def component_of(self, *seeds) -> tuple[frozenset, frozenset]:
        """The live connected component reachable from resources/flows.

        Returns ``(flows, resources)``; diagnostic/teaching helper used by
        the tests and the perf harness.
        """
        resources: list[SharedResource] = []
        for seed in seeds:
            if isinstance(seed, SharedResource):
                resources.append(seed)
            else:
                resources.extend(seed.path)
        flows, res_seen = self._component(resources)
        return frozenset(flows), frozenset(res_seen)

    # -- internals ---------------------------------------------------------
    def _detach(self, flow: FluidFlow) -> None:
        if flow in self._flows:
            self._incidence -= len(flow._upath)
        comp = flow._comp
        if comp is not None:
            comp.flows.discard(flow)
            comp.capped.discard(flow)
            n = comp.racks.get(flow._rack, 0) - 1
            if n > 0:
                comp.racks[flow._rack] = n
            else:
                comp.racks.pop(flow._rack, None)
                # A rack key vanishing changes shearability outright (the
                # canonical case: the last cross-rack flow closes and the
                # union falls apart along rack lines) — re-arm the shear
                # gate instead of waiting for 25% composition drift.
                comp.checked = 0
            nlive = comp.nlive
            for res in flow._upath:
                n = nlive.get(res, 0) - 1
                if n > 0:
                    nlive[res] = n
                else:
                    nlive.pop(res, None)
            flow._comp = None
        self._flows.discard(flow)
        now = self.sim.now
        for res in flow.path:
            res._flows.discard(flow)
            if not res._flows:
                res._set_load(0.0, now)
        flow.rate = 0.0
        flow.end_time = now
        if self.flow_log is not None:
            self.flow_log.append(flow)

    def _advance(self) -> list[FluidFlow]:
        """Progress every active flow from the last update time to now.

        Returns the flows that completed (already detached, ``done``
        triggered) so the caller can fold their components into the
        rebalance scope.  Advancement is deliberately global: partial
        (per-component) advancement would change the floating-point
        stepping of ``remaining`` and therefore completion timestamps.
        When no simulated time has passed — the overwhelmingly common
        cascade case — this is O(1).
        """
        now = self.sim.now
        dt = now - self._last_update
        if dt < 0:  # pragma: no cover - defensive
            raise SimulationError("fair-share clock went backwards")
        finished: list[FluidFlow] = []
        if dt > 0:
            # Time moved, so every surviving horizon shifted; the fresh
            # horizons are computed in the same pass that steps progress
            # (what the old code spent on its every-event min scan, paid
            # here only when time advances).  Heap layout depends on entry
            # order, but pops follow the (horizon, seq) total order, so the
            # layout is not observable.
            if _np is not None and len(self._flows) >= _VEC_MIN_FLOWS:
                entries = self._advance_vec(dt, finished)
            else:
                entries = self._advance_scalar(dt, finished)
            # ``self._flows`` iterates in id() order; release simultaneous
            # completions in creation order so no run depends on addresses.
            finished.sort(key=lambda f: f._seq)
            for flow in finished:
                self._detach(flow)
                self.completed_count += 1
                flow.done.succeed(flow)
            heapq.heapify(entries)
            self._horizon_heap = entries
        self._last_update = now
        return finished

    def _advance_scalar(self, dt: float,
                        finished: list[FluidFlow]) -> list:
        entries: list = []
        push = entries.append
        inf = math.inf
        for flow in self._flows:
            rate = flow.rate
            if rate > 0:
                flow._moved += rate * dt
                if math.isfinite(flow.remaining):
                    flow.remaining = max(0.0, flow.remaining - rate * dt)
                    # A flow is done when the residue is negligible
                    # relative to its size *or* would take less than a
                    # nanosecond to drain — the latter absorbs float
                    # subtraction residues that are above the size
                    # epsilon but below the clock's resolution.
                    if (flow.remaining <= _EPS * max(1.0, flow.size)
                            or flow.remaining <= rate * _MIN_DT):
                        flow.remaining = 0.0
                        flow._moved = flow.size
                        finished.append(flow)
                    elif rate > _EPS:
                        horizon = flow.remaining / rate
                        flow._horizon = horizon
                        push((horizon, flow._seq, flow))
                    else:
                        flow._horizon = inf
                else:
                    flow._horizon = inf
            else:
                flow._horizon = inf
        return entries

    def _advance_vec(self, dt: float, finished: list[FluidFlow]) -> list:
        """Vectorized :meth:`_advance_scalar`, bit-identical by design.

        Elementwise float64 multiply/subtract/divide/compare in NumPy are
        the same IEEE-754 operations CPython performs on scalars, so the
        stepped ``remaining``, the completion decisions and the new
        horizons are exactly the scalar path's values; iteration order
        (and with it the ``finished`` order and heap entry order) follows
        the same ``self._flows`` traversal.  Only the loop overhead is
        vectorized away — worthwhile from ~tens of concurrent flows,
        which is exactly the 1,000-VM regime where ``_advance`` is the
        kernel's hottest loop.
        """
        flows = list(self._flows)
        n = len(flows)
        rate = _np.fromiter((f.rate for f in flows), _np.float64, count=n)
        rem = _np.fromiter((f.remaining for f in flows), _np.float64,
                           count=n)
        size = _np.fromiter((f.size for f in flows), _np.float64, count=n)
        step = rate * dt
        active = rate > 0.0
        updated = active & _np.isfinite(rem)
        new_rem = _np.maximum(0.0, rem - step)
        done = updated & ((new_rem <= _EPS * _np.maximum(1.0, size))
                          | (new_rem <= rate * _MIN_DT))
        live = updated & ~done & (rate > _EPS)
        with _np.errstate(divide="ignore", invalid="ignore"):
            horizon = _np.where(live, new_rem / rate, math.inf)
        entries: list = []
        push = entries.append
        inf = math.inf
        # Write-back loop: plain Python, but all float arithmetic and all
        # branch decisions come from the arrays above.
        step_l = step.tolist()
        rem_l = new_rem.tolist()
        hor_l = horizon.tolist()
        active_l = active.tolist()
        updated_l = updated.tolist()
        done_l = done.tolist()
        live_l = live.tolist()
        for i, flow in enumerate(flows):
            if done_l[i]:
                flow._moved = flow.size
                flow.remaining = 0.0
                finished.append(flow)
            elif updated_l[i]:
                flow._moved += step_l[i]
                flow.remaining = rem_l[i]
                if live_l[i]:
                    flow._horizon = hor_l[i]
                    push((hor_l[i], flow._seq, flow))
                else:
                    flow._horizon = inf
            elif active_l[i]:  # infinite flow: progress, no horizon
                flow._moved += step_l[i]
                flow._horizon = inf
            else:
                flow._horizon = inf
        return entries

    def _attach_component(self, flow: FluidFlow) -> None:
        """Union the components the new flow's path bridges (small-to-large).

        Merging the smaller union into the larger bounds the total merge
        work at O(n log n) over a run; the split side of the partition is
        amortized by :meth:`_split_component`'s halving trigger.
        """
        comp: Optional[_Component] = None
        for res in flow._upath:
            other = res._comp
            if other is None or other is comp:
                continue
            if comp is None:
                comp = other
                continue
            if len(other.flows) > len(comp.flows):
                comp, other = other, comp
            for r in other.resources:
                r._comp = comp
            comp.resources.update(other.resources)
            for f in other.flows:
                f._comp = comp
            comp.flows.update(other.flows)
            racks = comp.racks
            for rk, n in other.racks.items():
                prev = racks.get(rk, 0)
                if prev == 0:
                    comp.checked = 0  # new rack key: shearability changed
                racks[rk] = prev + n
            # Components are resource-disjoint, so the incidence dicts
            # merge without collisions.
            comp.nlive.update(other.nlive)
            comp.capped.update(other.capped)
        if comp is None:
            comp = _Component()
        comp.flows.add(flow)
        prev = comp.racks.get(flow._rack, 0)
        comp.racks[flow._rack] = prev + 1
        if prev == 0:
            comp.checked = 0  # new rack key: shearability changed
        flow._comp = comp
        nlive = comp.nlive
        for res in flow._upath:
            if res._comp is not comp:
                res._comp = comp
                comp.resources.add(res)
            nlive[res] = nlive.get(res, 0) + 1
        if math.isfinite(flow.cap):
            comp.capped.add(flow)
        n = len(comp.flows)
        if n > comp.peak:
            comp.peak = n

    def _split_component(self, comp: _Component) -> None:
        """Re-derive true components from a shrunken union (lazy split).

        One breadth-first walk over the union's live adjacency, the same
        walk the pre-partition engine paid on *every* rebalance.  Isolated
        resources (no live flows left) drop out of the partition entirely.
        """
        for res in comp.resources:
            if res._comp is comp:
                res._comp = None
        pending = comp.flows
        for flow in pending:
            flow._comp = None
        while pending:
            part = _Component()
            first = pending.pop()
            first._comp = part
            part.flows.add(first)
            stack = [first]
            while stack:
                flow = stack.pop()
                for res in flow._upath:
                    if res._comp is part:
                        continue
                    res._comp = part
                    part.resources.add(res)
                    for nxt in res._flows:
                        if nxt._comp is not part:
                            nxt._comp = part
                            part.flows.add(nxt)
                            pending.discard(nxt)
                            stack.append(nxt)
            part.peak = len(part.flows)
            racks: dict[Optional[str], int] = {}
            nlive: dict[SharedResource, int] = {}
            capped = part.capped
            for f in part.flows:
                racks[f._rack] = racks.get(f._rack, 0) + 1
                for r in f._upath:
                    nlive[r] = nlive.get(r, 0) + 1
                if math.isfinite(f.cap):
                    capped.add(f)
            part.racks = racks
            part.nlive = nlive
            part.checked = 0

    def _rack_split(self, comp: _Component) -> None:
        """Shear unglued racks off a multi-rack union, without a BFS.

        Two flows are connected only through a shared resource, and a
        rack-pure flow only crosses resources of its own rack — so a rack
        whose resources are touched by *no* live cross-rack (``None``
        rack key) flow shares nothing with the rest of the union: its
        flows split into their own part.  Racks that a ``None`` flow does
        touch stay **glued** to the remaining blob (the NFS appliance's
        star and the aggregation uplink genuinely couple them), which is
        exactly the true connectivity quotient the engine's scoping
        contract allows — every part is a union of true components, so no
        computed rate can change, only how much work a fill does.

        Rack keys are frozen at flow-open time while resource tags can be
        retagged by VM migration, so a resource *can* be claimed by pure
        flows of two different racks.  A single O(incidence) pre-pass
        detects any such conflict and falls back to the exact BFS split —
        correctness never depends on tag hygiene, only the shortcut does.

        An attempt that finds nothing to shear records the union's size
        in ``comp.checked``; the caller's gate skips re-attempts until
        the composition drifts, bounding the cost of unsplittable blobs.
        """
        claim: dict[SharedResource, str] = {}
        blob_flows: list[FluidFlow] = []
        for flow in comp.flows:
            rk = flow._rack
            if rk is None:
                blob_flows.append(flow)
                continue
            for res in flow._upath:
                prev = claim.setdefault(res, rk)
                if prev != rk:
                    # Conflicting tags: fall back to the exact split, and
                    # gate the parts — re-attempting the shortcut would
                    # hit the same conflict until the composition drifts.
                    survivors = list(comp.flows)
                    self._split_component(comp)
                    for f in survivors:
                        part = f._comp
                        if part is not None and part.checked == 0:
                            part.checked = len(part.flows)
                    return
        glued: set[str] = set()
        for flow in blob_flows:
            for res in flow._upath:
                rk = claim.get(res)
                if rk is not None:
                    glued.add(rk)
        cells = [rk for rk in comp.racks
                 if rk is not None and rk not in glued]
        n_parts = len(cells) + (1 if blob_flows else 0)
        if n_parts < 2:
            comp.checked = len(comp.flows)  # nothing shearable right now
            return
        self.rack_splits += 1
        for res in comp.resources:
            if res._comp is comp:
                res._comp = None  # stale entries drop out; live ones are
                # re-homed below
        parts: dict[str, _Component] = {rk: _Component() for rk in cells}
        blob = _Component() if blob_flows else None
        for flow in comp.flows:
            rk = flow._rack
            part = parts.get(rk) if rk is not None else None
            if part is None:
                part = blob  # cross-rack flows and glued racks
            part.flows.add(flow)
            flow._comp = part
            part.racks[rk] = part.racks.get(rk, 0) + 1
            nlive = part.nlive
            for res in flow._upath:
                nlive[res] = nlive.get(res, 0) + 1
            if math.isfinite(flow.cap):
                part.capped.add(flow)
        for res, rk in claim.items():
            part = parts.get(rk, blob)
            if res._comp is not part:
                res._comp = part
                part.resources.add(res)
        if blob is not None:
            for flow in blob_flows:
                for res in flow._upath:
                    if res._comp is None:
                        res._comp = blob
                        blob.resources.add(res)
            blob.peak = len(blob.flows)
            # The blob was just derived as unshearable-minus-cells;
            # gate its next attempt on composition drift.
            blob.checked = len(blob.flows)
        for part in parts.values():
            part.peak = len(part.flows)

    def _scope(self, seed_resources: Iterable[SharedResource]
               ) -> tuple[set[FluidFlow], set[SharedResource],
                          dict[SharedResource, int], set[FluidFlow]]:
        """Resolve a rebalance scope from the component partition.

        Touched unions that lost half their flows since their peak are
        split exactly first; touched unions that span several racks with
        no live cross-rack flow are decomposed along rack lines (the
        cheap split).  Then the scope is the union of the surviving
        components' flows, resources, per-resource live-flow counts and
        capped flows (plus any seed resources outside the partition,
        which carry no live flows).  The single-component case — the
        overwhelmingly common one — aliases the component's own sets
        instead of copying; callers only read them.
        """
        seeds = list(seed_resources)
        comps: list[_Component] = []
        # The last pass only re-derives: a split on the final splitting
        # pass must never leak its (drained) input component into the
        # scope, so the loop always ends on a fresh derivation.
        for _attempt in (0, 1, 2):
            comps = []
            seen: set[int] = set()
            bare: list[SharedResource] = []
            for res in seeds:
                comp = res._comp
                if comp is None:
                    bare.append(res)
                elif id(comp) not in seen:
                    seen.add(id(comp))
                    comps.append(comp)
            if _attempt == 2:
                break
            stale = [c for c in comps if 2 * len(c.flows) < c.peak]
            rackable = ([c for c in comps
                         if len(c.racks) > 1
                         and len(c.flows) >= _RACK_MIN_FLOWS
                         and 2 * len(c.flows) >= c.peak
                         and 4 * abs(len(c.flows) - c.checked)
                         >= c.checked]
                        if self.rack_sharding else [])
            if not stale and not rackable:
                break
            for comp in stale:
                self._split_component(comp)
            for comp in rackable:
                self._rack_split(comp)
        if len(comps) == 1 and not bare:
            comp = comps[0]
            return comp.flows, comp.resources, comp.nlive, comp.capped
        flows: set[FluidFlow] = set()
        resources: set[SharedResource] = set(bare)
        nlive: dict[SharedResource, int] = {}
        capped: set[FluidFlow] = set()
        for comp in comps:
            flows |= comp.flows
            resources |= comp.resources
            nlive.update(comp.nlive)
            capped |= comp.capped
        return flows, resources, nlive, capped

    def _component(self, seed_resources: Iterable[SharedResource]
                   ) -> tuple[set[FluidFlow], set[SharedResource]]:
        """Breadth-first walk of the live flow/resource adjacency."""
        res_seen: set[SharedResource] = set()
        flows: set[FluidFlow] = set()
        stack = list(seed_resources)
        while stack:
            res = stack.pop()
            if res in res_seen:
                continue
            res_seen.add(res)
            for flow in res._flows:
                if flow not in flows:
                    flows.add(flow)
                    for r in flow.path:
                        if r not in res_seen:
                            stack.append(r)
        return flows, res_seen

    def _rebalance(self, seed_resources: Iterable[SharedResource]) -> None:
        """Recompute fair rates for the touched component(s) and reschedule.

        ``seed_resources`` are the resources whose flow set (or capacity)
        just changed; the rebalance covers their full connected components.
        Rates outside the scope are untouched — recomputing them would
        yield the same values, which the reference mode and the tests
        assert.
        """
        now = self.sim.now
        self.rebalance_count += 1
        if self.global_rebalance:
            flows, resources = self._component(
                {res for f in self._flows for res in f.path}
                | set(seed_resources))
            nlive = capped = None
        else:
            flows, resources, nlive, capped = self._scope(seed_resources)
        if flows:
            n_flows = len(flows)
            if n_flows > self.max_component_flows:
                self.max_component_flows = n_flows
            rates, visits, rounds = _maxmin_rates_scoped(flows, nlive,
                                                         capped)
            self.flow_visits += visits
            self.flow_visits_global += rounds * (self._incidence
                                                 + len(self._flows))
            heap = self._horizon_heap
            for flow in flows:
                rate = rates[flow]
                flow.rate = rate
                if rate > _EPS and math.isfinite(flow.remaining):
                    horizon = flow.remaining / rate
                    flow._horizon = horizon
                    heapq.heappush(heap, (horizon, flow._seq, flow))
                else:
                    flow._horizon = math.inf
            for res in resources:
                # fsum is exact, so the load cannot depend on the id()
                # order ``res._flows`` happens to iterate in.
                res._set_load(math.fsum(f.rate for f in res._flows), now)
            if self._metrics is not None:
                self._m_component.observe(float(n_flows))
                self._m_visits.inc(visits)
        if self._metrics is not None:
            self._m_rebalances.inc()
        self._schedule_next()

    def _schedule_next(self) -> None:
        self._timer_version += 1
        version = self._timer_version
        timer = self._timer
        if timer is not None:
            self._timer = None
            if not timer._processed and not timer._cancelled:
                timer.cancel()
                self.timer_cancellations += 1
                if self._metrics is not None:
                    self._m_cancel.inc()
        heap = self._horizon_heap
        while heap:
            horizon, _seq, flow = heap[0]
            if flow.end_time is None and flow._horizon == horizon:
                break
            heapq.heappop(heap)
        if not heap:
            return
        timer = self.sim.timeout(max(heap[0][0], _MIN_DT))
        timer.callbacks.append(lambda _ev: self._on_timer(version))
        self._timer = timer

    def _on_timer(self, version: int) -> None:
        if version != self._timer_version:
            return  # superseded by a later rebalance
        completed = self._advance()
        self._rebalance([r for f in completed for r in f.path])


def _maxmin_rates(flows: Iterable[FluidFlow]) -> dict[FluidFlow, float]:
    """Progressive-filling max-min fair allocation with per-flow caps.

    Reference implementation kept as the oracle for the incremental
    engine's property tests: :func:`_maxmin_rates_scoped` must agree with
    it exactly on every connected component.
    """
    unfrozen = set(flows)
    rates: dict[FluidFlow, float] = {f: 0.0 for f in unfrozen}
    if not unfrozen:
        return rates
    frozen_load: dict[SharedResource, float] = {}
    for flow in unfrozen:
        for res in flow.path:
            frozen_load.setdefault(res, 0.0)
    level = 0.0
    while unfrozen:
        # How high can the common level rise before a constraint binds?
        sat_levels: dict[SharedResource, float] = {}
        for res, loaded in frozen_load.items():
            n = sum(1 for f in res._flows if f in unfrozen)
            if n:
                sat_levels[res] = (res.capacity - loaded) / n
        res_level = min(sat_levels.values(), default=math.inf)
        min_cap = min((f.cap for f in unfrozen), default=math.inf)
        next_level = min(res_level, min_cap)
        if not math.isfinite(next_level):  # pragma: no cover - defensive
            raise ResourceError("unbounded fair-share level")
        level = max(level, next_level)
        newly_frozen: set[FluidFlow] = set()
        if min_cap <= next_level + _EPS:
            newly_frozen.update(f for f in unfrozen if f.cap <= level + _EPS)
        for res, sat in sat_levels.items():
            if sat <= next_level + _EPS:  # this resource saturates here
                newly_frozen.update(f for f in res._flows if f in unfrozen)
        if not newly_frozen:  # pragma: no cover - numerical safety net
            newly_frozen = set(unfrozen)
        for flow in newly_frozen:
            rates[flow] = min(level, flow.cap)
            unfrozen.discard(flow)
            for res in flow.path:
                frozen_load[res] += rates[flow]
    return rates


def _maxmin_rates_scoped(flows: set[FluidFlow],
                         nlive: Optional[dict[SharedResource, int]] = None,
                         capped: Optional[set[FluidFlow]] = None,
                         ) -> tuple[dict[FluidFlow, float], int, int]:
    """Progressive filling over one (set of) connected component(s).

    Identical arithmetic to :func:`_maxmin_rates` — every saturation level
    is ``(capacity - frozen) / unfrozen`` over the same operands, and the
    binding level of each round is the same minimum — but the per-round
    work is indexed instead of scanned:

    * per-resource unfrozen-flow *counters* replace the oracle's per-round
      rescan of every ``res._flows`` set;
    * saturation levels are recomputed only for resources a freeze just
      touched (unchanged operands reproduce the cached value bit for bit);
    * the minimum flow cap comes from a lazy-deletion heap rather than a
      scan of all unfrozen flows.

    When the caller supplies the component's maintained incidence counts
    (``nlive``) and capped-flow set, the fill's own init is one dict copy
    — no per-flow scan at all, which at the 1,000-VM rung was ~40% of all
    flow inspections.  Without them (the ``global_rebalance`` reference
    mode and direct test calls) the indices are derived by scanning the
    flows, reproducing the maintained counts exactly.

    Returns ``(rates, flow_visits, rounds)`` where ``flow_visits`` counts
    flow inspections (the engine's cost metric) and ``rounds`` the number
    of filling iterations.
    """
    unfrozen = set(flows)
    rates: dict[FluidFlow, float] = {}
    visits = 0
    rounds = 0
    if not unfrozen:
        return rates, visits, rounds
    frozen_load: dict[SharedResource, float] = {}
    cap_heap: list[tuple[float, int, FluidFlow]] = []
    if nlive is None:
        n_unfrozen: dict[SharedResource, int] = {}
        n_get = n_unfrozen.get
        for flow in unfrozen:
            for res in flow._upath:
                n = n_get(res)
                if n is None:
                    n_unfrozen[res] = 1
                    frozen_load[res] = 0.0
                else:
                    n_unfrozen[res] = n + 1
            if math.isfinite(flow.cap):
                cap_heap.append((flow.cap, flow._seq, flow))
        visits += len(unfrozen)
    else:
        n_unfrozen = dict(nlive)
        frozen_load = {res: 0.0 for res in n_unfrozen}
        cap_heap = [(f.cap, f._seq, f) for f in capped]
    heapq.heapify(cap_heap)
    sat_levels: dict[SharedResource, float] = {
        res: (res.capacity - frozen_load[res]) / n
        for res, n in n_unfrozen.items()}
    level = 0.0
    while unfrozen:
        rounds += 1
        while cap_heap and cap_heap[0][2] not in unfrozen:
            heapq.heappop(cap_heap)
        res_level = min(sat_levels.values(), default=math.inf)
        min_cap = cap_heap[0][0] if cap_heap else math.inf
        next_level = min(res_level, min_cap)
        if not math.isfinite(next_level):  # pragma: no cover - defensive
            raise ResourceError("unbounded fair-share level")
        level = max(level, next_level)
        newly_frozen: set[FluidFlow] = set()
        if min_cap <= next_level + _EPS:
            # Everything with cap <= level + _EPS, exactly the oracle's
            # freeze set: the heap orders finite caps, so pop until above
            # the bound (stale frozen entries are skipped).
            cap_bound = level + _EPS
            while cap_heap and cap_heap[0][0] <= cap_bound:
                _cap, _seq, cf = heapq.heappop(cap_heap)
                if cf in unfrozen:
                    newly_frozen.add(cf)
                    visits += 1
        sat_bound = next_level + _EPS
        for res, sat in sat_levels.items():
            if sat <= sat_bound:  # this resource saturates here
                visits += len(res._flows)
                newly_frozen.update(f for f in res._flows if f in unfrozen)
        if not newly_frozen:  # pragma: no cover - numerical safety net
            newly_frozen = set(unfrozen)
        dirty: set[SharedResource] = set()
        for flow in newly_frozen:
            rate = min(level, flow.cap)
            rates[flow] = rate
            unfrozen.discard(flow)
            for res in flow.path:
                frozen_load[res] += rate
            for res in flow._upath:
                n_unfrozen[res] -= 1
                dirty.add(res)
        for res in dirty:
            n = n_unfrozen[res]
            if n:
                sat_levels[res] = (res.capacity - frozen_load[res]) / n
            else:
                del sat_levels[res]
    return rates, visits, rounds
