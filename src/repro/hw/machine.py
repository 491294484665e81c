"""The simulated machine and its event-driven timing engine.

A :class:`Machine` hosts one flow per core (the paper's configuration,
Section 2.2). Each flow repeatedly produces per-packet *access programs*
(via its application's functional layer) which the engine replays against
the core's private L1/L2, the socket's shared L3, and the NUMA-aware
memory controllers. Cores are interleaved at memory-reference granularity
by always advancing the core with the smallest local clock, so co-runners'
references contend in the shared cache exactly as on real hardware.

The scalar loop in :meth:`Machine.run` keeps, per flow, a cursor over the
current packet's program (yielding ``(gap, line, tag)``; it survives core
switches) and one tuple of pre-bound run state (counters, cache sets,
socket), so a core switch is a tuple unpack and one ``heapreplace``; a
sentinel heap entry spares the emptiness test. Counters are updated per
reference and the clock is published at every switch, because observers
read other flows mid-packet: the SLO guard, at the victim's window,
retargets an aggressor via ``GuardedFlow.set_limit``, which reads the
aggressor's ``l3_refs`` and clock.

Placement is explicit: ``add_flow(factory, core=..., data_domain=...)``
controls both which socket executes a flow and which memory domain holds
its data, which is how the three configurations of the paper's Figure 3
(cache-only, memory-controller-only, and combined contention) are built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from typing import Callable, Dict, List, Optional

from ..constants import CACHE_LINE_BITS, DEFAULT_SEED, NUMA_DOMAIN_SHIFT
from ..mem.access import AccessContext, TAGS
from ..mem.allocator import AddressSpace
from ..obs.session import current_session
from ..obs.trace import NULL_TRACER, Tracer
from .cache import SetAssociativeCache
from .counters import CoreCounters, FlowStats
from .dram import MemoryController
from .interconnect import QPILink
from .topology import PlatformSpec

#: Shift converting a global line index to its NUMA domain.
_DOMAIN_LINE_SHIFT = NUMA_DOMAIN_SHIFT - CACHE_LINE_BITS

#: Safety valve: abort runs that exceed this many memory references.
MAX_EVENTS = 400_000_000


@dataclass
class FlowEnv:
    """Everything an application factory needs to build a flow instance."""

    space: AddressSpace
    domain: int
    spec: PlatformSpec
    rng: random.Random


class FlowRun:
    """Run state of one flow pinned to one core."""

    __slots__ = (
        "index", "label", "flow", "core", "socket", "data_domain", "measured",
        "ctx", "prog", "pc", "prog_len", "clock", "counters",
        "warmup_target", "measure_target", "snap_start", "snap_end", "done",
        "latencies", "packet_start", "regions",
    )

    def __init__(self, index: int, label: str, flow, core: int, socket: int,
                 data_domain: int, measured: bool):
        self.index = index
        self.label = label
        self.flow = flow
        self.core = core
        self.socket = socket
        self.data_domain = data_domain
        self.measured = measured
        self.ctx = AccessContext()
        self.prog: List[int] = []
        self.pc = 0
        self.prog_len = -1  # -1: no packet generated yet
        self.clock = 0.0
        self.counters = CoreCounters()
        self.warmup_target = 0
        self.measure_target = 0
        self.snap_start: Optional[CoreCounters] = None
        self.snap_end: Optional[CoreCounters] = None
        self.done = False
        #: Per-packet completion latencies (cycles) within the measurement
        #: window; populated only when the machine records latencies.
        self.latencies: Optional[List[float]] = None
        self.packet_start = 0.0
        #: Regions this flow allocated during construction (captured by
        #: ``add_flow``); the batch engine's stream cache re-expresses
        #: cached access streams relative to these.
        self.regions: List = []


class RunResult:
    """Outcome of one :meth:`Machine.run`: per-flow statistics."""

    def __init__(self, spec: PlatformSpec, flows: List[FlowRun],
                 events: int, end_clock: float, metrics=None):
        self.spec = spec
        self.events = events
        self.end_clock = end_clock
        #: The run's MetricsSampler when time-series sampling was on.
        self.metrics = metrics
        self.stats: Dict[str, FlowStats] = {}
        self.flow_labels: List[str] = []
        for fr in flows:
            if fr.snap_start is None or fr.snap_end is None:
                continue
            delta = fr.snap_end.delta(fr.snap_start)
            self.stats[fr.label] = FlowStats(delta, spec.freq_hz,
                                             latencies=fr.latencies)
            self.flow_labels.append(fr.label)

    def __getitem__(self, label: str) -> FlowStats:
        return self.stats[label]

    def throughput(self, label: str) -> float:
        """Measured packets/sec of flow ``label``."""
        return self.stats[label].packets_per_sec

    def total_l3_refs_per_sec(self, exclude: Optional[str] = None) -> float:
        """Sum of measured L3 refs/sec over all flows except ``exclude``."""
        return sum(
            s.l3_refs_per_sec for lbl, s in self.stats.items() if lbl != exclude
        )

    def timeseries(self, label: str):
        """The sampled :class:`~repro.obs.metrics.FlowSeries` of one flow.

        Requires the machine to have run with a metrics sampler attached.
        """
        if self.metrics is None:
            raise RuntimeError(
                "no metrics were sampled; pass metrics=MetricsSampler(...) "
                "to Machine or run inside repro.obs.observe(...)"
            )
        return self.metrics.series(label)

    def report(self, kind: str = "run", config=None) -> "object":
        """This run as a machine-readable :class:`~repro.obs.RunReport`."""
        from ..obs.report import RunReport

        report = RunReport.new(kind, spec=self.spec, config=config)
        report.add_result_flows(self)
        report.results["events"] = self.events
        report.results["end_clock_cycles"] = self.end_clock
        if self.metrics is not None:
            report.attach_metrics(self.metrics)
        return report


def unwrap_probes(sampler):
    """Peel stacked metrics probes down to the real sampler (or None).

    Probes (the invariant checker's, the SLO guard's) wrap the machine's
    sampler while implementing the same protocol, and mark themselves
    with ``is_metrics_probe``. Results should expose the underlying
    sampler, whatever got stacked on top and in which order.
    """
    while getattr(sampler, "is_metrics_probe", False):
        sampler = sampler.inner
    return sampler


def _audit_wrapper_identity(flow) -> None:
    """Reject wrapper flows that alias their wrapped flow's identity.

    The batch engine keys its skeleton/stream cache on ``name`` and
    ``stream_signature``; a wrapper (throttle, two-faced composite,
    guard) that passes either through unchanged could be cached under —
    and later served as — its inner flow, silently dropping the wrapper
    behaviour. Wrappers must either derive a distinct identity or
    declare ``stream_signature = None`` (never cached).
    """
    inners = [inner for inner in (getattr(flow, "inner", None),
                                  getattr(flow, "innocent", None),
                                  getattr(flow, "aggressive", None))
              if inner is not None and hasattr(inner, "run_packet")]
    if not inners:
        return
    sig = getattr(flow, "stream_signature", None)
    name = getattr(flow, "name", None)
    for inner in inners:
        if sig is not None and sig == getattr(inner, "stream_signature",
                                              None):
            raise ValueError(
                f"wrapper flow {name!r} reuses the stream signature of "
                f"its wrapped flow {getattr(inner, 'name', '?')!r}; the "
                "batch engine would alias their cached streams")
        if name is not None and name == getattr(inner, "name", None):
            raise ValueError(
                f"wrapper flow reuses its wrapped flow's name {name!r}; "
                "labels derived from it could not tell them apart")


class Machine:
    """One simulated server. Build it, add flows, call :meth:`run` once."""

    def __init__(self, spec: Optional[PlatformSpec] = None, seed: int = DEFAULT_SEED,
                 record_latencies: bool = False,
                 tracer: Optional[Tracer] = None, metrics=None,
                 checker=None, guard=None):
        self.spec = spec if spec is not None else PlatformSpec.westmere()
        self.seed = seed
        self.record_latencies = record_latencies
        # Explicit observability arguments win; otherwise inherit the
        # ambient obs session (repro.obs.observe), if one is active.
        session = current_session()
        if session is not None:
            if tracer is None:
                tracer = session.tracer
            if metrics is None:
                metrics = session.new_sampler()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional ``repro.obs.MetricsSampler`` (one run's time series).
        self.metrics = metrics
        #: Optional ``repro.check.InvariantChecker``: hooks conservation
        #: checks into packet boundaries (via the metrics protocol) and
        #: runs the full machine-wide audit at end of run. Both engines
        #: honour it at identical points of the interleaving.
        self.checker = checker
        #: Optional ``repro.guard.SLOGuard``: observes per-flow windows
        #: through the same sampler protocol (stacked outside the
        #: checker's probe) and steers guarded flows' throttles.
        self.guard = guard
        self.space = AddressSpace(self.spec.n_sockets)
        self.l3 = [
            SetAssociativeCache(self.spec.l3_size, self.spec.l3_ways, f"L3.{s}")
            for s in range(self.spec.n_sockets)
        ]
        self.mcs = [
            MemoryController(d, self.spec.mc_service_cycles)
            for d in range(self.spec.n_sockets)
        ]
        self.qpi = QPILink(self.spec.qpi_extra_cycles, self.spec.qpi_service_cycles)
        self.flows: List[FlowRun] = []
        self._cores_used: Dict[int, str] = {}
        self._l1: Dict[int, SetAssociativeCache] = {}
        self._l2: Dict[int, SetAssociativeCache] = {}
        self._ran = False

    # -- construction --------------------------------------------------------

    def add_flow(
        self,
        factory: Callable[[FlowEnv], object],
        core: int,
        data_domain: Optional[int] = None,
        measured: bool = True,
        label: Optional[str] = None,
    ) -> FlowRun:
        """Instantiate a flow on ``core`` with data homed in ``data_domain``.

        ``data_domain`` defaults to the core's own socket (the paper's
        NUMA-local production configuration).
        """
        if self._ran:
            raise RuntimeError("machine already ran; build a fresh Machine")
        socket = self.spec.socket_of(core)
        if core in self._cores_used:
            raise ValueError(
                f"core {core} already runs flow {self._cores_used[core]!r} "
                "(the paper's configuration is one flow per core)"
            )
        if data_domain is None:
            data_domain = socket
        if not 0 <= data_domain < self.spec.n_sockets:
            raise ValueError(f"no such NUMA domain: {data_domain}")
        flow = None
        regions = None
        # Skeleton fast path: under the ambient batch engine, a factory
        # that declares its stream signature and whose stream (plus
        # construction metadata) is already cached gets a construction-free
        # StubFlow over the recorded region layout — the replay engine
        # never needs the real flow object (see repro.fastpath.streams).
        factory_sig = getattr(factory, "stream_signature", None)
        if factory_sig is not None and not self.tracer.active:
            from ..fastpath import default_engine

            if default_engine() == "batch":
                from ..fastpath import streams as _fastpath

                key = _fastpath.key_for_signature(
                    factory_sig, self.seed, core, self.spec)
                meta = _fastpath.STREAM_CACHE.skeleton_meta(key)
                if meta is not None:
                    regions = [
                        self.space.alloc(
                            size, rname,
                            data_domain if is_data_rel else abs_dom)
                        for rname, size, is_data_rel, abs_dom in meta.layout
                    ]
                    flow = _fastpath.StubFlow(
                        factory, meta, factory_sig, regions,
                        self.seed, core, data_domain, self.spec)
        if flow is None:
            rng = random.Random(
                (self.seed * 1_000_003 + core * 7919) & 0xFFFFFFFF)
            env = FlowEnv(space=self.space, domain=data_domain,
                          spec=self.spec, rng=rng)
            # Snapshot allocation marks so the regions this factory
            # allocates can be attributed to the flow (the batch engine's
            # stream cache needs them to re-express streams in
            # region-relative form).
            marks = {
                d: len(self.space.domain(d).regions)
                for d in range(self.spec.n_sockets)
            }
            flow = factory(env)
            # Audit on the construction path only: probing a cached
            # skeleton's attributes would materialize it (a skeleton's
            # identity was already audited when its stream was recorded).
            _audit_wrapper_identity(flow)
            regions = []
            for d in range(self.spec.n_sockets):
                regions.extend(self.space.domain(d).regions[marks[d]:])
        name = getattr(flow, "name", flow.__class__.__name__)
        if label is None:
            label = f"{name}@{core}"
        if any(fr.label == label for fr in self.flows):
            raise ValueError(f"duplicate flow label {label!r}")
        fr = FlowRun(len(self.flows), label, flow, core, socket, data_domain, measured)
        fr.regions = regions
        self.flows.append(fr)
        self._cores_used[core] = label
        self._l1[core] = SetAssociativeCache(
            self.spec.l1_size, self.spec.l1_ways, f"L1.{core}"
        )
        self._l2[core] = SetAssociativeCache(
            self.spec.l2_size, self.spec.l2_ways, f"L2.{core}"
        )
        attach = getattr(flow, "attach_run", None)
        if attach is not None:
            attach(self, fr)
        elif type(flow).__name__ == "StubFlow":
            # Forward the attach hook when/if the stub materializes.
            def _attach_real(real, machine=self, flow_run=fr):
                hook = getattr(real, "attach_run", None)
                if hook is not None:
                    hook(machine, flow_run)

            flow._attach = _attach_real
        return fr

    def invalidate_private(self, lines, core: int) -> None:
        """Invalidate ``lines`` in ``core``'s private L1/L2 (cache-to-cache
        transfer of a written-shared line: the next reader pays an L3 access).

        Used by the pipeline-handoff model; the shared L3 keeps the line.
        """
        l1 = self._l1.get(core)
        l2 = self._l2.get(core)
        for line in lines:
            if l1 is not None:
                l1.invalidate(line)
            if l2 is not None:
                l2.invalidate(line)

    # -- execution -----------------------------------------------------------

    def run(self, warmup_packets: int = 200, measure_packets: int = 1000,
            max_events: int = MAX_EVENTS,
            engine: Optional[str] = None) -> RunResult:
        """Run until every measured flow completes its measurement window.

        Per-flow packet targets are scaled by the flow's ``measure_weight``
        attribute (slow flows like FW measure fewer packets so that mixed
        runs finish in comparable simulated time; rates are unaffected).

        ``engine`` selects the execution engine: ``"scalar"`` (the
        reference event loop below), ``"batch"`` (the pregenerating
        engine in :mod:`repro.fastpath`, identical results, faster), or
        None to use the ambient default set via
        :func:`repro.fastpath.use_engine` / ``set_default_engine``.
        """
        if engine is None:
            from ..fastpath import default_engine

            engine = default_engine()
        if engine == "batch":
            from ..fastpath.engine import run_batch

            return run_batch(self, warmup_packets, measure_packets, max_events)
        if engine != "scalar":
            raise ValueError(
                f"unknown engine {engine!r} (choose 'scalar' or 'batch')"
            )
        # A machine built under the ambient batch engine may hold
        # construction-skipped StubFlows; the scalar loop needs the real
        # flow objects. (Stubs can only exist if fastpath.streams was
        # imported, so probing sys.modules avoids pulling numpy into
        # scalar-only processes.)
        import sys

        _fastpath = sys.modules.get(
            __name__.split(".")[0] + ".fastpath.streams")
        if _fastpath is not None:
            for fr in self.flows:
                if isinstance(fr.flow, _fastpath.StubFlow):
                    fr.flow = fr.flow.materialize()
        if self._ran:
            raise RuntimeError("machine already ran; build a fresh Machine")
        if not self.flows:
            raise RuntimeError("no flows configured")
        self._ran = True

        flows = self.flows
        for fr in flows:
            weight = float(getattr(fr.flow, "measure_weight", 1.0))
            fr.warmup_target = max(50, int(warmup_packets * weight))
            fr.measure_target = fr.warmup_target + max(100, int(measure_packets * weight))

        if self.record_latencies:
            for fr in flows:
                fr.latencies = []

        n_waiting = sum(1 for fr in flows if fr.measured)
        if n_waiting == 0:
            raise RuntimeError("at least one flow must be measured")

        spec = self.spec
        lat_l1 = spec.lat_l1
        lat_l2 = spec.lat_l2
        lat_l3 = spec.lat_l3
        lat_dram = spec.lat_l3 + spec.lat_dram_extra
        mcs = self.mcs
        qpi = self.qpi
        n_tags = len(TAGS)
        events = 0

        # Everything a reference needs from its flow, pre-bound once per
        # run: a core switch is one unpack of the flow's tuple.
        bound = []
        for fr in flows:
            c = fr.counters
            c._grow_tags()
            if len(c.tag_refs) < n_tags:  # pragma: no cover - defensive
                raise RuntimeError("tag registry changed mid-run")
            l1 = self._l1[fr.core]
            l2 = self._l2[fr.core]
            l3 = self.l3[fr.socket]
            bound.append((fr, c, c.tag_refs, c.tag_hits, l1.sets, l1.n_sets,
                          l2.sets, l2.n_sets, l3.sets, l3.n_sets, fr.socket))
        l1_ways = spec.l1_ways
        l2_ways = spec.l2_ways
        l3_ways = spec.l3_ways

        heap = sorted((fr.clock, fr.index) for fr in flows)  # a valid heap

        # Observability bindings. ``trace_on``/``metrics_on`` are the
        # single boolean guards the loop checks; with both off it makes no
        # observer call (see tests/test_obs_overhead.py).
        checker = self.checker
        if checker is not None:
            # The checker wraps self.metrics with a probe implementing
            # the same sampler protocol, so the hot loop below needs no
            # extra branches to feed it.
            checker.install(self)
        guard = self.guard
        if guard is not None:
            # Same probe-stacking trick, outermost; each probe keeps its
            # own window cadence and forwards to the one below when due.
            guard.install(self)
        tracer = self.tracer
        trace_on = tracer.active
        sampler = self.metrics
        metrics_on = sampler is not None
        if trace_on:
            tracer.begin_run(self)
        if metrics_on:
            sampler.begin(self)
            metrics_due = sampler.next_due
        mem_sample = tracer.mem_sample if trace_on else 0

        # Per-flow cursors (see module docstring); ``start`` stands for
        # "no packet generated yet".
        start = iter(())
        cursors = [start] * len(flows)
        clock, i = heappop(heap)
        # The sentinel keeps heap[0] defined, so a lone flow needs no
        # emptiness test: its limit is infinite and it never switches.
        heappush(heap, (float("inf"), len(flows)))
        limit = heap[0][0]
        (fr, c, tag_refs, tag_hits, my_l1, my_l1_n, my_l2, my_l2_n,
         my_l3, my_l3_n, home) = bound[i]
        cursor = start

        while True:
            for gap, line, tag in cursor:
                # -- one memory reference -----------------------------------
                now = clock + gap
                s = my_l1[line % my_l1_n]
                if line in s:
                    s.remove(line)
                    s.append(line)
                    c.l1_hits += 1
                    clock = now + lat_l1
                else:
                    s.append(line)
                    if len(s) > l1_ways:
                        s.pop(0)
                    s2 = my_l2[line % my_l2_n]
                    if line in s2:
                        s2.remove(line)
                        s2.append(line)
                        c.l2_hits += 1
                        clock = now + lat_l2
                    else:
                        s2.append(line)
                        if len(s2) > l2_ways:
                            s2.pop(0)
                        c.l3_refs += 1
                        tag_refs[tag] += 1
                        s3 = my_l3[line % my_l3_n]
                        if line in s3:
                            s3.remove(line)
                            s3.append(line)
                            c.l3_hits += 1
                            tag_hits[tag] += 1
                            clock = now + lat_l3
                        else:
                            s3.append(line)
                            if len(s3) > l3_ways:
                                s3.pop(0)
                            c.l3_misses += 1
                            dom = line >> _DOMAIN_LINE_SHIFT
                            wait = mcs[dom].request(now)
                            lat = lat_dram + wait
                            c.mc_wait_cycles += wait
                            if dom != home:
                                lat += qpi.transfer(now)
                                c.remote_refs += 1
                            clock = now + lat
                            if trace_on and c.l3_misses % mem_sample == 0:
                                tracer.mem(i, now, wait, dom, dom != home)
                c.gap_cycles += gap
                events += 1
                if clock > limit:
                    break
            else:
                # -- packet boundary ----------------------------------------
                ctx = fr.ctx
                if cursor is not start:
                    clock += ctx.trailing_gap
                    c.gap_cycles += ctx.trailing_gap
                    if not ctx.is_idle:
                        c.packets += 1
                        if (fr.latencies is not None
                                and fr.snap_start is not None
                                and not fr.done):
                            fr.latencies.append(clock - fr.packet_start)
                        if trace_on:
                            tracer.packet(
                                i, fr.packet_start, clock, c.packets,
                                marks=getattr(fr.flow, "trace_marks", None))
                    if c.packets == fr.warmup_target and fr.snap_start is None:
                        c.cycles = clock
                        fr.snap_start = c.copy()
                        if trace_on:
                            tracer.phase(i, clock, "measure_begin",
                                         packets=c.packets)
                    elif c.packets == fr.measure_target and not fr.done:
                        c.cycles = clock
                        fr.snap_end = c.copy()
                        fr.done = True
                        if trace_on:
                            tracer.phase(i, clock, "measure_end",
                                         packets=c.packets)
                        if fr.measured:
                            n_waiting -= 1
                            if n_waiting == 0:
                                fr.clock = clock
                                break  # the for's else: ends the run
                    if metrics_on and clock >= metrics_due[i]:
                        sampler.sample(i, clock, c)
                # -- generate next packet -----------------------------------
                if events > max_events:
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events; "
                        "reduce packet counts or platform scale"
                    )
                ctx.reset()
                # Keep the public run state current: flows with live
                # feedback (ControlElement, ThrottledFlow) read their
                # own clock and counters during generation.
                fr.clock = clock
                fr.packet_start = clock
                dma = fr.flow.run_packet(ctx)
                ctx.finish_packet()
                c.instructions += ctx.instructions
                if dma:
                    for line in dma:
                        s = my_l1[line % my_l1_n]
                        if line in s:
                            s.remove(line)
                        s = my_l2[line % my_l2_n]
                        if line in s:
                            s.remove(line)
                        s = my_l3[line % my_l3_n]
                        if line in s:
                            s.remove(line)
                # ``ctx.program`` is next cleared by this flow's next
                # ``ctx.reset()``, after the cursor is exhausted.
                refs = iter(ctx.program)
                cursor = zip(refs, refs, refs)
                # A packet with no memory references must still advance
                # time via its trailing gap, or the loop would never
                # make progress.
                if not ctx.program and ctx.trailing_gap <= 0:
                    raise RuntimeError(
                        f"flow {fr.label!r} produced an empty, zero-time packet"
                    )
                if clock <= limit:
                    continue

            # -- core switch (publishes the clock; see module docstring) -----
            fr.clock = clock
            if events > max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; "
                    "reduce packet counts or platform scale"
                )
            cursors[i] = cursor
            # Exact pop-then-push: this flow's clock is strictly above
            # heap[0][0], so it cannot be the one popped.
            clock, i = heapreplace(heap, (clock, i))
            limit = heap[0][0]
            (fr, c, tag_refs, tag_hits, my_l1, my_l1_n, my_l2, my_l2_n,
             my_l3, my_l3_n, home) = bound[i]
            cursor = cursors[i]

        # Close statistics for flows that never reached their measure target
        # (pure competitors kept running for contention): report whatever
        # full window is available past their warm-up.
        end_clock = max(fr.clock for fr in flows)
        for fr in flows:
            if fr.snap_start is not None and fr.snap_end is None:
                fr.counters.cycles = fr.clock
                fr.snap_end = fr.counters.copy()
        # End-of-run flush for flows with closed control loops (e.g.
        # throttles whose adjust window never filled): runs after the
        # measurement snapshots close, at the identical point in both
        # engines, so it never perturbs reported statistics.
        for fr in flows:
            hook = getattr(fr.flow, "finish_run", None)
            if hook is not None:
                hook()
        if metrics_on:
            sampler.finish(flows)
        if trace_on:
            tracer.end_run(end_clock, events)
        result = RunResult(self.spec, flows, events, end_clock,
                           metrics=unwrap_probes(sampler))
        if checker is not None:
            checker.after_run(self, result)
        if guard is not None:
            guard.after_run(self, result)
        return result
