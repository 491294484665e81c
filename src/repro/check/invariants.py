"""The runtime invariant engine.

An :class:`InvariantChecker` audits a :class:`~repro.hw.machine.Machine`
run against the conservation laws the simulator's arithmetic must
preserve no matter what configuration, engine, or seed produced the run:

* **Reference conservation** — every memory reference lands in exactly
  one level, so ``l3_refs == l3_hits + l3_misses`` per flow, the per-tag
  breakdowns sum back to the totals, and the per-flow level counts sum
  to the machine-wide event count.
* **Packet conservation** — a pipeline forwards or drops every packet it
  processes: ``forwarded + dropped`` tracks the engine's packet count
  (within one packet: generation runs ahead of replay by at most one
  in-flight packet).
* **Cycle accounting** — a flow's clock decomposes exactly into issued
  gaps plus per-level latencies plus memory-controller queueing (plus a
  lower-bounded QPI term for remote references); counters and clocks are
  monotone between observations.
* **Physical rate bounds** — a measured window cannot report more L3
  references per second than the latency floor allows.
* **Cache structure** — every L1/L2/L3 set respects its associativity
  and indexing, occupancy never exceeds capacity, and the flows' region
  allocations (which partition resident lines by owner) never overlap.

The checker hooks the engines twice. During the run it observes packet
boundaries through the machine's metrics-sampler protocol (the
:class:`_CheckProbe` wraps any real sampler, so observability keeps
working, and keeps its own cadence); both engines flush their counter
accumulators at exactly those points, which makes the windowed checks
engine-agnostic. After the run it audits the complete machine state and
the measured statistics.

By default violations are *collected* (``checker.violations``) so a
fuzzing driver can report, shrink, and serialize them; ``strict=True``
raises :class:`InvariantViolationError` at the first failed audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..obs.metrics import MetricsProbe

#: Probe cadence in simulated cycles (an attached sampler keeps its own).
DEFAULT_PROBE_INTERVAL = 100_000.0

#: Relative tolerance for float identities (clock decomposition). The
#: engines accumulate the clock as a long chain of additions while the
#: checker recomputes it as a sum of products, so bit-equality is not
#: available — but any real accounting bug shifts the clock by whole
#: latencies (>= 4 cycles), many orders of magnitude above this.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    """One failed invariant check."""

    invariant: str            #: machine-readable invariant name
    where: str                #: flow label, cache name, or "machine"
    detail: str               #: human-readable explanation
    phase: str = "end"        #: "window" (mid-run probe) or "end"
    clock: Optional[float] = None

    def __str__(self) -> str:
        at = f" @clock={self.clock:.1f}" if self.clock is not None else ""
        return f"[{self.invariant}] {self.where}{at}: {self.detail}"


class InvariantViolationError(AssertionError):
    """Raised in strict mode when an audit fails."""

    def __init__(self, violations: List[Violation]):
        self.violations = list(violations)
        lines = [str(v) for v in self.violations]
        super().__init__(
            f"{len(lines)} invariant violation(s):\n" + "\n".join(lines))


def _close(a: float, b: float, rel_tol: float) -> bool:
    return abs(a - b) <= rel_tol * max(abs(a), abs(b), 1.0)


class _CheckProbe(MetricsProbe):
    """Sampler-protocol adapter feeding packet boundaries to a checker at
    the checker's own interval, whatever sampler it wraps (see
    :class:`~repro.obs.metrics.MetricsProbe`)."""

    def __init__(self, checker: "InvariantChecker", inner=None):
        super().__init__(checker.interval_cycles, inner)
        self._checker = checker

    def _begin_run(self, machine) -> None:
        self._checker._begin_run(machine)

    def _observe(self, flow_index: int, clock: float, counters) -> None:
        self._checker.check_window(self._machine, flow_index, clock,
                                   counters)


@dataclass
class _FlowTrack:
    """Last-observed monotone state of one flow (windowed checks)."""

    clock: float = 0.0
    fields: Optional[Tuple] = None


class InvariantChecker:
    """Collects (or raises on) invariant violations of machine runs.

    One checker may audit several runs (e.g. the scalar and batch
    executions of the same scenario); violations accumulate with the
    run's engine label when set via :attr:`context`.
    """

    def __init__(self, interval_cycles: float = DEFAULT_PROBE_INTERVAL,
                 strict: bool = False, rel_tol: float = REL_TOL,
                 check_occupancy: bool = True):
        if interval_cycles <= 0:
            raise ValueError("probe interval must be positive")
        self.interval_cycles = float(interval_cycles)
        self.strict = strict
        self.rel_tol = rel_tol
        self.check_occupancy = check_occupancy
        self.violations: List[Violation] = []
        #: Free-form label prefixed to ``where`` (e.g. the engine name).
        self.context: str = ""
        self.runs_checked = 0
        self.windows_checked = 0
        self._tracks: List[_FlowTrack] = []

    # -- engine hooks -------------------------------------------------------

    def install(self, machine) -> None:
        """Wrap ``machine.metrics`` with the packet-boundary probe."""
        if isinstance(machine.metrics, _CheckProbe):  # pragma: no cover
            return  # already installed (defensive; machines run once)
        machine.metrics = _CheckProbe(self, machine.metrics)

    @staticmethod
    def unwrap(sampler):
        """The real metrics sampler behind a probe (or the sampler itself).

        Probe-generic: peels any stack of metrics probes (this checker's,
        the SLO guard's), not just a single ``_CheckProbe``.
        """
        from ..hw.machine import unwrap_probes

        return unwrap_probes(sampler)

    def _begin_run(self, machine) -> None:
        self._tracks = [_FlowTrack() for _ in machine.flows]

    # -- reporting ----------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    def _report(self, invariant: str, where: str, detail: str,
                phase: str = "end", clock: Optional[float] = None) -> None:
        if self.context:
            where = f"{self.context}:{where}"
        self.violations.append(
            Violation(invariant, where, detail, phase=phase, clock=clock))

    def raise_if_failed(self) -> None:
        if self.violations:
            raise InvariantViolationError(self.violations)

    # -- windowed (mid-run) checks -----------------------------------------

    def check_window(self, machine, flow_index: int, clock: float,
                     counters) -> None:
        """Audit one flow at a packet boundary mid-run."""
        self.windows_checked += 1
        fr = machine.flows[flow_index]
        label = fr.label
        self.check_counters(counters, label, phase="window", clock=clock)

        track = self._tracks[flow_index] if flow_index < len(self._tracks) \
            else _FlowTrack()
        if clock < track.clock:
            self._report("clock-monotone", label,
                         f"boundary clock went backwards: {track.clock} -> "
                         f"{clock}", phase="window", clock=clock)
        fields = (counters.instructions, counters.packets,
                  counters.l1_hits, counters.l2_hits, counters.l3_refs,
                  counters.l3_hits, counters.l3_misses,
                  counters.remote_refs, counters.mc_wait_cycles,
                  counters.gap_cycles)
        if track.fields is not None:
            for prev, cur in zip(track.fields, fields):
                if cur < prev:
                    self._report(
                        "counter-monotone", label,
                        f"counter decreased between boundaries: "
                        f"{track.fields} -> {fields}",
                        phase="window", clock=clock)
                    break
        track.clock = clock
        track.fields = fields

        self._check_clock_accounting(machine.spec, clock, counters, label,
                                     phase="window")
        if self.check_occupancy:
            for cache in machine.l3:
                occ = cache.occupancy()
                if occ > cache.capacity_lines:
                    self._report(
                        "l3-capacity", cache.name,
                        f"occupancy {occ} exceeds capacity "
                        f"{cache.capacity_lines} lines",
                        phase="window", clock=clock)

    # -- per-flow checks ----------------------------------------------------

    def check_counters(self, counters, where: str, phase: str = "end",
                       clock: Optional[float] = None) -> None:
        """Reference-conservation and sign checks of one counter set."""
        c = counters
        if c.l3_refs != c.l3_hits + c.l3_misses:
            self._report(
                "l3-conservation", where,
                f"l3_refs={c.l3_refs} != l3_hits={c.l3_hits} + "
                f"l3_misses={c.l3_misses}", phase=phase, clock=clock)
        if sum(c.tag_refs) != c.l3_refs:
            self._report(
                "tag-refs-conservation", where,
                f"sum(tag_refs)={sum(c.tag_refs)} != l3_refs={c.l3_refs}",
                phase=phase, clock=clock)
        if sum(c.tag_hits) != c.l3_hits:
            self._report(
                "tag-hits-conservation", where,
                f"sum(tag_hits)={sum(c.tag_hits)} != l3_hits={c.l3_hits}",
                phase=phase, clock=clock)
        for name in ("instructions", "packets", "l1_hits", "l2_hits",
                     "l3_refs", "l3_hits", "l3_misses", "remote_refs"):
            if getattr(c, name) < 0:
                self._report("counter-sign", where,
                             f"{name}={getattr(c, name)} is negative",
                             phase=phase, clock=clock)
        for name in ("mc_wait_cycles", "gap_cycles", "cycles"):
            if getattr(c, name) < 0.0:
                self._report("counter-sign", where,
                             f"{name}={getattr(c, name)} is negative",
                             phase=phase, clock=clock)
        if c.remote_refs > c.l3_misses:
            self._report(
                "remote-refs-bound", where,
                f"remote_refs={c.remote_refs} > l3_misses={c.l3_misses}",
                phase=phase, clock=clock)

    def _check_clock_accounting(self, spec, clock: float, counters,
                                where: str, phase: str = "end") -> None:
        """The clock must decompose into gaps + latencies + queueing.

        Exact (to float tolerance) when the flow never went remote; with
        remote references the QPI term is only lower-bounded (its
        queueing wait is not separately counted), so the decomposition
        becomes a two-sided bound: the local part must not exceed the
        clock, and the clock must be reachable given non-negative waits.
        """
        c = counters
        lat_dram = spec.lat_l3 + spec.lat_dram_extra
        local = (c.gap_cycles
                 + c.l1_hits * spec.lat_l1
                 + c.l2_hits * spec.lat_l2
                 + c.l3_hits * spec.lat_l3
                 + c.l3_misses * lat_dram
                 + c.mc_wait_cycles)
        if c.remote_refs == 0:
            if not _close(clock, local, self.rel_tol):
                self._report(
                    "clock-accounting", where,
                    f"clock={clock!r} != gaps+latencies+mc_wait={local!r} "
                    f"(diff {clock - local!r})", phase=phase, clock=clock)
        else:
            floor = local + c.remote_refs * spec.qpi_extra_cycles
            tol = self.rel_tol * max(abs(clock), abs(floor), 1.0)
            if clock + tol < floor:
                self._report(
                    "clock-accounting", where,
                    f"clock={clock!r} below remote-access floor {floor!r}",
                    phase=phase, clock=clock)
            if local > clock + tol:
                self._report(
                    "clock-accounting", where,
                    f"local cycle components {local!r} exceed clock "
                    f"{clock!r}", phase=phase, clock=clock)

    def check_flow_protocol(self, fr) -> None:
        """Packet conservation of the flow-protocol state.

        Generation runs at most one packet ahead of the engine's
        completed-packet count (the in-flight packet at the instant the
        run stopped), hence the ``{0, 1}`` slack.
        """
        flow = fr.flow
        c = fr.counters
        forwarded = getattr(flow, "forwarded", None)
        dropped = getattr(flow, "dropped", None)
        if forwarded is not None and dropped is not None:
            ahead = (forwarded + dropped) - c.packets
            if ahead not in (0, 1):
                self._report(
                    "packet-conservation", fr.label,
                    f"forwarded={forwarded} + dropped={dropped} vs "
                    f"packets={c.packets} (generation ahead by {ahead})")
        turns = getattr(flow, "turns", None)
        if turns is not None and getattr(flow, "flows", None):
            total = sum(turns)
            ahead = total - c.packets
            if getattr(flow, "timing_pure", False):
                if ahead not in (0, 1):
                    self._report(
                        "turns-conservation", fr.label,
                        f"sum(turns)={total} vs packets={c.packets} "
                        f"(ahead by {ahead})")
            elif total < c.packets:
                self._report(
                    "turns-conservation", fr.label,
                    f"sum(turns)={total} < packets={c.packets}")
            if max(turns) - min(turns) > 1:
                self._report(
                    "turns-round-robin", fr.label,
                    f"turns {turns} diverge by more than one")
        if getattr(flow, "trigger_packets", None) is not None \
                and hasattr(flow, "triggered"):
            expect = flow.packets > flow.trigger_packets
            if bool(flow.triggered) != expect:
                self._report(
                    "trigger-state", fr.label,
                    f"triggered={flow.triggered} but packets="
                    f"{flow.packets} vs trigger={flow.trigger_packets}")
        self.check_guard_state(fr)

    def check_guard_state(self, fr) -> None:
        """Sanity of throttle/guard control state on wrapper flows.

        Throttle loops must never produce a negative inserted gap or a
        negative adjustment count; guard-controllable flows additionally
        keep their escalation bookkeeping consistent (an active throttle
        limit implies the supervisor reached at least the first
        tightening rung — rung 2 of the warn→tighten→quarantine ladder).
        """
        flow = fr.flow
        if hasattr(flow, "extra_gap"):
            if flow.extra_gap < 0:
                self._report(
                    "guard-state", fr.label,
                    f"negative throttle gap {flow.extra_gap!r}")
            if getattr(flow, "adjustments", 0) < 0:
                self._report(
                    "guard-state", fr.label,
                    f"negative adjustment count {flow.adjustments!r}")
        if not getattr(flow, "guard_controllable", False):
            return
        limit = flow.limit_refs_per_sec
        if limit is not None and limit <= 0:
            self._report(
                "guard-state", fr.label,
                f"non-positive throttle limit {limit!r}")
        if flow.rung < 0:
            self._report(
                "guard-state", fr.label, f"negative rung {flow.rung!r}")
        if flow.suspended_until < 0:
            self._report(
                "guard-state", fr.label,
                f"negative suspension deadline {flow.suspended_until!r}")
        if limit is not None and flow.rung < 2:
            self._report(
                "guard-state", fr.label,
                f"throttle limit {limit!r} set but rung={flow.rung} "
                "(ladder never passed the tighten rung)")

    # -- cache checks -------------------------------------------------------

    def check_caches(self, machine) -> None:
        """Structural soundness and capacity of every cache."""
        caches = list(machine.l3)
        caches.extend(machine._l1.values())
        caches.extend(machine._l2.values())
        for cache in caches:
            for problem in cache.validate():
                self._report("cache-structure", cache.name, problem)
            occ = cache.occupancy()
            if occ > cache.capacity_lines:
                self._report(
                    "cache-capacity", cache.name,
                    f"occupancy {occ} exceeds capacity "
                    f"{cache.capacity_lines} lines")

    def check_occupancy_partition(self, machine) -> None:
        """Resident L3 lines partition by owning flow's regions.

        Region allocations are bump-allocated and must never overlap; a
        resident line therefore belongs to at most one flow. Lines
        outside every region (e.g. shared infrastructure) are counted as
        orphans but not failed — the partition identity (per-flow counts
        plus orphans equals total occupancy) must still hold.
        """
        intervals: List[Tuple[int, int, str]] = []
        for fr in machine.flows:
            for region in getattr(fr, "regions", []) or []:
                start = region.base >> 6
                end = (region.end + 63) >> 6
                intervals.append((start, end, fr.label))
        intervals.sort()
        for (s0, e0, l0), (s1, e1, l1) in zip(intervals, intervals[1:]):
            if s1 < e0:
                self._report(
                    "region-overlap", "machine",
                    f"regions of {l0!r} [{s0},{e0}) and {l1!r} "
                    f"[{s1},{e1}) overlap")
                return  # attribution below would double-count

        import bisect
        starts = [iv[0] for iv in intervals]
        per_flow = {fr.label: 0 for fr in machine.flows}
        orphans = 0
        total = 0
        for cache in machine.l3:
            for line in cache.resident_lines():
                total += 1
                pos = bisect.bisect_right(starts, line) - 1
                if pos >= 0 and line < intervals[pos][1]:
                    per_flow[intervals[pos][2]] += 1
                else:
                    orphans += 1
        if sum(per_flow.values()) + orphans != total:
            self._report(
                "occupancy-partition", "machine",
                f"per-flow occupancies {per_flow} + orphans {orphans} "
                f"!= total {total}")

    # -- the end-of-run audit ----------------------------------------------

    def check_machine(self, machine, result) -> None:
        """The full post-run audit (see module docstring)."""
        spec = machine.spec
        total_refs = 0
        max_clock = 0.0
        for fr in machine.flows:
            c = fr.counters
            self.check_counters(c, fr.label)
            self.check_flow_protocol(fr)
            self._check_clock_accounting(spec, fr.clock, c, fr.label)
            total_refs += c.l1_hits + c.l2_hits + c.l3_refs
            if fr.clock > max_clock:
                max_clock = fr.clock
            if fr.clock < 0.0:
                self._report("clock-monotone", fr.label,
                             f"negative end clock {fr.clock}")
            if fr.snap_start is not None and fr.snap_end is not None:
                delta = fr.snap_end.delta(fr.snap_start)
                self.check_counters(delta, f"{fr.label}.window")
                if delta.cycles < 0.0:
                    self._report("window-monotone", fr.label,
                                 f"measurement window has negative span "
                                 f"{delta.cycles}")

        if total_refs != result.events:
            self._report(
                "event-conservation", "machine",
                f"sum of per-flow references {total_refs} != "
                f"engine event count {result.events}")
        if result.end_clock != max_clock:
            self._report(
                "end-clock", "machine",
                f"result.end_clock={result.end_clock!r} != max flow "
                f"clock {max_clock!r}")

        # Measured statistics: physical rate bounds + window accounting.
        lat_dram = spec.lat_l3 + spec.lat_dram_extra
        for label in result.flow_labels:
            stats = result[label]
            d = stats.counts
            floor = (d.l1_hits * spec.lat_l1 + d.l2_hits * spec.lat_l2
                     + d.l3_hits * spec.lat_l3 + d.l3_misses * lat_dram)
            tol = self.rel_tol * max(abs(d.cycles), abs(floor), 1.0)
            if d.cycles + tol < floor:
                self._report(
                    "window-cycle-floor", label,
                    f"window cycles {d.cycles!r} below latency floor "
                    f"{floor!r}")
            if d.cycles > 0:
                max_refs_per_sec = spec.freq_hz / spec.lat_l3
                if stats.l3_refs_per_sec > max_refs_per_sec * (1 + 1e-9):
                    self._report(
                        "refs-rate-bound", label,
                        f"l3_refs_per_sec={stats.l3_refs_per_sec:.4g} "
                        f"exceeds physical bound "
                        f"{max_refs_per_sec:.4g}")

        self.check_caches(machine)
        if self.check_occupancy:
            self.check_occupancy_partition(machine)

    def after_run(self, machine, result) -> None:
        """Engine hook: run the full audit; raise when strict."""
        self.runs_checked += 1
        self.check_machine(machine, result)
        if self.strict:
            self.raise_if_failed()
