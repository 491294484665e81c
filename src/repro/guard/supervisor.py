"""The runtime supervisor: monitor, escalate, contain, recover.

An :class:`SLOGuard` attaches to a :class:`~repro.hw.machine.Machine`
through the engines' metrics-sampler protocol — the same packet-boundary
hook the invariant engine uses — so it observes live per-flow windows
(packets/sec, L3 refs/sec) under both the scalar and batch engines at
identical points of the interleaving. Probes stack: the guard wraps
whatever sampler (or invariant probe) is already installed and forwards
to it, and each keeps its own window cadence.

Per window the guard:

* derives each flow's interval rates and, when no offline baseline was
  declared, self-calibrates one from the flow's first window(s);
* detects *solo-profile deviation* (the paper's two-faced symptom): a
  flow whose live refs/sec exceeds its declared solo rate by more than
  ``deviation_tolerance``;
* checks each declared SLO (measured drop vs. the flow's baseline
  throughput) and, on a breach, escalates against the most deviant
  co-runner with a control surface (:class:`~repro.guard.wrappers
  .GuardedFlow`): **warn → tighten** (halve the throttle target, with a
  quiet period that doubles per rung — hysteresis plus exponential
  backoff of re-tightening) **→ quarantine** (bounded suspension);
* recovers gracefully: after ``recover_windows`` consecutive calm
  windows on every SLO'd flow the most-escalated throttle is relaxed
  step-wise and finally restored.

Every transition is a structured :class:`GuardEvent`, mirrored to the
tracer (``kind="guard"``) when tracing is active, and summarized into a
``kind="guard"`` :class:`~repro.obs.RunReport` whose ``results.schema``
is ``repro.guard_report/1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs.metrics import MetricsProbe
from .slo import GUARD_SCHEMA, slo_map

#: Window cadence in simulated cycles (an attached sampler keeps its own).
DEFAULT_GUARD_INTERVAL = 40_000.0


@dataclass
class GuardConfig:
    """Escalation-ladder and monitoring knobs of one guard."""

    #: Window cadence in cycles, independent of any attached sampler.
    interval_cycles: float = DEFAULT_GUARD_INTERVAL
    #: Live refs/sec over baseline refs/sec beyond which a flow counts
    #: as deviating from its solo profile (two-faced symptom).
    deviation_tolerance: float = 1.3
    #: Multiplier applied to the throttle target per tightening rung.
    tighten_factor: float = 0.5
    #: Tightenings before the ladder escalates to quarantine.
    max_tightenings: int = 3
    #: Quiet period after an action before the next tightening; doubles
    #: per rung (hysteresis + exponential backoff of re-tightening).
    backoff_cycles: float = 80_000.0
    #: Length of one quarantine suspension (cycles).
    quarantine_cycles: float = 1_500_000.0
    #: Throttle-target floor, as a fraction of the baseline refs/sec.
    min_limit_frac: float = 0.05
    #: A window only counts as calm below ``slo * release_margin``.
    release_margin: float = 0.7
    #: Consecutive calm windows (every SLO'd flow) before one relax step.
    recover_windows: int = 4
    #: Multiplier applied to the throttle target per relax step.
    relax_factor: float = 1.5
    #: Windows used to self-calibrate a missing baseline.
    calibrate_windows: int = 1
    #: Leading windows exempt from SLO checks (cold-cache ramp-up).
    skip_windows: int = 1
    #: False: monitor and record violations, never act (the unguarded
    #: comparison run of the containment demo).
    enforce: bool = True

    def __post_init__(self) -> None:
        if self.interval_cycles <= 0:
            raise ValueError("interval_cycles must be positive")
        if self.deviation_tolerance <= 1.0:
            raise ValueError("deviation_tolerance must exceed 1.0")
        if not 0.0 < self.tighten_factor < 1.0:
            raise ValueError("tighten_factor must be in (0, 1)")
        if self.max_tightenings < 1:
            raise ValueError("need at least one tightening rung")
        if self.backoff_cycles < 0 or self.quarantine_cycles <= 0:
            raise ValueError("backoff/quarantine cycles out of range")
        if self.relax_factor <= 1.0:
            raise ValueError("relax_factor must exceed 1.0")
        if not 0.0 < self.release_margin <= 1.0:
            raise ValueError("release_margin must be in (0, 1]")
        if self.skip_windows < 0 or self.calibrate_windows < 1:
            raise ValueError("window counts out of range")


@dataclass(frozen=True)
class GuardEvent:
    """One structured guard action or observation."""

    clock: float              #: simulated cycles of the triggering window
    flow: str                 #: flow label the event concerns
    action: str               #: baseline/deviation/violation/warn/tighten/
                              #: quarantine/relax/restore
    rung: int                 #: the flow's escalation rung after the event
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"clock": self.clock, "flow": self.flow,
                "action": self.action, "rung": self.rung,
                "detail": dict(self.detail)}

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return (f"[guard] {self.action} {self.flow} rung={self.rung} "
                f"@clock={self.clock:.0f}" + (f" {extra}" if extra else ""))


#: Actions that change a flow's containment state (vs. observations).
CONTAINMENT_ACTIONS = ("tighten", "quarantine")


@dataclass
class _FlowState:
    """Per-flow monitoring and escalation state."""

    index: int
    label: str
    slo: Optional[float] = None
    baseline_pps: Optional[float] = None
    baseline_refs: Optional[float] = None
    control: Any = None
    last_clock: float = 0.0
    last_packets: int = 0
    last_refs: int = 0
    windows: int = 0
    pps: float = 0.0
    refs_rate: float = 0.0
    drop: Optional[float] = None
    deviation: Optional[float] = None
    breach_windows: int = 0
    calm_windows: int = 0
    violation_events: int = 0
    rung: int = 0
    last_action_clock: float = float("-inf")
    deviant_reported: bool = False
    #: Victim window history: ``(clock, drop)`` per observed window.
    drops: List[Tuple[float, float]] = field(default_factory=list)


class _GuardProbe(MetricsProbe):
    """Sampler-protocol adapter feeding windows to the supervisor at the
    guard's own interval, whatever sampler it wraps (see
    :class:`~repro.obs.metrics.MetricsProbe`)."""

    def __init__(self, guard: "SLOGuard", inner=None):
        super().__init__(guard.config.interval_cycles, inner)
        self._guard = guard

    def _begin_run(self, machine) -> None:
        self._guard._begin_run(machine)

    def _observe(self, flow_index: int, clock: float, counters) -> None:
        self._guard.on_sample(flow_index, clock, counters)


class SLOGuard:
    """Online SLO supervisor; attach via ``Machine(..., guard=...)``."""

    def __init__(self, slos=None, baselines=None,
                 config: Optional[GuardConfig] = None, admission=None):
        #: ``{label: max_drop}`` — the declared SLOs.
        self.slos: Dict[str, float] = slo_map(slos or {})
        #: ``{label: (solo_pps, solo_refs_per_sec)}`` — offline profiles;
        #: flows without one self-calibrate from their first window(s).
        self.baselines: Dict[str, Tuple[float, float]] = dict(
            baselines or {})
        self.config = config if config is not None else GuardConfig()
        #: Optional :class:`~repro.guard.admission.AdmissionDecision`
        #: embedded in the report (how the mix got admitted).
        self.admission = admission
        self.events: List[GuardEvent] = []
        self.states: List[_FlowState] = []
        self.freq_hz = 0.0
        self.runs = 0
        self.windows_observed = 0
        self.last_containment_clock: Optional[float] = None
        self._result = None
        self._tracer = None

    # -- engine hooks --------------------------------------------------------

    def install(self, machine) -> None:
        """Wrap ``machine.metrics`` with the guard's window probe."""
        machine.metrics = _GuardProbe(self, machine.metrics)

    def _begin_run(self, machine) -> None:
        self.runs += 1
        self.freq_hz = machine.spec.freq_hz
        tracer = machine.tracer
        self._tracer = tracer if tracer.active else None
        self.states = []
        for fr in machine.flows:
            st = _FlowState(index=fr.index, label=fr.label)
            st.slo = self.slos.get(fr.label)
            base = self.baselines.get(fr.label)
            if base is not None:
                st.baseline_pps, st.baseline_refs = base
            if getattr(fr.flow, "guard_controllable", False):
                st.control = fr.flow
            self.states.append(st)

    def _emit(self, clock: float, st: _FlowState, action: str,
              **detail: Any) -> None:
        event = GuardEvent(clock=clock, flow=st.label, action=action,
                           rung=st.rung, detail=detail)
        self.events.append(event)
        if action in CONTAINMENT_ACTIONS:
            self.last_containment_clock = clock
        if self._tracer is not None:
            self._tracer.guard(st.index, clock, action, rung=st.rung,
                               **detail)

    # -- one observation window ---------------------------------------------

    def on_sample(self, flow_index: int, clock: float, counters) -> None:
        """Process one flow's packet-boundary window."""
        st = self.states[flow_index]
        d_clock = clock - st.last_clock
        if d_clock <= 0:
            return
        d_packets = counters.packets - st.last_packets
        d_refs = counters.l3_refs - st.last_refs
        st.last_clock = clock
        st.last_packets = counters.packets
        st.last_refs = counters.l3_refs
        st.windows += 1
        self.windows_observed += 1
        seconds = d_clock / self.freq_hz
        st.pps = d_packets / seconds
        st.refs_rate = d_refs / seconds
        cfg = self.config

        if st.baseline_pps is None or st.baseline_refs is None:
            # Self-calibration: the flow's first window(s) stand in for
            # its solo profile (good enough to catch *later* deviation;
            # offline profiles via ``baselines`` are strictly better).
            if st.windows >= cfg.calibrate_windows and d_packets > 0:
                st.baseline_pps = st.pps
                st.baseline_refs = st.refs_rate
                self._emit(clock, st, "baseline", pps=st.pps,
                           refs_per_sec=st.refs_rate, windows=st.windows)
            return

        if st.baseline_refs > 0:
            st.deviation = st.refs_rate / st.baseline_refs
            if (st.deviation > cfg.deviation_tolerance
                    and not st.deviant_reported):
                st.deviant_reported = True
                self._emit(clock, st, "deviation",
                           refs_per_sec=st.refs_rate,
                           baseline_refs_per_sec=st.baseline_refs,
                           ratio=st.deviation)

        if st.slo is None or not st.baseline_pps:
            return
        if st.windows <= cfg.skip_windows:
            # A flow's first window(s) run against cold caches; judged
            # against a steady-state baseline they would read as phantom
            # violations.
            return
        st.drop = 1.0 - st.pps / st.baseline_pps
        st.drops.append((clock, st.drop))
        if st.drop > st.slo:
            st.breach_windows += 1
            st.calm_windows = 0
            st.violation_events += 1
            self._emit(clock, st, "violation", drop=st.drop, slo=st.slo)
            if cfg.enforce:
                for aggressor in self._deviant_aggressors(st):
                    self._escalate(aggressor, clock, victim=st)
        elif st.drop <= st.slo * cfg.release_margin:
            st.calm_windows += 1
            if cfg.enforce:
                self._maybe_relax(clock)

    # -- escalation ladder ---------------------------------------------------

    def _deviant_aggressors(self, victim: _FlowState) -> List[_FlowState]:
        """Solo-profile-deviant controllable co-runners, worst first.

        Every deviant gets its own ladder step per violation window —
        each on its own per-flow hysteresis clock — so a pack of
        aggressors is contained in parallel, not one at a time.
        """
        tolerance = self.config.deviation_tolerance
        out = [st for st in self.states
               if st is not victim and st.control is not None
               and st.deviation is not None and st.deviation > tolerance]
        out.sort(key=lambda st: (-st.deviation, st.index))
        return out

    def _escalate(self, st: _FlowState, clock: float,
                  victim: _FlowState) -> None:
        cfg = self.config
        flow = st.control
        if st.rung == 0:
            st.rung = 1
            st.last_action_clock = clock
            self._emit(clock, st, "warn", refs_per_sec=st.refs_rate,
                       victim=victim.label)
            return
        # Hysteresis: each rung must stay quiet twice as long as the
        # previous one before the ladder tightens again.
        quiet = cfg.backoff_cycles * (2.0 ** (st.rung - 1))
        if clock - st.last_action_clock < quiet:
            return
        if st.rung <= cfg.max_tightenings:
            current = flow.limit_refs_per_sec
            if current is None:
                current = st.refs_rate if st.refs_rate > 0 \
                    else st.baseline_refs
            floor = (st.baseline_refs or current) * cfg.min_limit_frac
            limit = max(current * cfg.tighten_factor, floor)
            flow.set_limit(limit)
            st.rung += 1
            flow.rung = st.rung
            st.last_action_clock = clock
            self._emit(clock, st, "tighten", limit_refs_per_sec=limit,
                       victim=victim.label)
            return
        if flow.suspended_until <= clock:
            until = clock + cfg.quarantine_cycles
            flow.suspend_until(until)
            st.rung = cfg.max_tightenings + 2
            flow.rung = st.rung
            st.last_action_clock = clock
            self._emit(clock, st, "quarantine", until_clock=until,
                       victim=victim.label)

    def _maybe_relax(self, clock: float) -> None:
        """One graceful-degradation step when every SLO'd flow is calm."""
        cfg = self.config
        victims = [s for s in self.states
                   if s.slo is not None and s.baseline_pps]
        if not victims:
            return
        if any(s.calm_windows < cfg.recover_windows for s in victims):
            return
        target: Optional[_FlowState] = None
        for st in self.states:
            if st.control is None \
                    or st.control.limit_refs_per_sec is None:
                continue
            if target is None or st.rung > target.rung:
                target = st
        if target is None:
            return
        flow = target.control
        limit = flow.limit_refs_per_sec * cfg.relax_factor
        base = target.baseline_refs or limit
        target.last_action_clock = clock
        if limit >= base:
            flow.release()
            target.rung = 0
            flow.rung = 0
            target.deviant_reported = False
            self._emit(clock, target, "restore")
        else:
            flow.set_limit(limit)
            self._emit(clock, target, "relax", limit_refs_per_sec=limit)
        # Hysteresis on recovery too: the next relax step needs a fresh
        # run of calm windows.
        for st in victims:
            st.calm_windows = 0

    # -- end of run ----------------------------------------------------------

    def after_run(self, machine, result) -> None:
        """Engine hook: keep the result for the final summary."""
        self._result = result

    @property
    def unhandled(self) -> List[str]:
        """Breach windows the guard failed to observe and record.

        The fuzz contract: every window-level SLO breach must have
        produced at least a ``violation`` event. Non-empty means the
        guard itself misbehaved.
        """
        out: List[str] = []
        for st in self.states:
            missing = st.breach_windows - st.violation_events
            if missing > 0:
                out.append(f"{st.label}: {missing} breach window(s) "
                           "without a guard event")
        return out

    def post_containment_drop(self, label: str) -> Optional[float]:
        """Mean windowed drop of ``label`` after the last containment.

        None when the flow has no SLO windows or nothing was contained
        (or no window completed after the last containment action).
        """
        if self.last_containment_clock is None:
            return None
        for st in self.states:
            if st.label != label:
                continue
            tail = [drop for clock, drop in st.drops
                    if clock > self.last_containment_clock]
            if not tail:
                return None
            return sum(tail) / len(tail)
        return None

    def flow_summaries(self) -> List[Dict[str, Any]]:
        """Per-flow end-of-run verdicts (the report's ``flows`` payload)."""
        out: List[Dict[str, Any]] = []
        result = self._result
        for st in self.states:
            row: Dict[str, Any] = {
                "label": st.label,
                "slo": st.slo,
                "windows": st.windows,
                "breach_windows": st.breach_windows,
                "baseline_pps": st.baseline_pps,
                "baseline_refs_per_sec": st.baseline_refs,
            }
            if st.control is not None:
                row["control"] = st.control.stats()
            if st.slo is not None and st.baseline_pps:
                overall = None
                if result is not None and st.label in result.stats:
                    measured = result[st.label].packets_per_sec
                    overall = 1.0 - measured / st.baseline_pps
                post = self.post_containment_drop(st.label)
                row["drop_overall"] = overall
                row["drop_post_containment"] = post
                final = post if post is not None else overall
                row["ok"] = final is not None and final <= st.slo
            out.append(row)
        return out

    def payload(self) -> Dict[str, Any]:
        """The guard's structured outcome (``results`` of the report)."""
        doc: Dict[str, Any] = {
            "schema": GUARD_SCHEMA,
            "enforce": self.config.enforce,
            "windows_observed": self.windows_observed,
            "contained": self.last_containment_clock is not None,
            "last_containment_clock": self.last_containment_clock,
            "events": [e.to_dict() for e in self.events],
            "flows": self.flow_summaries(),
            "unhandled": self.unhandled,
        }
        if self.admission is not None:
            doc["admission"] = self.admission.to_dict()
        return doc

    @property
    def ok(self) -> bool:
        """True when every SLO'd flow ends within its SLO (post-
        containment when containment happened) and nothing went
        unhandled."""
        if self.unhandled:
            return False
        return all(row.get("ok", True) for row in self.flow_summaries())

    def report(self, command: str = "", spec=None, config=None):
        """This run as a ``kind="guard"`` RunReport."""
        from ..obs.report import RunReport

        report = RunReport.new("guard", spec=spec, config=config,
                               command=command)
        if self._result is not None:
            report.add_result_flows(self._result)
            if spec is None:
                report.platform = _platform(self._result.spec)
                report.scale = self._result.spec.scale
        report.results = self.payload()
        return report


def _platform(spec):
    from ..obs.report import platform_dict

    return platform_dict(spec)
