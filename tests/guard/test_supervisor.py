"""Escalation-ladder fault injection at the window level.

These tests drive :class:`~repro.guard.supervisor.SLOGuard` through its
sampler-probe protocol with hand-crafted windows — no simulator — so
each ladder rung (warn → tighten → quarantine), the hysteresis clock,
and the recovery path can be exercised deterministically and in
isolation. A fake control surface records what the guard did to it.
"""

import pytest

from repro.guard.supervisor import (
    DEFAULT_GUARD_INTERVAL,
    GuardConfig,
    GuardEvent,
    SLOGuard,
    _GuardProbe,
)

pytestmark = pytest.mark.guard

FREQ = 1e9


class FakeControl:
    """Records every supervisor action; mimics GuardedFlow's surface."""

    guard_controllable = True

    def __init__(self):
        self.limit_refs_per_sec = None
        self.suspended_until = 0.0
        self.rung = 0
        self.limits = []
        self.suspensions = []
        self.releases = 0

    def set_limit(self, refs_per_sec):
        self.limit_refs_per_sec = refs_per_sec
        self.limits.append(refs_per_sec)

    def suspend_until(self, clock):
        self.suspended_until = clock
        self.suspensions.append(clock)

    def release(self):
        self.limit_refs_per_sec = None
        self.suspended_until = 0.0
        self.releases += 1

    def stats(self):
        return {"limit_refs_per_sec": self.limit_refs_per_sec,
                "rung": self.rung}


class _Counters:
    def __init__(self, packets=0, l3_refs=0):
        self.packets = packets
        self.l3_refs = l3_refs


class _FakeFlowRun:
    def __init__(self, index, label, flow):
        self.index = index
        self.label = label
        self.flow = flow


class _FakeMachine:
    def __init__(self, flows):
        import types

        self.flows = flows
        self.spec = types.SimpleNamespace(freq_hz=FREQ)
        self.tracer = types.SimpleNamespace(active=False)
        self.metrics = None


class Harness:
    """One victim (SLO'd, uncontrollable) + one controllable aggressor."""

    def __init__(self, config=None, victim_slo=0.1,
                 baselines=True, n_aggressors=1):
        self.control = [FakeControl() for _ in range(n_aggressors)]
        flows = [_FakeFlowRun(0, "V", object())]
        flows += [_FakeFlowRun(1 + i, f"A{i}", self.control[i])
                  for i in range(n_aggressors)]
        base = {}
        if baselines:
            base["V"] = (1e6, 10e6)
            for i in range(n_aggressors):
                base[f"A{i}"] = (1e6, 10e6)
        self.guard = SLOGuard(
            slos={"V": victim_slo}, baselines=base,
            config=config or GuardConfig(backoff_cycles=1.0,
                                         quarantine_cycles=1e6))
        self.probe = _GuardProbe(self.guard)
        self.probe.begin(_FakeMachine(flows))
        self.clock = 0.0
        self.counters = [_Counters() for _ in flows]

    def window(self, d_clock=100_000.0, victim_pps=None, victim_drop=None,
               aggressor_refs_ratio=2.0):
        """Advance every flow by one window of ``d_clock`` cycles."""
        self.clock += d_clock
        seconds = d_clock / FREQ
        if victim_pps is None:
            drop = 0.0 if victim_drop is None else victim_drop
            victim_pps = 1e6 * (1.0 - drop)
        self.counters[0].packets += int(victim_pps * seconds)
        self.counters[0].l3_refs += int(10e6 * seconds)
        self.probe.sample(0, self.clock, self.counters[0])
        for i, c in enumerate(self.counters[1:], start=1):
            c.packets += int(1e6 * seconds)
            c.l3_refs += int(10e6 * aggressor_refs_ratio * seconds)
            self.probe.sample(i, self.clock, c)

    def actions(self, flow=None):
        return [e.action for e in self.guard.events
                if flow is None or e.flow == flow]


def test_ladder_warn_then_tighten_then_quarantine():
    h = Harness()
    h.window(victim_drop=0.0)   # skip_windows ramp-up
    for _ in range(8):
        h.window(victim_drop=0.3)
    acts = h.actions("A0")
    # deviation observed, then the full ladder in order.
    assert acts[0] == "deviation"
    assert acts[1:6] == ["warn", "tighten", "tighten", "tighten",
                         "quarantine"]
    ctrl = h.control[0]
    # Each tightening halves the previous limit.
    assert len(ctrl.limits) == 3
    assert ctrl.limits[1] == pytest.approx(ctrl.limits[0] * 0.5)
    assert ctrl.limits[2] == pytest.approx(ctrl.limits[1] * 0.5)
    assert ctrl.suspensions and ctrl.suspended_until > h.clock - 1
    # The mirror rung on the control surface tracks the guard's ladder.
    state = h.guard.states[1]
    assert ctrl.rung == state.rung == h.guard.config.max_tightenings + 2


def test_first_tighten_seeds_limit_from_live_rate():
    h = Harness()
    h.window()
    for _ in range(3):
        h.window(victim_drop=0.3)
    ctrl = h.control[0]
    # First limit = tighten_factor x the aggressor's live refs/sec (2x base).
    assert ctrl.limits[0] == pytest.approx(0.5 * 20e6, rel=0.01)


def test_tighten_respects_min_limit_floor():
    cfg = GuardConfig(backoff_cycles=1.0, max_tightenings=30,
                      min_limit_frac=0.2, quarantine_cycles=1e6)
    h = Harness(config=cfg)
    h.window()
    for _ in range(40):
        h.window(victim_drop=0.3)
    floor = 10e6 * 0.2
    assert h.control[0].limits, "ladder never tightened"
    assert min(h.control[0].limits) >= floor * (1 - 1e-12)


def test_hysteresis_blocks_back_to_back_tightening():
    # Real backoff: rung 1 needs 300k quiet cycles before the first
    # tighten, rung 2 needs 600k, so 100k-cycle windows cannot ladder up
    # on consecutive windows.
    cfg = GuardConfig(backoff_cycles=300_000.0, quarantine_cycles=1e6)
    h = Harness(config=cfg)
    h.window()
    for _ in range(3):
        h.window(victim_drop=0.3)
    acts = h.actions("A0")
    assert acts.count("warn") == 1
    assert acts.count("tighten") == 0  # still inside the quiet period
    h.window(victim_drop=0.3)
    assert h.actions("A0").count("tighten") == 1


def test_exponential_backoff_doubles_quiet_period():
    cfg = GuardConfig(backoff_cycles=150_000.0, quarantine_cycles=1e9)
    h = Harness(config=cfg)
    h.window()
    tighten_clocks = []
    for _ in range(40):
        h.window(victim_drop=0.3)
    for e in h.guard.events:
        if e.action == "tighten":
            tighten_clocks.append(e.clock)
    assert len(tighten_clocks) >= 2
    gaps = [b - a for a, b in zip(tighten_clocks, tighten_clocks[1:])]
    # rung 2 -> 3 must wait at least twice the rung 1 -> 2 quiet period.
    assert gaps[0] >= 300_000.0 - 1e-6
    assert all(b >= a * 2 - 1e-6 for a, b in zip(gaps, gaps[1:]))


def test_recovery_relaxes_then_restores():
    cfg = GuardConfig(backoff_cycles=1.0, recover_windows=2,
                      relax_factor=4.0, quarantine_cycles=1e6)
    h = Harness(config=cfg)
    h.window()
    for _ in range(3):
        h.window(victim_drop=0.3)
    ctrl = h.control[0]
    assert ctrl.limit_refs_per_sec is not None
    # Calm windows (drop well under slo * release_margin) trigger the
    # relax ladder: limit x4 per step until it clears the baseline.
    for _ in range(12):
        h.window(victim_drop=0.0, aggressor_refs_ratio=0.9)
        if ctrl.releases:
            break
    acts = h.actions("A0")
    assert "restore" in acts
    assert ctrl.releases == 1
    assert ctrl.limit_refs_per_sec is None
    assert h.guard.states[1].rung == 0 and ctrl.rung == 0
    # Post-restore the deviation episode may be reported afresh.
    assert not h.guard.states[1].deviant_reported


def test_relax_steps_before_restore():
    cfg = GuardConfig(backoff_cycles=1.0, recover_windows=1,
                      relax_factor=1.5, quarantine_cycles=1e6)
    h = Harness(config=cfg)
    h.window()
    for _ in range(4):
        h.window(victim_drop=0.3)
    before = h.control[0].limit_refs_per_sec
    h.window(victim_drop=0.0, aggressor_refs_ratio=0.9)
    acts = h.actions("A0")
    assert "relax" in acts
    assert h.control[0].limit_refs_per_sec == pytest.approx(before * 1.5)


def test_monitor_only_mode_never_contains():
    cfg = GuardConfig(backoff_cycles=1.0, enforce=False,
                      quarantine_cycles=1e6)
    h = Harness(config=cfg)
    h.window()
    for _ in range(6):
        h.window(victim_drop=0.3)
    assert h.actions("V").count("violation") == 6
    assert not any(a in ("warn", "tighten", "quarantine", "relax",
                         "restore") for a in h.actions())
    ctrl = h.control[0]
    assert ctrl.limits == [] and ctrl.suspensions == []
    # Monitor-only runs still fail the end-of-run verdict...
    assert not h.guard.ok
    # ...but every breach window was observed and recorded.
    assert h.guard.unhandled == []


def test_skip_windows_exempts_ramp_up():
    h = Harness(config=GuardConfig(backoff_cycles=1.0, skip_windows=2,
                                   quarantine_cycles=1e6))
    h.window(victim_drop=0.9)
    h.window(victim_drop=0.9)
    assert h.actions("V") == []  # both inside the ramp-up exemption
    h.window(victim_drop=0.9)
    assert h.actions("V") == ["violation"]


def test_self_calibration_emits_baseline_event():
    h = Harness(baselines=False)
    h.window()
    acts = {e.flow: e.action for e in h.guard.events}
    assert acts == {"V": "baseline", "A0": "baseline"}
    st = h.guard.states[0]
    assert st.baseline_pps == pytest.approx(1e6, rel=0.01)
    # Later deviation is judged against the calibrated baseline.
    for _ in range(3):
        h.window(aggressor_refs_ratio=4.0)
    assert "deviation" in h.actions("A0")


def test_deviation_reported_once_per_episode():
    h = Harness()
    h.window()
    for _ in range(5):
        h.window(victim_drop=0.05)  # calm victim, deviant aggressor
    assert h.actions("A0").count("deviation") == 1


def test_unhandled_flags_unobserved_breaches():
    h = Harness()
    h.window()
    h.window(victim_drop=0.3)
    assert h.guard.unhandled == []
    # Fault injection: pretend a breach window produced no event.
    h.guard.states[0].breach_windows += 1
    assert h.guard.unhandled and "V" in h.guard.unhandled[0]
    assert not h.guard.ok


def test_quarantine_not_extended_while_active():
    cfg = GuardConfig(backoff_cycles=1.0, quarantine_cycles=5e6)
    h = Harness(config=cfg)
    h.window()
    for _ in range(12):
        h.window(victim_drop=0.3)
    assert len(h.control[0].suspensions) == 1


def test_escalation_targets_only_deviant_controllables():
    # Aggressor 0 deviates, aggressor 1 stays on profile: only 0 climbs.
    h = Harness(n_aggressors=2)

    def window(drop):
        h.clock += 100_000.0
        seconds = 100_000.0 / FREQ
        h.counters[0].packets += int(1e6 * (1 - drop) * seconds)
        h.counters[0].l3_refs += int(10e6 * seconds)
        h.probe.sample(0, h.clock, h.counters[0])
        for i, ratio in ((1, 3.0), (2, 1.0)):
            h.counters[i].packets += int(1e6 * seconds)
            h.counters[i].l3_refs += int(10e6 * ratio * seconds)
            h.probe.sample(i, h.clock, h.counters[i])

    window(0.0)
    for _ in range(4):
        window(0.3)
    assert "warn" in h.actions("A0")
    assert h.actions("A1") == []
    assert h.control[1].limits == []


def test_probe_without_sampler_runs_its_own_schedule():
    h = Harness()
    assert h.probe.next_due == [DEFAULT_GUARD_INTERVAL] * 2
    h.window(d_clock=DEFAULT_GUARD_INTERVAL)
    assert h.probe.next_due[0] == pytest.approx(2 * DEFAULT_GUARD_INTERVAL)


def test_probe_stacks_on_an_inner_sampler():
    calls = []

    class InnerSampler:
        def __init__(self):
            self.next_due = [123.0]

        def begin(self, machine):
            calls.append(("begin",))

        def sample(self, i, clock, counters):
            calls.append(("sample", i))
            self.next_due[i] = clock + 500.0

        def finish(self, flows):
            calls.append(("finish",))

    inner = InnerSampler()
    guard = SLOGuard(slos={}, baselines={})
    probe = _GuardProbe(guard, inner)
    assert probe.inner is inner
    machine = _FakeMachine([_FakeFlowRun(0, "V", object())])
    probe.begin(machine)
    # The probe keeps its own schedule; the engine reads the earlier of
    # the probe's and the inner sampler's deadlines.
    assert probe.next_due is not inner.next_due
    assert probe.next_due == [123.0]
    probe.sample(0, 1000.0, _Counters(packets=10, l3_refs=10))
    # Only the inner sampler was due: the guard saw no window.
    assert guard.windows_observed == 0
    assert probe.next_due[0] == 1500.0
    probe.sample(0, DEFAULT_GUARD_INTERVAL, _Counters(packets=50,
                                                      l3_refs=50))
    assert guard.windows_observed == 1
    assert probe.next_due[0] == DEFAULT_GUARD_INTERVAL + 500.0
    probe.finish([])
    assert calls == [("begin",), ("sample", 0), ("sample", 0),
                     ("finish",)]


def test_guard_event_round_trips_and_prints():
    e = GuardEvent(clock=12.0, flow="V", action="warn", rung=1,
                   detail={"x": 1})
    assert e.to_dict() == {"clock": 12.0, "flow": "V", "action": "warn",
                           "rung": 1, "detail": {"x": 1}}
    assert "[guard] warn V rung=1" in str(e)


@pytest.mark.parametrize("kwargs", [
    {"interval_cycles": 0},
    {"deviation_tolerance": 1.0},
    {"tighten_factor": 1.0},
    {"tighten_factor": 0.0},
    {"max_tightenings": 0},
    {"backoff_cycles": -1.0},
    {"quarantine_cycles": 0.0},
    {"relax_factor": 1.0},
    {"release_margin": 0.0},
    {"release_margin": 1.5},
    {"skip_windows": -1},
    {"calibrate_windows": 0},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        GuardConfig(**kwargs)


def test_payload_carries_schema_and_events():
    h = Harness()
    h.window()
    h.window(victim_drop=0.3)
    doc = h.guard.payload()
    assert doc["schema"] == "repro.guard_report/1"
    assert doc["contained"] is (h.guard.last_containment_clock is not None)
    assert doc["unhandled"] == []
    assert any(ev["action"] == "violation" for ev in doc["events"])
    labels = [row["label"] for row in doc["flows"]]
    assert labels == ["V", "A0"]
