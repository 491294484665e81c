"""Pinned outcomes of the scalar engine's core interleaving.

Each case runs a small machine on ``engine="scalar"`` and digests every
flow's end-of-run clock, scalar counters and per-tag L3 counts, plus the
run's reference count. Cases that have more to observe add it to the
digest: packet latencies, trace events, sampled series, or another flow's
clock and L3 references as seen from flow 0's observation windows (what
``GuardedFlow.set_limit`` reads when the SLO guard retargets an aggressor
in the middle of its packet).

The digests were recorded from the engine before its reference loop was
rewritten around per-flow cursors. Any change to which core runs when,
the tie rule, or when counters and clocks become visible to observers
changes a digest. A loop rewrite must pass them unchanged; never
re-record them to make one pass.
"""

import hashlib
import json
import math

import pytest

from repro.apps.ipforward import DecIPTTL, RadixIPLookup
from repro.apps.registry import app_factory
from repro.apps.synthetic import syn_factory, syn_max_factory
from repro.click.elements.checkipheader import CheckIPHeader
from repro.click.handoff import build_pipelined_flow
from repro.core.throttling import throttled_factory
from repro.guard.wrappers import guarded_factory
from repro.hw.counters import SCALAR_FIELDS
from repro.hw.machine import Machine
from repro.hw.topology import PlatformSpec
from repro.mem.access import TAGS
from repro.net.flowgen import UniformRandomTraffic
from repro.obs.metrics import MetricsSampler
from repro.obs.trace import ListSink, Tracer

SPEC = PlatformSpec.westmere().scaled(64)
WARMUP = 50
MEASURE = 100


class StrideFlow:
    """Touches ``n_lines`` consecutive lines per packet, ``gap`` apart."""

    name = "stride"

    def __init__(self, env, n_lines=8, gap=50):
        self.region = env.space.domain(env.domain).alloc(1 << 16, "arr")
        self.n_lines = n_lines
        self.gap = gap
        self._pos = 0

    def run_packet(self, ctx):
        base = self.region.base >> 6
        for _ in range(self.n_lines):
            ctx.compute(self.gap, 10)
            ctx.touch_line(base + self._pos)
            self._pos = (self._pos + 1) % self.region.n_lines
        return None


class DmaFlow:
    """Reads a small buffer; the NIC rewrites (invalidates) it per packet."""

    name = "dma"

    def __init__(self, env):
        self.region = env.space.domain(env.domain).alloc(512, "rx")

    def run_packet(self, ctx):
        ctx.compute(20, 10)
        ctx.touch(self.region, 0, 512)
        base = self.region.base >> 6
        return [base + k for k in range(0, 8, 2)]


class ComputeOnlyEveryThird:
    """Every third packet makes no memory reference, only a trailing gap."""

    name = "computer"

    def __init__(self, env):
        self.region = env.space.domain(env.domain).alloc(8192, "y")
        self._step = 0

    def run_packet(self, ctx):
        self._step += 1
        if self._step % 3 == 0:
            ctx.compute(300, 100)
            return None
        ctx.compute(15, 5)
        ctx.touch(self.region, (self._step * 64) % 8192, 64)
        ctx.compute(40, 10)
        return None


class CrossFlowProbe:
    """Sampler-protocol observer that, at each of flow 0's windows,
    records another flow's published clock and L3 reference count."""

    def __init__(self, interval_cycles, other=1):
        self.interval = interval_cycles
        self.other = other
        self.next_due = []
        self.seen = []
        self._flows = None

    def begin(self, machine):
        self._flows = machine.flows
        self.next_due[:] = [self.interval] + [math.inf] * (
            len(machine.flows) - 1)

    def sample(self, flow_index, clock, counters):
        other = self._flows[self.other]
        self.seen.append((flow_index, clock, counters.l3_refs,
                          other.clock, other.counters.l3_refs))
        due = self.next_due[flow_index]
        while due <= clock:
            due += self.interval
        self.next_due[flow_index] = due

    def finish(self, flows):
        pass


def _flow_state(machine):
    out = []
    for fr in machine.flows:
        c = fr.counters
        tags = {TAGS.name(t): [c.tag_refs[t], c.tag_hits[t]]
                for t in range(len(c.tag_refs))
                if c.tag_refs[t] or c.tag_hits[t]}
        out.append({"label": fr.label, "clock": fr.clock,
                    "fields": [getattr(c, f) for f in SCALAR_FIELDS],
                    "tags": tags})
    return out


def _digest(doc):
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _run(machine, **extra):
    result = machine.run(warmup_packets=WARMUP, measure_packets=MEASURE,
                         engine="scalar")
    doc = {"flows": _flow_state(machine), "events": result.events,
           "end_clock": result.end_clock}
    doc.update(extra)
    return machine, result, doc


def case_lone_flow():
    m = Machine(SPEC, seed=1)
    m.add_flow(app_factory("IP"), core=0)
    return _run(m)[2]


def case_ties_at_zero():
    m = Machine(SPEC, seed=2)
    for core in range(3):
        m.add_flow(StrideFlow, core=core, label=f"s{core}")
    return _run(m)[2]


def case_idle_and_empty_packets():
    m = Machine(SPEC, seed=3)
    guarded = m.add_flow(guarded_factory(syn_factory(cpu_ops_per_ref=20)),
                         core=0)
    guarded.flow.suspend_until(60_000)
    m.add_flow(ComputeOnlyEveryThird, core=1)
    m.add_flow(app_factory("MON"), core=2)
    machine, _, doc = _run(m)
    doc["idle_packets"] = machine.flows[0].flow.idle_packets
    return doc


def case_dma_invalidation():
    m = Machine(SPEC, seed=4)
    m.add_flow(DmaFlow, core=0)
    m.add_flow(StrideFlow, core=1)
    return _run(m)[2]


def case_remote_qpi():
    m = Machine(SPEC, seed=5)
    m.add_flow(app_factory("FW"), core=0, data_domain=1)
    m.add_flow(app_factory("MON"), core=1)
    m.add_flow(syn_max_factory(), core=SPEC.cores_per_socket, data_domain=0)
    return _run(m)[2]


def case_pipeline_handoff():
    m = Machine(SPEC, seed=6)

    def source(env):
        return UniformRandomTraffic(env.rng, payload_bytes=32,
                                    addr_bits=env.spec.address_bits)

    def stage0(env):
        elements = [CheckIPHeader(), RadixIPLookup(n_routes=200)]
        for e in elements:
            e.initialize(env)
        return elements

    def stage1(env):
        elements = [DecIPTTL()]
        for e in elements:
            e.initialize(env)
        return elements

    build_pipelined_flow(m, "p", source, [stage0, stage1], cores=[0, 1])
    m.add_flow(syn_max_factory(), core=2, measured=False)
    return _run(m)[2]


def case_throttled():
    m = Machine(SPEC, seed=7)
    m.add_flow(throttled_factory(syn_max_factory(), target_refs_per_sec=2e7,
                                 adjust_every=8), core=0)
    m.add_flow(app_factory("RE"), core=1)
    return _run(m)[2]


def case_record_latencies():
    m = Machine(SPEC, seed=8, record_latencies=True)
    m.add_flow(app_factory("VPN"), core=0)
    m.add_flow(app_factory("IP"), core=1)
    machine, _, doc = _run(m)
    doc["latencies"] = [fr.latencies for fr in machine.flows]
    return doc


def case_tracer():
    sink = ListSink()
    m = Machine(SPEC, seed=9,
                tracer=Tracer(sink, packet_sample=3, mem_sample=4))
    m.add_flow(app_factory("MON"), core=0)
    m.add_flow(syn_max_factory(), core=1)
    _, _, doc = _run(m)
    doc["trace"] = [e.to_dict() for e in sink.events]
    return doc


def case_sampler():
    sampler = MetricsSampler(interval_cycles=20_000)
    m = Machine(SPEC, seed=10, metrics=sampler)
    m.add_flow(app_factory("IP"), core=0)
    m.add_flow(app_factory("FW"), core=1)
    m.add_flow(syn_max_factory(), core=2, measured=False)
    _, _, doc = _run(m)
    doc["series"] = sampler.payload()
    return doc


def case_cross_flow_reads():
    probe = CrossFlowProbe(interval_cycles=10_000)
    m = Machine(SPEC, seed=11, metrics=probe)
    m.add_flow(app_factory("MON"), core=0)
    m.add_flow(syn_max_factory(), core=1)
    m.add_flow(StrideFlow, core=2)
    _, _, doc = _run(m)
    assert len(probe.seen) > 20
    doc["seen"] = probe.seen
    return doc


def _state_after_exceeding(machine, max_events):
    with pytest.raises(RuntimeError, match="exceeded"):
        machine.run(warmup_packets=WARMUP, measure_packets=MEASURE,
                    max_events=max_events, engine="scalar")
    return {"flows": _flow_state(machine),
            "packets": [fr.counters.packets for fr in machine.flows]}


def case_max_events_lone():
    m = Machine(SPEC, seed=12)
    m.add_flow(StrideFlow, core=0)
    return _state_after_exceeding(m, 1_000)


def case_max_events_multi():
    m = Machine(SPEC, seed=13)
    m.add_flow(app_factory("IP"), core=0)
    m.add_flow(syn_max_factory(), core=1)
    m.add_flow(StrideFlow, core=2)
    return _state_after_exceeding(m, 3_000)


CASES = {
    "lone_flow": case_lone_flow,
    "ties_at_zero": case_ties_at_zero,
    "idle_and_empty_packets": case_idle_and_empty_packets,
    "dma_invalidation": case_dma_invalidation,
    "remote_qpi": case_remote_qpi,
    "pipeline_handoff": case_pipeline_handoff,
    "throttled": case_throttled,
    "record_latencies": case_record_latencies,
    "tracer": case_tracer,
    "sampler": case_sampler,
    "cross_flow_reads": case_cross_flow_reads,
    "max_events_lone": case_max_events_lone,
    "max_events_multi": case_max_events_multi,
}

DIGESTS = {
    "cross_flow_reads":
        "14a5278dc145dffd8c59dfad13ed08da650f5fadc6ddf69d078a52f0e61244f5",
    "dma_invalidation":
        "7a79d98a4d47aef9acdff9796bbf41c4afe15163acbd13445319a15503daf288",
    "idle_and_empty_packets":
        "a10978d8c639f6f118e58a27038796c1721abc9698c4d087127e072fe2898eec",
    "lone_flow":
        "a87e251481f9e0ae4e7940e1acd96eaf8dd104eb528dddef6f479dc899e2c8c0",
    "max_events_lone":
        "89d2a485d3b752723c63ff64e18906b21efeff7c6128ed863fe1a91471e21777",
    "max_events_multi":
        "34b57c2e8e83bf8f1eca3ad69b2d542e17a36bd9ae39882013516b67d597e71a",
    "pipeline_handoff":
        "c1fe787b8ba1d14945d483d9feb7d7cfd242b03035db65b201ccd273ca290d8f",
    "record_latencies":
        "0e11c59cb2445c2e8dbcebb1dd84542208eb4fd7736ae7a3c5e94f263f2befdb",
    "remote_qpi":
        "c841c3cc8fb9f678deefde15c2b023fbbf256acb6ecc441b3f6c70777ed2b218",
    "sampler":
        "20a601589708954f53682eb9e6bd24e36f12286c3ebcfb485fa0db55d069ac1a",
    "throttled":
        "aec89a3e9e746a2bfdb2a265e8708d2cde835d97a8cb87660e5230d53bc3efbb",
    "ties_at_zero":
        "6c6c56287d9e69fb8fa6b0b7b687717e73c3f90cc6ee6c3c9a8a046e1f3ae820",
    "tracer":
        "e00f1e1038803697f72de0a6386253f729969567dbeb66a37e21a563ab320fc1",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_interleaving_is_pinned(name):
    assert _digest(CASES[name]()) == DIGESTS[name]
