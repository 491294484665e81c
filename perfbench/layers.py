"""Outside-in layer tracing: spans around calls into each layer's public
functions, installed from the benchmark's own files.

Nothing inside ``src/`` is changed. ``install`` wraps public functions
and methods of the already-imported program:

* always: ``Machine.run``, to hand each finished run to the
  :class:`~workloads.RunCollector` the output check reads (one call per
  simulated run, no timing);
* with tracing on, additionally a timed span around ``Machine.add_flow``
  (table construction), the outermost flow's ``run_packet`` as the
  machine calls it (packet generation), ``Machine.run``, the SLO guard's
  and the invariant checker's observer hooks, admission, and the ``core``
  entry points the experiments call.

A span's self time is its duration minus the durations of the spans it
encloses, so the replay loop's time is ``Machine.run``'s self time.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List

from workloads import RunCollector

#: Module-level functions timed as spans: (module, function, span name).
_FUNCTION_SPANS = (
    ("repro.core.profiler", "profile_solo", "core.profile_solo"),
    ("repro.core.prediction", "sweep_sensitivity", "core.sweep_sensitivity"),
    ("repro.core.validation", "measure_drop", "core.measure_drop"),
    ("repro.check.scenarios", "generate", "check.generate"),
)

#: Methods timed as spans: (module, class, method, span name).
_METHOD_SPANS = (
    ("repro.guard.admission", "AdmissionController", "evaluate",
     "guard.admission"),
    ("repro.guard.supervisor", "SLOGuard", "on_sample", "guard.observe"),
    ("repro.guard.supervisor", "SLOGuard", "after_run", "guard.observe"),
    ("repro.check.invariants", "InvariantChecker", "check_window",
     "check.observe"),
    ("repro.check.invariants", "InvariantChecker", "after_run",
     "check.audit"),
)


class Ledger:
    """Span totals: calls, inclusive and self seconds per span name."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        #: Child-span seconds accumulated by each open span.
        self._stack: List[float] = [0.0]
        self.counts: Dict[str, float] = {}

    def span(self, name: str, fn):
        stack = self._stack
        calls = self.calls
        total = self.total
        self_s = self.self_s
        for table in (calls, total, self_s):
            table.setdefault(name, 0)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                children = stack.pop()
                stack[-1] += took
                calls[name] += 1
                total[name] += took
                self_s[name] += took - children

        return timed

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def _replace_everywhere(original, replacement) -> None:
    """Rebind ``original`` in every loaded ``repro`` module namespace
    (callers that did ``from module import name`` hold their own
    reference)."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(collector: RunCollector, trace: bool):
    """Patch the program; returns the :class:`Ledger` (None untraced)."""
    from repro.hw.machine import Machine

    run = Machine.run
    if not trace:
        def collected_run(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            collector.record(self, result)
            return result

        Machine.run = collected_run
        return None

    import importlib

    ledger = Ledger()
    for module_name, func, span in _FUNCTION_SPANS:
        module = importlib.import_module(module_name)
        original = getattr(module, func)
        _replace_everywhere(original, ledger.span(span, original))
    for module_name, cls_name, method, span in _METHOD_SPANS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, method, ledger.span(span, getattr(cls, method)))
    from repro.check.invariants import InvariantChecker
    from repro.guard.supervisor import SLOGuard

    _count_after_run(ledger, SLOGuard, lambda g: {
        "guard.windows": g.windows_observed, "guard.events": len(g.events)})
    _count_after_run(ledger, InvariantChecker, lambda c: {
        "check.windows": c.windows_checked,
        "check.violations": len(c.violations)})

    generated = [0]

    def timed_generation(fn):
        def run_packet(ctx):
            out = fn(ctx)
            if not ctx.is_idle:
                generated[0] += 1
            return out

        return ledger.span("apps.generate", run_packet)

    add_flow = ledger.span("apps.construct", Machine.add_flow)

    def traced_add_flow(self, *args, **kwargs):
        fr = add_flow(self, *args, **kwargs)
        # The machine calls ``fr.flow.run_packet``: shadow it on the
        # instance so only the outermost flow's generation is timed.
        fr.flow.run_packet = timed_generation(fr.flow.run_packet)
        return fr

    timed_run = ledger.span("hw.run", run)

    def traced_run(self, *args, **kwargs):
        result = timed_run(self, *args, **kwargs)
        collector.record(self, result)
        for fr in self.flows:
            for field in ("packets", "l1_hits", "l2_hits", "l3_refs",
                          "l3_hits", "l3_misses", "remote_refs",
                          "mc_wait_cycles"):
                ledger.count("hw." + field, getattr(fr.counters, field))
        ledger.count("hw.refs", result.events)
        ledger.counts["apps.generate.packets"] = generated[0]
        return result

    Machine.add_flow = traced_add_flow
    Machine.run = traced_run
    return ledger


def _count_after_run(ledger: Ledger, cls, read) -> None:
    after_run = cls.after_run

    def counted(self, machine, result):
        out = after_run(self, machine, result)
        for name, value in read(self).items():
            ledger.count(name, value)
        return out

    cls.after_run = counted


def layer_metrics(ledger: Ledger, wall_s: float,
                  scale: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass that took ``wall_s``.

    Times are multiplied by ``scale``, the pass's ratio of reference-speed
    to measured time, so they add up to its reference-speed ``wall_s``.
    """
    t = ledger.total
    s = ledger.self_s
    n = ledger.calls
    c = ledger.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    refs = c.get("hw.refs", 0)
    packets = c.get("hw.packets", 0)
    l1_hits = c.get("hw.l1_hits", 0)
    l3_refs = c.get("hw.l3_refs", 0)
    misses = c.get("hw.l3_misses", 0)
    generated = c.get("apps.generate.packets", 0)
    stream = _stream_cache_stats()
    observe = (s["guard.observe"] + s["check.observe"] + s["check.audit"])
    out: Dict[str, Any] = {
        "apps.construct.s": t["apps.construct"],
        "apps.construct.calls": n["apps.construct"],
        "apps.generate.s": t["apps.generate"],
        "apps.generate.calls": n["apps.generate"],
        "apps.generate.us_per_packet":
            1e6 * ratio(t["apps.generate"], n["apps.generate"]),
        "apps.generate.reuse_frac":
            1.0 - ratio(generated, packets) if packets else 0.0,
        "fastpath.stream_hits": stream["hits"],
        "fastpath.stream_misses": stream["misses"],
        "fastpath.stream_refs": stream["refs"],
        "hw.run.s": t["hw.run"],
        "hw.replay.s": s["hw.run"],
        "hw.replay.ns_per_ref": 1e9 * ratio(s["hw.run"], refs),
        "core.profile_solo.s": t["core.profile_solo"],
        "core.profile_solo.calls": n["core.profile_solo"],
        "core.sweep_sensitivity.s": t["core.sweep_sensitivity"],
        "core.sweep_sensitivity.calls": n["core.sweep_sensitivity"],
        "core.measure_drop.s": t["core.measure_drop"],
        "core.measure_drop.calls": n["core.measure_drop"],
        "guard.admission.s": t["guard.admission"],
        "guard.observe.s": s["guard.observe"],
        "guard.windows": c.get("guard.windows", 0),
        "guard.events": c.get("guard.events", 0),
        "check.observe.s": s["check.observe"],
        "check.audit.s": s["check.audit"],
        "check.windows": c.get("check.windows", 0),
        "check.violations": c.get("check.violations", 0),
        "check.generate.s": t["check.generate"],
        "hw.refs": refs,
        "hw.packets": packets,
        "hw.l1_hit_ratio": ratio(l1_hits, refs),
        "hw.l2_hit_ratio": ratio(c.get("hw.l2_hits", 0), refs - l1_hits),
        "hw.l3_hit_ratio": ratio(c.get("hw.l3_hits", 0), l3_refs),
        "hw.l3_refs_per_packet": ratio(l3_refs, packets),
        "hw.mc_wait_cycles_per_miss":
            ratio(c.get("hw.mc_wait_cycles", 0), misses),
        "hw.remote_frac": ratio(c.get("hw.remote_refs", 0), misses),
    }
    # What the traced wall time went to: every self time the benchmark
    # attributes, and the remainder (experiment harness code, result
    # assembly, span bookkeeping).
    accounted = (s["apps.construct"] + s["apps.generate"] + s["hw.run"]
                 + observe + s["guard.admission"])
    out["trace.other.s"] = wall_s - accounted
    for key in out:
        if key.endswith((".s", ".us_per_packet", ".ns_per_ref")):
            out[key] *= scale
    return out


def _stream_cache_stats() -> Dict[str, int]:
    # Read the stream cache only if the program loaded it: importing it
    # here would pull numpy into a scalar-only process.
    streams = sys.modules.get("repro.fastpath.streams")
    if streams is None:
        return {"hits": 0, "misses": 0, "refs": 0}
    cache = streams.STREAM_CACHE
    return {"hits": cache.hits, "misses": cache.misses,
            "refs": cache.total_refs}
