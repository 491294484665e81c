"""The benchmark's workloads: inputs from a seed, the simulated work, and
the per-unit output documents the benchmark checks.

Importing this module imports only the standard library; ``prepare``
imports ``repro`` (that cost belongs to the workload's set-up time).

Every workload runs on the default path users get: the scalar engine,
serial execution, no sweep disk cache and an empty stream cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Callable, Dict, List, Optional, Tuple

WORKLOADS = ("corun_grid", "long_mix", "guarded_containment",
             "check_campaign")

#: ``--seed n`` selects simulation seed ``SIM_SEED_BASE + n % N_SIM_SEEDS``.
#: The output check needs recorded expected values for every simulation
#: seed a run can use, so the seed space is finite (see expected.json).
SIM_SEED_BASE = 0x5EED
N_SIM_SEEDS = 8

#: Master seed of the check campaign's scenario mixes. The mixes (apps,
#: wrappers, sockets, packet counts) stay fixed so the campaign's work does
#: not swing with the benchmark seed; the seed re-seeds each scenario's
#: traffic and tables.
CHECK_MASTER_SEED = 0x5EED

#: Workload parameters per size. ``full`` is what the benchmark measures;
#: ``tiny`` is what the self-tests run.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "corun_grid": {"apps": ["IP", "MON", "FW", "RE", "VPN"],
                       "n_competitors": 5, "scale": 64,
                       "solo_warmup": 200, "solo_measure": 200,
                       "corun_warmup": 120, "corun_measure": 120},
        "long_mix": {"scale": 64, "flows": 12, "warmup": 100,
                     "measure": 1000},
        "guarded_containment": {"scale": 64, "measure": 1600,
                                "profile_measure": 400},
        "check_campaign": {"scenarios": 16},
    },
    "tiny": {
        "corun_grid": {"apps": ["IP", "MON"], "n_competitors": 2,
                       "scale": 64, "solo_warmup": 60, "solo_measure": 60,
                       "corun_warmup": 50, "corun_measure": 50},
        "long_mix": {"scale": 64, "flows": 12, "warmup": 20,
                     "measure": 40},
        "guarded_containment": {"scale": 64, "measure": 400,
                                "profile_measure": 100},
        "check_campaign": {"scenarios": 3},
    },
}


def sim_seed(seed: int) -> int:
    """The simulation seed ``--seed`` selects."""
    return SIM_SEED_BASE + seed % N_SIM_SEEDS


def digest(doc: Any) -> str:
    """Content hash of a plain-JSON document (floats in full repr)."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclasses.dataclass
class Outcome:
    """What one simulated pass of a workload produced."""

    #: ``(name, plain-JSON document)`` per checked unit, in run order.
    units: List[Tuple[str, Any]]
    #: Simulated memory references (sum of ``RunResult.events``).
    events: int
    #: Simulated accuracy figures (``fig2b_mae_pp``, ``victim_drop_pct``).
    sim: Dict[str, float]
    #: unit name -> workload-specific check failures (violations, SLO).
    problems: Dict[str, List[str]]


class RunCollector:
    """Records every ``Machine.run`` of a pass as one output unit.

    The benchmark installs it (see ``layers.install``) by wrapping
    ``Machine.run``; it reads each finished machine's exact end-of-run
    counters, which is all the output check compares.
    """

    def __init__(self) -> None:
        self.units: List[Tuple[str, Any]] = []
        self.events = 0

    def record(self, machine, result) -> None:
        from repro.hw.counters import SCALAR_FIELDS

        flows = []
        for fr in machine.flows:
            row = {"label": fr.label, "clock": fr.clock,
                   "counters": {f: getattr(fr.counters, f)
                                for f in SCALAR_FIELDS}}
            stats = result.stats.get(fr.label)
            if stats is not None:
                row["window"] = {f: getattr(stats.counts, f)
                                 for f in SCALAR_FIELDS}
            flows.append(row)
        labels = ",".join(fr.label for fr in machine.flows)
        self.units.append((f"run{len(self.units):03d}[{labels}]", {
            "seed": machine.seed, "events": result.events,
            "end_clock": result.end_clock, "flows": flows}))
        self.events += result.events


# -- the workloads ------------------------------------------------------------


def _corun_grid(params, seed):
    """Fig 2 pairwise matrix: solo profiles plus target-vs-5x co-runs."""
    from repro.experiments import fig2
    from repro.experiments.common import ExperimentConfig

    config = ExperimentConfig(
        scale=params["scale"], seed=seed,
        solo_warmup=params["solo_warmup"],
        solo_measure=params["solo_measure"],
        corun_warmup=params["corun_warmup"],
        corun_measure=params["corun_measure"])
    apps = tuple(params["apps"])

    def simulate(collector: RunCollector) -> Outcome:
        result = fig2.run(config, apps=apps,
                          n_competitors=params["n_competitors"])
        averages = result.averages()
        drops = {f"{t}/{c}": d for (t, c), d in sorted(result.drops.items())}
        mae = sum(abs(100.0 * averages[a] - fig2.PAPER_FIG2B[a])
                  for a in apps) / len(apps)
        units = collector.units + [("fig2", {"drops": drops,
                                             "averages": averages})]
        return Outcome(units=units, events=collector.events,
                       sim={"fig2b_mae_pp": mae}, problems={})

    return simulate


def _long_mix(params, seed):
    """One 12-flow two-socket machine; every other flow's data is remote."""
    from repro.apps.registry import REALISTIC_APPS, app_factory
    from repro.hw.machine import Machine
    from repro.hw.topology import PlatformSpec

    spec = PlatformSpec.westmere().scaled(params["scale"])
    placement = []
    for core in range(params["flows"]):
        socket = spec.socket_of(core)
        remote = core % 2 == 1
        placement.append((REALISTIC_APPS[core % len(REALISTIC_APPS)], core,
                          spec.n_sockets - 1 - socket if remote else socket))

    def simulate(collector: RunCollector) -> Outcome:
        machine = Machine(spec, seed=seed)
        for app, core, domain in placement:
            machine.add_flow(app_factory(app), core=core, data_domain=domain)
        machine.run(warmup_packets=params["warmup"],
                    measure_packets=params["measure"])
        return Outcome(units=list(collector.units), events=collector.events,
                       sim={}, problems={})

    return simulate


def _guarded_containment(params, seed):
    """``repro-guard --inject two-faced``: predictor build, admission and
    the guarded run, with no checker or sampler attached (as the CLI)."""
    from repro.guard.demo import DemoConfig, run_demo, victim_verdict

    config = DemoConfig(scale=params["scale"], seed=seed,
                        measure=params["measure"],
                        profile_measure=params["profile_measure"])

    def simulate(collector: RunCollector) -> Outcome:
        decision, guard, _result, _report = run_demo(config)
        verdict = victim_verdict(guard, config)
        effective = verdict["drop_post_containment"]
        if effective is None:
            effective = verdict["drop_overall"]
        summary = {"admission": decision.to_dict(),
                   "events": [e.to_dict() for e in guard.events],
                   "verdict": verdict}
        problems = {}
        if not verdict["within_slo"]:
            problems["guard"] = [
                f"victim {verdict['label']} drop {effective!r} exceeds "
                f"its SLO {config.slo} (+ margin)"]
        units = collector.units + [("guard", summary)]
        return Outcome(units=units, events=collector.events,
                       sim={"victim_drop_pct": 100.0 * effective},
                       problems=problems)

    return simulate


def _check_campaign(params, seed):
    """A fixed-mix ``repro-check`` campaign with the runtime checker on."""
    from repro.check.runner import scenario_payload
    from repro.check.scenarios import generate

    configs = [dataclasses.replace(c, seed=(c.seed ^ seed) & 0x7FFFFFFF)
               for c in generate(params["scenarios"], CHECK_MASTER_SEED)]

    def simulate(collector: RunCollector) -> Outcome:
        problems: Dict[str, List[str]] = {}
        units: List[Tuple[str, Any]] = []
        for config in configs:
            payload = scenario_payload(config, engine="scalar")
            units.append((config.name, payload))
            if payload["violations"]:
                problems[config.name] = list(payload["violations"])
        return Outcome(units=units, events=collector.events, sim={},
                       problems=problems)

    return simulate


_BUILDERS: Dict[str, Callable] = {
    "corun_grid": _corun_grid,
    "long_mix": _long_mix,
    "guarded_containment": _guarded_containment,
    "check_campaign": _check_campaign,
}


def prepare(name: str, seed: int, size: str = "full"):
    """Build workload ``name``'s inputs; returns ``simulate(collector)``."""
    return _BUILDERS[name](SIZES[size][name], sim_seed(seed))


def check(name: str, seed: int, size: str,
          got: Optional[Dict[str, str]],
          unit_problems: Dict[str, List[str]],
          expected: Dict[str, Any]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` of one pass against ``expected``.

    ``got`` maps each produced unit to its digest (None when the pass
    raised before finishing). A unit fails when its digest differs from
    the recorded one, when its workload check reports a problem, or when
    the pass did not produce it.
    """
    key = expected_key(name, seed, size)
    want: Dict[str, str] = expected.get(key, {})
    problems: List[str] = []
    if not want:
        problems.append(f"no expected values recorded for {key}")
    got = got or {}
    names = list(want) + [u for u in got if u not in want]
    failed = 0
    for unit in names:
        bad = list(unit_problems.get(unit, []))
        if unit not in got:
            bad.append("not produced")
        elif unit not in want:
            bad.append("unexpected unit")
        elif got[unit] != want[unit]:
            bad.append(f"digest {got[unit]} != expected {want[unit]}")
        if bad:
            failed += 1
            problems.extend(f"{unit}: {b}" for b in bad)
    if not names:
        return 1, 1, problems
    return len(names), failed, problems


def expected_key(name: str, seed: int, size: str) -> str:
    """The ``expected.json`` entry a pass is checked against."""
    return f"{size}:{name}:{sim_seed(seed):#x}"
