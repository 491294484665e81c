"""An attached metrics sampler must not change what the SLO guard or the
invariant checker observe: each probe keeps its own window cadence.

Sampler intervals straddle the guard's 40,000-cycle window: a shorter
sampler once made the guard observe (and act) at the sampler's pace, a
longer one silenced it.
"""

import json
from contextlib import nullcontext

import pytest

from repro.check.invariants import InvariantChecker
from repro.check.scenarios import generate_one
from repro.guard.demo import DemoConfig, build_demo_predictor, run_demo
from repro.guard.fuzz import run_guarded_scenario
from repro.guard.supervisor import DEFAULT_GUARD_INTERVAL
from repro.obs import observe

pytestmark = pytest.mark.guard

SAMPLER_INTERVALS = (10_000.0, 2_000_000.0)


def _sampling(interval):
    if interval is None:
        return nullcontext()
    return observe(metrics_interval_cycles=interval)


def _events(guard):
    return json.dumps([e.to_dict() for e in guard.events], sort_keys=True)


def test_sampler_intervals_straddle_the_guard_window():
    assert min(SAMPLER_INTERVALS) < DEFAULT_GUARD_INTERVAL
    assert max(SAMPLER_INTERVALS) > DEFAULT_GUARD_INTERVAL


@pytest.fixture(scope="module")
def demo():
    config = DemoConfig(scale=64, measure=1600, profile_measure=400)
    return config, build_demo_predictor(config)


def _demo_run(demo, interval):
    config, predictor = demo
    with _sampling(interval):
        _, guard, result, _ = run_demo(config, predictor=predictor)
    return guard, result


def test_demo_guard_ignores_attached_sampler(demo):
    plain, plain_result = _demo_run(demo, None)
    assert plain_result.metrics is None
    assert plain.events and plain.windows_observed > 0
    for interval in SAMPLER_INTERVALS:
        guard, result = _demo_run(demo, interval)
        assert result.metrics is not None
        assert result.metrics.interval_cycles == interval
        assert _events(guard) == _events(plain), interval
        assert guard.windows_observed == plain.windows_observed


@pytest.mark.parametrize("engine", ["scalar", "batch"])
@pytest.mark.parametrize("index", [0, 3])
def test_guard_and_checker_ignore_attached_sampler(engine, index):
    config = generate_one(0x5EED, index)

    def run(interval):
        checker = InvariantChecker()
        with _sampling(interval):
            _, guard, result = run_guarded_scenario(
                config, engine=engine, checker=checker)
        return guard, checker, result

    plain, plain_checker, _ = run(None)
    assert plain.events and plain_checker.windows_checked > 0
    for interval in SAMPLER_INTERVALS:
        guard, checker, result = run(interval)
        assert result.metrics is not None
        assert _events(guard) == _events(plain), interval
        assert guard.windows_observed == plain.windows_observed
        assert checker.windows_checked == plain_checker.windows_checked
        assert checker.violations == plain_checker.violations == []
