"""One cold-process pass of one workload (spawned by ``run.py``).

Usage::

    PYTHONPATH=src python3 perfbench/child.py WORKLOAD SEED SIZE TRACE SPAWNED

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started
this interpreter, so ``setup_s`` covers interpreter start, the ``repro``
imports and building the workload's configs and scenarios. ``TRACE`` is
``0``, ``1`` or ``setup`` (stop once set-up is done). Prints one JSON
object on stdout.

Times are reported twice: as measured (``*_raw_s``) and at the reference
host speed (``setup_s``, ``wall_s``; see :class:`HostSpeed`).
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
import traceback
from typing import List, Tuple

#: Seconds the reference kernel takes on the reference host: a 2-vCPU
#: KVM guest on an Intel Xeon (AVX-512) host with no other load on its
#: cores.
REFERENCE_KERNEL_S = 0.25e-3
#: How often the timer interrupts the measured work to sample host speed.
SAMPLE_INTERVAL_S = 0.01


def _reference_kernel() -> int:
    """Fixed pure-Python work shaped like the simulator's: LRU list sets,
    a dict and integer arithmetic."""
    sets: List[List[int]] = [[], [], [], []]
    table = {}
    x = 1
    for i in range(600):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = x >> 20
        s = sets[line & 3]
        if line in s:
            s.remove(line)
        elif len(s) >= 8:
            s.pop(0)
        s.append(line)
        table[line & 63] = i
    return len(table)


class HostSpeed:
    """Samples how fast the host runs this process right now.

    On a shared host, the speed the process gets swings by half within
    seconds while other tenants come and go, and it swings the same way
    for all pure-Python work. A timer signal interrupts the measured work
    every ``SAMPLE_INTERVAL_S`` and times a fixed reference kernel. A
    measured interval, minus the time those samples took, divided by the
    samples' mean slowdown against ``REFERENCE_KERNEL_S``, is the time
    the same work takes at the reference host speed. The signal handler
    touches nothing the simulation reads.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        _reference_kernel()
        self._samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def normalize(self, raw_s: float) -> Tuple[float, float]:
        """``(time at reference speed, slowdown)`` of ``raw_s`` seconds
        measured since the last call."""
        samples, self._samples = self._samples, []
        if not samples:
            return raw_s, 1.0
        slowdown = sum(samples) / len(samples) / REFERENCE_KERNEL_S
        return (raw_s - sum(samples)) / slowdown, slowdown


def main(argv) -> int:
    name, seed, size, trace, spawned = argv
    seed = int(seed)
    spawned = float(spawned)
    speed = HostSpeed()
    speed.start()
    import layers
    import workloads

    collector = workloads.RunCollector()
    ledger = layers.install(collector, trace=trace == "1")
    simulate = workloads.prepare(name, seed, size)
    _assert_default_path()
    setup_raw_s = time.monotonic() - spawned
    setup_s, setup_slowdown = speed.normalize(setup_raw_s)
    doc = {"setup_raw_s": setup_raw_s, "setup_s": setup_s,
           "setup_slowdown": setup_slowdown}
    if trace == "setup":
        speed.stop()
        print(json.dumps(doc))
        return 0

    outcome = None
    error = None
    start = time.perf_counter()
    try:
        outcome = simulate(collector)
    except Exception:  # noqa: BLE001 - a crash is a failed pass, reported
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start
    speed.stop()
    normalized_s, slowdown = speed.normalize(wall_s)
    doc.update({
        "wall_raw_s": wall_s,
        "wall_s": normalized_s,
        "slowdown": slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "error": error,
    })
    if outcome is not None:
        doc.update({
            "events": outcome.events,
            "sim": outcome.sim,
            "problems": outcome.problems,
            "units": {unit: workloads.digest(d) for unit, d in outcome.units},
        })
        if ledger is not None:
            doc["layers"] = layers.layer_metrics(
                ledger, wall_s, scale=normalized_s / wall_s)
    print(json.dumps(doc))
    return 0


def _assert_default_path() -> None:
    """Refuse to measure anything but the default path users get."""
    from repro.fastpath import default_engine

    if default_engine() != "scalar":
        raise SystemExit(f"default engine is {default_engine()!r}")
    streams = sys.modules.get("repro.fastpath.streams")
    if streams is not None and len(streams.STREAM_CACHE):
        raise SystemExit("stream cache is not empty at start")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
