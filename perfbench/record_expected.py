"""Record the expected simulated outputs the benchmark checks against.

Usage (from the repository root)::

    python3 perfbench/record_expected.py

Runs each workload once per simulation seed in a cold process, untraced,
and writes each output unit's digest to ``perfbench/expected.json``.
Only a change to the simulated model should ever need this; a change
that claims only speed must pass against the committed file unchanged.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    expected = {}
    home = run.ROOT / ".bench_build" / "perfbench-home"
    home.mkdir(parents=True, exist_ok=True)
    status = 0
    for size in sorted(workloads.SIZES):
        seeds = range(workloads.N_SIM_SEEDS) if size == "full" else [0]
        for name in workloads.WORKLOADS:
            for seed in seeds:
                doc = run.run_pass(name, seed, size, "0", 600.0, home)
                key = workloads.expected_key(name, seed, size)
                problems = doc.get("problems") or {}
                if doc.get("error") or problems:
                    print(f"{key}: not recorded: "
                          f"{doc.get('error') or problems}", file=sys.stderr)
                    status = 1
                    continue
                expected[key] = doc["units"]
                print(f"{key}: {len(doc['units'])} units, "
                      f"{doc['wall_s']:.2f}s", flush=True)
    shutil.rmtree(home, ignore_errors=True)
    with run.EXPECTED.open("w") as fh:
        json.dump(dict(sorted(expected.items())), fh, indent=1)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
