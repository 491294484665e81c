"""The repository benchmark: cold-process workloads, checked outputs,
end-to-end metrics and (with ``--trace 1``) per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corun_grid --seed 0 --seconds 15 --trace 0

Each pass of the workload runs in a fresh interpreter (``child.py``) on
the default path: scalar engine, serial, no sweep disk cache, empty
stream cache. Passes repeat until ``--seconds`` have elapsed (at least
``MIN_PASSES``), and every timing reported is the median over the run's
passes, in host seconds at the reference host speed (``child.HostSpeed``;
the record keeps the times as measured too). ``--trace 1`` alternates untraced and traced passes: the traced
ones give the per-layer metrics, and every traced pass's simulated
outputs must equal the untraced ones'.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before
it is the full record: every metric, every pass's samples, and the
run's provenance. ``attempted``/``failed`` count checked output units
(one per simulated run, plus one summary per pass), so
``failed / attempted`` is the run's ``failed_frac``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

#: Fewest passes (untraced, and traced with --trace 1) a run reports on.
MIN_PASSES = 2
#: Fewest set-up samples behind ``setup_s``; set-up-only passes top up.
SETUP_SAMPLES = 9
#: The whole run stays under this many seconds.
RUN_LIMIT_S = 165.0


def run_pass(name: str, seed: int, size: str, mode: str,
             timeout: float, home: Path) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter; its JSON document."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "REPRO_SWEEP_CACHE"}
    # No reads or writes of ~/.cache/repro-sweep: the pass sees an empty
    # home, which must still be empty afterwards.
    env.update(PYTHONPATH=str(SRC), HOME=str(home),
               XDG_CACHE_HOME=str(home / ".cache"))
    cmd = [sys.executable, str(HERE / "child.py"), name, str(seed), size,
           mode]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(spawned)], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {timeout:.0f}s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"unreadable pass output: {proc.stdout[-2000:]!r}"}
    if any(home.iterdir()):
        doc["error"] = (doc.get("error") or "") + "pass wrote under HOME"
    return doc


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _load_expected() -> Dict[str, Any]:
    if not EXPECTED.is_file():
        return {}
    with EXPECTED.open() as fh:
        return json.load(fh)


def run(name: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> Dict[str, Any]:
    """One benchmark run: the full record (see the module docstring)."""
    start = time.monotonic()
    expected = _load_expected()
    home = ROOT / ".bench_build" / "perfbench-home"
    shutil.rmtree(home, ignore_errors=True)
    home.mkdir(parents=True)
    modes = ["0", "1"] if trace else ["0"]
    passes: List[Dict[str, Any]] = []
    attempted = failed = 0
    problems: List[str] = []
    last_s = 0.0
    untraced_units = None
    while True:
        elapsed = time.monotonic() - start
        count = sum(1 for p in passes if p["mode"] == "0")
        if elapsed >= seconds and count >= MIN_PASSES:
            break
        if elapsed + len(modes) * last_s > RUN_LIMIT_S:
            problems.append(f"stopped after {count} passes to stay "
                            f"under {RUN_LIMIT_S:.0f}s")
            break
        began = time.monotonic()
        # Alternate which side of a traced pair runs first, so drift in
        # host speed does not read as tracing overhead.
        for mode in modes if len(passes) % 4 == 0 else modes[::-1]:
            doc = run_pass(name, seed, size, mode,
                           RUN_LIMIT_S - (time.monotonic() - start), home)
            doc["mode"] = mode
            if mode == "0":
                untraced_units = doc.get("units")
            n, bad, why = workloads.check(
                name, seed, size, doc.get("units"), doc.get("problems", {}),
                expected)
            if doc.get("error"):
                why.append(doc["error"])
                bad = max(bad, 1)
            if mode == "1" and doc.get("units") != untraced_units:
                # Tracing must not perturb the simulation. (Every untraced
                # pass of a run simulates the same inputs.)
                why.append("traced outputs differ from the untraced pass")
                bad = max(bad, 1)
            attempted += n
            failed += bad
            problems.extend(f"pass {len(passes)}: {w}" for w in why)
            passes.append(doc)
        last_s = (time.monotonic() - began) / len(modes)
        if any(p.get("error") for p in passes):
            break
    setup_docs = [p for p in passes if p["mode"] == "0" and "setup_s" in p]
    while (len(setup_docs) < SETUP_SAMPLES
           and time.monotonic() - start < RUN_LIMIT_S - 5):
        doc = run_pass(name, seed, size, "setup", 30.0, home)
        if "setup_s" not in doc:
            break
        setup_docs.append(doc)
    shutil.rmtree(home, ignore_errors=True)
    setup = [d["setup_s"] for d in setup_docs]

    plain = [p for p in passes if p["mode"] == "0" and "events" in p]
    traced = [p for p in passes if p["mode"] == "1" and "layers" in p]
    metrics = {
        "wall_s": _median([p["wall_s"] for p in plain]),
        "setup_s": _median(setup),
        "sim_refs_per_s": _median([p["events"] / p["wall_s"]
                                   for p in plain]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
    }
    layers: Dict[str, float] = {}
    if traced:
        for key in traced[0]["layers"]:
            layers[key] = _median([p["layers"][key] for p in traced])
        traced_wall = _median([p["wall_s"] for p in traced])
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_frac"] = traced_wall / metrics["wall_s"] - 1
        for key in ("fig2b_mae_pp", "victim_drop_pct"):
            layers["sim." + key] = traced[0]["sim"].get(key, 0.0)
    return {
        "correct": failed == 0 and bool(plain),
        "attempted": max(attempted, 1),
        "failed": failed if plain else max(failed, 1),
        "metrics": metrics,
        "layers": layers,
        "problems": problems,
        "samples": {
            "wall_s": [p["wall_s"] for p in plain],
            "wall_raw_s": [p["wall_raw_s"] for p in plain],
            "slowdown": [p["slowdown"] for p in plain],
            "setup_s": setup,
            "setup_raw_s": [d["setup_raw_s"] for d in setup_docs],
            "traced_wall_s": [p["wall_s"] for p in traced],
        },
        "provenance": provenance(name, seed, size),
    }


def provenance(name: str, seed: int, size: str) -> Dict[str, Any]:
    """What produced a record: code, toolchain, host and inputs."""
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    try:
        numpy_version: Optional[str] = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": name,
        "seed": seed,
        "sim_seed": workloads.sim_seed(seed),
        "size": size,
        "params": workloads.SIZES[size][name],
        "engine": "scalar",
    }


def contract_line(record: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The last line: exactly correct/attempted/failed/metrics."""
    spec = _benchmark_spec()
    if trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = record["layers"]
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = record["metrics"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in wanted.items()},
    }


def _benchmark_spec() -> Dict[str, Any]:
    with (ROOT / "BENCHMARK.json").open() as fh:
        return json.load(fh)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full", help="workload size (tiny: "
                        "self-tests only)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({SRC / 'repro'} is "
              "missing); run from a full checkout", file=sys.stderr)
        return 2
    # Byte-compile up front so no pass pays compilation in its set-up.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC),
                    str(HERE)], check=True, capture_output=True)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.size)
    shown = [contract_line(record, trace=False)]
    if args.trace:
        shown.append(contract_line(record, trace=True))
    for line in shown:
        for name, metric in line["metrics"].items():
            print(f"{name:<32} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_frac':<32} {record['failed'] / record['attempted']:.6g}"
          f" ({record['failed']}/{record['attempted']} units)")
    for line in record["problems"][:20]:
        print(f"problem: {line}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(contract_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
