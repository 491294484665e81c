"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs at its tiny size and must pass its output check,
traced passes must reproduce the untraced outputs exactly, and
``BENCHMARK.json`` must be well formed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return run._benchmark_spec()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_and_trace_does_not_perturb(name, spec):
    record = run.run(name, seed=0, seconds=0, trace=True, size="tiny")
    assert record["problems"] == []
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] >= 2 * run.MIN_PASSES
    plain = run.contract_line(record, trace=False)["metrics"]
    assert set(plain) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in plain.values())
    layered = run.contract_line(record, trace=True)["metrics"]
    assert set(layered) == {m["name"] for m in spec["per_layer"]}
    assert set(record["layers"]) == set(layered)
    layers = record["layers"]
    assert layers["hw.refs"] > 0 and layers["apps.construct.calls"] > 0
    # The attributed self times and the remainder make up the traced wall.
    assert layers["trace.other.s"] >= 0
    assert layers["trace.other.s"] < 0.2 * layers["trace.wall_s"]


def test_benchmark_json_is_well_formed(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_last_line_is_the_contract_object():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long_mix",
         "--seed", "0", "--seconds", "0", "--trace", "0", "--size", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    for metric in last["metrics"].values():
        assert set(metric) == {"value", "unit"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long_mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
