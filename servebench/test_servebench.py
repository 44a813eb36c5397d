"""Self-test of the serving benchmark at tiny sizes.

Run from the repository root: ``python3 -m pytest servebench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from servebench.bench import measure, run_round
from servebench.clock import NOMINAL_PROBE_MS, PROBE_WINDOW, HostClock
from servebench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    workload = WORKLOADS[name]
    return dataclasses.replace(
        workload,
        users=80,
        events=16,
        churn={**workload.churn, "num_batches": 3},
    )


# A tiny trace has too few ticks for the full tail-support requirement.
TINY_TAIL_TICKS = 1


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def results(request):
    workload = tiny(request.param)
    return {
        trace: measure(
            workload,
            seed=3,
            seconds=0.0,
            trace=trace,
            tail_ticks=TINY_TAIL_TICKS,
        )
        for trace in (False, True)
    }


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize(
    "trace,section", [(False, "end_to_end"), (True, "per_layer")]
)
def test_every_named_metric_is_emitted_with_its_unit(results, trace, section):
    result = results[trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"], name
        assert declared[name]["better"] in ("higher", "lower"), name
        assert isinstance(metric["value"], float), name
    json.dumps(result)


def test_end_to_end_metrics_are_never_zero(results):
    for name, metric in results[False]["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_deterministic_metrics_repeat_exactly(name):
    workload = tiny(name)
    clock = HostClock()
    first, second = (run_round(workload, 5, clock) for _ in range(2))
    for key in ("fingerprint", "utility", "with_events", "failed", "ticks"):
        assert first[key] == second[key], key
    assert run_round(workload, 6, clock)["fingerprint"] != first["fingerprint"]
    a, b = (
        measure(
            workload,
            seed=5,
            seconds=0.0,
            trace=False,
            tail_ticks=TINY_TAIL_TICKS,
        )["metrics"]
        for _ in range(2)
    )
    for key in ("utility", "accept_rate", "served_share"):
        assert a[key] == b[key], key


def test_host_clock_leaves_out_probe_time_and_scales_by_probe_speed():
    clock = HostClock()
    corrected, wall = clock.now(), clock.wall()
    started = time.perf_counter()
    time.sleep(0.06)
    before = NOMINAL_PROBE_MS / statistics.median(clock.probe_ms)
    clock.poll()  # probes: 0.06 s have passed
    after = NOMINAL_PROBE_MS / statistics.median(clock.probe_ms[-PROBE_WINDOW:])
    clock.poll()  # too soon: no probe
    elapsed = time.perf_counter() - started
    assert len(clock.probe_ms) == PROBE_WINDOW + 1
    assert 0.06 <= clock.wall() - wall < elapsed
    # The stretch between the two probes is charged at the mean rate.
    assert clock.now() - corrected == pytest.approx(
        (clock.wall() - wall) * (before + after) / 2, rel=0.01
    )


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "servebench",
        tmp_path / "servebench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    command = [sys.executable, *SPEC["command"][1:]]
    completed = subprocess.run(
        [*command, "--workload", "arrivals", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
