"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest bench/test_smoke.py -q

Checks that every workload runs correctly, that the last output line is the
result object with exactly the metrics BENCHMARK.json declares, and that every
metric is printed with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, EXTRA, PER_LAYER, WORKLOAD_NAMES  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _printed(stdout: str) -> dict:
    """(workload, metric) -> unit from the ``metric`` lines."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, workload, name, value, unit = line.split()
            float(value)
            out[(workload, name)] = unit
    return out


def test_benchmark_json_matches_the_script():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = PER_LAYER if trace else END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    expected = dict(declared)
    if not trace:
        expected.update({"item_ms.samples": "count", "failed_share": "share"})
        if workload == "verify-random":
            expected["item_ms.p90"] = EXTRA["item_ms.p90"]
    assert _printed(proc.stdout) == {(workload, n): u for n, u in expected.items()}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_inputs_results_and_counters_repeat_across_runs(workload):
    runs = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                      "--trace", "1", "--smoke")
        assert proc.returncode == 0, proc.stderr
        runs.append([ln for ln in proc.stdout.splitlines()
                     if ln.startswith(("# inputs", "# results"))])
    assert len(runs[0]) == 2 and "counters sha256=" in runs[0][1]
    assert runs[0] == runs[1]


def test_all_prints_each_workload():
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "0.1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    printed = _printed(proc.stdout)
    for workload in WORKLOAD_NAMES:
        for name, unit in END_TO_END.items():
            assert printed[(workload, name)] == unit


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "verify-random", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
