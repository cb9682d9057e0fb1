"""Smoke tests of the benchmark itself (tiny sizes; about a minute in all).

    python3 -m pytest perfbench/test_smoke.py -q

They check that every workload passes its output checks, that every metric
named in BENCHMARK.json is printed with its unit, and that BENCHMARK.json
matches the definitions in run.py.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args, "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_spec_matches_definitions():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in run.END_TO_END
    ]
    assert SPEC["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b, _ in run.PER_LAYER]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_present_with_unit(workload, trace):
    metrics = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in metrics.items()}
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())


def test_fails_without_the_package(tmp_path):
    # a directory holding only the benchmark: the run must fail, printing no result
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
    (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grammar-long",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
