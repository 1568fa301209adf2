"""Tests of the benchmark itself, on a tiny corpus.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TINY = ["--families", "band,staircase", "--count", "5", "--max-m", "2", "--max-n", "2"]


def bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=root,
        capture_output=True, text=True, timeout=170, check=False,
    )


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_the_metrics_the_code_reports():
    doc = benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_every_metric_present_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    out = result_line(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    doc = benchmark_json()
    wanted = doc["per_layer"] if trace else doc["end_to_end"]
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_tampered_reference_entry_is_caught(tmp_path):
    reference = tmp_path / "reference.json"
    made = bench("--write-reference", str(reference), *TINY)
    assert made.returncode == 0, made.stderr
    args = ("--workload", "fiber", "--seed", "1", "--seconds", "0.1",
            "--reference", str(reference), *TINY)
    clean = bench(*args)
    assert clean.returncode == 0, clean.stderr
    assert result_line(clean)["failed"] == 0

    doc = json.loads(reference.read_text())
    digests = doc["workloads"]["fiber"]["digests"]
    victim = sorted(digests)[0]
    digests[victim] = "0" * 16
    reference.write_text(json.dumps(doc))
    tampered = bench(*args)
    assert tampered.returncode == 1
    out = result_line(tampered)
    assert out["correct"] is False
    # the window fails once per pass, and nothing else fails
    passes = json.loads((BENCH / "out" / "fiber-seed1-trace0.json").read_text())["passes"]
    assert out["failed"] == passes
    assert out["metrics"]["ok_share"]["value"] < 1.0
    assert victim in tampered.stderr


def test_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "dimension", "--seed", "1", "--seconds", "1",
                 "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_is_the_highest_percentile_with_ten_beyond():
    pct, value = run.tail_percentile(list(range(100)))
    assert value == 89 and pct == pytest.approx(90.0)


def test_slowdown_is_the_mean_kernel_time_near_the_interval():
    probe = speed.SpeedProbe()
    probe.starts = [0.0, 1.0, 1.05, 2.0]
    probe.seconds = [r * speed.REFERENCE_S for r in (5.0, 1.0, 2.0, 5.0)]
    assert probe.slowdown(1.0, 1.05) == pytest.approx(1.5)
    # with no sample near the interval, every sample counts
    assert probe.slowdown(10.0, 11.0) == pytest.approx(13.0 / 4)
