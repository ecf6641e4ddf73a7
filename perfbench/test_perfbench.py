"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run short workloads, so they take about a minute.  They check that
every metric BENCHMARK.json names is emitted with its unit, that the
traced counts repeat exactly, and that a wrong decode fails the run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAST = ["codec-powers", "sample-15015", "certify-sweep"]


def bench(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    return proc.returncode, proc.stdout.splitlines()


def result_and_report(lines: list[str]) -> tuple[dict, dict]:
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def test_spec_lists_the_workloads_and_metrics_the_code_has():
    from spans import metric_units
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metric_units()


@pytest.mark.parametrize("workload", FAST)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    code, lines = bench("--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", "0")
    result, report = result_and_report(lines)
    assert code == 0 and result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["metrics"]["error_ratio"]["value"] == 0
    for name, entry in report["metrics"].items():
        assert entry["unit"] and entry["n"] >= 1, name


@pytest.mark.parametrize("workload", FAST)
def test_traced_run_emits_every_per_layer_metric(workload):
    code, lines = bench("--workload", workload, "--seed", "7", "--trace", "1")
    result, _ = result_and_report(lines)
    assert code == 0 and result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        code, lines = bench("--workload", "codec-2048", "--seed", "1", "--trace", "1")
        result, report = result_and_report(lines)
        assert code == 0 and report["digest"]["ok"] and report["digest"]["pinned"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        counts.append({k: v for k, v in metrics.items() if ".calls" in k or k == "trace.spans"})
    # Each 2048-bit base is checked twice: by parse_factorization and by
    # FactoredModulus.
    assert counts[0]["numbertheory.is_prime.calls"] == 4
    assert counts[0] == counts[1]


def test_wrong_decode_fails_the_run(monkeypatch, capsys):
    qr, _ = run.import_library()
    decode = qr.indexing.decode_index
    monkeypatch.setattr(qr.indexing, "decode_index", lambda m, index: decode(m, index) + 1)
    code = run.main(["--workload", "codec-powers", "--seed", "3", "--seconds", "0.2"])
    result, report = result_and_report(capsys.readouterr().out.splitlines())
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert report["metrics"]["error_ratio"]["value"] > 0


def test_without_the_source_tree_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sample-15015", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
