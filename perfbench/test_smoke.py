"""Tiny-scale smoke tests of the benchmark (``--seconds 1``).

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced from the repository root; the
printed metric names and units must match ``BENCHMARK.json``.  The compiled
training workload must reproduce the reference workload's weight digests,
a tampered expected serve reply must fail the run, and a directory without
``src/`` must fail it before any result is printed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ["perfbench/run.py"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, workload: str, seed: int = 7, trace: int = 0):
    proc = subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def declared(section: str):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_match_declaration(workload, trace):
    code, lines = bench(ROOT, workload, trace=trace)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def digests(lines):
    return [line for line in lines if line.startswith("digest ")]


def test_compiled_training_matches_reference_digests():
    code_ref, ref = bench(ROOT, "train-k8", seed=3)
    code_cmp, cmp_ = bench(ROOT, "train-k8-compiled", seed=3)
    assert code_ref == code_cmp == 0
    assert digests(ref) == digests(cmp_) != []


def test_same_seed_same_work():
    _, first = bench(ROOT, "eval-stream", seed=5)
    _, second = bench(ROOT, "eval-stream", seed=5)
    assert digests(first) == digests(second) != []


def _checkout(tmp_path: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


def test_tampered_expected_reply_fails(tmp_path):
    checkout = _checkout(tmp_path, with_src=True)
    code, lines = bench(checkout, "serve-closed")
    assert code == 0, lines
    (stream_path,) = checkout.glob(".bench_build/perfbench/inputs/*/serve-stream.json")
    stream = json.loads(stream_path.read_text())
    stream["actions"][1] += 1
    stream_path.write_text(json.dumps(stream))
    code, lines = bench(checkout, "serve-closed")
    assert code != 0
    result = json.loads(lines[-1])
    assert result["correct"] is False


def test_fails_without_sources(tmp_path):
    checkout = _checkout(tmp_path, with_src=False)
    code, lines = bench(checkout, "train-k8")
    assert code != 0
    assert lines == []
