"""Tests of the benchmark itself: the wave counter and tiny runs of each workload.

    PYTHONPATH=src python -m pytest bench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import measure  # noqa: E402
from ensql.gateway import ChatBackend, ChatRequest, ChatResponse, TokenUsage  # noqa: E402
from model import ScriptedModel, TimedBackend, count_waves  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_waves_of_sequential_calls():
    assert count_waves([(0.0, 1.0), (1.0, 2.0), (2.5, 3.0)]) == 3


def test_waves_of_parallel_calls():
    assert count_waves([(0.0, 1.0), (0.1, 1.1), (0.2, 0.9), (0.5, 1.5)]) == 1


def test_waves_of_mixed_calls():
    # three linker calls one after another, five overlapping generation
    # calls, then two judge calls in sequence: 3 + 1 + 2 waves
    linking = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
    generation = [(3.0, 4.0), (3.01, 4.02), (3.02, 4.01), (3.0, 4.03), (3.03, 4.0)]
    judging = [(4.1, 5.0), (5.0, 6.0)]
    assert count_waves(judging + generation + linking) == 6
    assert count_waves([]) == 0


class _Echo(ChatBackend):
    def complete(self, request: ChatRequest) -> ChatResponse:
        return ChatResponse("ok", TokenUsage(1, 1))


def test_timed_backend_counts_under_contention():
    backend = TimedBackend(_Echo(), latency_s=0.0)
    threads, calls = 8, 200

    def client(n: int) -> None:
        request = ChatRequest("m", ({"role": "user", "content": f"Question: Q{n:06d}: x"},))
        for _ in range(calls):
            backend.complete(request)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=client, args=(n,)) for n in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(worker.is_alive() for worker in workers)
    assert [len(backend.take_intervals(f"Q{n:06d}")) for n in range(threads)] == [calls] * threads
    assert 1 <= backend.in_flight_peak <= threads
    assert backend._in_flight == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_its_checks(name, trace, tmp_path):
    result = measure.run_workload(name, 3, 0.4, trace, tmp_path, small=True)
    assert result.failed == 0, result.lines
    assert result.attempted > 0
    doc = json.loads(measure.result_json(result))
    assert doc["correct"] is True
    listed = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in listed["per_layer" if trace else "end_to_end"]}
    assert set(doc["metrics"]) == wanted
    if trace:
        assert {n.split(".")[0] for n in wanted} >= {
            "catalog", "formats", "linking", "generation", "selection", "gateway", "harness",
        }
    else:
        assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_wrong_selections_fail_the_check(monkeypatch, tmp_path):
    honest = ScriptedModel.reply

    def judge_always_a(self, request):
        text = honest(self, request)
        return "A" if text in ("A", "B") else text

    monkeypatch.setattr(ScriptedModel, "reply", judge_always_a)
    result = measure.run_workload("offline_wide", 3, 0.4, False, tmp_path, small=True)
    assert result.failed > 0
    assert json.loads(measure.result_json(result))["correct"] is False


def test_run_refuses_a_directory_without_the_engine(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "latency_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
