"""Call scheduling: the run-wide in-flight cap, the per-question dependency
schedule, and a concurrent tournament that matches a serial one.

Timing checks compare only the order of call starts and ends, never
absolute durations.
"""
import gc
import hashlib
import sys
import threading
import time
from dataclasses import replace

import pytest

from ensql.config import DEFAULT_LINKER_SECONDARY, PipelineConfig
from ensql.gateway import ChatBackend, ChatRequest, ChatResponse, GatewayError
from ensql.generation import load_generation_system_prompt
from ensql.harness import PipelineRunner, load_dataset, run_benchmark
from ensql.linking import load_linking_system_prompt

from helpers import (
    EXPECTED_CALLS,
    Q_TOP_PRODUCT,
    ScriptedBackend,
    TOY_BENCH,
    ToyScript,
    _slot_of,
    parse_judge_prompt,
    write_toy_dataset,
)

LINKING_SYSTEM = load_linking_system_prompt()
GENERATION_SYSTEM = load_generation_system_prompt()


def kind_of(request: ChatRequest) -> str:
    """"link:<model>", "gen:<slot>" or "judge"."""
    first = request.messages[0]["content"]
    if first == LINKING_SYSTEM:
        return f"link:{request.model}"
    if first == GENERATION_SYSTEM:
        return f"gen:{_slot_of(request.messages[-1]['content'])}"
    return "judge"


class TimedBackend(ChatBackend):
    """Sleeps a per-call delay; records call intervals and peak concurrency."""

    def __init__(self, inner: ChatBackend, delay):
        self.inner = inner
        self.delay = delay  # request -> seconds
        self.calls: list[tuple[str, float, float]] = []  # (kind, start, end)
        self.in_flight_peak = 0
        self._in_flight = 0
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> ChatResponse:
        with self._lock:
            self._in_flight += 1
            self.in_flight_peak = max(self.in_flight_peak, self._in_flight)
        start = time.perf_counter()
        try:
            response = self.inner.complete(request)
            time.sleep(self.delay(request))
            return response
        finally:
            end = time.perf_counter()
            with self._lock:
                self._in_flight -= 1
                self.calls.append((kind_of(request), start, end))

    def intervals(self, prefix: str) -> list[tuple[float, float]]:
        return [(s, e) for kind, s, e in self.calls if kind.startswith(prefix)]


@pytest.fixture(scope="module")
def items(tmp_path_factory):
    return load_dataset(write_toy_dataset(tmp_path_factory.mktemp("dataset")))


def config_with(max_in_flight: int) -> PipelineConfig:
    return replace(PipelineConfig.default(), max_in_flight=max_in_flight)


class TestRunWideCap:
    def test_workers_share_one_cap(self, items):
        backend = TimedBackend(ScriptedBackend(ToyScript()), lambda r: 0.01)
        records, report = run_benchmark(
            config_with(2), items, backend, workers=4, record_timing=False
        )
        assert report.failed == 0
        assert backend.in_flight_peak == 2

    def test_threads_sharing_a_runner_share_its_cap(self, items):
        backend = TimedBackend(ScriptedBackend(ToyScript()), lambda r: 0.01)
        runner = PipelineRunner(config_with(2), backend, record_timing=False)
        errors = []

        def client(share):
            for item in share:
                try:
                    runner.run_item(item)
                except Exception as exc:  # surfaced by the assertion below
                    errors.append(exc)

        threads = [threading.Thread(target=client, args=(items[k::2],)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        runner.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert backend.in_flight_peak == 2

    def test_cap_and_ledgers_hold_under_contention(self, items):
        backend = TimedBackend(ScriptedBackend(ToyScript()), lambda r: 0.0)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            records, report = run_benchmark(
                config_with(3), items * 3, backend, workers=4, record_timing=False
            )
        finally:
            sys.setswitchinterval(old)
        assert report.failed == 0
        assert [r.llm_calls() for r in records] == EXPECTED_CALLS * 3
        assert len(backend.calls) == sum(EXPECTED_CALLS) * 3
        assert backend.in_flight_peak <= 3

    def test_unclosed_runners_leave_no_threads(self, items):
        gc.collect()
        baseline = threading.active_count()
        for _ in range(15):
            runner = PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript()))
            runner.run_item(items[4])
        del runner
        gc.collect()
        deadline = time.monotonic() + 10
        while threading.active_count() > baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= baseline


class TestSchedule:
    SLOW_LINKER = 0.5
    CALL = 0.1

    def delay(self, request: ChatRequest) -> float:
        if kind_of(request) == f"link:{DEFAULT_LINKER_SECONDARY}":
            return self.SLOW_LINKER
        return self.CALL

    def run(self, item, max_in_flight=8):
        backend = TimedBackend(ScriptedBackend(ToyScript()), self.delay)
        with PipelineRunner(config_with(max_in_flight), backend) as runner:
            record = runner.run_item(item)
        assert record.error is None
        return backend

    def test_unfiltered_slot_starts_alongside_linking(self, items):
        backend = self.run(items[0])
        (gen_start, _), = backend.intervals("gen:0")
        assert gen_start < min(end for _, end in backend.intervals("link:"))

    def test_slot_starts_when_its_own_linker_resolves(self, items):
        backend = self.run(items[0])
        (_, slow_end), = backend.intervals(f"link:{DEFAULT_LINKER_SECONDARY}")
        for slot in (1, 2, 3):  # filtered by the fast linker runs
            (start, _), = backend.intervals(f"gen:{slot}")
            assert start < slow_end
        (ddl_start, _), = backend.intervals("gen:4")
        assert ddl_start >= slow_end

    def test_all_judge_calls_of_a_five_way_split_overlap(self, items):
        five_way = next(i for i, q in enumerate(TOY_BENCH) if q["calls"] == 28)
        backend = self.run(items[five_way], max_in_flight=20)
        judged = backend.intervals("judge")
        assert len(judged) == 20
        assert max(start for start, _ in judged) < min(end for _, end in judged)


class TestConcurrentTournament:
    """A judge with per-pair latency and one unparseable verdict."""

    @staticmethod
    def script(request):
        first = request.messages[0]["content"]
        if first.startswith("You are comparing two candidate SQL queries"):
            sql_a, sql_b = parse_judge_prompt(first)
            if sql_a == Q_TOP_PRODUCT and sql_b.startswith("SELECT MAX"):
                return "either could be right"
        return ToyScript()(request)

    @staticmethod
    def delay(request) -> float:
        if kind_of(request) != "judge":
            return 0.0
        digest = hashlib.sha256(request.messages[0]["content"].encode()).digest()
        return digest[0] / 255 * 0.03

    def test_matches_a_serial_run(self, items, tmp_path):
        outputs = []
        for max_in_flight in (1, 8):
            out = tmp_path / f"records_{max_in_flight}.jsonl"
            records, _ = run_benchmark(
                config_with(max_in_flight), items,
                TimedBackend(ScriptedBackend(self.script), self.delay),
                out_path=out, workers=2, record_timing=False,
            )
            outputs.append((records, out.read_bytes()))
        (serial, serial_bytes), (concurrent, concurrent_bytes) = outputs
        assert [r.selection for r in concurrent] == [r.selection for r in serial]
        assert [r.llm_calls() for r in concurrent] == EXPECTED_CALLS
        assert concurrent_bytes == serial_bytes


def test_per_question_warnings_name_the_question(items, caplog):
    escalated, all_failed = items[3], items[0]

    def script(request):
        first = request.messages[0]["content"]
        if first == LINKING_SYSTEM:
            if request.model == DEFAULT_LINKER_SECONDARY:
                return "no JSON here"
            raise GatewayError("linker down")
        if first.startswith("You are comparing two candidate SQL queries"):
            raise GatewayError("judge down")
        if request.messages[-1]["content"].endswith(f"Question: {all_failed.question}"):
            return "no SQL here"
        return ToyScript()(request)

    with PipelineRunner(PipelineConfig.default(), ScriptedBackend(script)) as runner:
        with caplog.at_level("WARNING"):
            record = runner.run_item(escalated)
            escalated_warnings = [
                r.getMessage() for r in caplog.records if r.levelname == "WARNING"
            ]
            caplog.clear()
            failed = runner.run_item(all_failed)
    assert record.selection.pairwise_calls == 6
    prefix = f"question {escalated.question_id}: "
    for fragment in ("failed: linker down", "unparseable", "using the full schema",
                     "judge call failed"):
        found = [w for w in escalated_warnings if fragment in w]
        assert found and all(w.startswith(prefix) for w in found), fragment

    assert all(not c.execution.ok for c in failed.candidates)
    found = [r.getMessage() for r in caplog.records if "every candidate failed" in r.getMessage()]
    assert found == [
        f"question {all_failed.question_id}: every candidate failed; "
        "returning the first as low confidence"
    ]
