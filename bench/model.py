"""The scripted model, the latency wrapper around it, and the wave counter.

ScriptedModel answers every request from the request alone, like the test
suite's ScriptedBackend: linker prompts get the planted table/column map,
generation prompts get the planted reply for the slot the prompt belongs
to, and judge prompts prefer the longer SQL (ties go to candidate A).
TimedBackend adds a fixed sleep per call, records each call's interval
under the question it serves, and tracks how many calls are in flight.
"""
from __future__ import annotations

import re
import threading
import time
from typing import Iterable

from ensql.config import DEFAULT_LINKER_SECONDARY
from ensql.gateway import ChatBackend, ChatRequest, ChatResponse, TokenUsage
from ensql.generation import load_generation_system_prompt
from ensql.linking import load_linking_system_prompt

from workloads import Plan

_QID_RE = re.compile(r"Question: (Q\d{6}):")
_JUDGE_RE = re.compile(
    r"Candidate A SQL:\n(.*?)\n\nCandidate A execution result:.*?"
    r"Candidate B SQL:\n(.*?)\n\nCandidate B execution result:",
    re.S,
)


def question_id(request: ChatRequest) -> str:
    """The planted question id carried in the request's last message."""
    match = _QID_RE.search(request.messages[-1]["content"])
    if match is None:
        raise ValueError(f"request for {request.model} names no benchmark question")
    return match.group(1)


class ScriptedModel(ChatBackend):
    """A chat backend whose replies are a pure function of the request."""

    def __init__(self, plans: Iterable[Plan]):
        self.plans = {p.qid: p for p in plans}
        self.linking_system = load_linking_system_prompt()
        self.generation_system = load_generation_system_prompt()

    def reply(self, request: ChatRequest) -> str:
        first = request.messages[0]["content"]
        if first.startswith("You are comparing two candidate SQL queries"):
            match = _JUDGE_RE.search(first)
            if match is None:
                raise ValueError("judge prompt lacks the candidate sections")
            return "A" if len(match.group(1)) >= len(match.group(2)) else "B"
        plan = self.plans[question_id(request)]
        if first == self.linking_system:
            if request.model == DEFAULT_LINKER_SECONDARY:  # the ddl slot's linker
                return plan.secondary_linker_reply
            return plan.linker_reply
        if first == self.generation_system:
            return plan.replies[self._slot(request.messages[-1]["content"], plan)]
        raise ValueError(f"unrecognized request for model {request.model}")

    @staticmethod
    def _slot(content: str, plan: Plan) -> int:
        # the default slate's five slots, told apart by schema format and by
        # what the linker's prediction removed
        if "CREATE messages:" in content:
            return 4
        if content.startswith("Schema:\n[DB_ID]"):
            return 2 if plan.table_only_marker in content else 3
        return 0 if plan.unfiltered_marker in content else 1

    def complete(self, request: ChatRequest) -> ChatResponse:
        text = self.reply(request)
        prompt_chars = sum(len(m["content"]) for m in request.messages)
        return ChatResponse(text, TokenUsage(prompt_chars // 4, max(1, len(text) // 4)))


class TimedBackend(ChatBackend):
    """Sleeps latency_s per call and records call intervals per question."""

    def __init__(self, model: ChatBackend, latency_s: float):
        self.model = model
        self.latency_s = latency_s
        self.in_flight_peak = 0
        self._in_flight = 0
        self._intervals: dict[str, list[tuple[float, float]]] = {}
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> ChatResponse:
        qid = question_id(request)
        with self._lock:
            self._in_flight += 1
            self.in_flight_peak = max(self.in_flight_peak, self._in_flight)
        start = time.perf_counter()
        try:
            response = self.model.complete(request)
            if self.latency_s:
                time.sleep(self.latency_s)
            return response
        finally:
            end = time.perf_counter()
            with self._lock:
                self._in_flight -= 1
                self._intervals.setdefault(qid, []).append((start, end))

    def take_intervals(self, qid: str) -> list[tuple[float, float]]:
        """Remove and return the call intervals recorded for one question."""
        with self._lock:
            return self._intervals.pop(qid, [])


def count_waves(intervals: Iterable[tuple[float, float]]) -> int:
    """Length of the longest chain of non-overlapping intervals.

    A chain is a sequence in which each call starts no earlier than the
    previous one ended, so it is the number of model-call waves a question
    waited through one after another.  Taking intervals by earliest end is
    optimal for this (interval scheduling).
    """
    waves = 0
    last_end = float("-inf")
    for start, end in sorted(intervals, key=lambda iv: iv[1]):
        if start >= last_end:
            waves += 1
            last_end = end
    return waves
