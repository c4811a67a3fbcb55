"""Per-layer spans, recorded from outside the engine.

Tracer.installed() replaces each layer's public functions, as they are bound
in the modules that call them, with wrappers that record a span: name,
start, end, parent span and the question it served.  Spans stay in memory
and are folded into per-layer metrics when the run ends; a layer's self
time is its span minus the part of it that its child spans cover.  Nothing
is installed outside the context manager, so untraced runs pay nothing.

Calls made on worker threads (generate_candidates runs each slot on a pool
thread) are tied to their question through the first call on that thread
that names the question, and to their parent through the innermost span of
that question on the client thread that encloses them in time.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

from model import count_waves, question_id

STAGES = ("linking", "generation", "selection")


class Span:
    __slots__ = ("name", "start", "end", "box", "parent", "error", "meta")

    def __init__(self, name: str, box: "_Box", parent: "Span | None"):
        self.name = name
        self.box = box
        self.parent = parent
        self.error: str | None = None
        self.meta = None
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def exec(self) -> int | None:
        return self.box.exec

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class _Box:
    """The question a thread is serving, shared by that thread's spans."""

    __slots__ = ("exec", "client")

    def __init__(self, exec_index: int | None, client: bool):
        self.exec = exec_index
        self.client = client


def _render(tracer, span, args, kwargs, result) -> None:
    catalog = args[0] if args else kwargs["catalog"]
    span.meta = (catalog.db_id, hash(result))


def _generation_prompt(tracer, span, args, kwargs, result) -> None:
    question = args[1] if len(args) > 1 else kwargs["question"]
    tracer.learn(span, question.split(":", 1)[0])


def _complete(tracer, span, args, kwargs, result) -> None:
    request = args[1] if len(args) > 1 else kwargs["request"]
    stage = args[2] if len(args) > 2 else kwargs["stage"]
    span.meta = (stage, result.usage.input_tokens)
    tracer.learn(span, question_id(request))


def _execute(tracer, span, args, kwargs, result) -> None:
    sql = args[0] if args else kwargs["sql"]
    span.meta = (sql, result.row_count if result.ok else None)


def _select(tracer, span, args, kwargs, result) -> None:
    span.meta = result.method.value


def _run_item(tracer, span, args, kwargs, result) -> None:
    item = args[1] if len(args) > 1 else kwargs["item"]
    span.meta = item.gold_sql


# (module, attribute as bound there, span name, what to note from the call)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("ensql.harness", "PipelineRunner.run_item", "harness.run_item", _run_item),
    ("ensql.harness", "introspect", "catalog.introspect", None),
    ("ensql.generation", "apply_filter", "catalog.apply_filter", None),
    ("ensql.harness", "render", "formats.render", _render),
    ("ensql.generation", "render", "formats.render", _render),
    ("ensql.harness", "build_linking_prompt", "linking.prompt_build", None),
    ("ensql.harness", "parse_linking_response", "linking.parse", None),
    ("ensql.harness", "generate_candidates", "generation.candidates", None),
    ("ensql.generation", "build_generation_prompt", "generation.prompt_build",
     _generation_prompt),
    ("ensql.generation", "extract_sql", "generation.extract_sql", None),
    ("ensql.harness", "execute_candidate", "selection.execute", _execute),
    ("ensql.selection", "normalize_result", "selection.normalize", None),
    ("ensql.harness", "select", "selection.select", _select),
    ("ensql.gateway", "LlmGateway.complete", "gateway.complete", _complete),
)


class Tracer:
    """Records spans around the engine's layer functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._active: dict[str, int] = {}  # question id -> timed index
        self._lock = threading.Lock()
        self._timed_from = float("inf")

    # -- called by the benchmark's client threads ------------------------------

    def begin(self, index: int, qid: str) -> None:
        with self._lock:
            self._active[qid] = index
        self._local.box = _Box(index, client=True)

    def end(self) -> None:
        box = self._local.box
        with self._lock:
            self._active = {q: i for q, i in self._active.items() if i != box.exec}
        self._local.box = _Box(None, client=True)

    def mark_timed(self) -> None:
        """Spans that start from now on belong to the timed phase."""
        self._timed_from = time.perf_counter()

    # -- span bookkeeping -------------------------------------------------------

    def _box(self) -> _Box:
        box = getattr(self._local, "box", None)
        if box is None:
            box = self._local.box = _Box(None, client=False)
        return box

    def _open(self, name: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, self._box(), stack[-1] if stack else None)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    def learn(self, span: Span, qid: str) -> None:
        """Tie a worker thread's spans to the question a call just named."""
        box = span.box
        if box.client:
            return
        with self._lock:
            index = self._active.get(qid)
        if box.exec is None:
            box.exec = index
        elif box.exec != index:  # the thread moved on to another question
            span.box = self._local.box = _Box(index, client=False)

    def _wrap(self, fn: Callable, name: str, note: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                tracer._close(span)
                raise
            tracer._close(span)
            if note is not None:
                note(tracer, span, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, note in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(original, name, note))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    # -- folding spans into metrics ---------------------------------------------

    def _adopt_orphans(self, timed: list[Span]) -> None:
        """Give each worker-thread root span its enclosing client-thread span."""
        client_spans: dict[int, list[Span]] = defaultdict(list)
        for span in timed:
            if span.box.client and span.exec is not None:
                client_spans[span.exec].append(span)
        for span in timed:
            if span.parent is not None or span.box.client:
                continue
            enclosing = [
                c for c in client_spans.get(span.exec, ())
                if c.start <= span.start and span.end <= c.end
            ]
            if enclosing:
                span.parent = max(enclosing, key=lambda c: c.start)

    def report(self, result, phase, config, backend) -> None:
        """Add every per-layer metric of the traced phase to the result."""
        timed = [s for s in self.spans if s.start >= self._timed_from]
        self._adopt_orphans(timed)
        questions = len(phase.outcomes)
        by_name: dict[str, list[Span]] = defaultdict(list)
        children: dict[int, list[Span]] = defaultdict(list)
        for span in timed:
            by_name[span.name].append(span)
            if span.parent is not None:
                children[id(span.parent)].append(span)

        def self_ms(span: Span) -> float:
            covered, reach = 0.0, span.start
            for child in sorted(children[id(span)], key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            return span.ms - covered * 1000.0

        def mean(values) -> float:
            values = list(values)
            return statistics.fmean(values) if values else 0.0

        def per_call(name: str, scale: float = 1.0) -> float:
            return mean(s.ms * scale for s in by_name[name])

        def fail_frac(name: str) -> float:
            spans = by_name[name]
            return sum(1 for s in spans if s.error) / len(spans) if spans else 0.0

        calls = by_name["gateway.complete"]
        stage_calls: dict[str, dict[int, list[tuple[float, float]]]] = {
            stage: defaultdict(list) for stage in STAGES
        }
        for span in calls:
            if span.meta is not None and span.meta[0] in stage_calls:
                stage_calls[span.meta[0]][span.exec].append((span.start, span.end))
        result.add("gateway.call_ms", per_call("gateway.complete"), "ms", "(mean per call)")
        result.add("gateway.in_flight_peak", backend.in_flight_peak, "count",
                   f"(configured max_in_flight {config.max_in_flight}; not gated)")
        result.add("gateway.prompt_tokens_per_call",
                   mean(s.meta[1] for s in calls if s.meta), "count")
        for stage in STAGES:
            waves = sum(count_waves(iv) for iv in stage_calls[stage].values())
            result.add(f"gateway.waves.{stage}", waves / questions, "count",
                       "(per question)")

        result.add("linking.calls_per_question",
                   sum(len(v) for v in stage_calls["linking"].values()) / questions, "count")
        result.add("linking.prompt_build_us", per_call("linking.prompt_build", 1000.0), "us")
        result.add("linking.parse_us", per_call("linking.parse", 1000.0), "us")
        result.add("linking.parse_fail_frac", fail_frac("linking.parse"), "ratio")

        renders = by_name["formats.render"]
        seen = {s.meta for s in self.spans if s.name == "formats.render" and s.meta
                and s.start < self._timed_from}
        repeats = 0
        for span in sorted(renders, key=lambda s: s.start):
            repeats += span.meta in seen
            seen.add(span.meta)
        result.add("formats.render_us", per_call("formats.render", 1000.0), "us")
        result.add("formats.render_calls_per_question", len(renders) / questions, "count")
        result.add("formats.repeat_render_frac",
                   repeats / len(renders) if renders else 0.0, "ratio",
                   "(renders of a text already rendered for the same catalog)")

        introspections = [s for s in self.spans if s.name == "catalog.introspect"]
        result.add("catalog.introspect_ms", mean(s.ms for s in introspections), "ms",
                   f"(per database, {len(introspections)} introspected)")
        result.add("catalog.apply_filter_us", per_call("catalog.apply_filter", 1000.0), "us")
        result.add("catalog.apply_filter_calls_per_question",
                   len(by_name["catalog.apply_filter"]) / questions, "count")

        generations = by_name["generation.candidates"]
        result.add("generation.prompt_build_us",
                   per_call("generation.prompt_build", 1000.0), "us")
        result.add("generation.candidates_ms", per_call("generation.candidates"), "ms",
                   "(one generate_candidates call)")
        result.add("generation.self_ms", mean(self_ms(s) for s in generations), "ms",
                   "(generate_candidates minus its child spans)")
        result.add("generation.no_code_block_frac", fail_frac("generation.extract_sql"),
                   "ratio")

        executions = by_name["selection.execute"]
        sql_by_exec: dict[int, list[str]] = defaultdict(list)
        for span in executions:
            sql_by_exec[span.exec].append(span.meta[0] if span.meta else "")
        distinct = sum(len(set(v)) for v in sql_by_exec.values())
        rows = [s.meta[1] for s in executions if s.meta and s.meta[1] is not None]
        selects = by_name["selection.select"]
        judged = sum(len(v) for v in stage_calls["selection"].values())
        result.add("selection.execute_ms", per_call("selection.execute"), "ms")
        result.add("selection.normalize_ms", per_call("selection.normalize"), "ms")
        result.add("selection.executions_per_question", len(executions) / questions, "count",
                   "(gold included)")
        result.add("selection.distinct_sql_frac",
                   distinct / len(executions) if executions else 0.0, "ratio",
                   "(distinct SQL texts per question / executions)")
        result.add("selection.rows_per_execution", mean(rows), "count")
        result.add("selection.select_ms", per_call("selection.select"), "ms")
        result.add("selection.judge_calls_per_question", judged / questions, "count")
        result.add("selection.escalated_frac",
                   sum(1 for s in selects if s.meta == "pairwise_llm") / len(selects)
                   if selects else 0.0, "ratio")

        items = by_name["harness.run_item"]
        gold_ms = []
        for item in items:
            golds = [s for s in executions
                     if s.exec == item.exec and s.meta and s.meta[0] == item.meta]
            if golds:
                gold_ms.append(max(golds, key=lambda s: s.start).ms)
        result.add("harness.run_item_self_ms", mean(self_ms(s) for s in items), "ms",
                   "(run_item minus its child spans)")
        result.add("harness.gold_ms", mean(gold_ms), "ms",
                   "(the question's last execution of its reference SQL)")
