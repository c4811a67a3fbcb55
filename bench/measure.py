"""Set-up, the timed closed loop, output checks and end-to-end metrics.

One run of a workload: build the engine's runner several times (timing
each set-up), drive questions through PipelineRunner.run_item from one or
two client threads until the time is up, check every record against its
plan, replay one block of the mix through run_benchmark twice with timing
off, and fold it all into the metrics the benchmark prints.
"""
from __future__ import annotations

import json
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

from ensql.config import PipelineConfig
from ensql.gateway import PriceTable, RecordingChatBackend, ReplayChatBackend, TokenUsage
from ensql.harness import BenchmarkItem, PipelineRunner, RunRecord, run_benchmark

from model import ScriptedModel, TimedBackend, count_waves
from workloads import WORKLOADS, Plan, Workload

SLICES = 5
SETUPS_PER_SLICE = 3  # at most; fewer once a slice's set-ups took SLICE_SETUP_S
SLICE_SETUP_S = 0.6
PRICES = Path(__file__).resolve().parent / "prices.json"


@dataclass
class Outcome:
    """One timed question: its plan, wall time, waves and what went wrong."""

    index: int
    plan: Plan
    ms: float
    waves: int
    record: RunRecord | None
    problem: str | None


@dataclass
class Phase:
    """The questions one timed phase completed and its wall time."""

    outcomes: list[Outcome]
    wall_s: float

    def ms(self) -> list[float]:
        return [o.ms for o in self.outcomes]


@dataclass
class Result:
    """What a run prints: text lines, the metrics, and the check counts."""

    lines: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (value, unit)
        self.lines.append(f"{name}: {value:.6g} {unit}{'  ' + note if note else ''}")


def item_of(plan: Plan) -> BenchmarkItem:
    return BenchmarkItem(
        question_id=plan.qid,
        db_id=plan.db_id,
        question=plan.question,
        gold_sql=plan.gold_sql,
        db_path=plan.db_path,
    )


def check(record: RunRecord, plan: Plan) -> str | None:
    """Compare a record with its plan; None when every planted field holds."""
    if record.error:
        return f"{plan.qid}: errored: {record.error}"
    sel = record.selection
    if sel is None:
        return f"{plan.qid}: no selection"
    found = (sel.chosen_sql, sel.method.value, record.llm_calls(), record.gold_ok, record.ex)
    wanted = (plan.chosen_sql, plan.method, plan.calls, True, plan.ex)
    if found != wanted:
        return f"{plan.qid}: (sql, method, calls, gold_ok, ex) = {found!r}, planted {wanted!r}"
    return None


def setup(
    workload: Workload, config: PipelineConfig, backend: TimedBackend, warm: Plan
) -> tuple[PipelineRunner, float, str | None]:
    """Runner, every database introspected, one warm-up question; timed."""
    started = time.perf_counter()
    runner = PipelineRunner(config, backend, record_timing=True)  # as run_benchmark builds it
    for db_id, path in workload.dbs.items():
        runner.catalog_for(db_id, path)
    record = runner.run_item(item_of(warm))
    elapsed = time.perf_counter() - started
    backend.take_intervals(warm.qid)
    return runner, elapsed, check(record, warm)


def timed_phase(
    runner: PipelineRunner,
    workload: Workload,
    backend: TimedBackend,
    seconds: float,
    first: int = 0,
    tracer=None,
) -> Phase:
    """Closed loop: each client sends its next question when the last returns."""
    plans = workload.plans
    lock = threading.Lock()
    outcomes: list[Outcome] = []
    next_index = first
    deadline = time.perf_counter() + seconds

    def client() -> None:
        nonlocal next_index
        while True:
            with lock:
                if time.perf_counter() >= deadline:
                    return
                index = next_index
                next_index += 1
            plan = plans[index % len(plans)]
            if tracer is not None:
                tracer.begin(index, plan.qid)
            started = time.perf_counter()
            try:
                record = runner.run_item(item_of(plan))
                problem = check(record, plan)
            except Exception as exc:  # a question that raises counts as failed
                record, problem = None, f"{plan.qid}: raised {type(exc).__name__}: {exc}"
            ms = (time.perf_counter() - started) * 1000.0
            if tracer is not None:
                tracer.end()
            waves = count_waves(backend.take_intervals(plan.qid))
            with lock:
                outcomes.append(Outcome(index, plan, ms, waves, record, problem))

    threads = [threading.Thread(target=client) for _ in range(workload.clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started
    outcomes.sort(key=lambda o: o.index)
    return Phase(outcomes, wall_s)


def replay_check(
    workload: Workload, config: PipelineConfig, table: PriceTable, model: ScriptedModel,
    work_dir: Path,
) -> list[str]:
    """Record one block through run_benchmark, replay it twice, compare bytes."""
    plans = workload.plans[: workload.block]
    items = [item_of(p) for p in plans]
    fixture = work_dir / "replay_fixture.jsonl"
    outputs = []
    problems = []
    for attempt in range(3):
        backend = (
            RecordingChatBackend(model, fixture) if attempt == 0 else ReplayChatBackend(fixture)
        )
        out = work_dir / f"replay_{attempt}.jsonl"
        records, _ = run_benchmark(
            config, items, backend, out_path=out, workers=1, record_timing=False,
            price_table=table,
        )
        outputs.append(out.read_bytes().splitlines())
        problems += [p for p in (check(r, plan) for r, plan in zip(records, plans)) if p]
    for plan, lines in zip(plans, zip(*outputs)):
        if len(set(lines)) != 1:
            problems.append(f"{plan.qid}: replayed record lines differ")
    if any(len(lines) != len(plans) for lines in outputs):
        problems.append("replay wrote the wrong number of records")
    return problems


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    That is the eleventh-largest sample, at percentile 100 * (n - 10) / n.
    With fewer than 20 samples the median stands in.
    """
    n = len(values)
    if n < 20:
        return 50.0, statistics.median(values)
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def whole_blocks(phase: Phase, block: int) -> list[Outcome]:
    """The completed questions cut to whole repetitions of the mix."""
    outcomes = phase.outcomes
    keep = len(outcomes) // block * block
    return outcomes[:keep] if keep else outcomes


def question_cost(record: RunRecord, table: PriceTable) -> Decimal:
    return sum(
        (table.dollars(r.model, TokenUsage(r.input_tokens, r.output_tokens)) for r in record.usage),
        Decimal(0),
    )


def end_to_end(
    result: Result, workload: Workload, phase: Phase, setups: list[float], table: PriceTable
) -> None:
    """Add the end-to-end metrics of one untraced phase to the result."""
    ms = phase.ms()
    counted = [o for o in whole_blocks(phase, workload.block) if o.record is not None]
    if not counted:
        result.lines.append("no question completed; no end-to-end metrics")
        return
    result.add("setup_s", statistics.median(setups), "s",
               f"(median of {len(setups)} set-ups)")
    result.add("question_ms_p50", statistics.median(ms), "ms", f"(n={len(ms)})")
    p, value = tail(ms)
    result.add("question_ms_tail", value, "ms", f"(p{p:.2f}, n={len(ms)})")
    result.add("questions_per_s", len(ms) / phase.wall_s, "1/s",
               f"({workload.clients} client(s), closed loop)")
    result.add("calls_per_question", statistics.fmean(o.record.llm_calls() for o in counted),
               "count", f"(over {len(counted)} questions in whole blocks of {workload.block})")
    result.add("waves_per_question", statistics.fmean(o.waves for o in counted), "count")
    cost = sum((question_cost(o.record, table) for o in counted), Decimal(0)) / len(counted)
    result.add("cost_usd_per_question", float(cost), "USD", f"(exact: {cost:.12f})")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.add("peak_rss_mb", rss_mb, "MB")


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, work_dir: Path, small: bool = False
) -> Result:
    """One benchmark run; wrong answers do not raise, they are counted."""
    workload = WORKLOADS[name](seed, work_dir, small=small)
    config = PipelineConfig.default()
    table = PriceTable.load(PRICES)
    model = ScriptedModel(workload.plans + workload.warmups)
    backend = TimedBackend(model, workload.latency_s)
    result = Result()
    failures: dict[str, str] = {}  # one entry per failed question run

    def note(key: str, problem: str | None) -> None:
        if problem:
            failures.setdefault(key, problem)

    # set-ups alternate with slices of the timed phase, so that the set-up
    # median samples the machine at several moments of the run; cheap
    # set-ups repeat within a slice to give the median more samples
    setups = []
    slices = 1 if trace else SLICES
    timed_s = seconds / 2 if trace else seconds
    outcomes: list[Outcome] = []
    wall_s = 0.0
    for _ in range(slices):
        spent = 0.0
        for _ in range(1 if trace else SETUPS_PER_SLICE):
            runner, elapsed, problem = setup(
                workload, config, backend, workload.warmups[len(setups)]
            )
            note(f"warm-up {len(setups)}", problem)
            setups.append(elapsed)
            spent += elapsed
            if spent >= SLICE_SETUP_S:
                break
        part = timed_phase(runner, workload, backend, timed_s / slices, first=len(outcomes))
        outcomes += part.outcomes
        wall_s += part.wall_s
    phase = Phase(list(outcomes), wall_s)
    warmups_run = len(setups)

    if trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer.installed():
            runner, _, problem = setup(workload, config, backend, workload.warmups[-1])
            warmups_run += 1
            note("traced warm-up", problem)
            tracer.mark_timed()
            traced = timed_phase(
                runner, workload, backend, timed_s, first=len(outcomes), tracer=tracer
            )
        outcomes += traced.outcomes
        tracer.report(result, traced, config, backend)
        overhead = statistics.median(traced.ms()) - statistics.median(phase.ms())
        result.add("trace.overhead_ms", overhead, "ms",
                   "(traced question_ms_p50 minus untraced)")
        result.lines.append("untraced end-to-end metrics of this run, for reference:")
        reference = Result()
        end_to_end(reference, workload, phase, setups, table)
        result.lines += ["  " + line for line in reference.lines]
    else:
        end_to_end(result, workload, phase, setups, table)
        result.lines.append(
            f"gateway.in_flight_peak: {backend.in_flight_peak} calls"
            f"  (configured max_in_flight {config.max_in_flight}; not gated)"
        )

    for outcome in outcomes:
        note(f"timed {outcome.index}", outcome.problem)
    for problem in replay_check(workload, config, table, model, work_dir):
        note("replay " + problem.split(":", 1)[0], problem)
    result.attempted = warmups_run + len(outcomes) + workload.block
    result.failed = len(failures)
    result.lines.append(
        f"failed_frac: {result.failed / result.attempted:.6g} ratio"
        f"  ({result.failed} failed of {result.attempted} attempted: {warmups_run} warm-up,"
        f" {len(outcomes)} timed, {workload.block} recorded and replayed twice)"
    )
    result.lines += [f"check failed: {p}" for p in list(failures.values())[:20]]
    return result


def result_json(result: Result) -> str:
    return json.dumps(
        {
            "correct": result.failed == 0,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        }
    )
