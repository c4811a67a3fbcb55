"""Benchmark harness: datasets, the per-question pipeline, and analyses.

Runs the full engine over BIRD/SPIDER-style datasets, streams one JSON
record per question to disk in dataset order, and aggregates execution
accuracy alongside call, token, and dollar accounting.  Also home to the
selection-quality analyses (accuracy bounds, accuracy by vote count) and
the representation-combination sweep.
"""
from __future__ import annotations

import itertools
import json
import logging
import math
import random
import statistics
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .catalog import FilterLevel, SchemaCatalog, introspect
from .config import PipelineConfig
from .formats import RepresentationFormat, render
from .gateway import (
    CallThrottle,
    ChatBackend,
    ChatRequest,
    CostLedger,
    EmbeddingBackend,
    GatewayError,
    HashEmbeddingBackend,
    LLM_STAGES,
    LlmGateway,
    PriceTable,
    STAGE_LINKING,
    TokenUsage,
    UsageRow,
)
from .generation import (
    CandidateSpec,
    FewShotExample,
    FewShotStore,
    SqlCandidate,
    generate_slot,
    retrieve_fewshots,
    slot_request,
)
from .linking import (
    LinkerRun,
    LinkingParseError,
    LinkingPrediction,
    build_linking_prompt,
    parse_linking_response,
)
from .selection import (
    Confidence,
    ExecStatus,
    ExecutionResult,
    PairwiseJudge,
    SelectionMethod,
    SelectionOutcome,
    execute_candidate,
    load_judge_template,
    select,
)

log = logging.getLogger(__name__)


class DatasetError(Exception):
    """The dataset layout or content is unusable."""


class GoldExecutionError(Exception):
    """A reference query failed to execute, so the item cannot be scored."""


class SweepError(Exception):
    """The sweep request is malformed or too large."""


@dataclass(frozen=True)
class BenchmarkItem:
    """One dataset question with its resolved database path."""

    question_id: str
    db_id: str
    question: str
    gold_sql: str
    hint: str = ""
    difficulty: str | None = None
    db_path: str = ""


def load_dataset(
    path: str | Path,
    split: str = "dev",
    db_root: str | Path | None = None,
    limit: int | None = None,
) -> list[BenchmarkItem]:
    """Load a BIRD/SPIDER-style dataset.

    path is the dataset root holding {split}.json, or the JSON file itself.
    Questions read "question"; reference SQL reads "SQL" (BIRD) or "query"
    (SPIDER); the optional "evidence" field becomes the hint.  Databases are
    expected at {db_root}/{db_id}/{db_id}.sqlite, with db_root defaulting to
    the first of {split}_databases, databases, or database under the root.
    Malformed records are skipped with a warning; a missing database file
    raises DatasetError.
    """
    root = Path(path)
    if root.is_file():
        data_file, root_dir = root, root.parent
    else:
        data_file, root_dir = root / f"{split}.json", root
    if not data_file.is_file():
        raise DatasetError(f"dataset file not found: {data_file}")
    try:
        doc = json.loads(data_file.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{data_file} is not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise DatasetError(f"{data_file} must hold a JSON list of questions")

    if db_root is not None:
        db_dirs = [Path(db_root)]
    else:
        db_dirs = [
            root_dir / f"{split}_databases",
            root_dir / "databases",
            root_dir / "database",
        ]

    items: list[BenchmarkItem] = []
    skipped = 0
    for position, record in enumerate(doc):
        if limit is not None and len(items) >= limit:
            break
        if not isinstance(record, dict):
            log.warning("%s[%d]: not an object; skipped", data_file.name, position)
            skipped += 1
            continue
        question = record.get("question")
        db_id = record.get("db_id")
        gold_sql = record.get("SQL") or record.get("query") or record.get("sql")
        if not question or not db_id or not gold_sql:
            log.warning(
                "%s[%d]: missing question/db_id/SQL; skipped", data_file.name, position
            )
            skipped += 1
            continue
        db_path = None
        for db_dir in db_dirs:
            candidate = db_dir / db_id / f"{db_id}.sqlite"
            if candidate.is_file():
                db_path = candidate
                break
        if db_path is None:
            searched = ", ".join(str(d / db_id / f"{db_id}.sqlite") for d in db_dirs)
            raise DatasetError(f"database file for {db_id!r} not found; searched {searched}")
        items.append(
            BenchmarkItem(
                question_id=str(record.get("question_id", position)),
                db_id=str(db_id),
                question=str(question),
                gold_sql=str(gold_sql),
                hint=str(record.get("evidence") or ""),
                difficulty=record.get("difficulty"),
                db_path=str(db_path),
            )
        )
    if skipped:
        log.warning("%s: skipped %d malformed records", data_file.name, skipped)
    return items


def matches(result: ExecutionResult, gold: ExecutionResult) -> bool:
    """Whether a candidate's result multiset equals the reference's."""
    return result.ok and result.signature == gold.signature


def execution_accuracy(
    pred_sql: str,
    gold_sql: str,
    db_path: str | Path,
    timeout_s: float = 30.0,
    precision: int = 6,
) -> int:
    """1 when the prediction's result multiset matches the reference's.

    The reference query must succeed; a failing reference raises
    GoldExecutionError since such an item cannot be scored at all.  A
    failing prediction simply scores 0.
    """
    gold = execute_candidate(gold_sql, db_path, timeout_s, precision)
    if not gold.ok:
        raise GoldExecutionError(f"reference query failed: {gold.error_text}")
    return int(matches(execute_candidate(pred_sql, db_path, timeout_s, precision), gold))


# -- run records ----------------------------------------------------------------


@dataclass
class RunRecord:
    """Everything one question produced, serializable to a JSONL line.

    wall_ms is 0.0 when timing is disabled (replay runs), keeping records
    byte-identical across repeated replays.  error marks items that failed
    before producing a selection; they are excluded from accuracy but
    counted in the report.
    """

    question_id: str
    db_id: str
    question: str
    gold_sql: str
    gold_ok: bool
    candidates: list[SqlCandidate] = field(default_factory=list)
    selection: SelectionOutcome | None = None
    candidate_ex: list[int] = field(default_factory=list)
    ex: int = 0
    usage: list[UsageRow] = field(default_factory=list)
    wall_ms: float = 0.0
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "db_id": self.db_id,
            "question": self.question,
            "gold_sql": self.gold_sql,
            "gold_ok": self.gold_ok,
            "candidates": [_candidate_to_dict(c) for c in self.candidates],
            "selection": _selection_to_dict(self.selection),
            "candidate_ex": list(self.candidate_ex),
            "ex": self.ex,
            "usage": [
                {
                    "model": u.model,
                    "stage": u.stage,
                    "calls": u.calls,
                    "input_tokens": u.input_tokens,
                    "output_tokens": u.output_tokens,
                }
                for u in self.usage
            ],
            "wall_ms": self.wall_ms,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunRecord":
        return cls(
            question_id=doc["question_id"],
            db_id=doc["db_id"],
            question=doc["question"],
            gold_sql=doc["gold_sql"],
            gold_ok=doc["gold_ok"],
            candidates=[_candidate_from_dict(c) for c in doc["candidates"]],
            selection=_selection_from_dict(doc.get("selection")),
            candidate_ex=[int(x) for x in doc["candidate_ex"]],
            ex=int(doc["ex"]),
            usage=[
                UsageRow(
                    model=u["model"],
                    stage=u["stage"],
                    calls=int(u["calls"]),
                    input_tokens=int(u["input_tokens"]),
                    output_tokens=int(u["output_tokens"]),
                )
                for u in doc["usage"]
            ],
            wall_ms=float(doc.get("wall_ms", 0.0)),
            error=doc.get("error"),
        )

    def llm_calls(self) -> int:
        return sum(u.calls for u in self.usage if u.stage in LLM_STAGES)

    def total_tokens(self) -> int:
        return sum(
            u.input_tokens + u.output_tokens for u in self.usage if u.stage in LLM_STAGES
        )


def _candidate_to_dict(candidate: SqlCandidate) -> dict:
    execution = None
    if candidate.execution is not None:
        # elapsed_ms is intentionally dropped: it varies run to run
        execution = {
            "status": candidate.execution.status.value,
            "signature": candidate.execution.signature,
            "row_count": candidate.execution.row_count,
            "error_text": candidate.execution.error_text,
            "preview": candidate.execution.preview,
        }
    return {
        "spec_index": candidate.spec_index,
        "sql": candidate.sql,
        "raw_response": candidate.raw_response,
        "input_tokens": candidate.usage.input_tokens,
        "output_tokens": candidate.usage.output_tokens,
        "execution": execution,
    }


def _candidate_from_dict(doc: dict) -> SqlCandidate:
    execution = None
    if doc.get("execution") is not None:
        raw = doc["execution"]
        execution = ExecutionResult(
            status=ExecStatus(raw["status"]),
            signature=raw.get("signature"),
            row_count=raw.get("row_count"),
            error_text=raw.get("error_text"),
            preview=raw.get("preview"),
        )
    return SqlCandidate(
        spec_index=int(doc["spec_index"]),
        sql=doc["sql"],
        raw_response=doc.get("raw_response", ""),
        usage=TokenUsage(int(doc.get("input_tokens", 0)), int(doc.get("output_tokens", 0))),
        execution=execution,
    )


def _selection_to_dict(selection: SelectionOutcome | None) -> dict | None:
    if selection is None:
        return None
    return {
        "chosen_index": selection.chosen_index,
        "chosen_sql": selection.chosen_sql,
        "distribution": list(selection.distribution),
        "confidence": selection.confidence.value,
        "method": selection.method.value,
        "pairwise_calls": selection.pairwise_calls,
        "chosen_votes": selection.chosen_votes,
    }


def _selection_from_dict(doc: dict | None) -> SelectionOutcome | None:
    if doc is None:
        return None
    return SelectionOutcome(
        chosen_index=int(doc["chosen_index"]),
        chosen_sql=doc["chosen_sql"],
        distribution=tuple(int(d) for d in doc["distribution"]),
        confidence=Confidence(doc["confidence"]),
        method=SelectionMethod(doc["method"]),
        pairwise_calls=int(doc["pairwise_calls"]),
        chosen_votes=int(doc["chosen_votes"]),
    )


def write_records(records: Iterable[RunRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_dict(), ensure_ascii=False) + "\n")


def read_records(path: str | Path) -> list[RunRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(RunRecord.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise DatasetError(f"{path}:{line_no}: bad run record: {exc}") from exc
    return records


# -- the per-question pipeline ----------------------------------------------------


class PipelineRunner:
    """Executes the full pipeline for single questions.

    Catalogs are introspected once per database and cached.  The runner
    owns one CallThrottle for the whole run: config.max_in_flight caps the
    model calls in flight across every question it serves, however many
    questions run at once (run_benchmark's workers).  Each question gets its
    own gateway and ledger around that throttle, so per-question usage is
    exact and the run ledger is the merge of item ledgers.

    run_item is the candidate stage (candidates: link, generate, execute)
    followed by the selection stage; sweep runs the same candidate stage
    over its own slate.  A question's model calls follow its dependency
    graph (see generate_candidates), and an escalated tournament submits
    all its comparisons together.  The pool threads exit when the runner is
    closed or garbage-collected.
    """

    def __init__(
        self,
        config: PipelineConfig,
        chat_backend: ChatBackend,
        embedding_backend: EmbeddingBackend | None = None,
        fewshot_store: FewShotStore | None = None,
        descriptions: Mapping[str, Mapping[str, Mapping[str, str]]] | None = None,
        record_timing: bool = True,
    ):
        self.config = config
        self.chat_backend = chat_backend
        self.embedding_backend = embedding_backend or HashEmbeddingBackend()
        self.fewshot_store = fewshot_store
        self.descriptions = descriptions or {}
        self.record_timing = record_timing
        self.specs, self.linker_plan = config.to_candidate_specs()
        self.throttle = CallThrottle(config.max_in_flight)
        self._judge_template = load_judge_template()
        self._catalogs: dict[str, SchemaCatalog] = {}
        self._catalog_lock = threading.Lock()

    def __enter__(self) -> "PipelineRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self.throttle.close()

    def gateway(self) -> LlmGateway:
        """A fresh gateway and ledger around the runner's throttle."""
        return LlmGateway(
            chat_backend=self.chat_backend,
            embedding_backend=self.embedding_backend,
            ledger=CostLedger(),
            throttle=self.throttle,
        )

    def catalog_for(self, db_id: str, db_path: str) -> SchemaCatalog:
        with self._catalog_lock:
            cached = self._catalogs.get(db_id)
        if cached is not None:
            return cached
        catalog = introspect(
            db_path,
            sample_k=self.config.sample_k,
            category_threshold=self.config.category_threshold,
            descriptions=self.descriptions.get(db_id),
        )
        with self._catalog_lock:
            self._catalogs.setdefault(db_id, catalog)
        return catalog

    def execute(self, sql: str, db_path: str) -> ExecutionResult:
        """Execute sql under the config's timeout and result precision."""
        return execute_candidate(
            sql, db_path,
            timeout_s=self.config.execution_timeout_s,
            precision=self.config.result_precision,
        )

    def candidates(
        self,
        item: BenchmarkItem,
        gateway: LlmGateway,
        specs: Sequence[CandidateSpec],
        linker_plan: Mapping[str, tuple[RepresentationFormat, str]],
    ) -> list[SqlCandidate]:
        """The candidate stage: link, generate and execute one slate."""
        config = self.config
        candidates = generate_candidates(
            specs, linker_plan, self.catalog_for(item.db_id, item.db_path), item,
            gateway, self.fewshot_store, config.fewshot_k, config.max_tokens,
        )
        for candidate in candidates:
            if candidate.execution is None:
                candidate.execution = self.execute(candidate.sql, item.db_path)
        return candidates

    def run_item(self, item: BenchmarkItem) -> RunRecord:
        started = time.monotonic()
        gateway = self.gateway()
        config = self.config
        candidates = self.candidates(item, gateway, self.specs, self.linker_plan)

        gold_ok = False
        candidate_ex = [0] * len(candidates)
        if item.gold_sql:
            gold = self.execute(item.gold_sql, item.db_path)
            gold_ok = gold.ok
            if not gold_ok:
                log.warning(
                    "question %s: reference query failed (%s); excluded from accuracy",
                    item.question_id, gold.error_text,
                )
            else:
                candidate_ex = [int(matches(c.execution, gold)) for c in candidates]

        judge = PairwiseJudge(
            gateway, config.judge_model, template=self._judge_template,
            question_id=item.question_id,
        )
        outcome = select(
            candidates,
            question=item.question,
            schema_text=render(
                self.catalog_for(item.db_id, item.db_path), config.judge_schema_format
            ),
            judge=judge,
            rules=config.confidence_rules,
        )
        ex = candidate_ex[outcome.chosen_index] if gold_ok else 0
        wall_ms = (time.monotonic() - started) * 1000.0 if self.record_timing else 0.0
        return RunRecord(
            question_id=item.question_id,
            db_id=item.db_id,
            question=item.question,
            gold_sql=item.gold_sql,
            gold_ok=gold_ok,
            candidates=candidates,
            selection=outcome,
            candidate_ex=candidate_ex,
            ex=ex,
            usage=gateway.ledger.rows(),
            wall_ms=wall_ms,
        )


def linker_request(
    fmt: RepresentationFormat,
    model: str,
    catalog: SchemaCatalog,
    item: BenchmarkItem,
    max_tokens: int,
) -> ChatRequest:
    """The request of one linker run: the schema rendered in fmt, for model."""
    messages = build_linking_prompt(render(catalog, fmt), item.question, item.hint)
    return ChatRequest(
        model=model, messages=tuple(messages), temperature=0.0, max_tokens=max_tokens
    )


def link(
    run_id: str,
    fmt: RepresentationFormat,
    request: ChatRequest,
    item: BenchmarkItem,
    gateway: LlmGateway,
) -> LinkerRun:
    """Make one linker call and parse its prediction; failures never raise."""
    try:
        response = gateway.complete(request, stage=STAGE_LINKING)
    except GatewayError as exc:
        log.warning("question %s: linker run %s failed: %s", item.question_id, run_id, exc)
        return LinkerRun(
            run_id=run_id, format=fmt, model=request.model, prediction=None,
            error=f"BackendError: {exc}",
        )
    try:
        prediction = parse_linking_response(response.text)
        error = None
    except LinkingParseError as exc:
        log.warning(
            "question %s: linker run %s unparseable: %s", item.question_id, run_id, exc
        )
        prediction, error = None, f"{type(exc).__name__}: {exc}"
    return LinkerRun(
        run_id=run_id,
        format=fmt,
        model=request.model,
        prediction=prediction,
        usage=response.usage,
        response_text=response.text,
        error=error,
    )


def generate_candidates(
    specs: Sequence[CandidateSpec],
    linker_plan: Mapping[str, tuple[RepresentationFormat, str]],
    catalog: SchemaCatalog,
    item: BenchmarkItem,
    gateway: LlmGateway,
    fewshot_store: FewShotStore | None = None,
    fewshot_k: int = 0,
    max_tokens: int = 2048,
) -> list[SqlCandidate]:
    """One candidate per spec, in order, each started once its inputs exist.

    linker_plan maps linker run id -> (format, model).  Linker runs,
    few-shot retrieval and the specs that filter nothing start at once; a
    filtering spec starts as soon as its own linker run resolves, and falls
    back to the full schema when that run failed.  This thread builds every
    prompt and hands only the calls to the gateway's pool; it alone waits on
    futures, so no pool thread ever blocks on another task.
    """
    inputs: dict[Future, str | None] = {  # linker run id; None for few-shots
        gateway.submit(
            link, run_id, fmt,
            linker_request(fmt, model, catalog, item, max_tokens), item, gateway,
        ): run_id
        for run_id, (fmt, model) in linker_plan.items()
    }
    fewshots: Sequence[FewShotExample] | None = ()
    if fewshot_store is not None and fewshot_k > 0:
        fewshots = None
        retrieval = gateway.submit(
            retrieve_fewshots, item.question, fewshot_store, gateway, fewshot_k
        )
        inputs[retrieval] = None
    predictions: dict[str, LinkingPrediction | None] = {}
    slots: dict[int, Future] = {}

    def start_ready_slots() -> None:
        if fewshots is None:
            return
        for spec in specs:
            waiting = spec.linker_run is not None and spec.linker_run not in predictions
            if waiting or spec.spec_index in slots:
                continue
            request = slot_request(
                spec, item.question, item.hint, predictions.get(spec.linker_run or ""),
                catalog, fewshots, max_tokens, item.question_id,
            )
            slots[spec.spec_index] = gateway.submit(
                generate_slot, spec, request, gateway, item.question_id
            )

    start_ready_slots()
    for future in as_completed(inputs):
        run_id = inputs[future]
        if run_id is None:
            fewshots = future.result()
        else:
            predictions[run_id] = future.result().prediction
        start_ready_slots()
    return [slots[spec.spec_index].result() for spec in specs]


# -- reports and aggregation ------------------------------------------------------


@dataclass
class Report:
    """Benchmark aggregates in the shape of the headline results table."""

    items: int
    scored: int
    gold_failures: int
    failed: int
    ex: float
    calls_typical: float
    calls_avg: float
    tokens_k_avg: float
    cost_usd_avg: Decimal
    cost_usd_total: Decimal
    escalated: int

    def to_dict(self) -> dict:
        return {
            "items": self.items,
            "scored": self.scored,
            "gold_failures": self.gold_failures,
            "failed": self.failed,
            "ex": self.ex,
            "calls_typical": self.calls_typical,
            "calls_avg": self.calls_avg,
            "tokens_k_avg": self.tokens_k_avg,
            "cost_usd_avg": str(self.cost_usd_avg),
            "cost_usd_total": str(self.cost_usd_total),
            "escalated": self.escalated,
        }

    def render_text(self) -> str:
        typical = (
            str(int(self.calls_typical))
            if float(self.calls_typical).is_integer()
            else f"{self.calls_typical:.1f}"
        )
        calls_cell = f"{typical}({self.calls_avg:.1f})"
        lines = [
            f"items: {self.items} (scored {self.scored}, "
            f"reference failures {self.gold_failures}, errors {self.failed})",
            "",
            "EX     | LLM Calls Typical(Avg.) | Tokens (K) | Cost ($)",
            f"{100.0 * self.ex:<6.2f} | {calls_cell:<23} | "
            f"{self.tokens_k_avg:<10.2f} | {self.cost_usd_avg:.6f}",
            "",
            f"total cost ($): {self.cost_usd_total:.6f}",
            f"escalated to pairwise selection: {self.escalated}",
        ]
        return "\n".join(lines)


def aggregate_records(
    records: Sequence[RunRecord], price_table: PriceTable | None = None
) -> Report:
    """Fold run records into a Report; pure, so re-aggregation is stable.

    Accuracy averages over items whose reference query succeeded and that
    produced a selection; call/token/cost averages cover every item that
    did pipeline work (including reference failures), while errored items
    count only toward the failure tally.
    """
    table = price_table or PriceTable.default()
    worked = [r for r in records if not r.error]
    failed = len(records) - len(worked)
    scored = [r for r in worked if r.gold_ok]
    gold_failures = len(worked) - len(scored)

    ex = sum(r.ex for r in scored) / len(scored) if scored else 0.0
    calls = [r.llm_calls() for r in worked]
    tokens = [r.total_tokens() for r in worked]
    calls_typical = float(statistics.median(calls)) if calls else 0.0
    calls_avg = sum(calls) / len(calls) if calls else 0.0
    tokens_k_avg = (sum(tokens) / len(tokens)) / 1000.0 if tokens else 0.0

    total_cost = Decimal(0)
    for record in worked:
        for row in record.usage:
            total_cost += table.dollars(
                row.model, TokenUsage(row.input_tokens, row.output_tokens)
            )
    cost_avg = total_cost / len(worked) if worked else Decimal(0)
    escalated = sum(
        1
        for r in worked
        if r.selection is not None and r.selection.method is SelectionMethod.PAIRWISE_LLM
    )
    return Report(
        items=len(records),
        scored=len(scored),
        gold_failures=gold_failures,
        failed=failed,
        ex=ex,
        calls_typical=calls_typical,
        calls_avg=calls_avg,
        tokens_k_avg=tokens_k_avg,
        cost_usd_avg=cost_avg,
        cost_usd_total=total_cost,
        escalated=escalated,
    )


def run_benchmark(
    config: PipelineConfig,
    items: Sequence[BenchmarkItem],
    chat_backend: ChatBackend,
    *,
    embedding_backend: EmbeddingBackend | None = None,
    fewshot_store: FewShotStore | None = None,
    descriptions: Mapping[str, Mapping[str, Mapping[str, str]]] | None = None,
    out_path: str | Path | None = None,
    workers: int | None = None,
    record_timing: bool = True,
    price_table: PriceTable | None = None,
    progress: Callable[[RunRecord], None] | None = None,
) -> tuple[list[RunRecord], Report]:
    """Run the pipeline over a dataset with a worker pool.

    workers questions are in flight at once, and config.max_in_flight caps
    the model calls in flight across all of them.  Records stream to
    out_path as JSONL in dataset order regardless of completion order.  A
    question that raises is recorded as an errored record; the run never
    aborts on per-item failures.
    """
    runner = PipelineRunner(
        config,
        chat_backend,
        embedding_backend=embedding_backend,
        fewshot_store=fewshot_store,
        descriptions=descriptions,
        record_timing=record_timing,
    )
    pool_size = max(1, workers if workers is not None else config.workers)
    results: list[RunRecord | None] = [None] * len(items)
    out_fh = open(out_path, "w", encoding="utf-8") if out_path is not None else None
    flush_lock = threading.Lock()
    next_flush = 0

    def settle(position: int, record: RunRecord) -> None:
        nonlocal next_flush
        with flush_lock:
            results[position] = record
            while next_flush < len(results) and results[next_flush] is not None:
                if out_fh is not None:
                    out_fh.write(
                        json.dumps(results[next_flush].to_dict(), ensure_ascii=False) + "\n"
                    )
                    out_fh.flush()
                if progress is not None:
                    progress(results[next_flush])
                next_flush += 1

    try:
        if pool_size == 1:
            for position, item in enumerate(items):
                settle(position, _run_one_guarded(runner, item))
        else:
            with ThreadPoolExecutor(max_workers=pool_size) as pool:
                futures = {
                    pool.submit(_run_one_guarded, runner, item): position
                    for position, item in enumerate(items)
                }
                for future in as_completed(futures):
                    settle(futures[future], future.result())
    finally:
        runner.close()
        if out_fh is not None:
            out_fh.close()

    records = [r for r in results if r is not None]
    return records, aggregate_records(records, price_table)


def _run_one_guarded(runner: PipelineRunner, item: BenchmarkItem) -> RunRecord:
    try:
        return runner.run_item(item)
    except Exception as exc:  # per-item isolation: record and continue
        log.exception("question %s failed", item.question_id)
        return RunRecord(
            question_id=item.question_id,
            db_id=item.db_id,
            question=item.question,
            gold_sql=item.gold_sql,
            gold_ok=False,
            error=f"{type(exc).__name__}: {exc}",
        )


# -- selection-quality analyses ----------------------------------------------------


@dataclass(frozen=True)
class BoundsRow:
    """Accuracy bounds for items with a given candidate count."""

    candidate_count: int
    items: int
    ex: float
    lower: float  # every candidate correct: no selector could miss
    upper: float  # some candidate correct: a perfect selector would score


def bounds_analysis(records: Sequence[RunRecord]) -> list[BoundsRow]:
    """Upper/lower accuracy bounds, grouped by candidate count."""
    buckets: dict[int, list[RunRecord]] = {}
    for record in records:
        if record.error or not record.gold_ok or not record.candidate_ex:
            continue
        buckets.setdefault(len(record.candidate_ex), []).append(record)
    rows = []
    for count in sorted(buckets):
        group = buckets[count]
        rows.append(
            BoundsRow(
                candidate_count=count,
                items=len(group),
                ex=sum(r.ex for r in group) / len(group),
                lower=sum(all(r.candidate_ex) for r in group) / len(group),
                upper=sum(any(r.candidate_ex) for r in group) / len(group),
            )
        )
    return rows


@dataclass(frozen=True)
class VoteBucket:
    """Accuracy among items whose chosen candidate got a given vote count."""

    votes: int
    items: int
    ex: float
    upper: float


def ex_by_vote(records: Sequence[RunRecord]) -> list[VoteBucket]:
    """Accuracy bucketed by the chosen candidate's vote count.

    At the bucket where votes equal the candidate count all candidates
    agreed, so realized accuracy equals the upper bound there.
    """
    buckets: dict[int, list[RunRecord]] = {}
    for record in records:
        if record.error or not record.gold_ok or record.selection is None:
            continue
        buckets.setdefault(record.selection.chosen_votes, []).append(record)
    rows = []
    for votes in sorted(buckets):
        group = buckets[votes]
        rows.append(
            VoteBucket(
                votes=votes,
                items=len(group),
                ex=sum(r.ex for r in group) / len(group),
                upper=sum(any(r.candidate_ex) for r in group) / len(group),
            )
        )
    return rows


# -- representation sweep ----------------------------------------------------------

DEFAULT_COMBO_CAP = 2000


@dataclass(frozen=True)
class ComboResult:
    """One candidate-multiset evaluated under regular voting."""

    pool_indices: tuple[int, ...]
    labels: tuple[str, ...]
    ex: float


def rank_combinations(
    per_item: Sequence[Sequence[tuple[str, bool]]],
    n: int,
    labels: Sequence[str],
    cap: int = DEFAULT_COMBO_CAP,
) -> list[ComboResult]:
    """Score every size-n multiset of pool entries under regular voting.

    per_item[i][j] is (vote-group key, correct) for pool entry j on item i.
    Keys starting with "ok:" denote successful executions; the top Ok group
    wins (ties by earliest combination position) and its correctness is the
    item's score.  The combination count C(pool+n-1, n) must stay within
    cap; pass a larger cap explicitly to go bigger.
    """
    if not per_item:
        raise SweepError("sweep needs at least one scored item")
    pool_size = len(per_item[0])
    if any(len(row) != pool_size for row in per_item):
        raise SweepError("per-item results are ragged")
    if n < 1:
        raise SweepError("combination size must be at least 1")
    total = math.comb(pool_size + n - 1, n)
    if total > cap:
        raise SweepError(
            f"{total} combinations of {pool_size} pool entries exceed the cap of "
            f"{cap}; raise the cap explicitly to run this sweep"
        )
    results = []
    for combo in itertools.combinations_with_replacement(range(pool_size), n):
        correct = 0
        for row in per_item:
            counts: dict[str, int] = {}
            first_seen: dict[str, int] = {}
            correctness: dict[str, bool] = {}
            for position, j in enumerate(combo):
                key, is_correct = row[j]
                counts[key] = counts.get(key, 0) + 1
                first_seen.setdefault(key, position)
                correctness[key] = is_correct
            ok_keys = [k for k in counts if k.startswith("ok:")]
            if not ok_keys:
                continue
            winner = max(ok_keys, key=lambda k: (counts[k], -first_seen[k]))
            if correctness[winner]:
                correct += 1
        results.append(
            ComboResult(
                pool_indices=combo,
                labels=tuple(labels[j] for j in combo),
                ex=correct / len(per_item),
            )
        )
    results.sort(key=lambda r: (-r.ex, r.pool_indices))
    return results


def sweep(
    config: PipelineConfig,
    items: Sequence[BenchmarkItem],
    chat_backend: ChatBackend,
    formats: Sequence[RepresentationFormat],
    levels: Sequence[FilterLevel],
    n: int,
    *,
    linker_model: str | None = None,
    cap: int = DEFAULT_COMBO_CAP,
    subset_fraction: float | None = None,
    seed: int = 0,
    fewshot_store: FewShotStore | None = None,
    embedding_backend: EmbeddingBackend | None = None,
) -> list[ComboResult]:
    """Evaluate every size-n multiset of (format, level) under regular voting.

    Runs run's candidate stage with the pool as its slate (the filtering
    entries of a format share one linker run), so its requests are run's,
    then scores all combinations offline.  Items whose reference query
    fails are skipped before any model call.  subset_fraction with seed
    draws a deterministic random subset of items first.
    """
    pool = [(fmt, level) for fmt in formats for level in levels]
    if not pool:
        raise SweepError("sweep needs at least one format and one level")
    labels = [f"{fmt.value}+{level.value}" for fmt, level in pool]
    # a filtering entry consumes the one linker prediction of its format
    specs = [
        CandidateSpec(
            position, fmt, level, config.generator_model,
            None if level is FilterLevel.NO_FILTERING else fmt.value,
        )
        for position, (fmt, level) in enumerate(pool)
    ]
    chosen_items = list(items)
    if subset_fraction is not None:
        if not 0 < subset_fraction <= 1:
            raise SweepError("subset fraction must be in (0, 1]")
        keep = max(1, round(len(chosen_items) * subset_fraction))
        chosen_items = random.Random(seed).sample(chosen_items, keep)

    link_model = linker_model or next(
        (entry.linker_model for entry in config.specs if entry.linker_model),
        config.generator_model,
    )
    linker_plan = {
        spec.linker_run: (spec.format, link_model) for spec in specs if spec.linker_run
    }
    per_item: list[list[tuple[str, bool]]] = []
    skipped = 0
    with PipelineRunner(
        config, chat_backend, embedding_backend=embedding_backend,
        fewshot_store=fewshot_store,
    ) as runner:
        for item in chosen_items:
            gold = runner.execute(item.gold_sql, item.db_path)
            if not gold.ok:
                log.warning("sweep: skipping %s (reference failed)", item.question_id)
                skipped += 1
                continue
            candidates = runner.candidates(item, runner.gateway(), specs, linker_plan)
            per_item.append(
                [(c.execution.group_key(), matches(c.execution, gold)) for c in candidates]
            )

    if skipped:
        log.warning("sweep: skipped %d items with failing reference queries", skipped)
    return rank_combinations(per_item, n, labels, cap=cap)


# -- few-shot store construction ----------------------------------------------------


def build_fewshot_store(
    items: Sequence[BenchmarkItem],
    embedder,
    fmt: RepresentationFormat = RepresentationFormat.COMPACT_TAGGED,
    sample_k: int = 3,
    batch_size: int = 64,
) -> FewShotStore:
    """Embed dataset questions into a retrieval store of solved examples.

    embedder is anything with embed(texts) -> unit vectors.  Schema text is
    rendered once per database in the given format.
    """
    schema_texts: dict[str, str] = {}
    for item in items:
        if item.db_id not in schema_texts:
            schema_texts[item.db_id] = render(introspect(item.db_path, sample_k), fmt)
    examples = [
        FewShotExample(
            question=item.question,
            sql=item.gold_sql,
            db_id=item.db_id,
            schema_text=schema_texts[item.db_id],
        )
        for item in items
    ]
    vectors = []
    for start in range(0, len(examples), batch_size):
        batch = [e.question for e in examples[start:start + batch_size]]
        vectors.extend(embedder.embed(batch))
    matrix = np.vstack(vectors) if vectors else np.zeros((0, 0))
    return FewShotStore(examples, matrix)
