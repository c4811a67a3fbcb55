"""Benchmark harness: datasets, the per-question pipeline, and analyses.

Runs the full engine over BIRD/SPIDER-style datasets, streams one JSON
record per question to disk in dataset order, and aggregates execution
accuracy alongside call, token, and dollar accounting.  Also home to the
selection-quality analyses (accuracy bounds, accuracy by vote count) and
the representation-combination sweep.  run_questions is the one loop over
a dataset; run_benchmark, sweep, link-eval and build_fewshot_store each
hand it a step.
"""
from __future__ import annotations

import itertools
import json
import logging
import math
import os
import random
import sqlite3
import statistics
import threading
import time
import weakref
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from contextlib import closing, nullcontext
from dataclasses import asdict, dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .catalog import FilterLevel, SchemaCatalog, introspect
from .config import ConfigError, PipelineConfig, is_json_int
from .files import read_json, read_jsonl
from .formats import RepresentationFormat, render
from .gateway import (
    CallThrottle,
    ChatBackend,
    ChatRequest,
    CostLedger,
    GatewayError,
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
    group_votes,
    open_read_only,
    select,
)

log = logging.getLogger(__name__)


class DatasetError(Exception):
    """The dataset layout or content is unusable."""


class GoldExecutionError(Exception):
    """A reference query failed to execute, so the item cannot be scored."""

    def __init__(self, gold: ExecutionResult):
        super().__init__(f"reference query failed: {gold.error_text}")
        self.gold = gold


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
    doc = read_json(data_file, list, DatasetError, "dataset", kind=list)

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
        db_files = [db_dir / db_id / f"{db_id}.sqlite" for db_dir in db_dirs]
        db_path = next((path for path in db_files if path.is_file()), None)
        if db_path is None:
            searched = ", ".join(map(str, db_files))
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


class ConnectionPool:
    """Idle read-only connections to candidate databases, by database path.

    A statement takes a connection when it starts (take), an idle one when
    there is one and otherwise a new one from open_read_only, and hands it
    back when it ends (put); a statement whose execution raises closes its
    connection instead.  Only the statement holding a connection uses it,
    so a path never has more connections than statements that ran on it at
    once.  A question's batch runs its texts one after another on its own
    thread, so it holds one connection, and one more for each helper that
    joins the batch; a helper joins when a statement's first step has run
    for one interpreter switch interval, and only first steps overlap,
    since the rest of each statement holds the question's lock (see
    QuestionExecutor).  close() closes every idle connection and makes put
    close the ones still held; a pool that is never closed closes them
    when its owner is collected (see PipelineRunner).
    """

    def __init__(self):
        self._idle: dict[str, list[sqlite3.Connection]] = {}
        self._lock = threading.Lock()
        self._closed = False

    def take(self, db_path: str | Path) -> sqlite3.Connection:
        """An idle connection to db_path, or a new one; raises sqlite3.Error."""
        with self._lock:
            idle = self._idle.get(str(db_path))
            if idle:
                return idle.pop()
        return open_read_only(db_path)

    def put(self, db_path: str | Path, conn: sqlite3.Connection) -> None:
        """Make conn idle again; once the pool is closed, close it."""
        with self._lock:
            if not self._closed:
                self._idle.setdefault(str(db_path), []).append(conn)
                return
        conn.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()


def _spare_cpus() -> int:
    """The CPUs this process may run on, less the one a question's thread uses."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return cpus - 1


# the helpers every batch in the process shares, one thread per spare CPU.
# One pool per process, not per runner: each new thread keeps a malloc arena
# of its own (about 1 MB after its first sort).  It is made when a first step
# first runs long, so a run of quick statements, or one on a single CPU,
# never starts it.
_helpers: ThreadPoolExecutor | None = None
_helpers_lock = threading.Lock()


def _helper_pool() -> ThreadPoolExecutor:
    global _helpers
    with _helpers_lock:
        if _helpers is None:
            _helpers = ThreadPoolExecutor(_spare_cpus(), thread_name_prefix="ensql-sql")
        return _helpers


class _Batch:
    """A question's distinct SQL texts, worked through by its thread and helpers.

    Each worker claims the next unclaimed text, runs it and claims again
    until none is left.  The question's thread is the first worker; a helper
    joins (join) when a statement's first step has run for one interpreter
    switch interval, while the batch has a text left and a spare CPU it has
    not yet used.  run returns once every claimed text has its result, and
    raises the first error a worker met; workers claim nothing after one.
    """

    def __init__(self, execute: "QuestionExecutor", texts: list[str]):
        self.execute = execute
        self.texts = texts
        self.claimed = 0
        self.running = 0
        self.helpers = _spare_cpus()  # helpers that may still join
        self.error: BaseException | None = None
        self.changed = threading.Condition()

    def run(self) -> None:
        self.work()
        with self.changed:
            self.changed.wait_for(lambda: self.running == 0)
        if self.error is not None:
            raise self.error

    def work(self) -> None:
        while True:
            with self.changed:
                if self.error is not None or self.claimed == len(self.texts):
                    return
                sql = self.texts[self.claimed]
                self.claimed += 1
                self.running += 1
            result = error = None
            try:
                result = self.execute._statement(sql, self.join)
            except BaseException as exc:  # handed to the question's thread by run
                error = exc
            with self.changed:
                self.running -= 1
                if error is None:
                    self.execute._keep(sql, result)
                elif self.error is None:
                    self.error = error
                self.changed.notify_all()
            if error is not None:
                return

    def join(self) -> None:
        """Start a helper on the batch when a text and a spare CPU are left.

        A statement's progress handler calls it, so it never raises: a pool
        that is shut down leaves the batch to the workers it has.
        """
        with self.changed:
            if self.helpers == 0 or self.claimed == len(self.texts):
                return
            self.helpers -= 1
        try:
            _helper_pool().submit(self.work)  # work hands its errors to run
        except RuntimeError:
            pass


class QuestionExecutor:
    """One question's executions: a memo of results by SQL text.

    run executes a question's distinct texts as one batch (see _Batch); a
    call with one text runs it as a batch of one and returns its result.  A
    text runs at most once per question, and every slot, and the reference
    query, with the same text get the one frozen result.  Equal results of
    different texts (equality covers the fields a record keeps, not
    elapsed_ms) are one object too, so a record holds each distinct result
    once.

    Each statement takes a connection from connections for as long as it
    runs (see ConnectionPool).  The question's thread works through a batch
    itself; a helper from the process-wide pool of (CPUs available - 1)
    threads joins only when a statement's first step (SQLite's prepare and
    first sqlite3_step, where an aggregate or a sort does its work with the
    GIL released) has run for sys.getswitchinterval().  Only first steps
    overlap: the rest of every statement (fetching, canonicalization and
    the preview) holds the question's lock, and the wait for that lock does
    not count against timeout_s.  With one CPU, or when every first step is
    quick, no helper starts and a batch runs its texts in order on the
    question's thread.  A database that cannot be opened is handed to each
    execution as its path, which comes back as the open's Error result.  It
    belongs to one question, and no two questions share one.
    """

    def __init__(self, db_path: str | Path, connections: ConnectionPool, timeout_s: float = 30.0):
        self.db_path = db_path
        self.timeout_s = timeout_s
        self.connections = connections
        self._turn = threading.Lock()
        self._by_sql: dict[str, ExecutionResult] = {}
        self._by_fields: dict[ExecutionResult, ExecutionResult] = {}

    def __call__(self, sql: str) -> ExecutionResult:
        self.run((sql,))
        return self._by_sql[sql]

    def run(self, texts: Iterable[str]) -> None:
        """Execute, as one batch, each of texts that has no result yet."""
        todo = [sql for sql in dict.fromkeys(texts) if sql not in self._by_sql]
        if todo:
            _Batch(self, todo).run()

    def _statement(self, sql: str, on_slow: Callable[[], None]) -> ExecutionResult:
        """Run sql on a connection taken from the pool for this statement alone."""
        try:
            conn = self.connections.take(self.db_path)
        except sqlite3.Error:
            conn = None
        try:
            result = execute_candidate(
                sql, self.db_path if conn is None else conn, self.timeout_s,
                turn=self._turn, on_slow=on_slow,
            )
        except BaseException:
            if conn is not None:
                conn.close()
            raise
        if conn is not None:
            self.connections.put(self.db_path, conn)
        return result

    def _keep(self, sql: str, result: ExecutionResult) -> None:
        self._by_sql[sql] = self._by_fields.setdefault(result, result)


def scorable_reference(gold: ExecutionResult) -> ExecutionResult:
    """gold, the reference query's result, when an item can be scored on it.

    A failed reference raises GoldExecutionError: no prediction can match it.
    """
    if not gold.ok:
        raise GoldExecutionError(gold)
    return gold


def execution_accuracy(
    pred_sql: str,
    gold_sql: str,
    db_path: str | Path,
    timeout_s: float = 30.0,
) -> int:
    """1 when the prediction's result multiset matches the reference's.

    The reference query must succeed; a failing reference raises
    GoldExecutionError since such an item cannot be scored at all.  A
    failing prediction simply scores 0.  A prediction whose text is the
    reference's is not executed again.  Its connections are closed on return.
    """
    with closing(ConnectionPool()) as connections:
        execute = QuestionExecutor(db_path, connections, timeout_s)
        gold = scorable_reference(execute(gold_sql))
        return int(matches(execute(pred_sql), gold))


# -- run records ----------------------------------------------------------------


@dataclass(slots=True)
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
            "usage": [asdict(u) for u in self.usage],
            "wall_ms": self.wall_ms,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunRecord":
        """The record of a to_dict document; a field of the wrong type raises TypeError."""
        candidates = [_candidate_from_dict(c) for c in doc["candidates"]]
        return cls(
            question_id=_typed(doc, "question_id", _is_str, "a string"),
            db_id=_typed(doc, "db_id", _is_str, "a string"),
            question=_typed(doc, "question", _is_str, "a string"),
            gold_sql=_typed(doc, "gold_sql", _is_str, "a string"),
            gold_ok=_typed(doc, "gold_ok", lambda v: isinstance(v, bool), "a bool"),
            candidates=candidates,
            selection=_selection_from_dict(doc.get("selection"), candidates),
            candidate_ex=_typed(
                doc, "candidate_ex", lambda v: isinstance(v, list) and all(map(_is_bit, v)),
                "a list of 0s and 1s",
            ),
            ex=_typed(doc, "ex", _is_bit, "0 or 1"),
            usage=[
                UsageRow(u["model"], u["stage"], *(
                    _typed(u, key, is_json_int, "an integer")
                    for key in ("calls", "input_tokens", "output_tokens")
                ))
                for u in doc["usage"]
            ],
            wall_ms=float(_typed(
                doc, "wall_ms", lambda v: type(v) in (int, float), "a number", 0.0
            )),
            error=_typed(doc, "error", lambda v: v is None or _is_str(v), "a string or null",
                         None),
        )

    def llm_calls(self) -> int:
        return sum(u.calls for u in self.usage if u.stage in LLM_STAGES)

    def total_tokens(self) -> int:
        return sum(
            u.input_tokens + u.output_tokens for u in self.usage if u.stage in LLM_STAGES
        )

    def dollars(self, table: PriceTable) -> Decimal:
        """What this question's usage rows cost under table."""
        return sum(
            (table.dollars(u.model, TokenUsage(u.input_tokens, u.output_tokens))
             for u in self.usage),
            Decimal(0),
        )


def _is_str(value: object) -> bool:
    return isinstance(value, str)


def _is_bit(value: object) -> bool:
    return is_json_int(value) and value in (0, 1)


def _typed(doc: dict, key: str, valid: Callable[[object], bool], what: str, *default):
    """doc[key], or default when the key is absent, which valid must accept."""
    value = doc.get(key, *default) if default else doc[key]
    if not valid(value):
        raise TypeError(f"{key} must be {what}, not {value!r}")
    return value


def _candidate_to_dict(candidate: SqlCandidate) -> dict:
    execution = None
    if candidate.execution is not None:
        execution = {**asdict(candidate.execution), "status": candidate.execution.status.value}
        del execution["elapsed_ms"]  # intentionally dropped: it varies run to run
    return {
        "spec_index": candidate.spec_index,
        "sql": candidate.sql,
        "raw_response": candidate.raw_response,
        "input_tokens": candidate.input_tokens,
        "output_tokens": candidate.output_tokens,
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
        spec_index=_typed(doc, "spec_index", is_json_int, "an integer"),
        sql=doc["sql"],
        raw_response=doc.get("raw_response", ""),
        input_tokens=_typed(doc, "input_tokens", is_json_int, "an integer", 0),
        output_tokens=_typed(doc, "output_tokens", is_json_int, "an integer", 0),
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


def _selection_from_dict(
    doc: dict | None, candidates: Sequence[SqlCandidate]
) -> SelectionOutcome | None:
    """The outcome of a record; it reads chosen_sql from the chosen candidate
    when that candidate gives the written text, and holds the text otherwise."""
    if doc is None:
        return None
    index, chosen_sql = int(doc["chosen_index"]), doc["chosen_sql"]
    if 0 <= index < len(candidates) and candidates[index].sql == chosen_sql:
        chosen_sql = candidates[index]
    return SelectionOutcome(
        chosen_index=index,
        chosen_sql=chosen_sql,
        distribution=tuple(int(d) for d in doc["distribution"]),
        confidence=Confidence(doc["confidence"]),
        method=SelectionMethod(doc["method"]),
        pairwise_calls=int(doc["pairwise_calls"]),
        chosen_votes=int(doc["chosen_votes"]),
    )


def _record_line(record: RunRecord) -> str:
    """One JSONL line of a records file."""
    return json.dumps(record.to_dict(), ensure_ascii=False) + "\n"


def write_records(records: Iterable[RunRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(_record_line, records))


def read_records(path: str | Path) -> list[RunRecord]:
    return read_jsonl(path, RunRecord.from_dict, DatasetError, "run record")


# -- the per-question pipeline ----------------------------------------------------


def _descriptions(doc: dict) -> dict[str, Mapping[str, Mapping[str, str]]]:
    """doc, checked to map db_id -> table -> column -> description text."""
    for db_id, tables in doc.items():
        if not (isinstance(tables, dict) and all(isinstance(cols, dict) and all(
                isinstance(text, str) for text in cols.values()) for cols in tables.values())):
            raise TypeError(f"{db_id!r} must map each table to column descriptions")
    return doc


class PipelineRunner:
    """Executes the full pipeline for single questions.

    Every command's run inputs come from the config: at construction the
    runner loads config.fewshot_store_path and config.descriptions_path, and
    catalog_for, the only catalog cache, introspects each database path once.
    Each catalog memoises its rendered schema texts, so the full schema is
    rendered once per database and format for the runner's life.  The runner
    owns one CallThrottle for the whole run: config.max_in_flight caps the
    model calls in flight across every question it serves, however many
    questions run at once (run_benchmark's workers).  Each question gets its
    own gateway and ledger around that throttle, so per-question usage is
    exact; run totals are aggregate_records over the records' usage rows.

    run_item is the candidate stage (candidates: link, generate, execute)
    over config.specs followed by the selection stage; sweep runs the same
    candidate stage over its own slate.  Slots that share a format and
    linker model share one linker call.  Both give each question one
    QuestionExecutor (executor): a memo in which a distinct SQL text runs
    once per question, the reference included.  run_item executes the
    slate's texts and the reference as one batch on the question's thread;
    a helper from a process-wide pool of (CPUs available - 1) threads
    joins only when a statement's first step (SQLite's prepare and first
    step) has run for sys.getswitchinterval(), and only first steps
    overlap, since the rest of every statement holds the question's lock.
    The runner owns the read-only connections (connections): each
    statement takes an idle one, or opens one, and hands it back when it
    ends, or closes it when its execution raises, so a database's schema
    is parsed once per connection, and a database never has more
    connections than statements that ran on it at once.  A question's
    model calls follow its dependency graph (see generate_candidates), and
    an escalated tournament submits all its comparisons together.  It
    serves one question per call; run_questions walks the dataset.  A
    few-shot store smaller than config.fewshot_k is reported once, at load.
    The pool threads exit, and the connections close, when the runner is
    closed or garbage-collected; the helper threads are the process's.
    """

    def __init__(
        self,
        config: PipelineConfig,
        chat_backend: ChatBackend,
        record_timing: bool = True,
    ):
        self.config = config
        self.chat_backend = chat_backend
        self.record_timing = record_timing
        store_path = config.fewshot_store_path
        self.fewshot_store = FewShotStore.load(store_path) if store_path else None
        if self.fewshot_store and len(self.fewshot_store) < config.fewshot_k:
            log.warning("fewshot_k is %d, but the store %s holds only %d examples",
                        config.fewshot_k, store_path, len(self.fewshot_store))
        self.descriptions: dict[str, Mapping[str, Mapping[str, str]]] = (
            read_json(config.descriptions_path, _descriptions, ConfigError, "descriptions")
            if config.descriptions_path else {}
        )
        self.throttle = CallThrottle(config.max_in_flight)
        self.connections = ConnectionPool()
        # closes the pool's connections on close(), or when the runner is collected
        self._close_connections = weakref.finalize(self, self.connections.close)
        self._catalogs: dict[str, SchemaCatalog] = {}
        self._catalog_locks: dict[str, threading.Lock] = {}
        self._catalog_locks_lock = threading.Lock()

    def __enter__(self) -> "PipelineRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self.throttle.close()
        self._close_connections()

    def gateway(self, question_id: str = "?") -> LlmGateway:
        """A fresh gateway and ledger for one question, around the runner's throttle."""
        return LlmGateway(
            self.chat_backend, ledger=CostLedger(), throttle=self.throttle,
            question_id=question_id,
        )

    def catalog_for(self, db_id: str, db_path: str) -> SchemaCatalog:
        """The database's catalog, introspected once per path.

        Questions that ask for a path while it is being introspected wait
        for that one introspection, each path under its own lock, so
        different paths do not wait on each other.  db_id only picks the
        database's descriptions: two databases that share a db_id at
        different paths get their own catalogs, and so their own rendered
        schema texts.
        """
        with self._catalog_locks_lock:
            path_lock = self._catalog_locks.setdefault(db_path, threading.Lock())
        with path_lock:
            catalog = self._catalogs.get(db_path)
            if catalog is None:
                catalog = self._catalogs[db_path] = introspect(
                    db_path,
                    sample_k=self.config.sample_k,
                    category_threshold=self.config.category_threshold,
                    descriptions=self.descriptions.get(db_id),
                )
        return catalog

    def executor(self, db_path: str) -> QuestionExecutor:
        """A question's executor under the config's execution timeout."""
        return QuestionExecutor(db_path, self.connections, self.config.execution_timeout_s)

    def candidates(
        self,
        item: BenchmarkItem,
        gateway: LlmGateway,
        specs: Sequence[CandidateSpec],
        execute: QuestionExecutor,
        reference: str = "",
    ) -> list[SqlCandidate]:
        """The candidate stage: link, generate and execute one slate.

        execute is the question's executor, so each distinct SQL text runs
        once.  The slate's texts run as one batch, with reference, when
        given, after them.
        """
        config = self.config
        candidates = generate_candidates(
            specs, config.generator_model, self.catalog_for(item.db_id, item.db_path),
            item, gateway, self.fewshot_store, config.fewshot_k,
        )
        pending = [candidate for candidate in candidates if candidate.execution is None]
        texts = [candidate.sql for candidate in pending]
        execute.run(texts + [reference] if reference else texts)
        for candidate in pending:
            candidate.execution = execute(candidate.sql)
        return candidates

    def run_item(self, item: BenchmarkItem) -> RunRecord:
        started = time.monotonic()
        gateway = self.gateway(item.question_id)
        config = self.config
        gold_ok = False
        execute = self.executor(item.db_path)
        candidates = self.candidates(item, gateway, config.specs, execute, item.gold_sql)
        candidate_ex = [0] * len(candidates)
        if item.gold_sql:
            try:
                gold = scorable_reference(execute(item.gold_sql))
            except GoldExecutionError as exc:
                gateway.warn(
                    "reference query failed (%s); excluded from accuracy",
                    exc.gold.error_text,
                )
            else:
                gold_ok = True
                candidate_ex = [int(matches(c.execution, gold)) for c in candidates]

        judge = PairwiseJudge(gateway, config.judge_model)
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
) -> ChatRequest:
    """The request of one linker run: the schema rendered in fmt, for model."""
    messages = build_linking_prompt(render(catalog, fmt), item.question, item.hint)
    return ChatRequest(model=model, messages=tuple(messages))


def link(run_id: str, request: ChatRequest, gateway: LlmGateway) -> LinkingPrediction | None:
    """Make one linker call and parse its prediction; run_id labels warnings.

    A failed call (see LlmGateway.attempt) or an unparseable reply comes
    back as None.
    """
    response = gateway.attempt(request, STAGE_LINKING, f"linker run {run_id}")
    if isinstance(response, GatewayError):
        return None
    try:
        return parse_linking_response(response.text)
    except LinkingParseError as exc:
        gateway.warn("linker run %s unparseable: %s", run_id, exc)
        return None


def generate_candidates(
    specs: Sequence[CandidateSpec],
    model: str,
    catalog: SchemaCatalog,
    item: BenchmarkItem,
    gateway: LlmGateway,
    fewshot_store: FewShotStore | None = None,
    fewshot_k: int = 0,
) -> list[SqlCandidate]:
    """One candidate per spec, in order, each started once its inputs exist.

    model generates every slot; a slot's index is its position in specs.
    Slots that share a format and linker model share one linker run, and
    runs start in the order of their first slots.  Linker runs and the
    specs that filter nothing start at once; a filtering spec starts as soon
    as its own linker run resolves, and falls back to the full schema when
    that run failed.  This thread retrieves the few-shots (no model call)
    while the linker calls are in flight, builds every prompt and hands
    only the calls to the gateway's pool; it alone waits on futures, so no
    pool thread ever blocks on another task.
    """
    linker_runs = {spec.linker_run: spec for spec in specs if spec.linker_run is not None}
    inputs: dict[Future, str] = {  # linker run id
        gateway.submit(
            link, run_id,
            linker_request(spec.format, spec.linker_model, catalog, item),
            gateway,
        ): run_id
        for run_id, spec in linker_runs.items()
    }
    fewshots = (
        retrieve_fewshots(item.question, fewshot_store, fewshot_k)
        if fewshot_store is not None else []
    )
    predictions: dict[str, LinkingPrediction | None] = {}
    slots: dict[int, Future] = {}

    def start_ready_slots() -> None:
        for index, spec in enumerate(specs):
            waiting = spec.linker_run is not None and spec.linker_run not in predictions
            if waiting or index in slots:
                continue
            prediction = predictions.get(spec.linker_run or "")
            if spec.linker_run is not None and prediction is None:
                gateway.warn(
                    "spec %d: linker output %r unavailable; using the full schema",
                    index, spec.linker_run,
                )
            request = slot_request(
                spec, model, item.question, item.hint, prediction, catalog, fewshots
            )
            slots[index] = gateway.submit(generate_slot, index, request, gateway)

    start_ready_slots()
    for future in as_completed(inputs):
        predictions[inputs[future]] = future.result()
        start_ready_slots()
    return [slots[index].result() for index in range(len(specs))]


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
    # why the escalated questions ended as they did; the three sum to escalated
    escalated_judged: int
    escalated_all_failed: int
    escalated_one_group: int

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
            f"  judged tournament: {self.escalated_judged}",
            f"  all candidates failed: {self.escalated_all_failed}",
            f"  one surviving group: {self.escalated_one_group}",
        ]
        return "\n".join(lines)


def _escalation_reason(record: RunRecord) -> str:
    """Why an escalated question ended as it did, from fields records carry.

    "judged" when the tournament made judge calls; "all_failed" when the
    chosen candidate did not execute Ok, so no Ok group existed; otherwise
    "one_group": a single Ok group survived and no judge was needed.
    """
    selection = record.selection
    if selection.pairwise_calls > 0:
        return "judged"
    chosen = record.candidates[selection.chosen_index].execution
    if chosen is None or not chosen.ok:
        return "all_failed"
    return "one_group"


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

    total_cost = sum((record.dollars(table) for record in worked), Decimal(0))
    cost_avg = total_cost / len(worked) if worked else Decimal(0)
    reasons = Counter(
        _escalation_reason(r)
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
        escalated=sum(reasons.values()),
        escalated_judged=reasons["judged"],
        escalated_all_failed=reasons["all_failed"],
        escalated_one_group=reasons["one_group"],
    )


# a step's outcome for a question it leaves out, such as an unscorable one
SKIPPED = "skipped"


@dataclass(frozen=True)
class Failed:
    """A question whose step raised: the outcome run_questions gives it."""

    item: BenchmarkItem
    error: Exception


def run_questions(
    items: Sequence[BenchmarkItem],
    step: Callable[[BenchmarkItem], object],
    workers: int,
    progress: Callable[[object], None] | None = None,
) -> list:
    """step(item) for every item, workers at once; the outcomes in dataset order.

    The one loop over a dataset.  A step returns a value or SKIPPED; a step
    that raises is logged, and its outcome is Failed.  progress gets each
    outcome in dataset order once it and all before it are in.
    """

    def guarded(item: BenchmarkItem) -> object:
        try:
            return step(item)
        except Exception as exc:  # per-question isolation: fail it and go on
            log.exception("question %s failed", item.question_id)
            return Failed(item, exc)

    outcomes = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for outcome in pool.map(guarded, items):
            if progress is not None:
                progress(outcome)
            outcomes.append(outcome)
    return outcomes


def run_benchmark(
    config: PipelineConfig,
    items: Sequence[BenchmarkItem],
    chat_backend: ChatBackend,
    *,
    out_path: str | Path | None = None,
    workers: int | None = None,
    record_timing: bool = True,
    price_table: PriceTable | None = None,
    progress: Callable[[RunRecord], None] | None = None,
) -> tuple[list[RunRecord], Report]:
    """Run the pipeline over a dataset: run_questions with run_item as the step.

    The PipelineRunner it builds loads the few-shot store and descriptions
    the config names.  workers questions are in flight at once, and
    config.max_in_flight caps the model calls in flight across all of them.
    Records stream to out_path as JSONL in dataset order regardless of
    completion order.  A question that raises is recorded as an errored
    record; the run never aborts on per-item failures.
    """
    records: list[RunRecord] = []

    def settle(record: RunRecord | Failed) -> None:
        if isinstance(record, Failed):
            item, error = record.item, record.error
            record = RunRecord(item.question_id, item.db_id, item.question, item.gold_sql,
                               gold_ok=False, error=f"{type(error).__name__}: {error}")
        if out_fh is not None:
            out_fh.write(_record_line(record))
            out_fh.flush()
        if progress is not None:
            progress(record)
        records.append(record)

    with PipelineRunner(config, chat_backend, record_timing=record_timing) as runner, (
        open(out_path, "w", encoding="utf-8") if out_path is not None else nullcontext()
    ) as out_fh:
        run_questions(
            items, runner.run_item,
            workers if workers is not None else config.workers, progress=settle,
        )
    return records, aggregate_records(records, price_table)


# -- selection-quality analyses ----------------------------------------------------


@dataclass(frozen=True)
class BoundsRow:
    """Accuracy bounds for items with a given candidate count."""

    candidate_count: int
    items: int
    ex: float
    lower: float  # every candidate correct: no selector could miss
    upper: float  # some candidate correct: a perfect selector would score


def _scored_groups(
    records: Sequence[RunRecord], key: Callable[[RunRecord], int | None]
) -> list[tuple[int, list[RunRecord]]]:
    """Scored records grouped by key, in key order; a key of None leaves one out."""
    groups: dict[int, list[RunRecord]] = {}
    for record in records:
        value = None if record.error or not record.gold_ok else key(record)
        if value is not None:
            groups.setdefault(value, []).append(record)
    return sorted(groups.items())


def _share(group: Sequence[RunRecord], score: Callable[[RunRecord], int]) -> float:
    return sum(map(score, group)) / len(group)


def bounds_analysis(records: Sequence[RunRecord]) -> list[BoundsRow]:
    """Upper/lower accuracy bounds, grouped by candidate count."""
    return [
        BoundsRow(
            candidate_count=count,
            items=len(group),
            ex=_share(group, lambda r: r.ex),
            lower=_share(group, lambda r: all(r.candidate_ex)),
            upper=_share(group, lambda r: any(r.candidate_ex)),
        )
        for count, group in _scored_groups(records, lambda r: len(r.candidate_ex) or None)
    ]


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
    return [
        VoteBucket(
            votes=votes,
            items=len(group),
            ex=_share(group, lambda r: r.ex),
            upper=_share(group, lambda r: any(r.candidate_ex)),
        )
        for votes, group in _scored_groups(
            records, lambda r: None if r.selection is None else r.selection.chosen_votes
        )
    ]


# -- representation sweep ----------------------------------------------------------

DEFAULT_COMBO_CAP = 2000


@dataclass(frozen=True)
class ComboResult:
    """One candidate-multiset evaluated under regular voting."""

    pool_indices: tuple[int, ...]
    labels: tuple[str, ...]
    ex: float


def _check_combinations(pool_size: int, n: int, cap: int) -> None:
    """Refuse a combination size below 1 or more than cap multisets."""
    if n < 1:
        raise SweepError("combination size must be at least 1")
    total = math.comb(pool_size + n - 1, n)
    if total > cap:
        raise SweepError(
            f"{total} combinations of {pool_size} pool entries exceed the cap of "
            f"{cap}; raise the cap explicitly to run this sweep"
        )


def rank_combinations(
    per_item: Sequence[Sequence[tuple[str, bool]]],
    n: int,
    labels: Sequence[str],
    cap: int = DEFAULT_COMBO_CAP,
) -> list[ComboResult]:
    """Score every size-n multiset of pool entries under regular voting.

    per_item[i][j] is (vote-group key, correct) for pool entry j on item i;
    entries of one item that share a key must share its correctness, as
    sweep's rows do.  On each item the multiset's winner is select's
    regular vote, the first Ok group of group_votes over its keys (ties to
    the earliest combination position), and the winner's correctness is
    the item's score.  The combination count C(pool+n-1, n) must stay
    within cap; pass a larger cap explicitly to go bigger.
    """
    if not per_item:
        raise SweepError("sweep needs at least one scored item")
    pool_size = len(per_item[0])
    if any(len(row) != pool_size for row in per_item):
        raise SweepError("per-item results are ragged")
    _check_combinations(pool_size, n, cap)
    combos = list(itertools.combinations_with_replacement(range(pool_size), n))
    correct = [0] * len(combos)
    for row in per_item:
        ids: dict[str, int] = {}
        numbered = [ids.setdefault(key, len(ids)) for key, _ in row]
        keys = list(ids)
        # multisets whose keys number alike have alike winners
        wins: dict[tuple[int, ...], bool] = {}
        for c, combo in enumerate(combos):
            numbers = tuple(numbered[j] for j in combo)
            won = wins.get(numbers)
            if won is None:
                groups = group_votes([keys[i] for i in numbers])
                top = next((g for g in groups if g.is_ok), None)
                won = wins[numbers] = top is not None and bool(row[combo[top.members[0]]][1])
            correct[c] += won
    results = [
        ComboResult(combo, tuple(labels[j] for j in combo), count / len(per_item))
        for combo, count in zip(combos, correct)
    ]
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
    progress: Callable[[object], None] | None = None,
) -> list[ComboResult]:
    """Evaluate every size-n multiset of (format, level) under regular voting.

    Runs run's candidate stage with the pool as its slate (the filtering
    entries of a format share one linker run), so its requests are run's,
    then scores all combinations offline.  A combination size below 1 or
    over cap is refused, and items whose reference query fails are skipped,
    before any model call.  subset_fraction with seed draws a deterministic
    random subset of items first.  Items run through run_questions, whose
    progress hook gets each outcome: a (group key, correct) row per pool
    entry, SKIPPED or Failed.
    """
    pool = [(fmt, level) for fmt in formats for level in levels]
    if not pool:
        raise SweepError("sweep needs at least one format and one level")
    _check_combinations(len(pool), n, cap)
    labels = [f"{fmt.value}+{level.value}" for fmt, level in pool]
    # the filtering entries of a format share one linker model, so one run
    link_model = linker_model or config.default_linker()
    specs = [
        CandidateSpec(fmt, level, None if level is FilterLevel.NO_FILTERING else link_model)
        for fmt, level in pool
    ]
    chosen_items = list(items)
    if subset_fraction is not None:
        if not 0 < subset_fraction <= 1:
            raise SweepError("subset fraction must be in (0, 1]")
        keep = max(1, round(len(chosen_items) * subset_fraction))
        chosen_items = random.Random(seed).sample(chosen_items, keep)

    def score(item: BenchmarkItem) -> list[tuple[str, bool]] | str:
        execute = runner.executor(item.db_path)
        try:
            gold = scorable_reference(execute(item.gold_sql))
        except GoldExecutionError:
            log.warning("sweep: skipping %s (reference failed)", item.question_id)
            return SKIPPED
        candidates = runner.candidates(item, runner.gateway(item.question_id), specs, execute)
        return [(c.execution.group_key(), matches(c.execution, gold)) for c in candidates]

    with PipelineRunner(config, chat_backend) as runner:
        outcomes = run_questions(chosen_items, score, config.workers, progress)
    skipped = outcomes.count(SKIPPED)
    if skipped:
        log.warning("sweep: skipped %d items with failing reference queries", skipped)
    return rank_combinations([o for o in outcomes if isinstance(o, list)], n, labels, cap=cap)


# -- few-shot store construction ----------------------------------------------------


def build_fewshot_store(
    runner: PipelineRunner,
    items: Sequence[BenchmarkItem],
    fmt: RepresentationFormat = RepresentationFormat.COMPACT_TAGGED,
    *,
    progress: Callable[[object], None] | None = None,
) -> FewShotStore:
    """A retrieval store of the dataset's questions as solved examples.

    Schema texts are the runner's catalogs rendered in the given format, so
    they carry its config's value samples, category lists and descriptions,
    and each database is introspected and rendered once.  Items run through
    run_questions over config.workers, whose progress hook gets each
    outcome: the item's FewShotExample or Failed; the store holds the
    examples in dataset order.  The runner makes no model call here.
    """

    def example(item: BenchmarkItem) -> FewShotExample:
        catalog = runner.catalog_for(item.db_id, item.db_path)
        return FewShotExample(item.question, item.gold_sql, item.db_id, render(catalog, fmt))

    outcomes = run_questions(items, example, runner.config.workers, progress)
    return FewShotStore([o for o in outcomes if isinstance(o, FewShotExample)])
