"""Benchmark harness: datasets and the per-question pipeline.

Runs the full engine over BIRD/SPIDER-style datasets and streams one run
record per question (see records) to disk in dataset order; also home to
the representation-combination sweep.  run_questions is the one loop over
a dataset; run_benchmark, sweep, link-eval and build_fewshot_store each
hand it a step.
"""
from __future__ import annotations

import itertools
import logging
import math
import os
import random
import sqlite3
import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from contextlib import closing, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .catalog import FilterLevel, SchemaCatalog, introspect
from .config import ConfigError, PipelineConfig
from .files import read_json
from .formats import RepresentationFormat, render
from .gateway import (
    CallThrottle,
    ChatBackend,
    ChatRequest,
    CostLedger,
    GatewayError,
    LlmGateway,
    PriceTable,
    STAGE_LINKING,
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
# tests/test_acceptance.py imports RunRecord, aggregate_records, bounds_analysis
# and ex_by_vote from this module
from .records import (
    DatasetError,
    Report,
    RunRecord,
    aggregate_records,
    bounds_analysis,
    ex_by_vote,
    record_line,
)
from .selection import (
    ExecutionResult,
    PairwiseJudge,
    execute_candidate,
    group_votes,
    open_read_only,
    select,
)

log = logging.getLogger(__name__)


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
    connection instead.  So a path never has more connections than
    statements that ran on it at once (see QuestionExecutor).  close()
    closes every idle connection and makes put close the ones still held; a
    pool that is never closed closes them when its owner is collected.
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
# of its own (about 1 MB after its first sort).  It is made when a helper
# first joins a batch (see QuestionExecutor).
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
    until none is left.  The question's thread is the first worker, and
    join adds a helper while the batch has a text left and a spare CPU it
    has not yet used (see QuestionExecutor).  run returns once every claimed
    text has its result, and raises the first error a worker met; workers
    claim nothing after one.
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

    Each statement takes a connection from connections for as long as it runs
    (see ConnectionPool), so a batch holds one for the question's thread and
    one for each helper.  The question's thread works through a batch itself; a
    helper from the process-wide pool of (CPUs available - 1) threads joins
    only when a statement's first step (SQLite's prepare and first
    sqlite3_step, where an aggregate or a sort does its work with the GIL
    released) has run for sys.getswitchinterval().  Only first steps overlap:
    the rest of every statement (fetching, canonicalization and the preview)
    holds the question's lock, and the wait for that lock does not count
    against timeout_s.  With one CPU, or when every first step is quick, no
    helper starts and a batch runs its texts in order on the question's thread.
    A database that cannot be opened is handed to each execution as its path,
    which comes back as the open's Error result.  It belongs to one question,
    and no two questions share one.
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
    owns the run's one CallThrottle, of config.max_in_flight calls.  Each
    question gets its own gateway and ledger around it, so per-question
    usage is exact; run totals are aggregate_records over the records.

    run_item is the candidate stage (candidates: link, generate, execute)
    over config.specs followed by the selection stage; sweep runs the same
    candidate stage over its own slate.  Each question gets one
    QuestionExecutor (executor), which runs the slate's texts and the
    reference as one batch on connections the runner lends (connections).
    A few-shot store smaller than config.fewshot_k is reported once, at
    load.  The throttle's threads exit, and the connections close, when the
    runner is closed or garbage-collected.
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

    workers questions are in flight at once, on one PipelineRunner.
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
            out_fh.write(record_line(record))
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
