"""Candidate execution, result canonicalization, voting, and selection.

Candidates are executed read-only under a wall-clock budget (see
execute_candidate).  Results are reduced to a canonical multiset digest so
that queries

* returning the same rows in a different order,
* differing only in int-vs-float typing of the same values, or
* differing past six decimal places

land in the same vote group, while NULL and empty string stay distinct.
Each row and each cell value is canonicalized once per result, however
many times it repeats.  The harness lends execute_candidate its connection
(from open_read_only) and the hooks of a question's batch of statements
(see harness.QuestionExecutor).

Groups vote: a confident distribution accepts the top group's answer; an
ambiguous one escalates the group representatives to a pairwise LLM
tournament where every unordered pair is judged twice with the candidate
order swapped.
"""
from __future__ import annotations

import functools
import hashlib
import logging
import math
import re
import sqlite3
import sys
import threading
import time
from collections import Counter
from contextlib import closing
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .catalog import _read_decoded, connect_read_only
from .gateway import ChatRequest, GatewayError, LlmGateway, STAGE_SELECTION

if TYPE_CHECKING:  # import only for annotations; generation imports us at runtime
    from .generation import SqlCandidate

log = logging.getLogger(__name__)

_ASSETS = Path(__file__).parent / "assets"


class ExecStatus(str, Enum):
    OK = "ok"
    ERROR = "error"
    TIMEOUT = "timeout"


@dataclass(frozen=True, slots=True)
class ExecutionResult:
    """Outcome of running one query: a digest for Ok, an error class otherwise.

    Equality and hash cover the fields a record keeps, so not elapsed_ms.
    """

    status: ExecStatus
    signature: str | None = None
    row_count: int | None = None
    error_text: str | None = None
    preview: str | None = None
    elapsed_ms: float | None = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.status is ExecStatus.OK

    def group_key(self) -> str:
        """The vote-group key: result digest for Ok, status + error class else."""
        if self.status is ExecStatus.OK:
            return f"ok:{self.signature}"
        if self.status is ExecStatus.TIMEOUT:
            return "timeout"
        error_class = (self.error_text or "").split(":", 1)[0].strip() or "unknown"
        return f"error:{error_class}"


# decimal places a numeric cell is rounded to before results are compared
_DECIMALS = 6


def _canonical_cell(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return f"int:{int(value)}"
    if isinstance(value, int):
        return f"int:{value}"
    if isinstance(value, float):
        if not math.isfinite(value):
            return f"num:{value!r}"
        rounded = round(value, _DECIMALS)
        if rounded == int(rounded):
            return f"int:{int(rounded)}"
        return f"num:{rounded:.{_DECIMALS}f}"
    if isinstance(value, bytes):
        return "bytes:" + value.hex()
    return "text:" + str(value)


# distinct rows and cells one result's canonicalizer remembers; past this,
# new values are still canonicalized but not kept, so an all-distinct
# result costs no more memory than without the memos
_CELL_MEMO_LIMIT = 1 << 14


class _Canonicalizer:
    """The canonical rows of one result, fed batch by batch.

    Each row is encoded as json.dumps would encode the list of its
    canonical cells.  Whole rows and single cells are memoised by value:
    SQLite values that compare equal (1, 1.0 and True; 0.0 and -0.0)
    canonicalize equally, so a repeated row or cell is encoded once.
    """

    def __init__(self):
        self.rows: list[str] = []
        self._row_texts: dict[tuple, str] = {}
        self._cell_texts: dict[object, str] = {}

    def _cell(self, value: object) -> str:
        text = encode_basestring_ascii(_canonical_cell(value))
        if len(self._cell_texts) < _CELL_MEMO_LIMIT:
            self._cell_texts[value] = text
        return text

    def feed(self, rows: Iterable[tuple]) -> None:
        row_texts, cell_texts, cell = self._row_texts, self._cell_texts, self._cell
        append = self.rows.append
        for row in rows:
            text = row_texts.get(row)
            if text is None:
                text = "[" + ", ".join(
                    [cell_texts.get(value) or cell(value) for value in row]
                ) + "]"
                if len(row_texts) < _CELL_MEMO_LIMIT:
                    row_texts[row] = text
            append(text)

    def digest(self) -> str:
        """sha256 of the sorted canonical rows, one per line."""
        rows = self.rows
        distinct = len(self._row_texts)
        if distinct < _CELL_MEMO_LIMIT and 2 * distinct <= len(rows):
            # mostly repeated rows: sort each distinct text once
            counts = Counter(rows)
            rows = []
            for text in sorted(counts):
                rows += [text] * counts[text]
        else:
            rows.sort()
        return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


def normalize_result(rows: Sequence[Sequence[object]]) -> str:
    """Canonical digest of a result multiset.

    Row order is ignored (rows are sorted after canonicalization) but column
    order within a row is preserved and duplicate rows keep their
    multiplicity.  Numeric cells unify ints with whole floats and round the
    rest to six decimals; text is compared byte-for-byte; NULL never
    equals empty string.  Cells are SQLite values (None, int, float, str,
    bytes; a bool counts as an int).  execute_candidate computes the same
    digest while it streams a result.
    """
    canonicalizer = _Canonicalizer()
    canonicalizer.feed(map(tuple, rows))
    return canonicalizer.digest()


def _preview(head: Sequence[tuple], row_count: int) -> str:
    text = f"{row_count} row(s)"
    if head:
        text += ": " + "; ".join(repr(row) for row in head)
    if len(text) > 500:
        text = text[:497] + "..."
    return text


# the only actions a candidate's statement may compile to: no writes, no
# ATTACH/DETACH, no PRAGMA, no transaction control, no schema changes
_READ_ONLY_ACTIONS = frozenset({
    sqlite3.SQLITE_SELECT,
    sqlite3.SQLITE_READ,
    sqlite3.SQLITE_FUNCTION,
    sqlite3.SQLITE_RECURSIVE,
})


def _read_only(action: int, *_details) -> int:
    return sqlite3.SQLITE_OK if action in _READ_ONLY_ACTIONS else sqlite3.SQLITE_DENY


# the page cache of a candidate connection, in KiB (a negative cache_size):
# a connection lives as long as its runner, and SQLite's default is 2 MB
_PAGE_CACHE_KIB = 64


def open_read_only(db_path: str | Path) -> sqlite3.Connection:
    """A read-only connection for candidates, its authorizer installed.

    This is the one place a candidate connection is set up.  It keeps no
    prepared statements (cached_statements=0): a question runs each
    distinct text once, so on a connection that outlives its question the
    cache would only hold statements no one runs again.  Its page cache is
    bounded to _PAGE_CACHE_KIB.  It may be closed, and handed from question
    to question, on any thread (check_same_thread=False); only the holder
    uses it.  The schema is loaded next, so the first statement on the
    connection compiles as a later one does: SQLite refuses a CREATE on a
    connection whose schema is not loaded yet with SQLITE_SCHEMA
    (OperationalError), and with SQLITE_AUTH (DatabaseError) once it is.
    The authorizer comes last, in place before any statement
    execute_candidate runs, so every one is compiled under it.  A file
    whose schema cannot be read stays as it is, and each statement meets
    that error as it would on a fresh connection.  The caller closes the
    connection.
    """
    conn = connect_read_only(db_path, cached_statements=0, check_same_thread=False)
    try:
        conn.execute(f"PRAGMA cache_size = -{_PAGE_CACHE_KIB}").close()
        conn.execute("SELECT 1 FROM sqlite_master LIMIT 0").close()
    except sqlite3.Error:
        pass
    conn.set_authorizer(_read_only)
    return conn


# rows fetched per step; the deadline is checked after each batch has been
# canonicalized, so one batch is the grain of the time budget
_FETCH_BATCH = 512
# rows a result's preview shows
_PREVIEW_ROWS = 5


class _Clock:
    """One statement's time: its deadline, its first-step hook and its turn.

    first_step starts timing the first step just before the statement is
    prepared, so opening the connection does not count toward on_slow's
    switch interval.  Entering the clock ends the first step and takes the
    turn; the wait for the turn moves the start and the deadline back (see
    execute_candidate).  on_slow is called at most once.
    """

    __slots__ = ("started", "deadline", "timed_out", "_slow_at", "_on_slow", "_turn")

    def __init__(self, timeout_s: float, turn: threading.Lock | None,
                 on_slow: Callable[[], None] | None):
        self.started = time.monotonic()
        self.deadline = self.started + timeout_s
        self.timed_out = False
        self._turn = turn
        self._on_slow = on_slow
        self._slow_at = math.inf

    def first_step(self) -> None:
        if self._on_slow is not None:
            self._slow_at = time.monotonic() + sys.getswitchinterval()

    def watchdog(self) -> int:
        """The progress handler: 1 interrupts the statement past its deadline."""
        now = time.monotonic()
        if now > self.deadline:
            self.timed_out = True
            return 1
        if now > self._slow_at:  # still in a first step that has run a switch interval
            on_slow, self._on_slow, self._slow_at = self._on_slow, None, math.inf
            on_slow()
        return 0

    def passed(self) -> bool:
        return time.monotonic() > self.deadline

    def elapsed_ms(self) -> float:
        return (time.monotonic() - self.started) * 1000.0

    def __enter__(self) -> "_Clock":
        self._on_slow, self._slow_at = None, math.inf
        if self._turn is not None:
            waiting = time.monotonic()
            self._turn.acquire()
            waited = time.monotonic() - waiting
            self.started += waited
            self.deadline += waited
        return self

    def __exit__(self, *exc_info) -> None:
        if self._turn is not None:
            self._turn.release()


def _stream(conn: sqlite3.Connection, sql: str, clock: _Clock) -> tuple[str, int, str] | None:
    """(signature, row count, preview) of sql's rows, None past the deadline."""
    clock.first_step()
    with closing(conn.execute(sql)) as cursor:
        # no columns: empty text, only a comment, or a statement such as REINDEX
        if cursor.description is None:
            raise sqlite3.ProgrammingError("not a query: the statement returns no columns")
        with clock:
            canonicalizer = _Canonicalizer()
            head: list[tuple] = []
            while batch := cursor.fetchmany(_FETCH_BATCH):
                if len(head) < _PREVIEW_ROWS:
                    head += batch[:_PREVIEW_ROWS - len(head)]
                canonicalizer.feed(batch)
                if clock.passed():
                    return None
            row_count = len(canonicalizer.rows)
            signature = canonicalizer.digest()
            preview = _preview(head, row_count)
            if clock.passed():
                return None
    return signature, row_count, preview


def execute_candidate(
    sql: str,
    db: str | Path | sqlite3.Connection,
    timeout_s: float = 30.0,
    *,
    turn: threading.Lock | None = None,
    on_slow: Callable[[], None] | None = None,
) -> ExecutionResult:
    """Run one query read-only and classify the outcome.

    db is a connection from open_read_only, which the caller reuses for
    later executions and closes, or a database path, which is opened for
    this one query and closed again.  The statement is compiled
    under an authorizer that allows only selecting, reading, functions and
    recursive CTEs, so writes, ATTACH and PRAGMA come back as "not
    authorized" errors before they run.  Every call sets its own deadline
    and restores the text factory after a re-decode, so on a reused
    connection a refused, failed, timed-out or re-decoded statement leaves
    the next one's result as a fresh connection would give it.  Rows are
    fetched in batches and canonicalized as they arrive; timeout_s bounds
    the whole execution (SQLite, fetch, canonicalization and preview), and
    elapsed_ms covers all of it.  Text is decoded as strict UTF-8; a result
    holding invalid UTF-8 is fetched again, under the same deadline, with
    invalid bytes replaced by U+FFFD.

    on_slow and turn are the hooks of a question's batch (see
    harness.QuestionExecutor).  on_slow is called at most once, from the
    progress handler that keeps the deadline, when the first step (prepare
    and the first sqlite3_step) has run for sys.getswitchinterval(); it must
    not raise, or the statement is interrupted.  turn is a lock held for the
    rest of the statement; the wait for it counts neither against timeout_s
    nor in elapsed_ms.

    Never raises for query-level problems: syntax errors, missing tables,
    unopenable databases and statements that return no columns (empty
    text, a lone comment) come back as Error results, and queries that
    exceed timeout_s are interrupted and come back as Timeout results with
    the budget recorded.
    """
    clock = _Clock(timeout_s, turn, on_slow)

    def _result(status: ExecStatus, **fields) -> ExecutionResult:
        return ExecutionResult(status=status, elapsed_ms=clock.elapsed_ms(), **fields)

    owned = not isinstance(db, sqlite3.Connection)
    conn = None
    try:
        conn = open_read_only(db) if owned else db
        conn.set_progress_handler(clock.watchdog, 5000)
        streamed = _read_decoded(conn, lambda: _stream(conn, sql, clock))
        if streamed is not None:  # None: the deadline passed between batches
            signature, row_count, preview = streamed
            return _result(
                ExecStatus.OK, signature=signature, row_count=row_count, preview=preview
            )
    except (sqlite3.Error, sqlite3.Warning) as exc:
        if not clock.timed_out:
            return _result(ExecStatus.ERROR, error_text=f"{type(exc).__name__}: {exc}")
    finally:
        if owned and conn is not None:
            conn.close()
    return _result(ExecStatus.TIMEOUT, error_text=f"timeout after {timeout_s:g}s")


@dataclass(frozen=True)
class VoteGroup:
    """Candidates agreeing on one group key, ordered and sorted for ties.

    signature is "ok:<digest>" for successful groups, "timeout", or
    "error:<error class>".  members are candidate positions, ascending.
    """

    signature: str
    members: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def is_ok(self) -> bool:
        return self.signature.startswith("ok:")


def group_votes(keys: Sequence[str]) -> list[VoteGroup]:
    """Partition vote keys (ExecutionResult.group_key()) into vote groups.

    This is the one vote rule: groups come back sorted by (vote count desc,
    smallest member position asc), so the first Ok group is the winner and
    tied counts go to the earliest slot.
    """
    buckets: dict[str, list[int]] = {}
    for position, key in enumerate(keys):
        buckets.setdefault(key, []).append(position)
    groups = [VoteGroup(key, tuple(members)) for key, members in buckets.items()]
    groups.sort(key=lambda g: (-g.count, g.members[0]))
    return groups


class Decision(Enum):
    ACCEPT_TOP = "accept_top"
    ESCALATE = "escalate"


class MissingPolicyError(Exception):
    """No escalation rule table is configured for this candidate count."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(
            f"no escalation rules configured for {n} candidates; "
            "add an entry to confidence_rules"
        )


# vote distributions (sorted descending) that demand escalation, per
# candidate count; only the five-candidate table ships built in
DEFAULT_ESCALATION_RULES: dict[int, frozenset[tuple[int, ...]]] = {
    5: frozenset({(1, 1, 1, 1, 1), (2, 2, 1), (3, 2)}),
}


def confidence_policy(
    distribution: Sequence[int],
    n: int | None = None,
    rules: Mapping[int, frozenset[tuple[int, ...]]] | None = None,
) -> Decision:
    """Decide whether a vote distribution is confident enough to accept.

    distribution is the group sizes in any order; they are normalized to
    descending.  n, when given, must equal the distribution sum.  rules map
    candidate count -> set of escalating distributions and extend/override
    the built-in five-candidate table; a count with no rule entry raises
    MissingPolicyError.
    """
    dist = tuple(sorted((int(d) for d in distribution), reverse=True))
    if any(d <= 0 for d in dist):
        raise ValueError(f"group sizes must be positive: {distribution}")
    total = sum(dist)
    if n is not None and n != total:
        raise ValueError(f"distribution {dist} sums to {total}, not n={n}")
    effective = dict(DEFAULT_ESCALATION_RULES)
    if rules:
        effective.update({k: frozenset(map(tuple, v)) for k, v in rules.items()})
    table = effective.get(total)
    if table is None:
        raise MissingPolicyError(total)
    return Decision.ESCALATE if dist in table else Decision.ACCEPT_TOP


@functools.cache
def load_judge_template() -> str:
    """The pairwise judge prompt template, read once per process."""
    return (_ASSETS / "judge_prompt.txt").read_text(encoding="utf-8")


def _describe_execution(candidate: "SqlCandidate") -> str:
    execution = candidate.execution
    if execution is None:
        return "not executed"
    if execution.ok:
        return execution.preview or f"{execution.row_count} row(s)"
    return f"{execution.status.value}: {execution.error_text}"


def parse_judge_reply(text: str) -> str | None:
    """Strictly read a judge verdict; anything but a lone A/B is None."""
    match = re.fullmatch(r"\(?([ab])\)?\.?", text.strip().lower())
    return match.group(1).upper() if match else None


# a verdict is one letter
_JUDGE_MAX_TOKENS = 8


class PairwiseJudge:
    """Asks a model to pick the better of two candidates for a question."""

    def __init__(self, gateway: LlmGateway, model: str):
        self.gateway = gateway
        self.model = model

    def request(
        self,
        question: str,
        schema_text: str,
        candidate_a: "SqlCandidate",
        candidate_b: "SqlCandidate",
    ) -> ChatRequest:
        """The request asking which of A and B better answers the question."""
        content = load_judge_template().format(
            question=question,
            schema=schema_text.rstrip(),
            sql_a=candidate_a.sql,
            result_a=_describe_execution(candidate_a),
            sql_b=candidate_b.sql,
            result_b=_describe_execution(candidate_b),
        )
        return ChatRequest(
            model=self.model,
            messages=({"role": "user", "content": content},),
            max_tokens=_JUDGE_MAX_TOKENS,
        )

    def verdict(self, request: ChatRequest) -> str | None:
        """Return "A", "B", or None when the call failed or the reply is unparseable."""
        response = self.gateway.attempt(request, STAGE_SELECTION, "judge call")
        if isinstance(response, GatewayError):
            return None
        verdict = parse_judge_reply(response.text)
        if verdict is None:
            self.gateway.warn("unparseable judge reply: %r", response.text[:200])
        return verdict


def pairwise_select(
    finalists: Sequence["SqlCandidate"],
    votes: Sequence[int],
    judge: PairwiseJudge,
    question: str,
    schema_text: str,
) -> tuple[int, int]:
    """Run the order-balanced pairwise tournament over the finalists.

    Every unordered pair is judged exactly twice, once per presentation
    order, so M finalists always cost 2 * C(M, 2) calls.  The caller builds
    every request, hands all the calls to the judge gateway's pool at once
    and waits for them, so it must not be a thread of that pool.  Points
    are then tallied in pair order: a parsed verdict gives its winner one
    point; a failed or unparseable call gives each side half a point.
    Returns (winning finalist position, calls made), breaking point ties by
    higher vote count then lower spec_index.
    """
    if len(finalists) < 2:
        raise ValueError("pairwise selection needs at least two finalists")
    if len(votes) != len(finalists):
        raise ValueError("votes must align with finalists")
    pairs = [
        order
        for i in range(len(finalists))
        for j in range(i + 1, len(finalists))
        for order in ((i, j), (j, i))
    ]
    futures = [
        judge.gateway.submit(
            judge.verdict,
            judge.request(question, schema_text, finalists[first], finalists[second]),
        )
        for first, second in pairs
    ]
    points = [0.0] * len(finalists)
    for (first, second), future in zip(pairs, futures):
        verdict = future.result()
        if verdict == "A":
            points[first] += 1.0
        elif verdict == "B":
            points[second] += 1.0
        else:
            points[first] += 0.5
            points[second] += 0.5
    winner = max(
        range(len(finalists)),
        key=lambda k: (points[k], votes[k], -finalists[k].spec_index),
    )
    return winner, len(pairs)


class SelectionMethod(str, Enum):
    REGULAR_VOTE = "regular_vote"
    PAIRWISE_LLM = "pairwise_llm"


class Confidence(str, Enum):
    HIGH = "high"
    LOW = "low"


class SelectionOutcome:
    """The selected candidate plus how and how confidently it was chosen.

    chosen_sql is read from the chosen candidate on each access rather than
    held, since a long run keeps every record; an outcome made from a text
    (one built by hand, or read from a record whose candidates do not give
    it) holds that text.  Outcomes are frozen, and compare and hash by
    chosen_sql's value.
    """

    __slots__ = ("chosen_index", "_chosen", "distribution", "confidence", "method",
                 "pairwise_calls", "chosen_votes")
    _NAMES = ("chosen_index", "chosen_sql", "distribution", "confidence", "method",
              "pairwise_calls", "chosen_votes")

    chosen_index: int
    distribution: tuple[int, ...]
    confidence: Confidence
    method: SelectionMethod
    pairwise_calls: int
    chosen_votes: int

    def __init__(
        self,
        chosen_index: int,
        chosen_sql: "SqlCandidate | str",
        distribution: tuple[int, ...],
        confidence: Confidence,
        method: SelectionMethod,
        pairwise_calls: int,
        chosen_votes: int,
    ):
        """chosen_sql is the chosen text, or the chosen candidate to read it from."""
        values = (chosen_index, chosen_sql, distribution, confidence, method,
                  pairwise_calls, chosen_votes)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:  # copy and pickle through __init__
        return SelectionOutcome, tuple(getattr(self, name) for name in self.__slots__)

    @property
    def chosen_sql(self) -> str:
        chosen = self._chosen
        return chosen if isinstance(chosen, str) else chosen.sql

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._NAMES)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SelectionOutcome):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{n}={v!r}" for n, v in zip(self._NAMES, self._fields()))
        return f"SelectionOutcome({pairs})"


def select(
    candidates: Sequence["SqlCandidate"],
    *,
    question: str = "",
    schema_text: str = "",
    judge: PairwiseJudge | None = None,
    rules: Mapping[int, frozenset[tuple[int, ...]]] | None = None,
) -> SelectionOutcome:
    """Pick the final answer from executed candidates.

    Confident distributions take the top Ok group's representative (its
    lowest-index member) with zero judge calls.  Ambiguous distributions
    escalate the Ok-group representatives to the pairwise tournament.  A
    candidate from a failed group is never chosen while any Ok group
    exists; with no Ok group at all, the lowest-index candidate is returned
    as a low-confidence lost cause.
    """
    if not candidates:
        raise ValueError("select() needs at least one candidate")
    keys = []
    for position, candidate in enumerate(candidates):
        if candidate.execution is None:
            raise ValueError(f"candidate {position} has no execution result")
        keys.append(candidate.execution.group_key())
    groups = group_votes(keys)
    distribution = tuple(g.count for g in groups)
    ok_groups = [g for g in groups if g.is_ok]

    def outcome(position: int, confidence, method, calls: int) -> SelectionOutcome:
        group_size = next(g.count for g in groups if position in g.members)
        return SelectionOutcome(
            chosen_index=position,
            chosen_sql=candidates[position],
            distribution=distribution,
            confidence=confidence,
            method=method,
            pairwise_calls=calls,
            chosen_votes=group_size,
        )

    if not ok_groups:
        warn = judge.gateway.warn if judge is not None else log.warning
        warn("every candidate failed; returning the first as low confidence")
        return outcome(0, Confidence.LOW, SelectionMethod.PAIRWISE_LLM, 0)

    decision = confidence_policy(distribution, len(candidates), rules)
    if decision is Decision.ACCEPT_TOP:
        return outcome(
            ok_groups[0].members[0],
            Confidence.HIGH,
            SelectionMethod.REGULAR_VOTE,
            0,
        )

    finalists = [candidates[g.members[0]] for g in ok_groups]
    finalist_votes = [g.count for g in ok_groups]
    if len(finalists) == 1:
        return outcome(
            ok_groups[0].members[0], Confidence.LOW, SelectionMethod.PAIRWISE_LLM, 0
        )
    if judge is None:
        raise ValueError("escalation required but no judge was provided")
    winner, calls = pairwise_select(finalists, finalist_votes, judge, question, schema_text)
    return outcome(
        ok_groups[winner].members[0], Confidence.LOW, SelectionMethod.PAIRWISE_LLM, calls
    )
