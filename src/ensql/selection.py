"""Candidate execution, result canonicalization, voting, and selection.

Candidates are executed read-only against SQLite with a wall-clock budget.
Results are reduced to a canonical multiset digest so that queries

* returning the same rows in a different order,
* differing only in int-vs-float typing of the same values, or
* differing past six decimal places

land in the same vote group, while NULL and empty string stay distinct.

Groups vote: a confident distribution accepts the top group's answer; an
ambiguous one escalates the group representatives to a pairwise LLM
tournament where every unordered pair is judged twice with the candidate
order swapped.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import re
import sqlite3
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from .gateway import ChatRequest, GatewayError, LlmGateway, STAGE_SELECTION

if TYPE_CHECKING:  # import only for annotations; generation imports us at runtime
    from .generation import SqlCandidate

log = logging.getLogger(__name__)

_ASSETS = Path(__file__).parent / "assets"


class ExecStatus(str, Enum):
    OK = "ok"
    ERROR = "error"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of running one query: a digest for Ok, an error class otherwise."""

    status: ExecStatus
    signature: str | None = None
    row_count: int | None = None
    error_text: str | None = None
    preview: str | None = None
    elapsed_ms: float | None = None

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


def _canonical_cell(value: object, precision: int) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return f"int:{int(value)}"
    if isinstance(value, int):
        return f"int:{value}"
    if isinstance(value, float):
        if not math.isfinite(value):
            return f"num:{value!r}"
        rounded = round(value, precision)
        if rounded == int(rounded):
            return f"int:{int(rounded)}"
        return f"num:{rounded:.{precision}f}"
    if isinstance(value, bytes):
        return "bytes:" + value.hex()
    return "text:" + str(value)


def normalize_result(rows: Sequence[Sequence[object]], precision: int = 6) -> str:
    """Canonical digest of a result multiset.

    Row order is ignored (rows are sorted after canonicalization) but column
    order within a row is preserved and duplicate rows keep their
    multiplicity.  Numeric cells unify ints with whole floats and round the
    rest to `precision` decimals; text is compared byte-for-byte; NULL never
    equals empty string.
    """
    canon_rows = sorted(
        json.dumps([_canonical_cell(v, precision) for v in row]) for row in rows
    )
    return hashlib.sha256("\n".join(canon_rows).encode("utf-8")).hexdigest()


def _preview_rows(rows: Sequence[Sequence[object]], limit: int) -> str:
    head = "; ".join(repr(tuple(r)) for r in rows[:limit])
    text = f"{len(rows)} row(s)"
    if head:
        text += ": " + head
    if len(text) > 500:
        text = text[:497] + "..."
    return text


def execute_candidate(
    sql: str,
    db_path: str | Path,
    timeout_s: float = 30.0,
    precision: int = 6,
    preview_limit: int = 5,
) -> ExecutionResult:
    """Run one query read-only and classify the outcome.

    Never raises for query-level problems: syntax errors, missing tables,
    and unopenable databases come back as Error results, and queries that
    exceed timeout_s are interrupted and come back as Timeout results with
    the budget recorded.
    """
    started = time.monotonic()
    deadline = started + timeout_s
    timed_out = False

    def _watchdog() -> int:
        nonlocal timed_out
        if time.monotonic() > deadline:
            timed_out = True
            return 1
        return 0

    conn = None
    try:
        conn = sqlite3.connect(f"file:{Path(db_path)}?mode=ro", uri=True)
        conn.text_factory = lambda raw: raw.decode("utf-8", "replace")
        conn.set_progress_handler(_watchdog, 5000)
        rows = conn.execute(sql).fetchall()
        elapsed_ms = (time.monotonic() - started) * 1000.0
        return ExecutionResult(
            status=ExecStatus.OK,
            signature=normalize_result(rows, precision),
            row_count=len(rows),
            preview=_preview_rows(rows, preview_limit),
            elapsed_ms=elapsed_ms,
        )
    except (sqlite3.Error, sqlite3.Warning) as exc:
        elapsed_ms = (time.monotonic() - started) * 1000.0
        if timed_out:
            return ExecutionResult(
                status=ExecStatus.TIMEOUT,
                error_text=f"timeout after {timeout_s:g}s",
                elapsed_ms=elapsed_ms,
            )
        return ExecutionResult(
            status=ExecStatus.ERROR,
            error_text=f"{type(exc).__name__}: {exc}",
            elapsed_ms=elapsed_ms,
        )
    finally:
        if conn is not None:
            conn.close()


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


def group_votes(candidates: Sequence["SqlCandidate"]) -> list[VoteGroup]:
    """Partition candidates into vote groups by execution equivalence.

    Every candidate must already carry an execution result.  Groups come
    back sorted by (vote count desc, smallest member index asc), so the
    result is deterministic for tied counts.
    """
    buckets: dict[str, list[int]] = {}
    for position, candidate in enumerate(candidates):
        if candidate.execution is None:
            raise ValueError(f"candidate {position} has no execution result")
        buckets.setdefault(candidate.execution.group_key(), []).append(position)
    groups = [
        VoteGroup(signature=key, members=tuple(sorted(members)))
        for key, members in buckets.items()
    ]
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


def load_judge_template() -> str:
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


class PairwiseJudge:
    """Asks a model to pick the better of two candidates for a question.

    question_id only labels the judge's warnings.
    """

    def __init__(
        self,
        gateway: LlmGateway,
        model: str,
        template: str | None = None,
        max_tokens: int = 8,
        question_id: str = "?",
    ):
        self.gateway = gateway
        self.model = model
        self.template = template if template is not None else load_judge_template()
        self.max_tokens = max_tokens
        self.question_id = question_id

    def request(
        self,
        question: str,
        schema_text: str,
        candidate_a: "SqlCandidate",
        candidate_b: "SqlCandidate",
    ) -> ChatRequest:
        """The request asking which of A and B better answers the question."""
        content = self.template.format(
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
            temperature=0.0,
            max_tokens=self.max_tokens,
        )

    def verdict(self, request: ChatRequest) -> str | None:
        """Return "A", "B", or None when the call fails or is unparseable."""
        try:
            response = self.gateway.complete(request, stage=STAGE_SELECTION)
        except GatewayError as exc:
            log.warning("question %s: judge call failed: %s", self.question_id, exc)
            return None
        verdict = parse_judge_reply(response.text)
        if verdict is None:
            log.warning(
                "question %s: unparseable judge reply: %r",
                self.question_id, response.text[:200],
            )
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


@dataclass(frozen=True)
class SelectionOutcome:
    """The selected candidate plus how and how confidently it was chosen."""

    chosen_index: int
    chosen_sql: str
    distribution: tuple[int, ...]
    confidence: Confidence
    method: SelectionMethod
    pairwise_calls: int
    chosen_votes: int


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
    groups = group_votes(candidates)
    distribution = tuple(g.count for g in groups)
    ok_groups = [g for g in groups if g.is_ok]

    def outcome(position: int, confidence, method, calls: int) -> SelectionOutcome:
        group_size = next(g.count for g in groups if position in g.members)
        return SelectionOutcome(
            chosen_index=position,
            chosen_sql=candidates[position].sql,
            distribution=distribution,
            confidence=confidence,
            method=method,
            pairwise_calls=calls,
            chosen_votes=group_size,
        )

    if not ok_groups:
        log.warning(
            "question %s: every candidate failed; returning the first as low confidence",
            judge.question_id if judge is not None else "?",
        )
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
