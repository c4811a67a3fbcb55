"""Run records: their JSONL format, its checked reading, and what reads them.

A records file holds one RunRecord.to_dict document a line; read_records
checks every field's type and names the line of the first that is wrong.
Tally is the report's one counting rule, and bounds_analysis and
ex_by_vote analyse selection quality over the scored records.
"""
from __future__ import annotations

import json
import statistics
from collections import Counter
from dataclasses import asdict, dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .files import is_json_int, read_jsonl
from .gateway import LLM_STAGES, PriceTable, TokenUsage, UsageRow
from .generation import SqlCandidate
from .selection import (
    Confidence,
    ExecStatus,
    ExecutionResult,
    SelectionMethod,
    SelectionOutcome,
)


class DatasetError(Exception):
    """The dataset layout or content is unusable."""


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
            error=_typed(doc, "error", _is_str_or_null, "a string or null", None),
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


def _is_str_or_null(value: object) -> bool:
    return value is None or isinstance(value, str)


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
            signature=_typed(raw, "signature", _is_str_or_null, "a string or null", None),
            row_count=_typed(raw, "row_count", lambda v: v is None or is_json_int(v),
                             "an integer or null", None),
            error_text=_typed(raw, "error_text", _is_str_or_null, "a string or null", None),
            preview=_typed(raw, "preview", _is_str_or_null, "a string or null", None),
        )
    return SqlCandidate(
        spec_index=_typed(doc, "spec_index", is_json_int, "an integer"),
        sql=_typed(doc, "sql", _is_str, "a string"),
        raw_response=_typed(doc, "raw_response", _is_str, "a string", ""),
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
    index = _typed(doc, "chosen_index", is_json_int, "an integer")
    chosen_sql = _typed(doc, "chosen_sql", _is_str, "a string")
    if 0 <= index < len(candidates) and candidates[index].sql == chosen_sql:
        chosen_sql = candidates[index]
    return SelectionOutcome(
        chosen_index=index,
        chosen_sql=chosen_sql,
        distribution=tuple(_typed(
            doc, "distribution", lambda v: isinstance(v, list) and all(map(is_json_int, v)),
            "a list of integers",
        )),
        confidence=Confidence(doc["confidence"]),
        method=SelectionMethod(doc["method"]),
        pairwise_calls=_typed(doc, "pairwise_calls", is_json_int, "an integer"),
        chosen_votes=_typed(doc, "chosen_votes", is_json_int, "an integer"),
    )


def record_line(record: RunRecord) -> str:
    """One JSONL line of a records file."""
    return json.dumps(record.to_dict(), ensure_ascii=False) + "\n"


def write_records(records: Iterable[RunRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(record_line, records))


def read_records(path: str | Path) -> list[RunRecord]:
    return read_jsonl(path, RunRecord.from_dict, DatasetError, "run record")


# -- the report ---------------------------------------------------------------------


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


class Tally:
    """The report's counts over the records added so far, one record at a time.

    Accuracy averages over items whose reference query succeeded and that
    produced a selection; call, token and cost averages cover every item
    that did pipeline work (reference failures included), while errored
    items count only toward the failure tally.
    """

    def __init__(self, price_table: PriceTable | None = None):
        self.table = price_table or PriceTable.default()
        self.items = self.failed = self.scored = self.correct = 0
        self.calls: list[int] = []  # each worked item's, for the median
        self.calls_total = self.tokens_total = 0
        self.cost_total = Decimal(0)
        self.escalations: Counter[str] = Counter()

    def add(self, record: RunRecord) -> None:
        self.items += 1
        if record.error:
            self.failed += 1
            return
        self.calls.append(record.llm_calls())
        self.calls_total += self.calls[-1]
        self.tokens_total += record.total_tokens()
        self.cost_total += record.dollars(self.table)
        if record.gold_ok:
            self.scored += 1
            self.correct += record.ex
        selection = record.selection
        if selection is not None and selection.method is SelectionMethod.PAIRWISE_LLM:
            self.escalations[_escalation_reason(record)] += 1

    @property
    def ex(self) -> float:
        return self.correct / self.scored if self.scored else 0.0

    @property
    def calls_avg(self) -> float:
        return self.calls_total / len(self.calls) if self.calls else 0.0

    @property
    def cost_usd_avg(self) -> Decimal:
        return self.cost_total / len(self.calls) if self.calls else Decimal(0)

    def report(self) -> Report:
        worked = len(self.calls)
        return Report(
            items=self.items,
            scored=self.scored,
            gold_failures=worked - self.scored,
            failed=self.failed,
            ex=self.ex,
            calls_typical=float(statistics.median(self.calls)) if worked else 0.0,
            calls_avg=self.calls_avg,
            tokens_k_avg=self.tokens_total / worked / 1000.0 if worked else 0.0,
            cost_usd_avg=self.cost_usd_avg,
            cost_usd_total=self.cost_total,
            escalated=sum(self.escalations.values()),
            escalated_judged=self.escalations["judged"],
            escalated_all_failed=self.escalations["all_failed"],
            escalated_one_group=self.escalations["one_group"],
        )


def aggregate_records(
    records: Iterable[RunRecord], price_table: PriceTable | None = None
) -> Report:
    """The Report of a run's records, each added to one Tally; pure, so stable."""
    tally = Tally(price_table)
    for record in records:
        tally.add(record)
    return tally.report()


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
