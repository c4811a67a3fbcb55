"""Schema linking: predict relevant tables/columns and measure that skill.

A linker call shows the model the full schema and asks for a JSON mapping
of table name -> relevant column names.  That prediction drives catalog
filtering (see catalog.apply_filter) and is scored against gold linkings
derived from reference SQL.

Gold derivation leaves name resolution to SQLite: the reference query is
compiled, never run, against an empty in-memory copy of the schema, and the
compiled program's opened tables and the columns it reads (reported by the
authorizer or read by the program itself) are the gold linking.  Queries SQLite rejects, or that do anything but read, raise
so callers can exclude them explicitly rather than silently mis-score.
"""
from __future__ import annotations

import functools
import json
import logging
import re
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .catalog import SchemaCatalog, _quote_ident, fold_name
from .selection import _READ_ONLY_ACTIONS

log = logging.getLogger(__name__)

_ASSETS = Path(__file__).parent / "assets"


class LinkingParseError(Exception):
    """A linker response could not be turned into a prediction."""

    def __init__(self, message: str, text: str):
        self.text = text
        super().__init__(message)


class NoJsonFound(LinkingParseError):
    """The response contains no decodable JSON object."""

    def __init__(self, text: str):
        super().__init__("no JSON object found in linker response", text)


class MalformedMapping(LinkingParseError):
    """The response's JSON object is not a table -> column-list mapping."""


class LinkingResolutionError(Exception):
    """Reference SQL that SQLite cannot compile as one read-only query."""


@dataclass
class LinkingPrediction:
    """A predicted table -> column-names selection, in response order."""

    selection: dict[str, list[str]]

    def tables(self) -> set[str]:
        return {fold_name(t) for t in self.selection}

    def columns(self) -> set[tuple[str, str]]:
        return {
            (fold_name(t), fold_name(c))
            for t, cols in self.selection.items()
            for c in cols
        }


@dataclass(frozen=True)
class LinkingFewShot:
    """One in-context example for the linking prompt."""

    schema_text: str
    question: str
    hint: str
    response: str


@dataclass(frozen=True)
class GoldLinking:
    """The tables and (table, column) pairs a reference query touches."""

    tables: frozenset[str]
    columns: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class LinkingMetrics:
    """Micro-averaged precision/recall/F1 at table and column granularity."""

    table_precision: float
    table_recall: float
    table_f1: float
    column_precision: float
    column_recall: float
    column_f1: float


@functools.cache
def load_linking_system_prompt() -> str:
    """The linking system prompt, read once per process."""
    return (_ASSETS / "linking_system_prompt.txt").read_text(encoding="utf-8")


@functools.cache
def load_default_linking_fewshots() -> tuple[LinkingFewShot, ...]:
    """The shipped linking examples, parsed once per process.

    A tuple of frozen examples, since every caller shares the cached value.
    """
    doc = json.loads((_ASSETS / "linking_fewshots.json").read_text(encoding="utf-8"))
    return tuple(
        LinkingFewShot(
            schema_text=entry["schema_text"],
            question=entry["question"],
            hint=entry.get("hint", ""),
            response=entry["response"],
        )
        for entry in doc
    )


def format_user_turn(schema_text: str, question: str, hint: str = "") -> str:
    """The user-turn template shared by linking and generation prompts."""
    text = f"Schema:\n{schema_text.rstrip()}\n\nQuestion: {question}"
    if hint:
        text += f"\nHint: {hint}"
    return text


def build_linking_prompt(schema_text: str, question: str, hint: str = "") -> list[dict]:
    """Assemble the linking chat prompt: system, the shipped examples, the query."""
    messages = [{"role": "system", "content": load_linking_system_prompt()}]
    for shot in load_default_linking_fewshots():
        messages.append(
            {"role": "user", "content": format_user_turn(shot.schema_text, shot.question, shot.hint)}
        )
        messages.append({"role": "assistant", "content": shot.response})
    messages.append({"role": "user", "content": format_user_turn(schema_text, question, hint)})
    return messages


def parse_linking_response(text: str) -> LinkingPrediction:
    """Extract the first JSON object in the response as a prediction.

    The object must map table names to lists of column-name strings;
    anything else raises MalformedMapping.  A response with no decodable
    JSON object raises NoJsonFound.  Duplicate columns are dropped while
    preserving order, and an empty object is a valid empty selection.
    """
    decoder = json.JSONDecoder()
    doc = None
    for match in re.finditer(r"\{", text):
        try:
            doc, _ = decoder.raw_decode(text, match.start())
        except json.JSONDecodeError:
            continue
        break
    if doc is None:
        raise NoJsonFound(text)
    if not isinstance(doc, dict):
        raise MalformedMapping("linker response is not a JSON object", text)
    selection: dict[str, list[str]] = {}
    for table, columns in doc.items():
        if not isinstance(columns, list) or not all(isinstance(c, str) for c in columns):
            raise MalformedMapping(
                f"value for table {table!r} is not a list of strings", text
            )
        deduped: list[str] = []
        for col in columns:
            if col not in deduped:
                deduped.append(col)
        selection[str(table)] = deduped
    return LinkingPrediction(selection=selection)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _as_sets(entry: object) -> tuple[set[str], set[tuple[str, str]]]:
    if isinstance(entry, GoldLinking):
        return (
            {fold_name(t) for t in entry.tables},
            {(fold_name(t), fold_name(c)) for t, c in entry.columns},
        )
    if isinstance(entry, LinkingPrediction):
        return entry.tables(), entry.columns()
    if isinstance(entry, Mapping):
        prediction = LinkingPrediction(
            {str(t): [str(c) for c in cols] for t, cols in entry.items()}
        )
        return prediction.tables(), prediction.columns()
    raise TypeError(f"cannot score {type(entry).__name__} as a linking")


def linking_metrics(
    predictions: Sequence[object], golds: Sequence[object]
) -> LinkingMetrics:
    """Micro-averaged P/R/F1 over paired predictions and golds.

    Accepts LinkingPrediction, GoldLinking, or plain mappings on either
    side; names are compared by SQLite's rule (see catalog.fold_name).
    Zero denominators score 0.0 rather than raising.
    """
    if len(predictions) != len(golds):
        raise ValueError(
            f"predictions and golds differ in length: {len(predictions)} vs {len(golds)}"
        )
    t_tp = t_fp = t_fn = 0
    c_tp = c_fp = c_fn = 0
    for pred, gold in zip(predictions, golds):
        pred_tables, pred_columns = _as_sets(pred)
        gold_tables, gold_columns = _as_sets(gold)
        t_tp += len(pred_tables & gold_tables)
        t_fp += len(pred_tables - gold_tables)
        t_fn += len(gold_tables - pred_tables)
        c_tp += len(pred_columns & gold_columns)
        c_fp += len(pred_columns - gold_columns)
        c_fn += len(gold_columns - pred_columns)
    tp_, tr_, tf_ = _prf(t_tp, t_fp, t_fn)
    cp_, cr_, cf_ = _prf(c_tp, c_fp, c_fn)
    return LinkingMetrics(tp_, tr_, tf_, cp_, cr_, cf_)


# -- gold linking derivation ---------------------------------------------------


def derive_gold_linking(gold_sql: str, catalog: SchemaCatalog) -> GoldLinking:
    """Resolve the tables and columns a reference query actually touches.

    SQLite resolves the names: the query is compiled as EXPLAIN against an
    empty in-memory copy of the catalog's tables, never run.  Tables are the
    ones the compiled program opens (CTEs and subqueries excluded); columns
    are the catalog columns SQLite's authorizer reports as read, including
    * / alias.* expansion, plus those the program reads from a table cursor,
    which covers the columns a USING or NATURAL join compares.  count(*)
    style reads and the implicit rowid add no column.
    A query SQLite rejects (unknown or ambiguous names, syntax errors), one
    that does anything but read, or more than one statement raises
    LinkingResolutionError so the caller can exclude the question instead
    of scoring a guess.
    """
    reads: set[tuple[str, str]] = set()

    def authorize(action: int, table: str | None, column: str | None, *_details) -> int:
        if action not in _READ_ONLY_ACTIONS:
            return sqlite3.SQLITE_DENY
        if action == sqlite3.SQLITE_READ and column:
            reads.add((table, column))
        return sqlite3.SQLITE_OK

    conn = sqlite3.connect(":memory:")
    try:
        for table in catalog.tables:
            column_list = ", ".join(_quote_ident(c.name) for c in table.columns)
            conn.execute(f"CREATE TABLE {_quote_ident(table.name)} ({column_list})")
        names_by_root = dict(
            conn.execute("SELECT rootpage, name FROM sqlite_master WHERE type = 'table'")
        )
        conn.set_authorizer(authorize)
        program = conn.execute("EXPLAIN " + gold_sql).fetchall()
    except (sqlite3.Error, sqlite3.Warning) as exc:
        raise LinkingResolutionError(
            f"cannot resolve reference SQL for {catalog.db_id}: {exc}"
        ) from exc
    finally:
        conn.close()

    # EXPLAIN rows: addr, opcode, p1 (cursor), p2 (root page for OpenRead,
    # column position for Column), p3 (database), ...
    tables_by_cursor = {
        cursor: names_by_root[root]
        for _, opcode, cursor, root, database, *_ in program
        if opcode == "OpenRead" and database == 0 and root in names_by_root
    }
    # SQLite reports the declared names, so the implicit rowid and reads of
    # its own schema tables fall outside the catalog's columns
    columns = reads & {(t.name, c.name) for t in catalog.tables for c in t.columns}
    # a join's USING or NATURAL columns are compared without consulting the
    # authorizer; the program's own reads name them by position.  sqlite_master
    # names each table as created, so the lookup is exact: SQLite folds ASCII
    # case only, so "k" and the Kelvin sign name two different tables
    by_name = {t.name: t for t in catalog.tables}
    columns.update(
        (table, by_name[table].columns[position].name)
        for _, opcode, cursor, position, *_ in program
        if opcode == "Column" and (table := tables_by_cursor.get(cursor)) is not None
    )
    return GoldLinking(
        tables=frozenset(tables_by_cursor.values()), columns=frozenset(columns)
    )
