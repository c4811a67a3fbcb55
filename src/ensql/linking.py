"""Schema linking: predict relevant tables/columns and measure that skill.

A linker call shows the model the full schema and asks for a JSON mapping
of table name -> relevant column names.  That prediction drives catalog
filtering (see catalog.apply_filter) and is scored against gold linkings
derived from reference SQL.

Gold derivation uses a small purpose-built SQLite identifier resolver: it
tokenizes the query, maps FROM/JOIN items to catalog tables (tracking
aliases, CTEs, and subquery aliases), then resolves qualified names, bare
columns by unique ownership, and * expansion over the referenced tables.
Queries it cannot resolve raise so callers can exclude them explicitly
rather than silently mis-score.
"""
from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .catalog import SchemaCatalog
from .formats import RepresentationFormat
from .gateway import TokenUsage

log = logging.getLogger(__name__)

_ASSETS = Path(__file__).parent / "assets"

FEWSHOT_COUNT = 3


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
    """Reference SQL contains an identifier the resolver cannot place."""


@dataclass
class LinkingPrediction:
    """A predicted table -> column-names selection, in response order."""

    selection: dict[str, list[str]]

    def to_json(self) -> str:
        return json.dumps(self.selection, ensure_ascii=False)

    def tables(self) -> set[str]:
        return {t.lower() for t in self.selection}

    def columns(self) -> set[tuple[str, str]]:
        return {
            (t.lower(), c.lower())
            for t, cols in self.selection.items()
            for c in cols
        }


@dataclass
class LinkerRun:
    """One linker invocation: inputs, outcome, and usage.

    prediction is None when the response failed to parse; callers fall back
    to no filtering for the affected representations.
    """

    run_id: str
    format: RepresentationFormat
    model: str
    prediction: LinkingPrediction | None
    usage: TokenUsage = field(default_factory=TokenUsage)
    response_text: str = ""
    error: str | None = None


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


def load_linking_system_prompt() -> str:
    return (_ASSETS / "linking_system_prompt.txt").read_text(encoding="utf-8")


def load_default_linking_fewshots() -> list[LinkingFewShot]:
    doc = json.loads((_ASSETS / "linking_fewshots.json").read_text(encoding="utf-8"))
    return [
        LinkingFewShot(
            schema_text=entry["schema_text"],
            question=entry["question"],
            hint=entry.get("hint", ""),
            response=entry["response"],
        )
        for entry in doc
    ]


def format_user_turn(schema_text: str, question: str, hint: str = "") -> str:
    """The user-turn template shared by linking and generation prompts."""
    text = f"Schema:\n{schema_text.rstrip()}\n\nQuestion: {question}"
    if hint:
        text += f"\nHint: {hint}"
    return text


def build_linking_prompt(
    schema_text: str,
    question: str,
    hint: str = "",
    fewshots: Sequence[LinkingFewShot] | None = None,
) -> list[dict]:
    """Assemble the linking chat prompt: system, three examples, the query.

    The example count is fixed; passing any other number raises ValueError.
    """
    if fewshots is None:
        fewshots = load_default_linking_fewshots()
    if len(fewshots) != FEWSHOT_COUNT:
        raise ValueError(
            f"linking prompt requires exactly {FEWSHOT_COUNT} examples, got {len(fewshots)}"
        )
    messages = [{"role": "system", "content": load_linking_system_prompt()}]
    for shot in fewshots:
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
            {t.lower() for t in entry.tables},
            {(t.lower(), c.lower()) for t, c in entry.columns},
        )
    if isinstance(entry, LinkingPrediction):
        return entry.tables(), entry.columns()
    if isinstance(entry, Mapping):
        return LinkingPrediction(
            {str(t): [str(c) for c in cols] for t, cols in entry.items()}
        ).tables(), LinkingPrediction(
            {str(t): [str(c) for c in cols] for t, cols in entry.items()}
        ).columns()
    raise TypeError(f"cannot score {type(entry).__name__} as a linking")


def linking_metrics(
    predictions: Sequence[object], golds: Sequence[object]
) -> LinkingMetrics:
    """Micro-averaged P/R/F1 over paired predictions and golds.

    Accepts LinkingPrediction, GoldLinking, or plain mappings on either
    side; names are compared case-insensitively.  Zero denominators score
    0.0 rather than raising.
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

_TOKEN_RE = re.compile(
    r"""
      (?P<space>\s+)
    | (?P<line_comment>--[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<string>'(?:[^']|'')*')
    | (?P<dquote>"(?:[^"]|"")*")
    | (?P<backtick>`(?:[^`]|``)*`)
    | (?P<bracket>\[[^\]]*\])
    | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)
    | (?P<word>[A-Za-z_][A-Za-z_0-9$]*)
    | (?P<op><>|<=|>=|==|!=|\|\||[*.,()=<>+\-/%;?:|&~])
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = frozenset(
    """
    abort action add after all alter analyze and as asc attach autoincrement
    before begin between by cascade case cast check collate column commit
    conflict constraint create cross current current_date current_time
    current_timestamp database default deferrable deferred delete desc detach
    distinct do drop each else end escape except exclude exclusive exists
    explain fail false filter first following for foreign from full glob group
    groups having if ignore immediate in index indexed initially inner insert
    instead intersect into is isnull join key last left like limit match
    materialized natural no not nothing notnull null nulls of offset on or
    order others outer over partition plan pragma preceding primary query
    raise range recursive references regexp reindex release rename replace
    restrict returning right rollback row rows savepoint select set table
    temp temporary then ties to transaction trigger true unbounded union
    unique update using vacuum values view virtual when where window with
    without
    """.split()
)

_IMPLICIT_COLUMNS = frozenset({"rowid", "oid", "_rowid_"})


@dataclass(frozen=True)
class _Token:
    kind: str  # ident, string, number, punct
    text: str  # identifier text with quoting removed
    quoted: bool = False

    @property
    def norm(self) -> str:
        return self.text.lower()

    def is_keyword(self) -> bool:
        return self.kind == "ident" and not self.quoted and self.norm in _KEYWORDS


def _tokenize(sql: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise LinkingResolutionError(
                f"cannot tokenize SQL at offset {pos}: {sql[pos:pos + 20]!r}"
            )
        pos = match.end()
        kind = match.lastgroup
        text = match.group()
        if kind in ("space", "line_comment", "block_comment"):
            continue
        if kind == "string":
            tokens.append(_Token("string", text[1:-1].replace("''", "'")))
        elif kind == "dquote":
            tokens.append(_Token("ident", text[1:-1].replace('""', '"'), quoted=True))
        elif kind == "backtick":
            tokens.append(_Token("ident", text[1:-1].replace("``", "`"), quoted=True))
        elif kind == "bracket":
            tokens.append(_Token("ident", text[1:-1], quoted=True))
        elif kind == "number":
            tokens.append(_Token("number", text))
        elif kind == "word":
            tokens.append(_Token("ident", text))
        else:
            tokens.append(_Token("punct", text))
    return tokens


def _skip_parens(tokens: Sequence[_Token], i: int) -> int:
    """Given i at '(', return the index just past the matching ')'."""
    depth = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.kind == "punct" and tok.text == "(":
            depth += 1
        elif tok.kind == "punct" and tok.text == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise LinkingResolutionError("unbalanced parentheses in SQL")


def _collect_cte_names(tokens: Sequence[_Token]) -> set[str]:
    names: set[str] = set()
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.is_keyword() and tok.norm == "with":
            i += 1
            if i < len(tokens) and tokens[i].is_keyword() and tokens[i].norm == "recursive":
                i += 1
            while i < len(tokens) and tokens[i].kind == "ident" and not tokens[i].is_keyword():
                names.add(tokens[i].norm)
                i += 1
                if i < len(tokens) and tokens[i].kind == "punct" and tokens[i].text == "(":
                    i = _skip_parens(tokens, i)  # optional column list
                if i < len(tokens) and tokens[i].is_keyword() and tokens[i].norm == "as":
                    i += 1
                    if i < len(tokens) and tokens[i].is_keyword() and tokens[i].norm == "materialized":
                        i += 1
                    if i < len(tokens) and tokens[i].kind == "punct" and tokens[i].text == "(":
                        i = _skip_parens(tokens, i)
                if i < len(tokens) and tokens[i].kind == "punct" and tokens[i].text == ",":
                    i += 1
                    continue
                break
        else:
            i += 1
    return names


def _is_plain_ident(tok: _Token) -> bool:
    return tok.kind == "ident" and not tok.is_keyword()


def _collect_table_refs(
    tokens: Sequence[_Token], catalog: SchemaCatalog, cte_names: set[str]
) -> tuple[dict[str, str], dict[str, str], set[str]]:
    """Find base-table references and aliases after FROM/JOIN keywords.

    Returns (referenced tables by lowercase name -> canonical name,
    alias -> canonical table name, opaque alias names).  Opaque names cover
    CTEs and subquery aliases: qualified references through them are
    ignored rather than resolved.
    """
    refs: dict[str, str] = {}
    aliases: dict[str, str] = {}
    opaque: set[str] = set(cte_names)

    def parse_item(i: int) -> int:
        if i >= len(tokens):
            return i
        tok = tokens[i]
        if tok.kind == "punct" and tok.text == "(":
            i = _skip_parens(tokens, i)
            return parse_alias(i, None)
        if not _is_plain_ident(tok):
            return i
        name = tok
        i += 1
        # attached-database qualification: db.table
        if (
            i + 1 < len(tokens)
            and tokens[i].kind == "punct"
            and tokens[i].text == "."
            and _is_plain_ident(tokens[i + 1])
        ):
            name = tokens[i + 1]
            i += 2
        if name.norm in cte_names:
            return parse_alias(i, None)
        table = catalog.table(name.text)
        if table is None:
            raise LinkingResolutionError(
                f"unknown table {name.text!r} in reference SQL for {catalog.db_id}"
            )
        refs[table.name.lower()] = table.name
        aliases[table.name.lower()] = table.name
        return parse_alias(i, table.name)

    def parse_alias(i: int, table_name: str | None) -> int:
        alias: _Token | None = None
        if i < len(tokens) and tokens[i].is_keyword() and tokens[i].norm == "as":
            if i + 1 < len(tokens) and _is_plain_ident(tokens[i + 1]):
                alias = tokens[i + 1]
                i += 2
        elif i < len(tokens) and _is_plain_ident(tokens[i]):
            alias = tokens[i]
            i += 1
        if alias is not None:
            if table_name is None:
                opaque.add(alias.norm)
            else:
                aliases[alias.norm] = table_name
        # comma right after an item continues the FROM list
        if i < len(tokens) and tokens[i].kind == "punct" and tokens[i].text == ",":
            return parse_item(i + 1)
        return i

    # advance one token at a time instead of trusting parse_item's return
    # index: a FROM item can be a parenthesized subquery whose own FROM/JOIN
    # clauses must be scanned too.  parse_item is idempotent, so revisiting
    # tokens it already consumed is harmless.
    for i, tok in enumerate(tokens):
        if tok.is_keyword() and tok.norm in ("from", "join"):
            parse_item(i + 1)
    return refs, aliases, opaque


def derive_gold_linking(gold_sql: str, catalog: SchemaCatalog) -> GoldLinking:
    """Resolve the tables and columns a reference query actually touches.

    Tables are the base tables named after FROM/JOIN (CTEs and subquery
    aliases excluded).  Columns are every resolvable column reference:
    qualified names through table aliases, bare names owned by exactly one
    referenced table, USING join columns, and * / alias.* expansion.
    count(*) style stars expand nothing.  Unresolvable or ambiguous
    identifiers raise LinkingResolutionError so the caller can exclude the
    question instead of scoring a guess.
    """
    tokens = _tokenize(gold_sql)
    cte_names = _collect_cte_names(tokens)
    refs, aliases, opaque = _collect_table_refs(tokens, catalog, cte_names)

    columns: set[tuple[str, str]] = set()
    ignored: set[str] = set()  # output aliases: SELECT expr AS name

    def add_column(table_name: str, column_text: str) -> None:
        table = catalog.table(table_name)
        assert table is not None
        col = table.column(column_text)
        if col is None:
            raise LinkingResolutionError(
                f"column {column_text!r} not in table {table.name!r}"
            )
        columns.add((table.name, col.name))

    def expand_table(table_name: str) -> None:
        table = catalog.table(table_name)
        assert table is not None
        for col in table.columns:
            columns.add((table.name, col.name))

    i = 0
    n = len(tokens)
    prev: _Token | None = None
    while i < n:
        tok = tokens[i]
        nxt = tokens[i + 1] if i + 1 < n else None
        # output alias definitions: AS name (FROM-item aliases were already
        # captured and resolve through the alias map anyway)
        if tok.is_keyword() and tok.norm == "as" and nxt is not None and _is_plain_ident(nxt):
            ignored.add(nxt.norm)
            prev = nxt
            i += 2
            continue
        # collation names are not columns
        if tok.is_keyword() and tok.norm == "collate" and nxt is not None:
            prev = nxt
            i += 2
            continue
        # USING (a, b): the named columns belong to every table that has them
        if tok.is_keyword() and tok.norm == "using" and nxt is not None and nxt.text == "(":
            j = i + 2
            while j < n and not (tokens[j].kind == "punct" and tokens[j].text == ")"):
                if _is_plain_ident(tokens[j]):
                    for canonical in refs.values():
                        table = catalog.table(canonical)
                        if table is not None and table.column(tokens[j].text) is not None:
                            columns.add((canonical, table.column(tokens[j].text).name))
                j += 1
            prev = tokens[j] if j < n else tok
            i = j + 1
            continue
        if tok.kind == "punct" and tok.text == "*":
            before = prev
            if before is None or (
                before.is_keyword() and before.norm in ("select", "distinct", "all")
            ) or (before.kind == "punct" and before.text == ","):
                for canonical in refs.values():
                    expand_table(canonical)
            prev = tok
            i += 1
            continue
        if _is_plain_ident(tok) or (tok.kind == "ident" and tok.quoted):
            # qualified reference: name.name or name.*
            if nxt is not None and nxt.kind == "punct" and nxt.text == ".":
                tail = tokens[i + 2] if i + 2 < n else None
                qualifier = tok.norm
                if tail is not None and tail.kind == "punct" and tail.text == "*":
                    if qualifier in aliases:
                        expand_table(aliases[qualifier])
                    elif qualifier not in opaque:
                        raise LinkingResolutionError(
                            f"unknown qualifier {tok.text!r} in reference SQL"
                        )
                    prev = tail
                    i += 3
                    continue
                if tail is not None and tail.kind == "ident":
                    if qualifier in aliases:
                        add_column(aliases[qualifier], tail.text)
                    elif qualifier not in opaque:
                        raise LinkingResolutionError(
                            f"unknown qualifier {tok.text!r} in reference SQL"
                        )
                    prev = tail
                    i += 3
                    continue
            if tok.is_keyword():
                prev = tok
                i += 1
                continue
            # bare identifier: skip function names, aliases, table mentions,
            # output aliases, and implicit rowid spellings
            if nxt is not None and nxt.kind == "punct" and nxt.text == "(" and not tok.quoted:
                prev = tok
                i += 1
                continue
            norm = tok.norm
            if norm in ignored or norm in opaque or norm in aliases or norm in refs:
                prev = tok
                i += 1
                continue
            if norm in _IMPLICIT_COLUMNS:
                prev = tok
                i += 1
                continue
            owners = [
                canonical
                for canonical in refs.values()
                if catalog.table(canonical) is not None
                and catalog.table(canonical).column(tok.text) is not None
            ]
            if len(owners) == 1:
                add_column(owners[0], tok.text)
            elif len(owners) > 1:
                raise LinkingResolutionError(
                    f"ambiguous column {tok.text!r}: owned by {sorted(owners)}"
                )
            else:
                raise LinkingResolutionError(
                    f"cannot resolve identifier {tok.text!r} in reference SQL"
                )
            prev = tok
            i += 1
            continue
        prev = tok
        i += 1

    tables = frozenset(refs.values())
    return GoldLinking(tables=tables, columns=frozenset(columns))
