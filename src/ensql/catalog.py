"""Schema catalog: SQLite introspection and linking-based schema filtering.

The catalog is the single in-memory description of a database that every
other stage consumes.  It is deliberately plain: frozen dataclasses holding
names, declared types, keys, and small value samples.  Renderers turn a
catalog into prompt text; the filter shrinks a catalog to the part a
linking prediction considers relevant.
"""
from __future__ import annotations

import functools
import itertools
import logging
import sqlite3
import string
from contextlib import closing
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

log = logging.getLogger(__name__)

_T = TypeVar("_T")


class CatalogError(Exception):
    """Base error for catalog construction problems; carries the db_id."""

    def __init__(self, db_id: str, message: str):
        self.db_id = db_id
        super().__init__(f"{db_id}: {message}")


class UnreadableDatabaseError(CatalogError):
    """The database file is missing or cannot be opened."""


class MalformedDatabaseError(CatalogError):
    """The file opened but is not a usable SQLite database."""


class IntrospectionError(CatalogError):
    """A metadata or sampling query failed part-way through."""


class FilterLevel(Enum):
    """How aggressively a linking prediction prunes the catalog."""

    NO_FILTERING = "no_filtering"
    TABLE_ONLY = "table_only"
    FULL_FILTERING = "full_filtering"

    @classmethod
    def parse(cls, name: str) -> "FilterLevel":
        """Parse a config spelling of a filter level.

        Accepts the canonical values plus common shorthands, case and
        punctuation insensitive ("none", "table", "col filtering").  A bare
        "full" is refused, since it could mean full filtering or the full,
        unfiltered schema.
        """
        key = _squash(name)
        level = _FILTER_ALIASES.get(key)
        if level is None:
            raise ValueError(f"unknown filter level: {name!r}")
        return level


_ASCII_FOLD = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def fold_name(name: str) -> str:
    """A SQL name as SQLite compares it: A-Z lowered, every other character kept.

    SQLite folds only ASCII letters, so "k" and the Kelvin sign "\u212a", or
    "i" and the dotless "\u0131", are different names that a Unicode
    str.lower would confuse.
    """
    # on an ASCII name str.lower folds exactly A-Z, at a tenth of the cost
    return name.lower() if name.isascii() else name.translate(_ASCII_FOLD)


def _squash(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


_FILTER_ALIASES = {
    "nofiltering": FilterLevel.NO_FILTERING,
    "none": FilterLevel.NO_FILTERING,
    "no": FilterLevel.NO_FILTERING,
    "tableonly": FilterLevel.TABLE_ONLY,
    "table": FilterLevel.TABLE_ONLY,
    "tablefiltering": FilterLevel.TABLE_ONLY,
    "fullfiltering": FilterLevel.FULL_FILTERING,
    "colfiltering": FilterLevel.FULL_FILTERING,
    "columnfiltering": FilterLevel.FULL_FILTERING,
    "column": FilterLevel.FULL_FILTERING,
}


@dataclass(frozen=True, slots=True)
class ColumnDef:
    """One column: declared type, constraints, and display metadata.

    value_examples are up to k distinct non-null values rendered as text,
    in first-seen order: the order of a scan of the table itself (rowid
    order, or primary-key order for a WITHOUT ROWID table), never of an
    index.  Values compare by binary collation whatever the column's
    declared collation, then by rendered text, so 'A' and 'a' are two
    values and '1', 1 and 1.0 are one.  category_values is the complete
    distinct value list for low-cardinality text columns (None when the
    column is not categorical); some renderers show the full category list
    where others show the capped sample.
    """

    name: str
    sql_type: str
    nullable: bool = True
    default: str | None = None
    description: str | None = None
    value_examples: tuple[str, ...] = ()
    category_values: tuple[str, ...] | None = None


@dataclass(frozen=True)
class TableDef:
    """One table: columns in schema order plus the declared primary key."""

    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: tuple[str, ...] = ()

    def column(self, name: str) -> ColumnDef | None:
        """Column lookup by SQLite's name rule (see fold_name); None when absent."""
        return self._by_name.get(fold_name(name))

    @functools.cached_property
    def _by_name(self) -> dict[str, ColumnDef]:
        # reversed, so that of names that fold alike the first wins
        return {fold_name(c.name): c for c in reversed(self.columns)}


@dataclass(frozen=True, slots=True)
class ForeignKeyDef:
    """A single-column foreign key edge between two tables."""

    from_table: str
    from_column: str
    to_table: str
    to_column: str


@dataclass(frozen=True)
class SchemaCatalog:
    """A whole database schema: tables in introspection order plus FK edges.

    rendered holds this catalog's schema texts by format, filled by
    formats.render, so each text is rendered once and lives exactly as long
    as the catalog.  It is no constructor argument, so a catalog made by
    dataclasses.replace starts empty, and it takes no part in equality.
    """

    db_id: str
    tables: tuple[TableDef, ...]
    foreign_keys: tuple[ForeignKeyDef, ...] = ()
    rendered: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def table(self, name: str) -> TableDef | None:
        """Table lookup by SQLite's name rule (see fold_name); None when absent."""
        return self._by_name.get(fold_name(name))

    @functools.cached_property
    def _by_name(self) -> dict[str, TableDef]:
        # reversed, so that of names that fold alike the first wins
        return {fold_name(t.name): t for t in reversed(self.tables)}

    def validate(self) -> None:
        """Check structural invariants, raising CatalogError on violation.

        Enforced: table names unique, and column names unique within a
        table, by SQLite's name rule (see fold_name); primary key columns
        exist, FK endpoints exist, and value examples are distinct.  Catalogs
        built by introspect() always pass; hand-built catalogs may
        legitimately skip validation when they mirror quirky upstream
        schemas (e.g. a declared key on a column the catalog does not
        carry).
        """
        seen_tables: set[str] = set()
        for t in self.tables:
            tl = fold_name(t.name)
            if tl in seen_tables:
                raise CatalogError(self.db_id, f"duplicate table name {t.name!r}")
            seen_tables.add(tl)
            seen_cols: set[str] = set()
            for c in t.columns:
                cl = fold_name(c.name)
                if cl in seen_cols:
                    raise CatalogError(
                        self.db_id, f"duplicate column {t.name}.{c.name}"
                    )
                seen_cols.add(cl)
                if len(set(c.value_examples)) != len(c.value_examples):
                    raise CatalogError(
                        self.db_id, f"repeated value examples on {t.name}.{c.name}"
                    )
            for pk in t.primary_key:
                if fold_name(pk) not in seen_cols:
                    raise CatalogError(
                        self.db_id, f"primary key {t.name}.{pk} is not a column"
                    )
        for fk in self.foreign_keys:
            src = self.table(fk.from_table)
            dst = self.table(fk.to_table)
            if src is None or dst is None:
                raise CatalogError(
                    self.db_id,
                    f"foreign key references missing table: "
                    f"{fk.from_table} -> {fk.to_table}",
                )
            if src.column(fk.from_column) is None or dst.column(fk.to_column) is None:
                raise CatalogError(
                    self.db_id,
                    f"foreign key references missing column: "
                    f"{fk.from_table}.{fk.from_column} -> {fk.to_table}.{fk.to_column}",
                )


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _is_text_type(sql_type: str) -> bool:
    upper = sql_type.upper()
    return any(tok in upper for tok in ("CHAR", "CLOB", "TEXT"))


def connect_read_only(db_path: str | Path, **options) -> sqlite3.Connection:
    """Open a SQLite file read-only, through a percent-encoded file: URI.

    Built from the path rather than pasted into a URI, so a '#', '?' or '%'
    in a directory name stays part of the path: pasted, '#' and '?' end the
    path and drop mode=ro, so SQLite opens (or creates) another file
    read-write.  options go to sqlite3.connect.
    """
    return sqlite3.connect(
        Path(db_path).resolve().as_uri() + "?mode=ro", uri=True, **options
    )


# how sqlite3's strict decoder reports invalid UTF-8 (Python 3.10-3.13)
_DECODE_ERROR = "Could not decode to UTF-8"


def _decode_replacing(raw: bytes) -> str:
    return raw.decode("utf-8", "replace")


def _read_decoded(conn: sqlite3.Connection, read: Callable[[], _T]) -> _T:
    """read() under sqlite3's strict UTF-8 decoder, or, when it meets
    invalid UTF-8, read() again with the invalid bytes replaced by U+FFFD.

    The strict decoder is sqlite3's built-in C code, so valid text costs no
    Python call per cell; only a read that holds invalid UTF-8 pays for a
    second pass.
    """
    try:
        return read()
    except sqlite3.OperationalError as exc:
        if not str(exc).startswith(_DECODE_ERROR):
            raise
    conn.text_factory = _decode_replacing
    try:
        return read()
    finally:
        conn.text_factory = str


def _render_value(value: object) -> str | None:
    """Render a sampled cell for display; None means unrenderable (blobs)."""
    if isinstance(value, bytes):
        return None
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def introspect(
    db_path: str | Path,
    sample_k: int = 3,
    *,
    category_threshold: int = 20,
    descriptions: Mapping[str, Mapping[str, str]] | None = None,
) -> SchemaCatalog:
    """Build a SchemaCatalog from a SQLite file.

    db_id is the file stem.  Tables come back in sqlite_master order with
    internal sqlite_* tables skipped; columns in table_info order.  Each
    column carries up to sample_k distinct non-null example values in
    first-seen order, which is table-scan order (rowid order, or
    primary-key order for a WITHOUT ROWID table), never an index's.  Values
    compare by binary collation, whatever collation the column declares,
    and then by rendered text (see ColumnDef).  Text columns whose full
    distinct value count is at most category_threshold also carry the
    complete category list.  Each table is sampled by one read of its first
    rows across all columns, and only a column that those rows leave short
    has SQLite find its remaining distinct values (see _sample_table);
    reading stops once the samples (and, for text, the category list) are
    settled.  Invalid UTF-8 is shown with U+FFFD in its place.

    descriptions optionally maps table -> column -> human description
    (matched by SQLite's name rule, see fold_name), for corpora that ship
    column glossaries.

    Raises UnreadableDatabaseError, MalformedDatabaseError, or
    IntrospectionError, each naming the db_id.
    """
    path = Path(db_path)
    db_id = path.stem
    if not path.is_file():
        raise UnreadableDatabaseError(db_id, f"unreadable database file: {path}")
    try:
        conn = connect_read_only(path)
    except sqlite3.Error as exc:
        raise UnreadableDatabaseError(db_id, f"cannot open {path}: {exc}") from exc
    try:
        try:
            master = _read_decoded(conn, lambda: conn.execute(
                "SELECT name FROM sqlite_master"
                " WHERE type = 'table' AND name NOT LIKE 'sqlite\\_%' ESCAPE '\\'"
                " ORDER BY rowid"
            ).fetchall())
        except sqlite3.DatabaseError as exc:
            raise MalformedDatabaseError(db_id, f"not a database: {exc}") from exc
        desc_map = _fold_descriptions(descriptions)
        tables: list[TableDef] = []
        fks: list[ForeignKeyDef] = []
        for (table_name,) in master:
            quoted = _quote_ident(table_name)
            try:
                info, fk_rows = _read_decoded(conn, lambda: (
                    conn.execute(f"PRAGMA table_info({quoted})").fetchall(),
                    conn.execute(f"PRAGMA foreign_key_list({quoted})").fetchall(),
                ))
                samples, categories = _sample_table(
                    conn, table_name, [r[1] for r in info], [r[2] for r in info],
                    sample_k, category_threshold,
                )
            except sqlite3.Error as exc:
                raise IntrospectionError(
                    db_id, f"introspection failed on table {table_name}: {exc}"
                ) from exc
            columns = []
            pk_cols: list[tuple[int, str]] = []
            table_descs = desc_map.get(fold_name(table_name), {})
            for cid, name, sql_type, notnull, default, pk_pos in info:
                if pk_pos:
                    pk_cols.append((pk_pos, name))
                columns.append(
                    ColumnDef(
                        name=name,
                        sql_type=sql_type or "TEXT",
                        nullable=not notnull,
                        default=None if default is None else str(default),
                        description=table_descs.get(fold_name(name)),
                        value_examples=tuple(samples[cid]),
                        category_values=categories[cid],
                    )
                )
            tables.append(
                TableDef(
                    name=table_name,
                    columns=tuple(columns),
                    primary_key=tuple(name for _, name in sorted(pk_cols)),
                )
            )
            # foreign_key_list rows: (id, seq, table, from, to, ...); composite
            # keys (seq > 0) are kept as one edge per column pair.  The pragma
            # lists the most recently declared key first, so restore
            # declaration order by descending id.
            for row in sorted(fk_rows, key=lambda r: (-r[0], r[1])):
                to_col = row[4]
                if to_col is None:
                    # implicit reference to the target's primary key; resolved
                    # after all tables are known
                    fks.append(ForeignKeyDef(table_name, row[3], row[2], ""))
                else:
                    fks.append(ForeignKeyDef(table_name, row[3], row[2], to_col))
        resolved = _resolve_fk_targets(db_id, tables, fks)
        catalog = SchemaCatalog(db_id=db_id, tables=tuple(tables), foreign_keys=resolved)
        catalog.validate()
        return catalog
    finally:
        conn.close()


def _fold_descriptions(
    descriptions: Mapping[str, Mapping[str, str]] | None,
) -> dict[str, dict[str, str]]:
    if not descriptions:
        return {}
    return {
        fold_name(t): {fold_name(c): d for c, d in cols.items()}
        for t, cols in descriptions.items()
    }


def _resolve_fk_targets(
    db_id: str, tables: Sequence[TableDef], fks: Iterable[ForeignKeyDef]
) -> tuple[ForeignKeyDef, ...]:
    """The foreign keys whose parent column exists, implicit targets filled in.

    SQLite accepts a key whose parent table or column is missing, and an
    implicit target resolves only to a one-column primary key; every other
    key is dropped with a warning.  A kept key names its parent table and
    column as the catalog spells them, not as its REFERENCES clause does.
    """
    by_name = {fold_name(t.name): t for t in tables}
    out = []
    for fk in fks:
        target = by_name.get(fold_name(fk.to_table))
        if target is not None and not fk.to_column and len(target.primary_key) == 1:
            fk = replace(fk, to_column=target.primary_key[0])
        column = target.column(fk.to_column) if target is not None and fk.to_column else None
        if column is None:
            log.warning(
                "%s: dropping unresolvable foreign key %s.%s -> %s",
                db_id, fk.from_table, fk.from_column,
                f"{fk.to_table}.{fk.to_column}" if fk.to_column else fk.to_table,
            )
            continue
        out.append(replace(fk, to_table=target.name, to_column=column.name))
    return tuple(out)


def _scan_order(conn: sqlite3.Connection, table_name: str) -> str:
    """The FROM-clause suffix that makes SQLite read a table in its own order.

    NOT INDEXED keeps a rowid table in rowid order.  A WITHOUT ROWID table
    ignores NOT INDEXED and may be read through a covering index, so it is
    pinned to its primary-key index, which is the table itself: the one
    'pk' index whose columns include no rowid.
    """
    quoted = _quote_ident(table_name)
    for _, index, _, origin, *_ in conn.execute(f"PRAGMA index_list({quoted})").fetchall():
        if origin != "pk":
            continue
        xinfo = conn.execute(f"PRAGMA index_xinfo({_quote_ident(index)})").fetchall()
        if all(cid != -1 for _, cid, *_ in xinfo):
            return f"INDEXED BY {_quote_ident(index)}"
    return "NOT INDEXED"


# rows of a table read across all its columns in one statement: a table
# this short is sampled by that statement alone instead of by one SELECT
# DISTINCT per column.  In a longer table each column still short of its
# count falls back to its own SELECT DISTINCT.  A cell costs Python about a
# hundredth of what a statement costs, so this head adds at most about one
# statement's cost per column to a table it leaves unsettled; a head of
# 1,024 rows made a 3,000-row table twice as slow to sample.
_HEAD_ROWS = 128


def _first_rendered(conn: sqlite3.Connection, sql: str, wanted: int) -> list[str]:
    """The first `wanted` (at least one) distinct renderings of sql's values,
    blobs skipped."""
    rendered: dict[str, None] = {}
    with closing(conn.execute(sql)) as cursor:
        for (value,) in cursor:
            text = _render_value(value)
            if text is not None:
                rendered[text] = None
                if len(rendered) == wanted:
                    break
    return list(rendered)


def _read_head(
    conn: sqlite3.Connection, source: str, column_names: Sequence[str], wanted: Sequence[int]
) -> tuple[list[list[str]], bool]:
    """Each column's first distinct renderings, up to wanted[i] of them, in
    the first _HEAD_ROWS rows of source; and whether that settles them all.

    Rows are read one at a time and blobs are never kept, so memory holds
    one row plus the values found.  Values are grouped by Python equality,
    which on SQLite's values is DISTINCT's by binary collation (1 == 1.0,
    '1' != 1), and then merged by rendering.  Every column is settled when
    each has its wanted count or the rows read are the whole table.
    """
    found: list[dict[str, None]] = [{} for _ in column_names]
    selected = [i for i, want in enumerate(wanted) if want > 0]
    if not selected:
        return [[] for _ in column_names], True
    select = ", ".join(_quote_ident(column_names[i]) for i in selected)
    # each column still reading: its position in the row, the values it has
    # met (NULL counts as met), its renderings, and how many it wants
    reading = [(at, {None}, found[i], wanted[i]) for at, i in enumerate(selected)]
    with closing(conn.execute(f"SELECT {select} FROM {source}")) as cursor:
        for row in itertools.islice(cursor, _HEAD_ROWS):
            filled = False
            for at, seen, rendered, want in reading:
                value = row[at]
                # blobs render as nothing, and are never kept
                if isinstance(value, bytes) or value in seen:
                    continue
                seen.add(value)
                rendered[_render_value(value)] = None
                if len(rendered) == want:
                    filled = True
            if filled:
                reading = [column for column in reading if len(column[2]) < column[3]]
                if not reading:
                    break
        settled = not reading or cursor.fetchone() is None
    return [list(rendered) for rendered in found], settled


def _sample_table(
    conn: sqlite3.Connection,
    table_name: str,
    column_names: Sequence[str],
    column_types: Sequence[str],
    sample_k: int,
    category_threshold: int,
) -> tuple[list[list[str]], list[tuple[str, ...] | None]]:
    """Per-column samples and categories, from one read of the table's head.

    Returns (samples, categories) indexed by column position.  categories[i]
    is None for non-text columns and for text columns whose distinct count
    exceeds the threshold.  A column wants sample_k distinct renderings, or
    for a text column enough to tell whether it is a category, taken from
    its non-null values in table-scan order; values that render alike ('1',
    1 and 1.0) are one.  One statement reads the first _HEAD_ROWS rows of
    every column (see _read_head).  When the table goes on past them, each
    column still short of its count has SQLite yield its distinct values
    lazily, by binary collation and in table-scan order, until it is full.
    """
    scan_order = _read_decoded(conn, lambda: _scan_order(conn, table_name))
    source = f"{_quote_ident(table_name)} {scan_order}"
    is_text = [_is_text_type(sql_type or "") for sql_type in column_types]
    wanted = [
        max(sample_k, category_threshold + 1) if text else sample_k for text in is_text
    ]
    found, settled = _read_decoded(
        conn, lambda: _read_head(conn, source, column_names, wanted)
    )
    samples: list[list[str]] = []
    categories: list[tuple[str, ...] | None] = []
    for name, text, want, values in zip(column_names, is_text, wanted, found):
        if not settled and len(values) < want:
            column = _quote_ident(name)
            sql = (
                f"SELECT DISTINCT {column} COLLATE BINARY FROM {source}"
                f" WHERE {column} IS NOT NULL"
            )
            values = _read_decoded(conn, lambda: _first_rendered(conn, sql, want))
        samples.append(values[:sample_k])
        is_category = text and len(values) <= category_threshold
        categories.append(tuple(values) if is_category else None)
    return samples, categories


def apply_filter(
    catalog: SchemaCatalog,
    prediction: object,
    level: FilterLevel,
) -> SchemaCatalog:
    """Shrink a catalog to the tables/columns named by a linking prediction.

    prediction is a mapping of table name -> list of column names, or any
    object with a .selection attribute holding one.  Names match by SQLite's
    rule (see fold_name); predicted names absent from the catalog are
    dropped with a warning.

    NO_FILTERING returns the catalog unchanged.  TABLE_ONLY keeps the
    predicted tables with all their columns.  FULL_FILTERING keeps only the
    predicted columns of predicted tables, plus both endpoint columns of any
    foreign key whose tables both survive, so retained edges stay
    well-formed.  Table and column order always follows the catalog, and
    primary key lists are pruned to surviving columns.
    """
    if level is FilterLevel.NO_FILTERING:
        return catalog
    selection = getattr(prediction, "selection", prediction)
    if not isinstance(selection, Mapping):
        raise TypeError(f"prediction must be a mapping, got {type(selection).__name__}")

    wanted: dict[str, list[str]] = {}
    for pred_table, pred_cols in selection.items():
        table = catalog.table(str(pred_table))
        if table is None:
            log.warning("%s: dropping unknown predicted table %r", catalog.db_id, pred_table)
            continue
        kept_cols = []
        for pred_col in pred_cols:
            col = table.column(str(pred_col))
            if col is None:
                log.warning(
                    "%s: dropping unknown predicted column %s.%s",
                    catalog.db_id, pred_table, pred_col,
                )
                continue
            kept_cols.append(col.name)
        prev = wanted.setdefault(table.name, [])
        prev.extend(c for c in kept_cols if c not in prev)
    if not wanted:
        log.warning("%s: prediction matched nothing; filtered catalog is empty", catalog.db_id)

    kept_tables = [t for t in catalog.tables if t.name in wanted]
    # every column each kept table must keep, by folded table and column name
    chosen = {fold_name(t.name): {fold_name(c) for c in wanted[t.name]} for t in kept_tables}
    kept_fks = tuple(
        fk for fk in catalog.foreign_keys
        if fold_name(fk.from_table) in chosen and fold_name(fk.to_table) in chosen
    )

    if level is FilterLevel.TABLE_ONLY:
        return SchemaCatalog(catalog.db_id, tuple(kept_tables), kept_fks)

    for fk in kept_fks:
        chosen[fold_name(fk.from_table)].add(fold_name(fk.from_column))
        chosen[fold_name(fk.to_table)].add(fold_name(fk.to_column))
    filtered_tables = []
    for t in kept_tables:
        keep = chosen[fold_name(t.name)]
        columns = tuple(c for c in t.columns if fold_name(c.name) in keep)
        col_names = {fold_name(c.name) for c in columns}
        pk = tuple(p for p in t.primary_key if fold_name(p) in col_names)
        filtered_tables.append(TableDef(t.name, columns, pk))
    return SchemaCatalog(catalog.db_id, tuple(filtered_tables), kept_fks)
