"""Schema catalog: SQLite introspection and linking-based schema filtering.

The catalog is the single in-memory description of a database that every
other stage consumes.  It is deliberately plain: frozen dataclasses holding
names, declared types, keys, and small value samples.  Renderers turn a
catalog into prompt text; the filter shrinks a catalog to the part a
linking prediction considers relevant.
"""
from __future__ import annotations

import logging
import sqlite3
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

log = logging.getLogger(__name__)


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


@dataclass(frozen=True)
class ColumnDef:
    """One column: declared type, constraints, and display metadata.

    value_examples are up to k distinct non-null values rendered as text,
    in first-seen row order.  category_values is the complete distinct
    value list for low-cardinality text columns (None when the column is
    not categorical); some renderers show the full category list where
    others show the capped sample.
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

    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> ColumnDef | None:
        """Case-insensitive column lookup; None when absent."""
        low = name.lower()
        for c in self.columns:
            if c.name.lower() == low:
                return c
        return None


@dataclass(frozen=True)
class ForeignKeyDef:
    """A single-column foreign key edge between two tables."""

    from_table: str
    from_column: str
    to_table: str
    to_column: str


@dataclass(frozen=True)
class SchemaCatalog:
    """A whole database schema: tables in introspection order plus FK edges."""

    db_id: str
    tables: tuple[TableDef, ...]
    foreign_keys: tuple[ForeignKeyDef, ...] = ()

    def table(self, name: str) -> TableDef | None:
        """Case-insensitive table lookup; None when absent."""
        low = name.lower()
        for t in self.tables:
            if t.name.lower() == low:
                return t
        return None

    def table_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tables)

    def validate(self) -> None:
        """Check structural invariants, raising CatalogError on violation.

        Enforced: table names unique (case-insensitive), column names unique
        within a table, primary key columns exist, FK endpoints exist, and
        value examples are distinct.  Catalogs built by introspect() always
        pass; hand-built catalogs may legitimately skip validation when they
        mirror quirky upstream schemas (e.g. a declared key on a column the
        catalog does not carry).
        """
        seen_tables: set[str] = set()
        for t in self.tables:
            tl = t.name.lower()
            if tl in seen_tables:
                raise CatalogError(self.db_id, f"duplicate table name {t.name!r}")
            seen_tables.add(tl)
            seen_cols: set[str] = set()
            for c in t.columns:
                cl = c.name.lower()
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
                if pk.lower() not in seen_cols:
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
    first-seen row order.  Text columns whose full distinct value count is
    at most category_threshold also carry the complete category list.

    descriptions optionally maps table -> column -> human description
    (matched case-insensitively), for corpora that ship column glossaries.

    Raises UnreadableDatabaseError, MalformedDatabaseError, or
    IntrospectionError, each naming the db_id.
    """
    path = Path(db_path)
    db_id = path.stem
    if not path.is_file():
        raise UnreadableDatabaseError(db_id, f"unreadable database file: {path}")
    try:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    except sqlite3.Error as exc:
        raise UnreadableDatabaseError(db_id, f"cannot open {path}: {exc}") from exc
    conn.text_factory = lambda raw: raw.decode("utf-8", "replace")
    try:
        try:
            master = conn.execute(
                "SELECT name FROM sqlite_master"
                " WHERE type = 'table' AND name NOT LIKE 'sqlite\\_%' ESCAPE '\\'"
                " ORDER BY rowid"
            ).fetchall()
        except sqlite3.DatabaseError as exc:
            raise MalformedDatabaseError(db_id, f"not a database: {exc}") from exc
        desc_map = _lower_descriptions(descriptions)
        tables: list[TableDef] = []
        fks: list[ForeignKeyDef] = []
        for (table_name,) in master:
            try:
                info = conn.execute(
                    f"PRAGMA table_info({_quote_ident(table_name)})"
                ).fetchall()
                fk_rows = conn.execute(
                    f"PRAGMA foreign_key_list({_quote_ident(table_name)})"
                ).fetchall()
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
            table_descs = desc_map.get(table_name.lower(), {})
            for cid, name, sql_type, notnull, default, pk_pos in info:
                if pk_pos:
                    pk_cols.append((pk_pos, name))
                columns.append(
                    ColumnDef(
                        name=name,
                        sql_type=sql_type or "TEXT",
                        nullable=not notnull,
                        default=None if default is None else str(default),
                        description=table_descs.get(name.lower()),
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
        resolved = _resolve_implicit_fk_targets(db_id, tables, fks)
        catalog = SchemaCatalog(db_id=db_id, tables=tuple(tables), foreign_keys=resolved)
        catalog.validate()
        return catalog
    finally:
        conn.close()


def _lower_descriptions(
    descriptions: Mapping[str, Mapping[str, str]] | None,
) -> dict[str, dict[str, str]]:
    if not descriptions:
        return {}
    return {
        t.lower(): {c.lower(): d for c, d in cols.items()}
        for t, cols in descriptions.items()
    }


def _resolve_implicit_fk_targets(
    db_id: str, tables: Sequence[TableDef], fks: Iterable[ForeignKeyDef]
) -> tuple[ForeignKeyDef, ...]:
    by_name = {t.name.lower(): t for t in tables}
    out = []
    for fk in fks:
        if fk.to_column:
            out.append(fk)
            continue
        target = by_name.get(fk.to_table.lower())
        if target is None or len(target.primary_key) != 1:
            log.warning(
                "%s: dropping unresolvable foreign key %s.%s -> %s",
                db_id, fk.from_table, fk.from_column, fk.to_table,
            )
            continue
        out.append(replace(fk, to_column=target.primary_key[0]))
    return tuple(out)


def _sample_table(
    conn: sqlite3.Connection,
    table_name: str,
    column_names: Sequence[str],
    column_types: Sequence[str],
    sample_k: int,
    category_threshold: int,
) -> tuple[list[list[str]], list[tuple[str, ...] | None]]:
    """One pass over the table collecting per-column samples and categories.

    Returns (samples, categories) indexed by column position.  categories[i]
    is None for non-text columns and for text columns whose distinct count
    exceeds the threshold.
    """
    n = len(column_names)
    samples: list[list[str]] = [[] for _ in range(n)]
    seen: list[set[str]] = [set() for _ in range(n)]
    cats: list[list[str] | None] = [
        [] if _is_text_type(t or "") else None for t in column_types
    ]
    cat_seen: list[set[str]] = [set() for _ in range(n)]
    if n == 0:
        return samples, [None] * n
    select = ", ".join(_quote_ident(c) for c in column_names)
    cursor = conn.execute(f"SELECT {select} FROM {_quote_ident(table_name)}")
    for row in cursor:
        for i, value in enumerate(row):
            if value is None:
                continue
            rendered = _render_value(value)
            if rendered is None:
                continue
            if len(samples[i]) < sample_k and rendered not in seen[i]:
                samples[i].append(rendered)
                seen[i].add(rendered)
            bucket = cats[i]
            if bucket is not None and rendered not in cat_seen[i]:
                bucket.append(rendered)
                cat_seen[i].add(rendered)
                if len(bucket) > category_threshold:
                    cats[i] = None
        # category lists need a full scan while any survive; without them the
        # pass can stop as soon as every sample bucket is full
        if all(c is None for c in cats) and all(
            len(s) >= sample_k for s in samples
        ):
            break
    return samples, [None if c is None else tuple(c) for c in cats]


def apply_filter(
    catalog: SchemaCatalog,
    prediction: object,
    level: FilterLevel,
) -> SchemaCatalog:
    """Shrink a catalog to the tables/columns named by a linking prediction.

    prediction is a mapping of table name -> list of column names, or any
    object with a .selection attribute holding one.  Matching is
    case-insensitive; predicted names absent from the catalog are dropped
    with a warning.

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
    kept_names = {t.name for t in kept_tables}
    kept_fks = tuple(
        fk for fk in catalog.foreign_keys
        if fk.from_table in kept_names and fk.to_table in kept_names
    )

    if level is FilterLevel.TABLE_ONLY:
        return SchemaCatalog(catalog.db_id, tuple(kept_tables), kept_fks)

    forced: dict[str, set[str]] = {name: set() for name in kept_names}
    for fk in kept_fks:
        forced[fk.from_table].add(fk.from_column.lower())
        forced[fk.to_table].add(fk.to_column.lower())
    filtered_tables = []
    for t in kept_tables:
        chosen = {c.lower() for c in wanted[t.name]} | forced[t.name]
        columns = tuple(c for c in t.columns if c.name.lower() in chosen)
        col_names = {c.name.lower() for c in columns}
        pk = tuple(p for p in t.primary_key if p.lower() in col_names)
        filtered_tables.append(TableDef(t.name, columns, pk))
    return SchemaCatalog(catalog.db_id, tuple(filtered_tables), kept_fks)
