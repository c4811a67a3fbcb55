"""Render a schema catalog into textual representations for prompting.

Six formats are supported, each a different trade-off between verbosity,
metadata surfaced, and familiarity to a code-trained model:

* compact_tagged: bracket-tagged listing with types, key markers, and value
  examples ("[DB_ID] ... [Schema] ... [Foreign keys]")
* commented_tuples: per-table tuple lists carrying column descriptions and
  full category value lists, no types or keys
* ddl: CREATE TABLE statements reduced to columns and key clauses
* inline_tables: one "table '...' with columns: ..." line per table plus a
  Relations section
* json_raw: a machine-readable JSON document (the only round-trippable one)
* sqlalchemy: Python Table() declarations as produced by code generators

Rendering is deterministic, and each text is rendered once per catalog and
format: render memoises it on the catalog.  Output is canonicalized: every
line right-stripped and the document ends with exactly one newline.
Identifier text is emitted verbatim in the prompt-oriented formats; the two
formats that embed names inside string literals (inline_tables, sqlalchemy)
escape single quotes with a backslash, and json_raw relies on JSON escaping.
"""
from __future__ import annotations

import json
import logging
from enum import Enum

from .catalog import ColumnDef, ForeignKeyDef, SchemaCatalog, TableDef

log = logging.getLogger(__name__)


class RepresentationFormat(Enum):
    """The schema text formats a candidate generator can be fed."""

    COMPACT_TAGGED = "compact_tagged"
    COMMENTED_TUPLES = "commented_tuples"
    DDL = "ddl"
    INLINE_TABLES = "inline_tables"
    JSON_RAW = "json_raw"
    SQLALCHEMY = "sqlalchemy"

    @classmethod
    def parse(cls, name: str) -> "RepresentationFormat":
        """Parse a config spelling, case and punctuation insensitive."""
        key = "".join(ch for ch in name.lower() if ch.isalnum())
        fmt = _FORMAT_ALIASES.get(key)
        if fmt is None:
            raise ValueError(f"unknown representation format: {name!r}")
        return fmt


_FORMAT_ALIASES = {
    "compacttagged": RepresentationFormat.COMPACT_TAGGED,
    "mschema": RepresentationFormat.COMPACT_TAGGED,
    "commentedtuples": RepresentationFormat.COMMENTED_TUPLES,
    "macschema": RepresentationFormat.COMMENTED_TUPLES,
    "mac": RepresentationFormat.COMMENTED_TUPLES,
    "ddl": RepresentationFormat.DDL,
    "createtable": RepresentationFormat.DDL,
    "inlinetables": RepresentationFormat.INLINE_TABLES,
    "dinsql": RepresentationFormat.INLINE_TABLES,
    "jsonraw": RepresentationFormat.JSON_RAW,
    "json": RepresentationFormat.JSON_RAW,
    "sqlalchemy": RepresentationFormat.SQLALCHEMY,
    "alchemy": RepresentationFormat.SQLALCHEMY,
}


def canonicalize(text: str) -> str:
    """Right-strip every line and end the document with one newline."""
    body = "\n".join(line.rstrip() for line in text.split("\n"))
    return body.rstrip("\n") + "\n"


def render(catalog: SchemaCatalog, fmt: RepresentationFormat) -> str:
    """Render a catalog in the given format; deterministic.

    The text is memoised on the catalog (SchemaCatalog.rendered), so a
    catalog is rendered at most once per format and a renderer's warnings
    fire once per catalog.  Two threads racing on a first render both
    compute it and get the same stored text.
    """
    text = catalog.rendered.get(fmt)
    if text is None:
        text = catalog.rendered.setdefault(fmt, canonicalize(_RENDERERS[fmt](catalog)))
    return text


def render_all(catalog: SchemaCatalog) -> dict[RepresentationFormat, str]:
    """Render every format once; keys iterate in declaration order."""
    return {fmt: render(catalog, fmt) for fmt in RepresentationFormat}


# -- compact_tagged -----------------------------------------------------------


def _render_compact_tagged(catalog: SchemaCatalog) -> str:
    lines = [f"[DB_ID]  {catalog.db_id}", "[Schema]"]
    for table in catalog.tables:
        lines.append(f"# Table: {table.name}")
        lines.append("[")
        entries = [_compact_column(c, table) for c in table.columns]
        for i, entry in enumerate(entries):
            comma = "," if i < len(entries) - 1 else ""
            lines.append(f"{entry}{comma}")
        lines.append("]")
    lines.append("[Foreign keys]")
    for fk in catalog.foreign_keys:
        lines.append(
            f"{fk.from_table}.{fk.from_column}={fk.to_table}.{fk.to_column}"
        )
    return "\n".join(lines)


def _compact_column(col: ColumnDef, table: TableDef) -> str:
    parts = [f"{col.name}:{col.sql_type.upper()}"]
    if col.name in table.primary_key:
        parts.append("Primary Key")
    if col.value_examples:
        parts.append(f"Examples: [{', '.join(col.value_examples)}]")
    return f"({', '.join(parts)})"


# -- commented_tuples ---------------------------------------------------------


def _render_commented_tuples(catalog: SchemaCatalog) -> str:
    lines: list[str] = []
    entries_remaining = sum(len(t.columns) for t in catalog.tables)
    for table in catalog.tables:
        lines.append(f"# Table: {table.name}")
        lines.append("[")
        for col in table.columns:
            entries_remaining -= 1
            comma = "," if entries_remaining else ""
            lines.append(f"  {_tuple_entry(col)}{comma}")
        lines.append("]")
    return "\n".join(lines)


def _tuple_entry(col: ColumnDef) -> str:
    desc = col.description if col.description else col.name
    if not desc.endswith("."):
        desc += "."
    if col.category_values is not None:
        quoted = ", ".join("'" + v.replace("'", "\\'") + "'" for v in col.category_values)
        desc += f" Value examples: [{quoted}]."
    return f"({col.name}, {desc})"


# -- ddl ----------------------------------------------------------------------


def _render_ddl(catalog: SchemaCatalog) -> str:
    blocks = []
    fks_by_table: dict[str, list[ForeignKeyDef]] = {}
    for fk in catalog.foreign_keys:
        fks_by_table.setdefault(fk.from_table, []).append(fk)
    for table in catalog.tables:
        lines = [f"CREATE TABLE {table.name} ("]
        for col in table.columns:
            lines.append(f"    {col.name} {col.sql_type.upper()}")
        key_lines = []
        if table.primary_key:
            key_lines.append(f"    PRIMARY KEY ({', '.join(table.primary_key)})")
        for fk in fks_by_table.get(table.name, ()):
            key_lines.append(
                f"    FOREIGN KEY ({fk.from_column})"
                f" REFERENCES {fk.to_table} ({fk.to_column})"
            )
        if key_lines:
            lines.append(",")
            lines.extend(key_lines)
        lines.append(");")
        blocks.append("\n".join(lines))
    header = f"{catalog.db_id} CREATE messages:"
    return header + "\n\n" + "\n\n".join(blocks)


# -- inline_tables ------------------------------------------------------------


def _escape_single_quotes(name: str) -> str:
    # SQL-style doubling; these names sit next to SQL in prompts
    return name.replace("'", "''")


def _render_inline_tables(catalog: SchemaCatalog) -> str:
    lines = []
    for table in catalog.tables:
        cols = ", ".join(f"{c.name} ({c.sql_type.upper()})" for c in table.columns)
        lines.append(
            f"table '{_escape_single_quotes(table.name)}' with columns: {cols}"
        )
    lines.append("")
    lines.append("Relations:")
    for fk in catalog.foreign_keys:
        lines.append(
            f"{fk.from_table}.{fk.from_column} -> {fk.to_table}.{fk.to_column}"
        )
    return "\n".join(lines)


# -- json_raw -----------------------------------------------------------------


def _render_json_raw(catalog: SchemaCatalog) -> str:
    tables: dict[str, dict] = {}
    for table in catalog.tables:
        fk_map: dict[str, dict] = {}
        for fk in catalog.foreign_keys:
            if fk.from_table != table.name:
                continue
            if fk.from_column in fk_map:
                log.warning(
                    "%s: json_raw keeps only the first foreign key on %s.%s",
                    catalog.db_id, table.name, fk.from_column,
                )
                continue
            fk_map[fk.from_column] = {
                "referenced_table": fk.to_table,
                "referenced_column": fk.to_column,
            }
        tables[table.name] = {
            "columns": {c.name: c.sql_type.upper() for c in table.columns},
            "keys": {"primary_key": list(table.primary_key)},
            "foreign_keys": fk_map,
        }
    return json.dumps({"tables": tables}, indent=4)


# -- sqlalchemy ---------------------------------------------------------------

_SQLALCHEMY_TYPES = {
    "INTEGER": "Integer",
    "INT": "Integer",
    "TINYINT": "Integer",
    "SMALLINT": "SmallInteger",
    "BIGINT": "BigInteger",
    "TEXT": "Text",
    "CLOB": "Text",
    "VARCHAR": "String",
    "CHAR": "String",
    "NVARCHAR": "String",
    "REAL": "Float",
    "FLOAT": "Float",
    "DOUBLE": "Float",
    "DECIMAL": "Numeric",
    "NUMERIC": "Numeric",
    "DATE": "Date",
    "DATETIME": "DateTime",
    "TIMESTAMP": "DateTime",
    "BOOLEAN": "Boolean",
    "BOOL": "Boolean",
    "BLOB": "LargeBinary",
}


def _sqlalchemy_type(sql_type: str) -> str:
    base = sql_type.upper().split("(")[0].strip()
    mapped = _SQLALCHEMY_TYPES.get(base)
    if mapped is None:
        log.warning("no sqlalchemy type for %r; using Text", sql_type)
        return "Text"
    return mapped


def _topo_table_order(catalog: SchemaCatalog) -> list[TableDef]:
    """Referenced tables before referencing ones, stable by catalog order."""
    index = {t.name: i for i, t in enumerate(catalog.tables)}
    deps: dict[str, set[str]] = {t.name: set() for t in catalog.tables}
    for fk in catalog.foreign_keys:
        if fk.from_table in deps and fk.to_table in deps and fk.from_table != fk.to_table:
            deps[fk.from_table].add(fk.to_table)
    ordered: list[str] = []
    placed: set[str] = set()
    remaining = [t.name for t in catalog.tables]
    while remaining:
        ready = [n for n in remaining if deps[n] <= placed]
        if not ready:
            # FK cycle; emit what is left in catalog order
            ready = remaining
        ready.sort(key=index.__getitem__)
        ordered.append(ready[0])
        placed.add(ready[0])
        remaining.remove(ready[0])
    by_name = {t.name: t for t in catalog.tables}
    return [by_name[n] for n in ordered]


def _render_sqlalchemy(catalog: SchemaCatalog) -> str:
    fk_by_col: dict[tuple[str, str], ForeignKeyDef] = {}
    for fk in catalog.foreign_keys:
        key = (fk.from_table, fk.from_column)
        if key in fk_by_col:
            log.warning(
                "%s: sqlalchemy keeps only the first foreign key on %s.%s",
                catalog.db_id, fk.from_table, fk.from_column,
            )
            continue
        fk_by_col[key] = fk

    imports = {"Column", "MetaData", "Table"}
    blocks = []
    tables = _topo_table_order(catalog)
    total_columns = sum(len(t.columns) for t in tables)
    emitted = 0
    for table in tables:
        lines = [
            f"t_{table.name} = Table(",
            f"    '{_escape_single_quotes(table.name)}', metadata,",
        ]
        for col in table.columns:
            emitted += 1
            fk = fk_by_col.get((table.name, col.name))
            if fk is not None:
                type_expr = f"ForeignKey('{fk.to_table}.{fk.to_column}')"
                imports.add("ForeignKey")
            else:
                type_name = _sqlalchemy_type(col.sql_type)
                imports.add(type_name)
                type_expr = type_name
            args = [f"'{_escape_single_quotes(col.name)}'", type_expr]
            if col.name in table.primary_key:
                args.append("primary_key=True")
            elif not col.nullable:
                args.append("nullable=False")
            if col.default is not None:
                escaped = _escape_single_quotes(col.default)
                args.append(f"server_default=text('{escaped}')")
                imports.add("text")
            comma = "," if emitted < total_columns else ""
            lines.append(f"    Column({', '.join(args)}){comma}")
        lines.append(")")
        blocks.append("\n".join(lines))
    import_line = "from sqlalchemy import " + ", ".join(sorted(imports))
    parts = [import_line, "metadata = MetaData()"]
    parts.extend(blocks)
    return "\n\n".join(parts)


_RENDERERS = {
    RepresentationFormat.COMPACT_TAGGED: _render_compact_tagged,
    RepresentationFormat.COMMENTED_TUPLES: _render_commented_tuples,
    RepresentationFormat.DDL: _render_ddl,
    RepresentationFormat.INLINE_TABLES: _render_inline_tables,
    RepresentationFormat.JSON_RAW: _render_json_raw,
    RepresentationFormat.SQLALCHEMY: _render_sqlalchemy,
}
