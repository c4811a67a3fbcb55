import json
from dataclasses import replace

import pytest

from ensql.catalog import ColumnDef, ForeignKeyDef, SchemaCatalog, TableDef
from ensql.formats import (
    RepresentationFormat,
    canonicalize,
    render,
    render_all,
)

from conftest import load_golden


class TestParse:
    @pytest.mark.parametrize(
        "spelling,expected",
        [
            ("compact_tagged", RepresentationFormat.COMPACT_TAGGED),
            ("m-schema", RepresentationFormat.COMPACT_TAGGED),
            ("MSchema", RepresentationFormat.COMPACT_TAGGED),
            ("commented_tuples", RepresentationFormat.COMMENTED_TUPLES),
            ("mac", RepresentationFormat.COMMENTED_TUPLES),
            ("mac_schema", RepresentationFormat.COMMENTED_TUPLES),
            ("ddl", RepresentationFormat.DDL),
            ("create_table", RepresentationFormat.DDL),
            ("inline_tables", RepresentationFormat.INLINE_TABLES),
            ("din-sql", RepresentationFormat.INLINE_TABLES),
            ("json_raw", RepresentationFormat.JSON_RAW),
            ("json", RepresentationFormat.JSON_RAW),
            ("sqlalchemy", RepresentationFormat.SQLALCHEMY),
            ("alchemy", RepresentationFormat.SQLALCHEMY),
        ],
    )
    def test_aliases(self, spelling, expected):
        assert RepresentationFormat.parse(spelling) is expected

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            RepresentationFormat.parse("yaml")


class TestCanonicalize:
    def test_strips_trailing_space_and_normalizes_ending(self):
        assert canonicalize("a  \nb\t\n\n\n") == "a\nb\n"

    def test_single_line(self):
        assert canonicalize("x") == "x\n"


GOLDENS = {
    RepresentationFormat.COMPACT_TAGGED: "financial_compact_tagged.txt",
    RepresentationFormat.COMMENTED_TUPLES: "financial_commented_tuples.txt",
    RepresentationFormat.DDL: "financial_ddl.txt",
    RepresentationFormat.INLINE_TABLES: "financial_inline_tables.txt",
    RepresentationFormat.JSON_RAW: "financial_json_raw.txt",
    RepresentationFormat.SQLALCHEMY: "financial_sqlalchemy.txt",
}


class TestRender:
    @pytest.mark.parametrize("fmt", list(RepresentationFormat), ids=lambda f: f.value)
    def test_financial_golden(self, financial_catalog, fmt):
        assert render(financial_catalog, fmt) == load_golden(GOLDENS[fmt])

    @pytest.mark.parametrize("fmt", list(RepresentationFormat), ids=lambda f: f.value)
    def test_output_is_canonical(self, toy_catalog, fmt):
        text = render(toy_catalog, fmt)
        assert text == canonicalize(text)

    def test_render_all_covers_every_format(self, toy_catalog):
        rendered = render_all(toy_catalog)
        assert set(rendered) == set(RepresentationFormat)

    def test_inline_tables_escapes_quotes(self):
        catalog = SchemaCatalog(
            "q", tables=(TableDef("it's", (ColumnDef("a", "TEXT"),)),)
        )
        line = render(catalog, RepresentationFormat.INLINE_TABLES).splitlines()[0]
        assert line.startswith("table 'it''s' with columns:")

    def test_sqlalchemy_unknown_type_falls_back_to_text(self, caplog):
        catalog = SchemaCatalog(
            "u", tables=(TableDef("t", (ColumnDef("a", "GEOMETRY"),)),)
        )
        with caplog.at_level("WARNING"):
            text = render(catalog, RepresentationFormat.SQLALCHEMY)
        assert "Column('a', Text)" in text
        assert "GEOMETRY" in caplog.text

    def test_sqlalchemy_references_come_first(self, toy_catalog):
        text = render(toy_catalog, RepresentationFormat.SQLALCHEMY)
        assert text.index("t_users") < text.index("t_orders")
        assert text.index("t_products") < text.index("t_orders")

    def test_sqlalchemy_cycle_falls_back_to_catalog_order(self):
        catalog = SchemaCatalog(
            "cyc",
            tables=(
                TableDef("a", (ColumnDef("id", "INTEGER"), ColumnDef("b_id", "INTEGER"))),
                TableDef("b", (ColumnDef("id", "INTEGER"), ColumnDef("a_id", "INTEGER"))),
            ),
            foreign_keys=(
                ForeignKeyDef("a", "b_id", "b", "id"),
                ForeignKeyDef("b", "a_id", "a", "id"),
            ),
        )
        text = render(catalog, RepresentationFormat.SQLALCHEMY)
        assert text.index("t_a") < text.index("t_b")

    def test_compact_tagged_escapes_nothing_but_varies_per_table(self, toy_catalog):
        text = render(toy_catalog, RepresentationFormat.COMPACT_TAGGED)
        assert text.startswith("[DB_ID]  toy_shop\n[Schema]\n")
        assert text.count("# Table:") == 3


class TestRenderMemo:
    @pytest.mark.parametrize("fmt", list(RepresentationFormat), ids=lambda f: f.value)
    def test_memoised_render_equals_a_fresh_one(self, financial_catalog, fmt):
        catalog = replace(financial_catalog)  # equal, with an empty memo
        assert catalog == financial_catalog and not catalog.rendered
        text = render(catalog, fmt)
        assert render(catalog, fmt) is text
        assert render(replace(catalog), fmt) == text

    def test_a_replaced_catalog_renders_its_own_tables(self, toy_catalog):
        render(toy_catalog, RepresentationFormat.DDL)
        smaller = replace(toy_catalog, tables=toy_catalog.tables[:1], foreign_keys=())
        assert render(smaller, RepresentationFormat.DDL).count("CREATE TABLE") == 1


class TestJsonRoundTrip:
    def test_round_trip_preserves_structure(self, toy_catalog):
        doc = json.loads(render(toy_catalog, RepresentationFormat.JSON_RAW))
        assert tuple(doc["tables"]) == toy_catalog.table_names()
        fks = set()
        for table in toy_catalog.tables:
            again = doc["tables"][table.name]
            assert again["columns"] == {c.name: c.sql_type.upper() for c in table.columns}
            assert tuple(again["keys"]["primary_key"]) == table.primary_key
            fks |= {
                (table.name, col, ref["referenced_table"], ref["referenced_column"])
                for col, ref in again["foreign_keys"].items()
            }
        assert fks == {
            (fk.from_table, fk.from_column, fk.to_table, fk.to_column)
            for fk in toy_catalog.foreign_keys
        }

    def test_round_trip_keeps_phantom_primary_key(self, financial_catalog):
        doc = json.loads(render(financial_catalog, RepresentationFormat.JSON_RAW))
        assert doc["tables"]["loan"]["keys"]["primary_key"] == ["loan_id"]


def _duplicate_fk_catalog() -> SchemaCatalog:
    return SchemaCatalog(
        "dup",
        tables=(
            TableDef("a", (ColumnDef("x", "INTEGER"),)),
            TableDef("b", (ColumnDef("y", "INTEGER"),)),
            TableDef("c", (ColumnDef("z", "INTEGER"),)),
        ),
        foreign_keys=(
            ForeignKeyDef("a", "x", "b", "y"),
            ForeignKeyDef("a", "x", "c", "z"),
        ),
    )


class TestDuplicateForeignKeys:
    def test_json_render_keeps_first_edge_per_column(self, caplog):
        with caplog.at_level("WARNING"):
            text = render(_duplicate_fk_catalog(), RepresentationFormat.JSON_RAW)
        assert '"referenced_table": "b"' in text
        assert '"referenced_table": "c"' not in text

    @pytest.mark.parametrize(
        "fmt", [RepresentationFormat.JSON_RAW, RepresentationFormat.SQLALCHEMY],
        ids=lambda f: f.value,
    )
    def test_warns_once_per_catalog(self, caplog, fmt):
        catalog = _duplicate_fk_catalog()
        with caplog.at_level("WARNING"):
            for _ in range(3):
                render(catalog, fmt)
        assert caplog.text.count("keeps only the first foreign key on a.x") == 1
