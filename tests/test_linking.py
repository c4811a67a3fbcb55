import string

import pytest
from hypothesis import given, strategies as st

from ensql.catalog import ColumnDef, SchemaCatalog, TableDef, _quote_ident
from ensql.linking import (
    GoldLinking,
    LinkingPrediction,
    LinkingParseError,
    LinkingResolutionError,
    MalformedMapping,
    NoJsonFound,
    build_linking_prompt,
    derive_gold_linking,
    format_user_turn,
    linking_metrics,
    load_default_linking_fewshots,
    load_linking_system_prompt,
    parse_linking_response,
)


class TestUserTurn:
    def test_without_hint(self):
        turn = format_user_turn("s1\ns2\n", "what?")
        assert turn == "Schema:\ns1\ns2\n\nQuestion: what?"

    def test_with_hint(self):
        turn = format_user_turn("s", "q", "look at year")
        assert turn.endswith("Question: q\nHint: look at year")


class TestPromptAssembly:
    def test_three_fewshots_then_question(self):
        messages = build_linking_prompt("THE SCHEMA", "THE QUESTION", "THE HINT")
        assert len(messages) == 2 + 2 * 3
        assert messages[0]["role"] == "system"
        assert messages[0]["content"] == load_linking_system_prompt()
        roles = [m["role"] for m in messages[1:]]
        assert roles == ["user", "assistant"] * 3 + ["user"]
        assert "THE SCHEMA" in messages[-1]["content"]
        assert "THE QUESTION" in messages[-1]["content"]
        assert "THE HINT" in messages[-1]["content"]

    def test_fewshot_responses_parse_as_predictions(self):
        for shot in load_default_linking_fewshots():
            parsed = parse_linking_response(shot.response)
            assert parsed.selection


class TestParseResponse:
    def test_plain_json(self):
        parsed = parse_linking_response('{"users": ["name"], "orders": []}')
        assert parsed.selection == {"users": ["name"], "orders": []}

    def test_json_with_surrounding_prose(self):
        text = 'Sure! Here is the mapping:\n{"users": ["name"]}\nHope that helps.'
        assert parse_linking_response(text).selection == {"users": ["name"]}

    def test_json_in_code_fence(self):
        text = '```json\n{"users": ["user_id", "name"]}\n```'
        assert parse_linking_response(text).selection == {"users": ["user_id", "name"]}

    def test_first_decodable_object_wins(self):
        text = '{broken {"users": ["name"]}'
        assert parse_linking_response(text).selection == {"users": ["name"]}

    def test_empty_object_is_valid(self):
        assert parse_linking_response("{}").selection == {}

    def test_duplicate_columns_deduped_in_order(self):
        parsed = parse_linking_response('{"t": ["b", "a", "b"]}')
        assert parsed.selection == {"t": ["b", "a"]}

    def test_no_json_raises(self):
        with pytest.raises(NoJsonFound):
            parse_linking_response("no mapping here")

    def test_top_level_array_has_no_object(self):
        with pytest.raises(NoJsonFound):
            parse_linking_response('["users"]')

    def test_non_mapping_values_raise(self):
        with pytest.raises(MalformedMapping):
            parse_linking_response('{"users": {"name": 1}}')

    def test_non_list_values_raise(self):
        with pytest.raises(MalformedMapping):
            parse_linking_response('{"users": "name"}')

    def test_parse_error_is_a_linking_error(self):
        with pytest.raises(LinkingParseError):
            parse_linking_response("nope")


class TestMetrics:
    def test_single_question_table_scores(self):
        metrics = linking_metrics(
            [{"users": [], "orders": []}],
            [{"users": []}],
        )
        assert metrics.table_precision == pytest.approx(0.5)
        assert metrics.table_recall == pytest.approx(1.0)

    def test_micro_average_two_questions(self):
        predictions = [
            {"users": ["name", "email"], "orders": ["order_id"]},
            {"users": ["name"], "products": ["price"]},
        ]
        golds = [
            {"users": ["name", "user_id"], "orders": ["order_id", "user_id"]},
            {"users": ["name", "created_at"], "payments": ["amount"]},
        ]
        metrics = linking_metrics(predictions, golds)
        # tables: tp=3 (users twice, orders), predicted 4, gold 4
        assert metrics.table_precision == pytest.approx(0.75)
        assert metrics.table_recall == pytest.approx(0.75)
        # columns: tp=3 (name twice, order_id), predicted 5, gold 7
        assert metrics.column_precision == pytest.approx(3 / 5)
        assert metrics.column_recall == pytest.approx(3 / 7)
        assert metrics.column_f1 == pytest.approx(0.5)

    def test_empty_sides_score_zero(self):
        metrics = linking_metrics([{}], [{"users": ["name"]}])
        assert metrics.table_precision == 0.0
        assert metrics.table_recall == 0.0
        assert metrics.table_f1 == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linking_metrics([{}], [])

    def test_accepts_gold_linking_objects(self):
        gold = GoldLinking(
            tables=frozenset({"users"}),
            columns=frozenset({("users", "name")}),
        )
        metrics = linking_metrics([{"users": ["name"]}], [gold])
        assert metrics.column_f1 == pytest.approx(1.0)


def gold(sql, catalog):
    return derive_gold_linking(sql, catalog)


class TestGoldDerivation:
    def test_simple_select(self, toy_catalog):
        got = gold("SELECT name FROM users WHERE user_id = 3", toy_catalog)
        assert got.tables == {"users"}
        assert got.columns == {("users", "name"), ("users", "user_id")}

    def test_count_star_is_not_column_usage(self, toy_catalog):
        got = gold("SELECT COUNT(*) FROM users", toy_catalog)
        assert got.tables == {"users"}
        assert got.columns == set()

    def test_bare_star_expands_all_columns(self, toy_catalog):
        got = gold("SELECT * FROM products", toy_catalog)
        assert got.columns == {
            ("products", "product_id"),
            ("products", "name"),
            ("products", "price"),
            ("products", "stock"),
        }

    def test_qualified_star_expands_one_table(self, toy_catalog):
        got = gold(
            "SELECT u.* FROM users u JOIN orders o ON o.user_id = u.user_id",
            toy_catalog,
        )
        assert ("users", "email") in got.columns
        assert ("orders", "quantity") not in got.columns
        assert ("orders", "user_id") in got.columns

    def test_aliases_resolve(self, toy_catalog):
        got = gold(
            "SELECT u.name FROM users AS u JOIN orders o ON o.user_id = u.user_id "
            "WHERE o.quantity > 2",
            toy_catalog,
        )
        assert got.tables == {"users", "orders"}
        assert got.columns == {
            ("users", "name"),
            ("users", "user_id"),
            ("orders", "user_id"),
            ("orders", "quantity"),
        }

    def test_bare_column_with_unique_owner(self, toy_catalog):
        got = gold(
            "SELECT quantity FROM orders JOIN users ON orders.user_id = users.user_id",
            toy_catalog,
        )
        assert ("orders", "quantity") in got.columns

    def test_ambiguous_bare_column_raises(self, toy_catalog):
        with pytest.raises(LinkingResolutionError):
            gold("SELECT name FROM users, products", toy_catalog)

    def test_unknown_table_raises(self, toy_catalog):
        with pytest.raises(LinkingResolutionError):
            gold("SELECT x FROM invoices", toy_catalog)

    def test_unknown_qualified_column_raises(self, toy_catalog):
        with pytest.raises(LinkingResolutionError):
            gold("SELECT users.shoe_size FROM users", toy_catalog)

    def test_cte_names_are_opaque(self, toy_catalog):
        got = gold(
            "WITH big AS (SELECT user_id FROM orders WHERE quantity > 1) "
            "SELECT user_id FROM big",
            toy_catalog,
        )
        assert got.tables == {"orders"}
        assert ("orders", "user_id") in got.columns
        assert ("orders", "quantity") in got.columns

    def test_subquery_alias_star_is_skipped(self, toy_catalog):
        got = gold(
            "SELECT sub.* FROM (SELECT name FROM users) sub",
            toy_catalog,
        )
        assert got.tables == {"users"}
        assert got.columns == {("users", "name")}

    def test_output_alias_not_treated_as_column(self, toy_catalog):
        got = gold(
            "SELECT COUNT(*) AS total FROM orders",
            toy_catalog,
        )
        assert got.columns == set()

    def test_quoted_identifiers(self, toy_catalog):
        got = gold('SELECT "name" FROM "users"', toy_catalog)
        assert got.columns == {("users", "name")}

    def test_using_clause_attributes_both_sides(self, toy_catalog):
        got = gold(
            "SELECT quantity FROM orders JOIN users USING (user_id)",
            toy_catalog,
        )
        assert ("orders", "user_id") in got.columns
        assert ("users", "user_id") in got.columns

    def test_function_names_are_not_columns(self, toy_catalog):
        got = gold("SELECT MAX(price) FROM products", toy_catalog)
        assert got.columns == {("products", "price")}

    def test_string_literals_ignored(self, toy_catalog):
        got = gold("SELECT name FROM users WHERE name = 'email'", toy_catalog)
        assert got.columns == {("users", "name")}

    def test_comments_skipped(self, toy_catalog):
        got = gold(
            "SELECT name FROM users -- price lives elsewhere\nWHERE user_id = 1",
            toy_catalog,
        )
        assert got.columns == {("users", "name"), ("users", "user_id")}

    def test_rowid_is_implicit(self, toy_catalog):
        got = gold("SELECT rowid FROM users", toy_catalog)
        assert got.tables == {"users"}
        assert all(col != "rowid" for _, col in got.columns)

    def test_case_insensitive_resolution(self, toy_catalog):
        got = gold("select NAME from USERS", toy_catalog)
        assert got.tables == {"users"}
        assert got.columns == {("users", "name")}

    @pytest.mark.parametrize("sql, tables, columns", [
        pytest.param(
            "SELECT name FROM users WHERE user_id IN "
            "(SELECT user_id FROM orders WHERE quantity > 2)",
            {"users", "orders"},
            {("users", "name"), ("users", "user_id"),
             ("orders", "user_id"), ("orders", "quantity")},
            id="in_subquery_scopes_its_own_names",
        ),
        pytest.param(
            "SELECT name FROM users UNION SELECT name FROM products",
            {"users", "products"},
            {("users", "name"), ("products", "name")},
            id="union_arms_resolve_separately",
        ),
        pytest.param(
            'SELECT email FROM users WHERE name = "Alice"',
            {"users"},
            {("users", "email"), ("users", "name")},
            id="double_quoted_string_literal",
        ),
        pytest.param(
            "SELECT total FROM (SELECT SUM(quantity) AS total FROM orders)",
            {"orders"},
            {("orders", "quantity")},
            id="subquery_output_alias",
        ),
        pytest.param(
            "SELECT name FROM main.users",
            {"users"},
            {("users", "name")},
            id="schema_qualified_table",
        ),
        pytest.param(
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r) "
            "SELECT n FROM r",
            set(),
            set(),
            id="unbounded_recursive_cte_is_compiled_not_run",
        ),
        pytest.param(
            "SELECT name FROM users NATURAL JOIN orders",
            {"users", "orders"},
            {("users", "name"), ("users", "user_id"), ("orders", "user_id")},
            id="natural_join_compares_shared_columns",
        ),
        pytest.param(
            "SELECT * FROM users NATURAL JOIN orders",
            {"users", "orders"},
            {("users", "user_id"), ("users", "name"), ("users", "email"),
             ("users", "created_at"), ("orders", "order_id"), ("orders", "user_id"), ("orders", "product_id"),
             ("orders", "quantity"), ("orders", "order_date")},
            id="natural_join_star",
        ),
    ])
    def test_sqlite_resolves(self, toy_catalog, sql, tables, columns):
        got = gold(sql, toy_catalog)
        assert got.tables == tables
        assert got.columns == columns

    @pytest.mark.parametrize("sql", [
        pytest.param("DELETE FROM users", id="write"),
        pytest.param("SELECT 1; SELECT 2", id="two_statements"),
    ])
    def test_refused(self, toy_catalog, sql):
        with pytest.raises(LinkingResolutionError, match="toy_shop"):
            gold(sql, toy_catalog)


class TestPrediction:
    def test_tables_and_columns_accessors(self):
        prediction = LinkingPrediction({"Users": ["Name", "email"], "orders": []})
        assert prediction.tables() == {"users", "orders"}
        assert prediction.columns() == {("users", "name"), ("users", "email")}


def test_using_inside_quoted_text_is_not_a_join(toy_catalog):
    got = gold(
        "SELECT name FROM users -- joins using (email)\n"
        "WHERE name = 'using (created_at)'",
        toy_catalog,
    )
    assert got.columns == {("users", "name")}


# -- gold linking properties ---------------------------------------------------

# SQLite folds only ASCII letters when it compares names, so "K" and the
# Kelvin sign, or "ss" and "ß", name different tables and columns
_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def _fold(name):
    return name.translate(_ASCII_LOWER)


_NAMES = st.one_of(
    st.sampled_from(
        ["id", "ID", "name", "k", "K", "\u212a", "ss", "\u00df", "rowid", "select",
         "a b", 'q"t', "t0", "sqlite_x"]
    ),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            min_size=1, max_size=5),
)
# names beginning sqlite_ are SQLite's own tables; introspection skips them
_TABLE_NAMES = _NAMES.filter(lambda name: not _fold(name).startswith("sqlite_"))


@st.composite
def _catalogs(draw):
    names = draw(st.lists(_TABLE_NAMES, min_size=1, max_size=4, unique_by=_fold))
    return SchemaCatalog("drawn", tuple(
        TableDef(name, tuple(
            ColumnDef(column, "TEXT")
            for column in draw(st.lists(_NAMES, min_size=1, max_size=4, unique_by=_fold))
        ))
        for name in names
    ))


def _sources(tables):
    return [f"{_quote_ident(t.name)} AS t{i}" for i, t in enumerate(tables)]


@st.composite
def _reading_queries(draw, catalog):
    """A SELECT over drawn tables, each column reference qualified by alias,
    with the tables it opens and the (table, column) pairs it reads."""
    tables = draw(st.lists(st.sampled_from(catalog.tables), min_size=1, max_size=3,
                           unique_by=lambda t: t.name))
    clauses = {"select": [], "where": [], "order": []}
    reads = set()
    for i, table in enumerate(tables):
        columns = draw(st.lists(st.sampled_from(table.columns), min_size=1,
                                unique_by=lambda c: c.name))
        for column in columns:
            clause = draw(st.sampled_from(sorted(clauses)))
            clauses[clause].append(f"t{i}.{_quote_ident(column.name)}")
            reads.add((table.name, column.name))
    projection = ", ".join(clauses["select"]) or "1"
    sql = f"SELECT {projection} FROM {' CROSS JOIN '.join(_sources(tables))}"
    if clauses["where"]:
        sql += " WHERE " + " AND ".join(f"{ref} IS NOT NULL" for ref in clauses["where"])
    if clauses["order"]:
        sql += " ORDER BY " + ", ".join(clauses["order"])
    return sql, {t.name for t in tables}, reads


@st.composite
def _queries(draw, catalog):
    """Any valid SELECT over the catalog: stars, count(*), NATURAL or USING
    joins, filters and subqueries."""
    tables = draw(st.lists(st.sampled_from(catalog.tables), min_size=1, max_size=3,
                           unique_by=lambda t: t.name))
    sources = _sources(tables)
    source = " CROSS JOIN ".join(sources)
    if len(tables) == 2:
        left, right = ({_fold(c.name): c.name for c in t.columns} for t in tables)
        shared = sorted(left.keys() & right.keys())
        kind = draw(st.sampled_from(["CROSS", "NATURAL"] + (["USING"] if shared else [])))
        if kind == "USING":
            using = _quote_ident(left[draw(st.sampled_from(shared))])
            source = f"{sources[0]} JOIN {sources[1]} USING ({using})"
        else:
            source = f"{sources[0]} {kind} JOIN {sources[1]}"
    refs = [f"t{i}.{_quote_ident(c.name)}" for i, t in enumerate(tables) for c in t.columns]
    projection = draw(st.sampled_from(
        ["*", "t0.*", "count(*)", ", ".join(draw(st.lists(st.sampled_from(refs), min_size=1)))]
    ))
    sql = f"SELECT {projection} FROM {source}"
    if draw(st.booleans()):
        sql += f" WHERE {draw(st.sampled_from(refs))} = 1"
    if draw(st.booleans()):
        sql = f"SELECT * FROM ({sql})"
    return sql


class TestGoldLinkingProperties:
    @given(data=st.data(), catalog=_catalogs())
    def test_every_linked_name_is_in_the_catalog(self, catalog, data):
        got = derive_gold_linking(data.draw(_queries(catalog)), catalog)
        assert got.tables <= {t.name for t in catalog.tables}
        assert got.columns <= {(t.name, c.name) for t in catalog.tables for c in t.columns}

    @given(data=st.data(), catalog=_catalogs())
    def test_a_query_of_catalog_names_links_every_name_it_reads(self, catalog, data):
        sql, tables, reads = data.draw(_reading_queries(catalog))
        got = derive_gold_linking(sql, catalog)
        assert got.tables == tables
        assert got.columns == reads


def test_a_name_that_folds_only_outside_ascii_names_its_own_table():
    # shrunk from the properties above: SQLite folds ASCII case only, so "k"
    # and the Kelvin sign are two tables, and columns read by position
    # belong to the one the query opened
    kelvin = "\u212a"
    catalog = SchemaCatalog("drawn", (
        TableDef("k", (ColumnDef("id", "TEXT"),)),
        TableDef(kelvin, (ColumnDef("ID", "TEXT"),)),
    ))
    got = gold(f'SELECT 1 FROM "{kelvin}" AS t0 ORDER BY t0."ID"', catalog)
    assert got.tables == {kelvin}
    assert got.columns == {(kelvin, "ID")}
