import pytest

from ensql.linking import (
    FEWSHOT_COUNT,
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
        assert len(messages) == 2 + 2 * FEWSHOT_COUNT
        assert messages[0]["role"] == "system"
        assert messages[0]["content"] == load_linking_system_prompt()
        roles = [m["role"] for m in messages[1:]]
        assert roles == ["user", "assistant"] * FEWSHOT_COUNT + ["user"]
        assert "THE SCHEMA" in messages[-1]["content"]
        assert "THE QUESTION" in messages[-1]["content"]
        assert "THE HINT" in messages[-1]["content"]

    def test_fewshot_responses_parse_as_predictions(self):
        for shot in load_default_linking_fewshots():
            parsed = parse_linking_response(shot.response)
            assert parsed.selection

    def test_wrong_fewshot_count_rejected(self):
        shots = load_default_linking_fewshots()[:2]
        with pytest.raises(ValueError):
            build_linking_prompt("s", "q", fewshots=shots)


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


class TestPrediction:
    def test_tables_and_columns_accessors(self):
        prediction = LinkingPrediction({"Users": ["Name", "email"], "orders": []})
        assert prediction.tables() == {"users", "orders"}
        assert prediction.columns() == {("users", "name"), ("users", "email")}
