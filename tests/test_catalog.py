import sqlite3

import pytest

from ensql.catalog import (
    CatalogError,
    ColumnDef,
    FilterLevel,
    ForeignKeyDef,
    MalformedDatabaseError,
    SchemaCatalog,
    TableDef,
    UnreadableDatabaseError,
    apply_filter,
    introspect,
)


class TestFilterLevel:
    @pytest.mark.parametrize(
        "spelling,expected",
        [
            ("no_filtering", FilterLevel.NO_FILTERING),
            ("none", FilterLevel.NO_FILTERING),
            ("No Filtering", FilterLevel.NO_FILTERING),
            ("table_only", FilterLevel.TABLE_ONLY),
            ("table", FilterLevel.TABLE_ONLY),
            ("table-filtering", FilterLevel.TABLE_ONLY),
            ("full_filtering", FilterLevel.FULL_FILTERING),
            ("col_filtering", FilterLevel.FULL_FILTERING),
            ("Column Filtering", FilterLevel.FULL_FILTERING),
        ],
    )
    def test_parse_aliases(self, spelling, expected):
        assert FilterLevel.parse(spelling) is expected

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            FilterLevel.parse("everything")

    def test_parse_rejects_bare_full(self):
        # "full" alone could mean either extreme; refuse to guess
        with pytest.raises(ValueError):
            FilterLevel.parse("full")


class TestIntrospect:
    def test_tables_in_schema_order(self, toy_db):
        catalog = introspect(toy_db)
        assert catalog.db_id == "toy_shop"
        assert catalog.table_names() == ("users", "products", "orders")

    def test_primary_keys_and_nullability(self, toy_db):
        catalog = introspect(toy_db)
        users = catalog.table("users")
        assert users.primary_key == ("user_id",)
        assert not users.column("name").nullable
        assert users.column("email").nullable

    def test_defaults_captured(self, toy_db):
        stock = introspect(toy_db).table("products").column("stock")
        assert stock.default == "0"

    def test_value_examples_first_seen_distinct(self, toy_db):
        catalog = introspect(toy_db, sample_k=3)
        assert catalog.table("users").column("name").value_examples == (
            "Alice", "Bob", "Cara",
        )
        assert catalog.table("products").column("price").value_examples == (
            "9.99", "19.5", "4.25",
        )

    def test_sample_k_limits_examples(self, toy_db):
        catalog = introspect(toy_db, sample_k=2)
        assert len(catalog.table("users").column("name").value_examples) == 2

    def test_low_cardinality_text_becomes_category(self, toy_db):
        catalog = introspect(toy_db, category_threshold=20)
        name = catalog.table("users").column("name")
        assert name.category_values == ("Alice", "Bob", "Cara", "Dan")
        # integers never get a category list
        assert catalog.table("products").column("stock").category_values is None

    def test_category_threshold_respected(self, toy_db):
        catalog = introspect(toy_db, category_threshold=3)
        assert catalog.table("users").column("name").category_values is None

    def test_foreign_keys_in_declaration_order(self, toy_db):
        fks = introspect(toy_db).foreign_keys
        assert fks == (
            ForeignKeyDef("orders", "user_id", "users", "user_id"),
            ForeignKeyDef("orders", "product_id", "products", "product_id"),
        )

    def test_descriptions_applied(self, toy_db):
        catalog = introspect(
            toy_db,
            descriptions={"USERS": {"NAME": "customer name"}},
        )
        assert catalog.table("users").column("name").description == "customer name"

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(UnreadableDatabaseError):
            introspect(tmp_path / "absent.sqlite")

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"this is not a database, not even close to one!")
        with pytest.raises(MalformedDatabaseError):
            introspect(path)

    def test_implicit_fk_target_resolved_to_primary_key(self, tmp_path):
        path = tmp_path / "implicit.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE parent (pid INTEGER PRIMARY KEY, label TEXT);
            CREATE TABLE child (cid INTEGER PRIMARY KEY,
                                pid INTEGER REFERENCES parent);
            """
        )
        conn.close()
        fks = introspect(path).foreign_keys
        assert fks == (ForeignKeyDef("child", "pid", "parent", "pid"),)

    @pytest.mark.parametrize("reference", [
        pytest.param("missing(id)", id="missing_table"),
        pytest.param("a(missing)", id="missing_column"),
    ])
    def test_dangling_fk_is_dropped(self, tmp_path, caplog, reference):
        path = tmp_path / "dangling.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            f"""
            CREATE TABLE a (id INTEGER PRIMARY KEY);
            CREATE TABLE b (id INTEGER PRIMARY KEY,
                            a_id INTEGER REFERENCES a(id),
                            other_id INTEGER REFERENCES {reference});
            """
        )
        conn.close()
        with caplog.at_level("WARNING"):
            catalog = introspect(path)
        assert catalog.foreign_keys == (ForeignKeyDef("b", "a_id", "a", "id"),)
        assert "dropping unresolvable foreign key b.other_id" in caplog.text

    def test_introspect_output_validates(self, toy_db):
        introspect(toy_db).validate()

    def test_rowid_only_table(self, tmp_path):
        path = tmp_path / "rowid.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE notes (body TEXT)")
        conn.close()
        catalog = introspect(path)
        assert catalog.table("notes").primary_key == ()


class TestValidate:
    def test_duplicate_table_name(self):
        catalog = SchemaCatalog(
            "d",
            tables=(
                TableDef("t", (ColumnDef("a", "TEXT"),)),
                TableDef("T", (ColumnDef("a", "TEXT"),)),
            ),
        )
        with pytest.raises(CatalogError, match="duplicate table"):
            catalog.validate()

    def test_primary_key_must_exist(self):
        catalog = SchemaCatalog(
            "d",
            tables=(TableDef("t", (ColumnDef("a", "TEXT"),), primary_key=("b",)),),
        )
        with pytest.raises(CatalogError):
            catalog.validate()

    def test_fk_endpoints_must_exist(self):
        catalog = SchemaCatalog(
            "d",
            tables=(TableDef("t", (ColumnDef("a", "TEXT"),)),),
            foreign_keys=(ForeignKeyDef("t", "a", "missing", "x"),),
        )
        with pytest.raises(CatalogError):
            catalog.validate()


PREDICTION = {"users": ["user_id", "name"], "orders": ["user_id", "order_date"]}


class TestApplyFilter:
    def test_no_filtering_is_identity(self, toy_catalog):
        assert apply_filter(toy_catalog, PREDICTION, FilterLevel.NO_FILTERING) is toy_catalog

    def test_table_only_drops_unlisted_tables(self, toy_catalog):
        filtered = apply_filter(toy_catalog, PREDICTION, FilterLevel.TABLE_ONLY)
        assert filtered.table_names() == ("users", "orders")
        assert filtered.table("orders").column_names() == (
            "order_id", "user_id", "product_id", "quantity", "order_date",
        )
        # the edge into the dropped products table goes away
        assert filtered.foreign_keys == (
            ForeignKeyDef("orders", "user_id", "users", "user_id"),
        )

    def test_full_filtering_keeps_predicted_and_fk_columns(self, toy_catalog):
        filtered = apply_filter(toy_catalog, PREDICTION, FilterLevel.FULL_FILTERING)
        assert filtered.table("users").column_names() == ("user_id", "name")
        assert filtered.table("orders").column_names() == ("user_id", "order_date")
        assert filtered.foreign_keys == (
            ForeignKeyDef("orders", "user_id", "users", "user_id"),
        )

    def test_full_filtering_prunes_lost_primary_key(self, toy_catalog):
        filtered = apply_filter(toy_catalog, PREDICTION, FilterLevel.FULL_FILTERING)
        # order_id was not predicted and is not an FK endpoint
        assert filtered.table("orders").primary_key == ()

    def test_matching_is_case_insensitive(self, toy_catalog):
        prediction = {"USERS": ["USER_ID", "Name"]}
        filtered = apply_filter(toy_catalog, prediction, FilterLevel.FULL_FILTERING)
        assert filtered.table("users").column_names() == ("user_id", "name")

    def test_unknown_names_dropped_with_warning(self, toy_catalog, caplog):
        prediction = {"users": ["user_id", "shoe_size"], "invoices": ["x"]}
        with caplog.at_level("WARNING"):
            filtered = apply_filter(toy_catalog, prediction, FilterLevel.FULL_FILTERING)
        assert filtered.table_names() == ("users",)
        assert filtered.table("users").column_names() == ("user_id",)
        assert "shoe_size" in caplog.text
        assert "invoices" in caplog.text

    def test_accepts_object_with_selection_attribute(self, toy_catalog):
        class Holder:
            selection = PREDICTION

        filtered = apply_filter(toy_catalog, Holder(), FilterLevel.TABLE_ONLY)
        assert filtered.table_names() == ("users", "orders")

    def test_catalog_order_wins_over_prediction_order(self, toy_catalog):
        prediction = {"orders": ["order_date"], "users": ["name"]}
        filtered = apply_filter(toy_catalog, prediction, FilterLevel.TABLE_ONLY)
        assert filtered.table_names() == ("users", "orders")

    def test_empty_prediction_full_filtering_empties_catalog(self, toy_catalog):
        filtered = apply_filter(toy_catalog, {}, FilterLevel.FULL_FILTERING)
        assert filtered.table_names() == ()
        assert filtered.foreign_keys == ()
