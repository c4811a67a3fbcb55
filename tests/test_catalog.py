import sqlite3
import string
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from ensql import catalog as catalog_module
from ensql.catalog import (
    CatalogError,
    ColumnDef,
    FilterLevel,
    ForeignKeyDef,
    MalformedDatabaseError,
    SchemaCatalog,
    TableDef,
    UnreadableDatabaseError,
    _is_text_type,
    _quote_ident,
    _render_value,
    _sample_table,
    apply_filter,
    connect_read_only,
    fold_name,
    introspect,
)
from ensql.formats import RepresentationFormat, render_all
from ensql.linking import LinkingPrediction
from ensql.selection import ExecStatus, execute_candidate


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
        assert tuple(t.name for t in catalog.tables) == ("users", "products", "orders")

    def test_columns_and_foreign_keys_have_no_instance_dict(self, toy_db):
        catalog = introspect(toy_db)
        objects = [catalog.tables[0].columns[0], catalog.foreign_keys[0]]
        assert [type(o).__name__ for o in objects] == ["ColumnDef", "ForeignKeyDef"]
        assert not any(hasattr(o, "__dict__") for o in objects)

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

    @pytest.mark.parametrize("reference", ["Users(ID)", "USERS", "users(id)"])
    def test_fk_target_takes_the_catalog_spelling(self, tmp_path, reference):
        # orders comes first, so only the key can put users before it
        path = tmp_path / "spelled.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            f"""
            CREATE TABLE orders (oid INTEGER PRIMARY KEY,
                                 user_id INTEGER REFERENCES {reference});
            CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT);
            """
        )
        conn.close()
        catalog = introspect(path)
        assert catalog.foreign_keys == (ForeignKeyDef("orders", "user_id", "users", "id"),)
        texts = render_all(catalog)
        for fmt in (RepresentationFormat.COMPACT_TAGGED, RepresentationFormat.INLINE_TABLES,
                    RepresentationFormat.SQLALCHEMY):
            assert "users.id" in texts[fmt], fmt
        assert "REFERENCES users (id)" in texts[RepresentationFormat.DDL]
        assert '"referenced_table": "users"' in texts[RepresentationFormat.JSON_RAW]
        assert '"referenced_column": "id"' in texts[RepresentationFormat.JSON_RAW]
        for fmt, text in texts.items():
            assert "Users" not in text and "USERS" not in text and "ID)" not in text, fmt
        sqlalchemy = texts[RepresentationFormat.SQLALCHEMY]
        assert sqlalchemy.index("t_users =") < sqlalchemy.index("t_orders =")

    def test_introspect_output_validates(self, toy_db):
        introspect(toy_db).validate()

    def test_rowid_only_table(self, tmp_path):
        path = tmp_path / "rowid.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE notes (body TEXT)")
        conn.close()
        catalog = introspect(path)
        assert catalog.table("notes").primary_key == ()

    def test_invalid_utf8_samples_are_replaced(self, tmp_path):
        path = tmp_path / "notes.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT, tag BLOB)")
        conn.execute(
            "INSERT INTO notes VALUES (1, 'plain', 'a'), (2, CAST(x'ff61' AS TEXT), 'b'),"
            " (3, 'café', CAST(x'fe' AS TEXT)), (4, CAST(x'fe61' AS TEXT), 'c')"
        )
        conn.commit()
        conn.close()
        notes = introspect(path, sample_k=3).table("notes")
        body = notes.column("body")
        # two invalid byte strings that render alike are one value
        assert body.value_examples == ("plain", "\ufffda", "café")
        assert body.category_values == ("plain", "\ufffda", "café")
        assert notes.column("tag").value_examples == ("a", "b", "\ufffd")
        assert notes.column("tag").category_values is None

    def test_without_rowid_samples_follow_the_primary_key(self, tmp_path):
        # a secondary index that covers every column is not the scan order
        path = tmp_path / "keyed.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE keyed (id INTEGER PRIMARY KEY, label TEXT) WITHOUT ROWID;
            CREATE INDEX keyed_label ON keyed (label);
            INSERT INTO keyed VALUES (3, 'a'), (1, 'z'), (2, 'm');
            """
        )
        conn.close()
        keyed = introspect(path, sample_k=2).table("keyed")
        assert keyed.column("id").value_examples == ("1", "2")
        assert keyed.column("label").value_examples == ("z", "m")
        assert keyed.column("label").category_values == ("z", "m", "a")


def _reference_sample_table(
    conn, table_name, column_names, column_types, sample_k, category_threshold
):
    # the original one-pass row loop, kept verbatim as the oracle
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


# a cell is (SQL expression, parameter): invalid UTF-8 is bound as a blob and
# cast to text, which keeps its bytes
_CELLS = st.one_of(
    st.just(("?", None)),
    st.tuples(st.just("?"), st.integers(-3, 30) | st.sampled_from([2**63 - 1, -(2**53)])),
    st.tuples(st.just("?"), st.sampled_from([1.0, -0.0, 0.0, 2.5, -3.0, 1e20, 0.1, float("inf")])),
    st.tuples(st.just("?"), st.sampled_from(["1", "1.0", "A", "a", "x", "x ", "X", "", " é"])),
    st.tuples(st.just("?"), st.text("aAxX 1.", max_size=3)),
    st.tuples(st.just("?"), st.sampled_from([b"", b"\x00", b"1"])),
    st.tuples(st.just("CAST(? AS TEXT)"), st.sampled_from([b"\xff", b"\xfe", b"a\xff", b"\xff "])),
)
_TYPES = ["TEXT", "VARCHAR(8)", "INTEGER", "REAL", "NUMERIC", "BLOB", ""]
_COLLATIONS = ["", " COLLATE NOCASE", " COLLATE RTRIM"]


@st.composite
def _sampled_tables(draw):
    """A table of mixed cells, the DDL that makes it, and indexes to add."""
    width = draw(st.integers(1, 4))
    columns = [f"c{i}" for i in range(width)]
    decls = [
        f"{name} {draw(st.sampled_from(_TYPES))}{draw(st.sampled_from(_COLLATIONS))}"
        for name in columns
    ]
    without_rowid = draw(st.booleans())
    # k orders the rows of a WITHOUT ROWID table; text keys sort "10" < "2"
    keys = draw(st.permutations(range(draw(st.integers(0, 40)))))
    key_type = draw(st.sampled_from(["INTEGER", "TEXT"]))
    ddl = (
        f"CREATE TABLE t (k {key_type}{' PRIMARY KEY' if without_rowid else ''}, "
        + ", ".join(decls) + (") WITHOUT ROWID" if without_rowid else ")")
    )
    rows = [[("?", key)] + [draw(_CELLS) for _ in columns] for key in keys]
    indexes = draw(st.lists(
        st.lists(st.sampled_from(columns + ["k"]), min_size=1, unique=True), max_size=2
    ))
    if draw(st.booleans()):
        indexes.append(draw(st.permutations(["k"] + columns)))  # covers every column
    collate = draw(st.sampled_from(["", " COLLATE NOCASE"]))
    index_ddl = [
        f"CREATE INDEX i{n} ON t (" + ", ".join(c + collate for c in cols) + ")"
        for n, cols in enumerate(indexes)
    ]
    return ddl, rows, index_ddl


class TestSampleTableOracle:
    """_sample_table gives the original row loop's samples and categories."""

    # generated tables have 0-40 rows: a head of 1-3 rows ends inside most of
    # them (the per-column fallback) and exactly fills some
    @pytest.mark.parametrize("head_rows", [1, 2, 3, catalog_module._HEAD_ROWS])
    @settings(max_examples=150)
    @given(
        table=_sampled_tables(),
        sample_k=st.integers(0, 5),
        category_threshold=st.integers(0, 25),
    )
    def test_matches_the_row_loop(self, head_rows, table, sample_k, category_threshold):
        ddl, rows, index_ddl = table
        conn = sqlite3.connect(":memory:")
        try:
            conn.execute(ddl)
            for row in rows:
                conn.execute(
                    "INSERT INTO t VALUES (" + ", ".join(expr for expr, _ in row) + ")",
                    [value for _, value in row],
                )
            info = conn.execute("PRAGMA table_info(t)").fetchall()
            names, types = [r[1] for r in info], [r[2] for r in info]
            # the row loop read in the planner's order, which for a WITHOUT
            # ROWID table can be a covering index's, so it runs before any
            # secondary index exists: _sample_table keeps table order
            conn.text_factory = lambda raw: raw.decode("utf-8", "replace")
            expected = _reference_sample_table(
                conn, "t", names, types, sample_k, category_threshold
            )
            conn.text_factory = str
            for statement in index_ddl:
                conn.execute(statement)
            with mock.patch.object(catalog_module, "_HEAD_ROWS", head_rows):
                got = _sample_table(conn, "t", names, types, sample_k, category_threshold)
            assert got == expected
            assert conn.text_factory is str
        finally:
            conn.close()


class TestHeadRead:
    """Tables longer than the head read: what falls back, and what it holds."""

    def test_category_value_after_the_head_is_listed(self, tmp_path):
        path = tmp_path / "late.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT)")
        conn.executemany(
            "INSERT INTO t (tag) VALUES (?)",
            [("a",)] * catalog_module._HEAD_ROWS + [("b",)],
        )
        conn.commit()
        conn.close()
        tag = introspect(path, sample_k=3).table("t").column("tag")
        assert tag.value_examples == ("a", "b")
        assert tag.category_values == ("a", "b")

    def test_a_table_within_the_head_is_read_by_one_statement(self, toy_db):
        conn = connect_read_only(toy_db)
        statements = []
        conn.set_trace_callback(statements.append)
        try:
            info = conn.execute("PRAGMA table_info(orders)").fetchall()
            statements.clear()
            _sample_table(conn, "orders", [r[1] for r in info], [r[2] for r in info], 3, 20)
        finally:
            conn.close()
        assert [s for s in statements if s.startswith("SELECT")] == [
            'SELECT "order_id", "user_id", "product_id", "quantity", "order_date"'
            ' FROM "orders" NOT INDEXED'
        ]

    def test_blobs_past_the_head_are_never_held(self, tmp_path, monkeypatch):
        # ten rows of about 1 MB each, read through a head of four rows and
        # the blob column's fallback: neither may hold more than a row or two
        monkeypatch.setattr(catalog_module, "_HEAD_ROWS", 4)
        path = tmp_path / "blobs.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, label TEXT, body BLOB)")
        conn.executemany(
            "INSERT INTO t (label, body) VALUES (?, randomblob(1000000))",
            [(f"row {n % 3}",) for n in range(10)],
        )
        conn.commit()
        conn.close()
        tracemalloc.start()
        try:
            t = introspect(path).table("t")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t.column("body").value_examples == ()
        assert t.column("label").category_values == ("row 0", "row 1", "row 2")
        assert peak < 3_500_000


@pytest.mark.parametrize("directory", ["x#y", "a?b", "%41", "with space"])
def test_paths_that_are_not_uri_safe_open_read_only(tmp_path, directory):
    path = tmp_path / directory / "shop.sqlite"
    path.parent.mkdir()
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT)")
    conn.execute("INSERT INTO items VALUES (1, 'pen')")
    conn.commit()
    conn.close()
    before = sorted(tmp_path.rglob("*"))
    assert tuple(t.name for t in introspect(path).tables) == ("items",)
    result = execute_candidate("SELECT name FROM items", str(path))
    assert result.status is ExecStatus.OK and result.preview == "1 row(s): ('pen',)"
    ro = connect_read_only(path)
    try:
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            ro.execute("CREATE TABLE stray (x)")
    finally:
        ro.close()
    assert sorted(tmp_path.rglob("*")) == before


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
        assert tuple(t.name for t in filtered.tables) == ("users", "orders")
        assert tuple(c.name for c in filtered.table("orders").columns) == (
            "order_id", "user_id", "product_id", "quantity", "order_date",
        )
        # the edge into the dropped products table goes away
        assert filtered.foreign_keys == (
            ForeignKeyDef("orders", "user_id", "users", "user_id"),
        )

    def test_full_filtering_keeps_predicted_and_fk_columns(self, toy_catalog):
        filtered = apply_filter(toy_catalog, PREDICTION, FilterLevel.FULL_FILTERING)
        assert tuple(c.name for c in filtered.table("users").columns) == ("user_id", "name")
        assert tuple(c.name for c in filtered.table("orders").columns) == ("user_id", "order_date")
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
        assert tuple(c.name for c in filtered.table("users").columns) == ("user_id", "name")

    def test_unknown_names_dropped_with_warning(self, toy_catalog, caplog):
        prediction = {"users": ["user_id", "shoe_size"], "invoices": ["x"]}
        with caplog.at_level("WARNING"):
            filtered = apply_filter(toy_catalog, prediction, FilterLevel.FULL_FILTERING)
        assert tuple(t.name for t in filtered.tables) == ("users",)
        assert tuple(c.name for c in filtered.table("users").columns) == ("user_id",)
        assert "shoe_size" in caplog.text
        assert "invoices" in caplog.text

    def test_accepts_object_with_selection_attribute(self, toy_catalog):
        class Holder:
            selection = PREDICTION

        filtered = apply_filter(toy_catalog, Holder(), FilterLevel.TABLE_ONLY)
        assert tuple(t.name for t in filtered.tables) == ("users", "orders")

    def test_catalog_order_wins_over_prediction_order(self, toy_catalog):
        prediction = {"orders": ["order_date"], "users": ["name"]}
        filtered = apply_filter(toy_catalog, prediction, FilterLevel.TABLE_ONLY)
        assert tuple(t.name for t in filtered.tables) == ("users", "orders")

    def test_empty_prediction_full_filtering_empties_catalog(self, toy_catalog):
        filtered = apply_filter(toy_catalog, {}, FilterLevel.FULL_FILTERING)
        assert tuple(t.name for t in filtered.tables) == ()
        assert filtered.foreign_keys == ()


KELVIN = "\u212a"  # the Kelvin sign folds to "k" under str.lower, but SQLite keeps it apart
_ASCII_SWAP = str.maketrans(string.ascii_letters, string.ascii_letters.swapcase())


class TestNameRule:
    """Names compare as SQLite compares them: A-Z folded, nothing else."""

    def test_fold_name_folds_ascii_letters_only(self):
        assert fold_name("Users_ID") == "users_id"
        assert fold_name(KELVIN) == KELVIN
        assert fold_name("\u0130\u0131\u00df\u00c9") == "\u0130\u0131\u00df\u00c9"

    def test_kelvin_sign_and_k_are_two_tables(self, tmp_path):
        path = tmp_path / "kel.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            f"""
            CREATE TABLE k (a INTEGER PRIMARY KEY, b TEXT);
            CREATE TABLE "{KELVIN}" (a INTEGER PRIMARY KEY, "{KELVIN}b" TEXT,
                                     k_a INTEGER REFERENCES k(a));
            INSERT INTO k VALUES (1, 'x');
            INSERT INTO "{KELVIN}" VALUES (1, 'y', 1);
            """
        )
        conn.close()
        catalog = introspect(path)
        assert tuple(t.name for t in catalog.tables) == ("k", KELVIN)
        assert catalog.table("K").name == "k"
        assert catalog.table(KELVIN).column(KELVIN + "B").name == KELVIN + "b"
        texts = render_all(catalog)
        assert len(texts) == len(RepresentationFormat)
        for fmt, text in texts.items():  # json_raw escapes the sign
            assert KELVIN in text or "\\u212a" in text, fmt
        both = apply_filter(
            catalog, {"K": ["b"], KELVIN: [KELVIN + "b"]}, FilterLevel.FULL_FILTERING
        )
        assert tuple(t.name for t in both.tables) == ("k", KELVIN)
        # a: the key's endpoint
        assert tuple(c.name for c in both.table("k").columns) == ("a", "b")
        assert tuple(c.name for c in both.table(KELVIN).columns) == (KELVIN + "b", "k_a")
        one = apply_filter(catalog, {KELVIN: []}, FilterLevel.TABLE_ONLY)
        assert tuple(t.name for t in one.tables) == (KELVIN,)
        assert LinkingPrediction({"K": [], KELVIN: []}).tables() == {"k", KELVIN}

    @given(data=st.data())
    def test_sqlite_names_introspect_look_up_and_filter(self, data):
        names = st.text("kK\u212aiI\u0131\u0130\u00dfsS_", min_size=1, max_size=3)
        drawn = data.draw(st.lists(
            st.tuples(names, st.lists(names, min_size=1, max_size=3)), min_size=1, max_size=4
        ))
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "names.sqlite"
            conn = sqlite3.connect(path)
            created: list[tuple[str, list[str]]] = []
            try:
                for table, columns in drawn:
                    try:
                        conn.execute(
                            f"CREATE TABLE {_quote_ident(table)} ("
                            + ", ".join(_quote_ident(c) for c in columns) + ")"
                        )
                    except sqlite3.OperationalError:
                        continue  # a name SQLite takes for one already there
                    created.append((table, columns))
            finally:
                conn.close()
            assume(created)
            catalog = introspect(path)
        assert tuple(t.name for t in catalog.tables) == tuple(table for table, _ in created)
        for table, columns in created:
            for spelling in (table, table.translate(_ASCII_SWAP)):
                assert catalog.table(spelling).name == table
            for column in columns:
                for spelling in (column, column.translate(_ASCII_SWAP)):
                    assert catalog.table(table).column(spelling).name == column

        picked = data.draw(st.lists(st.sampled_from(created), unique_by=lambda tc: tc[0]))
        prediction = {
            data.draw(st.sampled_from([table, table.translate(_ASCII_SWAP)])): [
                column.translate(_ASCII_SWAP) for column in data.draw(
                    st.lists(st.sampled_from(columns), unique=True)
                )
            ]
            for table, columns in picked
        }
        filtered = apply_filter(catalog, prediction, FilterLevel.FULL_FILTERING)
        kept = {fold_name(t): {fold_name(c) for c in cols} for t, cols in prediction.items()}
        assert tuple(t.name for t in filtered.tables) == tuple(
            table for table, _ in created if fold_name(table) in kept
        )
        for t in filtered.tables:
            assert tuple(c.name for c in t.columns) == tuple(
                c.name for c in catalog.table(t.name).columns
                if fold_name(c.name) in kept[fold_name(t.name)]
            )
