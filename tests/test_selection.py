import hashlib
import itertools
import json
import math
import random
import sqlite3
import tempfile
import time
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from ensql import catalog, selection
from ensql.gateway import CostLedger, LlmGateway
from ensql.generation import SqlCandidate
from ensql.selection import (
    Confidence,
    Decision,
    ExecStatus,
    ExecutionResult,
    MissingPolicyError,
    PairwiseJudge,
    SelectionMethod,
    confidence_policy,
    execute_candidate,
    group_votes,
    normalize_result,
    open_read_only,
    pairwise_select,
    parse_judge_reply,
    select,
)

from helpers import ScriptedBackend, parse_judge_prompt, recorded


class TestNormalizeResult:
    def test_row_order_ignored(self):
        assert normalize_result([(1, "a"), (2, "b")]) == normalize_result(
            [(2, "b"), (1, "a")]
        )

    def test_column_order_matters(self):
        assert normalize_result([(1, "a")]) != normalize_result([("a", 1)])

    def test_duplicates_preserved(self):
        assert normalize_result([(1,), (1,)]) != normalize_result([(1,)])

    def test_int_float_unified(self):
        assert normalize_result([(1,)]) == normalize_result([(1.0,)])

    def test_float_rounded_to_six_places(self):
        assert normalize_result([(0.1 + 0.2,)]) == normalize_result([(0.3,)])
        assert normalize_result([(1.0000001,)]) == normalize_result([(1.0,)])
        assert normalize_result([(1.000001,)]) != normalize_result([(1.0,)])

    def test_null_distinct_from_empty_string(self):
        assert normalize_result([(None,)]) != normalize_result([("",)])

    def test_text_case_sensitive(self):
        assert normalize_result([("a",)]) != normalize_result([("A",)])

    def test_bytes_supported(self):
        assert normalize_result([(b"\x00\xff",)]) == normalize_result([(b"\x00\xff",)])
        assert normalize_result([(b"a",)]) != normalize_result([("a",)])

    def test_numeric_string_distinct_from_number(self):
        assert normalize_result([("1",)]) != normalize_result([(1,)])


def _reference_canonical_cell(value, precision):
    # the original per-cell canonicalization, kept verbatim as the oracle
    if value is None:
        return "null"
    if isinstance(value, bool):
        return f"int:{int(value)}"
    if isinstance(value, int):
        return f"int:{value}"
    if isinstance(value, float):
        if not math.isfinite(value):
            return f"num:{value!r}"
        rounded = round(value, precision)
        if rounded == int(rounded):
            return f"int:{int(rounded)}"
        return f"num:{rounded:.{precision}f}"
    if isinstance(value, bytes):
        return "bytes:" + value.hex()
    return "text:" + str(value)


def _reference_normalize_result(rows, precision=6):
    canon_rows = sorted(
        json.dumps([_reference_canonical_cell(v, precision) for v in row]) for row in rows
    )
    return hashlib.sha256("\n".join(canon_rows).encode("utf-8")).hexdigest()


_ORACLE_CELLS = (
    None, True, False, 0, 1, -1, 2**63 - 1, -(2**70),
    0.0, -0.0, 1.0, -3.0, 1e300, 0.1 + 0.2, 1.0000001, 1.000001, 2.5e-7, -123.4567891,
    math.nan, math.inf, -math.inf,
    b"", b"\x00\xff", b"a",
    "", "a", "A", "1", "1.0", "null", "int:1", "é", "日本語", "🙂", "\u2028",
    'say "hi"', "back\\slash", "new\nline", "tab\t", "\x00", "\x7f",
)


class TestNormalizeResultOracle:
    """normalize_result gives the original implementation's digest, bit for bit."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_results_match_the_reference(self, seed):
        rng = random.Random(seed)
        width = rng.randint(0, 4)
        rows = [
            tuple(rng.choice(_ORACLE_CELLS) for _ in range(width))
            for _ in range(rng.randint(0, 60))
        ]
        for precision in (6, 2, 0):
            assert normalize_result(rows, precision) == _reference_normalize_result(
                rows, precision
            )

    @pytest.mark.parametrize("rows", [
        [],
        [()],
        [(), ()],
        [tuple(_ORACLE_CELLS)],
        [(v,) for v in _ORACLE_CELLS],
        [(v, v) for v in _ORACLE_CELLS] * 3,
        [(0.0,), (-0.0,), (0,), (False,)],
        [(1,), (True,), (1.0,), ("1",), (b"1",)],
    ])
    def test_edge_results_match_the_reference(self, rows):
        assert normalize_result(rows) == _reference_normalize_result(rows)

    def test_memo_limit_keeps_the_digest(self, monkeypatch):
        rows = [(i % 7, f"v{i}", i / 3) for i in range(200)]
        monkeypatch.setattr(selection, "_CELL_MEMO_LIMIT", 5)
        assert normalize_result(rows) == _reference_normalize_result(rows)


_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(),
    st.text(max_size=4),
    st.binary(max_size=3),
)
_ROWS = st.integers(0, 3).flatmap(
    lambda width: st.lists(st.tuples(*[_CELLS] * width), max_size=30)
)


def _cut(rows, cuts):
    """rows split at the given positions, as feed batches."""
    bounds = [0, *sorted(cuts), len(rows)]
    return [rows[start:end] for start, end in zip(bounds, bounds[1:])]


class TestCanonicalizationProperties:
    @given(rows=_ROWS, data=st.data())
    def test_digest_ignores_row_order_and_batching(self, rows, data):
        shuffled = data.draw(st.permutations(rows))
        cuts = data.draw(st.lists(st.integers(0, len(rows)), max_size=5))
        canonicalizer = selection._Canonicalizer(6)
        for batch in _cut(shuffled, cuts):
            canonicalizer.feed(batch)
        assert canonicalizer.digest() == normalize_result(rows)

    @given(
        rows=st.lists(st.lists(st.integers(-(2**53), 2**53), min_size=1, max_size=3), max_size=20),
        data=st.data(),
    )
    def test_ints_equal_whole_floats(self, rows, data):
        as_floats = [
            tuple(float(v) if data.draw(st.booleans()) else v for v in row) for row in rows
        ]
        assert normalize_result(as_floats) == normalize_result(rows)

    @given(rows=_ROWS, data=st.data())
    def test_null_never_equals_empty_string(self, rows, data):
        nulls = [(i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v is None]
        assume(nulls)
        i, j = data.draw(st.sampled_from(nulls))
        swapped = list(rows)
        swapped[i] = rows[i][:j] + ("",) + rows[i][j + 1:]
        assert normalize_result(swapped) != normalize_result(rows)

    @given(
        pool=st.lists(_CELLS, min_size=1, max_size=8),
        rng=st.randoms(use_true_random=False),
        row_count=st.integers(selection._FETCH_BATCH + 1, selection._FETCH_BATCH + 80),
        data=st.data(),
    )
    def test_execution_matches_a_plain_fetch(self, pool, rng, row_count, data):
        # invalid UTF-8 before and after the first batch boundary
        bad_rows = {
            data.draw(st.integers(0, selection._FETCH_BATCH - 1)),
            data.draw(st.integers(selection._FETCH_BATCH, row_count - 1)),
        }
        with tempfile.TemporaryDirectory() as directory:
            path = str(Path(directory) / "cells.sqlite")
            conn = sqlite3.connect(path)
            conn.execute("CREATE TABLE t (a, b)")
            for i in range(row_count):
                cells = (rng.choice(pool), rng.choice(pool))
                if i in bad_rows:
                    conn.execute("INSERT INTO t VALUES (CAST(? AS TEXT), ?)", (b"x\xff", cells[1]))
                else:
                    conn.execute("INSERT INTO t VALUES (?, ?)", cells)
            conn.commit()
            conn.text_factory = lambda raw: raw.decode("utf-8", "replace")
            rows = conn.execute("SELECT a, b FROM t").fetchall()
            conn.close()
            result = execute_candidate("SELECT a, b FROM t", path)
        assert result.ok
        assert result.row_count == row_count
        assert result.signature == normalize_result(rows)


class TestExecuteCandidate:
    def test_ok_result(self, toy_db):
        result = execute_candidate("SELECT COUNT(*) FROM users", toy_db)
        assert result.ok
        assert result.row_count == 1
        assert result.preview == "1 row(s): (4,)"
        assert result.elapsed_ms is not None

    def test_bad_sql_is_an_error_result(self, toy_db):
        result = execute_candidate("SELECT FROM WHERE", toy_db)
        assert result.status is ExecStatus.ERROR
        assert "OperationalError" in result.error_text

    def test_unknown_table_error(self, toy_db):
        result = execute_candidate("SELECT * FROM nothere", toy_db)
        assert result.status is ExecStatus.ERROR
        assert "nothere" in result.error_text

    def test_write_statements_rejected(self, toy_db):
        result = execute_candidate("DELETE FROM orders", toy_db)
        assert result.status is ExecStatus.ERROR
        with_count = execute_candidate("SELECT COUNT(*) FROM orders", toy_db)
        assert with_count.preview == "1 row(s): (5,)"

    def test_timeout(self, toy_db):
        slow = (
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r) "
            "SELECT COUNT(*) FROM r"
        )
        result = execute_candidate(slow, toy_db, timeout_s=0.2)
        assert result.status is ExecStatus.TIMEOUT
        assert "timeout after 0.2s" in result.error_text

    def test_preview_caps_rows(self, toy_db):
        result = execute_candidate("SELECT order_id FROM orders", toy_db,
                                   preview_limit=2)
        assert result.preview == "5 row(s): (1,); (2,)"
        assert result.row_count == 5

    def test_group_keys(self, toy_db):
        ok = execute_candidate("SELECT 1", toy_db)
        err = execute_candidate("SELECT * FROM ghost", toy_db)
        assert ok.group_key().startswith("ok:")
        assert err.group_key() == "error:OperationalError"


    def test_attach_is_refused_and_creates_no_file(self, toy_db, tmp_path):
        target = tmp_path / "attached.sqlite"
        result = execute_candidate(f"ATTACH DATABASE '{target}' AS e", toy_db)
        assert result.status is ExecStatus.ERROR
        assert "not authorized" in result.error_text
        assert not target.exists()

    @pytest.mark.parametrize("pragma", [
        "PRAGMA query_only=0",
        "PRAGMA journal_mode=DELETE",
        "PRAGMA user_version=7",
    ])
    def test_state_changing_pragma_is_refused(self, toy_db, pragma):
        result = execute_candidate(pragma, toy_db)
        assert result.status is ExecStatus.ERROR
        assert "not authorized" in result.error_text

    @pytest.mark.parametrize("statement", [
        "CREATE TABLE t (a)",
        "DROP TABLE orders",
        "UPDATE users SET name = 'x'",
        "BEGIN",
    ])
    def test_writes_and_transactions_are_refused(self, toy_db, statement):
        result = execute_candidate(statement, toy_db)
        assert result.status is ExecStatus.ERROR
        assert "not authorized" in result.error_text

    @pytest.mark.parametrize("statement", [
        "", ";", "-- cannot answer", "/* none */ ;", "REINDEX NOCASE", "REINDEX BINARY",
    ])
    def test_a_statement_with_no_columns_is_an_error(self, toy_db, statement):
        result = execute_candidate(statement, toy_db)
        assert result.group_key() == "error:ProgrammingError"
        assert "returns no columns" in result.error_text

    def test_recursive_ctes_and_functions_still_run(self, toy_db):
        result = execute_candidate(
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < 4) "
            "SELECT SUM(n), UPPER('x'), ROUND(AVG(n), 1), COUNT(*) FROM r",
            toy_db,
        )
        assert result.ok
        assert result.preview == "1 row(s): (10, 'X', 2.5, 4)"
        joined = execute_candidate(
            "SELECT u.name, SUM(o.quantity) FROM users u JOIN orders o "
            "ON o.user_id = u.user_id GROUP BY u.name ORDER BY u.name LIMIT 1",
            toy_db,
        )
        assert joined.preview == "1 row(s): ('Alice', 3)"


# statements a candidate must never run, drawn from writes, schema changes,
# other files, settings, transaction control and maintenance; {dir} stands
# for the database's directory
_VALUES = st.sampled_from(["1", "-2", "'x'", "NULL", "x'00'", "(SELECT max(a) FROM t)"])
_NEW_NAMES = st.sampled_from(["fresh", "t2", "main.fresh", "temp.t2"])
_TEMP = st.sampled_from(["", "TEMP ", "TEMPORARY "])
_FILES = st.sampled_from(["other.sqlite", "copy.db", "x"]).map(lambda name: f"'{{dir}}/{name}'")
_WRITES = st.one_of(
    st.builds("INSERT INTO t (b) VALUES ({})".format, _VALUES),
    st.builds("REPLACE INTO t VALUES (1, {})".format, _VALUES),
    st.builds("UPDATE t SET b = {}".format, _VALUES),
    st.builds("DELETE FROM t WHERE a = {}".format, _VALUES),
    st.builds("INSERT INTO t (b) SELECT {} FROM t RETURNING a".format, _VALUES),
)
_SCHEMA_CHANGES = st.one_of(
    st.builds("CREATE {}TABLE {} (x)".format, _TEMP, _NEW_NAMES),
    st.builds("CREATE {}TABLE {} AS SELECT * FROM t".format, _TEMP, _NEW_NAMES),
    st.builds("CREATE {}VIEW {} AS SELECT a FROM t".format, _TEMP, _NEW_NAMES),
    st.builds("CREATE {}TRIGGER {} AFTER INSERT ON t BEGIN DELETE FROM t; END".format,
              _TEMP, _NEW_NAMES),
    st.builds("CREATE INDEX {} ON t (a)".format, _NEW_NAMES),
    st.sampled_from([
        "DROP TABLE t", "DROP INDEX t_b", "DROP VIEW v", "DROP TRIGGER tr",
        "ALTER TABLE t ADD COLUMN c", "ALTER TABLE t RENAME TO t9",
        "ALTER TABLE t RENAME COLUMN b TO c", "ALTER TABLE t DROP COLUMN b",
    ]),
)
_OTHER_FILES = st.one_of(
    st.builds("ATTACH DATABASE {} AS {}".format, _FILES, st.sampled_from(["other", "aux"])),
    st.builds("VACUUM INTO {}".format, _FILES),
    st.sampled_from(["VACUUM", "VACUUM main", "ATTACH ':memory:' AS m", "DETACH other"]),
)
_PRAGMAS = st.builds(
    "PRAGMA {} = {}".format,
    st.sampled_from([
        "user_version", "main.application_id", "schema_version", "journal_mode",
        "query_only", "writable_schema", "foreign_keys", "locking_mode", "synchronous",
    ]),
    st.sampled_from(["0", "1", "7", "OFF", "WAL", "DELETE", "EXCLUSIVE"]),
)
_TRANSACTIONS = st.sampled_from([
    "BEGIN", "BEGIN IMMEDIATE", "BEGIN EXCLUSIVE TRANSACTION", "COMMIT", "END",
    "ROLLBACK", "SAVEPOINT s", "RELEASE s", "RELEASE SAVEPOINT s", "ROLLBACK TO s",
])
_MAINTENANCE = st.sampled_from([
    "REINDEX", "REINDEX NOCASE", "REINDEX BINARY", "REINDEX RTRIM", "REINDEX t",
    "REINDEX t_b", "REINDEX main.t_b", "ANALYZE", "ANALYZE t", "ANALYZE main",
])
_STATEMENTS = st.one_of(
    _WRITES, _SCHEMA_CHANGES, _OTHER_FILES, _PRAGMAS, _TRANSACTIONS, _MAINTENANCE
)

# alone, after a query, before a query, behind a WITH clause, after a comment
_PLACEMENTS = (
    "{}",
    "SELECT 1; {}",
    "{}; SELECT 1",
    "WITH w AS (SELECT 1) {}",
    "-- a note\n{}",
)


def _guarded_db(directory: Path) -> Path:
    """A database with every kind of schema object, alone in directory."""
    path = directory / "guarded.sqlite"
    with closing(sqlite3.connect(path)) as conn:
        conn.executescript("""
            CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT);
            CREATE INDEX t_b ON t (b COLLATE NOCASE);
            CREATE VIEW v AS SELECT b FROM t;
            CREATE TRIGGER tr AFTER UPDATE ON t BEGIN SELECT 1; END;
            INSERT INTO t (b) VALUES ('x'), ('Y'), (NULL);
        """)
    return path


class TestReadOnlyProperty:
    # the profile's 40 examples draw only REINDEX NOCASE among the collation
    # names, which fails here because it must rebuild t_b; 100 draw one that
    # runs, as a statement that returns no columns
    @settings(max_examples=100)
    @given(statement=_STATEMENTS)
    def test_no_statement_runs(self, statement):
        # each placement runs on a fresh connection, then on one connection
        # that all the placements share, which must give the same result
        with tempfile.TemporaryDirectory() as directory:
            db = _guarded_db(Path(directory))
            statement = statement.replace("{dir}", directory)
            digest = hashlib.sha256(db.read_bytes()).hexdigest()
            with closing(open_read_only(db)) as conn:
                for placement in _PLACEMENTS:
                    sql = placement.format(statement)
                    result = execute_candidate(sql, db)
                    assert result.status is ExecStatus.ERROR, (sql, result)
                    assert recorded(execute_candidate(sql, conn)) == recorded(result), sql
                    assert hashlib.sha256(db.read_bytes()).hexdigest() == digest, sql
                    assert [p.name for p in db.parent.iterdir()] == [db.name], sql


def _slow_cells(monkeypatch, seconds):
    """Make every cell canonicalization busy-wait for the given time."""
    original = selection._canonical_cell

    def slow(value, precision):
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            pass
        return original(value, precision)

    monkeypatch.setattr(selection, "_canonical_cell", slow)


def _count_passes(monkeypatch):
    """Every fetch pass execute_candidate makes, as the text factory it used."""
    passes = []
    original = selection._stream

    def counted(conn, *args):
        passes.append(conn.text_factory)
        return original(conn, *args)

    monkeypatch.setattr(selection, "_stream", counted)
    return passes


# rows of long_notes, and the one whose text is not valid UTF-8
_LONG_ROWS = 1500
_BAD_ROW = 700


@pytest.fixture(scope="module")
def notes_db(tmp_path_factory):
    path = tmp_path_factory.mktemp("notes") / "notes.sqlite"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT)")
    conn.execute(
        "INSERT INTO notes VALUES "
        "(1, 'plain'), (2, CAST(x'ff61' AS TEXT)), (3, 'café'), (4, NULL)"
    )
    conn.execute("CREATE TABLE long_notes (id INTEGER PRIMARY KEY, body TEXT)")
    conn.executemany(
        "INSERT INTO long_notes VALUES (?, ?)",
        ((i, f"note {i}") for i in range(1, _LONG_ROWS + 1)),
    )
    conn.execute(
        "UPDATE long_notes SET body = CAST(x'6e6f7465ff' AS TEXT) WHERE id = ?", (_BAD_ROW,)
    )
    conn.commit()
    conn.close()
    return str(path)


class TestBoundedStreaming:
    def test_invalid_utf8_matches_the_replace_decoder(self, notes_db):
        result = execute_candidate("SELECT id, body FROM notes", notes_db)
        assert result.ok
        assert result.row_count == 4
        # the digest of the engine that decoded every text cell with
        # errors="replace"
        assert result.signature == (
            "643a66e9c0f815c205f88b8fb34b3e4c54d30a4fcf06e5eac715a323b9feb77c"
        )
        assert result.preview == (
            "4 row(s): (1, 'plain'); (2, '\ufffda'); (3, 'café'); (4, None)"
        )

    def test_only_invalid_utf8_takes_a_second_pass(self, notes_db, monkeypatch):
        passes = _count_passes(monkeypatch)
        valid = execute_candidate("SELECT id, body FROM notes WHERE id != 2", notes_db)
        assert valid.preview == "3 row(s): (1, 'plain'); (3, 'café'); (4, None)"
        assert passes == [str]
        execute_candidate("SELECT body FROM notes WHERE id = 2", notes_db)
        assert passes[1:] == [str, catalog._decode_replacing]

    def test_invalid_cell_after_the_first_batch_restarts_cleanly(self, notes_db, monkeypatch):
        assert selection._FETCH_BATCH < _BAD_ROW < _LONG_ROWS
        passes = _count_passes(monkeypatch)
        result = execute_candidate("SELECT id, body FROM long_notes", notes_db)
        conn = sqlite3.connect(notes_db)
        conn.text_factory = lambda raw: raw.decode("utf-8", "replace")
        rows = conn.execute("SELECT id, body FROM long_notes").fetchall()
        conn.close()
        assert rows[_BAD_ROW - 1] == (_BAD_ROW, "note\ufffd")
        assert result.ok
        assert result.row_count == _LONG_ROWS
        assert result.signature == _reference_normalize_result(rows)
        assert result.preview == f"{_LONG_ROWS} row(s): " + "; ".join(
            f"({i}, 'note {i}')" for i in range(1, 6)
        )
        assert len(passes) == 2

    def test_the_second_pass_keeps_the_first_deadline(self, notes_db, monkeypatch):
        # 1 ms per cell: the first pass meets the bad cell after ~0.3 s, and
        # a whole second pass would take ~0.9 s more
        monkeypatch.setattr(selection, "_FETCH_BATCH", 16)
        passes = _count_passes(monkeypatch)
        _slow_cells(monkeypatch, 0.001)
        result = execute_candidate(
            "SELECT id, body FROM long_notes "
            f"WHERE id BETWEEN {_BAD_ROW - 150} AND {_BAD_ROW + 300}",
            notes_db, timeout_s=0.6,
        )
        assert len(passes) == 2
        assert result.status is ExecStatus.TIMEOUT
        assert result.error_text == "timeout after 0.6s"
        # a fresh budget for the second pass would end past 0.3 + 0.6 s
        assert result.elapsed_ms < 850

    def test_timeout_bounds_fetch_and_canonicalization(self, notes_db, monkeypatch):
        # SQLite yields these rows in too few VM steps for its progress
        # handler to stop them; canonicalizing them at 1 ms per cell takes
        # ~1.4 s, so only the checks between batches can end it in time
        monkeypatch.setattr(selection, "_FETCH_BATCH", 16, raising=False)
        _slow_cells(monkeypatch, 0.001)
        started = time.monotonic()
        result = execute_candidate(
            f"SELECT id, body FROM long_notes WHERE id < {_BAD_ROW}", notes_db, timeout_s=0.3
        )
        assert time.monotonic() - started < 0.8
        assert result.status is ExecStatus.TIMEOUT
        assert result.error_text == "timeout after 0.3s"
        assert result.elapsed_ms < 800


# every statement TestExecuteCandidate refuses, and several statements at
# once; {dir} is a directory beside the database
_REFUSED = (
    "DELETE FROM orders",
    "ATTACH DATABASE '{dir}/attached.sqlite' AS e",
    "PRAGMA query_only=0",
    "PRAGMA journal_mode=DELETE",
    "PRAGMA user_version=7",
    "CREATE TABLE t (a)",
    "DROP TABLE orders",
    "UPDATE users SET name = 'x'",
    "BEGIN",
    "SELECT 1; SELECT 2",
    "SELECT 1; DELETE FROM orders",
    "", ";", "-- cannot answer", "/* none */ ;", "REINDEX NOCASE", "REINDEX BINARY",
)

# more VM steps than the progress handler's interval, so a stale deadline
# would interrupt it
_LONG_COUNT = (
    "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < 20000) "
    "SELECT COUNT(*) FROM r"
)


class TestReusedConnection:
    """A statement on a reused connection gives what a fresh connection gives."""

    def test_every_refusal_in_a_row_on_one_connection(self, toy_db, tmp_path):
        good = "SELECT order_id, quantity FROM orders ORDER BY order_id"
        digest = hashlib.sha256(Path(toy_db).read_bytes()).hexdigest()
        with closing(open_read_only(toy_db)) as conn:
            for statement in _REFUSED:
                sql = statement.format(dir=tmp_path)
                result = execute_candidate(sql, conn)
                assert result.status is ExecStatus.ERROR, sql
                assert recorded(result) == recorded(execute_candidate(sql, toy_db)), sql
                assert recorded(execute_candidate(good, conn)) == recorded(
                    execute_candidate(good, toy_db)
                ), sql
        assert list(tmp_path.iterdir()) == []
        assert hashlib.sha256(Path(toy_db).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("first, timeout_s", [
        pytest.param("DELETE FROM notes", 30.0, id="refused"),
        pytest.param("SELECT * FROM ghost", 30.0, id="failed"),
        pytest.param("SELECT body FROM notes WHERE id = 2", 30.0, id="invalid_utf8"),
        pytest.param(
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r) "
            "SELECT COUNT(*) FROM r", 0.2, id="timed_out",
        ),
    ])
    def test_the_next_statement_is_unaffected(self, notes_db, first, timeout_s):
        with closing(open_read_only(notes_db)) as conn:
            before = execute_candidate(first, conn, timeout_s=timeout_s)
            assert recorded(before) == recorded(
                execute_candidate(first, notes_db, timeout_s=timeout_s)
            )
            assert conn.text_factory is str
            for good in (_LONG_COUNT, "SELECT id, body FROM notes WHERE id != 2"):
                after = execute_candidate(good, conn)
                assert after.ok, (good, after)
                assert recorded(after) == recorded(execute_candidate(good, notes_db))


def _candidate(i, sql="SELECT 1", signature="sig", status=ExecStatus.OK,
               error_text=None):
    return SqlCandidate(
        spec_index=i,
        sql=sql,
        execution=ExecutionResult(
            status=status,
            signature=signature if status is ExecStatus.OK else None,
            row_count=1 if status is ExecStatus.OK else None,
            error_text=error_text,
        ),
    )


class TestGroupVotes:
    def test_groups_by_signature_sorted_by_size_then_first_member(self):
        groups = group_votes(["ok:x", "ok:y", "ok:y", "ok:x", "ok:z"])
        assert [(g.signature, g.count, g.members) for g in groups] == [
            ("ok:x", 2, (0, 3)),
            ("ok:y", 2, (1, 2)),
            ("ok:z", 1, (4,)),
        ]

    def test_errors_group_by_class(self):
        candidates = [
            _candidate(0, status=ExecStatus.ERROR, error_text="OperationalError: x"),
            _candidate(1, status=ExecStatus.ERROR, error_text="OperationalError: y"),
            _candidate(2, signature="s"),
        ]
        groups = group_votes([c.execution.group_key() for c in candidates])
        assert groups[0].count == 2
        assert not groups[0].is_ok
        assert groups[1].is_ok

    def test_unexecuted_candidate_rejected(self):
        bare = SqlCandidate(spec_index=0, sql="SELECT 1")
        with pytest.raises(ValueError, match="candidate 0 has no execution result"):
            select([bare])


def partitions(n, cap=None):
    if n == 0:
        yield ()
        return
    cap = n if cap is None else cap
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


class TestConfidencePolicy:
    ESCALATING = {(1, 1, 1, 1, 1), (2, 2, 1), (3, 2)}

    def test_every_partition_of_five(self):
        seen = set(partitions(5))
        assert len(seen) == 7
        for dist in seen:
            decision = confidence_policy(dist)
            expected = Decision.ESCALATE if dist in self.ESCALATING else Decision.ACCEPT_TOP
            assert decision is expected, dist

    def test_order_is_normalized(self):
        assert confidence_policy((1, 2, 2)) is Decision.ESCALATE
        assert confidence_policy((1, 4)) is Decision.ACCEPT_TOP

    def test_explicit_n_checked(self):
        with pytest.raises(ValueError):
            confidence_policy((3, 2), n=6)

    def test_unconfigured_count_raises(self):
        with pytest.raises(MissingPolicyError):
            confidence_policy((2, 1))

    def test_custom_rules(self):
        rules = {3: frozenset({(1, 1, 1)})}
        assert confidence_policy((1, 1, 1), rules=rules) is Decision.ESCALATE
        assert confidence_policy((2, 1), rules=rules) is Decision.ACCEPT_TOP

    def test_non_positive_votes_rejected(self):
        with pytest.raises(ValueError):
            confidence_policy((5, 0))


class TestParseJudgeReply:
    @pytest.mark.parametrize("text,expected", [
        ("A", "A"),
        ("b", "B"),
        ("(B)", "B"),
        ("a.", "A"),
        ("(b).", "B"),
        ("  A \n", "A"),
        ("Answer: A", None),
        ("both", None),
        ("", None),
    ])
    def test_variants(self, text, expected):
        assert parse_judge_reply(text) == expected


def length_judge():
    """Judge preferring the longer SQL, ties to A; mirrors the toy script."""
    def script(request):
        sql_a, sql_b = parse_judge_prompt(request.messages[0]["content"])
        return "A" if len(sql_a) >= len(sql_b) else "B"

    gateway = LlmGateway(ScriptedBackend(script), ledger=CostLedger())
    return PairwiseJudge(gateway, "scripted-judge"), gateway


class TestPairwiseSelect:
    def _finalists(self, sqls):
        return [
            _candidate(i, sql=sql, signature=f"s{i}") for i, sql in enumerate(sqls)
        ]

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_call_count_is_two_per_pair(self, m):
        judge, gateway = length_judge()
        finalists = self._finalists(["SELECT " + "x" * i for i in range(m)])
        _, calls = pairwise_select(finalists, [1] * m, judge, "q", "schema")
        assert calls == m * (m - 1)
        assert sum(row.calls for row in gateway.ledger.rows()) == calls

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_longest_wins_in_any_position(self, m):
        base = ["SELECT " + "x" * (2 * i) for i in range(m)]
        favorite = "SELECT " + "y" * 50
        for perm in itertools.permutations(range(m)):
            sqls = [base[j] for j in perm]
            for slot in range(m):
                trial = list(sqls)
                trial[slot] = favorite
                judge, _ = length_judge()
                winner, _ = pairwise_select(
                    self._finalists(trial), [1] * m, judge, "q", "schema"
                )
                assert winner == slot

    def test_judge_failure_splits_points_and_votes_break_tie(self):
        def silent(request):
            return "no idea"

        gateway = LlmGateway(ScriptedBackend(silent), ledger=CostLedger())
        judge = PairwiseJudge(gateway, "m")
        finalists = self._finalists(["SELECT 1", "SELECT 2"])
        winner, calls = pairwise_select(finalists, [2, 3], judge, "q", "s")
        assert calls == 2
        assert winner == 1  # all half points; more votes wins

    def test_all_even_falls_back_to_spec_order(self):
        def silent(request):
            return "no idea"

        gateway = LlmGateway(ScriptedBackend(silent), ledger=CostLedger())
        judge = PairwiseJudge(gateway, "m")
        finalists = self._finalists(["SELECT 1", "SELECT 2"])
        winner, _ = pairwise_select(finalists, [1, 1], judge, "q", "s")
        assert winner == 0

    def test_single_finalist_rejected(self):
        judge, _ = length_judge()
        with pytest.raises(ValueError):
            pairwise_select(self._finalists(["SELECT 1"]), [1], judge, "q", "s")


class TestSelect:
    def test_unanimous_accepts_without_judge(self):
        candidates = [_candidate(i, signature="same") for i in range(5)]
        outcome = select(candidates)
        assert outcome.chosen_index == 0
        assert outcome.confidence is Confidence.HIGH
        assert outcome.method is SelectionMethod.REGULAR_VOTE
        assert outcome.pairwise_calls == 0
        assert outcome.distribution == (5,)
        assert outcome.chosen_votes == 5

    def test_top_group_representative_is_lowest_index(self):
        candidates = [
            _candidate(0, signature="minor"),
            _candidate(1, signature="major"),
            _candidate(2, signature="major"),
            _candidate(3, signature="major"),
            _candidate(4, signature="major"),
        ]
        outcome = select(candidates)
        assert outcome.chosen_index == 1
        assert outcome.chosen_votes == 4

    def test_escalation_runs_tournament(self):
        judge, _ = length_judge()
        candidates = [
            _candidate(0, sql="SELECT a FROM t", signature="g1"),
            _candidate(1, sql="SELECT a FROM t", signature="g1"),
            _candidate(2, sql="SELECT a FROM t", signature="g1"),
            _candidate(3, sql="SELECT a, b FROM t ORDER BY a", signature="g2"),
            _candidate(4, sql="SELECT a, b FROM t ORDER BY a", signature="g2"),
        ]
        outcome = select(candidates, question="q", schema_text="s", judge=judge)
        assert outcome.method is SelectionMethod.PAIRWISE_LLM
        assert outcome.confidence is Confidence.LOW
        assert outcome.pairwise_calls == 2
        assert outcome.chosen_index == 3  # longer SQL wins the scripted judge
        assert outcome.chosen_votes == 2
        assert outcome.distribution == (3, 2)

    def test_escalation_with_single_ok_group_skips_judge(self):
        candidates = [
            _candidate(0, status=ExecStatus.ERROR, error_text="OperationalError: a"),
            _candidate(1, status=ExecStatus.ERROR, error_text="OperationalError: b"),
            _candidate(2, status=ExecStatus.ERROR, error_text="OperationalError: c"),
            _candidate(3, signature="only"),
            _candidate(4, signature="only"),
        ]
        outcome = select(candidates)  # (3, 2) escalates; one OK finalist
        assert outcome.chosen_index == 3
        assert outcome.confidence is Confidence.LOW
        assert outcome.method is SelectionMethod.PAIRWISE_LLM
        assert outcome.pairwise_calls == 0

    def test_all_failed_picks_first_with_low_confidence(self, caplog):
        candidates = [
            _candidate(i, status=ExecStatus.ERROR, error_text="OperationalError: x")
            for i in range(5)
        ]
        with caplog.at_level("WARNING"):
            outcome = select(candidates)
        assert outcome.chosen_index == 0
        assert outcome.confidence is Confidence.LOW
        assert outcome.method is SelectionMethod.PAIRWISE_LLM
        assert outcome.pairwise_calls == 0
        assert "failed" in caplog.text

    def test_escalation_without_judge_rejected(self):
        candidates = [
            _candidate(0, signature="a"),
            _candidate(1, signature="a"),
            _candidate(2, signature="a"),
            _candidate(3, signature="b"),
            _candidate(4, signature="b"),
        ]
        with pytest.raises(ValueError):
            select(candidates)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            select([])

    def test_error_group_never_wins_accept_top(self):
        candidates = [
            _candidate(0, status=ExecStatus.ERROR, error_text="OperationalError: x"),
            _candidate(1, status=ExecStatus.ERROR, error_text="OperationalError: x"),
            _candidate(2, status=ExecStatus.ERROR, error_text="OperationalError: x"),
            _candidate(3, status=ExecStatus.ERROR, error_text="OperationalError: x"),
            _candidate(4, signature="good"),
        ]
        outcome = select(candidates)  # (4, 1): confident, top OK group has 1 vote
        assert outcome.chosen_index == 4
        assert outcome.chosen_votes == 1
        assert outcome.method is SelectionMethod.REGULAR_VOTE
