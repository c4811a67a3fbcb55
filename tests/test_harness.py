import dataclasses
import gc
import itertools
import json
import os
import re
import sqlite3
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from ensql.catalog import FilterLevel
from ensql.config import DEFAULT_LINKER_PRIMARY, ConfigError, PipelineConfig
from ensql import formats, harness
from ensql.formats import RepresentationFormat, render
from ensql.gateway import (
    STAGE_GENERATION,
    STAGE_LINKING,
    STAGE_SELECTION,
    RecordingChatBackend,
    ReplayChatBackend,
    TokenUsage,
    UsageRow,
)
from ensql.generation import CandidateSpec, SqlCandidate, load_generation_system_prompt
from ensql.harness import (
    BenchmarkItem,
    ComboResult,
    GoldExecutionError,
    PipelineRunner,
    SweepError,
    build_fewshot_store,
    execution_accuracy,
    load_dataset,
    rank_combinations,
    run_benchmark,
    sweep,
)
from ensql.records import (
    DatasetError,
    RunRecord,
    Tally,
    aggregate_records,
    bounds_analysis,
    ex_by_vote,
    read_records,
    write_records,
)
from ensql.selection import (
    Confidence,
    ExecStatus,
    ExecutionResult,
    SelectionMethod,
    SelectionOutcome,
)

from conftest import GOLDEN_DIR
from helpers import (
    EXPECTED_CALLS,
    EXPECTED_EX,
    ScriptedBackend,
    TOY_BENCH,
    TOY_LINKER_JSON,
    ToyScript,
    build_toy_db,
    recorded,
    sql_block,
    write_toy_dataset,
)


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    return write_toy_dataset(tmp_path_factory.mktemp("dataset"))


class TestLoadDataset:
    def test_directory_layout(self, toy_dataset):
        items = load_dataset(toy_dataset)
        assert len(items) == len(TOY_BENCH)
        first = items[0]
        assert first.question_id == "1"
        assert first.db_id == "toy_shop"
        assert first.question == TOY_BENCH[0]["question"]
        assert first.gold_sql == TOY_BENCH[0]["gold"]
        assert first.db_path.endswith("dev_databases/toy_shop/toy_shop.sqlite")

    def test_json_file_directly(self, toy_dataset):
        items = load_dataset(toy_dataset / "dev.json")
        assert len(items) == len(TOY_BENCH)

    def test_limit(self, toy_dataset):
        assert len(load_dataset(toy_dataset, limit=3)) == 3

    def test_query_key_and_evidence(self, tmp_path, toy_dataset):
        doc = [
            {
                "db_id": "toy_shop",
                "question": "How many users?",
                "query": "SELECT COUNT(*) FROM users",
                "evidence": "users means rows of users",
            }
        ]
        path = tmp_path / "spiderish.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        items = load_dataset(path, db_root=toy_dataset / "dev_databases")
        assert items[0].gold_sql == "SELECT COUNT(*) FROM users"
        assert items[0].hint == "users means rows of users"
        assert items[0].question_id == "0"  # position fallback

    def test_malformed_records_skipped_with_warning(self, tmp_path, toy_dataset, caplog):
        doc = [
            "not an object",
            {"db_id": "toy_shop", "question": "no sql at all"},
            {
                "db_id": "toy_shop",
                "question": "ok?",
                "SQL": "SELECT 1",
            },
        ]
        path = tmp_path / "dirty.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with caplog.at_level("WARNING"):
            items = load_dataset(path, db_root=toy_dataset / "dev_databases")
        assert len(items) == 1
        assert "skipped 2 malformed records" in caplog.text

    def test_missing_database_raises(self, tmp_path):
        doc = [{"db_id": "ghost", "question": "q", "SQL": "SELECT 1"}]
        path = tmp_path / "dev.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DatasetError, match="ghost"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_dataset(tmp_path)

    def test_invalid_json(self, tmp_path):
        (tmp_path / "dev.json").write_text("{oops", encoding="utf-8")
        with pytest.raises(DatasetError, match="not valid JSON"):
            load_dataset(tmp_path)

    def test_non_list_document(self, tmp_path):
        (tmp_path / "dev.json").write_text("{}", encoding="utf-8")
        with pytest.raises(DatasetError, match="JSON list"):
            load_dataset(tmp_path)


class TestExecutionAccuracy:
    def test_matching_results(self, toy_db):
        assert execution_accuracy(
            "SELECT name FROM users ORDER BY name",
            "SELECT name FROM users ORDER BY user_id",
            toy_db,
        ) == 1

    def test_wrong_results(self, toy_db):
        assert execution_accuracy(
            "SELECT COUNT(*) FROM products", "SELECT COUNT(*) FROM users", toy_db
        ) == 0

    def test_failing_prediction_scores_zero(self, toy_db):
        assert execution_accuracy("SELECT nope FROM users", "SELECT 1", toy_db) == 0

    @pytest.mark.parametrize("prediction", ["", ";", "-- cannot answer", "/* none */"])
    def test_a_prediction_with_no_columns_misses_an_empty_reference(self, toy_db, prediction):
        reference = "SELECT name FROM users WHERE user_id = -1"
        assert execution_accuracy(reference, reference, toy_db) == 1
        assert execution_accuracy(prediction, reference, toy_db) == 0

    def test_failing_reference_raises(self, toy_db):
        with pytest.raises(GoldExecutionError, match="reference query failed"):
            execution_accuracy("SELECT 1", "SELECT nope FROM users", toy_db)


def _selection(votes=5, method=SelectionMethod.REGULAR_VOTE, calls=0):
    return SelectionOutcome(
        chosen_index=0,
        chosen_sql="SELECT 1",
        distribution=(votes, 5 - votes) if votes < 5 else (5,),
        confidence=Confidence.HIGH if method is SelectionMethod.REGULAR_VOTE else Confidence.LOW,
        method=method,
        pairwise_calls=calls,
        chosen_votes=votes,
    )


def _record(
    qid="1",
    ex=1,
    gold_ok=True,
    candidate_ex=(1, 1, 1, 1, 1),
    selection=None,
    usage=(),
    error=None,
):
    return RunRecord(
        question_id=qid,
        db_id="toy_shop",
        question="q",
        gold_sql="SELECT 1",
        gold_ok=gold_ok,
        candidates=[],
        selection=selection if selection is not None else _selection(),
        candidate_ex=list(candidate_ex),
        ex=ex,
        usage=list(usage),
        error=error,
    )


class TestRunRecordSerialization:
    def _full_record(self):
        candidate = SqlCandidate(
            spec_index=0,
            sql="SELECT COUNT(*) FROM users",
            raw_response="```sql\nSELECT COUNT(*) FROM users\n```",
            input_tokens=100,
            output_tokens=20,
            execution=ExecutionResult(
                status=ExecStatus.OK,
                signature="abc123",
                row_count=1,
                preview="1 row(s): (4,)",
                elapsed_ms=12.5,
            ),
        )
        return RunRecord(
            question_id="7",
            db_id="toy_shop",
            question="how many?",
            gold_sql="SELECT COUNT(*) FROM users",
            gold_ok=True,
            candidates=[candidate],
            selection=_selection(votes=3, method=SelectionMethod.PAIRWISE_LLM, calls=2),
            candidate_ex=[1],
            ex=1,
            usage=[UsageRow("gpt-4o", STAGE_LINKING, 3, 900, 60)],
            wall_ms=0.0,
        )

    def test_round_trip(self):
        record = self._full_record()
        clone = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone.question_id == record.question_id
        assert clone.candidates[0].sql == record.candidates[0].sql
        assert clone.candidates[0].usage == record.candidates[0].usage
        assert clone.candidates[0].execution.signature == "abc123"
        assert clone.selection == record.selection
        assert clone.usage == record.usage
        assert clone.candidate_ex == [1]

    def test_elapsed_ms_never_serialized(self):
        doc = self._full_record().to_dict()
        assert "elapsed_ms" not in json.dumps(doc)
        clone = RunRecord.from_dict(doc)
        assert clone.candidates[0].execution.elapsed_ms is None

    def test_call_and_token_tallies(self):
        record = self._full_record()
        record.usage.append(UsageRow("gemini-1.5-flash", STAGE_GENERATION, 5, 2000, 100))
        record.usage.append(UsageRow("embedding", "embedding", 4, 0, 0))
        assert record.llm_calls() == 8  # embedding stage excluded
        assert record.total_tokens() == 900 + 60 + 2000 + 100

    def test_write_read_round_trip(self, tmp_path):
        records = [self._full_record(), _record(qid="2", error="Boom: nope")]
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        loaded = read_records(path)
        assert len(loaded) == 2
        assert loaded[0].selection == records[0].selection
        assert loaded[1].error == "Boom: nope"

    def test_read_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"question_id": "1"}\n', encoding="utf-8")
        with pytest.raises(DatasetError, match="bad.jsonl:1"):
            read_records(path)

    def test_a_line_that_is_no_object_names_its_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[]\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="bad.jsonl:1: bad run record"):
            read_records(path)

    def test_a_candidate_that_is_no_object_names_its_line(self, tmp_path):
        golden = (GOLDEN_DIR / "toy_run_records.jsonl").read_text(encoding="utf-8")
        doc = json.loads(golden.splitlines()[0])
        doc["candidates"][0] = []
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="bad.jsonl:1: bad run record"):
            read_records(path)

    @pytest.mark.parametrize("key, value", [
        ("question_id", 5), ("db_id", None), ("question", ["q"]), ("gold_sql", 1),
        ("gold_ok", "yes"), ("gold_ok", 1), ("ex", 2), ("ex", True), ("ex", "1"),
        ("candidate_ex", [1, "1", 1, 1, 1]), ("candidate_ex", [1, 1, 1, 1, 0.0]),
        ("candidate_ex", "11111"), ("wall_ms", "0.0"), ("wall_ms", False), ("error", 0),
        # a count in the first usage row or the first candidate
        ("usage.calls", 2.9), ("usage.input_tokens", "3"), ("usage.output_tokens", True),
        ("candidates.spec_index", 2.9), ("candidates.input_tokens", "3"),
        ("candidates.output_tokens", True),
        ("candidates.sql", 5), ("candidates.sql", None), ("candidates.raw_response", 0),
        # the first candidate's execution
        ("candidates.execution.signature", 7), ("candidates.execution.row_count", "many"),
        ("candidates.execution.row_count", 4.0), ("candidates.execution.row_count", False),
        ("candidates.execution.error_text", ["e"]), ("candidates.execution.preview", 1),
        ("selection.chosen_index", True), ("selection.chosen_index", 0.0),
        ("selection.chosen_sql", None), ("selection.distribution", [4, 1.0]),
        ("selection.distribution", "41"), ("selection.pairwise_calls", 0.5),
        ("selection.chosen_votes", "4"),
    ])
    def test_a_scalar_of_the_wrong_type_names_its_line(self, tmp_path, key, value):
        lines = (GOLDEN_DIR / "toy_run_records.jsonl").read_text(encoding="utf-8").splitlines()
        doc = json.loads(lines[1])
        *within, key = key.split(".")
        node = doc
        for name in within:  # the first item of a list on the way
            node = node[name][0] if isinstance(node[name], list) else node[name]
        node[key] = value
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([lines[0], json.dumps(doc)]) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f"bad.jsonl:2: bad run record: {key} must be"):
            read_records(path)

    def test_golden_records_load_and_write_back_byte_identical(self, tmp_path):
        golden = GOLDEN_DIR / "toy_run_records.jsonl"
        records = read_records(golden)
        assert {r.error for r in records} == {None}
        write_records(records, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == golden.read_bytes()

    def test_sql_that_is_not_its_reply_s_block_is_kept(self, tmp_path):
        # a failed candidate's empty sql, and sql that a reply's block does not give
        lines = (GOLDEN_DIR / "toy_run_records.jsonl").read_text(encoding="utf-8").splitlines()
        doc = json.loads(lines[0])
        doc["candidates"][0]["sql"] = "SELECT 4"
        doc["candidates"][1]["sql"] = ""
        doc["candidates"][2]["raw_response"] = "no block here"
        path = tmp_path / "edited.jsonl"
        path.write_text(json.dumps(doc, ensure_ascii=False) + "\n", encoding="utf-8")
        candidates = read_records(path)[0].candidates
        assert [c.sql for c in candidates[:4]] == [
            "SELECT 4", "", "SELECT COUNT(*) FROM users", "SELECT COUNT(*) FROM users"
        ]
        assert [c._sql for c in candidates[:4]] == [
            "SELECT 4", "", "SELECT COUNT(*) FROM users", None
        ]
        write_records(read_records(path), tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


class TestAggregateRecords:
    def _records(self):
        return [
            _record(
                qid="1", ex=1,
                usage=[UsageRow("gpt-4o", STAGE_LINKING, 3, 1_000_000, 0),
                       UsageRow("gemini-1.5-flash", STAGE_GENERATION, 5, 50_000, 500)],
            ),
            _record(
                qid="2", ex=0,
                selection=_selection(votes=2, method=SelectionMethod.PAIRWISE_LLM, calls=6),
                usage=[UsageRow("gemini-1.5-flash", STAGE_SELECTION, 6, 30_000, 6),
                       UsageRow("gpt-4o", STAGE_LINKING, 3, 1_000_000, 0)],
            ),
            _record(qid="3", gold_ok=False, ex=0, candidate_ex=[],
                    usage=[UsageRow("gpt-4o", STAGE_LINKING, 2, 0, 0)]),
            _record(qid="4", error="ValueError: boom", ex=0,
                    usage=[UsageRow("gpt-4o", STAGE_LINKING, 9, 10**9, 10**9)]),
        ]

    def test_counts_and_accuracy(self):
        report = aggregate_records(self._records())
        assert report.items == 4
        assert report.scored == 2
        assert report.gold_failures == 1
        assert report.failed == 1
        assert report.ex == 0.5
        assert report.escalated == 1

    def test_escalations_split_by_why_no_vote_settled_them(self):
        ok = ExecutionResult(ExecStatus.OK, signature="s", row_count=1)
        failed = ExecutionResult(ExecStatus.ERROR, error_text="OperationalError: x")

        def escalated(qid, calls, chosen, other):
            record = _record(
                qid=qid, selection=_selection(votes=2, method=SelectionMethod.PAIRWISE_LLM,
                                              calls=calls),
            )
            record.candidates = [
                SqlCandidate(spec_index=i, sql="SELECT 1", execution=execution)
                for i, execution in enumerate([chosen, other, other, other, other])
            ]
            return record

        records = [
            escalated("judged", 2, ok, ok),
            escalated("all failed", 0, failed, failed),
            escalated("one group", 0, ok, failed),
            _record(qid="vote"),
        ]
        report = aggregate_records(records)
        assert report.escalated == 3
        assert (report.escalated_judged, report.escalated_all_failed,
                report.escalated_one_group) == (1, 1, 1)
        lines = report.render_text().splitlines()
        at = lines.index("escalated to pairwise selection: 3")
        assert lines[at + 1:] == [
            "  judged tournament: 1",
            "  all candidates failed: 1",
            "  one surviving group: 1",
        ]

    def test_calls_and_tokens_cover_worked_items(self):
        report = aggregate_records(self._records())
        # per-record llm calls: 8, 9, 2 -> median 8, mean 19/3
        assert report.calls_typical == 8.0
        assert report.calls_avg == pytest.approx(19 / 3)
        expected_tokens = (1_050_500 + 1_030_006 + 0) / 3 / 1000.0
        assert report.tokens_k_avg == pytest.approx(expected_tokens)

    def test_cost_is_exact_and_excludes_errored_items(self):
        report = aggregate_records(self._records())
        # two full gpt-4o input megatokens at $2.50, plus flash at $0.075 in
        # and $0.30 out per million: 80,000 in and 506 out
        assert report.cost_usd_total == Decimal("5.0061518")
        assert report.cost_usd_avg == Decimal("5.0061518") / 3

    def test_empty(self):
        report = aggregate_records([])
        assert report.items == 0
        assert report.ex == 0.0
        assert report.cost_usd_total == Decimal(0)

    def test_a_tally_reads_as_the_report_after_each_record(self):
        records = self._records()
        tally = Tally()
        for n, record in enumerate(records, 1):
            tally.add(record)
            report = aggregate_records(records[:n])
            assert tally.report() == report
            assert (tally.items, tally.scored, tally.ex, tally.calls_avg, tally.cost_usd_avg) == (
                report.items, report.scored, report.ex, report.calls_avg, report.cost_usd_avg
            )

    def test_render_text_table(self):
        text = aggregate_records(self._records()).render_text()
        assert "EX     | LLM Calls Typical(Avg.) | Tokens (K) | Cost ($)" in text
        assert "8(6.3)" in text
        assert "50.00" in text  # EX percentage
        assert "escalated to pairwise selection: 1" in text


class TestBoundsAnalysis:
    def test_grouping_and_bounds(self):
        records = [
            _record(qid="a", ex=1, candidate_ex=[1, 1]),
            _record(qid="b", ex=0, candidate_ex=[1, 0]),
            _record(qid="c", ex=0, candidate_ex=[0, 0, 0]),
            _record(qid="d", ex=1, candidate_ex=[1, 1], error="X: y"),
            _record(qid="e", ex=0, candidate_ex=[1, 1], gold_ok=False),
            _record(qid="f", ex=0, candidate_ex=[]),
        ]
        rows = bounds_analysis(records)
        assert [(r.candidate_count, r.items) for r in rows] == [(2, 2), (3, 1)]
        pair = rows[0]
        assert pair.ex == 0.5
        assert pair.lower == 0.5  # only "a" has every candidate correct
        assert pair.upper == 1.0  # both have at least one correct
        triple = rows[1]
        assert (triple.ex, triple.lower, triple.upper) == (0.0, 0.0, 0.0)


class TestExByVote:
    def test_vote_buckets(self):
        records = [
            _record(qid="a", ex=1, candidate_ex=[1, 1, 0, 0, 0],
                    selection=_selection(votes=2, method=SelectionMethod.PAIRWISE_LLM)),
            _record(qid="b", ex=0, candidate_ex=[0, 1, 0, 0, 0],
                    selection=_selection(votes=2, method=SelectionMethod.PAIRWISE_LLM)),
            _record(qid="c", ex=1, candidate_ex=[1, 1, 1, 1, 1],
                    selection=_selection(votes=5)),
            _record(qid="d", ex=1, candidate_ex=[1, 1, 1, 1, 1],
                    selection=_selection(votes=5), error="X: y"),
        ]
        rows = ex_by_vote(records)
        assert [(r.votes, r.items) for r in rows] == [(2, 2), (5, 1)]
        assert rows[0].ex == 0.5
        assert rows[0].upper == 1.0
        # unanimous bucket: realized accuracy equals the upper bound
        assert rows[1].ex == rows[1].upper == 1.0


def _rank_combinations_oracle(per_item, n, labels):
    """The reference vote loop: per-combination counts, first positions and
    a max(), written apart from group_votes so the two statements of the
    rule are checked against each other."""
    pool_size = len(per_item[0])
    results = []
    for combo in itertools.combinations_with_replacement(range(pool_size), n):
        correct = 0
        for row in per_item:
            counts = {}
            first_seen = {}
            correctness = {}
            for position, j in enumerate(combo):
                key, is_correct = row[j]
                counts[key] = counts.get(key, 0) + 1
                first_seen.setdefault(key, position)
                correctness[key] = is_correct
            ok_keys = [k for k in counts if k.startswith("ok:")]
            if not ok_keys:
                continue
            winner = max(ok_keys, key=lambda k: (counts[k], -first_seen[k]))
            if correctness[winner]:
                correct += 1
        results.append(
            ComboResult(
                pool_indices=combo,
                labels=tuple(labels[j] for j in combo),
                ex=correct / len(per_item),
            )
        )
    results.sort(key=lambda r: (-r.ex, r.pool_indices))
    return results


_VOTE_KEYS = ("ok:a", "ok:b", "ok:c", "error:X", "timeout")


@st.composite
def _sweep_rows(draw):
    """1-20 items over a pool of 1-6 entries; a key has one correctness per item."""
    pool_size = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 20))):
        correct = {key: draw(st.booleans()) for key in _VOTE_KEYS}
        keys = draw(st.lists(st.sampled_from(_VOTE_KEYS), min_size=pool_size, max_size=pool_size))
        rows.append([(key, correct[key]) for key in keys])
    return rows


class TestRankCombinationsOracle:
    # 40 examples missed a winner remembered across key orders; 100 catch it
    @settings(max_examples=100)
    @given(per_item=_sweep_rows(), n=st.integers(1, 3))
    def test_ranking_equals_the_old_vote_loop(self, per_item, n):
        labels = [f"e{j}" for j in range(len(per_item[0]))]
        expected = _rank_combinations_oracle(per_item, n, labels)
        got = rank_combinations(per_item, n, labels)
        assert [(r.pool_indices, r.labels, r.ex) for r in got] == [
            (r.pool_indices, r.labels, r.ex) for r in expected
        ]

    def test_a_tie_goes_to_the_earlier_slot_whatever_the_key_order(self):
        # (0, 1) and (1, 2) hold the same two keys in opposite orders
        per_item = [[("ok:a", True), ("ok:b", False), ("ok:a", True)]]
        results = rank_combinations(per_item, n=2, labels=["a1", "b", "a2"])
        assert {r.pool_indices: r.ex for r in results} == {
            (0, 0): 1.0, (0, 1): 1.0, (0, 2): 1.0, (1, 1): 0.0, (1, 2): 0.0, (2, 2): 1.0,
        }


class TestRankCombinations:
    def test_tiny_pool(self):
        per_item = [
            [("ok:x", True), ("ok:y", False)],
            [("ok:x", True), ("ok:x", True)],
        ]
        results = rank_combinations(per_item, n=2, labels=["a", "b"])
        assert [(r.pool_indices, r.ex) for r in results] == [
            ((0, 0), 1.0),
            ((0, 1), 1.0),  # tie inside an item resolves to the earlier position
            ((1, 1), 0.5),
        ]
        assert results[1].labels == ("a", "b")

    def test_error_entries_never_win(self):
        per_item = [[("error:Boom", False), ("ok:y", True)]]
        results = rank_combinations(per_item, n=1, labels=["bad", "good"])
        assert [(r.labels, r.ex) for r in results] == [
            (("good",), 1.0),
            (("bad",), 0.0),
        ]

    def test_ragged_rows_rejected(self):
        with pytest.raises(SweepError, match="ragged"):
            rank_combinations([[("ok:a", True)], []], n=1, labels=["a"])

    def test_no_items_rejected(self):
        with pytest.raises(SweepError, match="at least one scored item"):
            rank_combinations([], n=1, labels=["a"])

    def test_bad_n_rejected(self):
        with pytest.raises(SweepError, match="at least 1"):
            rank_combinations([[("ok:a", True)]], n=0, labels=["a"])

    def test_cap_enforced(self):
        row = [("ok:a", True), ("ok:b", False), ("ok:c", False)]
        with pytest.raises(SweepError, match="cap of 5"):
            rank_combinations([row], n=3, labels=["a", "b", "c"], cap=5)
        assert len(rank_combinations([row], n=3, labels=["a", "b", "c"], cap=10)) == 10


class TestPipelineRunner:
    @pytest.fixture()
    def items(self, toy_dataset):
        return load_dataset(toy_dataset)

    @pytest.mark.parametrize("doc", [
        [{"toy_shop": {}}],
        {"toy_shop": [["users", "name"]]},
        {"toy_shop": {"users": {"name": 1}}},
    ], ids=["list", "list_of_tables", "number_description"])
    def test_descriptions_of_the_wrong_shape_are_refused_at_load(self, tmp_path, doc):
        descriptions = tmp_path / "descriptions.json"
        descriptions.write_text(json.dumps(doc), encoding="utf-8")
        config = dataclasses.replace(
            PipelineConfig.default(), descriptions_path=str(descriptions)
        )
        with pytest.raises(ConfigError, match="descriptions.json: bad descriptions"):
            PipelineRunner(config, ScriptedBackend(ToyScript()))

    def test_failing_reference_is_excluded_from_accuracy(self, items, caplog):
        item = dataclasses.replace(items[0], gold_sql="SELECT nope FROM users")
        with PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript())) as runner:
            with caplog.at_level("WARNING"):
                record = runner.run_item(item)
        assert not record.gold_ok
        assert record.candidate_ex == [0, 0, 0, 0, 0] and record.ex == 0
        assert record.selection.chosen_votes == 5  # selection still runs
        assert "question 1: reference query failed (" in caplog.text

    def test_unanimous_question(self, items):
        runner = PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript()))
        record = runner.run_item(items[0])
        assert record.gold_ok
        assert record.ex == 1
        assert record.candidate_ex == [1, 1, 1, 1, 1]
        assert record.llm_calls() == 8  # 3 linker + 5 generation
        assert record.selection.chosen_votes == 5
        assert record.selection.method is SelectionMethod.REGULAR_VOTE
        assert record.wall_ms > 0.0
        assert record.error is None

    def test_escalated_question(self, items):
        runner = PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript()))
        record = runner.run_item(items[3])
        assert record.selection.method is SelectionMethod.PAIRWISE_LLM
        assert record.selection.pairwise_calls == 6
        assert record.llm_calls() == 14
        assert record.ex == 1

    def test_timing_disabled(self, items):
        runner = PipelineRunner(
            PipelineConfig.default(), ScriptedBackend(ToyScript()), record_timing=False
        )
        assert runner.run_item(items[0]).wall_ms == 0.0

    def test_catalog_cached_per_database(self, items):
        runner = PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript()))
        first = runner.catalog_for(items[0].db_id, items[0].db_path)
        second = runner.catalog_for(items[1].db_id, items[1].db_path)
        assert first is second

    def test_catalogs_are_keyed_by_path(self, tmp_path):
        # two datasets may reuse a db_id for different databases
        paths = []
        for table in ("alpha", "beta"):
            path = tmp_path / table / "shop.sqlite"
            path.parent.mkdir()
            conn = sqlite3.connect(path)
            conn.execute(f"CREATE TABLE {table} (id INTEGER PRIMARY KEY)")
            conn.commit()
            conn.close()
            paths.append(str(path))
        with PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript())) as runner:
            catalogs = [runner.catalog_for("shop", path) for path in paths]
        assert [tuple(t.name for t in c.tables) for c in catalogs] == [("alpha",), ("beta",)]
        texts = [render(c, RepresentationFormat.DDL) for c in catalogs]
        assert "CREATE TABLE beta" in texts[1] and "alpha" not in texts[1]

    def test_racing_questions_introspect_a_path_once(self, toy_db, monkeypatch):
        calls = []
        original = harness.introspect

        def counting(db_path, **kwargs):
            calls.append(db_path)
            time.sleep(0.05)  # long enough for the other question to arrive
            return original(db_path, **kwargs)

        monkeypatch.setattr(harness, "introspect", counting)
        barrier = threading.Barrier(2)
        catalogs = []

        def ask():
            barrier.wait(timeout=5)
            catalogs.append(runner.catalog_for("toy_shop", toy_db))

        with PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript())) as runner:
            threads = [threading.Thread(target=ask) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        assert calls == [toy_db]
        assert len(catalogs) == 2 and catalogs[0] is catalogs[1]

    def test_paths_are_introspected_independently(self, tmp_path, toy_db, monkeypatch):
        # the first path's introspection waits until the second one is done
        other = tmp_path / "other.sqlite"
        build_toy_db(other)
        other_done = threading.Event()
        original = harness.introspect

        def ordered(db_path, **kwargs):
            if db_path == toy_db:
                assert other_done.wait(timeout=2), "the other path waited on this one"
            catalog = original(db_path, **kwargs)
            if db_path == str(other):
                other_done.set()
            return catalog

        monkeypatch.setattr(harness, "introspect", ordered)
        with PipelineRunner(
            PipelineConfig.default(), ScriptedBackend(ToyScript())
        ) as runner, ThreadPoolExecutor(max_workers=1) as pool:
            first = pool.submit(runner.catalog_for, "toy_shop", toy_db)
            time.sleep(0.05)  # the first path's introspection has begun by now
            runner.catalog_for("other", str(other))
            tables = first.result(timeout=10).tables
            assert tuple(t.name for t in tables) == ("users", "products", "orders")

    def test_full_schema_rendered_once_per_format(self, items, monkeypatch):
        config = PipelineConfig.default()
        with PipelineRunner(config, ScriptedBackend(ToyScript())) as runner:
            full = runner.catalog_for(items[0].db_id, items[0].db_path)
            renders = []
            for fmt, renderer in list(formats._RENDERERS.items()):
                def counted(catalog, fmt=fmt, renderer=renderer):
                    if catalog is full:
                        renders.append(fmt)
                    return renderer(catalog)
                monkeypatch.setitem(formats._RENDERERS, fmt, counted)
            for item in items[:2]:
                assert item.db_path == items[0].db_path
                runner.run_item(item)
        # the three linker runs' formats, the unfiltered slot's and the judge's
        shown = {s.format for s in config.specs} | {config.judge_schema_format}
        assert len(renders) == len(shown) == 4
        assert set(renders) == shown


@pytest.fixture()
def executions(monkeypatch):
    """Every call into ensql.harness.execute_candidate: (sql, db_path, result).

    The harness hands execute_candidate a question's connection, so db_path
    is the path that connection was opened on.
    """
    calls = []
    paths = {}
    original_open = harness.open_read_only
    original = harness.execute_candidate

    def opened(db_path):
        conn = original_open(db_path)
        paths[conn] = str(db_path)
        return conn

    def counted(sql, db, *args, **kwargs):
        result = original(sql, db, *args, **kwargs)
        calls.append((sql, paths.get(db) or str(db), result))
        return result

    monkeypatch.setattr(harness, "open_read_only", opened)
    monkeypatch.setattr(harness, "execute_candidate", counted)
    return calls


class TestExecutionMemo:
    """Each distinct SQL text runs once per question, the reference included."""

    @pytest.fixture()
    def items(self, toy_dataset):
        return load_dataset(toy_dataset)

    @pytest.mark.parametrize("position", range(len(TOY_BENCH)))
    def test_each_distinct_text_runs_once(self, items, executions, position):
        # position 0 is a unanimous slate whose reference has its text: 1 call
        item = items[position]
        with PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript())) as runner:
            record = runner.run_item(item)
        texts = [sql for sql, _, _ in executions]
        assert sorted(texts) == sorted(set(TOY_BENCH[position]["slots"]) | {item.gold_sql})
        by_text = {sql: result for sql, _, result in executions}
        assert all(c.execution is by_text[c.sql] for c in record.candidates)
        assert record.ex == TOY_BENCH[position]["ex"]

    def test_distinct_texts_and_a_distinct_reference(self, items, executions):
        # five distinct slot texts; the reference matches slot 0's rows only
        item = dataclasses.replace(
            items[4],
            gold_sql="SELECT name FROM products WHERE price = (SELECT MAX(price) FROM products)",
        )
        assert len(set(TOY_BENCH[4]["slots"])) == 5
        with PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript())) as runner:
            record = runner.run_item(item)
        assert len(executions) == 5 + 1
        assert executions[-1][0] == item.gold_sql
        assert record.candidate_ex == [1, 0, 0, 0, 0]

    def test_concurrent_questions_never_share_a_result(
        self, tmp_path, executions, monkeypatch
    ):
        # the same question and SQL over two databases that answer differently
        paths = []
        for users in (4, 5):
            path = tmp_path / f"shop{users}.sqlite"
            build_toy_db(path)
            if users == 5:
                conn = sqlite3.connect(path)
                conn.execute("INSERT INTO users VALUES (5, 'Eve', NULL, '2023-07-01')")
                conn.commit()
                conn.close()
            paths.append(str(path))
        question = TOY_BENCH[0]["question"]
        items = [
            BenchmarkItem(str(i), "toy_shop", question, TOY_BENCH[0]["gold"], db_path=path)
            for i, path in enumerate(paths)
        ]
        both_executing = threading.Barrier(2, timeout=10)
        counted = harness.execute_candidate

        def overlapping(sql, db_path, *args, **kwargs):
            both_executing.wait()  # each question executes while the other does
            return counted(sql, db_path, *args, **kwargs)

        monkeypatch.setattr(harness, "execute_candidate", overlapping)
        records, _ = run_benchmark(
            PipelineConfig.default(), items, ScriptedBackend(ToyScript()),
            workers=2, record_timing=False,
        )
        assert sorted(path for _, path, _ in executions) == sorted(paths)
        previews = [{c.execution.preview for c in r.candidates} for r in records]
        assert previews == [{"1 row(s): (4,)"}, {"1 row(s): (5,)"}]
        shared = {id(c.execution) for c in records[0].candidates}
        assert shared.isdisjoint(id(c.execution) for c in records[1].candidates)

    def test_execution_accuracy_runs_an_identical_prediction_once(self, toy_db, executions):
        assert execution_accuracy("SELECT COUNT(*) FROM users", "SELECT COUNT(*) FROM users",
                                  toy_db) == 1
        assert len(executions) == 1
        assert execution_accuracy("SELECT 4", "SELECT COUNT(*) FROM users", toy_db) == 1
        assert len(executions) == 3

    def test_sweep_reference_shares_the_slate_memo(self, toy_dataset, executions):
        items = load_dataset(toy_dataset, limit=3)
        results = sweep(
            PipelineConfig.default(), items, ScriptedBackend(_sweep_script()),
            formats=[RepresentationFormat.COMPACT_TAGGED, RepresentationFormat.DDL],
            levels=[FilterLevel.NO_FILTERING], n=2,
        )
        assert {r.ex for r in results} == {1.0}
        # every slot answers with the reference text: one execution per item,
        # in whatever order the sweep's workers reach them
        assert sorted(sql for sql, _, _ in executions) == sorted(item.gold_sql for item in items)

    def test_repeated_timeouts_cost_one_budget(self, toy_db, executions, monkeypatch):
        slow = (
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r) "
            "SELECT COUNT(*) FROM r"
        )
        config = dataclasses.replace(PipelineConfig.default(), execution_timeout_s=0.2)
        monkeypatch.setattr(harness, "generate_candidates", lambda specs, *rest: [
            SqlCandidate(spec_index=index, sql=slow) for index in range(len(specs))
        ])
        item = BenchmarkItem("t", "toy_shop", "q", "SELECT 1", db_path=toy_db)
        with PipelineRunner(config, ScriptedBackend(ToyScript())) as runner:
            execute = runner.executor(item.db_path)
            candidates = runner.candidates(item, runner.gateway(), config.specs, execute)
        assert [sql for sql, _, _ in executions] == [slow]
        assert {c.execution.group_key() for c in candidates} == {"timeout"}


@pytest.fixture()
def connections(monkeypatch):
    """Every connection the harness opens: (db_path, connection)."""
    opened = []
    original = harness.open_read_only

    def counted(db_path):
        conn = original(db_path)
        opened.append((str(db_path), conn))
        return conn

    monkeypatch.setattr(harness, "open_read_only", counted)
    return opened


def _is_open(conn: sqlite3.Connection) -> bool:
    try:
        conn.total_changes  # readable from any thread until the connection closes
    except sqlite3.ProgrammingError:
        return False
    return True


class TestConnectionLifecycle:
    """A runner lends each statement a connection to its database and closes them all.

    A statement takes an idle connection, or opens one, and hands it back
    when it ends; one whose execution raises closes it.  The runner's
    close(), or its collection, closes the rest.
    """

    def test_a_two_worker_run_opens_at_most_two_and_closes_them(
        self, toy_dataset, connections
    ):
        items = load_dataset(toy_dataset)
        records, _ = run_benchmark(
            PipelineConfig.default(), items, ScriptedBackend(ToyScript()),
            workers=2, record_timing=False,
        )
        assert [r.ex for r in records] == [q["ex"] for q in TOY_BENCH]
        assert 1 <= len(connections) <= 2
        assert {path for path, _ in connections} == {items[0].db_path}
        assert not any(_is_open(conn) for _, conn in connections)

    def test_questions_in_turn_share_one_connection_until_close(
        self, toy_dataset, connections
    ):
        items = load_dataset(toy_dataset)[:3]
        runner = PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript()))
        # each question on a thread of its own, and close() on this one
        with ThreadPoolExecutor(1) as pool:
            ex = [pool.submit(runner.run_item, item).result().ex for item in items]
        with ThreadPoolExecutor(1) as pool:
            ex.append(pool.submit(runner.run_item, items[0]).result().ex)
        assert ex == [q["ex"] for q in TOY_BENCH[:3]] + [TOY_BENCH[0]["ex"]]
        assert len(connections) == 1
        assert _is_open(connections[0][1])
        runner.close()
        assert not _is_open(connections[0][1])

    def test_a_runner_that_is_never_closed_closes_them_when_collected(
        self, toy_dataset, connections
    ):
        runner = PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript()))
        runner.run_item(load_dataset(toy_dataset)[0])
        assert _is_open(connections[0][1])
        del runner
        gc.collect()
        assert not _is_open(connections[0][1])

    def test_run_item_closes_its_connection_when_it_raises(
        self, toy_dataset, connections, monkeypatch
    ):
        execute = harness.execute_candidate
        used = []

        def broken(sql, db, *args, **kwargs):  # raises while its connection is open
            used.append(db)
            assert _is_open(db)
            raise RuntimeError("execution broke")

        items = load_dataset(toy_dataset)
        with PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript())) as runner:
            runner.run_item(items[0])
            monkeypatch.setattr(harness, "execute_candidate", broken)
            with pytest.raises(RuntimeError, match="execution broke"):
                runner.run_item(items[1])
            # the statement that raised closed the connection it took, not returned it
            assert len(connections) == 1
            assert used == [connections[0][1]]
            assert not _is_open(connections[0][1])
            monkeypatch.setattr(harness, "execute_candidate", execute)
            assert runner.run_item(items[1]).ex == TOY_BENCH[1]["ex"]
            assert len(connections) == 2
            assert _is_open(connections[1][1])
        assert not _is_open(connections[1][1])

    def test_a_question_that_executes_nothing_opens_nothing(
        self, toy_db, connections, monkeypatch
    ):
        failed = ExecutionResult(ExecStatus.ERROR, error_text="BackendError: down")
        monkeypatch.setattr(harness, "generate_candidates", lambda specs, *rest: [
            SqlCandidate(spec_index=index, sql="", execution=failed)
            for index in range(len(specs))
        ])
        item = BenchmarkItem("t", "toy_shop", "q", "", db_path=toy_db)
        with PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript())) as runner:
            record = runner.run_item(item)
        assert record.selection.confidence is Confidence.LOW
        assert connections == []

    def test_sweep_closes_every_connection(self, toy_dataset, connections, monkeypatch):
        items = load_dataset(toy_dataset, limit=3)
        results = sweep(
            PipelineConfig.default(), items, ScriptedBackend(_sweep_script()),
            formats=[RepresentationFormat.DDL], levels=[FilterLevel.NO_FILTERING], n=1,
        )
        assert [r.ex for r in results] == [1.0]
        assert 1 <= len(connections) <= PipelineConfig.default().workers
        assert not any(_is_open(conn) for _, conn in connections)
        # the reference has run when the candidate stage raises: its statement
        # handed its connection back, and the runner closes it
        connections.clear()

        def broken(*args):
            raise RuntimeError("generation broke")

        monkeypatch.setattr(harness, "generate_candidates", broken)
        with pytest.raises(SweepError, match="at least one scored item"):
            sweep(
                PipelineConfig.default(), items, ScriptedBackend(_sweep_script()),
                formats=[RepresentationFormat.DDL], levels=[FilterLevel.NO_FILTERING], n=1,
            )
        # each item ran one statement, and at most one per worker ran at once
        assert 1 <= len(connections) <= min(len(items), PipelineConfig.default().workers)
        assert not any(_is_open(conn) for _, conn in connections)

    def test_build_fewshot_store_opens_none(self, toy_dataset, connections):
        with PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript())) as runner:
            store = build_fewshot_store(runner, load_dataset(toy_dataset))
        assert len(store) == len(TOY_BENCH)
        assert connections == []

    def test_execution_accuracy_closes_its_connection(self, toy_db, connections):
        assert execution_accuracy("SELECT 4", "SELECT COUNT(*) FROM users", toy_db) == 1
        with pytest.raises(GoldExecutionError):
            execution_accuracy("SELECT 1", "SELECT nope FROM users", toy_db)
        assert len(connections) == 2
        assert not any(_is_open(conn) for _, conn in connections)

    @pytest.mark.parametrize("content", [None, b"this is not a database, not even close!"])
    def test_an_unopenable_database_gives_each_execution_the_open_s_error(
        self, tmp_path, connections, content
    ):
        path = tmp_path / "broken.sqlite"
        if content is not None:
            path.write_bytes(content)
        # SELECT 1 reads no page, so it runs on a file that is not a database
        texts = ("SELECT name FROM sqlite_master", "SELECT 1", "SELECT COUNT(*) FROM t")
        fresh = [harness.execute_candidate(sql, path) for sql in texts]
        assert fresh[0].error_text == (
            "OperationalError: unable to open database file" if content is None
            else "DatabaseError: file is not a database"
        )
        with PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript())) as runner:
            for _ in range(2):
                execute = runner.executor(str(path))
                results = [execute(sql) for sql in texts]
                assert [recorded(r) for r in results] == [recorded(r) for r in fresh]
        assert not any(_is_open(conn) for _, conn in connections)
        with pytest.raises(GoldExecutionError, match=re.escape(fresh[0].error_text)):
            execution_accuracy("SELECT 1", texts[0], path)


def _grouped_count(rows: int, modulus: int) -> str:
    """An aggregate that does all its work in its first step: about 50 ms at 50,000 rows."""
    return (
        f"WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < {rows}) "
        f"SELECT n % {modulus}, COUNT(*) FROM r GROUP BY n % {modulus}"
    )


@pytest.fixture()
def intervals(monkeypatch):
    """Every call into ensql.harness.execute_candidate: (sql, thread, start, end, result)."""
    calls = []
    original = harness.execute_candidate

    def timed(sql, db, *args, **kwargs):
        start = time.monotonic()
        result = original(sql, db, *args, **kwargs)
        calls.append((sql, threading.get_ident(), start, time.monotonic(), result))
        return result

    monkeypatch.setattr(harness, "execute_candidate", timed)
    return calls


class _Submissions:
    """A stand-in helper pool that counts the tasks handed to it and runs none."""

    def __init__(self):
        self.tasks = []

    def submit(self, fn, *args):
        self.tasks.append(fn)


class TestBatch:
    """A question's distinct texts run as one batch; only slow first steps get a helper."""

    SLOW = (_grouped_count(50_000, 7), _grouped_count(50_000, 11))

    def _run_slate(self, toy_db, monkeypatch, slate):
        monkeypatch.setattr(harness, "generate_candidates", lambda specs, *rest: [
            SqlCandidate(spec_index=index, sql=sql) for index, sql in enumerate(slate)
        ])
        item = BenchmarkItem("t", "toy_shop", "q", "", db_path=toy_db)
        with PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript())) as runner:
            return runner.run_item(item)

    @pytest.mark.skipif(harness._spare_cpus() < 1, reason="needs at least two CPUs")
    def test_two_slow_aggregates_overlap(self, toy_db, monkeypatch, intervals):
        a, b = self.SLOW
        record = self._run_slate(toy_db, monkeypatch, [a, b, a, b, a])
        assert sorted(sql for sql, *_ in intervals) == sorted(self.SLOW)
        (_, first_thread, first_start, first_end, _), (_, second_thread, second_start,
                                                        second_end, _) = intervals
        assert first_thread != second_thread
        assert max(first_start, second_start) < min(first_end, second_end)
        fresh = {sql: recorded(harness.execute_candidate(sql, toy_db)) for sql in self.SLOW}
        assert [recorded(c.execution) for c in record.candidates] == [
            fresh[sql] for sql in (a, b, a, b, a)
        ]

    def test_the_toy_dataset_submits_no_helper(self, toy_dataset, monkeypatch):
        pool = _Submissions()
        monkeypatch.setattr(harness, "_helper_pool", lambda: pool)
        records, _ = run_benchmark(
            PipelineConfig.default(), load_dataset(toy_dataset),
            ScriptedBackend(ToyScript()), record_timing=False,
        )
        assert [r.ex for r in records] == [q["ex"] for q in TOY_BENCH]
        assert pool.tasks == []

    def test_one_cpu_creates_no_helper_pool(self, toy_db, monkeypatch, intervals):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(harness, "_helpers", None)
        a, b = self.SLOW
        record = self._run_slate(toy_db, monkeypatch, [a, b, a, b, a])
        assert harness._helpers is None
        # the texts ran in order, one after the other, on the question's thread
        assert [sql for sql, *_ in intervals] == [a, b]
        assert len({thread for _, thread, *_ in intervals}) == 1
        assert intervals[0][3] <= intervals[1][2]
        assert all(c.execution.ok for c in record.candidates)

    def test_a_shut_down_helper_pool_leaves_the_statement_running(
        self, toy_db, monkeypatch, intervals
    ):
        pool = ThreadPoolExecutor(1)
        pool.shutdown()
        asked = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(harness, "_helper_pool", lambda: asked.append(pool) or pool)
        a, b = self.SLOW
        record = self._run_slate(toy_db, monkeypatch, [a, b, a, b, a])
        assert asked  # a first step ran long enough to call for a helper
        assert len({thread for _, thread, *_ in intervals}) == 1
        fresh = {sql: recorded(harness.execute_candidate(sql, toy_db)) for sql in self.SLOW}
        assert [recorded(c.execution) for c in record.candidates] == [
            fresh[sql] for sql in (a, b, a, b, a)
        ]
        assert all(c.execution.ok for c in record.candidates)

    def test_concurrent_batches_with_many_helpers_run_each_text_once(
        self, toy_db, monkeypatch, intervals
    ):
        # four questions at once, three helpers each may take, and a switch
        # interval so short that nearly every first step calls for a helper
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.setattr(harness, "_helpers", None)
        slates = {
            str(q): [_grouped_count(2_000 + 10 * q + k, 3 + k) for k in range(5)]
            for q in range(8)
        }
        monkeypatch.setattr(harness, "generate_candidates", lambda specs, m, c, item, *rest: [
            SqlCandidate(spec_index=index, sql=sql)
            for index, sql in enumerate(slates[item.question_id])
        ])
        items = [
            BenchmarkItem(q, "toy_shop", "q", slate[0], db_path=toy_db)
            for q, slate in slates.items()
        ]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            records, _ = run_benchmark(
                PipelineConfig.default(), items, ScriptedBackend(ToyScript()),
                workers=4, record_timing=False,
            )
        finally:
            sys.setswitchinterval(old)
            if harness._helpers is not None:
                harness._helpers.shutdown(wait=True)
        texts = [sql for sql, *_ in intervals]
        assert sorted(texts) == sorted(sql for slate in slates.values() for sql in slate)
        assert len({thread for _, thread, *_ in intervals}) > 4  # helpers ran texts too
        fresh = {sql: recorded(harness.execute_candidate(sql, toy_db)) for sql in texts}
        for record in records:
            assert record.gold_ok and record.candidate_ex == [1, 0, 0, 0, 0]
            assert [recorded(c.execution) for c in record.candidates] == [
                fresh[sql] for sql in slates[record.question_id]
            ]

    def test_waiting_for_the_turn_is_not_charged_to_the_budget(self, toy_db):
        # a statement whose first step is done waits while another holds the
        # question's lock, as one streaming a long result does
        sql = _grouped_count(20_000, 3)
        alone = harness.execute_candidate(sql, toy_db, 0.2)
        assert alone.ok
        turn = threading.Lock()
        waited = []
        with ThreadPoolExecutor(1) as pool:
            with turn:
                future = pool.submit(harness.execute_candidate, sql, toy_db, 0.2, turn=turn)
                time.sleep(0.4)
                waited.append(future.done())
            result = future.result()
        assert waited == [False]
        assert recorded(result) == recorded(alone)
        assert result.elapsed_ms < 200


class TestRecordShape:
    """Records hold slotted objects, and each distinct result once."""

    def _run(self, toy_db, monkeypatch, slots, gold="SELECT COUNT(*) FROM users"):
        monkeypatch.setattr(harness, "generate_candidates", lambda specs, *rest: [
            SqlCandidate(spec_index=index, sql=sql) for index, sql in enumerate(slots)
        ])
        item = BenchmarkItem("t", "toy_shop", "q", gold, db_path=toy_db)
        with PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript())) as runner:
            return runner.run_item(item)

    def test_record_classes_have_no_instance_dict(self, toy_dataset):
        item = load_dataset(toy_dataset)[1]
        with PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript())) as runner:
            record = runner.run_item(item)
        candidate = record.candidates[0]
        objects = [record, candidate, candidate.execution, candidate.usage, record.selection,
                   record.usage[0]]
        assert [type(o).__name__ for o in objects] == [
            "RunRecord", "SqlCandidate", "ExecutionResult", "TokenUsage", "SelectionOutcome",
            "UsageRow",
        ]
        assert not any(hasattr(o, "__dict__") for o in objects)

    def test_equal_results_within_a_question_are_one_object(self, toy_db, monkeypatch):
        slots = (
            "SELECT COUNT(*) FROM users",
            "SELECT COUNT(user_id) FROM users",
            "SELECT 4",
            "SELECT * FROM ghost",
            "SELECT *  FROM ghost",
        )
        record = self._run(toy_db, monkeypatch, slots)
        executions = [c.execution for c in record.candidates]
        assert len({id(e) for e in executions[:3]}) == 1
        assert len({id(e) for e in executions[3:]}) == 1
        assert executions[0] is not executions[3]
        assert executions[0].preview == "1 row(s): (4,)"
        assert executions[3].error_text == "OperationalError: no such table: ghost"
        assert record.candidate_ex == [1, 1, 1, 0, 0]

    def test_results_differing_only_in_preview_stay_apart(self, toy_db, monkeypatch):
        # one digest, since 4 and 4.0 canonicalize alike, but two previews
        record = self._run(toy_db, monkeypatch, ("SELECT 4", "SELECT 4.0") * 2 + ("SELECT 4",))
        first, second = record.candidates[0].execution, record.candidates[1].execution
        assert first.signature == second.signature
        assert first is not second
        assert (first.preview, second.preview) == ("1 row(s): (4,)", "1 row(s): (4.0,)")

    def test_questions_never_share_a_result(self, toy_db, monkeypatch):
        slots = ("SELECT COUNT(*) FROM users",) * 5
        first = self._run(toy_db, monkeypatch, slots)
        second = self._run(toy_db, monkeypatch, slots)
        assert recorded(first.candidates[0].execution) == recorded(
            second.candidates[0].execution
        )
        assert first.candidates[0].execution is not second.candidates[0].execution


class TestRunBenchmark:
    def test_requests_ask_for_2048_tokens_and_the_judge_for_8(self, toy_dataset):
        backend = ScriptedBackend(ToyScript())
        records, _ = run_benchmark(PipelineConfig.default(), load_dataset(toy_dataset),
                                   backend, workers=1, record_timing=False)
        judged = sum(r.selection.pairwise_calls for r in records)
        assert judged > 0
        assert sorted(Counter(r.max_tokens for r in backend.requests).items()) == [
            (8, judged), (2048, len(backend.requests) - judged)
        ]

    def test_parallel_run_streams_in_dataset_order(self, toy_dataset, tmp_path):
        items = load_dataset(toy_dataset)
        items.append(
            BenchmarkItem(
                question_id="11",
                db_id="toy_shop",
                question="Completely unscripted question?",
                gold_sql="SELECT 1",
                db_path=items[0].db_path,
            )
        )
        out_path = tmp_path / "records.jsonl"
        seen = []
        records, report = run_benchmark(
            PipelineConfig.default(),
            items,
            ScriptedBackend(ToyScript()),
            out_path=out_path,
            workers=2,
            record_timing=False,
            progress=seen.append,
        )
        assert [r.question_id for r in records] == [str(i) for i in range(1, 12)]
        assert [r.question_id for r in seen] == [r.question_id for r in records]

        failed = records[-1]
        assert failed.error is not None
        assert "AssertionError" in failed.error
        assert failed.selection is None

        streamed = read_records(out_path)
        assert [r.question_id for r in streamed] == [r.question_id for r in records]

        assert report.items == 11
        assert report.failed == 1
        assert report.scored == 10
        assert report.ex == EXPECTED_EX
        assert [r.llm_calls() for r in records[:10]] == EXPECTED_CALLS

    def test_serial_run_matches(self, toy_dataset):
        items = load_dataset(toy_dataset, limit=3)
        records, report = run_benchmark(
            PipelineConfig.default(),
            items,
            ScriptedBackend(ToyScript()),
            workers=1,
            record_timing=False,
        )
        assert report.items == 3
        assert report.failed == 0
        assert [r.ex for r in records] == [q["ex"] for q in TOY_BENCH[:3]]

    def test_two_recordings_are_byte_identical(self, toy_dataset, tmp_path):
        items = load_dataset(toy_dataset)
        fixtures, replayed = [], []
        for attempt in range(2):
            fixture = tmp_path / f"fixture{attempt}.jsonl"
            with RecordingChatBackend(ScriptedBackend(ToyScript()), fixture) as backend:
                run_benchmark(PipelineConfig.default(), items, backend, workers=2,
                              record_timing=False)
            fixtures.append(fixture.read_bytes())
            out = tmp_path / f"replayed{attempt}.jsonl"
            run_benchmark(PipelineConfig.default(), items, ReplayChatBackend(fixture),
                          out_path=out, workers=2, record_timing=False)
            replayed.append(out.read_bytes())
        assert fixtures[0] == fixtures[1]
        digests = [json.loads(line)["digest"] for line in fixtures[0].splitlines()]
        assert digests == sorted(digests)
        assert replayed[0] == replayed[1]

    def test_a_store_smaller_than_fewshot_k_is_reported_once(self, toy_dataset, tmp_path,
                                                             caplog):
        items = load_dataset(toy_dataset)
        store = tmp_path / "store.jsonl"
        with PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript())) as runner:
            build_fewshot_store(runner, items[:2]).save(store)
        config = dataclasses.replace(
            PipelineConfig.default(), fewshot_store_path=str(store), fewshot_k=3
        )
        with caplog.at_level("WARNING"):
            _, report = run_benchmark(config, items, ScriptedBackend(ToyScript()),
                                      workers=2, record_timing=False)
        assert report.items == len(TOY_BENCH) and report.failed == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [
            f"fewshot_k is 3, but the store {store} holds only 2 examples"
        ]


def _sweep_script(linker_models=None):
    """Every slot answers with the reference; linker calls are allowed only
    when linker_models is a list, which collects their models."""
    gold_by_question = {q["question"]: q["gold"] for q in TOY_BENCH}
    generation_system = load_generation_system_prompt()
    question_re = re.compile(r"Question: (.*)")

    def script(request):
        if linker_models is not None and request.messages[0]["content"] != generation_system:
            linker_models.append(request.model)
            return TOY_LINKER_JSON
        assert request.messages[0]["content"] == generation_system
        question = question_re.search(request.messages[-1]["content"]).group(1)
        return sql_block(gold_by_question[question])

    return script


class TestSweep:
    def test_all_correct_pool(self, toy_dataset):
        items = load_dataset(toy_dataset, limit=3)
        results = sweep(
            PipelineConfig.default(),
            items,
            ScriptedBackend(_sweep_script()),
            formats=[RepresentationFormat.COMPACT_TAGGED, RepresentationFormat.DDL],
            levels=[FilterLevel.NO_FILTERING],
            n=2,
        )
        assert len(results) == 3  # multisets of size 2 from a pool of 2
        assert {r.ex for r in results} == {1.0}
        assert results[0].labels[0] in (
            "compact_tagged+no_filtering", "ddl+no_filtering"
        )

    def test_slate_without_a_linker_links_with_the_default(self, toy_dataset):
        # no slot of this slate filters, so it names no linker model
        config = dataclasses.replace(
            PipelineConfig.default(),
            specs=[CandidateSpec(RepresentationFormat.DDL, FilterLevel.NO_FILTERING)],
        )
        linker_models = []
        results = sweep(
            config, load_dataset(toy_dataset, limit=2),
            ScriptedBackend(_sweep_script(linker_models)),
            formats=[RepresentationFormat.COMPACT_TAGGED, RepresentationFormat.DDL],
            levels=[FilterLevel.NO_FILTERING, FilterLevel.FULL_FILTERING], n=1,
        )
        assert {r.ex for r in results} == {1.0}
        # one linker run per format and item
        assert linker_models == [DEFAULT_LINKER_PRIMARY] * 4

    def test_reference_failures_skipped(self, toy_dataset, caplog):
        items = load_dataset(toy_dataset, limit=1)
        broken = BenchmarkItem(
            question_id="x",
            db_id="toy_shop",
            question=items[0].question,
            gold_sql="SELECT nope FROM users",
            db_path=items[0].db_path,
        )
        with caplog.at_level("WARNING"):
            results = sweep(
                PipelineConfig.default(),
                [items[0], broken],
                ScriptedBackend(_sweep_script()),
                formats=[RepresentationFormat.COMPACT_TAGGED],
                levels=[FilterLevel.NO_FILTERING],
                n=1,
            )
        assert "skipped 1 items" in caplog.text
        assert results[0].ex == 1.0

    def test_subset_is_deterministic(self, toy_dataset):
        items = load_dataset(toy_dataset)
        kwargs = dict(
            formats=[RepresentationFormat.COMPACT_TAGGED],
            levels=[FilterLevel.NO_FILTERING],
            n=1,
            subset_fraction=0.3,
            seed=7,
        )
        first = sweep(PipelineConfig.default(), items,
                      ScriptedBackend(_sweep_script()), **kwargs)
        second = sweep(PipelineConfig.default(), items,
                       ScriptedBackend(_sweep_script()), **kwargs)
        assert first == second

    def test_bad_subset_fraction(self, toy_dataset):
        items = load_dataset(toy_dataset, limit=1)
        with pytest.raises(SweepError, match="subset fraction"):
            sweep(
                PipelineConfig.default(),
                items,
                ScriptedBackend(_sweep_script()),
                formats=[RepresentationFormat.COMPACT_TAGGED],
                levels=[FilterLevel.NO_FILTERING],
                n=1,
                subset_fraction=1.5,
            )

    def test_empty_pool_rejected(self, toy_dataset):
        items = load_dataset(toy_dataset, limit=1)
        with pytest.raises(SweepError, match="at least one format"):
            sweep(
                PipelineConfig.default(),
                items,
                ScriptedBackend(_sweep_script()),
                formats=[],
                levels=[FilterLevel.NO_FILTERING],
                n=1,
            )

    @pytest.mark.parametrize("n, cap, message", [
        pytest.param(3, 3, "4 combinations of 2 pool entries exceed the cap of 3",
                     id="over_cap"),
        pytest.param(0, harness.DEFAULT_COMBO_CAP, "at least 1", id="zero_size"),
    ])
    def test_bad_combination_request_makes_no_model_call(
        self, toy_dataset, n, cap, message
    ):
        backend = ScriptedBackend(_sweep_script())
        with pytest.raises(SweepError, match=message):
            sweep(
                PipelineConfig.default(),
                load_dataset(toy_dataset, limit=3),
                backend,
                formats=[RepresentationFormat.COMPACT_TAGGED, RepresentationFormat.DDL],
                levels=[FilterLevel.NO_FILTERING],
                n=n,
                cap=cap,
            )
        assert backend.requests == []


class TestBuildFewshotStore:
    def test_store_from_items(self, toy_dataset):
        items = load_dataset(toy_dataset, limit=3)
        backend = ScriptedBackend(ToyScript())
        with PipelineRunner(PipelineConfig.default(), backend) as runner:
            store = build_fewshot_store(runner, items)
        assert backend.requests == []
        assert len(store) == 3
        assert store.embeddings.shape == (3, 64)
        assert store.examples[0].question == TOY_BENCH[0]["question"]
        assert store.examples[0].sql == TOY_BENCH[0]["gold"]
        assert "[DB_ID]  toy_shop" in store.examples[0].schema_text

    def test_schema_texts_follow_the_config(self, toy_dataset):
        # users.name holds 4 distinct texts: a category list under the default
        # threshold of 20, none under a threshold of 3
        items = load_dataset(toy_dataset, limit=1)
        fmt = RepresentationFormat.COMMENTED_TUPLES
        config = dataclasses.replace(PipelineConfig.default(), category_threshold=3)
        with PipelineRunner(config, ScriptedBackend(ToyScript())) as runner:
            store = build_fewshot_store(runner, items, fmt)
            expected = render(runner.catalog_for(items[0].db_id, items[0].db_path), fmt)
        assert store.examples[0].schema_text == expected
        assert "'Alice'" not in expected
        with PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript())) as runner:
            default = build_fewshot_store(runner, items, fmt)
        assert "Value examples: ['Alice', 'Bob', 'Cara', 'Dan']" in default.examples[0].schema_text

    def test_schema_texts_carry_the_config_descriptions(self, toy_dataset, tmp_path):
        descriptions = tmp_path / "descriptions.json"
        descriptions.write_text(
            json.dumps({"toy_shop": {"users": {"name": "customer full name"}}}),
            encoding="utf-8",
        )
        config = dataclasses.replace(
            PipelineConfig.default(), descriptions_path=str(descriptions)
        )
        items = load_dataset(toy_dataset, limit=1)
        with PipelineRunner(config, ScriptedBackend(ToyScript())) as runner:
            store = build_fewshot_store(
                runner, items, RepresentationFormat.COMMENTED_TUPLES
            )
        assert "customer full name" in store.examples[0].schema_text
