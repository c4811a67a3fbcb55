import json

import numpy as np
import pytest

from ensql.catalog import FilterLevel
from ensql.formats import RepresentationFormat, render
from ensql.gateway import (
    CostLedger,
    GatewayError,
    HashEmbeddingBackend,
    LlmGateway,
    TokenUsage,
)
from ensql.generation import (
    CandidateSpec,
    FewShotExample,
    FewShotStore,
    NoCodeBlockError,
    build_generation_prompt,
    extract_sql,
    load_generation_system_prompt,
    retrieve_fewshots,
)
from ensql.harness import BenchmarkItem, generate_candidates
from ensql.linking import LinkingPrediction, format_user_turn, load_linking_system_prompt
from ensql.selection import ExecStatus

from helpers import ScriptedBackend, sql_block


class TestExtractSql:
    def test_tagged_block(self):
        assert extract_sql("```sql\nSELECT 1\n```") == "SELECT 1"

    def test_sqlite_tag(self):
        assert extract_sql("```sqlite\nSELECT 2;\n```") == "SELECT 2;"

    def test_untagged_block_accepted(self):
        assert extract_sql("here\n```\nSELECT 3\n```\nbye") == "SELECT 3"

    def test_tagged_preferred_over_earlier_untagged(self):
        text = "```\nnot it\n```\n```sql\nSELECT 4\n```"
        assert extract_sql(text) == "SELECT 4"

    def test_first_tagged_wins(self):
        text = "```sql\nSELECT 5\n```\n```sql\nSELECT 6\n```"
        assert extract_sql(text) == "SELECT 5"

    def test_multiline_statement_preserved(self):
        sql = "SELECT a,\n       b\nFROM t\nWHERE a > 1"
        assert extract_sql(f"prose\n```sql\n{sql}\n```") == sql

    def test_other_language_blocks_ignored(self):
        with pytest.raises(NoCodeBlockError):
            extract_sql("```python\nprint('hi')\n```")

    def test_plain_text_rejected(self):
        with pytest.raises(NoCodeBlockError):
            extract_sql("SELECT 1")


class TestBuildGenerationPrompt:
    def test_minimal(self):
        messages = build_generation_prompt("SCHEMA", "How many?")
        assert [m["role"] for m in messages] == ["system", "user"]
        assert messages[0]["content"] == load_generation_system_prompt()
        assert messages[1]["content"] == "Schema:\nSCHEMA\n\nQuestion: How many?"

    def test_hint_appended(self):
        messages = build_generation_prompt("S", "Q", hint="active means status = 'A'")
        assert messages[-1]["content"].endswith("\nHint: active means status = 'A'")

    def test_fewshots_interleaved(self):
        shots = [
            FewShotExample(question="q1", sql="SELECT 1", db_id="d", schema_text="s1"),
            FewShotExample(question="q2", sql="SELECT 2", db_id="d", schema_text="s2"),
        ]
        messages = build_generation_prompt("S", "Q", fewshots=shots)
        assert [m["role"] for m in messages] == [
            "system", "user", "assistant", "user", "assistant", "user",
        ]
        assert messages[1]["content"] == format_user_turn("s1", "q1")
        assert messages[2]["content"] == "```sql\nSELECT 1\n```"
        assert extract_sql(messages[4]["content"]) == "SELECT 2"
        assert messages[-1]["content"] == format_user_turn("S", "Q")


def _store(questions):
    backend = HashEmbeddingBackend()
    examples = [
        FewShotExample(question=q, sql=f"SELECT {i}", db_id="db", schema_text="s")
        for i, q in enumerate(questions)
    ]
    return FewShotStore(examples, np.vstack(backend.embed(questions))), backend


class TestFewShotStore:
    def test_save_load_round_trip(self, tmp_path):
        store, _ = _store(["alpha", "beta"])
        path = tmp_path / "store.jsonl"
        store.save(path)
        loaded = FewShotStore.load(path)
        assert len(loaded) == 2
        assert loaded.examples == store.examples
        np.testing.assert_allclose(loaded.embeddings, store.embeddings)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FewShotStore(
                [FewShotExample(question="q", sql="s", db_id="d", schema_text="t")],
                np.zeros((2, 4)),
            )

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"question": "q"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            FewShotStore.load(path)

    def test_empty_store_loads(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(FewShotStore.load(path)) == 0


class TestRetrieveFewshots:
    def test_exact_match_ranks_first(self):
        store, backend = _store(["count all users", "total revenue", "top product"])
        shots = retrieve_fewshots("total revenue", store, backend, k=2)
        assert shots[0].question == "total revenue"
        assert len(shots) == 2

    def test_k_zero_returns_nothing(self):
        store, backend = _store(["a", "b"])
        assert retrieve_fewshots("a", store, backend, k=0) == []

    def test_k_clamped_to_the_store_size(self, caplog):
        # the runner reports a small store once per run, not once per question
        store, backend = _store(["a", "b"])
        with caplog.at_level("WARNING"):
            shots = retrieve_fewshots("a", store, backend, k=10)
        assert len(shots) == 2
        assert caplog.text == ""

    def test_empty_store(self):
        backend = HashEmbeddingBackend()
        store = FewShotStore([], np.zeros((0, 0)))
        assert retrieve_fewshots("a", store, backend, k=3) == []

    def test_deterministic(self):
        store, backend = _store(["alpha", "beta", "gamma", "delta"])
        first = retrieve_fewshots("some question", store, backend, k=3)
        second = retrieve_fewshots("some question", store, backend, k=3)
        assert [s.question for s in first] == [s.question for s in second]


SPECS = [
    CandidateSpec(RepresentationFormat.COMMENTED_TUPLES, FilterLevel.NO_FILTERING),
    CandidateSpec(RepresentationFormat.COMPACT_TAGGED, FilterLevel.TABLE_ONLY, "linker"),
]
PREDICTION = LinkingPrediction(selection={"users": ["name"]})
LINKING_SYSTEM = load_linking_system_prompt()


def _item(hint=""):
    return BenchmarkItem(question_id="q1", db_id="toy_shop", question="q", gold_sql="",
                         hint=hint)


class TestGenerateCandidates:
    def _gateway(self, generate, linker_reply=json.dumps(PREDICTION.selection)):
        """Linker prompts get linker_reply; generation prompts go to generate."""
        def script(request):
            if request.messages[0]["content"] == LINKING_SYSTEM:
                return linker_reply
            return generate(request)

        backend = ScriptedBackend(script)
        return LlmGateway(backend, ledger=CostLedger()), backend

    @staticmethod
    def _slot(request):
        """Which of SPECS a generation request is for: compact tagged shows [DB_ID]."""
        return int("[DB_ID]" in request.messages[-1]["content"])

    @classmethod
    def _generation_requests(cls, backend):
        """Generation requests in slot order, whatever order the calls ran in."""
        requests = [r for r in backend.requests if r.messages[0]["content"] != LINKING_SYSTEM]
        return sorted(requests, key=cls._slot)

    def test_one_candidate_per_spec_in_order(self, toy_catalog):
        def script(request):
            return sql_block(f"SELECT {self._slot(request)}")

        gateway, backend = self._gateway(script)
        candidates = generate_candidates(SPECS, "gen", toy_catalog, _item(), gateway)
        assert [c.spec_index for c in candidates] == [0, 1]
        assert [c.sql for c in candidates] == ["SELECT 0", "SELECT 1"]
        assert all(c.execution is None for c in candidates)
        assert all(c.usage.output_tokens > 0 for c in candidates)
        assert {r.model for r in self._generation_requests(backend)} == {"gen"}

    def test_linker_runs_come_from_the_slate(self, toy_catalog):
        # two filtered slots share (format, linker model); the third differs
        # from the second only in its linker model
        specs = [
            CandidateSpec(RepresentationFormat.COMPACT_TAGGED, FilterLevel.TABLE_ONLY, "a"),
            CandidateSpec(RepresentationFormat.COMPACT_TAGGED, FilterLevel.FULL_FILTERING, "a"),
            CandidateSpec(RepresentationFormat.COMPACT_TAGGED, FilterLevel.FULL_FILTERING, "b"),
        ]
        gateway, backend = self._gateway(lambda r: sql_block("SELECT 1"))
        candidates = generate_candidates(specs, "gen", toy_catalog, _item(), gateway)
        linker = [r for r in backend.requests if r.messages[0]["content"] == LINKING_SYSTEM]
        assert sorted(r.model for r in linker) == ["a", "b"]
        assert [c.spec_index for c in candidates] == [0, 1, 2]

    def test_schema_rendering_respects_spec(self, toy_catalog):
        def script(request):
            return sql_block("SELECT 1")

        gateway, backend = self._gateway(script)
        generate_candidates(SPECS, "gen", toy_catalog, _item(), gateway)
        first, second = self._generation_requests(backend)
        full = render(toy_catalog, RepresentationFormat.COMMENTED_TUPLES)
        assert full in first.messages[-1]["content"]
        second_user = second.messages[-1]["content"]
        assert "[DB_ID]" in second_user
        # table-only filtering keeps users whole but drops products entirely
        assert "products" not in second_user

    def test_missing_linker_output_falls_back_to_full_schema(self, toy_catalog, caplog):
        def script(request):
            return sql_block("SELECT 1")

        gateway, backend = self._gateway(script, linker_reply="no JSON here")
        with caplog.at_level("WARNING"):
            candidates = generate_candidates(SPECS, "gen", toy_catalog, _item(), gateway)
        assert "using the full schema" in caplog.text
        assert "products" in self._generation_requests(backend)[1].messages[-1]["content"]
        assert candidates[1].sql == "SELECT 1"

    def test_no_code_block_yields_error_candidate(self, toy_catalog):
        def script(request):
            if self._slot(request) == 1:
                return "I cannot answer that."
            return sql_block("SELECT 1")

        gateway, _ = self._gateway(script)
        candidates = generate_candidates(SPECS, "gen", toy_catalog, _item(), gateway)
        failed = candidates[1]
        assert failed.sql == ""
        assert failed.raw_response == "I cannot answer that."
        assert failed.execution.status is ExecStatus.ERROR
        assert failed.execution.error_text.startswith("NoCodeBlock:")
        assert failed.usage.output_tokens > 0  # spent tokens still counted

    def test_backend_error_yields_error_candidate(self, toy_catalog):
        def script(request):
            if self._slot(request) == 1:
                raise GatewayError("boom")
            return sql_block("SELECT 1")

        gateway, _ = self._gateway(script)
        candidates = generate_candidates(SPECS, "gen", toy_catalog, _item(), gateway)
        failed = candidates[1]
        assert failed.execution.error_text == "BackendError: boom"
        assert failed.usage == TokenUsage()
        assert candidates[0].sql == "SELECT 1"

    def test_requests_pin_temperature_zero(self, toy_catalog):
        def script(request):
            assert request.temperature == 0.0
            return sql_block("SELECT 1")

        gateway, backend = self._gateway(script)
        generate_candidates(SPECS, "gen", toy_catalog, _item("a hint"), gateway)
        assert all(r.temperature == 0.0 for r in backend.requests)
        first = self._generation_requests(backend)[0]
        assert first.messages[-1]["content"].endswith("Hint: a hint")

    def test_no_specs(self, toy_catalog):
        gateway, _ = self._gateway(lambda r: sql_block("SELECT 1"))
        assert generate_candidates([], "gen", toy_catalog, _item(), gateway) == []
