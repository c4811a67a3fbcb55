import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ensql.catalog import FilterLevel
from ensql.formats import RepresentationFormat, render
from ensql.gateway import (
    CostLedger,
    GatewayError,
    LlmGateway,
    TokenUsage,
)
from ensql.generation import (
    CandidateSpec,
    FewShotExample,
    FewShotStore,
    NoCodeBlockError,
    build_generation_prompt,
    embed_question,
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


def _examples(questions):
    return [
        FewShotExample(question=q, sql=f"SELECT {i}", db_id="db", schema_text="s")
        for i, q in enumerate(questions)
    ]


def _store(questions):
    return FewShotStore(_examples(questions))


class TestEmbedQuestion:
    def test_deterministic(self):
        np.testing.assert_array_equal(embed_question("a question"), embed_question("a question"))

    def test_unit_norm(self):
        for text in ["x", "y", "z"]:
            assert abs(float(np.linalg.norm(embed_question(text))) - 1.0) < 1e-12

    def test_distinct_texts_distinct_vectors(self):
        assert not np.array_equal(embed_question("one"), embed_question("two"))

    def test_vectors_are_pinned(self):
        # stores and retrieval orders depend on these exact vectors
        vec = embed_question("a question")
        assert vec.shape == (64,)
        np.testing.assert_allclose(
            vec[:4], [-0.154035, -0.003798, 0.127938, -0.151621], atol=5e-7
        )


class TestFewShotStore:
    def test_save_load_round_trip(self, tmp_path):
        store = _store(["alpha", "beta"])
        path = tmp_path / "store.jsonl"
        store.save(path)
        loaded = FewShotStore.load(path)
        assert len(loaded) == 2
        assert loaded.examples == store.examples
        np.testing.assert_array_equal(loaded.embeddings, store.embeddings)
        # a store file holds the solved examples only
        for line in path.read_text(encoding="utf-8").splitlines():
            assert set(json.loads(line)) == {"question", "sql", "db_id", "schema_text"}

    def test_a_store_with_old_vectors_retrieves_as_without_them(self, tmp_path):
        # older versions stored each question's vector, of any width; load
        # ignores it and embeds the question
        questions = ["count all users", "total revenue", "top product", "total revenue"]
        path = tmp_path / "old.jsonl"
        path.write_text("".join(
            json.dumps({"question": e.question, "sql": e.sql, "db_id": e.db_id,
                        "schema_text": e.schema_text, "embedding": [0.0] * 1535 + [1.0]}) + "\n"
            for e in _examples(questions)
        ), encoding="utf-8")
        old, new = FewShotStore.load(path), _store(questions)
        assert old.examples == new.examples
        for query in [*questions, "something else"]:
            for k in range(len(questions) + 2):
                assert retrieve_fewshots(query, old, k) == retrieve_fewshots(query, new, k)

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"question": "q"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            FewShotStore.load(path)

    @pytest.mark.parametrize("line", [
        '{"question": null, "sql": "s", "db_id": "d", "schema_text": "t"}',
        '["q", "s", "d", "t"]',
    ], ids=["null_question", "not_an_object"])
    def test_a_record_of_the_wrong_shape_names_its_line(self, tmp_path, line):
        # the question is embedded at load, so it must be text
        path = tmp_path / "bad.jsonl"
        path.write_text('{"question": "q", "sql": "s", "db_id": "d", "schema_text": "t"}\n'
                        + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:2: bad store record"):
            FewShotStore.load(path)

    def test_empty_store_loads(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(FewShotStore.load(path)) == 0


@st.composite
def _questions(draw):
    """1-20 questions, some repeating an earlier one or a case variant of it."""
    questions: list[str] = []
    for _ in range(draw(st.integers(1, 20))):
        if questions and draw(st.booleans()):
            earlier = draw(st.sampled_from(questions))
            questions.append(draw(st.sampled_from(
                [earlier, earlier.upper(), earlier.lower(), earlier.swapcase()]
            )))
        else:
            questions.append(draw(st.text(max_size=30)))
    return questions


class TestRetrievalProperties:
    @given(questions=_questions(), query=st.text(max_size=30), k=st.integers(0, 21))
    def test_a_saved_store_retrieves_as_the_store_in_memory(self, questions, query, k):
        store = _store(questions)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.jsonl"
            store.save(path)
            loaded = FewShotStore.load(path)
        for question in [*questions, query]:
            assert retrieve_fewshots(question, loaded, k) == retrieve_fewshots(question, store, k)

    @given(questions=_questions())
    def test_every_stored_question_retrieves_itself_first(self, questions):
        store = _store(questions)
        for question in questions:
            assert retrieve_fewshots(question, store, 1)[0].question == question


class TestRetrieveFewshots:
    def test_exact_match_ranks_first(self):
        store = _store(["count all users", "total revenue", "top product"])
        shots = retrieve_fewshots("total revenue", store, k=2)
        assert shots[0].question == "total revenue"
        assert len(shots) == 2

    def test_k_zero_returns_nothing(self):
        store = _store(["a", "b"])
        assert retrieve_fewshots("a", store, k=0) == []

    def test_k_clamped_to_the_store_size(self, caplog):
        # the runner reports a small store once per run, not once per question
        store = _store(["a", "b"])
        with caplog.at_level("WARNING"):
            shots = retrieve_fewshots("a", store, k=10)
        assert len(shots) == 2
        assert caplog.text == ""

    def test_empty_store(self):
        assert retrieve_fewshots("a", FewShotStore([]), k=3) == []

    def test_deterministic(self):
        store = _store(["alpha", "beta", "gamma", "delta"])
        first = retrieve_fewshots("some question", store, k=3)
        second = retrieve_fewshots("some question", store, k=3)
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
        gateway, backend = self._gateway(lambda r: sql_block("SELECT 1"))
        generate_candidates(SPECS, "gen", toy_catalog, _item("a hint"), gateway)
        first = self._generation_requests(backend)[0]
        assert first.messages[-1]["content"].endswith("Hint: a hint")

    def test_no_specs(self, toy_catalog):
        gateway, _ = self._gateway(lambda r: sql_block("SELECT 1"))
        assert generate_candidates([], "gen", toy_catalog, _item(), gateway) == []


# a fresh interpreter answers one question the way a scripted or replayed run
# does, then builds the two objects that need numpy and requests; it prints
# which of the two are loaded after each step
_IMPORT_PROBE = """
import json, sys, tempfile
from pathlib import Path

def loaded():
    return sorted(m for m in ("numpy", "requests") if m in sys.modules)

import ensql, ensql.cli
steps = {"import": loaded()}

from ensql.config import PipelineConfig
from ensql.harness import BenchmarkItem, PipelineRunner
from helpers import ScriptedBackend, TOY_BENCH, ToyScript, build_toy_db

with tempfile.TemporaryDirectory() as tmp:
    db = Path(tmp) / "toy.sqlite"
    build_toy_db(db)
    first = TOY_BENCH[0]
    item = BenchmarkItem("1", "toy_shop", first["question"], first["gold"], db_path=db)
    with PipelineRunner(PipelineConfig.default(), ScriptedBackend(ToyScript())) as runner:
        record = runner.run_item(item)
steps["run_item"] = loaded()
steps["ex"] = record.ex

from ensql.generation import FewShotExample, FewShotStore
FewShotStore([FewShotExample("q", "SELECT 1", "db", "s")])
steps["store"] = loaded()

from ensql.gateway import HttpChatBackend
HttpChatBackend(api_key="", session=object())
steps["http"] = loaded()
print(json.dumps(steps))
"""


class TestImportFootprint:
    def test_numpy_and_requests_load_only_where_they_are_used(self):
        import ensql

        paths = [str(Path(ensql.__file__).parents[1]), str(Path(__file__).parent)]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        steps = json.loads(done.stdout)
        assert steps["import"] == []
        assert steps["run_item"] == []
        assert steps["ex"] == 1
        assert steps["store"] == ["numpy"]
        assert steps["http"] == ["numpy", "requests"]

    def test_the_package_import_loads_no_engine_module(self):
        # each name is imported from its module, so the package itself re-exports nothing
        import ensql

        env = {**os.environ, "PYTHONPATH": str(Path(ensql.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c",
             "import json, sys, ensql; print(json.dumps(sorted(sys.modules)))"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert [m for m in json.loads(done.stdout) if m.startswith("ensql.")] == []
