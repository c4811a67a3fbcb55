import json
import threading
import time
from decimal import Decimal

import numpy as np
import pytest
import requests

from ensql.gateway import (
    CallThrottle,
    ChatRequest,
    ChatResponse,
    CostLedger,
    GatewayError,
    HashEmbeddingBackend,
    HttpChatBackend,
    HttpEmbeddingBackend,
    LlmGateway,
    PriceTable,
    RecordingChatBackend,
    ReplayChatBackend,
    ReplayMissError,
    STAGE_EMBEDDING,
    STAGE_GENERATION,
    STAGE_LINKING,
    STAGE_SELECTION,
    TokenUsage,
    TransportError,
    request_digest,
)

from helpers import ScriptedBackend


MESSAGES = ({"role": "user", "content": "hello"},)


class TestRequestDigest:
    def test_stable(self):
        assert request_digest("m", MESSAGES) == request_digest("m", list(MESSAGES))
        assert len(request_digest("m", MESSAGES)) == 64

    def test_model_sensitive(self):
        assert request_digest("m1", MESSAGES) != request_digest("m2", MESSAGES)

    def test_content_sensitive(self):
        other = ({"role": "user", "content": "hello!"},)
        assert request_digest("m", MESSAGES) != request_digest("m", other)

    def test_key_order_insensitive(self):
        flipped = ({"content": "hello", "role": "user"},)
        assert request_digest("m", MESSAGES) == request_digest("m", flipped)


class FakeResponse:
    def __init__(self, status_code, doc=None, text=""):
        self.status_code = status_code
        self._doc = doc
        self.text = text or (json.dumps(doc) if doc is not None else "")

    def json(self):
        return self._doc


class FakeSession:
    """Pops one scripted outcome per post; an Exception instance is raised."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "payload": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def ok_doc(text="```sql\nSELECT 1\n```", prompt=12, completion=7):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": prompt, "completion_tokens": completion},
    }


def make_backend(outcomes, **kwargs):
    sleeps = []
    session = FakeSession(outcomes)
    backend = HttpChatBackend(
        base_url="https://fake.test/v1",
        api_key="sk-test",
        session=session,
        sleep=sleeps.append,
        **kwargs,
    )
    return backend, session, sleeps


REQUEST = ChatRequest(model="m", messages=MESSAGES, temperature=0.0, max_tokens=64)


class TestHttpChatBackend:
    def test_success_parses_text_and_usage(self):
        backend, session, sleeps = make_backend([FakeResponse(200, ok_doc())])
        response = backend.complete(REQUEST)
        assert response.text == "```sql\nSELECT 1\n```"
        assert response.usage == TokenUsage(12, 7)
        assert sleeps == []
        call = session.calls[0]
        assert call["url"] == "https://fake.test/v1/chat/completions"
        assert call["payload"]["temperature"] == 0.0
        assert call["headers"]["Authorization"] == "Bearer sk-test"

    def test_rate_limit_retries_with_exponential_backoff(self):
        backend, session, sleeps = make_backend(
            [FakeResponse(429), FakeResponse(429), FakeResponse(200, ok_doc())]
        )
        response = backend.complete(REQUEST)
        assert response.usage.input_tokens == 12
        assert len(session.calls) == 3
        assert sleeps == [1.0, 2.0]

    def test_client_error_fails_immediately(self):
        backend, session, sleeps = make_backend(
            [FakeResponse(400, text='{"error": "bad request"}')]
        )
        with pytest.raises(TransportError, match="HTTP 400"):
            backend.complete(REQUEST)
        assert len(session.calls) == 1
        assert sleeps == []

    def test_retries_exhausted(self):
        backend, session, sleeps = make_backend(
            [FakeResponse(503)] * 4, max_retries=3
        )
        with pytest.raises(TransportError, match="after 4 attempts"):
            backend.complete(REQUEST)
        assert len(session.calls) == 4
        assert sleeps == [1.0, 2.0, 4.0]

    def test_connection_error_retried(self):
        backend, session, _ = make_backend(
            [requests.ConnectionError("refused"), FakeResponse(200, ok_doc())]
        )
        assert backend.complete(REQUEST).text.startswith("```sql")
        assert len(session.calls) == 2

    def test_malformed_body_raises(self):
        backend, _, _ = make_backend([FakeResponse(200, {"nonsense": True})])
        with pytest.raises(TransportError, match="malformed completion response"):
            backend.complete(REQUEST)

    def test_null_content_becomes_empty_text(self):
        doc = {"choices": [{"message": {"content": None}}]}
        backend, _, _ = make_backend([FakeResponse(200, doc)])
        response = backend.complete(REQUEST)
        assert response.text == ""
        assert response.usage == TokenUsage()

    def test_env_fallbacks(self, monkeypatch):
        monkeypatch.setenv("OPENAI_BASE_URL", "https://env.test/v1/")
        monkeypatch.setenv("OPENAI_API_KEY", "sk-env")
        backend = HttpChatBackend(session=FakeSession([]), sleep=lambda s: None)
        assert backend.base_url == "https://env.test/v1"
        assert backend.api_key == "sk-env"


class TestReplayAndRecording:
    def _record_fixture(self, path):
        inner = ScriptedBackend(lambda req: f"reply to {req.messages[-1]['content']}")
        recorder = RecordingChatBackend(inner, path)
        req_a = ChatRequest(model="m", messages=MESSAGES, temperature=0.0, max_tokens=8)
        req_b = ChatRequest(
            model="m",
            messages=({"role": "user", "content": "other"},),
            temperature=0.0,
            max_tokens=8,
        )
        return recorder.complete(req_a), recorder.complete(req_b), (req_a, req_b)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "fixture.jsonl"
        live_a, live_b, (req_a, req_b) = self._record_fixture(path)
        replay = ReplayChatBackend(path)
        assert len(replay) == 2
        assert replay.complete(req_a) == live_a
        assert replay.complete(req_b) == live_b

    def test_recording_passes_response_through(self, tmp_path):
        live_a, _, _ = self._record_fixture(tmp_path / "f.jsonl")
        assert live_a.text == "reply to hello"
        assert live_a.usage.output_tokens > 0

    def test_miss_names_digest_and_model(self, tmp_path):
        path = tmp_path / "fixture.jsonl"
        self._record_fixture(path)
        replay = ReplayChatBackend(path)
        unseen = ChatRequest(
            model="m",
            messages=({"role": "user", "content": "new"},),
            temperature=0.0,
            max_tokens=8,
        )
        with pytest.raises(ReplayMissError) as err:
            replay.complete(unseen)
        digest = request_digest("m", unseen.messages)
        assert digest in str(err.value)
        assert "m" in str(err.value)

    def test_bad_record_line_rejected(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"digest": "abc"}\n', encoding="utf-8")
        with pytest.raises(GatewayError, match="broken.jsonl:1"):
            ReplayChatBackend(path)

    def test_rerecording_last_write_wins(self, tmp_path):
        path = tmp_path / "fixture.jsonl"
        record = {
            "digest": request_digest("m", MESSAGES),
            "model": "m",
            "text": "old",
            "input_tokens": 1,
            "output_tokens": 1,
        }
        newer = dict(record, text="new")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps(newer) + "\n")
        replay = ReplayChatBackend(path)
        assert replay.complete(REQUEST).text == "new"
        assert len(replay) == 1


class TestHashEmbeddingBackend:
    def test_deterministic_across_instances(self):
        a = HashEmbeddingBackend().embed(["a question"])[0]
        b = HashEmbeddingBackend().embed(["a question"])[0]
        np.testing.assert_array_equal(a, b)

    def test_unit_norm(self):
        vectors = HashEmbeddingBackend().embed(["x", "y", "z"])
        for vec in vectors:
            assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-12

    def test_distinct_texts_distinct_vectors(self):
        a, b = HashEmbeddingBackend().embed(["one", "two"])
        assert not np.array_equal(a, b)

    def test_dim(self):
        assert HashEmbeddingBackend(dim=16).embed(["t"])[0].shape == (16,)
        with pytest.raises(ValueError):
            HashEmbeddingBackend(dim=1)


class TestHttpEmbeddingBackend:
    def test_rows_resorted_by_index(self):
        doc = {
            "data": [
                {"index": 1, "embedding": [0.0, 2.0]},
                {"index": 0, "embedding": [3.0, 0.0]},
            ]
        }
        session = FakeSession([FakeResponse(200, doc)])
        http = HttpChatBackend(
            base_url="https://fake.test/v1", api_key="k",
            session=session, sleep=lambda s: None,
        )
        backend = HttpEmbeddingBackend("embed-model", http=http)
        vectors = backend.embed(["first", "second"])
        np.testing.assert_allclose(vectors[0], [1.0, 0.0])
        np.testing.assert_allclose(vectors[1], [0.0, 1.0])
        assert session.calls[0]["url"].endswith("/embeddings")

    def test_row_count_mismatch(self):
        doc = {"data": [{"index": 0, "embedding": [1.0, 0.0]}]}
        session = FakeSession([FakeResponse(200, doc)])
        http = HttpChatBackend(
            base_url="https://fake.test/v1", api_key="k",
            session=session, sleep=lambda s: None,
        )
        backend = HttpEmbeddingBackend("embed-model", http=http)
        with pytest.raises(TransportError, match="2 inputs"):
            backend.embed(["a", "b"])

    def test_empty_input_no_call(self):
        session = FakeSession([])
        http = HttpChatBackend(
            base_url="https://fake.test/v1", api_key="k",
            session=session, sleep=lambda s: None,
        )
        assert HttpEmbeddingBackend("embed-model", http=http).embed([]) == []
        assert session.calls == []


class TestCostLedger:
    def test_record_and_rows_sorted(self):
        ledger = CostLedger()
        ledger.record("zeta", STAGE_GENERATION, TokenUsage(10, 5))
        ledger.record("alpha", STAGE_LINKING, TokenUsage(3, 2))
        ledger.record("zeta", STAGE_GENERATION, TokenUsage(1, 1))
        rows = ledger.rows()
        assert [(r.model, r.stage) for r in rows] == [
            ("alpha", STAGE_LINKING),
            ("zeta", STAGE_GENERATION),
        ]
        assert rows[1].calls == 2
        assert rows[1].input_tokens == 11
        assert rows[1].output_tokens == 6

    def test_total_calls_counts_llm_stages_only(self):
        ledger = CostLedger()
        ledger.record("m", STAGE_LINKING, TokenUsage(1, 1))
        ledger.record("m", STAGE_GENERATION, TokenUsage(1, 1))
        ledger.record("m", STAGE_SELECTION, TokenUsage(1, 1))
        ledger.record("embedding", STAGE_EMBEDDING, TokenUsage(), calls=9)
        assert ledger.total_calls() == 3
        assert ledger.total_calls(stages=(STAGE_EMBEDDING,)) == 9
        assert ledger.total_usage().total_tokens == 6

    def test_merge(self):
        left = CostLedger()
        left.record("m", STAGE_GENERATION, TokenUsage(5, 5))
        right = CostLedger()
        right.record("m", STAGE_GENERATION, TokenUsage(2, 1), calls=3)
        right.record("n", STAGE_SELECTION, TokenUsage(1, 0))
        left.merge(right)
        rows = {(r.model, r.stage): r for r in left.rows()}
        gen = rows[("m", STAGE_GENERATION)]
        assert (gen.calls, gen.input_tokens, gen.output_tokens) == (4, 7, 6)
        assert ("n", STAGE_SELECTION) in rows


class TestPriceTable:
    def test_default_unit_prices_are_exact(self):
        table = PriceTable.default()
        million = TokenUsage(1_000_000, 0)
        assert table.dollars("o3-mini", million) == Decimal("1.10")
        assert table.dollars("gpt-4o", million) == Decimal("2.50")
        assert table.dollars("gemini-1.5-pro", million) == Decimal("1.25")
        out = TokenUsage(0, 1_000_000)
        assert table.dollars("o3-mini", out) == Decimal("4.40")
        assert table.dollars("gpt-4o", out) == Decimal("10.00")
        assert table.dollars("gemini-1.5-pro", out) == Decimal("10.00")
        assert table.dollars("gemini-2.5-pro", out) == Decimal("10.00")

    def test_mixed_usage(self):
        table = PriceTable.default()
        cost = table.dollars("gpt-4o", TokenUsage(2_000_000, 500_000))
        assert cost == Decimal("10.00")

    def test_unknown_model_is_free_and_warns_once(self, caplog):
        table = PriceTable.default()
        with caplog.at_level("WARNING"):
            assert table.dollars("gemini-1.5-flash", TokenUsage(10**6, 10**6)) == 0
            assert table.dollars("gemini-1.5-flash", TokenUsage(5, 5)) == 0
        assert caplog.text.count("no price for model") == 1

    def test_from_dict_keeps_decimal_strings(self):
        table = PriceTable.from_dict(
            {"m": {"input_per_million": "0.10", "output_per_million": 0.30}}
        )
        assert table.dollars("m", TokenUsage(1_000_000, 0)) == Decimal("0.10")
        assert table.dollars("m", TokenUsage(0, 1_000_000)) == Decimal("0.30")


class TestLlmGateway:
    def test_complete_records_usage_per_stage(self):
        backend = ScriptedBackend(lambda req: "hello there")
        gateway = LlmGateway(backend, ledger=CostLedger())
        gateway.complete(REQUEST, stage=STAGE_GENERATION)
        gateway.complete(REQUEST, stage=STAGE_SELECTION)
        rows = {(r.model, r.stage): r for r in gateway.ledger.rows()}
        assert rows[("m", STAGE_GENERATION)].calls == 1
        assert rows[("m", STAGE_SELECTION)].calls == 1
        assert rows[("m", STAGE_GENERATION)].output_tokens > 0

    def test_embed_records_one_call_per_text(self):
        gateway = LlmGateway(ScriptedBackend(lambda req: "x"), ledger=CostLedger())
        vectors = gateway.embed(["a", "b", "c"])
        assert len(vectors) == 3
        rows = gateway.ledger.rows()
        assert rows == [
            type(rows[0])("embedding", STAGE_EMBEDDING, 3, 0, 0)
        ]
        assert gateway.embed([]) == []

    def test_gateways_sharing_a_throttle_share_its_cap_not_their_ledgers(self):
        lock = threading.Lock()
        in_flight = [0, 0]  # now, peak

        def script(request):
            with lock:
                in_flight[0] += 1
                in_flight[1] = max(in_flight)
            time.sleep(0.02)
            with lock:
                in_flight[0] -= 1
            return "ok"

        throttle = CallThrottle(2)
        first, second = (
            LlmGateway(ScriptedBackend(script), throttle=throttle) for _ in range(2)
        )
        futures = [
            gateway.submit(gateway.complete, REQUEST, STAGE_GENERATION)
            for gateway in (first, second) * 3
        ]
        assert [f.result(timeout=10).text for f in futures] == ["ok"] * 6
        throttle.close()
        assert in_flight == [0, 2]
        assert first.ledger.total_calls() == second.ledger.total_calls() == 3
