import json
import threading
import time
from decimal import Decimal

import pytest
import requests

from ensql.config import PipelineConfig
from ensql.gateway import (
    CallThrottle,
    ChatRequest,
    ChatResponse,
    CostLedger,
    GatewayError,
    HttpChatBackend,
    LLM_STAGES,
    LlmGateway,
    PriceTable,
    RecordingChatBackend,
    ReplayChatBackend,
    ReplayMissError,
    STAGE_GENERATION,
    STAGE_LINKING,
    STAGE_SELECTION,
    TIMEOUT_S,
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
    def __init__(self, status_code, doc=None, text="", headers=None):
        self.status_code = status_code
        self._doc = doc
        self.text = text or (json.dumps(doc) if doc is not None else "")
        self.headers = headers or {}

    def json(self):
        if isinstance(self._doc, Exception):
            raise self._doc
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


REQUEST = ChatRequest(model="m", messages=MESSAGES, max_tokens=64)


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

    def test_payload_carries_the_request_max_tokens_under_the_fixed_timeout(self):
        timeouts = []

        class TimedSession(FakeSession):
            def post(self, url, json=None, headers=None, timeout=None):
                timeouts.append(timeout)
                return super().post(url, json, headers, timeout)

        session = TimedSession([FakeResponse(200, ok_doc()), FakeResponse(200, ok_doc())])
        backend = HttpChatBackend(api_key="", session=session, sleep=lambda s: None)
        backend.complete(ChatRequest(model="m", messages=MESSAGES))
        backend.complete(REQUEST)
        assert [call["payload"]["max_tokens"] for call in session.calls] == [2048, 64]
        assert timeouts == [TIMEOUT_S, TIMEOUT_S] == [120.0, 120.0]

    def test_rate_limit_retries_with_exponential_backoff(self):
        backend, session, sleeps = make_backend(
            [FakeResponse(429), FakeResponse(429), FakeResponse(200, ok_doc())]
        )
        response = backend.complete(REQUEST)
        assert response.usage.input_tokens == 12
        assert len(session.calls) == 3
        assert sleeps == [1.0, 2.0]

    def test_retry_after_seconds_replace_the_backoff_step(self):
        backend, session, sleeps = make_backend(
            [
                FakeResponse(429, headers={"Retry-After": "7"}),
                FakeResponse(503, headers={"Retry-After": "0.5"}),
                FakeResponse(429),
                FakeResponse(200, ok_doc()),
            ]
        )
        assert backend.complete(REQUEST).usage.input_tokens == 12
        assert len(session.calls) == 4
        assert sleeps == [7.0, 0.5, 4.0]

    @pytest.mark.parametrize(
        "value", ["Wed, 21 Oct 2015 07:28:00 GMT", "soon", "", "-3", "nan", "inf"]
    )
    def test_retry_after_that_is_not_seconds_keeps_the_backoff(self, value):
        backend, _, sleeps = make_backend(
            [
                FakeResponse(429, headers={"Retry-After": value}),
                FakeResponse(429, headers={"Retry-After": value}),
                FakeResponse(200, ok_doc()),
            ]
        )
        backend.complete(REQUEST)
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
        backend, session, sleeps = make_backend([FakeResponse(503)] * 4)
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
        req_a = ChatRequest(model="m", messages=MESSAGES, max_tokens=8)
        req_b = ChatRequest(
            model="m",
            messages=({"role": "user", "content": "other"},),
            max_tokens=8,
        )
        return recorder.complete(req_a), recorder.complete(req_b), (req_a, req_b)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "fixture.jsonl"
        live_a, live_b, (req_a, req_b) = self._record_fixture(path)
        replay = ReplayChatBackend(path)
        assert len(replay._responses) == 2
        assert replay.complete(req_a) == live_a
        assert replay.complete(req_b) == live_b

    def test_close_sorts_by_digest_and_the_last_duplicate_still_wins(self, tmp_path):
        path = tmp_path / "fixture.jsonl"
        replies = iter(["first", "other", "again"])
        req_a = ChatRequest(model="m", messages=MESSAGES, max_tokens=8)
        req_b = ChatRequest(
            model="m",
            messages=({"role": "user", "content": "other"},),
            max_tokens=8,
        )
        with RecordingChatBackend(ScriptedBackend(lambda req: next(replies)), path) as rec:
            for request in (req_a, req_b, req_a):
                rec.complete(request)
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        digests = [line["digest"] for line in lines]
        assert digests == sorted(digests)
        assert [line["text"] for line in lines if line["digest"] == digests[0]] in (
            ["first", "again"], ["other"],
        )
        replay = ReplayChatBackend(path)
        assert replay.complete(req_a).text == "again"
        assert replay.complete(req_b).text == "other"

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

    @pytest.mark.parametrize("line", [
        "[]",
        '{"digest": "abc", "text": "t", "input_tokens": [1], "output_tokens": 1}',
        '{"digest": "abc", "text": "t", "input_tokens": 2.9, "output_tokens": 1}',
        '{"digest": "abc", "text": "t", "input_tokens": 2, "output_tokens": true}',
        '{"digest": "abc", "text": "t", "input_tokens": "2", "output_tokens": 1}',
    ], ids=["not_an_object", "list_of_tokens", "fractional_tokens", "bool_tokens",
            "string_tokens"])
    def test_a_record_of_the_wrong_shape_names_its_line(self, tmp_path, line):
        path = tmp_path / "broken.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(GatewayError, match="broken.jsonl:1: bad replay record"):
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
        assert len(replay._responses) == 1


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
        # the usage row that records written by older versions carry
        ledger.record("embedding", "embedding", TokenUsage(), calls=9)
        calls = {row.stage: row.calls for row in ledger.rows()}
        assert sum(calls[stage] for stage in LLM_STAGES) == 3
        assert calls["embedding"] == 9
        assert sum(
            row.input_tokens + row.output_tokens
            for row in ledger.rows() if row.stage in LLM_STAGES
        ) == 6

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
        assert table.dollars("gemini-1.5-pro", out) == Decimal("5.00")
        assert table.dollars("gemini-2.5-pro", out) == Decimal("10.00")
        assert table.dollars("gemini-1.5-flash", million) == Decimal("0.075")
        assert table.dollars("gemini-1.5-flash", out) == Decimal("0.30")

    def test_prices_every_default_model(self):
        config = PipelineConfig.default()
        models = {config.generator_model, config.judge_model}
        models |= {entry.linker_model for entry in config.specs if entry.linker_model}
        assert models <= set(PriceTable.default().prices)

    def test_mixed_usage(self):
        table = PriceTable.default()
        cost = table.dollars("gpt-4o", TokenUsage(2_000_000, 500_000))
        assert cost == Decimal("10.00")

    def test_unknown_model_is_free_and_warns_once(self, caplog):
        table = PriceTable.default()
        with caplog.at_level("WARNING"):
            assert table.dollars("unpriced-model", TokenUsage(10**6, 10**6)) == 0
            assert table.dollars("unpriced-model", TokenUsage(5, 5)) == 0
        assert caplog.text.count("no price for model") == 1

    def test_from_dict_keeps_decimal_strings(self):
        table = PriceTable.from_dict(
            {"m": {"input_per_million": "0.10", "output_per_million": 0.30}}
        )
        assert table.dollars("m", TokenUsage(1_000_000, 0)) == Decimal("0.10")
        assert table.dollars("m", TokenUsage(0, 1_000_000)) == Decimal("0.30")

    @pytest.mark.parametrize("text, problem", [
        ('{"m": {"output_per_million": 1}}', "model 'm' needs numeric"),
        ('{"m": {"input_per_million": "x", "output_per_million": 1}}', "model 'm' needs numeric"),
        ("input_per_million = 1", "not valid JSON"),
    ], ids=["missing_key", "non_numeric_price", "not_json"])
    def test_a_bad_table_is_refused_with_its_path(self, tmp_path, text, problem):
        path = tmp_path / "prices.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(GatewayError, match=f"prices.json: bad price table: {problem}"):
            PriceTable.load(path)


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

    def test_attempt_returns_a_failed_call_with_one_warning(self, caplog):
        def script(request):
            raise GatewayError("linker down")

        gateway = LlmGateway(ScriptedBackend(script), question_id="q7")
        with caplog.at_level("WARNING"):
            result = gateway.attempt(REQUEST, STAGE_LINKING, "linker run x")
        assert isinstance(result, GatewayError)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert warnings[0].startswith("question q7: linker run x failed:")
        assert gateway.ledger.rows() == []

    @pytest.mark.parametrize(
        "response",
        [
            FakeResponse(
                200,
                requests.JSONDecodeError("Expecting value", "<html>", 0),
                text="<html>proxy sign-in</html>",
            ),
            FakeResponse(200, ok_doc(prompt=None)),
        ],
        ids=["body_not_json", "null_token_count"],
    )
    def test_attempt_returns_a_malformed_completion_with_one_warning(self, response, caplog):
        backend, _, _ = make_backend([response])
        gateway = LlmGateway(backend, question_id="q7")
        with caplog.at_level("WARNING"):
            result = gateway.attempt(REQUEST, STAGE_LINKING, "linker run x")
        assert isinstance(result, TransportError)
        assert "malformed completion response" in str(result)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert warnings[0].startswith("question q7: linker run x failed:")
        assert gateway.ledger.rows() == []

    def test_attempt_raises_a_replay_miss(self):
        def script(request):
            raise ReplayMissError("0" * 64, request.model)

        gateway = LlmGateway(ScriptedBackend(script), question_id="q7")
        with pytest.raises(ReplayMissError):
            gateway.attempt(REQUEST, STAGE_LINKING, "linker run x")

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
        assert [sum(row.calls for row in gateway.ledger.rows())
                for gateway in (first, second)] == [3, 3]
