"""LLM gateway: chat backends plus priced usage accounting.

Two interchangeable chat transports: a live HTTP client speaking the
OpenAI-style chat-completions protocol, and a replay client that serves
responses from a recorded JSONL fixture keyed by a request digest.  A
recording wrapper captures live traffic into that fixture format, so any
benchmark run can be replayed byte-for-byte later.

All token usage flows through a CostLedger; dollar costs are computed with
decimal arithmetic so per-call costs sum exactly.  Only model calls pass
through here: few-shot retrieval embeds locally (generation.embed_question).
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Callable, Sequence

from .files import is_json_int, read_json, read_jsonl

log = logging.getLogger(__name__)

STAGE_LINKING = "linking"
STAGE_GENERATION = "generation"
STAGE_SELECTION = "selection"

# stages whose calls count as LLM calls in reports; records written by older
# versions may also carry an "embedding" usage row, which counts as none
LLM_STAGES = (STAGE_LINKING, STAGE_GENERATION, STAGE_SELECTION)

DEFAULT_BASE_URL = "https://api.openai.com/v1"
# how often HttpChatBackend retries a transient failure, its first backoff,
# and the seconds one attempt may take
MAX_RETRIES = 3
BACKOFF_S = 1.0
TIMEOUT_S = 120.0
ENV_API_KEY = "OPENAI_API_KEY"
ENV_BASE_URL = "OPENAI_BASE_URL"


class GatewayError(Exception):
    """Base error for gateway failures."""


class TransportError(GatewayError):
    """HTTP transport failed after retries; carries the last response body."""


class ReplayMissError(GatewayError):
    """A replay fixture has no entry for the request digest."""

    def __init__(self, digest: str, model: str):
        self.digest = digest
        self.model = model
        super().__init__(
            f"no recorded response for request {digest} (model {model}); "
            "re-record the fixture or check prompt determinism"
        )


@dataclass(frozen=True, slots=True)
class TokenUsage:
    """Input and output token counts for one or more calls."""

    input_tokens: int = 0
    output_tokens: int = 0


@dataclass(frozen=True)
class ChatRequest:
    """One chat completion request; messages are (role, content) dicts."""

    model: str
    messages: tuple[dict, ...]
    max_tokens: int = 2048


@dataclass(frozen=True)
class ChatResponse:
    """The assistant text and token usage for one completed request."""

    text: str
    usage: TokenUsage


def request_digest(model: str, messages: Sequence[dict]) -> str:
    """Stable digest of (model, messages); the replay fixture key.

    Every call runs at temperature zero (HttpChatBackend sends no other),
    so the prompt and model determine the response.
    """
    payload = json.dumps(
        {"model": model, "messages": list(messages)},
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ChatBackend:
    """Interface for chat transports; a context manager that closes itself."""

    def complete(self, request: ChatRequest) -> ChatResponse:
        raise NotImplementedError

    def close(self) -> None:
        """Finish any output the backend writes; the base has none."""

    def __enter__(self) -> "ChatBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _retry_after_s(value: str | None) -> float | None:
    """Seconds a Retry-After header asks for; None unless it is a number.

    The HTTP-date form, and anything else that is not a finite non-negative
    number, gives None, so the caller keeps its own backoff.
    """
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None


class HttpChatBackend(ChatBackend):
    """Live OpenAI-style chat-completions client.

    Credentials come from arguments or the OPENAI_API_KEY / OPENAI_BASE_URL
    environment variables.  Every request runs at temperature zero.
    Transient failures (connection errors, HTTP 429 and 5xx) are retried up
    to MAX_RETRIES times, with exponential backoff from BACKOFF_S or after
    the seconds a retryable response's Retry-After header asks for; other
    non-success statuses raise immediately with the body captured.
    requests is imported here, so only a live backend loads it.
    """

    RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        *,
        session: object | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = (base_url or os.environ.get(ENV_BASE_URL) or DEFAULT_BASE_URL).rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_API_KEY, "")
        import requests

        self._session = session or requests.Session()
        self._transport_errors = requests.RequestException
        self._sleep = sleep

    def _post(self, payload: dict) -> dict:
        url = f"{self.base_url}/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error = "no attempt made"
        retry_after = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                backoff = BACKOFF_S * (2 ** (attempt - 1))
                self._sleep(backoff if retry_after is None else retry_after)
            retry_after = None
            try:
                resp = self._session.post(url, json=payload, headers=headers, timeout=TIMEOUT_S)
            except self._transport_errors as exc:
                last_error = f"transport failure: {exc}"
                log.warning("POST %s failed (attempt %d): %s", url, attempt + 1, exc)
                continue
            if resp.status_code == 200:
                try:
                    return resp.json()
                except ValueError as exc:
                    raise TransportError(
                        f"malformed completion response from {url}: {resp.text[:2000]!r}"
                    ) from exc
            body = resp.text[:2000]
            last_error = f"HTTP {resp.status_code}: {body}"
            if resp.status_code not in self.RETRYABLE_STATUSES:
                raise TransportError(f"POST {url} failed: {last_error}")
            retry_after = _retry_after_s(resp.headers.get("Retry-After"))
            log.warning("POST %s got %d (attempt %d)", url, resp.status_code, attempt + 1)
        raise TransportError(
            f"POST {url} failed after {MAX_RETRIES + 1} attempts: {last_error}"
        )

    def complete(self, request: ChatRequest) -> ChatResponse:
        payload = {
            "model": request.model,
            "messages": list(request.messages),
            "temperature": 0.0,
            "max_tokens": request.max_tokens,
        }
        doc = self._post(payload)
        try:
            text = doc["choices"][0]["message"]["content"] or ""
            usage = doc.get("usage") or {}
            tokens = TokenUsage(
                input_tokens=int(usage.get("prompt_tokens", 0)),
                output_tokens=int(usage.get("completion_tokens", 0)),
            )
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed completion response: {doc!r}") from exc
        return ChatResponse(text=text, usage=tokens)


def _replay_entry(record: dict) -> tuple[str, ChatResponse]:
    """(digest, response) of one fixture line."""
    digest, text = record["digest"], record["text"]
    if not (isinstance(digest, str) and isinstance(text, str)):
        raise TypeError("digest and text must be strings")
    usage = TokenUsage(record["input_tokens"], record["output_tokens"])
    if not (is_json_int(usage.input_tokens) and is_json_int(usage.output_tokens)):
        raise TypeError("input_tokens and output_tokens must be integers")
    return digest, ChatResponse(text=text, usage=usage)


class ReplayChatBackend(ChatBackend):
    """Serves recorded responses from a JSONL fixture; misses fail loudly."""

    def __init__(self, path: str | Path):
        self._responses = dict(read_jsonl(path, _replay_entry, GatewayError, "replay record"))

    def complete(self, request: ChatRequest) -> ChatResponse:
        digest = request_digest(request.model, request.messages)
        response = self._responses.get(digest)
        if response is None:
            raise ReplayMissError(digest, request.model)
        return response


class RecordingChatBackend(ChatBackend):
    """Wraps another backend and appends every exchange to a JSONL fixture.

    Lines are appended as calls complete, so the fixture can be replayed
    at any time; close() rewrites it sorted by request digest (lines with
    one digest keep their order), so two recordings of the same calls give
    the same bytes however the calls interleaved.
    """

    def __init__(self, inner: ChatBackend, path: str | Path):
        self.inner = inner
        self.path = Path(path)
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> ChatResponse:
        response = self.inner.complete(request)
        record = {
            "digest": request_digest(request.model, request.messages),
            "model": request.model,
            "text": response.text,
            "input_tokens": response.usage.input_tokens,
            "output_tokens": response.usage.output_tokens,
        }
        line = json.dumps(record, ensure_ascii=False)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        return response

    def close(self) -> None:
        with self._lock:
            if not self.path.exists():
                return
            text = self.path.read_text(encoding="utf-8")
            lines = [line for line in text.splitlines() if line.strip()]
            lines.sort(key=lambda line: json.loads(line)["digest"])
            partial = self.path.with_name(self.path.name + ".partial")
            partial.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            os.replace(partial, self.path)


@dataclass
class UsageTally:
    """Mutable per-(model, stage) counters."""

    calls: int = 0
    input_tokens: int = 0
    output_tokens: int = 0


@dataclass(frozen=True, slots=True)
class UsageRow:
    """One immutable ledger row for reporting."""

    model: str
    stage: str
    calls: int
    input_tokens: int
    output_tokens: int


class CostLedger:
    """Thread-safe accumulator of calls and tokens, keyed by (model, stage)."""

    def __init__(self):
        self._tallies: dict[tuple[str, str], UsageTally] = {}
        self._lock = threading.Lock()

    def record(self, model: str, stage: str, usage: TokenUsage, calls: int = 1) -> None:
        with self._lock:
            tally = self._tallies.setdefault((model, stage), UsageTally())
            tally.calls += calls
            tally.input_tokens += usage.input_tokens
            tally.output_tokens += usage.output_tokens

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger's rows into this one."""
        for row in other.rows():
            self.record(
                row.model,
                row.stage,
                TokenUsage(row.input_tokens, row.output_tokens),
                calls=row.calls,
            )

    def rows(self) -> list[UsageRow]:
        """Snapshot of all rows, sorted by (model, stage) for determinism."""
        with self._lock:
            items = sorted(self._tallies.items())
        return [
            UsageRow(model, stage, t.calls, t.input_tokens, t.output_tokens)
            for (model, stage), t in items
        ]


@dataclass(frozen=True)
class ModelPrice:
    """Dollars per million input and output tokens, held exactly."""

    input_per_million: Decimal
    output_per_million: Decimal


class PriceTable:
    """Maps model ids to prices; unknown models cost zero with a warning."""

    def __init__(self, prices: dict[str, ModelPrice]):
        self.prices = dict(prices)
        self._warned: set[str] = set()

    @classmethod
    def from_dict(cls, doc: dict) -> "PriceTable":
        """model -> {input_per_million, output_per_million}; each a finite price >= 0."""
        prices = {}
        for model, entry in doc.items():
            try:
                price = ModelPrice(Decimal(str(entry["input_per_million"])),
                                   Decimal(str(entry["output_per_million"])))
            except (KeyError, TypeError, InvalidOperation) as exc:
                raise ValueError(f"model {model!r} needs numeric input_per_million and "
                                 "output_per_million") from exc
            for value in (price.input_per_million, price.output_per_million):
                if not value.is_finite() or value < 0:
                    raise ValueError(f"model {model!r} has a price of {value}; prices "
                                     "must be finite and not negative")
            prices[model] = price
        return cls(prices)

    @classmethod
    def load(cls, path: str | Path) -> "PriceTable":
        return read_json(path, cls.from_dict, GatewayError, "price table")

    @classmethod
    def default(cls) -> "PriceTable":
        return cls.load(Path(__file__).parent / "assets" / "price_table.json")

    def dollars(self, model: str, usage: TokenUsage) -> Decimal:
        """Exact cost of the given usage under this table."""
        price = self.prices.get(model)
        if price is None:
            if model not in self._warned:
                log.warning("no price for model %r; costing it at $0", model)
                self._warned.add(model)
            return Decimal(0)
        million = Decimal(1_000_000)
        return (
            usage.input_tokens * price.input_per_million
            + usage.output_tokens * price.output_per_million
        ) / million


@dataclass(frozen=True)
class CostReport:
    """Dollar totals per model plus the grand total, all exact decimals."""

    by_model: dict[str, Decimal] = field(default_factory=dict)
    total: Decimal = Decimal(0)


def price(ledger: CostLedger, table: PriceTable) -> CostReport:
    """Price a ledger's rows; the total is the exact sum of per-model costs."""
    by_model: dict[str, Decimal] = {}
    for row in ledger.rows():
        cost = table.dollars(row.model, TokenUsage(row.input_tokens, row.output_tokens))
        by_model[row.model] = by_model.get(row.model, Decimal(0)) + cost
    total = sum(by_model.values(), Decimal(0))
    return CostReport(by_model=by_model, total=total)


class CallThrottle:
    """The cap on in-flight model calls and the pool that runs them.

    One throttle serves a whole run: every gateway built around it shares
    its semaphore, so max_in_flight bounds concurrent backend calls across
    all questions, and its pool, sized the same, runs only the model calls
    those questions submit (prompts and few-shot retrieval stay on their
    threads).  Pool threads start on demand and exit when the throttle is
    closed or garbage-collected, so closing is optional.
    """

    def __init__(self, max_in_flight: int = 8):
        self.semaphore = threading.BoundedSemaphore(max_in_flight)
        self._pool = ThreadPoolExecutor(max_in_flight, thread_name_prefix="ensql-call")

    def submit(self, fn: Callable, /, *args, **kwargs) -> Future:
        """Run fn on the pool; tasks must never wait on other pool tasks."""
        return self._pool.submit(fn, *args, **kwargs)

    def close(self) -> None:
        """Finish queued tasks and stop the pool threads."""
        self._pool.shutdown(wait=True)


class LlmGateway:
    """Front door for all model traffic: stage-labeled, throttled, metered.

    Every complete() records usage to the ledger under the caller's stage
    label.  Calls hold the throttle's semaphore while in flight, and
    submit() hands a task to the throttle's pool.  Gateways that share one
    throttle share its cap and pool but keep their own ledgers; without a
    throttle, the gateway gets a private CallThrottle() at its default cap.

    A gateway serves one question, question_id, and owns what a failed
    call means for it (attempt) and the prefix that names it in warnings
    (warn).
    """

    def __init__(
        self,
        chat_backend: ChatBackend,
        ledger: CostLedger | None = None,
        throttle: CallThrottle | None = None,
        question_id: str = "?",
    ):
        self.chat_backend = chat_backend
        self.ledger = ledger or CostLedger()
        self.throttle = throttle or CallThrottle()
        self.question_id = question_id

    def warn(self, message: str, *args) -> None:
        """Log a warning, as with log.warning, prefixed with the question."""
        log.warning("question %s: " + message, self.question_id, *args)

    def submit(self, fn: Callable, /, *args, **kwargs) -> Future:
        return self.throttle.submit(fn, *args, **kwargs)

    def complete(self, request: ChatRequest, stage: str) -> ChatResponse:
        with self.throttle.semaphore:
            response = self.chat_backend.complete(request)
        self.ledger.record(request.model, stage, response.usage)
        return response

    def attempt(
        self, request: ChatRequest, stage: str, what: str
    ) -> ChatResponse | GatewayError:
        """complete(), with a failed call warned about and returned, not raised.

        The warning reads "<what> failed: <error>".  A replay miss still
        raises, since it is a fixture fault, not a model failure.
        """
        try:
            return self.complete(request, stage)
        except ReplayMissError:
            raise
        except GatewayError as exc:
            self.warn("%s failed: %s", what, exc)
            return exc
