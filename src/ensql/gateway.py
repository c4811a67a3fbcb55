"""LLM gateway: chat and embedding backends plus priced usage accounting.

Two interchangeable chat transports: a live HTTP client speaking the
OpenAI-style chat-completions protocol, and a replay client that serves
responses from a recorded JSONL fixture keyed by a request digest.  A
recording wrapper captures live traffic into that fixture format, so any
benchmark run can be replayed byte-for-byte later.

All token usage flows through a CostLedger; dollar costs are computed with
decimal arithmetic so per-call costs sum exactly.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
import requests

log = logging.getLogger(__name__)

STAGE_LINKING = "linking"
STAGE_GENERATION = "generation"
STAGE_SELECTION = "selection"
STAGE_EMBEDDING = "embedding"

# stages whose calls count as LLM calls in reports (embeddings are tracked
# but reported separately)
LLM_STAGES = (STAGE_LINKING, STAGE_GENERATION, STAGE_SELECTION)

DEFAULT_BASE_URL = "https://api.openai.com/v1"
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


@dataclass(frozen=True)
class TokenUsage:
    """Input and output token counts for one or more calls."""

    input_tokens: int = 0
    output_tokens: int = 0

    def __add__(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(
            self.input_tokens + other.input_tokens,
            self.output_tokens + other.output_tokens,
        )

    @property
    def total_tokens(self) -> int:
        return self.input_tokens + self.output_tokens


@dataclass(frozen=True)
class ChatRequest:
    """One chat completion request; messages are (role, content) dicts."""

    model: str
    messages: tuple[dict, ...]
    temperature: float = 0.0
    max_tokens: int = 2048


@dataclass(frozen=True)
class ChatResponse:
    """The assistant text and token usage for one completed request."""

    text: str
    usage: TokenUsage


def request_digest(model: str, messages: Sequence[dict]) -> str:
    """Stable digest of (model, messages); the replay fixture key.

    Sampling parameters are excluded on purpose: every pipeline stage runs
    at temperature zero, so the prompt and model determine the response.
    """
    payload = json.dumps(
        {"model": model, "messages": list(messages)},
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ChatBackend:
    """Interface for chat transports."""

    def complete(self, request: ChatRequest) -> ChatResponse:
        raise NotImplementedError


class HttpChatBackend(ChatBackend):
    """Live OpenAI-style chat-completions client.

    Credentials come from arguments or the OPENAI_API_KEY / OPENAI_BASE_URL
    environment variables.  Transient failures (connection errors, HTTP 429
    and 5xx) are retried up to max_retries times with exponential backoff;
    other non-success statuses raise immediately with the body captured.
    """

    RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        *,
        max_retries: int = 3,
        timeout_s: float = 120.0,
        backoff_s: float = 1.0,
        session: object | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = (base_url or os.environ.get(ENV_BASE_URL) or DEFAULT_BASE_URL).rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_API_KEY, "")
        self.max_retries = max_retries
        self.timeout_s = timeout_s
        self.backoff_s = backoff_s
        self._session = session or requests.Session()
        self._sleep = sleep

    def _post(self, path: str, payload: dict) -> dict:
        url = f"{self.base_url}{path}"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error = "no attempt made"
        for attempt in range(self.max_retries + 1):
            if attempt:
                self._sleep(self.backoff_s * (2 ** (attempt - 1)))
            try:
                resp = self._session.post(
                    url, json=payload, headers=headers, timeout=self.timeout_s
                )
            except requests.RequestException as exc:
                last_error = f"transport failure: {exc}"
                log.warning("POST %s failed (attempt %d): %s", url, attempt + 1, exc)
                continue
            if resp.status_code == 200:
                return resp.json()
            body = resp.text[:2000]
            last_error = f"HTTP {resp.status_code}: {body}"
            if resp.status_code not in self.RETRYABLE_STATUSES:
                raise TransportError(f"POST {url} failed: {last_error}")
            log.warning("POST %s got %d (attempt %d)", url, resp.status_code, attempt + 1)
        raise TransportError(
            f"POST {url} failed after {self.max_retries + 1} attempts: {last_error}"
        )

    def complete(self, request: ChatRequest) -> ChatResponse:
        payload = {
            "model": request.model,
            "messages": list(request.messages),
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        doc = self._post("/chat/completions", payload)
        try:
            text = doc["choices"][0]["message"]["content"] or ""
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion response: {doc!r}") from exc
        usage = doc.get("usage") or {}
        return ChatResponse(
            text=text,
            usage=TokenUsage(
                input_tokens=int(usage.get("prompt_tokens", 0)),
                output_tokens=int(usage.get("completion_tokens", 0)),
            ),
        )


class ReplayChatBackend(ChatBackend):
    """Serves recorded responses from a JSONL fixture; misses fail loudly."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._responses: dict[str, ChatResponse] = {}
        self._models: dict[str, str] = {}
        with open(self.path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    digest = record["digest"]
                    response = ChatResponse(
                        text=record["text"],
                        usage=TokenUsage(
                            int(record["input_tokens"]), int(record["output_tokens"])
                        ),
                    )
                except (json.JSONDecodeError, KeyError, ValueError) as exc:
                    raise GatewayError(
                        f"{self.path}:{line_no}: bad replay record: {exc}"
                    ) from exc
                self._responses[digest] = response
                self._models[digest] = record.get("model", "")

    def __len__(self) -> int:
        return len(self._responses)

    def complete(self, request: ChatRequest) -> ChatResponse:
        digest = request_digest(request.model, request.messages)
        response = self._responses.get(digest)
        if response is None:
            raise ReplayMissError(digest, request.model)
        return response


class RecordingChatBackend(ChatBackend):
    """Wraps another backend and appends every exchange to a JSONL fixture."""

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


class EmbeddingBackend:
    """Interface for text embedding; vectors come back unit-normalized."""

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        raise NotImplementedError


class HashEmbeddingBackend(EmbeddingBackend):
    """Deterministic offline embeddings seeded by the text digest.

    Not semantically meaningful, but stable across processes and platforms:
    identical texts always map to identical unit vectors, so retrieval and
    replay stay deterministic without network access.
    """

    def __init__(self, dim: int = 64):
        if dim < 2:
            raise ValueError("embedding dimension must be at least 2")
        self.dim = dim

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        out = []
        for text in texts:
            digest = hashlib.sha256(text.encode("utf-8")).digest()
            seed = int.from_bytes(digest[:8], "big")
            vec = np.random.default_rng(seed).standard_normal(self.dim)
            out.append(vec / np.linalg.norm(vec))
        return out


class HttpEmbeddingBackend(EmbeddingBackend):
    """Live embeddings through the OpenAI-style /embeddings endpoint."""

    def __init__(self, model: str, http: HttpChatBackend | None = None, **http_kwargs):
        self.model = model
        self._http = http or HttpChatBackend(**http_kwargs)

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            return []
        doc = self._http._post("/embeddings", {"model": self.model, "input": list(texts)})
        try:
            rows = sorted(doc["data"], key=lambda r: r["index"])
            vectors = [np.asarray(r["embedding"], dtype=float) for r in rows]
        except (KeyError, TypeError) as exc:
            raise TransportError(f"malformed embedding response: {doc!r}") from exc
        if len(vectors) != len(texts):
            raise TransportError(
                f"embedding response has {len(vectors)} rows for {len(texts)} inputs"
            )
        return [v / np.linalg.norm(v) for v in vectors]


@dataclass
class UsageTally:
    """Mutable per-(model, stage) counters."""

    calls: int = 0
    input_tokens: int = 0
    output_tokens: int = 0


@dataclass(frozen=True)
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

    def total_calls(self, stages: Iterable[str] = LLM_STAGES) -> int:
        wanted = set(stages)
        return sum(r.calls for r in self.rows() if r.stage in wanted)

    def total_usage(self, stages: Iterable[str] = LLM_STAGES) -> TokenUsage:
        wanted = set(stages)
        total = TokenUsage()
        for r in self.rows():
            if r.stage in wanted:
                total += TokenUsage(r.input_tokens, r.output_tokens)
        return total


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
        prices = {}
        for model, entry in doc.items():
            prices[model] = ModelPrice(
                input_per_million=Decimal(str(entry["input_per_million"])),
                output_per_million=Decimal(str(entry["output_per_million"])),
            )
        return cls(prices)

    @classmethod
    def load(cls, path: str | Path) -> "PriceTable":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

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
    all questions, and its pool, sized the same, runs the model-call tasks
    those questions submit.  Pool threads start on demand and exit when the
    throttle is closed or garbage-collected, so closing is optional.
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
    """

    def __init__(
        self,
        chat_backend: ChatBackend,
        embedding_backend: EmbeddingBackend | None = None,
        ledger: CostLedger | None = None,
        throttle: CallThrottle | None = None,
    ):
        self.chat_backend = chat_backend
        self.embedding_backend = embedding_backend or HashEmbeddingBackend()
        self.ledger = ledger or CostLedger()
        self.throttle = throttle or CallThrottle()

    def submit(self, fn: Callable, /, *args, **kwargs) -> Future:
        return self.throttle.submit(fn, *args, **kwargs)

    def complete(self, request: ChatRequest, stage: str) -> ChatResponse:
        with self.throttle.semaphore:
            response = self.chat_backend.complete(request)
        self.ledger.record(request.model, stage, response.usage)
        return response

    def embed(self, texts: Sequence[str], stage: str = STAGE_EMBEDDING) -> list[np.ndarray]:
        if not texts:
            return []
        with self.throttle.semaphore:
            vectors = self.embedding_backend.embed(texts)
        self.ledger.record("embedding", stage, TokenUsage(), calls=len(texts))
        return vectors
