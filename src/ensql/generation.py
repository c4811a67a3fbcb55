"""Candidate SQL generation over multiple schema representations.

Each candidate spec names a representation format, a filter level and, when
it filters, the linker model whose prediction does the filtering.  For every
spec the engine renders the (possibly filtered) catalog, assembles a
few-shot prompt, asks the generator model for one SQL query, and extracts it
from the fenced code block.  Model failures become error candidates rather
than exceptions so the voting stage always sees the full slate; a replay
miss is a fixture fault and raises.
"""
from __future__ import annotations

import functools
import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .catalog import FilterLevel, SchemaCatalog, apply_filter
from .formats import RepresentationFormat, render
from .gateway import (
    ChatRequest,
    GatewayError,
    HashEmbeddingBackend,
    LlmGateway,
    STAGE_GENERATION,
    TokenUsage,
)
from .linking import LinkingPrediction, format_user_turn
from .selection import ExecStatus, ExecutionResult

log = logging.getLogger(__name__)

_ASSETS = Path(__file__).parent / "assets"

# embeds questions both when a few-shot store is built and when it is queried;
# it is local and makes no model call
QUESTION_EMBEDDER = HashEmbeddingBackend()


class NoCodeBlockError(Exception):
    """The model response contains no usable fenced code block."""


@dataclass(frozen=True)
class CandidateSpec:
    """One slot in the candidate ensemble: representation, filter level, linker.

    linker_model is set exactly when the slot filters; PipelineConfig.validate
    checks that rule where a slate enters from user input.
    """

    format: RepresentationFormat
    filter_level: FilterLevel
    linker_model: str | None = None

    @property
    def linker_run(self) -> str | None:
        """Identity of the linker call this slot consumes.

        Slots sharing (format, linker model) share one prediction and one
        LLM call; no-filtering slots consume none.
        """
        if self.filter_level is FilterLevel.NO_FILTERING:
            return None
        return f"{self.format.value}:{self.linker_model}"


@dataclass(frozen=True)
class FewShotExample:
    """A solved question used as an in-context example."""

    question: str
    sql: str
    db_id: str
    schema_text: str


@dataclass
class SqlCandidate:
    """One generated candidate; execution is attached by the selection stage.

    Candidates whose generation failed (backend error, no code block) carry
    empty-or-partial sql and a pre-populated Error execution so they flow
    into voting as failures instead of crashing the pipeline.
    """

    spec_index: int
    sql: str
    raw_response: str = ""
    usage: TokenUsage = field(default_factory=TokenUsage)
    execution: ExecutionResult | None = None


class FewShotStore:
    """Example questions with precomputed unit embeddings, JSONL-backed."""

    def __init__(self, examples: Sequence[FewShotExample], embeddings: np.ndarray):
        if len(examples) != len(embeddings):
            raise ValueError(
                f"{len(examples)} examples but {len(embeddings)} embeddings"
            )
        self.examples = list(examples)
        self.embeddings = np.asarray(embeddings, dtype=float)
        if self.examples and self.embeddings.ndim != 2:
            raise ValueError("embeddings must be a 2-D array")

    def __len__(self) -> int:
        return len(self.examples)

    @classmethod
    def load(cls, path: str | Path) -> "FewShotStore":
        examples = []
        vectors = []
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    examples.append(
                        FewShotExample(
                            question=record["question"],
                            sql=record["sql"],
                            db_id=record["db_id"],
                            schema_text=record["schema_text"],
                        )
                    )
                    vectors.append(np.asarray(record["embedding"], dtype=float))
                except (json.JSONDecodeError, KeyError, ValueError) as exc:
                    raise ValueError(f"{path}:{line_no}: bad store record: {exc}") from exc
        matrix = np.vstack(vectors) if vectors else np.zeros((0, 0))
        return cls(examples, matrix)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for example, vector in zip(self.examples, self.embeddings):
                fh.write(
                    json.dumps(
                        {
                            "question": example.question,
                            "sql": example.sql,
                            "db_id": example.db_id,
                            "schema_text": example.schema_text,
                            "embedding": [float(x) for x in vector],
                        },
                        ensure_ascii=False,
                    )
                    + "\n"
                )


def retrieve_fewshots(
    question: str,
    store: FewShotStore,
    embedder,
    k: int = 3,
) -> list[FewShotExample]:
    """Top-k examples by cosine similarity to the question.

    embedder is anything with embed(texts) -> unit vectors, normally
    QUESTION_EMBEDDER, the one the store was built with.  Ties and
    near-ties resolve by store order, so retrieval is deterministic.  k of
    zero or an empty store returns []; k beyond the store size returns
    everything.
    """
    if k <= 0 or not len(store):
        return []
    if k > len(store):
        log.warning("requested %d few-shots but the store has %d", k, len(store))
        k = len(store)
    query = embedder.embed([question])[0]
    scores = store.embeddings @ query
    order = np.argsort(-scores, kind="stable")[:k]
    return [store.examples[int(i)] for i in order]


@functools.cache
def load_generation_system_prompt() -> str:
    """The generation system prompt, read once per process."""
    return (_ASSETS / "generation_system_prompt.txt").read_text(encoding="utf-8")


def build_generation_prompt(
    schema_text: str,
    question: str,
    hint: str = "",
    fewshots: Sequence[FewShotExample] = (),
) -> list[dict]:
    """Assemble the generation chat prompt.

    Few-shot examples appear as alternating user/assistant turns, each
    assistant turn a fenced sql block, followed by the real question built
    with the same user-turn template.
    """
    messages = [{"role": "system", "content": load_generation_system_prompt()}]
    for shot in fewshots:
        messages.append(
            {"role": "user", "content": format_user_turn(shot.schema_text, shot.question)}
        )
        messages.append(
            {"role": "assistant", "content": f"```sql\n{shot.sql}\n```"}
        )
    messages.append({"role": "user", "content": format_user_turn(schema_text, question, hint)})
    return messages


_FENCE_RE = re.compile(r"```([^\n`]*)\n(.*?)```", re.DOTALL)


def extract_sql(response_text: str) -> str:
    """Pull the SQL out of a model response.

    Prefers the first block tagged sql (or sqlite); falls back to the first
    untagged block.  Surrounding whitespace is trimmed, the statement text
    itself (including any trailing semicolon) is preserved.  No usable block
    raises NoCodeBlockError.
    """
    tagged = None
    untagged = None
    for match in _FENCE_RE.finditer(response_text):
        tag = match.group(1).strip().lower()
        if tag in ("sql", "sqlite") and tagged is None:
            tagged = match.group(2)
        elif tag == "" and untagged is None:
            untagged = match.group(2)
    block = tagged if tagged is not None else untagged
    if block is None:
        raise NoCodeBlockError("no fenced SQL block in model response")
    return block.strip()


def _failed_candidate(
    index: int, raw_response: str, usage: TokenUsage, error_class: str, detail: str
) -> SqlCandidate:
    return SqlCandidate(
        spec_index=index,
        sql="",
        raw_response=raw_response,
        usage=usage,
        execution=ExecutionResult(
            status=ExecStatus.ERROR, error_text=f"{error_class}: {detail}"
        ),
    )


def slot_request(
    spec: CandidateSpec,
    model: str,
    question: str,
    hint: str,
    prediction: LinkingPrediction | None,
    catalog: SchemaCatalog,
    fewshots: Sequence[FewShotExample] = (),
    max_tokens: int = 2048,
) -> ChatRequest:
    """The generation request, for model, of the slot spec.

    prediction is the output of the slot's linker run, None when that run
    failed; a filtering slot without one falls back to the unfiltered schema.
    """
    filtered = catalog
    if spec.filter_level is not FilterLevel.NO_FILTERING and prediction is not None:
        filtered = apply_filter(catalog, prediction, spec.filter_level)
    schema_text = render(filtered, spec.format)
    messages = build_generation_prompt(schema_text, question, hint, fewshots)
    return ChatRequest(model=model, messages=tuple(messages), max_tokens=max_tokens)


def generate_slot(index: int, request: ChatRequest, gateway: LlmGateway) -> SqlCandidate:
    """Make the generation call of the slot at index and extract its candidate.

    Failed calls (see LlmGateway.attempt) and missing code blocks yield
    error candidates.
    """
    response = gateway.attempt(request, STAGE_GENERATION, f"spec {index}: generation call")
    if isinstance(response, GatewayError):
        return _failed_candidate(index, "", TokenUsage(), "BackendError", str(response))
    try:
        sql = extract_sql(response.text)
    except NoCodeBlockError as exc:
        return _failed_candidate(
            index, response.text, response.usage, "NoCodeBlock", str(exc)
        )
    return SqlCandidate(
        spec_index=index,
        sql=sql,
        raw_response=response.text,
        usage=response.usage,
    )
