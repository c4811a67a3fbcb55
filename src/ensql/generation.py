"""Candidate SQL generation over multiple schema representations.

Each candidate spec names a representation format, a filter level and, when
it filters, the linker model whose prediction does the filtering.  For every
spec the engine renders the (possibly filtered) catalog, assembles a
few-shot prompt, asks the generator model for one SQL query, and extracts it
from the fenced code block.  Model failures become error candidates rather
than exceptions so the voting stage always sees the full slate; a replay
miss is a fixture fault and raises.

The few-shots are the solved examples of a FewShotStore nearest the
question under embed_question, a local embedding that makes no model call.
"""
from __future__ import annotations

import functools
import hashlib
import json
import re
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .catalog import FilterLevel, SchemaCatalog, apply_filter
from .files import read_jsonl
from .formats import RepresentationFormat, render
from .gateway import (
    ChatRequest,
    GatewayError,
    LlmGateway,
    STAGE_GENERATION,
    TokenUsage,
)
from .linking import LinkingPrediction, format_user_turn
from .selection import ExecStatus, ExecutionResult

if TYPE_CHECKING:  # numpy loads where a store is built or queried, not on import
    import numpy as np

_ASSETS = Path(__file__).parent / "assets"


def embed_question(text: str) -> np.ndarray:
    """The 64-dim unit vector of a question, seeded by its sha256 digest.

    It embeds stored examples and the questions that query them.  Not
    semantically meaningful, but local and stable across processes and
    platforms: identical texts always map to identical vectors.
    """
    import numpy as np

    seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
    vec = np.random.default_rng(seed).standard_normal(64)
    return vec / np.linalg.norm(vec)


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


@dataclass(slots=True, init=False)
class SqlCandidate:
    """One generated candidate; execution is attached by the selection stage.

    sql is the code block of raw_response (extract_sql), derived on each
    read rather than held, since a long run keeps every record.  Only a
    candidate whose sql differs from its reply's block stores it: one whose
    generation failed (backend error, no code block), which carries empty
    sql and a pre-populated Error execution so that it flows into voting as
    a failure instead of crashing the pipeline, or a loaded record whose
    sql was written so.  Token counts are held as two ints; usage reads
    them as a TokenUsage.
    """

    spec_index: int
    raw_response: str
    input_tokens: int
    output_tokens: int
    execution: ExecutionResult | None
    _sql: str | None  # None: sql is raw_response's code block

    def __init__(
        self,
        spec_index: int,
        sql: str | None = None,
        raw_response: str = "",
        input_tokens: int = 0,
        output_tokens: int = 0,
        execution: ExecutionResult | None = None,
    ):
        """sql None means the code block of raw_response, which must have one."""
        self.spec_index = spec_index
        self.raw_response = raw_response
        self.input_tokens = input_tokens
        self.output_tokens = output_tokens
        self.execution = execution
        self._sql = None if sql is None or sql == _code_block(raw_response) else sql

    @property
    def sql(self) -> str:
        return self._sql if self._sql is not None else _code_block(self.raw_response)

    @property
    def usage(self) -> TokenUsage:
        return TokenUsage(self.input_tokens, self.output_tokens)


def _fewshot_example(record: dict) -> FewShotExample:
    values = [record[f.name] for f in fields(FewShotExample)]
    if not all(isinstance(value, str) for value in values):
        raise TypeError("every field must be a string")
    return FewShotExample(*values)


class FewShotStore:
    """Solved examples, JSONL-backed, with their questions embedded at build.

    A store file holds the examples only; the vectors are embed_question's,
    so no store can disagree with the questions that query it.  load
    ignores the embedding field that files written by older versions carry.
    """

    def __init__(self, examples: Sequence[FewShotExample]):
        import numpy as np

        self.examples = list(examples)
        self.embeddings = np.array([embed_question(e.question) for e in self.examples])

    def __len__(self) -> int:
        return len(self.examples)

    @classmethod
    def load(cls, path: str | Path) -> "FewShotStore":
        return cls(read_jsonl(path, _fewshot_example, ValueError, "store record"))

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for example in self.examples:
                fh.write(json.dumps(asdict(example), ensure_ascii=False) + "\n")


def retrieve_fewshots(question: str, store: FewShotStore, k: int = 3) -> list[FewShotExample]:
    """Top-k examples by cosine similarity to the question.

    Ties and near-ties resolve by store order, so retrieval is
    deterministic.  k of zero or an empty store returns []; k beyond the
    store size returns everything (PipelineRunner reports that once, when
    it loads the store).
    """
    if k <= 0 or not len(store):
        return []
    import numpy as np

    scores = store.embeddings @ embed_question(question)
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


def _code_block(response_text: str) -> str | None:
    """extract_sql's answer, None where it raises."""
    tagged = None
    untagged = None
    for match in _FENCE_RE.finditer(response_text):
        tag = match.group(1).strip().lower()
        if tag in ("sql", "sqlite") and tagged is None:
            tagged = match.group(2)
        elif tag == "" and untagged is None:
            untagged = match.group(2)
    block = tagged if tagged is not None else untagged
    return None if block is None else block.strip()


def extract_sql(response_text: str) -> str:
    """Pull the SQL out of a model response.

    Prefers the first block tagged sql (or sqlite); falls back to the first
    untagged block.  Surrounding whitespace is trimmed, the statement text
    itself (including any trailing semicolon) is preserved.  No usable block
    raises NoCodeBlockError.
    """
    sql = _code_block(response_text)
    if sql is None:
        raise NoCodeBlockError("no fenced SQL block in model response")
    return sql


def _failed_candidate(
    index: int, raw_response: str, usage: TokenUsage, error_class: str, detail: str
) -> SqlCandidate:
    return SqlCandidate(
        spec_index=index,
        sql="",
        raw_response=raw_response,
        input_tokens=usage.input_tokens,
        output_tokens=usage.output_tokens,
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
    return ChatRequest(model=model, messages=tuple(messages))


def generate_slot(index: int, request: ChatRequest, gateway: LlmGateway) -> SqlCandidate:
    """Make the generation call of the slot at index and extract its candidate.

    Failed calls (see LlmGateway.attempt) and missing code blocks yield
    error candidates.
    """
    response = gateway.attempt(request, STAGE_GENERATION, f"spec {index}: generation call")
    if isinstance(response, GatewayError):
        return _failed_candidate(index, "", TokenUsage(), "BackendError", str(response))
    try:
        extract_sql(response.text)
    except NoCodeBlockError as exc:
        return _failed_candidate(
            index, response.text, response.usage, "NoCodeBlock", str(exc)
        )
    return SqlCandidate(
        spec_index=index,
        raw_response=response.text,
        input_tokens=response.usage.input_tokens,
        output_tokens=response.usage.output_tokens,
    )
