"""Pipeline configuration: the candidate slate and engine knobs.

The slate is a list of CandidateSpec slots, each a representation format, a
filter level and, exactly when the slot filters, a linker model.  Slots
that share a format and linker model share one linker call.  The default
configuration is the shipped five-candidate slate: two commented-tuples
slots (unfiltered and fully filtered), two compact-tagged slots sharing a
single linker prediction at the table-only and full levels, and one fully
filtered DDL slot, with one generator model across all slots.  Configs load
from JSON and validation happens at startup so a bad slate fails before any
model call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .catalog import FilterLevel
from .files import read_json
from .formats import RepresentationFormat
from .generation import CandidateSpec
from .selection import DEFAULT_ESCALATION_RULES

DEFAULT_GENERATOR_MODEL = "gemini-1.5-flash"
DEFAULT_JUDGE_MODEL = "gemini-1.5-flash"
DEFAULT_LINKER_PRIMARY = "gpt-4o"
DEFAULT_LINKER_SECONDARY = "gemini-1.5-pro"


class ConfigError(Exception):
    """A configuration file or value is unusable."""


@dataclass
class PipelineConfig:
    """Everything the benchmark runner and ad-hoc querying need."""

    specs: list[CandidateSpec] = field(default_factory=list)
    generator_model: str = DEFAULT_GENERATOR_MODEL
    judge_model: str = DEFAULT_JUDGE_MODEL
    judge_schema_format: RepresentationFormat = RepresentationFormat.INLINE_TABLES
    fewshot_k: int = 3
    sample_k: int = 3
    category_threshold: int = 20
    execution_timeout_s: float = 30.0
    result_precision: int = 6
    max_tokens: int = 2048
    workers: int = 4
    max_in_flight: int = 8
    confidence_rules: dict[int, frozenset[tuple[int, ...]]] = field(default_factory=dict)
    price_table_path: str | None = None
    fewshot_store_path: str | None = None
    descriptions_path: str | None = None

    @classmethod
    def default(cls) -> "PipelineConfig":
        config = cls(
            specs=[
                CandidateSpec(RepresentationFormat.COMMENTED_TUPLES, FilterLevel.NO_FILTERING),
                CandidateSpec(
                    RepresentationFormat.COMMENTED_TUPLES,
                    FilterLevel.FULL_FILTERING,
                    DEFAULT_LINKER_PRIMARY,
                ),
                CandidateSpec(
                    RepresentationFormat.COMPACT_TAGGED,
                    FilterLevel.TABLE_ONLY,
                    DEFAULT_LINKER_PRIMARY,
                ),
                CandidateSpec(
                    RepresentationFormat.COMPACT_TAGGED,
                    FilterLevel.FULL_FILTERING,
                    DEFAULT_LINKER_PRIMARY,
                ),
                CandidateSpec(
                    RepresentationFormat.DDL,
                    FilterLevel.FULL_FILTERING,
                    DEFAULT_LINKER_SECONDARY,
                ),
            ]
        )
        config.validate()
        return config

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
        config = cls.default()
        known = set(config.__dict__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        try:
            if "specs" in doc:
                config.specs = [_parse_spec_entry(entry) for entry in doc["specs"]]
            for key in (
                "generator_model",
                "judge_model",
                "price_table_path",
                "fewshot_store_path",
                "descriptions_path",
            ):
                if key in doc:
                    setattr(config, key, doc[key])
            if "judge_schema_format" in doc:
                config.judge_schema_format = RepresentationFormat.parse(
                    doc["judge_schema_format"]
                )
            for key in ("fewshot_k", "sample_k", "category_threshold", "max_tokens",
                        "workers", "max_in_flight", "result_precision"):
                if key in doc:
                    setattr(config, key, int(doc[key]))
            if "execution_timeout_s" in doc:
                config.execution_timeout_s = float(doc["execution_timeout_s"])
            if "confidence_rules" in doc:
                config.confidence_rules = _parse_confidence_rules(doc["confidence_rules"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc
        config.validate()
        return config

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        return read_json(path, cls.from_dict, ConfigError, "config")

    def validate(self) -> None:
        """Fail fast on an unusable configuration."""
        if not self.specs:
            raise ConfigError("config needs at least one candidate spec")
        for position, entry in enumerate(self.specs):
            filtered = entry.filter_level is not FilterLevel.NO_FILTERING
            if filtered and not entry.linker_model:
                raise ConfigError(
                    f"spec {position}: {entry.filter_level.value} requires a linker model"
                )
            if not filtered and entry.linker_model:
                raise ConfigError(
                    f"spec {position}: no-filtering spec must not set a linker model"
                )
        if not self.generator_model:
            raise ConfigError("generator_model must be set")
        if not self.judge_model:
            raise ConfigError("judge_model must be set")
        if self.fewshot_k < 0:
            raise ConfigError("fewshot_k must be non-negative")
        if self.workers < 1 or self.max_in_flight < 1:
            raise ConfigError("workers and max_in_flight must be positive")
        if self.execution_timeout_s <= 0:
            raise ConfigError("execution_timeout_s must be positive")
        n = len(self.specs)
        if n not in DEFAULT_ESCALATION_RULES and n not in self.confidence_rules:
            raise ConfigError(
                f"no confidence rules for {n} candidates; add a confidence_rules entry"
            )

    def default_linker(self) -> str:
        """The first linker model of the slate, else DEFAULT_LINKER_PRIMARY."""
        return next(
            (spec.linker_model for spec in self.specs if spec.linker_model),
            DEFAULT_LINKER_PRIMARY,
        )


def _parse_spec_entry(entry: dict) -> CandidateSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"spec entry must be an object, got {type(entry).__name__}")
    unknown = set(entry) - {"format", "filter_level", "linker_model"}
    if unknown:
        raise ConfigError(f"unknown spec entry keys: {', '.join(sorted(unknown))}")
    try:
        fmt = RepresentationFormat.parse(entry["format"])
        level = FilterLevel.parse(entry["filter_level"])
    except KeyError as exc:
        raise ConfigError(f"spec entry missing {exc.args[0]}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return CandidateSpec(fmt, level, entry.get("linker_model"))


def _parse_confidence_rules(doc: dict) -> dict[int, frozenset[tuple[int, ...]]]:
    if not isinstance(doc, dict):
        raise ConfigError("confidence_rules must map candidate counts to distributions")
    rules: dict[int, frozenset[tuple[int, ...]]] = {}
    for key, distributions in doc.items():
        try:
            n = int(key)
        except ValueError as exc:
            raise ConfigError(f"confidence_rules key {key!r} is not an integer") from exc
        table = set()
        for dist in distributions:
            normalized = tuple(sorted((int(d) for d in dist), reverse=True))
            if any(d < 1 for d in normalized):
                raise ConfigError(f"confidence_rules[{n}]: {dist} has a group under 1 vote")
            if sum(normalized) != n:
                raise ConfigError(
                    f"confidence_rules[{n}]: distribution {dist} does not sum to {n}"
                )
            table.add(normalized)
        rules[n] = frozenset(table)
    return rules
