"""Pipeline configuration: the candidate slate and engine knobs.

The slate is a list of CandidateSpec slots, each a representation format, a
filter level and, exactly when the slot filters, a linker model.  Slots
that share a format and linker model share one linker call.  The default
configuration is the shipped five-candidate slate: two commented-tuples
slots (unfiltered and fully filtered), two compact-tagged slots sharing a
single linker prediction at the table-only and full levels, and one fully
filtered DDL slot, with one generator model across all slots.  Configs load
from JSON and validation happens at startup so a bad slate fails before any
model call.  A JSON value is the field's value, except for the keys whose
spelling differs (_PARSERS), and validate() checks every field's type and
range, however the config was made.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

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
    workers: int = 4
    max_in_flight: int = 8
    confidence_rules: dict[int, frozenset[tuple[int, ...]]] = field(default_factory=dict)
    price_table_path: str | None = None
    fewshot_store_path: str | None = None
    descriptions_path: str | None = None

    @classmethod
    def default(cls) -> "PipelineConfig":
        fmt, level = RepresentationFormat, FilterLevel
        return cls(specs=[
            CandidateSpec(fmt.COMMENTED_TUPLES, level.NO_FILTERING),
            CandidateSpec(fmt.COMMENTED_TUPLES, level.FULL_FILTERING, DEFAULT_LINKER_PRIMARY),
            CandidateSpec(fmt.COMPACT_TAGGED, level.TABLE_ONLY, DEFAULT_LINKER_PRIMARY),
            CandidateSpec(fmt.COMPACT_TAGGED, level.FULL_FILTERING, DEFAULT_LINKER_PRIMARY),
            CandidateSpec(fmt.DDL, level.FULL_FILTERING, DEFAULT_LINKER_SECONDARY),
        ])

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        """The default config with doc's keys set, checked by validate()."""
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        values = {}
        for key, value in doc.items():
            try:
                values[key] = _PARSERS[key](value) if key in _PARSERS else value
            except (AttributeError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad config value for {key}: {exc}") from exc
        config = replace(cls.default(), **values)
        config.validate()
        return config

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        return read_json(path, cls.from_dict, ConfigError, "config")

    def validate(self) -> None:
        """Fail fast on an unusable configuration: every field's type and range.

        from_dict, a config built by hand and a command's overrides of a
        loaded one all pass through here.
        """
        for key, (valid, what) in _FIELD_RULES.items():
            value = getattr(self, key)
            if not valid(value):
                raise ConfigError(f"bad config value for {key}: {value!r} is not {what}")
        if not self.specs:
            raise ConfigError("config needs at least one candidate spec")
        for position, entry in enumerate(self.specs):
            if not isinstance(entry, CandidateSpec):
                raise ConfigError(f"spec {position}: {entry!r} is not a CandidateSpec")
            filtered = entry.filter_level is not FilterLevel.NO_FILTERING
            if filtered and not _is_name(entry.linker_model):
                raise ConfigError(
                    f"spec {position}: {entry.filter_level.value} requires a linker model "
                    f"(a non-empty string), not {entry.linker_model!r}"
                )
            if not filtered and entry.linker_model is not None:
                raise ConfigError(
                    f"spec {position}: no-filtering spec must not set a linker model"
                )
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


def is_json_int(value: object) -> bool:
    """An integer as JSON spells one: an int, and not a bool, which Python counts as one."""
    return type(value) is int


def _is_name(value: object) -> bool:
    return isinstance(value, str) and bool(value)


def _count(low: int) -> tuple[Callable[[object], bool], str]:
    return (lambda value: is_json_int(value) and value >= low), f"an integer of at least {low}"


_NAME = (_is_name, "a non-empty string")
_PATH = (lambda value: value is None or isinstance(value, str), "a string or null")

# every field but specs and confidence_rules: what validate() requires of it
_FIELD_RULES: dict[str, tuple[Callable[[object], bool], str]] = {
    "generator_model": _NAME,
    "judge_model": _NAME,
    "judge_schema_format": (
        lambda value: isinstance(value, RepresentationFormat), "a representation format"
    ),
    "fewshot_k": _count(0),
    "sample_k": _count(0),
    "category_threshold": _count(0),
    "execution_timeout_s": (
        lambda value: type(value) in (int, float) and math.isfinite(value) and value > 0,
        "a finite number above 0",
    ),
    "workers": _count(1),
    "max_in_flight": _count(1),
    "price_table_path": _PATH,
    "fewshot_store_path": _PATH,
    "descriptions_path": _PATH,
}


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
            if not all(map(is_json_int, dist)):
                raise ConfigError(f"confidence_rules[{n}]: {dist!r} holds a non-integer size")
            normalized = tuple(sorted(dist, reverse=True))
            if any(d < 1 for d in normalized):
                raise ConfigError(f"confidence_rules[{n}]: {dist} has a group under 1 vote")
            if sum(normalized) != n:
                raise ConfigError(
                    f"confidence_rules[{n}]: distribution {dist} does not sum to {n}"
                )
            table.add(normalized)
        rules[n] = frozenset(table)
    return rules


# the keys whose JSON spelling is not the field's value; every other key's
# JSON value is the field's value as it stands
_PARSERS: dict[str, Callable[[object], object]] = {
    "specs": lambda entries: [_parse_spec_entry(entry) for entry in entries],
    "judge_schema_format": RepresentationFormat.parse,
    "confidence_rules": _parse_confidence_rules,
}
