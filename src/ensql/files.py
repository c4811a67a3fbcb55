"""Readers for the JSON and JSONL files the engine takes in.

read_json reads a whole document (config, dataset, price table, descriptions),
read_jsonl one object a line (run records, replay fixtures, few-shot stores).
Every fault, from the file, its JSON, its top-level type or the caller's
parse, is raised as the caller's error class, naming the path (and line).
is_json_int and is_json_count check the integers and counts such a file holds.
"""
from __future__ import annotations

import json
from decimal import InvalidOperation
from pathlib import Path
from typing import Callable

# what parse raises on well-formed JSON of the wrong shape
_PARSE_ERRORS = (AttributeError, KeyError, TypeError, ValueError, InvalidOperation)


def is_json_int(value: object) -> bool:
    """An integer as JSON spells one: an int, and not a bool, which Python counts as one."""
    return type(value) is int


def is_json_count(value: object) -> bool:
    """A count: a JSON integer of at least 0."""
    return is_json_int(value) and value >= 0


def read_json(path: str | Path, parse: Callable, error: type, what: str, kind: type = dict):
    """parse(doc) of the JSON document at path, whose top level must be a kind."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    return _decode(text, parse, error, kind, f"{path}: bad {what}")


def read_jsonl(path: str | Path, parse: Callable, error: type, what: str) -> list:
    """parse(record) of each JSON object at path, one a line; blank lines are skipped."""
    items = []
    try:
        with open(path, encoding="utf-8") as fh:
            for n, line in enumerate(fh, 1):
                if line.strip():
                    items.append(_decode(line, parse, error, dict, f"{path}:{n}: bad {what}"))
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what}s {path}: {exc}") from exc
    return items


def _decode(text: str, parse: Callable, error: type, kind: type, where: str):
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise error(f"{where}: not valid JSON: {exc}") from exc
    if not isinstance(doc, kind):
        expected = "object" if kind is dict else "list"
        raise error(f"{where}: expected a JSON {expected}, got {type(doc).__name__}")
    try:
        return parse(doc)
    except (error, *_PARSE_ERRORS) as exc:
        raise error(f"{where}: {exc}") from exc
