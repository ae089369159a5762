"""Reading a JSON document, and the key, string and index checks that scenario
and tensor documents share. Imports neither numpy nor the scenario model."""

from __future__ import annotations

import json
import operator
from pathlib import Path

from . import FormatError


class ScenarioFormatError(FormatError):
    """A document could not be parsed into a Scenario (bad JSON or bad schema)."""


def read_json(path: Path | str, error: type[FormatError] = ScenarioFormatError) -> object:
    """Read and parse a JSON file.

    Raises ``error`` naming the path, and the line/column for malformed JSON.
    I/O errors propagate as OSError, and bytes that are not UTF-8 as
    UnicodeDecodeError.
    """
    # Outside the try: UnicodeDecodeError is a ValueError too.
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # An integer literal longer than int's digit limit, or arrays and
        # objects nested deeper than the interpreter's recursion limit.
        raise error(f"{path}: {exc}") from exc


def _expect_dict(value: object, path: str, error: type[FormatError] = ScenarioFormatError) -> dict:
    if not isinstance(value, dict):
        raise error(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _get(doc: dict, key: str, path: str, error: type[FormatError] = ScenarioFormatError) -> object:
    if key not in doc:
        raise error(f"{path}: missing required key {key!r}")
    return doc[key]


# JSON's "\ud800" escape parses to a lone surrogate, which no output can write.
NOT_UTF8 = "expected a string that encodes as UTF-8 (no lone surrogate)"


def encodes_as_utf8(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def checked_index(index: object, size: int, name: str, unit: str, player: str | None = None) -> int:
    """``index`` as an int, once it is an integer (``operator.index``) in
    ``range(size)``: a negative one would count from the end. Else raises
    ValueError naming ``name``, the index and the ``size`` ``unit`` of ``player``, if any."""
    try:
        checked = operator.index(index)
    except TypeError:
        fault = "is not an integer"
    else:
        if 0 <= checked < size:
            return checked
        fault = "is out of range"
    holder = f"{size} {unit}" if player is None else f"player {player!r}, which has {size} {unit}"
    raise ValueError(f"{name} {index!r} {fault} for {holder}")
