"""Lossless JSON I/O.

All CLI payloads pass through here: output is deterministic (sorted
keys, no whitespace) and any integer beyond 53 bits is rendered as a
decimal string so that JavaScript-side consumers never silently round.
Input accepts both forms.
"""

from __future__ import annotations

import json

SCHEMA = "tstruct/1"
_SAFE = 2**53


def _encode(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) >= _SAFE else value
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _decode(value):
    if isinstance(value, str):
        stripped = value[1:] if value.startswith("-") else value
        if stripped.isdigit() and len(stripped) > 15:
            return int(value)
        return value
    if isinstance(value, dict):
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def integer(value, what: str) -> int:
    """``value`` if it is an integer (a ``bool`` is not), else TypeError."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def dumps(payload: dict) -> str:
    """Deterministic serialization, tagged with the schema: same payload,
    same bytes.

    >>> dumps({"b": 2**60, "a": 1})
    '{"a":1,"b":"1152921504606846976","schema":"tstruct/1"}'
    """
    body = dict(payload)
    body.setdefault("schema", SCHEMA)
    return json.dumps(_encode(body), sort_keys=True, separators=(",", ":"))


def loads(text: str):
    try:
        return _decode(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except RecursionError:
        # the decoder and ``_decode`` both recurse once per nesting level
        raise ValueError("malformed JSON: nested too deeply")
