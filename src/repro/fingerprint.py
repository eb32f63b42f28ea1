"""Shared content-fingerprint helper.

Configs, networks and workloads all fingerprint themselves the same way:
sha256 over a canonical (sorted-keys) JSON dump of a payload dictionary.
Keeping the incantation in one place guarantees the three call sites can
never drift apart — a silent divergence would fragment or invalidate the
evaluation session's on-disk result cache.

Payloads built from frozen dataclasses go through :func:`field_dict`, the
copy-free equivalent of :func:`dataclasses.asdict` for them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from typing import Any

__all__ = ["field_dict", "field_names", "fingerprint_payload"]

#: Field names per dataclass type, in declaration order.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def field_names(cls: type) -> tuple[str, ...]:
    """The field names of a dataclass type, in declaration order (memoized)."""
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return names


def field_dict(obj: Any) -> dict[str, Any]:
    """``dataclasses.asdict(obj)`` for a frozen dataclass of JSON leaves.

    Returns the same dict ``asdict`` does — nested dataclasses become nested
    dicts, fields in declaration order — but without ``asdict``'s recursive
    deepcopy, which is pure overhead when every leaf is an immutable int,
    float, str, bool or ``None``.  Fingerprinting layers, GEMM workloads and
    configurations runs on every cache key, so the copy is worth skipping.
    """
    out: dict[str, Any] = {}
    for name in field_names(type(obj)):
        value = getattr(obj, name)
        if hasattr(type(value), "__dataclass_fields__"):
            value = field_dict(value)
        out[name] = value
    return out


def fingerprint_payload(payload: dict[str, Any]) -> str:
    """Deterministic sha256 hex digest of a JSON-representable payload.

    ``default=str`` covers enum/Path-like leaves; ``sort_keys`` makes the
    digest independent of dict insertion order, so equal payloads hash
    identically in any process on any platform.
    """
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()
