"""Structured trace export: JSONL records for offline analysis.

A :class:`repro.sim.Tracer` already stores structured
``(time, source, category, message, fields)`` records; this module
serializes them to the observability schema::

    {"time_us": 12.5, "node": "adapter0", "subsystem": "tx",
     "event": "...", "fields": {"src": 0, "dst": 1, ...}}

one JSON object per line (JSONL), the format of the ``trace`` artifact
(``python -m repro.bench --obs trace``) and what log pipelines ingest.
Encoding is deterministic: top-level keys emit in a *fixed* order (schema order,
not alphabetical), field keys sort, and non-JSON-serializable field
values (bytes payload fragments, tuples, sets...) are coerced
deterministically instead of raising mid-export.  Identical seeds
produce byte-identical trace files.

Files whose name ends in ``.gz`` are transparently gzip-compressed
(with a zeroed mtime, so compression itself stays deterministic);
append mode appends a concatenated gzip member, which every
decompressor reads as one stream.
"""

from __future__ import annotations

import gzip
import json
import os
from typing import TYPE_CHECKING, Any, Iterable, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.trace import TraceRecord

__all__ = ["record_to_dict", "jsonl_lines", "write_lines",
           "write_trace_jsonl", "coerce_value"]

def coerce_value(value: Any) -> Any:
    """Map one field value onto a deterministic JSON-serializable form.

    Bytes become hex strings (stable, unlike ``repr``), tuples become
    lists, sets become sorted lists, nested dicts coerce recursively
    with sorted keys; everything else unknown falls back to ``str``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value).hex()
    if isinstance(value, (list, tuple)):
        return [coerce_value(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(coerce_value(v)) for v in value)
    if isinstance(value, dict):
        return {str(k): coerce_value(v)
                for k, v in sorted(value.items(), key=lambda kv:
                                   str(kv[0]))}
    return str(value)


def record_to_dict(record: "TraceRecord") -> dict:
    """Map one trace record onto the JSONL schema, keys in fixed order."""
    return {
        "time_us": round(record.time, 6),
        "node": record.source,
        "subsystem": record.category,
        "event": record.message,
        "fields": {str(k): coerce_value(v)
                   for k, v in sorted(record.fields.items(),
                                      key=lambda kv: str(kv[0]))},
    }


def jsonl_lines(records: Iterable["TraceRecord"]) -> Iterable[str]:
    """Deterministically encoded JSON line per record (no newline).

    Key order is the fixed schema order (coercion happened in
    :func:`record_to_dict`); ``default=str`` remains as a last-resort
    guard so an unanticipated type can never abort an export.
    """
    for record in records:
        yield json.dumps(record_to_dict(record),
                         separators=(",", ":"), default=str)


def write_lines(lines: Iterable[str], path: Union[str, "os.PathLike"],
                *, append: bool = False) -> int:
    """Write ``lines`` to ``path``, one per line; returns the count.

    A path ending in ``.gz`` is gzip-compressed with a zeroed timestamp
    and no embedded name (byte-deterministic); appending adds a gzip
    member, which decompressors treat as a continuation of the stream.
    """
    count = 0
    with open(path, "ab" if append else "wb") as raw:
        out = (gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
               if str(path).endswith(".gz") else raw)
        with out:
            for line in lines:
                out.write(line.encode("utf-8") + b"\n")
                count += 1
    return count


def write_trace_jsonl(records: Iterable["TraceRecord"],
                      path: Union[str, "os.PathLike"], *,
                      append: bool = False) -> int:
    """Write ``records`` to ``path`` as JSONL (see :func:`write_lines`);
    returns the line count."""
    return write_lines(jsonl_lines(records), path, append=append)
