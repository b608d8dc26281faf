"""Trace export and reload: JSONL and Chrome ``trace_event`` JSON.

Two on-disk formats, one in-memory stream:

* **JSONL** (``*.jsonl``) -- the canonical archival format: a header
  line (``{"kind": "repro-trace", "version": 1, "meta": {...}}``)
  followed by one span per line.  Torn final lines (the process died
  mid-write) are dropped on load, mirroring the checkpoint journals.
* **Chrome trace JSON** (anything else, conventionally ``*.json``) --
  the ``trace_event`` format that ``about:tracing`` and Perfetto load
  directly: complete (``"ph": "X"``) events with microsecond
  timestamps, one timeline lane per span category, and the span
  counters in ``args``.  Span and parent ids ride along in ``args`` so
  the file round-trips back into :class:`~repro.obs.span.SpanRecord`
  rows for ``repro trace``.

:func:`write_trace` / :func:`read_trace` pick the format from the file
extension / content, so the CLI's ``--trace-out`` accepts either.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.span import SpanRecord

__all__ = [
    "TRACE_VERSION",
    "read_trace",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]

TRACE_VERSION = 1
_TRACE_KIND = "repro-trace"

#: Category -> Chrome "thread" lane, so Perfetto stacks the hierarchy
#: study / stage / campaign / shard / worker / probe-batch top-down.
_CATEGORY_LANES = {
    "study": 1,
    "stage": 2,
    "campaign": 3,
    "shard": 4,
    "worker": 5,
    "faults": 6,
    "probe-batch": 6,
    "pack": 6,
}
_DEFAULT_LANE = 7


def _record_to_row(record: SpanRecord) -> Dict[str, Any]:
    return {
        "id": record.span_id,
        "parent": record.parent_id,
        "name": record.name,
        "cat": record.category,
        "start": record.start,
        "dur": record.duration,
        "counters": dict(sorted(record.counters)),
    }


def _row_to_record(row: Mapping[str, Any]) -> SpanRecord:
    return SpanRecord(
        span_id=int(row["id"]),
        parent_id=None if row.get("parent") is None else int(row["parent"]),
        name=str(row["name"]),
        category=str(row["cat"]),
        start=float(row["start"]),
        duration=float(row["dur"]),
        counters=tuple(
            sorted((str(k), float(v)) for k, v in dict(row.get("counters") or {}).items())
        ),
    )


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------


def write_jsonl(
    path: Union[str, Path],
    records: Sequence[SpanRecord],
    meta: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write the span stream as a JSONL trace file."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        header = {
            "kind": _TRACE_KIND,
            "version": TRACE_VERSION,
            "meta": dict(sorted((meta or {}).items())),
        }
        fh.write(json.dumps(header) + "\n")
        for record in records:
            fh.write(json.dumps(_record_to_row(record)) + "\n")
    return out


def _read_jsonl(lines: Sequence[str]) -> Tuple[Dict[str, Any], List[SpanRecord]]:
    header = json.loads(lines[0])
    if header.get("kind") != _TRACE_KIND:
        raise ValueError("not a repro-trace JSONL file (bad header kind)")
    if header.get("version") != TRACE_VERSION:
        raise ValueError(
            f"unsupported trace version {header.get('version')!r} "
            f"(this build reads {TRACE_VERSION})"
        )
    records: List[SpanRecord] = []
    for line in lines[1:]:
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError:
            break  # torn final write; everything before it is good
        records.append(_row_to_record(row))
    return dict(header.get("meta") or {}), records


# ----------------------------------------------------------------------
# Chrome trace_event JSON
# ----------------------------------------------------------------------


def to_chrome_trace(
    records: Sequence[SpanRecord],
    meta: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The ``trace_event`` document Perfetto / ``about:tracing`` load.

    Every span becomes a complete ("X") event; counters, span id, and
    parent id travel in ``args`` so the document is lossless.
    """
    events: List[Dict[str, Any]] = []
    lanes_used: Dict[int, str] = {}
    for record in records:
        lane = _CATEGORY_LANES.get(record.category, _DEFAULT_LANE)
        lanes_used.setdefault(lane, record.category)
        args: Dict[str, Any] = {"spanId": record.span_id}
        if record.parent_id is not None:
            args["parentId"] = record.parent_id
        for key, value in sorted(record.counters):
            args[key] = value
        events.append(
            {
                "name": record.name,
                "cat": record.category,
                "ph": "X",
                "ts": round(record.start * 1e6, 3),
                "dur": round(record.duration * 1e6, 3),
                "pid": 1,
                "tid": lane,
                "args": args,
            }
        )
    for lane, category in sorted(lanes_used.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": lane,
                "args": {"name": category},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "kind": _TRACE_KIND,
            "version": TRACE_VERSION,
            "meta": dict(sorted((meta or {}).items())),
        },
    }


def write_chrome_trace(
    path: Union[str, Path],
    records: Sequence[SpanRecord],
    meta: Optional[Mapping[str, Any]] = None,
) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(to_chrome_trace(records, meta)))
    return out


def _read_chrome(doc: Mapping[str, Any]) -> Tuple[Dict[str, Any], List[SpanRecord]]:
    records: List[SpanRecord] = []
    for event in doc.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args") or {})
        span_id = args.pop("spanId", len(records))
        parent_id = args.pop("parentId", None)
        records.append(
            SpanRecord(
                span_id=int(span_id),
                parent_id=None if parent_id is None else int(parent_id),
                name=str(event.get("name", "")),
                category=str(event.get("cat", "")),
                start=float(event.get("ts", 0.0)) / 1e6,
                duration=float(event.get("dur", 0.0)) / 1e6,
                counters=tuple(
                    sorted(
                        (str(k), float(v))
                        for k, v in args.items()
                        if isinstance(v, (int, float))
                    )
                ),
            )
        )
    other = dict(doc.get("otherData") or {})
    return dict(other.get("meta") or {}), records


# ----------------------------------------------------------------------
# Format-sniffing front door
# ----------------------------------------------------------------------


def write_trace(
    path: Union[str, Path],
    records: Sequence[SpanRecord],
    meta: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write ``records`` in the format implied by the file extension:
    ``.jsonl`` -> JSONL, anything else -> Chrome trace JSON."""
    if str(path).endswith(".jsonl"):
        return write_jsonl(path, records, meta)
    return write_chrome_trace(path, records, meta)


def read_trace(path: Union[str, Path]) -> Tuple[Dict[str, Any], List[SpanRecord]]:
    """Load a trace file of either format into ``(meta, records)``."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"empty trace file: {path}")
    try:
        first = json.loads(lines[0])
    except ValueError:
        first = None
    if isinstance(first, dict) and first.get("kind") == _TRACE_KIND:
        return _read_jsonl(lines)
    doc = json.loads(text)
    if isinstance(doc, dict) and "traceEvents" in doc:
        return _read_chrome(doc)
    raise ValueError(f"not a repro trace file (JSONL or Chrome JSON): {path}")
