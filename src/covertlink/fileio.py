"""Serialization for plans, transcripts, traces and reports.

Formats are chosen for byte-level reproducibility: a fixed little-endian
binary layout for position plans, plain CSV for columnar data, and JSON
with sorted keys for structured documents. Nothing embeds timestamps.
All writers go through an atomic temp-then-rename step.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .codec import PositionPlan
from .exceptions import FormatError
from .planner import ProtocolParams
from .reliability import ChannelModel
from .simulator import MonitorTrace, Transcript

PLAN_MAGIC = b"CVPL"
PLAN_FORMAT_VERSION = 1

DOCUMENT_SCHEMA_VERSION = 1

_PLAN_HEADER = struct.Struct("<4sHxxQIIQ")  # magic, version, n_pairs, b, k', d'


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def plan_to_bytes(plan: PositionPlan) -> bytes:
    header = _PLAN_HEADER.pack(
        PLAN_MAGIC,
        PLAN_FORMAT_VERSION,
        plan.n_pairs,
        plan.b,
        plan.k_prime,
        plan.d_prime,
    )
    return b"".join(
        (
            header,
            plan.positions.astype("<u8").tobytes(),
            plan.bit_index.astype("<i4").tobytes(),
            plan.bit_value.astype("u1").tobytes(),
        )
    )


def plan_from_bytes(payload: bytes) -> PositionPlan:
    if len(payload) < _PLAN_HEADER.size:
        raise FormatError("plan payload shorter than its header")
    magic, version, n_pairs, b, k_prime, d_prime = _PLAN_HEADER.unpack_from(payload)
    if magic != PLAN_MAGIC:
        raise FormatError(f"bad magic {magic!r}; not a position-plan file")
    if version != PLAN_FORMAT_VERSION:
        raise FormatError(f"unsupported plan format version {version}")
    expected = _PLAN_HEADER.size + d_prime * (8 + 4 + 1)
    if len(payload) != expected:
        raise FormatError(
            f"plan payload has {len(payload)} bytes, expected {expected}"
        )
    offset = _PLAN_HEADER.size
    positions = np.frombuffer(payload, dtype="<u8", count=d_prime, offset=offset)
    offset += 8 * d_prime
    bit_index = np.frombuffer(payload, dtype="<i4", count=d_prime, offset=offset)
    offset += 4 * d_prime
    bit_value = np.frombuffer(payload, dtype="u1", count=d_prime, offset=offset)
    try:
        return PositionPlan(
            n_pairs=n_pairs,
            b=b,
            positions=positions.copy(),
            bit_index=bit_index.copy(),
            bit_value=bit_value.copy(),
            k_prime=k_prime,
        )
    except Exception as exc:
        raise FormatError(f"plan payload fails invariants: {exc}") from exc


def write_plan(path: Path, plan: PositionPlan) -> None:
    atomic_write_bytes(path, plan_to_bytes(plan))


def read_plan(path: Path) -> PositionPlan:
    return plan_from_bytes(Path(path).read_bytes())


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return repr(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_json_document(path: Path, kind: str, body: dict) -> None:
    """Write a schema-versioned JSON document with deterministic layout."""
    document = {"schema_version": DOCUMENT_SCHEMA_VERSION, "kind": kind}
    document.update(body)
    text = json.dumps(_jsonable(document), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    atomic_write_text(path, text)


def read_json_document(path: Path, kind: str) -> dict:
    try:
        document = json.loads(Path(path).read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {kind} document: {exc}") from exc
    if document.get("schema_version") != DOCUMENT_SCHEMA_VERSION:
        raise FormatError(f"unsupported schema_version in {path}")
    if document.get("kind") != kind:
        raise FormatError(f"expected a {kind!r} document, got {document.get('kind')!r}")
    return document


def params_to_document(p: ProtocolParams) -> dict:
    return dataclasses.asdict(p) | {"bins_total": p.bins_total}


def _from_fields(cls, doc: dict, **given):
    """Build dataclass cls from doc, one key per field not already given."""
    fields = {f.name: doc[f.name] for f in dataclasses.fields(cls) if f.name not in given}
    return cls(**fields, **given)


def params_from_document(doc: dict) -> ProtocolParams:
    try:
        channel = _from_fields(ChannelModel, doc["channel"])
        return _from_fields(ProtocolParams, doc, channel=channel)
    except KeyError as exc:
        raise FormatError(f"parameter document is missing field {exc}") from exc


def write_transcript_csv(path: Path, t: Transcript) -> None:
    plan = t.plan
    lines = ["position,bit_index,bit_value,outcome"]
    lines.extend(
        f"{int(p)},{int(i)},{int(v)},{int(o)}"
        for p, i, v, o in zip(plan.positions, plan.bit_index, plan.bit_value, t.outcomes)
    )
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_tally_csv(path: Path, t: Transcript) -> None:
    """Per-bit vote counts: the bar-chart data, exactly b rows."""
    lines = ["bit_index,zero_votes,one_votes,decoded,sent,tie,correct"]
    lines.extend(
        f"{y.bit_index},{y.zero_votes},{y.one_votes},{y.decoded},{y.sent},"
        f"{int(y.tie)},{int(y.correct)}"
        for y in t.tallies
    )
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_monitor_csv(path: Path, trace: MonitorTrace) -> None:
    lines = ["interval_index,t_start_s,clicks"]
    lines.extend(
        f"{i},{i * trace.interval_s:.6f},{int(c)}" for i, c in enumerate(trace.counts)
    )
    atomic_write_text(path, "\n".join(lines) + "\n")
