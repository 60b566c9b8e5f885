"""Serialization for plans, transcripts, traces and reports.

Formats are chosen for byte-level reproducibility: a fixed little-endian
binary layout for position plans, plain CSV for columnar data, and JSON
with sorted keys for structured documents. Nothing embeds timestamps.
All writers go through an atomic temp-then-rename step, one temp file
per file, created with the mode a plain open() gives: 0o666 less the
process umask. The position plan and the integer CSVs (transcript and
tally) are streamed into it block by block, so no payload of theirs is
ever held whole in memory; the bytes are the same as one write would
give. The plan's bit_index column is made from the layout rule a block
at a time, never as a whole column.

A .cvpl file is read column by column from its open file: its size is
checked against the header first, the positions and bit values are read
into the plan's own arrays, and the bit_index column is checked against
the layout rule a block at a time and not kept.

The integer CSVs are encoded a block of lines at a time, and within a
block a column at a time, not a row at a time. The block is a uint8
matrix with one row per line, so it is written as it lies: each column
becomes right-aligned ASCII digits in its own span of places, four
digits at a time from a lookup table, each four written as one uint32
wherever in the line they start. The digits come from uint32 divisions,
which cost about a quarter of uint64 ones; a column reaching 2**32
first has its low eight digits split off by one uint64 division. A
column's min and max give its width. Only a column holding a negative
value or a value narrower than its max has its digits counted per value
and the places left of each value blanked, and only a block holding
such a column has the blanks dropped from its lines; with sorted
positions, most blocks of a transcript need neither. The bytes are
those of str() on each value, joined with commas.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import secrets
import struct
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .codec import PositionPlan, _block_slices, _layout_bit_index
from .exceptions import FormatError, ParameterError
from .planner import ProtocolParams
from .reliability import ChannelModel
from .simulator import MonitorTrace, Transcript

PLAN_MAGIC = b"CVPL"
PLAN_FORMAT_VERSION = 1

DOCUMENT_SCHEMA_VERSION = 1

_PLAN_HEADER = struct.Struct("<4sHxxQIIQ")  # magic, version, n_pairs, b, k', d'

# a new file only, written in binary
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def _open_temp_beside(path: Path) -> tuple[int, Path]:
    """Create a new file under a random name beside path; return its fd and name.

    It is created with mode 0o666, which the kernel narrows by the
    process umask, so the file gets the mode a plain open() would give.
    """
    while True:
        tmp = path.with_name(f"{path.name}.{secrets.token_hex(4)}")
        try:
            return os.open(tmp, _TEMP_FLAGS, 0o666), tmp
        except FileExistsError:
            continue


def _atomic_write_blocks(path: Path, blocks: Iterable) -> None:
    """Write byte blocks to a temp file beside path, then rename it onto path.

    The blocks are any bytes-like objects; each is written as it comes,
    so the file's whole payload never exists in memory. If writing or
    producing a block fails, path keeps its previous content.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = _open_temp_beside(path)
    try:
        with os.fdopen(fd, "wb") as handle:
            for block in blocks:
                handle.write(block)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    _atomic_write_blocks(path, (payload,))


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _plan_blocks(plan: PositionPlan) -> Iterator:
    """The .cvpl file block by block: the header, then the three columns.

    A column already in the file's dtype and byte order is written from
    its own buffer; bit_index is built from the layout rule a block at a
    time.
    """
    yield _PLAN_HEADER.pack(
        PLAN_MAGIC,
        PLAN_FORMAT_VERSION,
        plan.n_pairs,
        plan.b,
        plan.k_prime,
        plan.d_prime,
    )
    yield plan.positions.astype("<u8", copy=False)
    for rows in _block_slices(plan.d_prime):
        yield _layout_bit_index(plan.b, plan.d_prime, rows).astype("<i4", copy=False)
    yield plan.bit_value.astype("u1", copy=False)


def _read_into(stream: BinaryIO, out: np.ndarray) -> None:
    """Fill out from stream, or raise FormatError if the stream ends first."""
    view = memoryview(out).cast("B")
    while view.nbytes:
        got = stream.readinto(view)
        if not got:
            raise FormatError("plan payload ends before its columns do")
        view = view[got:]


def write_plan(path: Path, plan: PositionPlan) -> None:
    _atomic_write_blocks(path, _plan_blocks(plan))


def read_plan(path: Path) -> PositionPlan:
    """Parse a .cvpl file a column at a time.

    The file's size is checked against the header before any column is
    allocated. positions and bit_value are read into their own arrays;
    bit_index is compared with the layout rule a block at a time and not
    kept, after the plan's invariants have been checked.
    """
    with open(path, "rb") as stream:
        size = stream.seek(0, os.SEEK_END)
        stream.seek(0)
        if size < _PLAN_HEADER.size:
            raise FormatError("plan payload shorter than its header")
        magic, version, n_pairs, b, k_prime, d_prime = _PLAN_HEADER.unpack(
            stream.read(_PLAN_HEADER.size)
        )
        if magic != PLAN_MAGIC:
            raise FormatError(f"bad magic {magic!r}; not a position-plan file")
        if version != PLAN_FORMAT_VERSION:
            raise FormatError(f"unsupported plan format version {version}")
        expected = _PLAN_HEADER.size + d_prime * (8 + 4 + 1)
        if size != expected:
            raise FormatError(f"plan payload has {size} bytes, expected {expected}")
        index_offset = _PLAN_HEADER.size + 8 * d_prime
        positions = np.empty(d_prime, dtype="<u8")
        _read_into(stream, positions)
        bit_value = np.empty(d_prime, dtype="u1")
        stream.seek(index_offset + 4 * d_prime)
        _read_into(stream, bit_value)
        try:
            plan = PositionPlan(n_pairs=n_pairs, b=b, positions=positions, bit_value=bit_value)
        except ParameterError as exc:
            raise FormatError(f"plan payload fails invariants: {exc}") from exc
        # the layout is derived from b and d'; the file's copy of it must agree
        if k_prime != plan.k_prime:
            raise FormatError(f"plan header gives k' = {k_prime}, but d' // b = {plan.k_prime}")
        stream.seek(index_offset)
        for rows in _block_slices(d_prime):
            block = np.empty(rows.stop - rows.start, dtype="<i4")
            _read_into(stream, block)
            if not np.array_equal(block, _layout_bit_index(b, d_prime, rows)):
                raise FormatError(
                    "plan bit_index must put bit j at j*k' .. (j+1)*k' - 1, then -1"
                )
    return plan


def _jsonable(value):
    if isinstance(value, np.generic):
        value = value.item()
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


class _LongInteger(str):
    """The digits of a JSON integer longer than int() converts (Python's
    limit on integer string conversion); no count or real rule takes it,
    and it shows as its length."""

    def __repr__(self) -> str:
        return f"a {len(self.lstrip('-'))}-digit integer"


def _json_int(digits: str):
    """A JSON integer as an int, or as _LongInteger past int()'s digit limit."""
    try:
        return int(digits)
    except ValueError:
        return _LongInteger(digits)


def read_json_document(path: Path, kind: str) -> dict:
    try:
        document = json.loads(Path(path).read_text("utf-8"), parse_int=_json_int)
    except (OSError, ValueError) as exc:
        raise FormatError(f"cannot read {kind} document: {exc}") from exc
    if not isinstance(document, dict):
        raise FormatError(f"{path} holds no JSON object, so no {kind} document")
    if document.get("schema_version") != DOCUMENT_SCHEMA_VERSION:
        raise FormatError(f"unsupported schema_version in {path}")
    if document.get("kind") != kind:
        raise FormatError(f"expected a {kind!r} document, got {document.get('kind')!r}")
    return document


# ProtocolParams properties a parameter document holds, with the rule each follows
_DERIVED_PARAMS = {
    "bins_total": "2 * n_pairs",
    "running_time_s": "bins_total / rep_rate_hz",
}


def params_to_document(p: ProtocolParams) -> dict:
    return dataclasses.asdict(p) | {name: getattr(p, name) for name in _DERIVED_PARAMS}


def _from_fields(cls, doc: dict, **given):
    """Build dataclass cls from doc, one key per field not already given."""
    fields = {f.name: doc[f.name] for f in dataclasses.fields(cls) if f.name not in given}
    return cls(**fields, **given)


def params_from_document(doc: dict) -> ProtocolParams:
    try:
        channel = _from_fields(ChannelModel, doc["channel"])
        params = _from_fields(ProtocolParams, doc, channel=channel)
        stored = {name: doc[name] for name in _DERIVED_PARAMS}
    except KeyError as exc:
        raise FormatError(f"parameter document is missing field {exc}") from exc
    except TypeError as exc:
        raise FormatError(f"parameter document holds a value of the wrong type: {exc}") from exc
    # the document's copies of the derived values must agree with them, in
    # the form the writer gives them ("inf" for an infinite running time)
    for name, rule in _DERIVED_PARAMS.items():
        if _jsonable(stored[name]) != _jsonable(getattr(params, name)):
            raise FormatError(
                f"parameter document gives {name} = {stored[name]!r}, "
                f"but {rule} = {getattr(params, name)!r}"
            )
    return params


# the four ASCII digits of 0..9999, zero-padded, one uint32 each
_DIGIT_QUADS = (
    (np.arange(10_000, dtype=np.uint16)[:, None] // np.uint16([1000, 100, 10, 1]) % 10 + ord("0"))
    .astype(np.uint8)
    .view(np.uint32)
    .ravel()
)
# 10**1 .. 10**19: a uint64 has one digit more than the powers it reaches
_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)
# fills the places left of a number; never a byte of the CSV
_BLANK = 0


def _divmod(values: np.ndarray, divisor: int) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of unsigned values by divisor, in their own dtype.

    A floor division and a multiply-subtract, which run several times
    faster than np.divmod on the same integers.
    """
    quotient = values // values.dtype.type(divisor)
    return quotient, values - quotient * values.dtype.type(divisor)


def _ascii_uint32(magnitude: np.ndarray, out: np.ndarray) -> None:
    """Write uint32 magnitudes as zero-padded decimals filling all of out's places.

    out holds one line per value and one column per character place.
    Each whole quad of places is written as one uint32 through a view
    of its four bytes, wherever in the line they start; a leading
    partial quad of 1 to 3 places is written a byte column at a time.
    Every value must have at most as many digits as out has places.
    """
    end = out.shape[1]
    while end > 4:
        magnitude, quad = _divmod(magnitude, 10_000)
        out[:, end - 4 : end].view(np.uint32)[:, 0] = np.take(_DIGIT_QUADS, quad)
        end -= 4
    # what is left of magnitude fills the leading 1 to 4 places
    quads = np.take(_DIGIT_QUADS, magnitude)
    if end == 4:
        out.view(np.uint32)[:, 0] = quads
        return
    chars = quads.view(np.uint8).reshape(-1, 4)
    for place in range(end):
        out[:, place] = chars[:, 4 - end + place]


def _ascii_column(values: np.ndarray, out: np.ndarray, lo: int, hi: int) -> bool:
    """Write integers as right-aligned ASCII decimals, one per line of out.

    out holds one line per value and is as wide as the widest value,
    sign included; lo and hi are the values' min and max. The digits
    are made in uint32, where a division costs about a quarter of a
    uint64 one: a magnitude of 2**32 or more first has its low eight
    digits split off by one uint64 division by 10**8. Only when some
    value is negative or has fewer digits than the widest (lo is
    negative or narrower than hi) are digits counted per value and the
    places left of each value set to _BLANK; returns whether they were.
    """
    width = out.shape[1]
    top = max(hi, -lo)
    digits_max = len(str(top))
    ragged = lo < 0 or len(str(lo)) < digits_max
    magnitude = values
    if lo < 0:
        # widened first, since abs wraps at a narrower dtype's minimum
        magnitude = np.abs(values.astype(np.int64)).view(np.uint64)
    end = width
    part = magnitude
    while top >= 2**32:
        part, low = _divmod(part.astype(np.uint64, copy=False), 10**8)
        _ascii_uint32(low.astype(np.uint32), out[:, end - 8 : end])
        end -= 8
        top //= 10**8
    _ascii_uint32(part.astype(np.uint32), out[:, width - digits_max : end])
    if not ragged:
        return False
    negative = values < 0
    # in uint64, or numpy compares a signed magnitude with the powers as floats
    digits = 1 + np.searchsorted(
        _POWERS_OF_TEN, magnitude.astype(np.uint64, copy=False), side="right"
    )
    lead = width - digits - negative
    for place in range(int(lead.max())):
        out[:, place][lead > place] = _BLANK
    out[np.flatnonzero(negative), lead[negative]] = ord("-")
    return True


def _ascii_places(columns: list[np.ndarray]) -> tuple[np.ndarray, bool]:
    """The CSV lines of integer columns, one blank-padded line per matrix row.

    Row i of the matrix is line i, newline included, and each column of
    values is written whole into its own span of places. A column of
    single digits needs only the ASCII offset. Each column's min and max
    set its width and tell whether any of its values is signed or
    narrower, the one case that needs digits counted per value and
    blanks; the flag returned says whether any column had such values.
    """
    bounds = [(int(c.min()), int(c.max())) for c in columns]
    widths = [len(str(max(hi, -lo))) + (lo < 0) for lo, hi in bounds]
    lines = np.empty((columns[0].size, sum(widths) + len(widths)), dtype=np.uint8)
    ragged = False
    start = 0
    for column, (lo, hi), width in zip(columns, bounds, widths):
        if width == 1:
            np.add(column, ord("0"), out=lines[:, start], casting="unsafe")
        else:
            ragged |= _ascii_column(column, lines[:, start : start + width], lo, hi)
        lines[:, start + width] = ord(",")
        start += width + 1
    lines[:, -1] = ord("\n")
    return lines, ragged


def _int_csv_blocks(header: str, blocks: Iterable[list[np.ndarray]]) -> Iterator:
    """CSV bytes of integer columns: the header line, then a block of lines at a time.

    blocks yields the columns' next rows, one array per column. Each
    block is formatted on its own, line-major, so it stays in cache and
    is written as it lies; it is stripped of its blanks only if it has
    any. Joined, the blocks hold the same bytes as joining str() of each
    value with commas, row by row, however the rows are split into
    blocks.
    """
    yield (header + "\n").encode("ascii")
    for columns in blocks:
        lines, ragged = _ascii_places(columns)
        yield lines[lines != _BLANK] if ragged else lines.ravel()


def _column_blocks(columns: list[np.ndarray]) -> Iterator[list[np.ndarray]]:
    """Whole columns cut into blocks of _LINES_PER_BLOCK rows."""
    for rows in _block_slices(columns[0].size):
        yield [c[rows] for c in columns]


def write_transcript_csv(path: Path, t: Transcript) -> None:
    plan = t.plan
    blocks = (
        [plan.positions[rows], _layout_bit_index(plan.b, plan.d_prime, rows),
         plan.bit_value[rows], t.outcomes[rows]]
        for rows in _block_slices(plan.d_prime)
    )
    _atomic_write_blocks(path, _int_csv_blocks("position,bit_index,bit_value,outcome", blocks))


def write_tally_csv(path: Path, t: Transcript) -> None:
    """Per-bit vote counts: the bar-chart data, exactly b rows."""
    table = np.array(
        [(y.bit_index, y.zero_votes, y.one_votes, y.decoded, y.sent, y.tie, y.correct)
         for y in t.tallies],
        dtype=np.int64,
    )
    header = "bit_index,zero_votes,one_votes,decoded,sent,tie,correct"
    _atomic_write_blocks(path, _int_csv_blocks(header, _column_blocks(list(table.T))))


def write_monitor_csv(path: Path, trace: MonitorTrace) -> None:
    lines = ["interval_index,t_start_s,clicks"]
    lines.extend(
        f"{i},{i * trace.interval_s:.6f},{int(c)}" for i, c in enumerate(trace.counts)
    )
    atomic_write_text(path, "\n".join(lines) + "\n")
