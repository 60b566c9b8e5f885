"""Serialization round-trips and corruption detection."""

import dataclasses
import json
import math
import os
import stat
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import covertlink
import reference_scenarios as ref
from covertlink.codec import (
    _LINES_PER_BLOCK,
    PositionPlan,
    SharedRandomness,
    choose_positions,
    encode_message,
)
from covertlink.exceptions import FormatError
from covertlink.fileio import (
    PLAN_MAGIC,
    _ascii_places,
    _atomic_write_blocks,
    _column_blocks,
    _int_csv_blocks,
    params_from_document,
    params_to_document,
    read_json_document,
    read_plan,
    write_json_document,
    write_monitor_csv,
    write_plan,
    write_tally_csv,
    write_transcript_csv,
)
from covertlink.planner import ProtocolParams
from covertlink.reliability import ChannelModel
from covertlink.simulator import simulate_monitoring, simulate_transmission
from make_receiver_golden import SYNTHETIC_NAME, golden_cases, receiver_digests

RECEIVER_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "receiver_golden.json").read_text("utf-8")
)


def sample_plan():
    return choose_positions(
        SharedRandomness(seed=17), 50_000, 5e-3, encode_message("HI")
    )


def sample_params() -> ProtocolParams:
    return ProtocolParams(
        b=10,
        d=500,
        k=50,
        q=500 / 50_000,
        n_pairs=50_000,
        mu=0.03,
        predicted_epsilon=0.012,
        predicted_e=0.004,
        channel=ChannelModel(tau=0.18, n_bar_a=2e-3, n_bar_b=3e-3),
        rep_rate_hz=1e6,
        epsilon_target=0.014,
        target_e=0.01,
    )


def written_payload(tmp_path, plan: PositionPlan) -> bytearray:
    """The .cvpl bytes write_plan gives for plan."""
    path = tmp_path / "written.cvpl"
    write_plan(path, plan)
    return bytearray(path.read_bytes())


def read_payload(tmp_path, payload) -> PositionPlan:
    """read_plan of a file holding payload."""
    path = tmp_path / "payload.cvpl"
    path.write_bytes(bytes(payload))
    return read_plan(path)


def test_plan_bytes_round_trip(tmp_path):
    plan = sample_plan()
    path = tmp_path / "nested" / "plan.cvpl"
    write_plan(path, plan)
    back = read_plan(path)
    assert back.n_pairs == plan.n_pairs
    assert back.b == plan.b
    assert back.k_prime == plan.k_prime
    assert np.array_equal(back.positions, plan.positions)
    assert np.array_equal(back.bit_index, plan.bit_index)
    assert np.array_equal(back.bit_value, plan.bit_value)


def test_plan_bytes_are_deterministic(tmp_path):
    write_plan(tmp_path / "one.cvpl", sample_plan())
    write_plan(tmp_path / "two.cvpl", sample_plan())
    assert (tmp_path / "one.cvpl").read_bytes() == (tmp_path / "two.cvpl").read_bytes()


def test_plan_file_holds_the_documented_layout(tmp_path):
    # the header (magic, version, N, b, k', d'), then whole columns:
    # positions as <u8, bit_index as <i4, bit_value as u1
    plan = three_block_plan()
    header = struct.pack(
        "<4sHxxQIIQ", PLAN_MAGIC, 1, plan.n_pairs, plan.b, plan.k_prime, plan.d_prime
    )
    columns = (
        plan.positions.astype("<u8").tobytes()
        + plan.bit_index.astype("<i4").tobytes()
        + plan.bit_value.astype("u1").tobytes()
    )
    assert written_payload(tmp_path, plan) == header + columns


def test_plan_corruption_detected(tmp_path):
    payload = written_payload(tmp_path, sample_plan())
    with pytest.raises(FormatError):
        read_payload(tmp_path, payload[:10])
    bad_magic = bytearray(payload)
    bad_magic[:4] = b"XXXX"
    with pytest.raises(FormatError):
        read_payload(tmp_path, bad_magic)
    bad_version = bytearray(payload)
    bad_version[4] = 99
    with pytest.raises(FormatError):
        read_payload(tmp_path, bad_version)
    with pytest.raises(FormatError):
        read_payload(tmp_path, payload[:-3])
    with pytest.raises(FormatError):
        read_payload(tmp_path, payload + b"\x00")
    # the header's k' must equal d' // b; header: magic, version, N, b, k', d'
    bad_k = bytearray(payload)
    k_prime = struct.unpack_from("<I", bad_k, 20)[0]
    struct.pack_into("<I", bad_k, 20, k_prime + 1)
    with pytest.raises(FormatError, match="k'"):
        read_payload(tmp_path, bad_k)


def test_plan_invariant_violation_detected(tmp_path):
    plan = sample_plan()
    payload = written_payload(tmp_path, plan)
    header_size = len(payload) - plan.d_prime * 13
    # swap the first two position entries so they are not increasing
    first = payload[header_size : header_size + 8]
    second = payload[header_size + 8 : header_size + 16]
    payload[header_size : header_size + 8] = second
    payload[header_size + 8 : header_size + 16] = first
    with pytest.raises(FormatError):
        read_payload(tmp_path, payload)
    assert payload[:4] == PLAN_MAGIC  # corruption was past the header


def test_plan_with_scrambled_blocks_rejected(tmp_path):
    # swap the bit indices of the first position of bit 0 and of bit 1:
    # every bit still has k' positions, but not in its own block
    plan = sample_plan()
    payload = written_payload(tmp_path, plan)
    index_start = len(payload) - plan.d_prime * 5
    first = index_start
    second = index_start + 4 * plan.k_prime
    payload[first : first + 4], payload[second : second + 4] = (
        payload[second : second + 4],
        payload[first : first + 4],
    )
    with pytest.raises(FormatError, match="bit_index"):
        read_payload(tmp_path, payload)


def three_block_plan() -> PositionPlan:
    """2*65,536 + 7 positions for 5 bits: two whole blocks, then 7 rows ending in 4 dummies."""
    d_prime = 2 * _LINES_PER_BLOCK + 7
    bit_value = np.random.default_rng(8).integers(0, 2, d_prime, dtype=np.uint8)
    positions = 5 * np.arange(d_prime, dtype=np.uint64)
    return PositionPlan(n_pairs=10**7, b=5, positions=positions, bit_value=bit_value)


def test_read_plan_round_trips_three_blocks(tmp_path):
    plan = three_block_plan()
    path = tmp_path / "plan.cvpl"
    write_plan(path, plan)
    back = read_plan(path)
    assert (back.n_pairs, back.b, back.k_prime) == (plan.n_pairs, plan.b, plan.k_prime)
    assert np.array_equal(back.positions, plan.positions)
    assert np.array_equal(back.bit_value, plan.bit_value)
    assert np.array_equal(back.bit_index, plan.bit_index)
    assert plan.bit_index[-4:].tolist() == [-1] * 4


@pytest.mark.parametrize(
    "row",
    [
        _LINES_PER_BLOCK + 100,  # a message bit in the middle block
        2 * _LINES_PER_BLOCK,  # the last block's first row, still a message bit
        2 * _LINES_PER_BLOCK + 6,  # the last row, a dummy
    ],
)
def test_read_plan_rejects_a_wrong_bit_index_in_any_block(tmp_path, row):
    plan = three_block_plan()
    payload = written_payload(tmp_path, plan)
    index_start = len(payload) - plan.d_prime * 5
    entry = struct.unpack_from("<i", payload, index_start + 4 * row)[0]
    assert entry == plan.bit_index[row]
    struct.pack_into("<i", payload, index_start + 4 * row, entry + 1)
    with pytest.raises(FormatError, match="bit_index"):
        read_payload(tmp_path, payload)


def test_read_plan_rejects_a_truncated_file(tmp_path):
    payload = written_payload(tmp_path, three_block_plan())
    for cut in (len(payload) - 1, len(payload) // 2, 10):
        with pytest.raises(FormatError, match="bytes, expected|shorter than its header"):
            read_payload(tmp_path, payload[:cut])


def test_json_document_round_trip(tmp_path):
    path = tmp_path / "report.json"
    body = {
        "value": np.float64(1.5),
        "n": np.int64(3),
        "nan": np.float64(math.nan),
        "inf": np.float32(math.inf),
        "floats": np.array([1.0, -math.inf]),
    }
    write_json_document(path, "report", body)
    doc = read_json_document(path, "report")
    assert doc["value"] == 1.5
    assert doc["n"] == 3
    # numpy's non-finite floats follow Python's: stored as strings
    assert (doc["nan"], doc["inf"], doc["floats"]) == ("nan", "inf", [1.0, "-inf"])
    assert doc["schema_version"] == 1
    with pytest.raises(FormatError):
        read_json_document(path, "plan")


def test_json_document_rejects_bad_schema(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"schema_version": 999, "kind": "report"}')
    with pytest.raises(FormatError):
        read_json_document(path, "report")
    path.write_text("not json at all")
    with pytest.raises(FormatError):
        read_json_document(path, "report")
    with pytest.raises(FormatError):
        read_json_document(tmp_path / "missing.json", "report")


def test_json_document_deterministic_bytes(tmp_path):
    body = {"b": 2, "a": [1.0, math.nan], "nested": {"z": 1, "y": 2}}
    write_json_document(tmp_path / "one.json", "report", body)
    write_json_document(tmp_path / "two.json", "report", body)
    one = (tmp_path / "one.json").read_bytes()
    assert one == (tmp_path / "two.json").read_bytes()
    assert b"nan" in one  # non-finite floats stored as strings, not NaN tokens


def test_params_document_round_trip():
    p = sample_params()
    doc = params_to_document(p)
    assert params_from_document(doc) == p
    assert doc["bins_total"] == p.bins_total
    assert doc["channel"] == {"tau": p.channel.tau, "n_bar_a": p.channel.n_bar_a,
                              "n_bar_b": p.channel.n_bar_b}
    assert doc["running_time_s"] == p.running_time_s == p.bins_total / p.rep_rate_hz
    for missing in ("mu", "target_e", "channel", "bins_total", "running_time_s"):
        broken = dict(doc)
        broken.pop(missing)
        with pytest.raises(FormatError, match=missing):
            params_from_document(broken)
    broken = dict(doc, channel={"tau": p.channel.tau, "n_bar_a": p.channel.n_bar_a})
    with pytest.raises(FormatError, match="n_bar_b"):
        params_from_document(broken)
    broken = dict(doc, running_time_s=2 * doc["running_time_s"])
    with pytest.raises(FormatError, match="running_time_s = 0.2, but bins_total / rep_rate_hz"):
        params_from_document(broken)


def test_params_document_round_trip_at_an_infinite_running_time(tmp_path):
    # 2 N / rep_rate_hz overflows at a rate of 1e-305 Hz: the writer stores
    # running_time_s as "inf", and the reader takes that copy back
    p = dataclasses.replace(sample_params(), rep_rate_hz=1e-305)
    assert p.running_time_s == math.inf
    body = {"params": params_to_document(p)}
    write_json_document(tmp_path / "plan.json", "protocol_params", body)
    doc = read_json_document(tmp_path / "plan.json", "protocol_params")["params"]
    assert doc["running_time_s"] == "inf"
    assert params_from_document(doc) == p
    with pytest.raises(FormatError, match="running_time_s = 1.0, but bins_total / rep_rate_hz"):
        params_from_document(dict(doc, running_time_s=1.0))


def test_csv_outputs(tmp_path):
    p = sample_params()
    plan = choose_positions(
        SharedRandomness(seed=4), p.n_pairs, p.q, encode_message("AB")
    )
    tr = simulate_transmission(p, plan, rng_seed=6)

    write_transcript_csv(tmp_path / "transcript.csv", tr)
    lines = (tmp_path / "transcript.csv").read_text().splitlines()
    assert lines[0] == "position,bit_index,bit_value,outcome"
    columns = (plan.positions, plan.bit_index, plan.bit_value, tr.outcomes)
    assert lines[1:] == [f"{p},{i},{v},{o}" for p, i, v, o in zip(*(c.tolist() for c in columns))]

    write_tally_csv(tmp_path / "tally.csv", tr)
    lines = (tmp_path / "tally.csv").read_text().splitlines()
    assert len(lines) == 1 + p.b  # exactly one row per message bit

    trace = simulate_monitoring(p, True, 1.0, 0.0625, rng_seed=5)
    write_monitor_csv(tmp_path / "monitor.csv", trace)
    lines = (tmp_path / "monitor.csv").read_text().splitlines()
    assert len(lines) == 1 + trace.counts.size


def f_string_csv(header: str, columns) -> bytes:
    """The CSV bytes one f-string per row gives."""
    rows = (",".join(f"{int(v)}" for v in row) for row in zip(*columns))
    return "".join(f"{line}\n" for line in (header, *rows)).encode("ascii")


def joined_csv(header: str, columns) -> bytes:
    """The CSV bytes the block encoder streams, joined."""
    return b"".join(_int_csv_blocks(header, _column_blocks(columns)))


# 0, 9, 10, every 10**k and 10**k - 1, 2**53 + 1, around 1e16 and the uint64 maximum
EDGE_VALUES = sorted(
    {0, 9, 10, 2**53 + 1, 10**16 - 1, 10**16 + 1, 2**64 - 1}
    | {10**k for k in range(20)}
    | {10**k - 1 for k in range(1, 20)}
)


@pytest.mark.parametrize("width", range(1, 21))
def test_csv_encoder_matches_f_strings_in_every_width(width):
    column = np.array([v % 10**width for v in EDGE_VALUES], dtype=np.uint64)
    assert len(str(int(column.max()))) == width
    assert joined_csv("value", [column]) == f_string_csv("value", [column])
    # the same digits signed (one fewer where they pass int64), beside bit_index's -1
    signed = (column if width < 19 else column // 10).astype(np.int64)
    marks = np.where(np.arange(column.size) % 3 == 0, -1, np.arange(column.size)).astype(np.int32)
    columns = [marks, signed, -signed, column]
    assert joined_csv("i,s,n,u", columns) == f_string_csv("i,s,n,u", columns)
    last_row = [c[-1:] for c in columns]
    assert joined_csv("i,s,n,u", last_row) == f_string_csv("i,s,n,u", last_row)


def test_csv_blocks_match_f_strings_across_block_boundaries():
    # five whole blocks and 7 rows; from block 2 on, the widths of one
    # column at most change inside a block while the others keep theirs:
    #   0. 1- to 5-digit positions, 1- to 5-digit bit_index
    #   1. 9-digit positions, 5-digit bit_index: every line one width
    #   2. positions crossing 10**15, 4-digit bit_index
    #   3. 16-digit positions, bit_index crossing 999 -> 1000
    #   4. 16-digit positions, 4-digit bit_index: every line one width
    #   5. 16-digit positions, bit_index turning -1 (the dummies)
    block = np.arange(_LINES_PER_BLOCK, dtype=np.uint64)
    tail = np.arange(7, dtype=np.uint64)
    positions = np.concatenate([
        block,
        10**8 + block,
        10**15 - _LINES_PER_BLOCK // 2 + block,
        2 * 10**15 + 3 * block,
        3 * 10**15 + 3 * block,
        4 * 10**15 + tail,
    ])
    bit_index = np.concatenate([
        block // 3,
        (_LINES_PER_BLOCK + block) // 3,
        1000 + block // 66,
        500 + block // 66,
        1000 + block // 66,
        np.where(tail < 4, 2000, -1),
    ]).astype(np.int32)
    index = np.arange(positions.size, dtype=np.uint64)
    bit_value = (index % 2).astype(np.uint8)
    outcomes = (index * 7 % 4).astype(np.uint8)
    columns = [positions, bit_index, bit_value, outcomes]
    header = "position,bit_index,bit_value,outcome"
    blocks = list(_int_csv_blocks(header, _column_blocks(columns)))
    assert len(blocks) == 1 + 6  # the header, then one block per _LINES_PER_BLOCK rows
    widths = [
        [sorted({len(str(v)) for v in c[s : s + _LINES_PER_BLOCK].tolist()}) for c in columns[:2]]
        for s in range(0, positions.size, _LINES_PER_BLOCK)
    ]
    assert widths == [
        [[1, 2, 3, 4, 5], [1, 2, 3, 4, 5]],
        [[9], [5]],
        [[15, 16], [4]],
        [[16], [3, 4]],
        [[16], [4]],
        [[16], [2, 4]],
    ]
    # blanks are dropped from a block only when some value in it is narrower or signed
    ragged = [_ascii_places(columns)[1] for columns in _column_blocks(columns)]
    assert ragged == [True, False, True, True, False, True]
    assert b"".join(blocks) == f_string_csv(header, columns)


@pytest.mark.parametrize("digits", [4, 5, 8, 9, 12, 13])
@pytest.mark.parametrize("ahead", range(4))
def test_csv_quads_match_f_strings_at_every_byte_offset(ahead, digits):
    # a wide column's quads are written as uint32 views of its line: with
    # 0 to 3 single-digit columns ahead (two bytes each) and 0 or 1 digit
    # before its first whole quad, the views start at every offset mod 4
    rows = np.arange(41, dtype=np.uint64)
    singles = [(rows * (j + 3) % 10).astype(np.uint8) for j in range(ahead)]
    aligned = 10 ** (digits - 1) + rows * (10 ** (digits - 1) // 41)
    signed = np.where(rows % 3 == 0, -1, 1) * aligned.astype(np.int64)
    narrower = aligned // 10 ** (rows % digits)  # 1 to digits digits
    columns = [*singles, aligned]
    lines, ragged = _ascii_places(columns)
    assert lines.shape == (rows.size, 2 * ahead + digits + 1) and not ragged
    for wide in (aligned, signed, narrower):
        columns = [*singles, wide, rows % 10]
        header = ",".join(f"c{i}" for i in range(len(columns)))
        assert joined_csv(header, columns) == f_string_csv(header, columns)
    assert _ascii_places([*singles, signed])[1] and _ascii_places([*singles, narrower])[1]


INT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


@st.composite
def int_columns_in_blocks(draw):
    """Integer columns of every dtype, their rows cut into blocks at random."""
    rows = draw(st.integers(min_value=1, max_value=40))
    columns = []
    for dtype in draw(st.lists(st.sampled_from(INT_DTYPES), min_size=1, max_size=4)):
        info = np.iinfo(dtype)
        # the dtype's ends, and both sides of every power of ten it holds
        edges = [info.min, info.max, 0] + [
            v for k in range(20) for v in (10**k - 1, 10**k, -(10**k), 1 - 10**k)
            if info.min <= v <= info.max
        ]
        value = st.one_of(st.integers(info.min, info.max), st.sampled_from(edges))
        columns.append(np.array(draw(st.lists(value, min_size=rows, max_size=rows)), dtype=dtype))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=rows), max_size=5)) | {rows})
    blocks = [[c[a:b] for c in columns] for a, b in zip([0, *cuts], cuts)]
    return columns, blocks


# each signed dtype's minimum, where abs wraps to itself in that dtype
SIGNED_MINIMA = [
    np.array([np.iinfo(t).min, -1, 0, np.iinfo(t).max], dtype=t)
    for t in (np.int8, np.int16, np.int32, np.int64)
]


@given(int_columns_in_blocks())
@example((SIGNED_MINIMA, [[c[:1] for c in SIGNED_MINIMA], [c[1:] for c in SIGNED_MINIMA]]))
def test_csv_blocks_match_f_strings_for_any_dtype_and_split(case):
    columns, blocks = case
    header = ",".join(f"c{i}" for i in range(len(columns)))
    assert b"".join(_int_csv_blocks(header, blocks)) == f_string_csv(header, columns)


@pytest.fixture(scope="module")
def wide_transcript():
    """A transmission of about 1.2e6 positions, all of 16 digits, 17 of them dummies."""
    b, k, d_prime = 1000, 1200, 1_200_017
    base = sample_params()
    params = ProtocolParams.derive(
        b=b, k=k, n_pairs=2 * 10**15, mu=base.mu, channel=base.channel,
        rep_rate_hz=base.rep_rate_hz, epsilon_target=base.epsilon_target, target_e=base.target_e,
    )
    positions = 10**15 + 7 * np.arange(d_prime, dtype=np.uint64)
    bit_value = np.random.default_rng(3).integers(0, 2, d_prime, dtype=np.uint8)
    plan = PositionPlan(n_pairs=params.n_pairs, b=b, positions=positions, bit_value=bit_value)
    return simulate_transmission(params, plan, rng_seed=9)


def traced_peak(write) -> int:
    """Peak bytes that write() holds at once, numpy buffers included."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transcript_csv_is_written_in_bounded_memory(wide_transcript, tmp_path):
    # streamed, with bit_index made per block, what stays is one block's
    # lines, built line-major with no second copy of them: about 6.25 B
    # per position here. A transposed copy of each block adds about 1.4 B,
    # a d'-long bit_index column 4 B, and a whole payload beside its
    # lines is about 50 B
    d_prime = wide_transcript.plan.d_prime
    peak = traced_peak(lambda: write_transcript_csv(tmp_path / "t.csv", wide_transcript))
    assert peak / d_prime <= 7
    assert (tmp_path / "t.csv").stat().st_size > 20 * d_prime


def test_plan_file_is_written_in_bounded_memory(wide_transcript, tmp_path):
    # streamed, with bit_index made per block, the columns are written
    # from their own buffers; a d'-long bit_index column is 4 B, and
    # copies of the columns joined into one payload are about 26 B
    plan = wide_transcript.plan
    peak = traced_peak(lambda: write_plan(tmp_path / "plan.cvpl", plan))
    assert peak / plan.d_prime <= 2
    assert (tmp_path / "plan.cvpl").stat().st_size > 13 * plan.d_prime


def test_plan_file_is_read_in_bounded_memory(wide_transcript, tmp_path):
    # what stays is the plan (8 B of positions, 1 B of bit values) and a
    # one-byte mask of the order check; the whole payload is 13 B and a
    # d'-long bit_index beside it 4 B more
    plan = wide_transcript.plan
    write_plan(tmp_path / "plan.cvpl", plan)
    peak = traced_peak(lambda: read_plan(tmp_path / "plan.cvpl"))
    assert peak / plan.d_prime <= 12


def test_transmission_is_simulated_in_bounded_memory(wide_transcript):
    # what stays is the one-byte outcome per position; whole uniform
    # draws are 8 B each, and a one-call bincount 8 B more
    t = wide_transcript
    peak = traced_peak(lambda: simulate_transmission(t.protocol, t.plan, rng_seed=9))
    assert peak / t.plan.d_prime <= 5


ROUND_PEAK = """
import resource, sys
from pathlib import Path
from covertlink.codec import SharedRandomness, choose_positions, encode_message
from covertlink.fileio import read_plan, write_plan, write_tally_csv, write_transcript_csv
from covertlink.planner import ProtocolParams
from covertlink.reliability import ChannelModel
from covertlink.simulator import simulate_transmission

d_prime, out = int(sys.argv[1]), Path(sys.argv[2])
bits = encode_message("BOUNDED MEMORY")
params = ProtocolParams.derive(
    b=bits.size, k=d_prime // bits.size, n_pairs=10**15, mu=0.03,
    channel=ChannelModel(tau=0.18, n_bar_a=2e-3, n_bar_b=3e-3),
    rep_rate_hz=1e9, epsilon_target=0.5, target_e=0.5,
)
plan = choose_positions(SharedRandomness(5), params.n_pairs, params.q, bits)
transcript = simulate_transmission(params, plan, rng_seed=6)
write_plan(out / "plan.cvpl", plan)
write_transcript_csv(out / "transcript.csv", transcript)
write_tally_csv(out / "tally.csv", transcript)
read_back = read_plan(out / "plan.cvpl")
print(plan.d_prime, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def round_peak(d_prime: int, out: Path) -> tuple[int, int]:
    """(d', peak RSS in bytes) of one receiver round in a fresh interpreter."""
    src = str(Path(covertlink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out.mkdir()
    # -B: neither round writes bytecode, so a fresh checkout does not
    # compile in the first round only
    run = subprocess.run(
        [sys.executable, "-B", "-c", ROUND_PEAK, str(d_prime), str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    drawn, peak_kib = map(int, run.stdout.split())
    return drawn, 1024 * peak_kib


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_round_peak_grows_by_what_the_round_keeps(tmp_path):
    # choose, simulate, the three writers and read_plan keep the layout
    # (9 B per position), the outcomes (1 B) and the read-back plan (9 B);
    # whole-array temporaries in any of them add 8 B or more. n_pairs =
    # 1e15 puts a repeat in the first batch with probability ~2e-3, as in
    # a full-scale plan
    small_d, small_peak = round_peak(500_000, tmp_path / "small")
    large_d, large_peak = round_peak(2_000_000, tmp_path / "large")
    assert (large_peak - small_peak) / (large_d - small_d) <= 20


def test_receiver_golden_covers_the_reference_plans():
    assert sorted(RECEIVER_GOLDEN) == sorted([op.name for op in ref.FIBER] + [SYNTHETIC_NAME])
    assert all(record["dummies"] > 0 for record in RECEIVER_GOLDEN.values())


@pytest.mark.parametrize("name", sorted(RECEIVER_GOLDEN))
def test_receiver_outputs_match_golden(fiber_plan_reports, tmp_path, name):
    reference = {scenario: params for scenario, (_, params, _, _) in fiber_plan_reports.items()}
    params, message = golden_cases(reference)[name]
    assert receiver_digests(params, message, tmp_path) == RECEIVER_GOLDEN[name]
    if name == SYNTHETIC_NAME:
        last = (tmp_path / "transcript.csv").read_text().splitlines()[-1]
        assert len(last.split(",")[0]) == 16


def test_atomic_overwrite(tmp_path):
    path = tmp_path / "doc.json"
    write_json_document(path, "report", {"round": 1})
    write_json_document(path, "report", {"round": 2})
    assert read_json_document(path, "report")["round"] == 2
    assert list(tmp_path.iterdir()) == [path]  # no stray temp files

    def failing_blocks():
        yield b"half a file"
        raise RuntimeError("block source failed")

    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="block source failed"):
        _atomic_write_blocks(path, failing_blocks())
    assert path.read_bytes() == before  # the previous file is intact
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.skipif(os.name != "posix", reason="file modes and the umask are POSIX")
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_get_the_umask_mode(tmp_path, umask, mode):
    # a temp file from tempfile.mkstemp is always 0o600, whatever the umask
    previous = os.umask(umask)
    try:
        write_json_document(tmp_path / "doc.json", "report", {"round": 1})
        write_plan(tmp_path / "plan.cvpl", sample_plan())
        write_json_document(tmp_path / "doc.json", "report", {"round": 2})
    finally:
        os.umask(previous)
    for path in tmp_path.iterdir():
        assert stat.S_IMODE(path.stat().st_mode) == mode, path.name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json", "plan.cvpl"]
