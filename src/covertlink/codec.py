"""Message encoding, shared-randomness position selection, and decoding.

Characters come from a 32-symbol alphabet and map to 5 bits each
(most-significant bit first). Signal positions are chosen so that each
time-bin pair is selected independently with probability q. The layout
is one rule, derived from b and d' rather than stored: message bit j
sits at the selected positions j*k' .. (j+1)*k' - 1 (in time order,
k' = d' // b), and every later position is a dummy carrying a uniformly
random bit, so the emission statistics stay exactly Bernoulli(q) per
pair, as the security analysis assumes. A .cvpl file carries a copy of
the layout, which is checked against the rule when the file is read.

Both directions of the code are whole-array steps: characters become
bits by shifts of their codes, and bits become characters by one
matrix product with the place values and one lookup in the alphabet's
bytes. The receiver's per-bit tallies are named tuples built straight
from the vote arrays' lists, so a transmission makes no per-bit Python
work beyond those b records.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import ParameterError, _check_count, _check_real

# indices 0-25 are A-Z; the tail covers the special characters needed by
# short human-readable messages
ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ@ .!?-"
BITS_PER_CHAR = 5

_CHAR_TO_INDEX = {c: i for i, c in enumerate(ALPHABET)}
# a code's bits, MSB first, are (code >> _SHIFTS) & 1; _PLACE_VALUES undoes it
_SHIFTS = np.arange(BITS_PER_CHAR - 1, -1, -1, dtype=np.uint8)
_PLACE_VALUES = 1 << _SHIFTS.astype(np.intp)
_ALPHABET_BYTES = np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)

# per-position click outcomes shared with the simulator
OUTCOME_NONE = 0
OUTCOME_ZERO = 1  # click in the bin that encodes "0"
OUTCOME_ONE = 2  # click in the bin that encodes "1"
OUTCOME_BOTH = 3

# positions handled at a time by every blocked loop over a plan (the
# receiver's draws and tally, the writers and the .cvpl reader), one CSV
# line each in the transcript; a block's temporaries stay in cache
_LINES_PER_BLOCK = 1 << 16


def encode_message(text: str) -> np.ndarray:
    """Encode text as a uint8 bit array, 5 bits per character, MSB first."""
    if not text:
        raise ParameterError("message must contain at least one character")
    try:
        codes = np.array(list(map(_CHAR_TO_INDEX.__getitem__, text)), dtype=np.uint8)
    except KeyError as missing:
        raise ParameterError(
            f"character {missing.args[0]!r} is not in the {len(ALPHABET)}-symbol alphabet"
        ) from None
    return ((codes[:, None] >> _SHIFTS) & 1).ravel()


def decode_bits(bits: np.ndarray) -> str:
    """Inverse of encode_message."""
    bits = np.asarray(bits)
    if bits.size == 0 or bits.size % BITS_PER_CHAR != 0:
        raise ParameterError("bit count must be a positive multiple of 5")
    if np.any((bits != 0) & (bits != 1)):
        raise ParameterError("bits must be 0 or 1")
    codes = (bits.reshape(-1, BITS_PER_CHAR) @ _PLACE_VALUES).astype(np.intp, copy=False)
    return _ALPHABET_BYTES[codes].tobytes().decode("ascii")


def _require_whole_characters(b: int) -> None:
    """Refuse a message of b bits unless it decodes to whole characters."""
    if b % BITS_PER_CHAR != 0:
        raise ParameterError(
            f"a plan of b = {b} message bits does not decode to text: b must be "
            f"a multiple of BITS_PER_CHAR = {BITS_PER_CHAR}"
        )


@dataclass(frozen=True)
class SharedRandomness:
    """Entropy shared by the two legitimate parties, secret from the adversary.

    A named substream discipline keeps independently consumed streams
    (positions, dummy bits, channel noise) decoupled while remaining a
    pure function of the seed.
    """

    seed: int

    _STREAMS = ("positions", "dummy_bits")
    # leading namespace key keeps these streams disjoint from the
    # simulator's channel-noise generators when both use one master seed
    _NAMESPACE = 10

    def generator(self, stream: str) -> np.random.Generator:
        if stream not in self._STREAMS:
            raise ParameterError(f"unknown randomness stream {stream!r}")
        return _rng(self.seed, self._NAMESPACE, self._STREAMS.index(stream))


def _rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """The seeded stream of one spawn key: every Generator the package
    draws from, the shared streams' and the simulator's, is made here, and
    every seed is checked here, an integer >= 0."""
    seed = _check_count(seed, "seed", 0)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))


@dataclass(frozen=True, eq=False)
class PositionPlan:
    """Selected pair indices and the bit each one carries.

    Only what was drawn is stored. k_prime, d_prime and bit_index are
    derived from b and the positions by the module's layout rule, so a
    plan cannot hold any other layout. Layouts from outside arrive only
    through .cvpl files, whose k' header and bit_index column
    fileio.read_plan checks against the derived ones.

    Attributes:
        n_pairs: size of the index space the positions were drawn from.
        b: message bit count.
        positions: strictly increasing pair indices, length d_prime.
        bit_value: transmitted bit per position (dummies carry random bits).
    """

    n_pairs: int
    b: int
    positions: np.ndarray
    bit_value: np.ndarray

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=np.uint64)
        bit_value = np.asarray(self.bit_value, dtype=np.uint8)
        for name, arr in (("positions", positions), ("bit_value", bit_value)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)
        if bit_value.size != positions.size:
            raise ParameterError("positions and bit_value must align")
        if self.b < 1 or positions.size < self.b:
            raise ParameterError(
                "a plan needs b >= 1 and at least one position per bit; "
                f"got b = {self.b} and {positions.size} positions"
            )
        for name in ("n_pairs", "b"):
            object.__setattr__(self, name, _check_count(getattr(self, name), name, 1))
        if np.any(positions[1:] <= positions[:-1]):
            raise ParameterError("positions must be strictly increasing")
        if int(positions[-1]) >= self.n_pairs:
            raise ParameterError("positions must lie in [0, n_pairs)")
        if np.any(bit_value > 1):
            raise ParameterError("bit values must be 0 or 1")

    @property
    def d_prime(self) -> int:
        return self.positions.size

    @property
    def k_prime(self) -> int:
        """Repetitions per message bit."""
        return self.d_prime // self.b

    @property
    def bit_index(self) -> np.ndarray:
        """Message-bit index per position, -1 for dummies (built on each call)."""
        bit_index = np.empty(self.d_prime, dtype=np.int32)
        for rows in _block_slices(self.d_prime):
            bit_index[rows] = _layout_bit_index(self.b, self.d_prime, rows)
        return bit_index

    def message_bits(self) -> np.ndarray:
        """The b message bit values, one from each bit's block."""
        return _message_block(self.bit_value, self.b)[:, 0].copy()


def _message_block(per_position: np.ndarray, b: int) -> np.ndarray:
    """The (b, k') view of the first b*k' entries, k' = len // b: row j is bit j."""
    k_prime = per_position.size // b
    return per_position[: b * k_prime].reshape(b, k_prime)


def _block_slices(size: int) -> Iterator[slice]:
    """Consecutive slices of at most _LINES_PER_BLOCK rows covering range(size)."""
    for start in range(0, size, _LINES_PER_BLOCK):
        yield slice(start, min(start + _LINES_PER_BLOCK, size))


def _layout_bit_index(b: int, d_prime: int, rows: slice) -> np.ndarray:
    """The layout's bit_index at positions rows (a step-1 slice): i // k', or -1 past b*k'."""
    bit = np.arange(rows.start, rows.stop) // (d_prime // b)
    bit[bit >= b] = -1
    return bit.astype(np.int32)


def _draw_distinct_indices(
    rng: np.random.Generator, n_pairs: int, count: int
) -> np.ndarray:
    """count distinct uniform indices in [0, n_pairs), sorted ascending.

    Sparse draws return the first `count` distinct values of an iid
    uniform stream, which are a uniformly distributed count-subset, so
    no O(n_pairs) work is ever needed. The stream comes in batches of
    max(16, still missing) values. The first batch's head is the answer
    unless it holds a repeat; every later value is then taken in stream
    order if it is new, and merged into the sorted picks. Dense draws
    (count > n_pairs / 2) fall back to a partial permutation.
    """
    if count > n_pairs:
        raise ParameterError("cannot draw more distinct indices than pairs")
    if count > n_pairs // 2:
        return np.sort(rng.permutation(n_pairs)[:count].astype(np.uint64))
    picked, rest = _sorted_head(rng, n_pairs, count)
    while picked.size < count:
        picked = _merge_fresh(picked, rest, count - picked.size)
        if picked.size < count:
            rest = rng.integers(0, n_pairs, size=max(16, count - picked.size), dtype=np.uint64)
    return picked


def _first_of_equals(ordered: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from their left neighbour."""
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def _sorted_head(
    rng: np.random.Generator, n_pairs: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first batch: the distinct values of its first count, sorted, and its other values.

    The head is sorted in place. Should it hold a repeat, it has fewer
    than count distinct values, and all of them belong to the answer.
    """
    batch = rng.integers(0, n_pairs, size=max(16, count), dtype=np.uint64)
    head = batch[:count]
    head.sort()
    first = _first_of_equals(head)
    if not first.all():
        head = head[first]
    # the tail is copied so that a deduplicated head leaves no view of the batch
    return head, batch[count:].copy()


def _merge_fresh(picked: np.ndarray, values: np.ndarray, need: int) -> np.ndarray:
    """picked (sorted, distinct) with the first `need` new distinct entries of values added."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    slot = np.searchsorted(picked, ordered)
    known = picked[np.minimum(slot, picked.size - 1)] == ordered
    # a stable sort puts each value's first occurrence first among its
    # equals; sorting their indices restores stream order
    fresh = np.sort(order[_first_of_equals(ordered) & ~known])[:need]
    added = np.sort(values[fresh])
    return np.insert(picked, np.searchsorted(picked, added), added)


def choose_positions(
    shared: SharedRandomness, n_pairs: int, q: float, bits: np.ndarray
) -> PositionPlan:
    """Select signal positions and assign message bits to them.

    Each pair is selected independently with probability q, realized by
    drawing d' ~ Binomial(n_pairs, q) and then d' distinct uniform
    indices (an exactly equivalent two-stage sampling). Identical shared
    randomness yields an identical plan on both sides.

    Raises:
        ParameterError: n_pairs is not an integer >= 1, q lies outside [0,
            1], or d' < b, so not even one repetition per bit fits.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    b = bits.size
    if b == 0:
        raise ParameterError("bits must be non-empty")
    n_pairs = _check_count(n_pairs, "n_pairs", 1)
    _check_real(q, "q", 0.0, 1.0)
    rng = shared.generator("positions")
    d_prime = int(rng.binomial(n_pairs, q))
    if d_prime < b:
        raise ParameterError(
            f"drew only {d_prime} positions for {b} bits; q * n_pairs must "
            "comfortably exceed the bit count"
        )
    positions = _draw_distinct_indices(rng, n_pairs, d_prime)
    bit_value = np.empty(d_prime, dtype=np.uint8)
    block = _message_block(bit_value, b)
    block[:] = bits[:, None]
    bit_value[block.size :] = shared.generator("dummy_bits").integers(
        0, 2, size=d_prime - block.size, dtype=np.uint8
    )
    return PositionPlan(n_pairs=n_pairs, b=b, positions=positions, bit_value=bit_value)


class BitTally(NamedTuple):
    """Per-message-bit vote counts for bar-chart style reporting.

    An immutable named tuple of Python ints and bools: two tallies are
    equal when their fields are, and a tally unpacks like a tuple.
    """

    bit_index: int
    zero_votes: int
    one_votes: int
    decoded: int
    tie: bool
    sent: int
    correct: bool


def _checked_outcomes(plan: PositionPlan, outcomes: np.ndarray) -> np.ndarray:
    """outcomes as an array, refused unless it holds one code 0..3 per plan position."""
    outcomes = np.asarray(outcomes)
    # shape first: a plan has d' >= 1 positions, so min and max are defined
    if outcomes.shape != (plan.d_prime,) or not (
        outcomes.min() >= OUTCOME_NONE and outcomes.max() <= OUTCOME_BOTH
    ):
        raise ParameterError("outcomes must hold one click code 0..3 per plan position")
    return outcomes


def vote_counts(plan: PositionPlan, outcomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-message-bit vote counts (zeros, ones) from per-position click outcomes.

    A vote is a click in exactly one bin at a message position; dummy
    positions, no-click and both-bin outcomes cast none. The message
    positions form the plan's (b, k') block, one row per bit, so the
    tally is O(d').
    """
    votes = _message_block(_checked_outcomes(plan, outcomes), plan.b)
    return (votes == OUTCOME_ZERO).sum(axis=1), (votes == OUTCOME_ONE).sum(axis=1)


def majority_decode(
    plan: PositionPlan, outcomes: np.ndarray
) -> tuple[str, tuple[BitTally, ...]]:
    """Majority-vote each message bit from per-position click outcomes.

    Votes come from vote_counts. A tie (including zero votes) decodes
    to the sentinel value 0 and is flagged, matching the closed-form
    error convention where ties count as errors. The rule is applied
    here only; compute_stats sums the tallies made here. The decision
    is made on whole arrays; each tally is a BitTally named tuple made
    from one row of their lists.

    Returns:
        (decoded text, per-bit tallies). Correctness in the tallies is
        judged against the bit values recorded in the plan.

    Raises:
        ParameterError: b is not a multiple of BITS_PER_CHAR, checked
            before any vote is counted.
    """
    _require_whole_characters(plan.b)
    zeros, ones = vote_counts(plan, outcomes)
    sent = plan.message_bits()
    decoded_bits = (ones > zeros).astype(np.uint8)
    ties = zeros == ones
    correct = ~ties & (decoded_bits == sent)
    # BitTally's fields after bit_index, one list each
    columns = (c.tolist() for c in (zeros, ones, decoded_bits, ties, sent, correct))
    tallies = tuple(map(BitTally._make, zip(range(plan.b), *columns)))
    return decode_bits(decoded_bits), tallies
