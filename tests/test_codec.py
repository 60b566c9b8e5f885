"""Codec: text <-> bits, shared-randomness position selection, and
majority decoding."""

import dataclasses

import numpy as np
import pytest

import covertlink.codec
import oracles
from covertlink.codec import (
    ALPHABET,
    BITS_PER_CHAR,
    OUTCOME_BOTH,
    OUTCOME_NONE,
    OUTCOME_ONE,
    OUTCOME_ZERO,
    PositionPlan,
    SharedRandomness,
    _draw_distinct_indices,
    choose_positions,
    decode_bits,
    encode_message,
    majority_decode,
)
from covertlink.exceptions import ParameterError
from covertlink.reliability import ClickProbabilities, bit_error_prob


def small_plan(bits, k_prime: int, n_pairs: int | None = None) -> PositionPlan:
    """Hand-built plan with exactly k_prime positions per bit, no dummies."""
    bits = np.asarray(bits, dtype=np.uint8)
    b = bits.size
    d = b * k_prime
    if n_pairs is None:
        n_pairs = d
    return PositionPlan(
        n_pairs=n_pairs,
        b=b,
        positions=np.arange(d, dtype=np.uint64),
        bit_value=np.repeat(bits, k_prime),
    )


def test_alphabet_boundaries():
    assert np.array_equal(encode_message("A"), np.zeros(5, dtype=np.uint8))
    assert np.array_equal(encode_message("B"), [0, 0, 0, 0, 1])
    assert np.array_equal(encode_message(ALPHABET[-1]), np.ones(5, dtype=np.uint8))


def test_seven_char_message_is_35_bits():
    bits = encode_message("CQTUSTC")
    assert bits.size == 35
    assert decode_bits(bits) == "CQTUSTC"


def test_round_trip_random_messages():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        text = "".join(ALPHABET[i] for i in rng.integers(0, len(ALPHABET), size=n))
        assert decode_bits(encode_message(text)) == text


def test_encode_rejects_bad_input():
    with pytest.raises(ParameterError):
        encode_message("")
    with pytest.raises(ParameterError):
        encode_message("lowercase")
    with pytest.raises(ParameterError):
        encode_message("A~B")


def test_decode_rejects_bad_input():
    with pytest.raises(ParameterError):
        decode_bits(np.zeros(7, dtype=np.uint8))
    with pytest.raises(ParameterError):
        decode_bits(np.array([], dtype=np.uint8))
    with pytest.raises(ParameterError):
        decode_bits(np.array([0, 1, 2, 0, 1], dtype=np.uint8))


def test_codec_matches_loop_oracle_on_every_code():
    for char in ALPHABET:
        bits = encode_message(char)
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, oracles.encode_message_loop(char))
        assert decode_bits(bits) == oracles.decode_bits_loop(bits) == char
    # the 32 codes in one message, and every 5-bit pattern decoded at once
    assert np.array_equal(encode_message(ALPHABET), oracles.encode_message_loop(ALPHABET))
    patterns = (np.arange(32)[:, None] >> np.arange(4, -1, -1)) & 1
    assert decode_bits(patterns.ravel()) == oracles.decode_bits_loop(patterns.ravel()) == ALPHABET


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
def test_codec_matches_loop_oracle_on_random_payloads(dtype):
    rng = np.random.default_rng(2024)
    for size in (5, 10, 35, 60, 1125, *(5 * rng.integers(1, 226, size=40))):
        bits = rng.integers(0, 2, size=int(size)).astype(dtype)
        text = decode_bits(bits)
        assert text == oracles.decode_bits_loop(bits)
        assert np.array_equal(encode_message(text), oracles.encode_message_loop(text))
        assert np.array_equal(encode_message(text), bits.astype(np.uint8))


def test_encode_names_the_first_character_outside_the_alphabet():
    for text in ("lowercase", "A~B", "AB\nC~", "CQTUSTC!?é"):
        with pytest.raises(ParameterError) as new:
            encode_message(text)
        with pytest.raises(ParameterError) as old:
            oracles.encode_message_loop(text)
        assert str(new.value) == str(old.value)
    with pytest.raises(ParameterError, match="'~'"):
        encode_message("A~B")


def test_choose_positions_saturated_q():
    bits = encode_message("A")
    plan = choose_positions(SharedRandomness(seed=5), n_pairs=5, q=1.0, bits=bits)
    assert plan.d_prime == 5
    assert plan.k_prime == 1
    assert np.array_equal(plan.positions, np.arange(5, dtype=np.uint64))
    assert np.array_equal(np.sort(plan.bit_index), np.arange(5))
    assert np.array_equal(plan.message_bits(), bits)


def test_choose_positions_matches_bernoulli_count():
    n_pairs, q, trials = 50_000, 0.02, 400
    mean = n_pairs * q
    sd = (n_pairs * q * (1 - q)) ** 0.5
    draws = [
        choose_positions(
            SharedRandomness(seed=1000 + t), n_pairs, q, encode_message("HI")
        ).d_prime
        for t in range(trials)
    ]
    assert abs(np.mean(draws) - mean) <= 3 * sd / trials**0.5


def test_choose_positions_uniform_over_pairs():
    # every pair index must be included with the same probability q
    n_pairs, q, trials = 50, 0.3, 3000
    counts = np.zeros(n_pairs)
    for t in range(trials):
        plan = choose_positions(
            SharedRandomness(seed=7000 + t), n_pairs, q, encode_message("A")
        )
        counts[plan.positions.astype(np.int64)] += 1
    sd = (trials * q * (1 - q)) ** 0.5
    z = (counts - trials * q) / sd
    # Bonferroni-safe bound over 50 simultaneous z-scores
    assert np.max(np.abs(z)) < 4.5


def test_choose_positions_deterministic_per_seed():
    bits = encode_message("CQTUSTC")
    a = choose_positions(SharedRandomness(seed=99), 10_000, 0.05, bits)
    b = choose_positions(SharedRandomness(seed=99), 10_000, 0.05, bits)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.bit_index, b.bit_index)
    assert np.array_equal(a.bit_value, b.bit_value)
    c = choose_positions(SharedRandomness(seed=100), 10_000, 0.05, bits)
    assert not np.array_equal(a.positions, c.positions)


def test_choose_positions_too_few_draws():
    with pytest.raises(ParameterError):
        choose_positions(SharedRandomness(seed=1), 100, 0.0, encode_message("A"))
    with pytest.raises(ParameterError):
        choose_positions(SharedRandomness(seed=1), 100, 1.5, encode_message("A"))


def draw_equivalence_cases() -> list[tuple[int, int]]:
    """Seeded (n_pairs, count) pairs that reach every branch of the draw."""
    rng = np.random.default_rng(2024)
    cases = []
    # under 300 pairs repeats are certain and the dedupe path runs
    for _ in range(500):
        n_pairs = int(rng.integers(2, 300))
        cases.append((n_pairs, int(rng.integers(1, n_pairs // 2 + 1))))
    # a few repeats in the first batch leave top-ups below 16
    for _ in range(400):
        count = int(rng.integers(20, 200))
        cases.append((int(rng.integers(count**2 // 4, count**2 * 2)), count))
    # either side of the dense-branch boundary
    for _ in range(60):
        n_pairs = int(rng.integers(2, 20_000))
        cases += [(n_pairs, n_pairs // 2), (n_pairs, n_pairs // 2 + 1)]
    # sparse, at the receiver's scale: about two repeats among 2e5 draws
    cases.append((10**10, 200_000))
    return cases


def test_draw_matches_loop_oracle():
    cases = draw_equivalence_cases()
    assert len(cases) >= 1000
    for seed, (n_pairs, count) in enumerate(cases):
        fast, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = _draw_distinct_indices(fast, n_pairs, count)
        expected = oracles.draw_distinct_indices_loop(loop, n_pairs, count)
        assert drawn.dtype == np.uint64
        assert np.array_equal(drawn, expected), (seed, n_pairs, count)
        # the same batches were drawn, so the stream continues identically
        assert fast.integers(2**62) == loop.integers(2**62), (seed, n_pairs, count)


# (count, stream): first batches whose head repeats a value, later
# batches that repeat both each other and the values already picked
FORCED_COLLISIONS = [
    # count < 16: the first batch's values past the head are taken next
    (5, [7, 3, 7, 9, 3, 11, 3, 12, 9, 13, 14, 15, 16, 17, 18, 19]),
    (1, [4] * 16),
    (3, [2, 2, 2, 2, 5, 2, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 8, 2, 8, 8] + [1] * 12),
    # count >= 16: only later batches of max(16, missing) values fill the gaps
    (16, [9] * 16 + [9] * 4 + list(range(20, 32)) + [9, 20, 21] + list(range(40, 53))),
    (20, [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4]
     + [4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5, 0, 2, 8]
     + [10, 0, 10, 11, 5, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22]),
]


@pytest.mark.parametrize("count,stream", FORCED_COLLISIONS)
def test_draw_with_forced_collisions_matches_stream_oracle(count, stream):
    fast, loop = oracles.ScriptedStream(stream), oracles.ScriptedStream(stream)
    drawn = _draw_distinct_indices(fast, 10**9, count)
    assert np.array_equal(drawn, oracles.draw_distinct_indices_loop(loop, 10**9, count))
    assert drawn.size == count
    assert fast.sizes == loop.sizes  # the same batches, no more


@pytest.mark.parametrize("count", [1, 5, 15, 16, 17, 40, 300])
def test_draw_from_a_small_alphabet_matches_stream_oracle(count):
    # values from 3*count symbols: the first batch and most later ones repeat
    values = np.random.default_rng(count).integers(0, 3 * count, size=60 * count + 400)
    fast, loop = oracles.ScriptedStream(values), oracles.ScriptedStream(values)
    drawn = _draw_distinct_indices(fast, 10**9, count)
    assert np.array_equal(drawn, oracles.draw_distinct_indices_loop(loop, 10**9, count))
    assert fast.sizes == loop.sizes


def test_position_plan_structure_from_sampler():
    plan = choose_positions(
        SharedRandomness(seed=31), 200_000, 2e-3, encode_message("OK")
    )
    assert np.all(np.diff(plan.positions.astype(np.int64)) > 0)
    assert plan.k_prime == plan.d_prime // 10
    assigned = 10 * plan.k_prime
    counts = np.bincount(plan.bit_index[:assigned], minlength=10)
    assert np.all(counts == plan.k_prime)
    assert np.all(plan.bit_index[assigned:] == -1)
    assert np.array_equal(plan.message_bits(), encode_message("OK"))


def test_position_plan_validation():
    good = small_plan(encode_message("A"), k_prime=2)
    with pytest.raises(ParameterError):
        PositionPlan(
            n_pairs=good.n_pairs,
            b=good.b,
            positions=good.positions[::-1].copy(),
            bit_value=good.bit_value,
        )
    with pytest.raises(ParameterError):
        PositionPlan(
            n_pairs=5,  # positions run past n_pairs
            b=good.b,
            positions=good.positions,
            bit_value=good.bit_value,
        )
    with pytest.raises(ParameterError):
        PositionPlan(
            n_pairs=good.n_pairs,
            b=good.b,
            positions=good.positions,
            bit_value=np.full(good.d_prime, 2, dtype=np.uint8),
        )
    with pytest.raises(ParameterError):
        PositionPlan(
            n_pairs=good.n_pairs,
            b=good.b,
            positions=good.positions,
            bit_value=good.bit_value[1:],
        )
    with pytest.raises(ParameterError, match="b >= 1"):
        PositionPlan(
            n_pairs=good.n_pairs,
            b=0,
            positions=good.positions,
            bit_value=good.bit_value,
        )


def test_position_plan_rejects_scrambled_blocks():
    # a plan stores only what was drawn, so no other layout can be given
    fields = [f.name for f in dataclasses.fields(PositionPlan)]
    assert fields == ["n_pairs", "b", "positions", "bit_value"]
    with pytest.raises(TypeError, match="bit_index"):
        PositionPlan(n_pairs=10, b=2, positions=[0, 1], bit_index=[1, 0],
                     bit_value=[0, 1])
    # the derived layout: bit j at j*k' .. (j+1)*k' - 1, then dummies
    plan = PositionPlan(n_pairs=10, b=2, positions=np.arange(7),
                        bit_value=[1, 1, 1, 0, 0, 0, 1])
    assert plan.k_prime == 3
    assert plan.bit_index.tolist() == [0, 0, 0, 1, 1, 1, -1]
    assert plan.message_bits().tolist() == [1, 0]
    # fewer positions than bits: no bit is sent, yet message_bits() would
    # read five values
    with pytest.raises(ParameterError, match="at least one position per bit"):
        PositionPlan(n_pairs=10, b=5, positions=[0, 1], bit_value=[1, 0])


def test_majority_decode_clean_votes():
    bits = encode_message("HELLO")
    plan = small_plan(bits, k_prime=3)
    outcomes = np.where(
        plan.bit_value == 1, OUTCOME_ONE, OUTCOME_ZERO
    ).astype(np.uint8)
    text, tallies = majority_decode(plan, outcomes)
    assert text == "HELLO"
    assert all(t.correct for t in tallies)
    assert not any(t.tie for t in tallies)


def test_majority_decode_outvotes_one_bad_click():
    bits = encode_message("A")  # all zeros
    plan = small_plan(bits, k_prime=3)
    outcomes = np.full(plan.d_prime, OUTCOME_ZERO, dtype=np.uint8)
    outcomes[0] = OUTCOME_ONE  # bit 0 votes {1, 0, 0}
    text, tallies = majority_decode(plan, outcomes)
    assert text == "A"
    assert tallies[0].zero_votes == 2 and tallies[0].one_votes == 1


def test_majority_decode_tie_is_flagged_error():
    bits = np.array([1, 1, 1, 1, 1], dtype=np.uint8)
    plan = small_plan(bits, k_prime=2)
    outcomes = np.where(
        plan.bit_value == 1, OUTCOME_ONE, OUTCOME_ZERO
    ).astype(np.uint8)
    outcomes[0] = OUTCOME_ZERO  # bit 0 votes {0, 1}: tie
    text, tallies = majority_decode(plan, outcomes)
    assert tallies[0].tie
    assert tallies[0].decoded == 0
    assert not tallies[0].correct
    assert text[0] != "-"  # leading bit flipped by the tie sentinel


def test_majority_decode_ignores_non_votes():
    bits = encode_message("Z")
    plan = small_plan(bits, k_prime=4)
    outcomes = np.where(
        plan.bit_value == 1, OUTCOME_ONE, OUTCOME_ZERO
    ).astype(np.uint8)
    outcomes[0] = OUTCOME_NONE
    outcomes[1] = OUTCOME_BOTH  # bit 0 still wins 2-0 on remaining votes
    text, tallies = majority_decode(plan, outcomes)
    assert text == "Z"
    assert tallies[0].zero_votes + tallies[0].one_votes == 2


def test_majority_decode_shape_checks():
    plan = small_plan(encode_message("A"), k_prime=2)
    with pytest.raises(ParameterError):
        majority_decode(plan, np.zeros(plan.d_prime + 1, dtype=np.uint8))
    three_bit = PositionPlan(
        n_pairs=3,
        b=3,
        positions=np.arange(3, dtype=np.uint64),
        bit_value=np.zeros(3, dtype=np.uint8),
    )
    with pytest.raises(ParameterError):
        majority_decode(three_bit, np.zeros(3, dtype=np.uint8))
    for bad in (OUTCOME_BOTH + 1, -1):
        outcomes = np.zeros(plan.d_prime, dtype=np.int64)
        outcomes[-1] = bad
        with pytest.raises(ParameterError, match="click code"):
            majority_decode(plan, outcomes)


def test_tally_records_are_immutable_value_tuples():
    bits = encode_message("HI")

    def seeded_run(seed):
        plan = choose_positions(SharedRandomness(seed=seed), 4_000, 0.05, bits)
        outcomes = np.random.default_rng(seed).integers(0, 4, size=plan.d_prime).astype(np.uint8)
        return majority_decode(plan, outcomes)[1]

    tallies = seeded_run(12)
    fields = ("bit_index", "zero_votes", "one_votes", "decoded", "tie", "sent", "correct")
    assert type(tallies) is tuple and len(tallies) == bits.size
    for i, t in enumerate(tallies):
        assert t._fields == fields
        assert [type(v) for v in t] == [int, int, int, int, bool, int, bool]
        bit_index, zero_votes, one_votes, decoded, tie, sent, correct = t
        assert (bit_index, sent) == (i, bits[i])
        assert tie == (zero_votes == one_votes) and decoded == int(one_votes > zero_votes)
        assert correct == (not tie and decoded == sent)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(tallies[0], name, 0)
    tail = tallies[1:]
    assert type(tail) is tuple and [t.bit_index for t in tail] == list(range(1, bits.size))
    # a seeded rerun gives equal, not identical, records
    again = seeded_run(12)
    assert again == tallies and again[0] is not tallies[0]


def test_majority_decode_refuses_partial_characters_before_counting(monkeypatch):
    plan = small_plan(np.zeros(7, dtype=np.uint8), k_prime=3)
    outcomes = np.zeros(plan.d_prime, dtype=np.uint8)

    def no_count(*args):
        raise AssertionError("votes counted for a plan that cannot decode")

    monkeypatch.setattr(covertlink.codec, "vote_counts", no_count)
    with pytest.raises(ParameterError, match=r"b = 7 .*BITS_PER_CHAR = 5"):
        majority_decode(plan, outcomes)


def test_majority_decode_matches_closed_form_error_rate():
    # feed synthetic multinomial votes and compare the per-bit error
    # frequency against the closed-form repetition-code prediction
    p_c, p_w, k, b, trials = 0.25, 0.10, 17, 5, 3000
    cp = ClickProbabilities(p_c, p_w)
    predicted = bit_error_prob(k, cp)
    rng = np.random.default_rng(20260814)
    bits = encode_message("Q")
    plan = small_plan(bits, k_prime=k)
    errors = 0
    for _ in range(trials):
        u = rng.random(plan.d_prime)
        vote_correct = u < p_c
        vote_wrong = (u >= p_c) & (u < p_c + p_w)
        correct_outcome = np.where(plan.bit_value == 1, OUTCOME_ONE, OUTCOME_ZERO)
        wrong_outcome = np.where(plan.bit_value == 1, OUTCOME_ZERO, OUTCOME_ONE)
        outcomes = np.full(plan.d_prime, OUTCOME_NONE, dtype=np.uint8)
        outcomes[vote_correct] = correct_outcome[vote_correct]
        outcomes[vote_wrong] = wrong_outcome[vote_wrong]
        _, tallies = majority_decode(plan, outcomes)
        errors += sum(not t.correct for t in tallies)
    n_bits = trials * b
    se = (predicted * (1 - predicted) / n_bits) ** 0.5
    assert abs(errors / n_bits - predicted) <= 3 * se


def test_shared_randomness_streams_are_decoupled():
    shared = SharedRandomness(seed=4)
    a = shared.generator("positions").random(4)
    b = shared.generator("dummy_bits").random(4)
    assert not np.allclose(a, b)
    with pytest.raises(ParameterError):
        shared.generator("noise")
