"""Simulator: sparse receiver path, adversary monitoring and
distinguishing, and desk-scale rescaling."""

import dataclasses
import math

import numpy as np
import pytest

import covertlink.codec
import covertlink.simulator
from covertlink.codec import (
    OUTCOME_BOTH,
    OUTCOME_NONE,
    OUTCOME_ONE,
    OUTCOME_ZERO,
    SharedRandomness,
    choose_positions,
    encode_message,
    majority_decode,
    vote_counts,
)
from covertlink.exceptions import ParameterError
from covertlink.planner import ProtocolParams
from covertlink.reliability import MAX_REPETITIONS, ChannelModel, click_probs
from covertlink.security import BINS_PER_PAIR, DEFAULT_PAIR_CEILING
from covertlink.simulator import (
    MAX_MONITOR_INTERVALS,
    MAX_MONITOR_PAIRS,
    MonitorTrace,
    TransmissionStats,
    adversary_click_probs,
    compute_stats,
    predicted_vote_error_rate,
    rescale_plan,
    run_distinguisher,
    simulate_monitoring,
    simulate_transmission,
)

import oracles
import reference_scenarios as ref

CQTUSTC = ref.FIBER_BY_NAME["CQTUSTC"]
CQ_CHANNEL = ChannelModel(tau=ref.TAU, n_bar_a=CQTUSTC.n_bar_a, n_bar_b=CQTUSTC.n_bar_b)


def make_params(
    b: int,
    k: int,
    n_pairs: int,
    mu: float,
    channel: ChannelModel,
    rate: float,
) -> ProtocolParams:
    """Structurally valid parameters with honestly derived predictions.

    k = 0 gives the no-signal form: no bias claimed, the message lost.
    """
    if k == 0:
        return dataclasses.replace(
            make_params(b, 1, n_pairs, mu, channel, rate),
            d=0,
            k=0,
            q=0.0,
            predicted_epsilon=0.0,
            predicted_e=1.0,
        )
    return ProtocolParams.derive(
        b=b,
        k=k,
        n_pairs=n_pairs,
        mu=mu,
        channel=channel,
        rep_rate_hz=rate,
        epsilon_target=1.0,
        target_e=1.0,
    )


@pytest.fixture(scope="module")
def stats_setup():
    # q = 1e-3 exactly, so the full repetition count fits in ~7e7 pairs
    p = make_params(35, 1961, 68_635_000, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    plan = choose_positions(
        SharedRandomness(seed=3), p.n_pairs, p.q, encode_message("CQTUSTC")
    )
    return p, plan, simulate_transmission(p, plan, rng_seed=11)


def test_perfect_channel_transmits_cleanly():
    ch = ChannelModel(tau=1.0, n_bar_a=0.0, n_bar_b=0.0)
    p = make_params(5, 15, 750, 6.0, ch, 1e6)
    plan = choose_positions(SharedRandomness(seed=8), 750, p.q, encode_message("Z"))
    tr = simulate_transmission(p, plan, rng_seed=1)
    assert tr.decoded == "Z"
    assert tr.stats.noise_bin_click_rate == 0.0
    assert tr.stats.wrong_votes == 0
    assert all(t.correct for t in tallies_of(tr))


def tallies_of(tr):
    return tr.tallies


def test_transmission_deterministic_per_seed():
    ch = ChannelModel(tau=0.5, n_bar_a=2e-3, n_bar_b=0.1)
    p = make_params(5, 20, 10_000, 0.3, ch, 1e6)
    plan = choose_positions(SharedRandomness(seed=2), 10_000, p.q, encode_message("K"))
    a = simulate_transmission(p, plan, rng_seed=55)
    b = simulate_transmission(p, plan, rng_seed=55)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert a.decoded == b.decoded
    assert a.stats == b.stats
    c = simulate_transmission(p, plan, rng_seed=56)
    assert not np.array_equal(a.outcomes, c.outcomes)


def test_transmission_rejects_mismatched_plan():
    ch = ChannelModel(tau=0.5, n_bar_a=2e-3, n_bar_b=0.1)
    p = make_params(5, 20, 20_000, 0.3, ch, 1e6)
    plan = choose_positions(SharedRandomness(seed=2), 10_000, 0.01, encode_message("K"))
    with pytest.raises(ParameterError):
        simulate_transmission(p, plan, rng_seed=1)


def test_transmission_stats_match_channel_model(stats_setup):
    p, plan, tr = stats_setup
    cp = click_probs(p.mu, p.channel)
    d = plan.d_prime
    s = tr.stats

    se_sig = (cp.p_correct * (1 - cp.p_correct) / d) ** 0.5
    assert abs(s.signal_bin_click_rate - cp.p_correct) <= 3 * se_sig
    se_noise = (cp.p_wrong * (1 - cp.p_wrong) / d) ** 0.5
    assert abs(s.noise_bin_click_rate - cp.p_wrong) <= 3 * se_noise

    # the bins click independently and a pair where both click casts no
    # vote: a pulse votes when exactly one of its two bins clicks
    p_vote = cp.p_correct + cp.p_wrong - 2.0 * cp.p_correct * cp.p_wrong
    se_vote = (p_vote * (1 - p_vote) / d) ** 0.5
    assert abs(s.vote_rate_per_pulse - p_vote) <= 3 * se_vote

    ver = predicted_vote_error_rate(p)
    se_ver = (ver * (1 - ver) / s.total_votes) ** 0.5
    assert abs(s.vote_error_rate - ver) <= 3 * se_ver

    expect_cpb = plan.k_prime * p_vote
    se_cpb = (plan.b * plan.k_prime * p_vote) ** 0.5 / plan.b
    assert abs(s.clicks_per_bit - expect_cpb) <= 3 * se_cpb

    # bit error probability ~2e-4 at this depth: allow at most one flip
    assert s.message_bit_error_rate <= 1 / plan.b
    assert tr.decoded == "CQTUSTC"


def test_vote_error_rate_prediction_on_a_loud_channel():
    # QPQI's channel at its plan's pulse: a pair where both bins click
    # casts no vote, so the wrong-vote share is p_w (1 - p_c) over
    # p_c (1 - p_w) + p_w (1 - p_c), 0.269 here, where p_w / (p_c + p_w)
    # would say 0.304; about 1.2e5 votes put the two 28 standard errors apart
    channel = ChannelModel(tau=0.18, n_bar_a=0.60, n_bar_b=0.68)
    p = make_params(20, 20_000, 400_000_000, 0.956, channel, 5e8)
    plan = choose_positions(SharedRandomness(seed=4), p.n_pairs, p.q, encode_message("QPQI"))
    s = simulate_transmission(p, plan, rng_seed=5).stats
    predicted = predicted_vote_error_rate(p)
    assert predicted == pytest.approx(0.269, abs=5e-4)
    se = math.sqrt(predicted * (1.0 - predicted) / s.total_votes)
    assert abs(s.vote_error_rate - predicted) <= 3.0 * se


def test_stats_recomputable_from_outcomes(stats_setup):
    _, plan, tr = stats_setup
    _, tallies = majority_decode(plan, tr.outcomes)
    assert compute_stats(plan, tr.outcomes, tallies) == tr.stats
    with pytest.raises(ParameterError):
        compute_stats(plan, tr.outcomes, tallies[1:])


def test_partial_character_plan_refused_before_any_draw(monkeypatch):
    # every layer before the decoder accepts b = 7; the transmission must
    # refuse it before drawing a click, not decode 7 bits after the draw
    p = make_params(7, 40, 28_000, 0.956, ChannelModel(tau=0.18, n_bar_a=0.60, n_bar_b=0.68), 5e8)
    plan = choose_positions(SharedRandomness(seed=2), p.n_pairs, p.q, np.ones(7, dtype=np.uint8))
    assert plan.b == 7

    def no_draw(*args):
        raise AssertionError("clicks drawn for a plan that cannot decode")

    monkeypatch.setattr(covertlink.simulator, "_rng", no_draw)
    with pytest.raises(ParameterError, match=r"b = 7 .*BITS_PER_CHAR = 5"):
        simulate_transmission(p, plan, rng_seed=1)


def test_votes_tallied_once_per_transmission(stats_setup, monkeypatch):
    p, plan, tr = stats_setup
    calls = []

    def counted(*args):
        calls.append(args)
        return vote_counts(*args)

    # every name a caller could look the tally up by
    for module in (covertlink.codec, covertlink.simulator):
        monkeypatch.setattr(module, "vote_counts", counted, raising=False)
    again = simulate_transmission(p, plan, rng_seed=11)
    assert len(calls) == 1
    assert again.decoded == tr.decoded and again.stats == tr.stats


def reference_tally(plan, outcomes):
    """Per-bit (zeros, ones, decoded, tie, sent, correct), one mask per bit."""
    rows = []
    for i in range(plan.b):
        sel = plan.bit_index == i
        zeros = int(np.sum(outcomes[sel] == OUTCOME_ZERO))
        ones = int(np.sum(outcomes[sel] == OUTCOME_ONE))
        tie = zeros == ones
        decoded = 0 if tie else int(ones > zeros)
        sent = int(plan.bit_value[sel][0])
        rows.append((zeros, ones, decoded, tie, sent, (not tie) and decoded == sent))
    return rows


def test_one_tally_feeds_decoding_and_stats():
    plan = choose_positions(
        SharedRandomness(seed=31), 200_000, 2e-3, encode_message("OK")
    )
    dummies = plan.bit_index < 0
    assert np.any(dummies)
    rng = np.random.default_rng(5)
    outcomes = rng.integers(0, 4, size=plan.d_prime).astype(np.uint8)
    # bit 0 gets no votes at all, bit 1 a tie between votes
    first = np.flatnonzero(plan.bit_index == 0)
    second = np.flatnonzero(plan.bit_index == 1)
    outcomes[first] = np.where(np.arange(first.size) % 2, OUTCOME_NONE, OUTCOME_BOTH)
    outcomes[second] = np.where(np.arange(second.size) % 2, OUTCOME_ZERO, OUTCOME_ONE)
    message = outcomes[~dummies]
    for kind in (OUTCOME_NONE, OUTCOME_ZERO, OUTCOME_ONE, OUTCOME_BOTH):
        assert np.any(message == kind)

    expected = reference_tally(plan, outcomes)
    votes = sum(row[0] + row[1] for row in expected)
    errors = sum(not row[5] for row in expected)
    assert expected[0][3] and expected[1][3]
    for dummy_outcome in (None, OUTCOME_ZERO, OUTCOME_ONE, OUTCOME_BOTH):
        clicked = outcomes.copy()
        if dummy_outcome is not None:
            clicked[dummies] = dummy_outcome
        zero_votes, one_votes = vote_counts(plan, clicked)
        assert zero_votes.tolist() == [row[0] for row in expected]
        assert one_votes.tolist() == [row[1] for row in expected]
        _, tallies = majority_decode(plan, clicked)
        got = [
            (t.zero_votes, t.one_votes, t.decoded, t.tie, t.sent, t.correct)
            for t in tallies
        ]
        assert got == expected
        assert [t.bit_index for t in tallies] == list(range(plan.b))
        assert all(type(t.tie) is bool and type(t.correct) is bool for t in tallies)
        stats = compute_stats(plan, clicked, tallies)
        assert stats == reference_stats(plan, clicked)
        assert stats.clicks_per_bit == votes / plan.b
        assert stats.message_bit_error_rate == errors / plan.b


def reference_stats(plan, outcomes):
    """Every TransmissionStats field from per-position masks."""
    sent_one = plan.bit_value == 1
    in_zero = (outcomes == OUTCOME_ZERO) | (outcomes == OUTCOME_BOTH)
    in_one = (outcomes == OUTCOME_ONE) | (outcomes == OUTCOME_BOTH)
    vote = (outcomes == OUTCOME_ZERO) | (outcomes == OUTCOME_ONE)
    wrong = vote & np.where(sent_one, outcomes == OUTCOME_ZERO, outcomes == OUTCOME_ONE)
    rows = reference_tally(plan, outcomes)
    total, n_wrong = int(np.sum(vote)), int(np.sum(wrong))
    return TransmissionStats(
        signal_bin_click_rate=float(np.mean(np.where(sent_one, in_one, in_zero))),
        noise_bin_click_rate=float(np.mean(np.where(sent_one, in_zero, in_one))),
        vote_rate_per_pulse=float(np.mean(vote)),
        vote_error_rate=n_wrong / total,
        total_votes=total,
        wrong_votes=n_wrong,
        clicks_per_bit=sum(row[0] + row[1] for row in rows) / plan.b,
        message_bit_error_rate=sum(not row[5] for row in rows) / plan.b,
    )


@pytest.fixture(scope="module")
def three_block_transmission():
    """A transmission of 2*65,536 + 7 positions: two whole blocks and seven rows."""
    d_prime = 2 * covertlink.codec._LINES_PER_BLOCK + 7
    p = make_params(5, d_prime // 5, 10**9, 0.4, CQ_CHANNEL, 1e9)
    positions = 3 * np.arange(d_prime, dtype=np.uint64)
    bit_value = np.random.default_rng(12).integers(0, 2, d_prime, dtype=np.uint8)
    plan = covertlink.codec.PositionPlan(
        n_pairs=p.n_pairs, b=p.b, positions=positions, bit_value=bit_value
    )
    assert plan.d_prime == d_prime
    return p, plan, simulate_transmission(p, plan, rng_seed=21)


def test_blocked_draws_equal_whole_array_draws(three_block_transmission):
    p, plan, tr = three_block_transmission
    cp = click_probs(p.mu, p.channel)
    rng = covertlink.simulator._rng(21, covertlink.simulator._DOMAIN_TRANSMIT)
    click_signal = rng.random(plan.d_prime) < cp.p_correct
    click_noise = rng.random(plan.d_prime) < cp.p_wrong
    sent = plan.bit_value
    expected = click_signal.astype(np.uint8) << sent | click_noise.astype(np.uint8) << (1 - sent)
    assert tr.outcomes.dtype == np.uint8
    assert np.array_equal(tr.outcomes, expected)
    codes = {OUTCOME_NONE, OUTCOME_ZERO, OUTCOME_ONE, OUTCOME_BOTH}
    assert set(np.unique(tr.outcomes).tolist()) == codes


def test_blocked_stats_equal_one_call_table(three_block_transmission):
    _, plan, tr = three_block_transmission
    table = np.bincount(4 * plan.bit_value + tr.outcomes, minlength=8).reshape(2, 4)
    right = int(table[0, OUTCOME_ZERO] + table[1, OUTCOME_ONE])
    wrong = int(table[0, OUTCOME_ONE] + table[1, OUTCOME_ZERO])
    both = int(table[:, OUTCOME_BOTH].sum())
    s = tr.stats
    assert (s.total_votes, s.wrong_votes) == (right + wrong, wrong)
    assert s.signal_bin_click_rate == (right + both) / plan.d_prime
    assert s.noise_bin_click_rate == (wrong + both) / plan.d_prime
    assert s.vote_rate_per_pulse == (right + wrong) / plan.d_prime
    assert s.vote_error_rate == wrong / (right + wrong)
    assert s == reference_stats(plan, tr.outcomes)


def test_adversary_click_probs_closed_form():
    ch = ChannelModel(tau=0.18, n_bar_a=0.05, n_bar_b=0.1)
    p = make_params(5, 10, 10_000, 0.3, ch, 1e6)
    p_idle, p_signal = adversary_click_probs(p)
    assert p_idle == pytest.approx(0.05 / 1.05, rel=1e-14)
    excess = -math.expm1(-0.3) / 1.05
    assert p_signal - p_idle == pytest.approx(excess, rel=1e-12)
    dark = adversary_click_probs(dataclasses.replace(p, mu=0.0))
    assert dark[0] == dark[1]


def test_monitoring_aggregate_matches_dense_bins():
    ch = ChannelModel(tau=0.5, n_bar_a=0.05, n_bar_b=0.1)
    p = make_params(5, 40, 20_000, 0.3, ch, 4e4)
    p_idle, p_signal = adversary_click_probs(p)
    pairs, n_int = 5000, 1500
    # interval of 0.25 s is binary-exact, so the interval count is too
    trace = simulate_monitoring(p, True, 375.0, 0.25, rng_seed=777)
    assert trace.pairs_per_interval == pairs
    assert trace.counts.size == n_int

    rng = np.random.default_rng(424242)
    dense = np.empty(n_int)
    for i in range(n_int):
        m = rng.binomial(pairs, p.q)
        dense[i] = np.sum(rng.random(m) < p_signal) + np.sum(
            rng.random(BINS_PER_PAIR * pairs - m) < p_idle
        )

    mean_true = pairs * p.q * p_signal + (BINS_PER_PAIR * pairs - pairs * p.q) * p_idle
    sd = dense.std(ddof=1)
    assert abs(trace.counts.mean() - mean_true) <= 4 * sd / n_int**0.5
    assert abs(dense.mean() - mean_true) <= 4 * sd / n_int**0.5
    ratio = trace.counts.var(ddof=1) / dense.var(ddof=1)
    assert 0.8 <= ratio <= 1.25


def test_monitoring_off_equals_null_plan_per_seed():
    p_live = make_params(35, 1961, 68_635_000, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    p_null = make_params(35, 0, 68_635_000, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    off = simulate_monitoring(p_live, False, 0.012, 1e-3, rng_seed=31)
    null = simulate_monitoring(p_null, True, 0.012, 1e-3, rng_seed=31)
    assert np.array_equal(off.counts, null.counts)
    assert not off.communicating and null.communicating


def test_monitoring_validation():
    p = make_params(35, 1961, 68_635_000, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    with pytest.raises(ParameterError):
        simulate_monitoring(p, True, 0.005, 1e-3, rng_seed=1)  # 5 intervals
    with pytest.raises(ParameterError):
        simulate_monitoring(p, True, 1.0, 0.0, rng_seed=1)
    slow = make_params(35, 1961, 68_635_000, CQTUSTC.mu, CQ_CHANNEL, 100.0)
    with pytest.raises(ParameterError):
        simulate_monitoring(slow, True, 0.1, 1e-3, rng_seed=1)  # < 1 pair
    with pytest.raises(ParameterError):
        MonitorTrace(1.0, np.array([3, -1]), True, 10)


def test_monitoring_rejects_too_many_intervals():
    p = make_params(35, 1961, 68_635_000, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    cases = [
        (2 * MAX_MONITOR_INTERVALS * 1e-6, 1e-6),  # twice the cap
        (1.0, 1e-300),  # 1e300 intervals
        (1e10, 5e-324),  # a ratio that overflows to inf
    ]
    for duration, interval in cases:
        with pytest.raises(ParameterError, match="intervals; at most 100000"):
            simulate_monitoring(p, True, duration, interval, rng_seed=1)


def test_monitoring_refuses_pairs_past_the_int64_draws():
    # at 2 Hz an interval of t s holds t pairs: 2^62 pairs make 2^63 time
    # bins, one past the int64 binomial draws, and are refused before any
    # draw; the largest double below 2^62 still runs
    assert MAX_MONITOR_PAIRS == 2**62 - 1
    p = make_params(35, 1961, 68_635_000, CQTUSTC.mu, CQ_CHANNEL, 2.0)
    for interval in (2.0**62, 1e29, 1e300):
        with pytest.raises(ParameterError, match=f"time-bin pairs; at most {2**62 - 1}"):
            simulate_monitoring(p, True, 10.0 * interval, interval, rng_seed=1)
    largest = math.nextafter(2.0**62, 0.0)
    trace = simulate_monitoring(p, True, 10.0 * largest, largest, rng_seed=1)
    assert trace.pairs_per_interval == 2**62 - 512
    assert np.all(trace.counts <= BINS_PER_PAIR * trace.pairs_per_interval)


def test_monitoring_honest_shift_is_buried_in_noise():
    # per-interval mean shift against per-interval standard deviation
    desk = make_params(35, 143, 56_875_000_000, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    p_idle, p_signal = adversary_click_probs(desk)
    pairs = int(round(desk.rep_rate_hz * 1e-4 / BINS_PER_PAIR))
    shift = pairs * desk.q * (p_signal - p_idle)
    sd = (BINS_PER_PAIR * pairs * p_idle * (1 - p_idle)) ** 0.5
    assert shift / sd < 1e-3

    bright = dataclasses.replace(desk, mu=1000 * desk.mu)
    _, p_signal_bright = adversary_click_probs(bright)
    shift_bright = pairs * bright.q * (p_signal_bright - p_idle)
    assert shift_bright > 20 * shift


def test_distinguisher_null_plan_is_a_coin_flip():
    p_null = make_params(35, 0, 1_000_000_000, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    r = run_distinguisher(p_null, trials=400, rng_seed=12)
    # q = 0 makes every log likelihood ratio 0: the test never declares
    # a signal, so it misses every signalling trial
    assert r.empirical_pe == 0.5
    assert r.empirical_bias <= 3 * r.std_error + 1e-12
    assert r.security_check()


def test_distinguisher_null_plan_is_a_coin_flip_at_scale():
    p_null = make_params(35, 0, 1_000_000_000, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    r = run_distinguisher(p_null, trials=100_000, rng_seed=13)
    assert r.empirical_pe == 0.5


def _count_rng_calls(monkeypatch) -> list:
    calls = []
    make = covertlink.simulator._rng

    def counted(seed, domain):
        calls.append(domain)
        return make(seed, domain)

    monkeypatch.setattr(covertlink.simulator, "_rng", counted)
    return calls


def test_distinguisher_draws_from_one_generator(monkeypatch):
    # the work gate: one derived stream per run, not one per trial
    calls = _count_rng_calls(monkeypatch)
    p = make_params(35, 143, 56_875_000_000, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    run_distinguisher(p, 10_000, rng_seed=21)
    assert len(calls) == 1


def test_monitoring_draws_from_one_generator(monkeypatch):
    # the work gate: one derived stream per trace, not one per interval
    calls = _count_rng_calls(monkeypatch)
    p = make_params(35, 1961, 68_635_000, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    trace = simulate_monitoring(p, True, 0.02, 1e-3, rng_seed=31)
    assert trace.counts.size == 20
    assert len(calls) == 1


def test_distinguisher_scores_one_test_on_all_trials():
    p = make_params(5, 200, 10_000_000, 0.005, CQ_CHANNEL, 5e8)
    r = run_distinguisher(p, trials=1000, rng_seed=22)
    assert [f.name for f in dataclasses.fields(r)] == [
        "empirical_pe",
        "empirical_bias",
        "std_error",
        "trials",
        "bound_epsilon",
    ]
    assert r.empirical_bias == 0.5 - r.empirical_pe
    # scored on all 1000 trials, 500 per class: the false alarms and
    # misses add up to 2 * 500 * empirical_pe, and std_error is that of
    # two rates over 500 trials each
    n = 500
    errors = round(2 * n * r.empirical_pe)
    assert 2 * n * r.empirical_pe == pytest.approx(errors, abs=1e-9)
    assert any(
        r.std_error
        == pytest.approx(0.5 * math.sqrt(fa / n * (1 - fa / n) / n + md / n * (1 - md / n) / n))
        for fa, md in ((fa, errors - fa) for fa in range(errors + 1))
    )


def test_distinguisher_matches_the_exact_likelihood_ratio_error():
    # a plan small enough to enumerate every click tally: b = 5, k = 4,
    # N = 200 (q = 0.1), mu = 0.5, n_bar_a = 0.05; the exact balanced
    # error of the test is 0.20774
    p = make_params(5, 4, 200, 0.5, ChannelModel(tau=0.18, n_bar_a=0.05, n_bar_b=0.05), 5e8)
    exact = oracles.lrt_balanced_error(p)
    assert exact == pytest.approx(0.20774, abs=5e-6)
    r = run_distinguisher(p, trials=100_000, rng_seed=1)
    assert abs(r.empirical_pe - exact) <= 4 * r.std_error


def test_distinguisher_honest_desk_plan_within_bound():
    desk = make_params(35, 143, 56_875_000_000, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    r = run_distinguisher(desk, trials=1000, rng_seed=21)
    assert r.bound_epsilon == desk.predicted_epsilon
    assert r.security_check()


def test_distinguisher_flags_bright_pulses():
    honest = make_params(5, 200, 10_000_000, 0.005, CQ_CHANNEL, 5e8)
    bright = dataclasses.replace(honest, mu=1.0)  # claims kept, pulse 200x
    r = run_distinguisher(bright, trials=1000, rng_seed=22)
    assert r.empirical_bias > r.bound_epsilon + 3 * r.std_error
    assert not r.security_check()


def test_distinguisher_deterministic_and_validated():
    p = make_params(5, 200, 10_000_000, 0.005, CQ_CHANNEL, 5e8)
    a = run_distinguisher(p, trials=200, rng_seed=9)
    b = run_distinguisher(p, trials=200, rng_seed=9)
    assert a == b
    with pytest.raises(ParameterError):
        run_distinguisher(p, trials=99, rng_seed=9)


def test_rescale_preserves_q_and_mu():
    full = make_params(35, 1961, 780_000_000_000, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    desk = rescale_plan(full, 13.7)
    assert desk.k == 143
    assert desk.d == desk.k * desk.b
    assert desk.mu == full.mu
    assert desk.q == pytest.approx(full.q, rel=1e-9)
    assert desk.n_pairs < full.n_pairs / 13.0
    assert desk.running_time_s == BINS_PER_PAIR * desk.n_pairs / desk.rep_rate_hz


def test_rescale_recomputes_predictions():
    full = make_params(35, 1961, 780_000_000_000, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    desk = rescale_plan(full, 13.7)
    # k = round(1961 / 13.7) and N = round(d / q): the desk plan is the
    # one derived at those integers, claims included
    n_desk = round(143 * 35 / full.q)
    assert desk == make_params(35, 143, n_desk, full.mu, CQ_CHANNEL, 5e8)
    # the desk bound is far below the full-scale one: fewer pairs, same q
    assert desk.predicted_epsilon < 0.5 * full.predicted_epsilon


def test_rescale_can_grow_and_validates():
    full = make_params(35, 1961, 780_000_000_000, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    grown = rescale_plan(rescale_plan(full, 13.7), 0.5)
    assert grown.k == 286
    with pytest.raises(ParameterError):
        rescale_plan(full, 0.0)
    with pytest.raises(ParameterError):
        rescale_plan(full, math.nan)
    p_null = make_params(35, 0, 1_000_000, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    with pytest.raises(ParameterError):
        rescale_plan(p_null, 2.0)


def test_rescale_may_not_grow_past_the_planner_limits():
    full = make_params(35, 1961, 780_000_000_000, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    # k = 1.96e8 repetitions: d = 6.9e9 positions to draw
    with pytest.raises(ParameterError, match="k = 1.96e\\+08, .* MAX_REPETITIONS = 1e\\+07"):
        rescale_plan(full, 1e-5)
    assert rescale_plan(full, 1961 / MAX_REPETITIONS).k == MAX_REPETITIONS
    # few repetitions over many pairs: N passes its ceiling first
    sparse = make_params(5, 2, 10**15, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    with pytest.raises(ParameterError, match="N = 1e\\+17, .* DEFAULT_PAIR_CEILING = 1e\\+16"):
        rescale_plan(sparse, 0.01)
    assert rescale_plan(sparse, 0.1).n_pairs == DEFAULT_PAIR_CEILING


def test_rescale_floors_at_one_repetition():
    full = make_params(35, 1961, 780_000_000_000, CQTUSTC.mu, CQ_CHANNEL, 5e8)
    tiny = rescale_plan(full, 1e9)
    assert tiny.k == 1
    assert tiny.d == 35
