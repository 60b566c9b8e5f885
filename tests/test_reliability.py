"""Click probabilities, majority-vote error rate, and the repetition
search, cross-checked against enumeration and Monte-Carlo oracles."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import covertlink._special as _special
import covertlink.reliability as reliability
from covertlink._special import _binom_pmf, _log_binom_pmf
from covertlink.exceptions import InfeasibleError, ParameterError
from covertlink.reliability import (
    MAX_REPETITIONS,
    MIN_TARGET_ERROR,
    ChannelModel,
    ClickProbabilities,
    bit_error_prob,
    click_probs,
    message_error_prob,
    _bit_errors,
    _estimate_repetitions,
    min_repetitions,
)

import oracles
import reference_scenarios as ref
from make_plan_golden import bundled_configs, request_for

CQTUSTC = ref.FIBER_BY_NAME["CQTUSTC"]


def model_clicks(point) -> ClickProbabilities:
    ch = ChannelModel(tau=ref.TAU, n_bar_a=point.n_bar_a, n_bar_b=point.n_bar_b)
    return click_probs(point.mu, ch)


def test_click_split_is_derived_from_the_two_bins():
    # the split cannot be handed in apart from p_correct and p_wrong
    assert [f.name for f in dataclasses.fields(ClickProbabilities)] == ["p_correct", "p_wrong"]
    with pytest.raises(TypeError):
        ClickProbabilities(0.5, 0.1, 0.9)


def test_click_probs_dark_silent_channel():
    cp = click_probs(0.0, ChannelModel(tau=0.5, n_bar_a=0.0, n_bar_b=0.0))
    assert cp.p_correct == 0.0
    assert cp.p_wrong == 0.0


def test_click_probs_pure_loss_limit():
    cp = click_probs(0.3, ChannelModel(tau=1.0, n_bar_a=0.0, n_bar_b=0.0))
    assert cp.p_correct == pytest.approx(-math.expm1(-0.3), rel=1e-15)
    assert cp.p_wrong == 0.0


def test_click_probs_frozen_reference_values():
    for p in ref.FIBER:
        cp = model_clicks(p)
        p_c, p_w = ref.CLICK_PROBS_MODEL[p.name]
        assert cp.p_correct == pytest.approx(p_c, rel=1e-13)
        assert cp.p_wrong == pytest.approx(p_w, rel=1e-13)


def test_click_probs_vs_photon_thinning_mc():
    p = CQTUSTC
    cp = model_clicks(p)
    est, se = oracles.click_probability_mc(
        p.mu, p.n_bar_b, ref.TAU, samples=10**6, seed=20260814
    )
    assert abs(cp.p_correct - est) <= 3.0 * se


@given(
    st.floats(min_value=1e-4, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_click_probs_ordering(mu, tau, n_bar_b):
    cp = click_probs(mu, ChannelModel(tau=tau, n_bar_a=0.0, n_bar_b=n_bar_b))
    assert 0.0 <= cp.p_wrong <= cp.p_correct <= 1.0


def test_bit_error_single_pulse_reduction():
    for p in ref.FIBER:
        cp = model_clicks(p)
        assert bit_error_prob(1, cp) == pytest.approx(
            1.0 - cp.p_correct, rel=1e-14
        )


def test_bit_error_perfect_channel():
    cp = ClickProbabilities(1.0, 0.0)
    for k in (1, 2, 5, 17):
        assert bit_error_prob(k, cp) == 0.0


def test_bit_error_frozen_reference_values():
    for p in ref.FIBER:
        delta = bit_error_prob(p.repetitions, model_clicks(p))
        assert delta == pytest.approx(ref.BIT_ERROR_MODEL[p.name], rel=1e-10)


def test_bit_error_matches_enumeration_small_k():
    rng = np.random.default_rng(7)
    for _ in range(30):
        k = int(rng.integers(1, 13))
        p_c = float(rng.uniform(0.0, 0.6))
        p_w = float(rng.uniform(0.0, min(0.4, 0.99 - p_c)))
        expected = oracles.majority_error_enumeration(k, p_c, p_w)
        assert bit_error_prob(k, ClickProbabilities(p_c, p_w)) == pytest.approx(
            expected, abs=1e-12
        )


def test_bit_error_matches_bruteforce_tiny_k():
    for k, p_c, p_w in [(1, 0.3, 0.1), (4, 0.2, 0.15), (7, 0.5, 0.3)]:
        expected = oracles.majority_error_bruteforce(k, p_c, p_w)
        assert bit_error_prob(k, ClickProbabilities(p_c, p_w)) == pytest.approx(
            expected, abs=1e-12
        )


@pytest.mark.parametrize(
    "p_c, p_w",
    [(0.3, 0.0), (1.0, 0.0), (0.0, 0.3), (0.0, 1.0), (0.0, 0.0), (0.6, 0.4), (0.15, 0.85)],
)
def test_bit_error_closed_forms_match_enumeration(p_c, p_w):
    # no wrong clicks: (1 - p_c)^k; no correct ones: 1; no silent slots
    # (p_c + p_w = 1): P(Bin(k, p_c) <= floor(k / 2)). The wrong-vote split
    # needs all three kinds of slot, so these take the binomial cdf
    for k in range(1, 13):
        got = bit_error_prob(k, ClickProbabilities(p_c, p_w))
        expected = oracles.majority_error_enumeration(k, p_c, p_w)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-300), k
        if k <= 7:
            expected = oracles.majority_error_bruteforce(k, p_c, p_w)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-300), k


@pytest.mark.parametrize("k, p_c, p_w", [(200, 1e-8, 0.99), (300, 1e-4, 0.95), (5000, 0.01, 0.3)])
def test_bit_error_with_wrong_clicks_likelier_sums_past_the_chernoff_cut(k, p_c, p_w):
    # z^k lies below 2^-1075 here, yet it bounds nothing where wrong clicks
    # are the likelier: nearly every bit decodes wrongly (k = 5000 is past
    # the enumeration's reach; the double sum over the click count is not)
    cp = ClickProbabilities(p_c, p_w)
    z = 1.0 - p_c - p_w + 2.0 * math.sqrt(p_c * p_w)
    assert k * math.log(z) < reliability._LOG_ROUNDS_TO_ZERO
    got = bit_error_prob(k, cp)
    if k <= 300:
        expected = oracles.majority_error_enumeration(k, p_c, p_w)
    else:
        expected = oracles.majority_error_double_sum(k, cp)
    assert got > 0.99
    assert got == pytest.approx(expected, rel=1e-12)


def test_bit_error_monotone_in_repetitions_on_reference_grids():
    for p_c, p_w in [(8.42e-3, 1.04e-3), (9.26e-2, 2.23e-2)]:
        cp = ClickProbabilities(p_c, p_w)
        vals = [bit_error_prob(k, cp) for k in range(1, 41)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_bit_error_monotone_in_click_probs():
    k = 9
    base = bit_error_prob(k, ClickProbabilities(0.02, 0.005))
    assert bit_error_prob(k, ClickProbabilities(0.03, 0.005)) <= base
    assert bit_error_prob(k, ClickProbabilities(0.02, 0.008)) >= base


def test_bit_error_bounds_and_rejects():
    cp = ClickProbabilities(0.01, 0.002)
    for k in (1, 2, 33, 1000):
        assert 0.0 <= bit_error_prob(k, cp) <= 1.0
    with pytest.raises(ParameterError):
        bit_error_prob(0, cp)


def test_bit_error_vs_block_mc():
    cp = ClickProbabilities(8.42e-3, 1.04e-3)
    closed = bit_error_prob(17, cp)
    est, se = oracles.repetition_block_mc(
        17, 8.42e-3, 1.04e-3, blocks=3 * 10**5, seed=42
    )
    assert abs(closed - est) <= 3.0 * se


def test_message_error_trivial_cases():
    assert message_error_prob(0.0, 35) == 0.0
    assert message_error_prob(1.0, 35) == 1.0
    assert message_error_prob(0.37, 1) == pytest.approx(0.37, rel=1e-15)


def test_message_error_frozen_oracle():
    # 50-digit value of 1 - (1 - 1e-4)^35
    assert message_error_prob(1e-4, 35) == pytest.approx(
        ref.MESSAGE_ERROR_DELTA_1E4_B35, abs=1e-9
    )


@given(
    st.floats(min_value=1e-6, max_value=0.5),
    st.integers(min_value=1, max_value=64),
)
def test_message_error_product_form(delta, b):
    product = 1.0
    for _ in range(b):
        product *= 1.0 - delta
    assert message_error_prob(delta, b) == pytest.approx(
        1.0 - product, abs=1e-12
    )


def test_min_repetitions_perfect_channel():
    assert min_repetitions(0.01, 35, ClickProbabilities(1.0, 0.0)) == 1


def test_min_repetitions_monotone_in_target():
    cp = model_clicks(CQTUSTC)
    assert min_repetitions(1e-3, 35, cp) >= min_repetitions(1e-2, 35, cp)


def test_min_repetitions_reference_vicinity():
    k = min_repetitions(ref.TARGET_ERROR, CQTUSTC.bits, model_clicks(CQTUSTC))
    assert abs(k - CQTUSTC.repetitions) / CQTUSTC.repetitions <= 0.30


def _message_error(j: int, b: int, cp: ClickProbabilities) -> float:
    return message_error_prob(bit_error_prob(j, cp), b)


def _assert_threshold(k: int, target: float, b: int, cp: ClickProbabilities):
    # k passes and both k - 1 and k - 2 fail, which the parity sawtooth needs
    assert _message_error(k, b, cp) <= target
    for j in (k - 1, k - 2):
        if j >= 1:
            assert _message_error(j, b, cp) > target, (k, j)


def test_min_repetitions_is_minimal():
    # includes near-saturated and saturated pairs where the error sawtooths
    # with parity (the last two close their bracket at a passing k whose
    # even k - 1 fails but k - 2 passes), the CQTUSTC plan's clicks and a
    # loud channel needing hundreds of k
    cases = [
        (0.01, 5, ClickProbabilities(0.30, 0.05)),
        (0.05, 3, ClickProbabilities(0.70, 0.25)),
        (0.02, 8, ClickProbabilities(0.08, 0.02)),
        (0.10, 1, ClickProbabilities(0.55, 0.40)),
        (0.01, 35, ClickProbabilities(0.006884429230653025, 0.0005720725456748557)),
        (0.01, 20, ClickProbabilities(0.15070547933464734, 0.1090520313613685)),
        (0.00177, 2, ClickProbabilities(0.85, 0.15)),
        (9.3e-6, 214, ClickProbabilities(0.72, 0.28)),
    ]
    for target, b, cp in cases:
        k = min_repetitions(target, b, cp)
        assert _message_error(k, b, cp) <= target
        scan = next(j for j in range(1, k + 1) if _message_error(j, b, cp) <= target)
        assert k == scan


_SEARCH_CHANNELS = [
    (0.01, 5, 0.30, 0.05),
    (0.05, 3, 0.70, 0.25),
    (0.02, 8, 0.08, 0.02),
    (0.10, 1, 0.55, 0.40),
    (0.01, 35, 0.006884429230653025, 0.0005720725456748557),
    (0.01, 20, 0.15070547933464734, 0.1090520313613685),
]


@pytest.mark.parametrize("target, b, p_c, p_w", _SEARCH_CHANNELS)
def test_min_repetitions_warm_start_matches_cold(target, b, p_c, p_w):
    # no search state carries over between calls: the answer after
    # searches on the other channels (warm) equals the first call and the
    # linear scan up from k = 1 (cold)
    cp = ClickProbabilities(p_c, p_w)
    first = min_repetitions(target, b, cp)
    for other in _SEARCH_CHANNELS:
        min_repetitions(other[0], other[1], ClickProbabilities(other[2], other[3]))
    warm = min_repetitions(target, b, cp)
    assert type(warm) is int and warm == first
    cold = next(j for j in range(1, warm + 1) if _message_error(j, b, cp) <= target)
    assert warm == cold


def _search_outcome(search, target: float, b: int, cp: ClickProbabilities):
    """The k of a search, or the text of its InfeasibleError."""
    try:
        k = search(target, b, cp)
    except InfeasibleError as exc:
        return str(exc)
    assert type(k) is int
    return k


def _assert_same_as_all_exact(target: float, b: int, cp: ClickProbabilities):
    # the same k, or the same InfeasibleError text
    assert _search_outcome(min_repetitions, target, b, cp) == _search_outcome(
        oracles.min_repetitions_all_exact, target, b, cp
    )


def test_min_repetitions_along_mu_grid():
    # a brighter pulse never needs more repetitions, and each answer is
    # the threshold of its own search
    channel = ChannelModel(tau=ref.TAU, n_bar_a=CQTUSTC.n_bar_a, n_bar_b=CQTUSTC.n_bar_b)
    previous = None
    for mu in np.geomspace(5e-3, 1.0, 60):
        cp = click_probs(float(mu), channel)
        k = min_repetitions(ref.TARGET_ERROR, CQTUSTC.bits, cp)
        assert previous is None or k <= previous
        _assert_threshold(k, ref.TARGET_ERROR, CQTUSTC.bits, cp)
        _assert_same_as_all_exact(ref.TARGET_ERROR, CQTUSTC.bits, cp)
        previous = k


def test_min_repetitions_random_channels_across_decades():
    rng = np.random.default_rng(20261018)
    feasible = 0
    for _ in range(150):
        p_w = 10 ** rng.uniform(-6, math.log10(0.3))
        p_c = min(p_w * (1 + 10 ** rng.uniform(-3, 2)), 1.0 - p_w)
        target = 10 ** rng.uniform(-6, math.log10(0.5))
        b = int(10 ** rng.uniform(0, math.log10(1125)))
        cp = ClickProbabilities(p_c, p_w)
        _assert_same_as_all_exact(target, b, cp)
        try:
            k = min_repetitions(target, b, cp)
        except InfeasibleError as exc:
            if "no repetition count" in str(exc):
                assert _message_error(MAX_REPETITIONS, b, cp) > target
            continue
        _assert_threshold(k, target, b, cp)
        feasible += 1
    assert feasible >= 75


def test_min_repetitions_matches_all_exact_on_a_thousand_channels():
    # the one-loop search against the kept Illinois search, on answers
    # small enough for the oracle's double sum (k below 3000)
    rng = np.random.default_rng(20261019)
    compared = 0
    while compared < 1000:
        p_w = 10 ** rng.uniform(-4, math.log10(0.3))
        p_c = min(p_w * 10 ** rng.uniform(math.log10(1.1), 2), 1.0 - p_w)
        target = 10 ** rng.uniform(-12, math.log10(0.8))
        b = int(rng.choice([1, 5, 35]))
        cp = ClickProbabilities(p_c, p_w)
        if _estimate_repetitions(target, b, cp) > 2000:
            continue
        outcome = _search_outcome(min_repetitions, target, b, cp)
        assert outcome == _search_outcome(oracles.min_repetitions_all_exact, target, b, cp)
        assert isinstance(outcome, str) or outcome < 3000
        compared += 1


@pytest.mark.parametrize("target, b", [(0.9, 1), (0.01, 35)])
@pytest.mark.parametrize("p_c", [math.nextafter(0.3, 1.0), 0.3])
def test_min_repetitions_matches_all_exact_where_the_click_split_ties(target, b, p_c):
    # p_c / (p_c + p_w) rounds to 0.5 just above the tie, and is 0.5 at it;
    # both searches decide convergence by p_correct > p_wrong alone
    _assert_same_as_all_exact(target, b, ClickProbabilities(p_c, 0.3))


QPQI_CHANNEL = ChannelModel(tau=0.18, n_bar_a=0.60, n_bar_b=0.68)


def test_error_bounds_bracket_enumeration_small_k():
    # the window sum lies within 1e-12 relative of the enumeration, where
    # every kind of slot occurs
    rng = np.random.default_rng(11)
    for _ in range(60):
        k = int(rng.integers(1, 13))
        p_c = float(rng.uniform(1e-3, 0.6))
        p_w = float(rng.uniform(1e-4, min(0.4, 0.99 - p_c)))
        expected = oracles.majority_error_enumeration(k, p_c, p_w)
        got = bit_error_prob(k, ClickProbabilities(p_c, p_w))
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0), (k, p_c, p_w)


@pytest.mark.parametrize(
    "k, p_c, p_w",
    [
        (50, 0.3, 0.1),
        (200, 0.2, 0.15),
        (300, 0.5, 0.3),
        (400, 0.05, 0.01),
        (600, 0.15070547933464734, 0.1090520313613685),
        (900, 0.02, 0.001),
        (1000, 0.006884429230653025, 0.0005720725456748557),
        (300, 0.05, 0.2),  # more wrong clicks than correct ones
    ],
)
def test_error_bounds_bracket_lgamma_moderate_k(k, p_c, p_w):
    # the window sum within 1e-12 relative of the log-space enumeration
    expected = oracles.majority_error_lgamma(k, p_c, p_w)
    got = bit_error_prob(k, ClickProbabilities(p_c, p_w))
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_error_bounds_bracket_exact_sum_in_deep_tail():
    # the error lives far above the typical wrong-vote count (a window of
    # +-16 sd around k p_wrong would give 1.8e-202 here), so the window is
    # placed by the tail bounds; the double sum over the click count,
    # summed the other way round, agrees
    cp = click_probs(0.3, QPQI_CHANNEL)
    got = bit_error_prob(10**5, cp)
    assert 3.8e-184 < got < 4.0e-184
    assert got == pytest.approx(oracles.majority_error_double_sum(10**5, cp), rel=1e-11, abs=0.0)


@pytest.mark.parametrize(
    "k, p_c, p_w",
    [
        (4000, 0.1, 0.001),  # a window around k p alone gave 8.02e-150
        (3500, 0.1, 0.001),  # that window started inside the error's peak
        (2000, 0.2, 0.0005),
        (6000, 0.05, 0.0002),
    ],
)
def test_bit_error_prob_reaches_deep_errors_below_k_p(k, p_c, p_w):
    # far in the tail the error lives near i = 2 w* clicks, more than 16
    # standard deviations of Binomial(k, p) below k p, where the double
    # sum's window must reach
    cp = ClickProbabilities(p_c, p_w)
    got = bit_error_prob(k, cp)
    expected = oracles.majority_error_highprec(k, p_c, p_w, 150)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
    # the float oracle rounds its lgamma terms to about 2e-12 at this depth
    expected = oracles.majority_error_lgamma(k, p_c, p_w)
    assert got == pytest.approx(expected, rel=1e-11, abs=0.0)
    assert got == pytest.approx(oracles.majority_error_double_sum(k, cp), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", [2 * 10**4, 10**5, 10**6, 10**7])
def test_error_bounds_bracket_exact_sum_on_loud_channel(k):
    # the window sum within 1e-10 relative of the double sum over the
    # click count, or 0.0 with it below the smallest double
    for mu in (0.0031897702154663216, 0.05, 0.956):
        cp = click_probs(mu, QPQI_CHANNEL)
        got = bit_error_prob(k, cp)
        expected = oracles.majority_error_double_sum(k, cp)
        assert got == pytest.approx(expected, rel=1e-10, abs=0.0), (k, mu)


def _binom_pmf_run(x: np.ndarray, n: float, p: float, shrink: bool) -> np.ndarray:
    # P(Bin(n_i, p) = x_i) along consecutive x_i, n_i = n or n - i with
    # shrink, as the window sums lay one run out alone: one block of a
    # short run, blocks of _ANCHOR_EVERY terms of a longer one, each from
    # the library's pmf at its first term
    m = x.size
    width = m if m <= reliability._ANCHOR_EVERY else reliability._ANCHOR_EVERY
    blocks = -(-m // width)
    w = (x[0] + np.arange(blocks * width, dtype=float)).reshape(blocks, width)
    k = n + 1.0 + x[0] if shrink else n
    firsts, shifts = reliability._scaled_exp(
        _log_binom_pmf(w[:, 0], k - 1.0 - w[:, 0] if shrink else k, p)
    )
    return reliability._pmf_rows(w, k, p, shrink, firsts, shifts).ravel()[:m]


def _boost_run(x: np.ndarray, n: float, p: float, shrink: bool) -> np.ndarray:
    # boost's pmf at every term, 0 past n, that _binom_pmf_run stands for
    n_i = n - np.arange(x.size) if shrink else np.full(x.size, n)
    return np.where(x <= n_i, oracles.boost_binom_pmf(x, n_i, p), 0.0)


def _own_run(x: np.ndarray, n: float, p: float, shrink: bool) -> np.ndarray:
    # the library's own pmf at every term, 0 past n
    n_i = n - np.arange(x.size) if shrink else np.full(x.size, n)
    return _binom_pmf(x, n_i, p)


def _random_run(rng) -> tuple[np.ndarray, float, float, bool]:
    # a run of 257-3000 terms starting within 10 sd of the mode, n up to 1e7
    m = int(rng.integers(257, 3000))
    n = float(int(10 ** rng.uniform(2, 7)) + m)
    p = float(10 ** rng.uniform(-4, -0.05))
    shrink = bool(rng.integers(2))
    mode = n * p / (1.0 + p) if shrink else n * p
    x0 = max(0, int(mode + rng.uniform(-10, 10) * math.sqrt(n * p + 1.0)))
    if not shrink:
        x0 = min(x0, int(n) - m + 1)
    return np.arange(x0, x0 + m, dtype=float), n, p, shrink


def _assert_steps_by_exact_ratios(rng, x, n, p, shrink, got, block):
    # a few terms against their block's first by 40-digit ratios: at most
    # block - 1 rounded ratio products from it
    for j in rng.integers(0, x.size, 6).tolist():
        a = j - j % block
        if min(got[a], got[j]) < 1e-290:
            continue
        n_j, n_a = (n - j, n - a) if shrink else (n, n)
        exact = oracles.binom_pmf_highprec(int(x[j]), int(n_j), p) / oracles.binom_pmf_highprec(
            int(x[a]), int(n_a), p
        )
        assert got[j] / got[a] == pytest.approx(float(exact), rel=3e-13, abs=0.0), (n, p, j)


@pytest.mark.parametrize("shrink", [False, True])
@pytest.mark.parametrize("m", [1, 2, 57, reliability._ANCHOR_EVERY])
def test_binom_pmf_run_short_runs_are_boost(m, shrink):
    # a run of at most _ANCHOR_EVERY terms is one block: its first term is
    # the library's pmf, and the rest step by exact ratios from it, within
    # boost's own noise of boost's pmf at every term
    rng = np.random.default_rng(m)
    for _ in range(20):
        n = float(int(10 ** rng.uniform(0, 7)) + m)
        p = float(10 ** rng.uniform(-6, -0.01))
        # a fixed-n run stays within x <= n; a shrinking one may leave it
        x0 = int(rng.uniform(0.0, 1.2) * n * p)
        x = np.arange(m) + float(x0 if shrink else min(x0, n - m + 1))
        got = _binom_pmf_run(x, n, p, shrink)
        own, boost = _own_run(x, n, p, shrink), _boost_run(x, n, p, shrink)
        if own[0] >= 1e-290:
            assert got[0] == own[0], (n, p, x[0])
        shown = boost >= 1e-290
        assert np.all(np.abs(got[shown] - boost[shown]) <= 1e-10 * boost[shown]), (n, p, x[0])
        assert np.all(got[x > n - np.arange(m) * shrink] == 0.0)
        _assert_steps_by_exact_ratios(rng, x, n, p, shrink, got, m)


@pytest.mark.parametrize("seed", [1, 2])
def test_binom_pmf_run_long_runs_step_by_exact_ratios(seed):
    rng = np.random.default_rng(seed)
    step = reliability._ANCHOR_EVERY
    for _ in range(40):
        x, n, p, shrink = _random_run(rng)
        got = _binom_pmf_run(x, n, p, shrink)
        own, boost = _own_run(x, n, p, shrink), _boost_run(x, n, p, shrink)
        # every _ANCHOR_EVERY-th term is the library pmf's own
        normal = own[::step] >= 1e-290
        assert np.array_equal(got[::step][normal], own[::step][normal])
        # the terms between are within boost's own noise of boost (boost
        # itself lies up to ~3e-11 from 40-digit values at n ~ 1e7)
        shown = boost >= 1e-290
        assert np.all(np.abs(got[shown] - boost[shown]) <= 1e-10 * boost[shown])
        # and 255 rounded ratio products at most from their anchor
        _assert_steps_by_exact_ratios(rng, x, n, p, shrink, got, step)


def test_binom_pmf_run_shrinking_past_n_stays_zero():
    # x climbs while n_i = n - i falls: from x_i > n_i on the pmf is 0,
    # across the anchors too, and the 0/0 where n_i reaches 0 is masked
    # (pytest turns any RuntimeWarning into an error)
    for n, p, x0 in [(300.0, 0.3, 0.0), (1000.0, 0.6, 200.0), (4000.0, 0.5, 2400.0)]:
        x = np.arange(x0, x0 + 4 * reliability._ANCHOR_EVERY + 3)
        got = _binom_pmf_run(x, n, p, shrink=True)
        past = x > n - np.arange(x.size)
        assert past.any() and not np.isnan(got).any()
        assert np.all(got[past] == 0.0)
        boost = _boost_run(x, n, p, shrink=True)
        assert np.all(np.abs(got - boost) <= 1e-10 * boost)


@pytest.mark.parametrize("shrink", [False, True])
def test_binom_pmf_run_climbs_out_of_underflow(shrink):
    # the pmf at x = 3000 of Bin(1e4, 1/2) is below the smallest double,
    # yet 255 terms on it reaches 6e-273: that block runs scaled up by a
    # power of two, and its normal terms keep every digit; its subnormal
    # ones are within one subnormal step of boost's
    x = np.arange(3000.0, 3000.0 + 3 * reliability._ANCHOR_EVERY)
    got = _binom_pmf_run(x, 1e4, 0.5, shrink)
    boost = _boost_run(x, 1e4, 0.5, shrink)
    assert boost[0] == 0.0 and boost[reliability._ANCHOR_EVERY - 1] > 1e-290
    step = np.finfo(float).smallest_subnormal
    assert np.all(np.abs(got - boost) <= 1e-10 * boost + step)
    assert got[0] == 0.0 and np.array_equal(got > 0.0, boost > 0.0)


def _random_probes(rng, count: int, log_exponents: tuple[float, float]) -> list:
    # k up to 1e7 on channels whose Chernoff exponent k I lies in 10**log_exponents
    probes = []
    while len(probes) < count:
        k = int(10 ** rng.uniform(0, 7))
        p_w = float(10 ** rng.uniform(-6, math.log10(0.3)))
        rate = 10 ** rng.uniform(*log_exponents) / k
        p_c = (math.sqrt(p_w) + math.sqrt(-math.expm1(-rate))) ** 2
        if p_c + p_w <= 1.0:
            probes.append((k, ClickProbabilities(p_c, p_w)))
    return probes


def test_error_bounds_estimate_matches_per_element_boost():
    # 200 channels, k up to 1e7, each with a Chernoff exponent k I between
    # 0.3 and 650, so that the window is summed: the sum on anchored runs
    # against the same sum with every pmf term, and F(a), from boost
    cases = _random_probes(np.random.default_rng(21), 200, (-0.5, math.log10(650.0)))
    anchored = [bit_error_prob(k, cp) for k, cp in cases]
    for (k, cp), got in zip(cases, anchored):
        expected = oracles.boost_bit_error(k, cp, every_term=True)
        assert got == pytest.approx(expected, rel=2e-12, abs=0.0), (k, cp)
    # and within 1e-10 relative of the double sum over the click count
    for (k, cp), got in zip(cases[::4], anchored[::4]):
        expected = oracles.majority_error_double_sum(k, cp)
        assert got == pytest.approx(expected, rel=1e-10, abs=0.0), (k, cp)


def _probe_mix(rng) -> list:
    # 2400 probes: 2200 channels with summed windows of every length, and
    # 200 closed forms (no wrong clicks, or no silent slots)
    probes = _random_probes(rng, 2000, (-0.5, math.log10(650.0)))
    probes += _random_probes(rng, 200, (math.log10(700.0), 5.0))
    for k in rng.integers(1, 10**6, size=100).tolist():
        probes += [(k, ClickProbabilities(0.3, 0.0)), (k, ClickProbabilities(0.6, 0.4))]
    rng.shuffle(probes)
    return probes


@settings(max_examples=300)
@given(
    k=st.one_of(st.integers(1, 100), st.integers(1, 10**7)),
    p_w=st.floats(1e-12, 1.0 - 1e-9),
    share=st.one_of(st.floats(1e-6, 0.999), st.floats(0.999, 1.0 - 1e-12)),
)
@example(k=1, p_w=0.01, share=0.5)
@example(k=2, p_w=1e-12, share=0.5)
@example(k=262, p_w=0.125, share=0.99609375)
@example(k=10**7, p_w=0.9, share=0.5)
@example(k=10**7, p_w=1e-5, share=0.3)
def test_windows_contain_the_bisection_on_random_channels(k, p_w, share):
    # k from 1 to 1e7, p_correct = share (1 - p_wrong) either side of
    # p_wrong, pi = share up to 1 - 1e-12: the window placed in closed
    # form, from the inputs _bit_errors hands it, contains the narrowest
    # one, which the two bisections kept in oracles place, and the
    # Chernoff bounds of what it leaves out at either end are exp(-nats)
    # or less
    p_c = share * (1.0 - p_w)
    pi = p_c / (1.0 - p_w)
    root, z = reliability._chernoff_base(p_c, p_w)
    log_chernoff = k * math.log(z) if p_c >= p_w else 0.0
    assume(pi < 1.0 and log_chernoff >= reliability._LOG_ROUNDS_TO_ZERO)
    nats = reliability._TAIL_NATS + 0.5 * math.log(k) - log_chernoff
    w_star = k * root / z
    a, top = reliability._wrong_vote_window(float(k), p_w, pi, w_star, nats)
    low, high = oracles.wrong_vote_window(k, p_w, pi, w_star, nats)
    assert 0 <= a <= low and high <= top <= k
    assert min(oracles.window_tail_rates(k, p_w, pi, int(a), int(top))) >= nats


# the loud channel of the schema-extremes plan (tau = 1, n_bar = 0.5), at
# grid values of mu where pi = p_correct / (1 - p_wrong) nears 1: quadratic
# bounds alone placed these windows so far out that the F step's pmf run
# overflowed
LOUD_CHANNEL = ChannelModel(tau=1.0, n_bar_a=0.5, n_bar_b=0.5)


@pytest.mark.parametrize("mu", [0.6302295274956023, 0.6449466771037621, 0.6754200285605587])
def test_windows_near_pi_one_sum_within_1e_10_of_the_double_sum(mu):
    cp = click_probs(mu, LOUD_CHANNEL)
    for k in (1420, 1795, 2269, 4581, 5790):
        expected = oracles.majority_error_double_sum(k, cp)
        assert bit_error_prob(k, cp) == pytest.approx(expected, rel=1e-10, abs=0.0), k


def _window_passes(monkeypatch) -> list:
    # a list that collects [windows, anchored] of every _window_sums pass,
    # anchored where the pass's windows run in blocks of _ANCHOR_EVERY terms
    passes = []
    window_sums = reliability._window_sums

    def counted(windows, sizes, *args):
        passes.append([len(sizes), max(sizes) > reliability._ANCHOR_EVERY])
        return window_sums(windows, sizes, *args)

    monkeypatch.setattr(reliability, "_window_sums", counted)
    return passes


# windows of exactly 257 terms, whose F-step run fills one block of
# _ANCHOR_EVERY terms, and short windows whose top reaches k, whose unused
# last F step has n = -1
EDGE_PROBES = [
    (k, ClickProbabilities(p_c, p_w))
    for k, p_c, p_w in [(8331, 0.05, 0.01), (5272, 0.1, 0.05), (1313, 0.3, 0.05), (1240, 0.5, 0.2)]
] + [(k, ClickProbabilities(0.3, 0.05)) for k in range(1, 11)]


def test_batched_bounds_equal_the_scalar_reference_on_random_channels(
    monkeypatch, placed_windows
):
    # 2400 probes and the edge probes in batches of 1 to 128: windows of at
    # most _ANCHOR_EVERY terms (one block each), longer ones (anchored
    # blocks), probes with no wrong clicks or no silent slots (closed forms,
    # None in oracles) and Chernoff bounds below 1e-300 side by side. Each
    # window sum is the estimate of the one-probe evaluator kept in
    # oracles, and every value is the one its probe gets alone
    rng = np.random.default_rng(23)
    probes = _probe_mix(rng) + EDGE_PROBES
    passes = _window_passes(monkeypatch)
    kinds = []
    batches = []
    start = 0
    while start < len(probes):
        batch = probes[start : start + int(rng.integers(1, 129))]
        start += len(batch)
        first = len(passes)
        got = _bit_errors(batch)
        batches.append((batch, got))
        scalar = [oracles.error_bounds_one_probe(k, cp) for k, cp in batch]
        assert [value for value, e in zip(got, scalar) if e and e[1] > 0.0] == [
            e[1] for e in scalar if e and e[1] > 0.0
        ]
        # below 1e-300 the Chernoff bound z^k stays an upper bound
        assert all(value <= e[2] for value, e in zip(got, scalar) if e and e[1] == 0.0)
        windows = [0, 0]
        for count, anchored in passes[first:]:
            windows[anchored] += count
        kinds.append(
            (*windows, scalar.count(None), sum(1 for e in scalar if e and e[1] == 0.0))
        )
    monkeypatch.undo()
    for batch, got in batches:
        assert got == [bit_error_prob(k, cp) for k, cp in batch]
    # some batch mixed all four kinds
    assert any(min(kind) > 0 for kind in kinds)
    # the edge probes placed the windows they stand for, and were summed
    assert all(oracles.error_bounds_one_probe(k, cp)[1] > 0.0 for k, cp in EDGE_PROBES)
    edges = placed_windows[-len(EDGE_PROBES) :]
    assert [k for k, *_ in edges] == [k for k, _ in EDGE_PROBES]
    assert [top - a + 1 for *_, a, top in edges[:4]] == [257] * 4
    assert all(top == k for k, *_, top in edges[4:])


@pytest.mark.parametrize("budget", [1, 10_000, _special._TERM_BUDGET, 2**22])
def test_long_windows_in_mixed_batches_equal_their_values_alone(monkeypatch, budget):
    # QPQI's channel at k from 1e6 to 1e7 (windows of 4k to 12k terms)
    # beside 400 shorter ones: each probe gets the double it gets alone,
    # whether an anchored pass takes each long window alone (budget 1),
    # a few at a time (10,000 and the default 8,192 padded terms), or all
    # at once (2^22)
    cp = click_probs(0.0031897702154663216, QPQI_CHANNEL)
    loud = [(k, cp) for k in (2_500_000, 4_000_003, 9_045_475, 10_000_000)]
    loud += [(k, click_probs(0.05, QPQI_CHANNEL)) for k in (1_000_000, 1_200_001)]
    short = _random_probes(np.random.default_rng(31), 400, (-0.5, 1.0))
    batch = loud[:3] + short[:200] + loud[3:] + short[200:]
    alone = [bit_error_prob(k, cp) for k, cp in batch]
    window_passes = _window_passes(monkeypatch)
    monkeypatch.setattr(_special, "_TERM_BUDGET", budget)
    assert _bit_errors(batch) == alone
    passes = [count for count, anchored in window_passes if anchored]
    assert sum(passes) > len(loud)
    if budget == 1:
        assert max(passes) == 1
    elif budget == 2**22:
        assert len(passes) == 1
    else:
        assert len(passes) > 1 and max(passes) > 1


def test_bit_error_prob_sums_nothing_below_the_smallest_double(monkeypatch):
    # QPQI's channel at its planned mu: z^k = 5e-126860 at k = 1e7
    cp = click_probs(0.956, QPQI_CHANNEL)
    calls = []
    pmf = reliability._log_binom_pmf

    def counted(*args):
        calls.append(args)
        return pmf(*args)

    monkeypatch.setattr(reliability, "_log_binom_pmf", counted)
    assert bit_error_prob(10**7, cp) == 0.0
    assert calls == []


def test_bit_error_prob_cut_changes_no_value(monkeypatch):
    # k up to 40 past the first k with z^k < 2^-1075, from where the error
    # is still a double: the same values as the full sum, which rounds to
    # 0.0 past the cut
    cases = [
        click_probs(0.956, QPQI_CHANNEL),
        ClickProbabilities(0.3, 0.01),
        ClickProbabilities(0.02, 0.0001),
    ]
    for cp in cases:
        z = 1.0 - cp.p_correct - cp.p_wrong + 2.0 * math.sqrt(cp.p_correct * cp.p_wrong)
        cut = math.ceil(reliability._LOG_ROUNDS_TO_ZERO / math.log(z))
        ks = np.unique(np.geomspace(0.9 * cut, cut + 40, 120).astype(int)).tolist()
        cut_values = [bit_error_prob(k, cp) for k in ks]
        with monkeypatch.context() as m:
            m.setattr(reliability, "_LOG_ROUNDS_TO_ZERO", -math.inf)
            assert cut_values == [bit_error_prob(k, cp) for k in ks]
        assert cut_values[0] > 0.0 and cut_values[-1] == 0.0


@pytest.mark.parametrize("shift", [0.0, -1e-11])
def test_min_repetitions_verdict_is_the_bit_error_at_the_target(shift):
    # a target equal to the message error at an odd k0 near 1e5: k0 passes
    # by the very value bit_error_prob gives there, and fails 1e-11 below it
    cp = click_probs(0.05, QPQI_CHANNEL)
    b = 20
    k0 = 100_001
    target = message_error_prob(bit_error_prob(k0, cp), b) * (1.0 + shift)
    k = min_repetitions(target, b, cp)
    assert (k == k0) == (shift == 0.0)
    _assert_threshold(k, target, b, cp)


def test_loud_channel_searches_at_dim_grid_values():
    # QPQI's plan (b = 20, target 0.01) at a dim grid value: the answer is
    # near 9e6; dimmer still, k = 1e7 fails
    cp = click_probs(0.0031897702154663216, QPQI_CHANNEL)
    assert _search_outcome(min_repetitions, 0.01, 20, cp) == 9045475
    cp = click_probs(0.002976351441631319, QPQI_CHANNEL)
    assert _search_outcome(min_repetitions, 0.01, 20, cp).startswith("no repetition count up to")


def test_min_repetitions_infeasible_majority():
    with pytest.raises(InfeasibleError):
        min_repetitions(0.01, 35, ClickProbabilities(0.01, 0.01))
    with pytest.raises(InfeasibleError):
        min_repetitions(0.01, 35, ClickProbabilities(0.005, 0.01))


def test_min_repetitions_converges_one_ulp_past_the_tie():
    # p_correct / (p_correct + p_wrong) rounds to exactly 0.5 here, yet the
    # signal bin clicks more often and one repetition already errs 0.7 <= 0.9
    cp = ClickProbabilities(math.nextafter(0.3, 1.0), 0.3)
    assert cp.p_correct / (cp.p_correct + cp.p_wrong) == 0.5
    assert min_repetitions(0.9, 1, cp) == 1
    with pytest.raises(InfeasibleError, match="majority vote cannot converge"):
        min_repetitions(0.9, 1, ClickProbabilities(0.3, 0.3))


def test_min_repetitions_refuses_targets_below_the_floor():
    # the search compares log message errors clamped at MIN_TARGET_ERROR,
    # so a smaller target would read every probe as failing
    cp = ClickProbabilities(0.3, 0.01)
    for target in (1e-305, MIN_TARGET_ERROR / 2, 5e-324):
        with pytest.raises(ParameterError, match="below MIN_TARGET_ERROR = 1e-300"):
            min_repetitions(target, 35, cp)
    # the floor itself is resolved, and needs more repetitions than above it
    k_floor = min_repetitions(MIN_TARGET_ERROR, 35, cp)
    assert k_floor >= min_repetitions(1e-290, 35, cp)
    assert message_error_prob(bit_error_prob(k_floor, cp), 35) <= MIN_TARGET_ERROR
    assert message_error_prob(bit_error_prob(k_floor - 1, cp), 35) > MIN_TARGET_ERROR


def _recorded_probes(monkeypatch) -> list:
    """The k of every probe the repetition searches hand _bit_errors, in order."""
    probes = []

    def recorded(batch):
        probes.extend(k for k, _ in batch)
        return _bit_errors(batch)

    monkeypatch.setattr(reliability, "_bit_errors", recorded)
    return probes


def test_min_repetitions_at_the_floor_bisects_the_bracket(monkeypatch):
    # at target = MIN_TARGET_ERROR every passing probe clamps to f = 0,
    # which gives the Newton step no slope; the search bisects there
    probes = _recorded_probes(monkeypatch)
    # the all-exact search walks this bracket down one k at a time, in
    # about 600 probes, to the same answer
    cp = ClickProbabilities(0.3, 0.01)
    k = min_repetitions(MIN_TARGET_ERROR, 35, cp)
    assert k == oracles.min_repetitions_all_exact(MIN_TARGET_ERROR, 35, cp) == 3087
    assert 0 < len(probes) <= 40
    # a bracket of about 2000, where the all-exact search's Illinois walk
    # halves f_lo to 0 and ends in a ZeroDivisionError
    probes.clear()
    cp = ClickProbabilities(0.1, 0.02)
    k = min_repetitions(MIN_TARGET_ERROR, 35, cp)
    assert 0 < len(probes) <= 40
    _assert_threshold(k, MIN_TARGET_ERROR, 35, cp)


@pytest.mark.parametrize("target", [0.999, 0.9999, 0.9999999])
@pytest.mark.parametrize("mu", [1e-3, 1e-2, 0.0348])
def test_min_repetitions_at_a_saturating_target_takes_few_probes(monkeypatch, target, mu):
    # near a message error of 1 the log message error falls in k slower
    # than the bit error's Chernoff exponent, by b delta (1 - delta)^(b - 1)
    # / error; Newton steps along the exponent alone closed the bracket one
    # k a probe (3,987 probes at target 0.9999 and mu = 1e-3, k = 27,270).
    # The answer is the first passing k of a scan of every k up to it
    probes = _recorded_probes(monkeypatch)
    b, cp = 35, click_probs(mu, ChannelModel(tau=0.18, n_bar_a=2.3e-3, n_bar_b=3.18e-3))
    k = min_repetitions(target, b, cp)
    assert 0 < len(probes) <= 40
    errors = []
    for start in range(1, k + 1, 1000):
        errors += _bit_errors([(j, cp) for j in range(start, min(start + 1000, k + 1))])
    assert k == next(j for j, e in enumerate(errors, 1) if message_error_prob(e, b) <= target)


@pytest.mark.parametrize(
    "target, b, p_c, p_w",
    [
        # no wrong clicks: the bit error is (1 - p_c)^k, with no sqrt(k)
        # factor, and it must fall to 0.66 before 15 bits meet the target
        (0.9999999, 15, 8.039361346376017e-08, 0.0),
        # p_c within 2e-4 of p_w: the bit error stays near 1/2 and falls
        # as a normal tail in sqrt(k), far slower than the Chernoff slope
        (0.999, 10, 0.0013899563142064839, 0.0013897051343361422),
    ],
)
def test_min_repetitions_off_the_chernoff_regime_takes_few_probes(
    monkeypatch, target, b, p_c, p_w
):
    # found by the schema sweep: steps along the Chernoff exponent's slope
    # advanced these searches by a few percent of k a probe, past 1,000
    # probes for the near tie
    probes = _recorded_probes(monkeypatch)
    cp = ClickProbabilities(p_c, p_w)
    k = min_repetitions(target, b, cp)
    assert 0 < len(probes) <= 40
    _assert_threshold(k, target, b, cp)


def test_min_repetitions_rejects_more_than_one_click_per_slot():
    # a channel, not a parameter, the planner can meet on a grid: a
    # reliability reason for that grid point, and no probe
    with pytest.raises(InfeasibleError, match="exceeds 1"):
        min_repetitions(0.01, 5, ClickProbabilities(0.7, 0.4))


def test_min_repetitions_infeasible_cap():
    # vanishing correct-wrong margin drives the needed k past the cap
    with pytest.raises(InfeasibleError):
        min_repetitions(0.01, 35, ClickProbabilities(1.0e-4, 9.9e-5))


def test_min_repetitions_borderline_cap_is_checked_exactly():
    # the normal guess lies between half the cap and the 4x pre-check, so
    # the search itself must reach the cap and find it failing
    cp = ClickProbabilities(0.1004, 0.1)
    guess = _estimate_repetitions(0.01, 35, cp)
    assert MAX_REPETITIONS // 2 <= guess < 4 * MAX_REPETITIONS
    with pytest.raises(InfeasibleError, match="no repetition count up to"):
        min_repetitions(0.01, 35, cp)
    # a guess in the same range whose answer fits under the cap
    cp = ClickProbabilities(0.1006, 0.1)
    assert MAX_REPETITIONS // 2 <= _estimate_repetitions(0.01, 35, cp)
    _assert_threshold(min_repetitions(0.01, 35, cp), 0.01, 35, cp)


def test_channel_model_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        ChannelModel(tau=1.5, n_bar_a=0.0, n_bar_b=0.0)
    with pytest.raises(ParameterError):
        ChannelModel(tau=0.5, n_bar_a=-0.1, n_bar_b=0.0)
    # non-finite noise means are refused by name, not left to fail later
    # in click_probs or the divergence
    for name, value in (("n_bar_a", math.nan), ("n_bar_b", math.inf), ("n_bar_b", math.nan)):
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            ChannelModel(**{"tau": 0.18, "n_bar_a": 2e-3, "n_bar_b": 3e-3, name: value})
    with pytest.raises(ParameterError, match="tau"):
        ChannelModel(tau=math.nan, n_bar_a=0.0, n_bar_b=0.0)


PLAN_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "plan_golden.json").read_text("utf-8")
)


def test_closed_form_error_is_conservative_for_the_simulators_votes():
    # bit_error_prob takes a repetition's clicks as exclusive, p_c or p_w.
    # The simulator's two bins click independently and a pair where both
    # click casts no vote, so its votes come with p_c (1 - p_w) and
    # p_w (1 - p_c). At every bundled config's plan (six distinct ones)
    # the exact message error under those stays below the planner's
    # claim: 0.0099 against 0.0100 on the low-noise plans, 0.0031 on the
    # QPQI ones.
    for path in bundled_configs():
        record = PLAN_GOLDEN[path.name]
        req = request_for(path)
        cp = click_probs(record["mu"], req.channel)
        votes = ClickProbabilities(
            cp.p_correct * (1.0 - cp.p_wrong), cp.p_wrong * (1.0 - cp.p_correct)
        )
        simulated = message_error_prob(bit_error_prob(record["k"], votes), req.b)
        assert simulated < record["predicted_e"] <= req.target_e, path.name
