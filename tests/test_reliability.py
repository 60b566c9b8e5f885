"""Click probabilities, majority-vote error rate, and the repetition
search, cross-checked against enumeration and Monte-Carlo oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import covertlink.reliability as reliability
from covertlink.exceptions import InfeasibleError, ParameterError
from covertlink.reliability import (
    MAX_REPETITIONS,
    ChannelModel,
    ClickProbabilities,
    bit_error_prob,
    click_probs,
    message_error_prob,
    _binom_pmf_run,
    _error_bounds,
    _estimate_repetitions,
    min_repetitions,
)

import oracles
import reference_scenarios as ref

CQTUSTC = ref.FIBER_BY_NAME["CQTUSTC"]


def model_clicks(point) -> ClickProbabilities:
    ch = ChannelModel(tau=ref.TAU, n_bar_a=point.n_bar_a, n_bar_b=point.n_bar_b)
    return click_probs(point.mu, ch)


def make_cp(p_c: float, p_w: float) -> ClickProbabilities:
    total = p_c + p_w
    p_g = p_c / total if total > 0.0 else math.nan
    return ClickProbabilities(p_c, p_w, p_g)


def test_click_probs_dark_silent_channel():
    cp = click_probs(0.0, ChannelModel(tau=0.5, n_bar_a=0.0, n_bar_b=0.0))
    assert cp.p_correct == 0.0
    assert cp.p_wrong == 0.0
    assert math.isnan(cp.p_good_given_click)


def test_click_probs_pure_loss_limit():
    cp = click_probs(0.3, ChannelModel(tau=1.0, n_bar_a=0.0, n_bar_b=0.0))
    assert cp.p_correct == pytest.approx(-math.expm1(-0.3), rel=1e-15)
    assert cp.p_wrong == 0.0
    assert cp.p_good_given_click == 1.0


def test_click_probs_frozen_reference_values():
    for p in ref.FIBER:
        cp = model_clicks(p)
        p_c, p_w = ref.CLICK_PROBS_MODEL[p.name]
        assert cp.p_correct == pytest.approx(p_c, rel=1e-13)
        assert cp.p_wrong == pytest.approx(p_w, rel=1e-13)
        assert cp.p_good_given_click == pytest.approx(
            p_c / (p_c + p_w), rel=1e-13
        )


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
    cp = make_cp(1.0, 0.0)
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
        assert bit_error_prob(k, make_cp(p_c, p_w)) == pytest.approx(
            expected, abs=1e-12
        )


def test_bit_error_matches_bruteforce_tiny_k():
    for k, p_c, p_w in [(1, 0.3, 0.1), (4, 0.2, 0.15), (7, 0.5, 0.3)]:
        expected = oracles.majority_error_bruteforce(k, p_c, p_w)
        assert bit_error_prob(k, make_cp(p_c, p_w)) == pytest.approx(
            expected, abs=1e-12
        )


def test_bit_error_monotone_in_repetitions_on_reference_grids():
    for p_c, p_w in [(8.42e-3, 1.04e-3), (9.26e-2, 2.23e-2)]:
        cp = make_cp(p_c, p_w)
        vals = [bit_error_prob(k, cp) for k in range(1, 41)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_bit_error_monotone_in_click_probs():
    k = 9
    base = bit_error_prob(k, make_cp(0.02, 0.005))
    assert bit_error_prob(k, make_cp(0.03, 0.005)) <= base
    assert bit_error_prob(k, make_cp(0.02, 0.008)) >= base


def test_bit_error_bounds_and_rejects():
    cp = make_cp(0.01, 0.002)
    for k in (1, 2, 33, 1000):
        assert 0.0 <= bit_error_prob(k, cp) <= 1.0
    with pytest.raises(ParameterError):
        bit_error_prob(0, cp)


def test_bit_error_vs_block_mc():
    cp = make_cp(8.42e-3, 1.04e-3)
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
    assert min_repetitions(0.01, 35, make_cp(1.0, 0.0)) == 1


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
        (0.01, 5, make_cp(0.30, 0.05)),
        (0.05, 3, make_cp(0.70, 0.25)),
        (0.02, 8, make_cp(0.08, 0.02)),
        (0.10, 1, make_cp(0.55, 0.40)),
        (0.01, 35, make_cp(0.006884429230653025, 0.0005720725456748557)),
        (0.01, 20, make_cp(0.15070547933464734, 0.1090520313613685)),
        (0.00177, 2, make_cp(0.85, 0.15)),
        (9.3e-6, 214, make_cp(0.72, 0.28)),
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
    cp = make_cp(p_c, p_w)
    first = min_repetitions(target, b, cp)
    for other in _SEARCH_CHANNELS:
        min_repetitions(other[0], other[1], make_cp(other[2], other[3]))
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
        cp = make_cp(p_c, p_w)
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


QPQI_CHANNEL = ChannelModel(tau=0.18, n_bar_a=0.60, n_bar_b=0.68)


def _bracketed(bounds, value: float, rel: float) -> bool:
    low, _, high = bounds
    return low <= value * (1.0 + rel) and high >= value * (1.0 - rel)


def test_error_bounds_bracket_enumeration_small_k():
    rng = np.random.default_rng(11)
    for _ in range(60):
        k = int(rng.integers(1, 13))
        p_c = float(rng.uniform(1e-3, 0.6))
        p_w = float(rng.uniform(1e-4, min(0.4, 0.99 - p_c)))
        expected = oracles.majority_error_enumeration(k, p_c, p_w)
        bounds = _error_bounds(k, make_cp(p_c, p_w))
        assert _bracketed(bounds, expected, 1e-12), (k, p_c, p_w)
        assert bounds[1] == pytest.approx(expected, rel=1e-12, abs=0.0)


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
    expected = oracles.majority_error_lgamma(k, p_c, p_w)
    bounds = _error_bounds(k, make_cp(p_c, p_w))
    assert _bracketed(bounds, expected, 1e-12)
    # tight enough that a probe falls back only within ~1e-9 of its target
    assert bounds[2] - bounds[0] <= 1e-9 * bounds[1]


def test_error_bounds_bracket_exact_sum_in_deep_tail():
    # the error lives far above the typical wrong-vote count (a window of
    # +-16 sd around k p_wrong would give 1.8e-202 here), so the window is
    # placed by the tail bounds
    cp = click_probs(0.3, QPQI_CHANNEL)
    exact = bit_error_prob(10**5, cp)
    assert 3.8e-184 < exact < 4.0e-184
    bounds = _error_bounds(10**5, cp)
    assert bounds[0] <= exact <= bounds[2]
    assert bounds[1] == pytest.approx(exact, rel=1e-11, abs=0.0)


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
    # standard deviations of Binomial(k, p) below k p
    cp = make_cp(p_c, p_w)
    exact = bit_error_prob(k, cp)
    expected = oracles.majority_error_highprec(k, p_c, p_w, 150)
    assert exact == pytest.approx(expected, rel=1e-12, abs=0.0)
    # the float oracle rounds its lgamma terms to about 2e-12 at this depth
    expected = oracles.majority_error_lgamma(k, p_c, p_w)
    assert exact == pytest.approx(expected, rel=1e-11, abs=0.0)
    assert exact == pytest.approx(_error_bounds(k, cp)[1], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", [2 * 10**4, 10**5, 10**6, 10**7])
def test_error_bounds_bracket_exact_sum_on_loud_channel(k):
    for mu in (0.0031897702154663216, 0.05, 0.956):
        cp = click_probs(mu, QPQI_CHANNEL)
        exact = bit_error_prob(k, cp)
        bounds = _error_bounds(k, cp)
        assert bounds[0] <= exact <= bounds[2], (k, mu)
        # tight, or settled by the Chernoff bound alone below 1e-300
        assert bounds[2] - bounds[0] <= 1e-9 * bounds[1] or bounds[2] < 1e-300


def _boost_run(x: np.ndarray, n: float, p: float, shrink: bool) -> np.ndarray:
    # the per-element boost pmf, 0 past n, that _binom_pmf_run stands for
    n_i = n - np.arange(x.size) if shrink else np.full(x.size, n)
    return np.where(x <= n_i, reliability._binom_pmf(x, n_i, p), 0.0)


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


@pytest.mark.parametrize("shrink", [False, True])
@pytest.mark.parametrize("m", [1, 2, 57, reliability._ANCHOR_EVERY])
def test_binom_pmf_run_short_runs_are_boost(m, shrink):
    rng = np.random.default_rng(m)
    for _ in range(20):
        n = float(int(10 ** rng.uniform(0, 7)) + m)
        p = float(10 ** rng.uniform(-6, -0.01))
        # a fixed-n run stays within x <= n; a shrinking one may leave it
        x0 = int(rng.uniform(0.0, 1.2) * n * p)
        x = np.arange(m) + float(x0 if shrink else min(x0, n - m + 1))
        got = _binom_pmf_run(x, n, p, shrink)
        assert np.array_equal(got, _boost_run(x, n, p, shrink)), (n, p, x[0])


@pytest.mark.parametrize("seed", [1, 2])
def test_binom_pmf_run_long_runs_step_by_exact_ratios(seed):
    rng = np.random.default_rng(seed)
    step = reliability._ANCHOR_EVERY
    for _ in range(40):
        x, n, p, shrink = _random_run(rng)
        got = _binom_pmf_run(x, n, p, shrink)
        boost = _boost_run(x, n, p, shrink)
        # every _ANCHOR_EVERY-th term is boost's own
        assert np.array_equal(got[::step], boost[::step])
        # the terms between are within boost's own noise of it (boost
        # itself lies up to ~3e-11 from 40-digit values at n ~ 1e7)
        shown = boost >= 1e-290
        assert np.all(np.abs(got[shown] - boost[shown]) <= 1e-10 * boost[shown])
        # and 255 rounded ratio products at most from their anchor
        for j in rng.integers(0, x.size, 6):
            a = j - j % step
            if min(boost[a], boost[j]) < 1e-290:
                continue
            n_j, n_a = (n - j, n - a) if shrink else (n, n)
            exact = oracles.binom_pmf_highprec(int(x[j]), int(n_j), p) / oracles.binom_pmf_highprec(
                int(x[a]), int(n_a), p
            )
            assert got[j] / got[a] == pytest.approx(float(exact), rel=3e-13, abs=0.0), (n, p, j)


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
    # boost's pmf at x = 3000 of Bin(1e4, 1/2) is below the smallest
    # double, yet 255 terms on it reaches 6e-273: that block is all boost
    x = np.arange(3000.0, 3000.0 + 3 * reliability._ANCHOR_EVERY)
    got = _binom_pmf_run(x, 1e4, 0.5, shrink)
    boost = _boost_run(x, 1e4, 0.5, shrink)
    assert boost[0] == 0.0 and boost[reliability._ANCHOR_EVERY - 1] > 1e-290
    assert np.all(np.abs(got - boost) <= 1e-10 * boost)


def test_error_bounds_estimate_matches_per_element_boost(monkeypatch):
    # 200 channels, k up to 1e7, each with a Chernoff exponent k I between
    # 0.3 and 650, so that the window is summed: the estimate on anchored
    # runs against the same sum with every pmf term from boost
    rng = np.random.default_rng(21)
    cases = []
    while len(cases) < 200:
        k = int(10 ** rng.uniform(0, 7))
        p_w = float(10 ** rng.uniform(-6, math.log10(0.3)))
        rate = 10 ** rng.uniform(-0.5, math.log10(650.0)) / k
        p_c = (math.sqrt(p_w) + math.sqrt(-math.expm1(-rate))) ** 2
        if p_c + p_w <= 1.0:
            cases.append((k, make_cp(p_c, p_w)))
    anchored = [_error_bounds(k, cp) for k, cp in cases]
    monkeypatch.setattr(reliability, "_ANCHOR_EVERY", 2 * MAX_REPETITIONS)
    for (k, cp), bounds in zip(cases, anchored):
        assert bounds[1] == pytest.approx(_error_bounds(k, cp)[1], rel=2e-12, abs=0.0), (k, cp)
    # and they still bracket the exact sum
    for (k, cp), bounds in zip(cases[::4], anchored[::4]):
        exact = bit_error_prob(k, cp)
        assert bounds[0] <= exact <= bounds[2], (k, cp)


def test_bit_error_prob_sums_nothing_below_the_smallest_double(monkeypatch):
    # QPQI's channel at its planned mu: z^k = 5e-126860 at k = 1e7
    cp = click_probs(0.956, QPQI_CHANNEL)
    calls = []
    boost = reliability._binom_pmf

    def counted(*args):
        calls.append(args)
        return boost(*args)

    monkeypatch.setattr(reliability, "_binom_pmf", counted)
    assert bit_error_prob(10**7, cp) == 0.0
    assert calls == []


def test_bit_error_prob_cut_changes_no_value(monkeypatch):
    # k up to 40 past the first k with z^k < 2^-1075, from where the error
    # is still a double: the same values as the full sum, which rounds to
    # 0.0 past the cut
    cases = [click_probs(0.956, QPQI_CHANNEL), make_cp(0.3, 0.01), make_cp(0.02, 0.0001)]
    for cp in cases:
        z = 1.0 - cp.p_correct - cp.p_wrong + 2.0 * math.sqrt(cp.p_correct * cp.p_wrong)
        cut = math.ceil(reliability._LOG_ROUNDS_TO_ZERO / math.log(z))
        ks = np.unique(np.geomspace(0.9 * cut, cut + 40, 120).astype(int)).tolist()
        cut_values = [bit_error_prob(k, cp) for k in ks]
        with monkeypatch.context() as m:
            m.setattr(reliability, "_LOG_ROUNDS_TO_ZERO", -math.inf)
            assert cut_values == [bit_error_prob(k, cp) for k in ks]
        assert cut_values[0] > 0.0 and cut_values[-1] == 0.0
    # where wrong clicks are the likelier, z^k bounds nothing: z^5000 is
    # 1e-485 here, yet nearly every bit decodes wrongly
    assert bit_error_prob(5000, make_cp(0.01, 0.3)) > 0.99


def _estimate_above_exact(cp: ClickProbabilities) -> int:
    # an odd k near 1e5 whose bounded estimate lies above its exact sum
    return next(
        k for k in range(100_001, 100_201, 2) if _error_bounds(k, cp)[1] > bit_error_prob(k, cp)
    )


@pytest.mark.parametrize("shift", [0.0, -1e-11])
def test_min_repetitions_falls_back_to_exact_sum_within_margin(shift):
    # a target within _EXACT_REL of the message error at k0 leaves the
    # bounds undecided: only the exact sum can say whether k0 passes (it
    # does at the target itself, where the estimate says it fails, and
    # not 1e-11 below it)
    cp = click_probs(0.05, QPQI_CHANNEL)
    b = 20
    k0 = _estimate_above_exact(cp)
    target = message_error_prob(bit_error_prob(k0, cp), b) * (1.0 + shift)
    low, _, high = _error_bounds(k0, cp)
    assert message_error_prob(low * (1.0 - reliability._EXACT_REL), b) <= target
    assert message_error_prob(high * (1.0 + reliability._EXACT_REL), b) > target
    k = min_repetitions(target, b, cp)
    assert (k == k0) == (shift == 0.0)
    _assert_threshold(k, target, b, cp)
    _assert_same_as_all_exact(target, b, cp)


def _exact_sums_in_search(monkeypatch, mu: float) -> tuple[list[int], object]:
    calls = []
    exact = reliability.bit_error_prob

    def counted(k, cp):
        calls.append(k)
        return exact(k, cp)

    monkeypatch.setattr(reliability, "bit_error_prob", counted)
    outcome = _search_outcome(min_repetitions, 0.01, 20, click_probs(mu, QPQI_CHANNEL))
    return calls, outcome


def test_exact_sums_only_where_they_decide(monkeypatch):
    # QPQI's plan (b = 20, target 0.01) at a dim grid value: the answer is
    # near 9e6, and every probe, the answer's too, settles on its bounds
    calls, outcome = _exact_sums_in_search(monkeypatch, 0.0031897702154663216)
    assert outcome == 9045475
    assert calls == []
    # dimmer still: k = 1e7 fails on its bounds alone, with no exact sum
    calls, outcome = _exact_sums_in_search(monkeypatch, 0.002976351441631319)
    assert outcome.startswith("no repetition count up to")
    assert calls == []


def test_min_repetitions_infeasible_majority():
    with pytest.raises(InfeasibleError):
        min_repetitions(0.01, 35, make_cp(0.01, 0.01))
    with pytest.raises(InfeasibleError):
        min_repetitions(0.01, 35, make_cp(0.005, 0.01))


def test_min_repetitions_rejects_more_than_one_click_per_slot():
    with pytest.raises(ParameterError, match="exceeds 1"):
        min_repetitions(0.01, 5, make_cp(0.7, 0.4))


def test_min_repetitions_infeasible_cap():
    # vanishing correct-wrong margin drives the needed k past the cap
    with pytest.raises(InfeasibleError):
        min_repetitions(0.01, 35, make_cp(1.0e-4, 9.9e-5))


def test_min_repetitions_borderline_cap_is_checked_exactly():
    # the normal guess lies between half the cap and the 4x pre-check, so
    # the search itself must reach the cap and find it failing
    cp = make_cp(0.1004, 0.1)
    guess = _estimate_repetitions(0.01, 35, cp)
    assert MAX_REPETITIONS // 2 <= guess < 4 * MAX_REPETITIONS
    with pytest.raises(InfeasibleError, match="no repetition count up to"):
        min_repetitions(0.01, 35, cp)
    # a guess in the same range whose answer fits under the cap
    cp = make_cp(0.1006, 0.1)
    assert MAX_REPETITIONS // 2 <= _estimate_repetitions(0.01, 35, cp)
    _assert_threshold(min_repetitions(0.01, 35, cp), 0.01, 35, cp)


def test_channel_model_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        ChannelModel(tau=1.5, n_bar_a=0.0, n_bar_b=0.0)
    with pytest.raises(ParameterError):
        ChannelModel(tau=0.5, n_bar_a=-0.1, n_bar_b=0.0)
