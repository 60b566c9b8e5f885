"""The binomial pmf and cdf and the Poisson tail the library computes on
numpy alone, and the standard library's inverse normal that seeds its
repetition search, against 50-digit mpmath."""

import math
from statistics import NormalDist

import mpmath as mp
import numpy as np
import pytest

from covertlink import _special
from covertlink._special import _binom_cdf, _binom_pmf, _log_binom_pmf, _poisson_tail

import oracles

SUBNORMAL_STEP = np.finfo(float).smallest_subnormal


def _planner_range(rng, count: int, sigmas: float) -> np.ndarray:
    # (x, n, p): n from 30 to 1e7, p from 1e-6 to 0.5, x within sigmas
    # standard deviations of the mean
    cases = []
    while len(cases) < count:
        n = int(10 ** rng.uniform(math.log10(30.0), 7.0))
        p = float(10 ** rng.uniform(-6.0, math.log10(0.5)))
        sd = math.sqrt(n * p * (1.0 - p))
        x = round(n * p + rng.uniform(-sigmas, sigmas) * sd)
        if 0 <= x <= n:
            cases.append((x, n, p))
    return np.array(cases, dtype=float)


def _assert_close(got, x, n, p, exact, rel):
    # rel of the 50-digit value, and half a subnormal step where it is one
    err = abs(mp.mpf(float(got)) - exact)
    assert err <= rel * exact + SUBNORMAL_STEP, (x, n, p, float(got), float(exact))


def test_pmf_matches_50_digits_over_the_planners_range():
    cases = _planner_range(np.random.default_rng(38), 1500, 15.0)
    got = _binom_pmf(cases[:, 0], cases[:, 1], cases[:, 2])
    for (x, n, p), value in zip(cases.tolist(), got.tolist()):
        _assert_close(value, x, n, p, oracles.binom_pmf_highprec(int(x), int(n), p, dps=50), 5e-12)


@pytest.mark.parametrize(
    "x, n, p",
    [
        (0, 30, 1e-6),
        (0, 10**7, 0.3),
        (0, 12_000, 0.06),  # (1 - p)^n = 6e-323, subnormal
        (0, 10**7, 7.2e-5),  # e^-720, subnormal
        (30, 30, 0.5),
        (10**7, 10**7, 1.0 - 1e-9),
        (2, 3, 0.9999999999999998),
        (3000, 10**4, 0.5),  # below the smallest double
        (3130, 10**4, 0.5),  # subnormal
    ],
)
def test_pmf_at_the_ends_and_in_underflow(x, n, p):
    exact = oracles.binom_pmf_highprec(x, n, p, dps=50)
    _assert_close(_binom_pmf(float(x), float(n), p)[0], x, n, p, exact, 5e-12)


def test_pmf_is_zero_off_its_support_and_alone_in_a_batch():
    assert _binom_pmf([-1.0, 31.0], [30.0, 30.0], [0.2, 0.2]).tolist() == [0.0, 0.0]
    assert _log_binom_pmf([31.0], [30.0], [0.2])[0] == -math.inf
    # each element is the double it gets alone, whatever shares its call
    cases = _planner_range(np.random.default_rng(5), 300, 15.0)
    cases[::7, 0] = 0.0
    together = _log_binom_pmf(cases[:, 0], cases[:, 1], cases[:, 2])
    alone = [_log_binom_pmf(x, n, p)[0] for x, n, p in cases]
    assert together.tolist() == alone


def _cdf_cases(rng) -> list[tuple[int, int, float]]:
    # tails on either side of the mode, from n = 10 to 1e7, and starts near
    # the bulk whose term ratio at x lies above 0.99, some of them the
    # expansion's
    cases = []
    while len(cases) < 160:
        n = int(10 ** rng.uniform(1.0, 7.0))
        p = float(10 ** rng.uniform(-6.0, math.log10(0.9)))
        sd = math.sqrt(n * p * (1.0 - p))
        x = round(n * p + rng.uniform(-12.0, 6.0) * sd)
        if 0 <= x < n:
            cases.append((x, n, p))
    while len(cases) < 200:
        n = int(10 ** rng.uniform(4.0, 5.3))
        p = float(10 ** rng.uniform(-1.5, math.log10(0.5)))
        x = round((n + 1) * p - 1.0 - rng.uniform(0.0, 0.005) * n * p)
        if x * (1.0 - p) / ((n - x + 1.0) * p) > 0.99:
            cases.append((x, n, p))
    return cases


def test_cdf_matches_50_digits_in_the_tails_and_near_the_bulk(monkeypatch):
    cases = _cdf_cases(np.random.default_rng(38))
    expansions = []
    cf = _special._ratio_sum_fraction
    monkeypatch.setattr(_special, "_ratio_sum_fraction", lambda *a: expansions.append(a) or cf(*a))
    x, n, p = np.array(cases, dtype=float).T
    got = _binom_cdf(x, n, p)
    assert len(expansions) >= 10
    for (xi, ni, pi), value in zip(cases, got.tolist()):
        _assert_close(value, xi, ni, pi, oracles.binom_cdf_highprec(xi, ni, pi), 5e-12)
    # each element is the double it gets alone
    assert got.tolist() == [_binom_cdf(*case)[0] for case in cases]


def _mode_cases() -> list[tuple[int, int, float]]:
    # one below the mode and 2 sd below it, where the continued fraction
    # runs longest, and the same points reflected above the mode
    cases = []
    for n in (10**5, 10**6, 10**7):
        for p in (1e-4, 0.1, 0.3, 0.5, 0.9):
            mode = math.floor((n + 1) * p)
            for below in (1, round(2.0 * math.sqrt(n * p * (1.0 - p)))):
                cases += [(mode - below, n, p), (mode + below, n, p)]
    return cases


def test_cdf_matches_50_digits_beside_the_mode_and_2_sd_from_it(monkeypatch):
    cases = _mode_cases()
    fractions = []
    cf = _special._ratio_sum_fraction
    monkeypatch.setattr(_special, "_ratio_sum_fraction", lambda *a: fractions.append(a) or cf(*a))
    x, n, p = np.array(cases, dtype=float).T
    got = _binom_cdf(x, n, p)
    # 33 of the 60 sums are long enough for the fraction, up to 1,880
    # levels (x = 2,999,999, n = 1e7, p = 0.3)
    assert len(fractions) >= 30
    for (xi, ni, pi), value in zip(cases, got.tolist()):
        _assert_close(value, xi, ni, pi, oracles.binom_cdf_highprec(xi, ni, pi), 5e-12)


def test_ratio_sum_fraction_ends_by_its_zero_numerator():
    # x = 3: k_7 = 0 ends the fraction at its seventh level with the
    # four-term sum, here well away from any convergence of the steps
    x, n, odds = 3.0, 5.0, 2.0
    terms = [1.0]
    for i in range(3):
        terms.append(terms[-1] * (x - i) / (n + 1.0 - x + i) * odds)
    exact = math.fsum(terms)
    assert abs(_special._ratio_sum_fraction(x, n, odds) - exact) <= 1e-15 * exact


def test_cdf_edges():
    x = [-1.0, 0.0, 5.0, 6.0, 3.0, 3.0, 0.0]
    n = [5.0, 0.0, 5.0, 5.0, 5.0, 5.0, 5.0]
    p = [0.3, 0.3, 0.3, 0.3, 0.0, 1.0, 1.0]
    assert _binom_cdf(x, n, p).tolist() == [0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("n", [1, 2, 6, 10, 31, 300, 6944])
def test_poisson_tail_matches_50_digits(n):
    mus = [0.0, 1e-4, 0.01, 0.5, 1.0, 3.0, 0.9 * n, n - 1e-3, float(n), 1.1 * n, n + 30.0]
    got = _poisson_tail(n, mus)
    with mp.workdps(50):
        for mu, value in zip(mus, got.tolist()):
            exact = mp.gammainc(n, 0, mu, regularized=True) if mu > 0.0 else mp.mpf(0)
            _assert_close(value, n, mu, None, exact, 1e-13)


def test_inverse_normal_matches_50_digits_down_to_1e_300():
    rng = np.random.default_rng(38)
    ps = [1e-300, 1e-100, 1e-10, 0.02425, 0.3, 0.5]
    ps += (10 ** rng.uniform(-300.0, math.log10(0.5), 100)).tolist()
    with mp.workdps(50):
        for p in ps:
            z = NormalDist().inv_cdf(p)
            exact = mp.findroot(lambda t: mp.ncdf(t) - p, mp.mpf(z)) if p != 0.5 else mp.mpf(0)
            assert abs(mp.mpf(z) - exact) <= 2e-15 * abs(exact), p
