"""Closed-form spot checks and frozen extended-precision cross-checks for
the thermal background, the pulse riding on it, and the divergence sum,
all as DivergenceProfile holds and evaluates them."""

import math
import tracemalloc
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from covertlink import _special, fock_stats
from covertlink.exceptions import ParameterError
from covertlink.fock_stats import (
    _TRUNC_TOL,
    DivergenceProfile,
    _divergences,
    _log1p_gap,
    _profiles,
    per_mode_relative_entropy,
)

import oracles
import reference_scenarios as ref

CQTUSTC = ref.FIBER_BY_NAME["CQTUSTC"]

means = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
positive_means = st.floats(min_value=1e-6, max_value=5.0, allow_nan=False)


def pulse(profile: DivergenceProfile) -> np.ndarray:
    """The pulse-on-background law rho_s over the profile's support."""
    return profile.rho * (1.0 + profile.x)


def with_states(rho, x, tail_rho=0.0, tail_s=0.0) -> DivergenceProfile:
    """A profile holding the given weights and ratios, so its divergence
    sum can be checked on states no (mu, n_bar_a) makes."""
    return DivergenceProfile(
        mu=math.nan,
        n_bar_a=math.nan,
        rho=np.asarray(rho, dtype=float),
        x=np.asarray(x, dtype=float),
        tail_rho=tail_rho,
        tail_s=tail_s,
        chi2=math.nan,
        uncovered=0.0,
    )


def test_thermal_vacuum():
    profile = DivergenceProfile.build(0.03, 0.0)
    assert profile.rho.tolist() == [1.0]
    assert profile.tail_rho == 0.0


def test_thermal_zero_term_at_reference_noise():
    rho = DivergenceProfile.build(CQTUSTC.mu, CQTUSTC.n_bar_a).rho
    assert rho[0] == pytest.approx(1.0 / (1.0 + 2.30e-3), rel=1e-15)


def test_thermal_mean_one_is_halving():
    rho = DivergenceProfile.build(0.1, 1.0).rho
    for n in range(21):
        assert rho[n] == pytest.approx(2.0 ** -(n + 1), rel=1e-13)


def test_thermal_cutoff_is_smallest():
    # n_bar = 1: tail after n_max is 0.5^(n_max+1); smallest n_max with
    # tail <= 1e-30 is 99
    profile = DivergenceProfile.build(0.1, 1.0)
    assert _TRUNC_TOL == 1e-30
    assert profile.rho.size - 1 == 99
    assert profile.tail_rho == pytest.approx(0.5**100, rel=1e-12)


def test_thermal_rejects_bad_inputs():
    for n_bar in (-1e-9, math.nan, math.inf):
        with pytest.raises(ParameterError, match="n_bar_a"):
            DivergenceProfile.build(0.1, n_bar)


def test_poisson_vacuum():
    # a pulse of mean zero leaves the background as it is
    profile = DivergenceProfile.build(0.0, 0.3)
    assert profile.x.tolist() == [0.0] * profile.x.size
    assert profile.tail_s == pytest.approx(profile.tail_rho, rel=1e-12)
    assert profile.chi2 == 0.0


def test_poisson_reference_terms():
    # rho_s(0) = e^-mu rho(0) and rho_s(1) = e^-mu (rho(1) + mu rho(0))
    profile = DivergenceProfile.build(CQTUSTC.mu, CQTUSTC.n_bar_a)
    rho, rho_s = profile.rho, pulse(profile)
    assert rho_s[0] / rho[0] == pytest.approx(math.exp(-3.52e-2), rel=1e-14)
    poisson_one = (rho_s[1] - math.exp(-3.52e-2) * rho[1]) / rho[0]
    assert poisson_one == pytest.approx(3.52e-2 * math.exp(-3.52e-2), rel=1e-12)


def test_poisson_mean_one_cumulative_sum():
    profile = DivergenceProfile.build(1.0, 0.5)
    assert profile.rho.size >= 25
    assert math.fsum(pulse(profile)) == pytest.approx(1.0, abs=1e-12)


def test_poisson_rejects_negative_mean():
    for mu in (-0.5, math.nan, math.inf):
        with pytest.raises(ParameterError):
            DivergenceProfile.build(mu, 0.1)


def test_convolve_with_vacuum_is_identity():
    # on a vacuum background the pulse is Poisson alone: rho = [1], and
    # all its mass beyond n = 0 is uncovered
    profile = DivergenceProfile.build(0.3, 0.0)
    assert profile.rho.tolist() == [1.0]
    assert profile.tail_rho == 0.0
    assert pulse(profile)[0] == pytest.approx(math.exp(-0.3), rel=1e-15)
    assert profile.tail_s == pytest.approx(-math.expm1(-0.3), rel=1e-14)
    assert profile.uncovered == pytest.approx(-math.expm1(-0.3), rel=1e-15)


def test_convolve_zero_term_reference():
    profile = DivergenceProfile.build(CQTUSTC.mu, CQTUSTC.n_bar_a)
    assert pulse(profile)[0] == pytest.approx(math.exp(-3.52e-2) / 1.0023, rel=1e-13)


@given(positive_means, positive_means)
def test_convolve_tail_bound(m1, m2):
    # P(X + Y > n_max) = sum_j P(X = j) r^(n_max + 1 - j) + P(X > n_max)
    # for X ~ Poisson(m1), Y ~ thermal(m2) with ratio r; the sum lies
    # between its j = 0 term and r^(n_max + 1) E[r^-X] = tail_rho e^(m1/m2)
    profile = DivergenceProfile.build(m1, m2)
    n_max = profile.rho.size - 1
    poisson_tail = float(stats.poisson.sf(n_max, m1))
    with np.errstate(over="ignore"):
        generating = profile.tail_rho * float(np.exp(m1 / m2))
    lower = math.exp(-m1) * profile.tail_rho + poisson_tail
    assert profile.tail_s >= lower * (1.0 - 1e-12)
    assert profile.tail_s <= (generating + poisson_tail) * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "mu, n_bar", [(CQTUSTC.mu, CQTUSTC.n_bar_a), (0.956, 0.60), (0.5, 1.0e4)]
)
def test_signal_tail_matches_oracle(mu, n_bar):
    # tail_s rests on the closed-form ratio at n_max; n_bar = 1e4 puts
    # n_max near 7e5. r = n_bar / (1 + n_bar) is rounded once in doubles,
    # and r^(n_max + 1) carries that rounding n_max times over.
    profile = DivergenceProfile.build(mu, n_bar)
    n_max = profile.rho.size - 1
    exact = oracles.pulse_on_background_tail_highprec(mu, n_bar, n_max)
    rel = 1e-13 + n_max * np.finfo(float).eps
    assert profile.tail_s == pytest.approx(float(exact), rel=rel, abs=0.0)


@pytest.mark.parametrize("mu, n_bar", [(CQTUSTC.mu, CQTUSTC.n_bar_a), (0.266, 0.60)])
def test_pulse_on_background_matches_oracle_convolution(mu, n_bar):
    profile = DivergenceProfile.build(mu, n_bar)
    exact = oracles.pulse_on_background_highprec(mu, n_bar, profile.rho.size)
    for n, value in enumerate(pulse(profile)):
        assert value == pytest.approx(float(exact[n]), rel=1e-13), n


def test_mix_endpoints_exact():
    profile = DivergenceProfile.build(0.266, 0.60)
    assert profile.divergence(0.0) == 0.0
    # q = 1 is D(rho || rho_s) itself
    full = profile.divergence(1.0)
    exact = oracles.kl_divergence_highprec(0.266, 0.60, 1.0, n_terms=200, dps=40)
    assert full == pytest.approx(float(exact), rel=1e-13)


def test_mix_rejects_bad_weight():
    profile = DivergenceProfile.build(0.03, 0.1)
    for q in (-0.1, 1.1, math.nan):
        with pytest.raises(ParameterError):
            profile.divergence(q)


def test_relative_entropy_self_is_zero():
    # a pulse of mean zero leaves x = 0 and tail_s = tail_rho
    profile = DivergenceProfile.build(0.0, 0.4)
    for q in (0.0, 1e-8, 0.5, 1.0):
        assert profile.divergence(q) == 0.0
    profile = DivergenceProfile.build(0.03, 0.002)
    assert profile.divergence(0.0) == 0.0


def test_relative_entropy_two_point_closed_form():
    # rho = (0.9, 0.1) against (0.8, 0.2), the q = 1/2 mix with (0.7, 0.3)
    rho = np.array([0.9, 0.1])
    x = np.array([0.7, 0.3]) / rho - 1.0
    expected = 0.9 * math.log(0.9 / 0.8) + 0.1 * math.log(0.1 / 0.2)
    d = with_states(rho, x).divergence(0.5)
    assert d == pytest.approx(expected, rel=1e-14)


def test_relative_entropy_infinite_off_support():
    # at q = 1, background mass where the pulse has none makes D infinite
    profile = with_states([0.5, 0.5], [1.0, -1.0])
    with np.errstate(divide="ignore"):
        assert math.isinf(profile.divergence(1.0))


def test_relative_entropy_reference_point_vs_frozen_oracle():
    # 80-digit-oracle agreement to at least 6 significant figures
    profile = DivergenceProfile.build(CQTUSTC.mu, CQTUSTC.n_bar_a)
    d = profile.divergence(CQTUSTC.q)
    frozen = ref.KL_PER_MODE_NATS["CQTUSTC"]
    assert abs(d - frozen) / frozen < 5e-7
    assert profile.error_bound(CQTUSTC.q) < 1e-6 * frozen


def test_relative_entropy_stable_where_naive_fails():
    q = 1e-8
    frozen = 2.9690252193915015e-17  # kl_divergence_highprec, 80 digits
    profile = DivergenceProfile.build(CQTUSTC.mu, CQTUSTC.n_bar_a)
    d = profile.divergence(q)
    assert abs(d - frozen) / frozen < 1e-6

    # same truncated states, log-of-ratio form: cancellation destroys it
    rho = profile.rho
    sigma = (1.0 - q) * rho + q * pulse(profile)
    naive = math.fsum(rho * (np.log(rho) - np.log(sigma)))
    assert abs(naive - frozen) / frozen > 1e-3


def test_log1p_gap_accurate_on_both_sides_of_series_cutoff():
    ys = [-0.9, -0.1000001, -0.1, -1e-3, -1e-9, 1e-12, 1e-6]
    ys += [0.0999999, 0.1, 0.1000001, 2.0, 1e6]
    got = _log1p_gap(np.array(ys))
    with mp.workdps(50):
        for y, value in zip(ys, got):
            exact = mp.mpf(y) - mp.log1p(mp.mpf(y))
            assert abs(value - exact) <= 4e-15 * exact, y


def test_mixture_branch_agrees_with_profile():
    # states built the obvious way (scipy Poisson pmf, numpy convolution,
    # the pulse tail summed past the support) agree with the profile's
    # closed form, and so does the divergence summed on them
    q = CQTUSTC.q
    profile = DivergenceProfile.build(CQTUSTC.mu, CQTUSTC.n_bar_a)
    rho = profile.rho
    n = np.arange(4 * rho.size + 40)
    thermal = np.exp(n * math.log(CQTUSTC.n_bar_a / (1.0 + CQTUSTC.n_bar_a)))
    thermal /= 1.0 + CQTUSTC.n_bar_a
    rho_s = np.convolve(stats.poisson.pmf(n, CQTUSTC.mu), thermal)[: n.size]
    tail_s = math.fsum(rho_s[rho.size :])
    x = rho_s[: rho.size] / rho - 1.0
    np.testing.assert_allclose(profile.x, x, rtol=1e-12, atol=0.0)
    assert profile.tail_s == pytest.approx(tail_s, rel=1e-12)
    d_convolved = replace(profile, x=x, tail_s=tail_s).divergence(q)
    d_profile = profile.divergence(q)
    assert d_convolved == pytest.approx(d_profile, rel=1e-12)
    assert d_profile == pytest.approx(ref.KL_PER_MODE_NATS["CQTUSTC"], rel=1e-13)


def test_small_q_curvature_limit():
    # 2 D / q^2 approaches the frozen chi-square limit as q -> 0
    q = 1e-8
    d = per_mode_relative_entropy(CQTUSTC.mu, CQTUSTC.n_bar_a, q)
    assert 2.0 * d / q**2 == pytest.approx(ref.CHI_SQUARE["CQTUSTC"], rel=1e-4)


def test_divergence_monotone_in_mixing_weight():
    for mu, n_bar in [(CQTUSTC.mu, CQTUSTC.n_bar_a), (0.266, 0.60)]:
        values = [
            float(per_mode_relative_entropy(mu, n_bar, q))
            for q in (0.0, 1e-8, 1e-6, 1e-4, 1e-2)
        ]
        assert values[0] == 0.0
        assert all(a < b for a, b in zip(values, values[1:]))


@given(means)
def test_normalization_thermal(n_bar):
    profile = DivergenceProfile.build(0.1, n_bar)
    assert math.fsum(profile.rho) + profile.tail_rho == pytest.approx(1.0, abs=1e-12)


@given(means, positive_means)
def test_normalization_poisson(mu, n_bar):
    profile = DivergenceProfile.build(mu, n_bar)
    assert math.fsum(pulse(profile)) + profile.tail_s == pytest.approx(1.0, abs=1e-12)


@given(positive_means, positive_means)
def test_normalization_convolution(m1, m2):
    # the closed-form pulse is the convolution of Poisson(m1) and thermal(m2)
    profile = DivergenceProfile.build(m1, m2)
    rho = profile.rho
    direct = np.convolve(stats.poisson.pmf(np.arange(rho.size), m1), rho)[: rho.size]
    np.testing.assert_allclose(pulse(profile), direct, rtol=0, atol=1e-12)


@given(positive_means, positive_means, st.floats(min_value=0.0, max_value=1.0))
def test_gibbs_nonnegative(m1, m2, q):
    assert DivergenceProfile.build(m2, m1).divergence(q) >= 0.0


def test_gibbs_positive_for_distinct_states():
    profile = DivergenceProfile.build(0.5, 0.5)
    assert profile.divergence(1.0) > 0.0
    assert profile.divergence(1e-8) > 0.0


def test_batched_divergences_equal_one_profile_at_a_time(monkeypatch):
    # 400 (profile, q) points in batches of 50, in passes of at most 1,
    # 300 and the default budget of terms: a pass over its points' q x
    # gives each point the D and the dD/dq it gets alone, the ones the
    # one-point references in oracles form
    rng = np.random.default_rng(5)
    points = []
    for _ in range(400):
        mu, n_bar = 10 ** rng.uniform(-4, 0), 10 ** rng.uniform(-4, 0.5)
        points.append((DivergenceProfile.build(mu, n_bar), float(10 ** rng.uniform(-12, 0))))
    alone = [_divergences([point])[0] for point in points]
    assert alone == [
        (oracles.divergence_one_profile(p, q), oracles.slope_one_profile(p, q)) for p, q in points
    ]
    for budget in (1, 300, _special._TERM_BUDGET):
        monkeypatch.setattr(_special, "_TERM_BUDGET", budget)
        got = []
        for start in range(0, len(points), 50):
            got += _divergences(points[start : start + 50])
        assert got == alone, budget


def assert_same_profile(got: DivergenceProfile, lone: DivergenceProfile) -> None:
    assert np.array_equal(got.rho, lone.rho) and np.array_equal(got.x, lone.x)
    for name in ("mu", "n_bar_a", "tail_rho", "tail_s", "chi2", "uncovered"):
        assert getattr(got, name) == getattr(lone, name), name


@pytest.mark.parametrize("budget", [1, 300, _special._TERM_BUDGET])
def test_batched_profiles_equal_lone_builds_on_mixed_backgrounds(monkeypatch, budget):
    # one batch mixing backgrounds, the vacuum and a 6,943-term support
    # among them, in an order that interleaves them, built in passes of at
    # most budget terms: each profile is the lone build's, field by field
    rng = np.random.default_rng(11)
    n_bars = [0.0, 2.3e-3, 0.6, 100.0]
    items = [(float(10 ** rng.uniform(-4, 0)), n_bars[i % 4]) for i in range(40)]
    items += [(0.0, 0.6), (0.0, 0.0)]
    monkeypatch.setattr(_special, "_TERM_BUDGET", budget)
    got = _profiles(items)
    for item, profile in zip(items, got):
        assert_same_profile(profile, oracles.build_one_profile(*item))
    assert not got[1].rho.flags.writeable
    assert all(profile.rho is got[1].rho for profile in got[1:40:4])


def test_batched_profiles_name_the_first_too_bright_mu():
    # at n_bar_a = 20 and 25 the partial exponential sums of these mu
    # overflow; the batch is refused as the first of them alone is, though
    # the other background's rows come first
    items = [(0.1, 20.0), (0.2, 25.0), (740.0, 25.0), (720.0, 20.0), (730.0, 25.0)]
    with pytest.raises(ParameterError) as lone:
        oracles.build_one_profile(740.0, 25.0)
    with pytest.raises(ParameterError) as batch:
        _profiles(items)
    assert str(batch.value) == str(lone.value)
    assert "740.0" in str(batch.value)


class _NoArrays:
    """Stands in for numpy: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used before the batch was checked")


@pytest.mark.parametrize(
    "bad, name",
    [
        ((math.nan, 0.5), "mu"),
        ((-1e-9, 0.5), "mu"),
        ((0.1, math.nan), "n_bar_a"),
        ((0.1, -1.0), "n_bar_a"),
    ],
)
def test_batched_profiles_refuse_a_bad_mean_before_any_array(monkeypatch, bad, name):
    monkeypatch.setattr(fock_stats, "np", _NoArrays())
    with pytest.raises(ParameterError, match=f"^{name} must be finite and >= 0"):
        _profiles([(0.1, 0.5), (0.2, 0.5), bad, (math.inf, 0.5)])


def test_batched_profiles_memory_at_a_large_support():
    # 8 mu at n_bar_a = 1e3, a 69,113-term support: rows of at most
    # _special._TERM_BUDGET terms at a time, so one row here, and one
    # rho for all eight. Built one at a time, the eight profiles peaked at 10,024,369
    # bytes (tracemalloc); this batch at about 6.15 MB, of which 4.98 MB
    # is the eight x and the one rho it returns. Beyond those, a pass of
    # one row holds about two rows of temporaries; all eight rows in one
    # pass would hold about eight
    mus = np.geomspace(1e-4, 1.0, 8).tolist()
    _profiles([(0.1, 1e3)])
    tracemalloc.start()
    try:
        profiles = _profiles([(mu, 1e3) for mu in mus])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row = profiles[0].x.nbytes
    assert profiles[0].x.size > _special._TERM_BUDGET
    assert peak <= 10_024_369
    assert peak - 9 * row <= 3 * row
