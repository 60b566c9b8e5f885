"""Closed-form spot checks, algebraic identities, and frozen
extended-precision cross-checks for the photon-number statistics."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covertlink.exceptions import ParameterError
from covertlink.fock_stats import (
    FockDistribution,
    convolve,
    _log1p_gap,
    mix,
    poisson_pmf,
    relative_entropy,
    thermal_pmf,
)
from covertlink.security import per_mode_relative_entropy, per_mode_states

import reference_scenarios as ref

CQTUSTC = ref.FIBER_BY_NAME["CQTUSTC"]

means = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
positive_means = st.floats(min_value=1e-6, max_value=5.0, allow_nan=False)


def test_thermal_vacuum():
    d = thermal_pmf(0.0)
    assert d.pmf.tolist() == [1.0]
    assert d.tail_mass == 0.0


def test_thermal_zero_term_at_reference_noise():
    d = thermal_pmf(CQTUSTC.n_bar_a)
    assert d.prob(0) == pytest.approx(1.0 / (1.0 + 2.30e-3), rel=1e-15)


def test_thermal_mean_one_is_halving():
    d = thermal_pmf(1.0, trunc_tol=1e-12)
    for n in range(21):
        assert d.prob(n) == pytest.approx(2.0 ** -(n + 1), rel=1e-13)


def test_thermal_cutoff_is_smallest():
    # n_bar = 1: tail after n_max is 0.5^(n_max+1); smallest n_max with
    # tail <= 1e-6 is 19
    d = thermal_pmf(1.0, trunc_tol=1e-6)
    assert d.n_max == 19
    assert d.tail_mass == pytest.approx(0.5**20, rel=1e-12)


def test_thermal_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        thermal_pmf(-1e-9)
    with pytest.raises(ParameterError):
        thermal_pmf(0.1, trunc_tol=0.0)
    with pytest.raises(ParameterError):
        thermal_pmf(0.1, trunc_tol=1.0)


def test_poisson_vacuum():
    d = poisson_pmf(0.0)
    assert d.pmf.tolist() == [1.0]
    assert d.tail_mass == 0.0


def test_poisson_reference_terms():
    d = poisson_pmf(CQTUSTC.mu)
    assert d.prob(0) == pytest.approx(math.exp(-3.52e-2), rel=1e-14)
    assert d.prob(1) == pytest.approx(3.52e-2 * math.exp(-3.52e-2), rel=1e-14)


def test_poisson_mean_one_cumulative_sum():
    d = poisson_pmf(1.0, trunc_tol=1e-30)
    assert d.n_max >= 25
    assert math.fsum(d.pmf[:30]) == pytest.approx(1.0, abs=1e-12)


def test_poisson_rejects_negative_mean():
    with pytest.raises(ParameterError):
        poisson_pmf(-0.5)


def test_convolve_with_vacuum_is_identity():
    for x in (thermal_pmf(0.7), poisson_pmf(0.3)):
        out = convolve(x, poisson_pmf(0.0))
        np.testing.assert_array_equal(out.pmf, x.pmf)
        assert out.tail_mass <= x.tail_mass + 1e-18


def test_convolve_poisson_additivity():
    out = convolve(poisson_pmf(0.5, 1e-15), poisson_pmf(0.5, 1e-15))
    direct = poisson_pmf(1.0, 1e-15)
    n = min(out.pmf.size, direct.pmf.size)
    np.testing.assert_allclose(out.pmf[:n], direct.pmf[:n], rtol=0, atol=1e-12)


def test_convolve_zero_term_reference():
    out = convolve(poisson_pmf(CQTUSTC.mu), thermal_pmf(CQTUSTC.n_bar_a))
    assert out.prob(0) == pytest.approx(math.exp(-3.52e-2) / 1.0023, rel=1e-13)


@given(positive_means, positive_means)
def test_convolve_tail_bound(m1, m2):
    a, b = poisson_pmf(m1, 1e-9), thermal_pmf(m2, 1e-9)
    out = convolve(a, b)
    assert out.tail_mass <= a.tail_mass + b.tail_mass + 1e-18


def test_mix_endpoints_exact():
    rho = thermal_pmf(0.002)
    rho_s = convolve(poisson_pmf(0.03), rho)
    assert mix(rho, rho_s, 0.0) is rho
    assert mix(rho, rho_s, 1.0) is rho_s


def test_mix_symmetric_two_point():
    zero = FockDistribution(np.array([1.0, 0.0]), 0.0)
    one = FockDistribution(np.array([0.0, 1.0]), 0.0)
    assert mix(zero, one, 0.5).pmf.tolist() == [0.5, 0.5]


def test_mix_rejects_bad_weight():
    rho = thermal_pmf(0.1)
    for q in (-0.1, 1.1, math.nan):
        with pytest.raises(ParameterError):
            mix(rho, rho, q)


def test_relative_entropy_self_is_zero():
    for x in (thermal_pmf(0.4), poisson_pmf(1.3)):
        assert relative_entropy(x, x) == 0.0
    rho = thermal_pmf(0.002)
    rho_s = convolve(poisson_pmf(0.03), rho)
    assert relative_entropy(rho, mix(rho, rho_s, 0.0)) == 0.0


def test_relative_entropy_two_point_closed_form():
    a = FockDistribution(np.array([0.9, 0.1]), 0.0)
    b = FockDistribution(np.array([0.8, 0.2]), 0.0)
    expected = 0.9 * math.log(0.9 / 0.8) + 0.1 * math.log(0.1 / 0.2)
    assert relative_entropy(a, b) == pytest.approx(expected, rel=1e-14)


def test_relative_entropy_infinite_off_support():
    a = FockDistribution(np.array([0.5, 0.5]), 0.0)
    b = FockDistribution(np.array([1.0]), 0.0)
    assert math.isinf(relative_entropy(a, b))


def test_relative_entropy_reference_point_vs_frozen_oracle():
    # 80-digit-oracle agreement to at least 6 significant figures
    d = per_mode_relative_entropy(CQTUSTC.mu, CQTUSTC.n_bar_a, CQTUSTC.q)
    frozen = ref.KL_PER_MODE_NATS["CQTUSTC"]
    assert abs(d - frozen) / frozen < 5e-7
    assert d.error_bound < 1e-6 * frozen


def test_relative_entropy_stable_where_naive_fails():
    q = 1e-8
    frozen = 2.9690252193915015e-17  # kl_divergence_highprec, 80 digits
    d = per_mode_relative_entropy(CQTUSTC.mu, CQTUSTC.n_bar_a, q)
    assert abs(d - frozen) / frozen < 1e-6

    # same truncated states, log-of-ratio form: cancellation destroys it
    rho, sigma = per_mode_states(CQTUSTC.mu, CQTUSTC.n_bar_a, q)
    n = rho.pmf.size
    naive = math.fsum(rho.pmf * (np.log(rho.pmf) - np.log(sigma.pmf[:n])))
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
    # relative_entropy on mixed FockDistributions and the security profile
    # share one term kernel; only their pmf roundings differ
    q = CQTUSTC.q
    rho, sigma = per_mode_states(CQTUSTC.mu, CQTUSTC.n_bar_a, q)
    d_mix = relative_entropy(rho, sigma)
    d_profile = per_mode_relative_entropy(CQTUSTC.mu, CQTUSTC.n_bar_a, q)
    assert d_mix == pytest.approx(d_profile, rel=1e-12)
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


@given(means, st.sampled_from([1e-9, 1e-12, 1e-15]))
def test_normalization_thermal(n_bar, tol):
    d = thermal_pmf(n_bar, tol)
    assert math.fsum(d.pmf) + d.tail_mass == pytest.approx(1.0, abs=1e-12)


@given(means, st.sampled_from([1e-9, 1e-12, 1e-15]))
def test_normalization_poisson(mu, tol):
    d = poisson_pmf(mu, tol)
    assert math.fsum(d.pmf) + d.tail_mass == pytest.approx(1.0, abs=1e-12)


@given(positive_means, positive_means)
def test_normalization_convolution(m1, m2):
    d = convolve(poisson_pmf(m1), thermal_pmf(m2))
    assert math.fsum(d.pmf) + d.tail_mass == pytest.approx(1.0, abs=1e-12)


@given(positive_means, positive_means, st.floats(min_value=0.0, max_value=1.0))
def test_gibbs_nonnegative(m1, m2, q):
    rho = thermal_pmf(m1)
    sigma = mix(rho, poisson_pmf(m2), q)
    assert relative_entropy(rho, sigma) >= 0.0


def test_gibbs_positive_for_distinct_states():
    assert relative_entropy(thermal_pmf(0.5), poisson_pmf(0.5)) > 0.0


@given(positive_means, positive_means)
def test_convolution_commutative(m1, m2):
    a, b = poisson_pmf(m1), thermal_pmf(m2)
    ab, ba = convolve(a, b), convolve(b, a)
    np.testing.assert_allclose(ab.pmf, ba.pmf, rtol=0, atol=1e-12)


@given(positive_means, positive_means, positive_means)
def test_convolution_associative(m1, m2, m3):
    a, b, c = poisson_pmf(m1), thermal_pmf(m2), poisson_pmf(m3)
    left = convolve(convolve(a, b), c)
    right = convolve(a, convolve(b, c))
    n = min(left.pmf.size, right.pmf.size)
    np.testing.assert_allclose(left.pmf[:n], right.pmf[:n], rtol=0, atol=1e-12)
