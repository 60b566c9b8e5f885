"""Detection-bias bound: spot values, inversion correctness, and the
quadratic pair-count scaling that reflects the square-root law."""

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import covertlink.security as security
from covertlink.exceptions import InfeasibleError, ParameterError
from covertlink.fock_stats import DivergenceProfile
from covertlink.planner import default_mu_grid
from covertlink.security import (
    BINS_PER_PAIR,
    DEFAULT_PAIR_CEILING,
    bias_for_protocol,
    detection_bias_bound,
    min_pairs_for_budget,
)

import oracles
import reference_scenarios as ref

CQTUSTC = ref.FIBER_BY_NAME["CQTUSTC"]

# the default fiber CQTUSTC plan, as recorded in the golden file
_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "plan_golden.json").read_text("utf-8")
)["fiber_cqtustc.yaml"]
PLAN_MU = _GOLDEN["mu"]
PLAN_D = _GOLDEN["d"]
PLAN_N = _GOLDEN["n_pairs"]


def test_bound_zero_divergence():
    assert detection_bias_bound(10**12, 0.0) == 0.0


def test_bound_algebraic_identity():
    assert detection_bias_bound(8, 1.0) == 1.0


def test_bound_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        detection_bias_bound(0, 1.0)
    with pytest.raises(ParameterError):
        detection_bias_bound(8, -1e-9)


def test_bound_reproduces_reference_budget():
    # convention slack: factor 2 on pair count means sqrt(2) on the bias
    eps = bias_for_protocol(
        int(CQTUSTC.pairs), CQTUSTC.signals, CQTUSTC.mu, CQTUSTC.n_bar_a
    )
    assert eps == pytest.approx(ref.BIAS_BOUND_AT_INPUTS["CQTUSTC"], rel=5e-7)
    ratio = eps / CQTUSTC.epsilon
    assert 1.0 / math.sqrt(2.0) <= ratio <= math.sqrt(2.0)


def test_bound_matches_frozen_oracle_all_points():
    for p in ref.FIBER:
        eps = bias_for_protocol(int(p.pairs), p.signals, p.mu, p.n_bar_a)
        assert eps == pytest.approx(ref.BIAS_BOUND_AT_INPUTS[p.name], rel=5e-7)


def test_min_pairs_defining_property_small_case():
    # generous budget, one signal, dim pulse: small N, exact threshold
    n = min_pairs_for_budget(0.49, 1, 1e-3, 1e-3)
    assert type(n) is int
    assert n < 10**6

    def bound_at(m):
        return bias_for_protocol(m, 1, 1e-3, 1e-3)

    assert bound_at(n) <= 0.49
    if n > 1:
        assert bound_at(n - 1) > 0.49


def test_min_pairs_reference_inputs_within_convention_tolerance():
    n = min_pairs_for_budget(CQTUSTC.epsilon, CQTUSTC.signals, CQTUSTC.mu, CQTUSTC.n_bar_a)
    ratio = BINS_PER_PAIR * n / CQTUSTC.bins
    assert 0.5 <= ratio <= 2.0


def test_min_pairs_no_signals():
    assert min_pairs_for_budget(0.01, 0, 0.03, 0.002) == 1


def test_min_pairs_monotonicity_both_directions():
    n = min_pairs_for_budget(0.014, 68651, 3.52e-2, 2.30e-3)
    assert bias_for_protocol(n, 68651, 3.52e-2, 2.30e-3) <= 0.014
    assert bias_for_protocol(n // 2, 68651, 3.52e-2, 2.30e-3) > 0.014


def test_min_pairs_infeasible_under_ceiling():
    # a bright pulse cannot hide a million signals in any pair count the
    # search considers
    with pytest.raises(InfeasibleError, match="no pair count up to 1e\\+16 meets"):
        min_pairs_for_budget(0.001, 10**6, 0.5, 1e-3)


def test_min_pairs_more_signals_than_ceiling_is_infeasible():
    # q = d/N must stay a probability, so no N in [d, ceiling] exists
    with pytest.raises(InfeasibleError, match="no pair count up to 1e\\+16 can carry"):
        min_pairs_for_budget(0.01, DEFAULT_PAIR_CEILING + 1, 0.03, 0.002)


def test_min_pairs_rejects_bad_budget():
    for eps in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(ParameterError):
            min_pairs_for_budget(eps, 100, 0.03, 0.002)
    with pytest.raises(ParameterError):
        min_pairs_for_budget(0.01, -1, 0.03, 0.002)


def test_pair_count_scales_quadratically_in_signals():
    # square-root law read backwards: N ~ d^2 over an octave-spaced span
    ds = [1000, 2000, 4000, 8000]
    ns = [min_pairs_for_budget(0.014, d, 3.52e-2, 2.30e-3) for d in ds]
    coeff = np.mean([n / d**2 for n, d in zip(ns, ds)])
    for n, d in zip(ns, ds):
        assert n == pytest.approx(coeff * d**2, rel=0.10)


@given(
    st.integers(min_value=1, max_value=10**14),
    st.floats(min_value=0.0, max_value=1e-10),
)
def test_bound_monotone_in_both_arguments(n_pairs, d):
    base = detection_bias_bound(n_pairs, d)
    assert detection_bias_bound(2 * n_pairs, d) >= base
    assert detection_bias_bound(n_pairs, 2.0 * d) >= base


@given(
    st.floats(min_value=1e-3, max_value=0.3),
    st.floats(min_value=1e-4, max_value=1e-2),
)
def test_divergence_error_bar_small_at_reference_scale(mu, n_bar):
    # the truncation bar must not pollute the sixth digit
    profile = DivergenceProfile.build(mu, n_bar)
    d = profile.divergence(1e-7)
    if d > 0.0:
        assert profile.error_bound(1e-7) < 1e-6 * d


def oracle_bound(n_pairs: int, d: int, mu: float, n_bar: float):
    with mp.workdps(80):
        q = mp.mpf(d) / n_pairs
        return mp.sqrt(n_pairs * oracles.kl_divergence_highprec(mu, n_bar, q) / 8)


@pytest.mark.parametrize("q", [PLAN_D / PLAN_N, 1.6e-9], ids=["golden plan q", "1.6e-09"])
def test_divergence_matches_oracle_to_1e13(q):
    # the plain -rho log1p(q x) sum was low by 1.9e-9 and 1.1e-7 here
    profile = DivergenceProfile.build(PLAN_MU, CQTUSTC.n_bar_a)
    value = profile.divergence(q)
    exact = oracles.kl_divergence_highprec(PLAN_MU, CQTUSTC.n_bar_a, q)
    assert type(value) is float
    assert abs(value - exact) <= 1e-13 * exact
    assert profile.error_bound(q) <= 1e-13 * exact


def test_bias_never_rises_near_the_plan():
    bias = [
        bias_for_protocol(n, PLAN_D, PLAN_MU, CQTUSTC.n_bar_a)
        for n in range(PLAN_N - 2000, PLAN_N + 2001)
    ]
    assert all(later <= earlier for earlier, later in zip(bias, bias[1:]))


def test_dim_point_pair_count_exact_under_oracle():
    grid = default_mu_grid()
    mu = float(grid[np.argmin(np.abs(grid - 2.09e-4))])
    d = 9_907_515 * 35
    n = min_pairs_for_budget(0.014, d, mu, CQTUSTC.n_bar_a)
    assert oracle_bound(n, d, mu, CQTUSTC.n_bar_a) <= 0.014 * (1 + 1e-13)
    assert oracle_bound(n - 1, d, mu, CQTUSTC.n_bar_a) > 0.014 * (1 - 1e-13)


def test_profile_chi_square_matches_oracle():
    profile = DivergenceProfile.build(CQTUSTC.mu, CQTUSTC.n_bar_a)
    assert profile.chi2 == pytest.approx(ref.CHI_SQUARE["CQTUSTC"], rel=1e-13)
    assert profile.uncovered == 0.0


def test_vacuum_background_names_the_cause():
    with pytest.raises(InfeasibleError, match="vacuum background"):
        min_pairs_for_budget(0.014, 68651, 3.52e-2, 0.0)
    profile = DivergenceProfile.build(3.52e-2, 0.0)
    assert profile.uncovered == pytest.approx(-math.expm1(-3.52e-2), rel=1e-15)
    assert math.isinf(profile.chi2)


def test_vacuum_background_feasible_below_its_limit():
    # limit sqrt(d (1 - e^-mu) / 8) = 0.345 < 0.35 < 0.354 = bound at N = d:
    # the answer lies strictly above the N >= d floor
    n = min_pairs_for_budget(0.35, 10, 0.1, 0.0)
    assert n > 10
    assert bias_for_protocol(n, 10, 0.1, 0.0) <= 0.35
    assert bias_for_protocol(n - 1, 10, 0.1, 0.0) > 0.35


def test_min_pairs_is_the_threshold_on_random_inputs():
    # the answer is the bound's threshold: bound(N) <= epsilon < bound(N - 1).
    # Up to N ~ 1e15 the bound keeps its order pair by pair, so that N is
    # the smallest; above, the search's closed bracket still gives it. Every
    # 10th draw has a vacuum background and a budget a little above its
    # limit, so the search doubles N from d to a bracket
    rng = np.random.default_rng(20261019)
    ordered = vacuum = 0
    for i in range(400):
        if i % 10 == 0:
            d = int(10 ** rng.uniform(0, 4))
            mu, n_bar_a = 10 ** rng.uniform(-6, -1), 0.0
            # D/q = u + q u^2 / 2 + ..., u = 1 - e^-mu, so N / d is near
            # u / (4 x) for a budget of limit (1 + x)
            u = -math.expm1(-mu)
            limit = math.sqrt(d * u / 8.0)
            eps = min(limit * (1.0 + u * 10 ** rng.uniform(-3, -1)), 0.49)
        else:
            d = int(10 ** rng.uniform(0, 8))
            mu, n_bar_a = 10 ** rng.uniform(-4, 0), 10 ** rng.uniform(-3, 1)
            eps = 10 ** rng.uniform(-3, math.log10(0.3))
        try:
            n = min_pairs_for_budget(eps, d, mu, n_bar_a)
        except InfeasibleError:
            continue
        assert type(n) is int and n >= d
        assert bias_for_protocol(n, d, mu, n_bar_a) <= eps
        if n > d:
            assert bias_for_protocol(n - 1, d, mu, n_bar_a) > eps
        ordered += n <= 10**15
        vacuum += n_bar_a == 0.0 and n > 2 * d
    assert ordered >= 250 and vacuum >= 20


# (epsilon, d, mu, n_bar_a) where each Newton step in log N landed at or
# past the far end of the bracket and was clamped one pair inside it, so
# the two ends closed one pair an evaluation: past 300 evaluations each, and
# (0.45, 35, 0.1, 1e-5) did not end. Found by a scan of 1,800 grid inputs
# (epsilon 0.01 to 0.4999999, mu 1e-3 to 1, n_bar_a 1e-6 to 10, d 35 to 1e6)
_FAR_END_STALLS = [
    (0.45, 35, 0.1, 1e-5),
    (0.1, 35, 0.1778279410038923, 1e-6),
    (0.1, 350, 0.1778279410038923, 1e-5),
    (0.3, 350, 0.1778279410038923, 1e-5),
    (0.4, 35000, 0.03162277660168379, 1e-6),
    (0.4, 350, 0.1778279410038923, 1e-5),
    (0.4, 35, 1.0, 1e-4),
    (0.45, 350, 0.1778279410038923, 1e-5),
    (0.45, 35, 1.0, 1e-4),
    (0.49, 350, 0.1778279410038923, 1e-5),
    (0.4999999, 350, 0.1778279410038923, 1e-5),
]


@pytest.mark.parametrize("eps, d, mu, n_bar_a", _FAR_END_STALLS)
def test_min_pairs_bisects_past_the_far_end(monkeypatch, eps, d, mu, n_bar_a):
    # a step past a probed far end bisects the bracket instead; each search
    # ends in few evaluations at the bound's threshold, or is infeasible
    evaluations = 0
    evaluate = security._divergences

    def counted(batch):
        nonlocal evaluations
        evaluations += len(batch)
        assert evaluations <= 64
        return evaluate(batch)

    monkeypatch.setattr(security, "_divergences", counted)
    try:
        n = min_pairs_for_budget(eps, d, mu, n_bar_a)
    except InfeasibleError:
        return
    assert bias_for_protocol(n, d, mu, n_bar_a) <= eps
    assert n == d or bias_for_protocol(n - 1, d, mu, n_bar_a) > eps


def test_min_pairs_gallops_where_steps_shrink_to_a_pair(monkeypatch):
    # a grid point of the fiber_prtysat plan near N = 8.67e15, where D/q is
    # resolved to about a pair: Newton steps moved N down one pair at a
    # time from 8,673,770,585,448,151, 20 evaluations in all. Doubling
    # strides end it in 11 at the same N, whose bound meets the budget
    # while N - 1's does not
    eps, d, mu, n_bar_a = 0.055, 4920, 0.615848211066026, 0.0025
    evaluations = 0
    evaluate = security._divergences

    def counted(batch):
        nonlocal evaluations
        evaluations += len(batch)
        return evaluate(batch)

    monkeypatch.setattr(security, "_divergences", counted)
    n = min_pairs_for_budget(eps, d, mu, n_bar_a)
    assert n == 8_673_770_585_448_136
    assert evaluations <= 11
    assert bias_for_protocol(n, d, mu, n_bar_a) <= eps < bias_for_protocol(n - 1, d, mu, n_bar_a)
