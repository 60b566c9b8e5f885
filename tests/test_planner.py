"""Planner: optimality contract, tradeoff directions, reference-point
reproduction, and plan validation."""

import dataclasses
import math

import numpy as np
import pytest

import covertlink.planner as planner
import covertlink.reliability as reliability
from covertlink.exceptions import InfeasibleError, ParameterError
from covertlink.planner import (
    PlanRequest,
    ProtocolParams,
    plan,
    plan_with_report,
    validate_plan,
)
from covertlink.reliability import ChannelModel

import reference_scenarios as ref
from make_plan_golden import bundled_configs, request_for

CQTUSTC = ref.FIBER_BY_NAME["CQTUSTC"]

# coarse grid keeps exhaustive-comparison tests fast
COARSE_GRID = np.geomspace(5e-3, 0.5, 40)


def reference_request(point, **overrides) -> PlanRequest:
    kw = dict(
        b=point.bits,
        epsilon=point.epsilon,
        target_e=ref.TARGET_ERROR,
        channel=ChannelModel(
            tau=ref.TAU, n_bar_a=point.n_bar_a, n_bar_b=point.n_bar_b
        ),
        rep_rate_hz=point.rep_rate_hz,
    )
    kw.update(overrides)
    return PlanRequest(**kw)


@pytest.fixture(scope="module")
def cqtustc_plan(fiber_plan_reports) -> ProtocolParams:
    # the session plan of reference_request(CQTUSTC)
    return fiber_plan_reports["CQTUSTC"][1]


def single_point_pairs(mu: float, req: PlanRequest):
    """Evaluate one mu by planning on a one-point grid."""
    one = dataclasses.replace(req, mu_grid=np.array([mu]))
    try:
        p = plan(one)
    except InfeasibleError:
        return None
    return p.n_pairs


def test_degenerate_request_self_consistent():
    req = PlanRequest(
        b=1,
        epsilon=0.49,
        target_e=0.99,
        channel=ChannelModel(tau=1.0, n_bar_a=0.0, n_bar_b=0.0),
        rep_rate_hz=1e6,
    )
    p = plan(req)
    assert p.k == 1
    assert p.n_pairs <= 10
    assert p.predicted_epsilon <= req.epsilon
    assert p.predicted_e <= req.target_e
    assert validate_plan(p, req).passed


def test_reference_plan_reproduces_published_column(cqtustc_plan):
    p = cqtustc_plan
    assert p.mu == pytest.approx(CQTUSTC.mu, rel=0.30)
    assert p.d == pytest.approx(CQTUSTC.signals, rel=0.30)
    assert p.k == pytest.approx(CQTUSTC.repetitions, rel=0.30)
    assert 0.5 <= p.bins_total / CQTUSTC.bins <= 2.0
    assert p.running_time_s == p.bins_total / CQTUSTC.rep_rate_hz


def test_reference_plan_meets_both_targets(cqtustc_plan):
    p = cqtustc_plan
    assert p.predicted_epsilon <= CQTUSTC.epsilon
    assert p.predicted_e <= ref.TARGET_ERROR
    assert p.d == p.k * p.b
    assert p.q == pytest.approx(p.d / p.n_pairs, rel=1e-12)


def test_plan_validates_round_trip(cqtustc_plan):
    report = validate_plan(cqtustc_plan, reference_request(CQTUSTC))
    assert report.passed
    names = {c.name for c in report.checks}
    assert {"detection_bias", "message_error", "running_time"} <= names


def test_exact_optimality_with_zero_tolerance():
    req = reference_request(CQTUSTC, mu_grid=COARSE_GRID, flatness_tolerance=0.0)
    p = plan(req)
    evaluated = [(single_point_pairs(float(mu), req), float(mu)) for mu in COARSE_GRID]
    feasible = [(n, mu) for n, mu in evaluated if n is not None]
    best_n, best_mu = min(feasible)
    # golden refinement may only improve on the best grid point
    assert p.n_pairs <= best_n
    grid_better = [
        (n, mu) for n, mu in feasible if n < p.n_pairs or (n == p.n_pairs and mu < p.mu)
    ]
    assert not grid_better


def test_flat_valley_tolerance_prefers_dimmer_pulse():
    exact = plan(
        reference_request(CQTUSTC, mu_grid=COARSE_GRID, flatness_tolerance=0.0)
    )
    relaxed = plan(reference_request(CQTUSTC, mu_grid=COARSE_GRID))
    assert relaxed.mu <= exact.mu
    assert relaxed.n_pairs <= math.ceil(1.05 * exact.n_pairs)
    assert relaxed.predicted_epsilon <= CQTUSTC.epsilon
    assert relaxed.predicted_e <= ref.TARGET_ERROR


def test_tightening_epsilon_needs_more_pairs():
    loose = plan(reference_request(CQTUSTC, mu_grid=COARSE_GRID))
    tight = plan(reference_request(CQTUSTC, mu_grid=COARSE_GRID, epsilon=0.007))
    assert tight.n_pairs >= loose.n_pairs


def test_tightening_message_error_needs_more_signals():
    loose = plan(reference_request(CQTUSTC, mu_grid=COARSE_GRID))
    tight = plan(
        reference_request(CQTUSTC, mu_grid=COARSE_GRID, target_e=1e-3)
    )
    assert tight.d >= loose.d


def test_higher_noise_shortens_low_rate_runs():
    # at 500 kHz the noisy channel hides signals in far fewer bins
    quiet = plan(
        PlanRequest(
            b=20,
            epsilon=0.067,
            target_e=0.01,
            channel=ChannelModel(tau=ref.TAU, n_bar_a=3e-3, n_bar_b=3e-3),
            rep_rate_hz=5e5,
            mu_grid=COARSE_GRID,
        )
    )
    noisy = plan(
        PlanRequest(
            b=20,
            epsilon=0.067,
            target_e=0.01,
            channel=ChannelModel(tau=ref.TAU, n_bar_a=0.60, n_bar_b=0.68),
            rep_rate_hz=5e5,
            mu_grid=COARSE_GRID,
        )
    )
    assert noisy.bins_total < quiet.bins_total


def test_plan_infeasible_dead_channel():
    req = PlanRequest(
        b=35,
        epsilon=0.014,
        target_e=0.01,
        channel=ChannelModel(tau=0.0, n_bar_a=2.3e-3, n_bar_b=3.18e-3),
        rep_rate_hz=5e8,
        mu_grid=COARSE_GRID,
    )
    with pytest.raises(InfeasibleError):
        plan(req)


def test_report_covers_grid():
    req = reference_request(CQTUSTC, mu_grid=COARSE_GRID)
    params, points = plan_with_report(req)
    assert len(points) >= COARSE_GRID.size
    assert any(p.feasible for p in points)
    assert params.n_pairs >= 1


@pytest.mark.parametrize("config", ["fiber_qpqi.yaml", "fiber_cqtustc.yaml"])
def test_plan_sums_the_message_error_once(monkeypatch, config):
    # grid points carry no message error, and every probe of these plans'
    # searches settles on its bounds: the one exact sum is the chosen point's
    calls = []
    exact = reliability.bit_error_prob

    def counted(k, cp):
        calls.append(k)
        return exact(k, cp)

    for module in (reliability, planner):
        monkeypatch.setattr(module, "bit_error_prob", counted)
    path = next(p for p in bundled_configs() if p.name == config)
    params, _ = plan_with_report(request_for(path))
    assert calls == [params.k]


@pytest.mark.parametrize(
    "config, most", [("fiber_qpqi.yaml", 150_000), ("fiber_cqtustc.yaml", 200_000)]
)
def test_plan_boost_pmf_terms(monkeypatch, config, most):
    # the bounded probes call boost at one term in 256 of a long window
    # and step by exact ratios between (6,116,392 and 605,924 terms when
    # every term was boost's)
    terms = []
    boost = reliability._binom_pmf

    def counted(*args):
        terms.append(np.broadcast(*args).size)
        return boost(*args)

    monkeypatch.setattr(reliability, "_binom_pmf", counted)
    path = next(p for p in bundled_configs() if p.name == config)
    plan_with_report(request_for(path))
    assert sum(terms) <= most


def test_validation_catches_halved_pair_count(cqtustc_plan):
    p = cqtustc_plan
    n_half = p.n_pairs // 2
    broken = dataclasses.replace(
        p,
        n_pairs=n_half,
        q=p.d / n_half,
        running_time_s=2 * n_half / p.rep_rate_hz,
    )
    report = validate_plan(broken, reference_request(CQTUSTC))
    failed = {c.name for c in report.checks if not c.passed}
    assert "detection_bias" in failed


def test_validation_catches_halved_repetitions(cqtustc_plan):
    p = cqtustc_plan
    k_half = p.k // 2
    broken = dataclasses.replace(
        p,
        k=k_half,
        d=k_half * p.b,
        q=k_half * p.b / p.n_pairs,
    )
    report = validate_plan(broken, reference_request(CQTUSTC))
    failed = {c.name for c in report.checks if not c.passed}
    assert "message_error" in failed


def test_protocol_params_structural_checks():
    good = dict(
        b=5,
        d=10,
        k=2,
        q=10 / 1000,
        n_pairs=1000,
        mu=0.03,
        predicted_epsilon=0.01,
        predicted_e=0.005,
        running_time_s=2000 / 1e6,
        channel=ChannelModel(tau=0.18, n_bar_a=1e-3, n_bar_b=1e-3),
        rep_rate_hz=1e6,
        epsilon_target=0.014,
        target_e=0.01,
    )
    ProtocolParams(**good)
    with pytest.raises(ParameterError):
        ProtocolParams(**{**good, "d": 11})
    with pytest.raises(ParameterError):
        ProtocolParams(**{**good, "q": 0.5})
    with pytest.raises(ParameterError):
        ProtocolParams(**{**good, "running_time_s": 1.0})
    with pytest.raises(ParameterError):
        ProtocolParams(**{**good, "d": 0, "k": 2})


def test_plan_request_validation():
    channel = ChannelModel(tau=0.18, n_bar_a=1e-3, n_bar_b=1e-3)
    base = dict(
        b=35, epsilon=0.014, target_e=0.01, channel=channel, rep_rate_hz=5e8
    )
    with pytest.raises(ParameterError):
        PlanRequest(**{**base, "b": 0})
    with pytest.raises(ParameterError):
        PlanRequest(**{**base, "epsilon": 0.6})
    with pytest.raises(ParameterError):
        PlanRequest(**{**base, "target_e": 0.0})
    with pytest.raises(ParameterError):
        PlanRequest(**{**base, "rep_rate_hz": 0.0})
    with pytest.raises(ParameterError):
        PlanRequest(**{**base, "mu_grid": np.array([])})
    with pytest.raises(ParameterError):
        PlanRequest(**{**base, "mu_grid": np.array([0.0, 0.1])})
    with pytest.raises(ParameterError):
        PlanRequest(**{**base, "flatness_tolerance": -0.1})
