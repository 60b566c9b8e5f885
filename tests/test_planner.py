"""Planner: optimality contract, tradeoff directions, reference-point
reproduction, and plan validation."""

import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import covertlink.exceptions as exceptions
import covertlink.fock_stats as fock_stats
import covertlink.planner as planner
import covertlink.reliability as reliability
import covertlink.security as security
from covertlink.exceptions import InfeasibleError, ParameterError
from covertlink.planner import (
    FLATNESS_TOLERANCE,
    PlanRequest,
    ProtocolParams,
    plan,
    plan_with_report,
    validate_plan,
)
from covertlink.reliability import ChannelModel

import oracles
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
    assert [c.name for c in report.checks] == ["detection_bias", "message_error"]


def test_exact_optimality_with_zero_tolerance():
    # the smallest evaluated pair count, before the flatness tolerance
    # trades pairs for a dimmer pulse, is the exact optimum over the grid
    req = reference_request(CQTUSTC, mu_grid=COARSE_GRID)
    _, points = plan_with_report(req)
    best_n, best_mu = min((g.n_pairs, g.mu) for g in points if g.feasible)
    evaluated = [(single_point_pairs(float(mu), req), float(mu)) for mu in COARSE_GRID]
    feasible = [(n, mu) for n, mu in evaluated if n is not None]
    # golden refinement may only improve on the best grid point
    assert best_n <= min(feasible)[0]
    grid_better = [
        (n, mu) for n, mu in feasible if n < best_n or (n == best_n and mu < best_mu)
    ]
    assert not grid_better


def test_flat_valley_tolerance_prefers_dimmer_pulse():
    # the plan is an evaluated point: the dimmest whose pair count stays
    # within FLATNESS_TOLERANCE of the smallest evaluated one
    req = reference_request(CQTUSTC, mu_grid=COARSE_GRID)
    p, points = plan_with_report(req)
    feasible = [g for g in points if g.feasible]
    assert (p.mu, p.k, p.n_pairs) in {(g.mu, g.k, g.n_pairs) for g in feasible}
    floor = min(g.n_pairs for g in feasible)
    budget = floor * (1.0 + FLATNESS_TOLERANCE)
    assert p.n_pairs <= budget
    assert not [g for g in feasible if g.mu < p.mu and g.n_pairs <= budget]
    assert p.predicted_epsilon <= CQTUSTC.epsilon
    assert p.predicted_e <= ref.TARGET_ERROR


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


def test_loud_channel_grid_points_carry_a_reliability_reason():
    # tau = 1 and n_bar_b = 0.5 give p_correct + p_wrong > 1 from mu =
    # ln 2 on: the single-click-per-slot model does not apply there, so
    # those grid points are infeasible for reliability, and the dimmer
    # ones still plan
    req = PlanRequest(
        b=10,
        epsilon=0.05,
        target_e=0.05,
        channel=ChannelModel(tau=1.0, n_bar_a=0.5, n_bar_b=0.5),
        rep_rate_hz=1e6,
        mu_grid=np.geomspace(0.05, 1.0, 20),
    )
    params, points = plan_with_report(req)
    loud = [g for g in points if "exceeds 1" in g.reason]
    assert loud and all(g.reason.startswith("reliability:") for g in loud)
    assert min(g.mu for g in loud) > math.log(2.0)
    assert params.mu < math.log(2.0)
    assert validate_plan(params, req).passed


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
    # grid points carry no message error, and the searches' probes go to
    # the batched evaluator: the one bit_error_prob call is the chosen point's
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


def _reported_errors(monkeypatch) -> list[int]:
    """The k of each bit_error_prob call the planner makes: a batch of one
    on _bit_errors, but no probe of a search."""
    calls = []
    exact = planner.bit_error_prob

    def counted(k, cp):
        calls.append(k)
        return exact(k, cp)

    monkeypatch.setattr(planner, "bit_error_prob", counted)
    return calls


@pytest.mark.parametrize("config, most", [("fiber_qpqi.yaml", 1665), ("fiber_cqtustc.yaml", 2245)])
def test_plan_bounded_probe_count(monkeypatch, config, most):
    # every probe of the repetition searches is evaluated once (memoized
    # per k); a search change that adds probes shows here. The searches
    # yield _bit_errors as the evaluator of their probes, so the batches
    # the planner evaluates pass through this wrapper, every probe counted
    reported = _reported_errors(monkeypatch)
    probes = 0
    evaluate = reliability._bit_errors

    def counted(batch):
        nonlocal probes
        probes += len(batch)
        return evaluate(batch)

    monkeypatch.setattr(reliability, "_bit_errors", counted)
    path = next(p for p in bundled_configs() if p.name == config)
    plan_with_report(request_for(path))
    assert 0 < probes - len(reported) <= most


def test_plan_bounded_divergence_count(monkeypatch):
    # every divergence the pair searches of the 8 bundled plans evaluate
    # (9,390; 9,411 before steps of a pair or two gave way to doubling
    # strides, and 9,413 before a step past the bracket's far end bisected it);
    # a search change that adds evaluations shows here. The searches yield
    # security._divergences as their evaluator, so every batch the
    # planner evaluates passes through this wrapper. Their
    # profiles come a round at a time, and each plan's claims build one
    # through DivergenceProfile.build: 251 _profiles calls in all (255
    # before the repetition searches' steps changed, which shifts the
    # rounds where pair searches start), where the same plans made 2,901
    # lone builds
    evaluations = 0
    evaluate = security._divergences

    def counted(batch):
        nonlocal evaluations
        evaluations += len(batch)
        return evaluate(batch)

    monkeypatch.setattr(security, "_divergences", counted)
    batches = 0
    build = fock_stats._profiles

    def built(items):
        nonlocal batches
        batches += 1
        return build(items)

    monkeypatch.setattr(security, "_profiles", built)
    monkeypatch.setattr(fock_stats, "_profiles", built)
    for path in bundled_configs():
        plan_with_report(request_for(path))
    assert 0 < evaluations <= 9_390
    assert 0 < batches <= 251


def _requests_per_search(monkeypatch, name: str) -> list:
    """A Counter per search of the planner's search generator name, of the
    evaluators its requests name."""
    tallies = []
    make = getattr(planner, name)

    def counted(*args):
        tally = collections.Counter()
        tallies.append(tally)
        search, value = make(*args), None
        while True:
            try:
                request = search.send(value)
            except StopIteration as done:
                return done.value
            tally[request[0].__name__] += 1
            value = yield request

    monkeypatch.setattr(planner, name, counted)
    return tallies


def test_plan_work_per_search(monkeypatch):
    # the work of the 8 bundled plans, where test_plan_bounded_divergence_count's
    # batch count measures how the lockstep rounds line up: 2,901
    # profiles built (2,893 pair searches and the 8 plans' claims), no
    # pair search past 14 D evaluations (2,179 of them make 3; 20 while
    # steps of a pair or two crept above N ~ 1e15), and no
    # repetition search past 5 probes (3,134 of the 3,382 that start
    # probe at all)
    profiles = 0
    build = fock_stats._profiles

    def built(items):
        nonlocal profiles
        profiles += len(items)
        return build(items)

    monkeypatch.setattr(security, "_profiles", built)
    monkeypatch.setattr(fock_stats, "_profiles", built)
    pair_searches = _requests_per_search(monkeypatch, "_pair_search")
    repetition_searches = _requests_per_search(monkeypatch, "_repetition_search")
    for path in bundled_configs():
        plan_with_report(request_for(path))
    assert profiles == 2_901
    evaluations = [tally["_divergences"] for tally in pair_searches]
    assert len(evaluations) == 2_893 and 0 < max(evaluations) <= 14
    probes = [tally["_bit_errors"] for tally in repetition_searches]
    assert sum(probes) == 13_032 and 0 < max(probes) <= 5


def test_plan_checks_each_input_once(monkeypatch):
    # the two input rules run where an input enters, never per repetition
    # probe or per D evaluation: over the 8 bundled plans (3,382 grid
    # points) they run 16,260 times, under five a grid point: click_probs
    # checks mu and ClickProbabilities its two probabilities, and _profiles
    # a pair search's mu and n_bar_a. Each plan's ProtocolParams.derive
    # checks its record twice, before and after the two claims
    calls = collections.Counter()

    def counting(rule):
        def count(*args, **kwargs):
            calls[rule.__name__] += 1
            return rule(*args, **kwargs)

        return count

    rules = ("_check_count", "_check_real")
    wrappers = {name: counting(getattr(exceptions, name)) for name in rules}
    for module in (exceptions, reliability, security, fock_stats, planner):
        for name, wrapper in wrappers.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    searches = _requests_per_search(monkeypatch, "_repetition_search")
    for path in bundled_configs():
        plan_with_report(request_for(path))
    assert len(searches) == 3_382
    assert dict(calls) == {"_check_count": 104, "_check_real": 16_156}


def test_lockstep_batches_equal_the_scalar_references_on_bundled_plans(monkeypatch):
    # every repetition probe (13,032; 13,406 before the Newton steps went
    # by the bit error's excess over its target, and 16,788 while each
    # search probed k = 1 first), every divergence with its slope and every profile of the 8
    # bundled plans, evaluated in the planner's lockstep rounds, against
    # the one-point evaluators kept in oracles: the same doubles, whatever
    # else shares the batch
    recorded = {}

    def recording(module, name):
        batched = getattr(module, name)

        def record(batch):
            out = batched(batch)
            recorded.setdefault(name, []).append((batch, out))
            return out

        monkeypatch.setattr(module, name, record)

    recording(reliability, "_bit_errors")
    recording(security, "_divergences")
    recording(security, "_profiles")
    reported = _reported_errors(monkeypatch)
    for path in bundled_configs():
        plan_with_report(request_for(path))
    for name, one in (
        # every probe's window is summed, so its value is the estimate
        ("_bit_errors", lambda k, cp: oracles.error_bounds_one_probe(k, cp)[1]),
        (
            "_divergences",
            lambda p, q: (oracles.divergence_one_profile(p, q), oracles.slope_one_profile(p, q)),
        ),
    ):
        batches = recorded[name]
        assert max(len(batch) for batch, _ in batches) > 1
        pairs = [pair for batch, out in batches for pair in zip(batch, out)]
        assert [got for _, got in pairs] == [one(*item) for item, _ in pairs]
    assert sum(len(batch) for batch, _ in recorded["_bit_errors"]) - len(reported) == 13_032
    # each profile of a round's batch is the lone build's, field by field
    batches = recorded["_profiles"]
    assert max(len(batch) for batch, _ in batches) > 1
    for batch, out in batches:
        for item, got in zip(batch, out):
            lone = oracles.build_one_profile(*item)
            assert np.array_equal(got.rho, lone.rho) and np.array_equal(got.x, lone.x)
            assert (got.tail_rho, got.tail_s, got.chi2, got.uncovered) == (
                lone.tail_rho,
                lone.tail_s,
                lone.chi2,
                lone.uncovered,
            )


def test_bundled_windows_contain_the_bisections_with_few_extra_terms(placed_windows):
    # every window [a, top] the repetition probes of the 8 bundled plans
    # sum (13,040) contains the narrowest one, which the two bisections
    # kept in oracles place, and leaves out exp(-nats) or less at either
    # end by the Chernoff bounds. The windows sum 8,156,896 terms, 6.6 %
    # more than the narrowest windows' 7,650,987; a placement that widens
    # them shows here
    for path in bundled_configs():
        plan_with_report(request_for(path))
    assert len(placed_windows) == 13_040
    terms = 0
    for k, p_w, pi, w_star, nats, a, top in placed_windows:
        k, a, top = int(k), int(a), int(top)
        low, high = oracles.wrong_vote_window(k, p_w, pi, w_star, nats)
        assert a <= low and high <= top
        assert min(oracles.window_tail_rates(k, p_w, pi, a, top)) >= nats
        terms += top - a + 1
    assert terms <= 8_160_000


@pytest.mark.parametrize("config", ["fiber_cqtustc.yaml", "fiber_qpqi.yaml"])
def test_plan_peak_memory(config):
    # the searches of at most _LOCKSTEP_GROUP grid points share a round's
    # batches, and an anchored window sum pass takes at most
    # _special._TERM_BUDGET padded terms at a time (peaks of about 0.76
    # and 0.91 MB; 2.7 and 2.5 MB when all 400 grid points advanced at once)
    req = request_for(next(p for p in bundled_configs() if p.name == config))
    tracemalloc.start()
    try:
        plan_with_report(req)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


@pytest.mark.parametrize(
    "config, most", [("fiber_qpqi.yaml", 150_000), ("fiber_cqtustc.yaml", 200_000)]
)
def test_plan_boost_pmf_terms(monkeypatch, config, most):
    # the repetition probes evaluate the binomial pmf itself at three terms
    # of a short window (the first of each pmf, and F(a)'s top term) and at
    # one term in 256 of a long one, and step by exact ratios between:
    # 26,326 and 6,572 terms (6,116,392 and 605,924 when every term was
    # boost's; these bounds held while boost gave every term of a short
    # window)
    terms = []
    pmf = reliability._log_binom_pmf

    def counted(*args):
        terms.append(np.broadcast(*args).size)
        return pmf(*args)

    monkeypatch.setattr(reliability, "_log_binom_pmf", counted)
    path = next(p for p in bundled_configs() if p.name == config)
    plan_with_report(request_for(path))
    assert sum(terms) <= most


def test_bundled_probes_stay_within_1e_11_of_boost(monkeypatch):
    # every repetition probe of the 8 bundled plans (13,032, and the
    # planner's reported errors) against the same window summed on boost's
    # pmf and cdf, as the library summed it when it called scipy
    probes = []
    batched = reliability._bit_errors

    def record(batch):
        out = batched(batch)
        probes.extend(zip(batch, out))
        return out

    monkeypatch.setattr(reliability, "_bit_errors", record)
    for path in bundled_configs():
        plan_with_report(request_for(path))
    assert len(probes) >= 13_032
    worst = 0.0
    for (k, cp), got in probes:
        expected = oracles.boost_bit_error(k, cp)
        worst = max(worst, abs(got - expected) / expected)
    assert worst <= 1e-11


def test_validation_catches_halved_pair_count(cqtustc_plan):
    p = cqtustc_plan
    n_half = p.n_pairs // 2
    broken = dataclasses.replace(
        p,
        n_pairs=n_half,
        q=p.d / n_half,
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


# plan field -> the request that differs from the plan in it
REQUEST_MISMATCHES = {
    "b": dict(b=CQTUSTC.bits + 1),
    "channel": dict(
        channel=ChannelModel(tau=ref.TAU / 2, n_bar_a=CQTUSTC.n_bar_a, n_bar_b=CQTUSTC.n_bar_b)
    ),
    "rep_rate_hz": dict(rep_rate_hz=2 * CQTUSTC.rep_rate_hz),
    "epsilon_target": dict(epsilon=CQTUSTC.epsilon / 2),
    "target_e": dict(target_e=ref.TARGET_ERROR / 2),
}


@pytest.mark.parametrize("name", REQUEST_MISMATCHES)
def test_validation_refuses_a_plan_made_for_another_request(cqtustc_plan, name):
    req = reference_request(CQTUSTC, **REQUEST_MISMATCHES[name])
    with pytest.raises(ParameterError, match=f"plan document carries {name} = "):
        validate_plan(cqtustc_plan, req)


def test_validation_of_a_plan_with_no_signals():
    # d = 0 hides perfectly and delivers nothing
    req = reference_request(CQTUSTC)
    silent = ProtocolParams(
        b=req.b,
        d=0,
        k=0,
        q=0.0,
        n_pairs=1000,
        mu=0.01,
        predicted_epsilon=0.0,
        predicted_e=1.0,
        channel=req.channel,
        rep_rate_hz=req.rep_rate_hz,
        epsilon_target=req.epsilon,
        target_e=req.target_e,
    )
    report = validate_plan(silent, req)
    assert [(c.name, c.passed, c.value) for c in report.checks] == [
        ("detection_bias", True, 0.0),
        ("message_error", False, 1.0),
    ]
    assert not report.passed


def test_the_no_signal_plan_computes_no_claim(monkeypatch, cqtustc_plan):
    # derive's k = 0 record builds no profile and sums no bit error, so an
    # over-bright mu cannot make it fail, and validate_plan re-forms it
    def fail(items):
        raise AssertionError("a no-signal plan computed a claim")

    monkeypatch.setattr(fock_stats, "_profiles", fail)
    monkeypatch.setattr(reliability, "_bit_errors", fail)
    req = reference_request(CQTUSTC)
    silent = ProtocolParams.derive(
        b=req.b,
        k=0,
        n_pairs=1000,
        mu=0.01,
        channel=req.channel,
        rep_rate_hz=req.rep_rate_hz,
        epsilon_target=req.epsilon,
        target_e=req.target_e,
    )
    assert (silent.d, silent.q, silent.predicted_epsilon, silent.predicted_e) == (0, 0.0, 0.0, 1.0)
    bright = dataclasses.replace(cqtustc_plan, mu=1e300).rederive(k=0)
    assert (bright.mu, bright.d, bright.predicted_e) == (1e300, 0, 1.0)
    report = validate_plan(silent, req)
    assert [(c.name, c.passed, c.value) for c in report.checks] == [
        ("detection_bias", True, 0.0),
        ("message_error", False, 1.0),
    ]


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
        ProtocolParams(**{**good, "d": 0, "k": 2})
    # the counts are integers: numpy's are, floats and bools are not
    ProtocolParams(**{**good, "k": np.int64(2), "n_pairs": np.uint64(1000)})
    for name, value in (("b", 5.0), ("d", 10.0), ("k", True), ("n_pairs", 1000.5)):
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            ProtocolParams(**{**good, name: value})


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
    with pytest.raises(ParameterError, match="below MIN_TARGET_ERROR = 1e-300"):
        PlanRequest(**{**base, "target_e": 1e-305})
    PlanRequest(**{**base, "target_e": 1e-300})
    with pytest.raises(ParameterError):
        PlanRequest(**{**base, "rep_rate_hz": 0.0})
    # ProtocolParams refuses these; the request refuses them before planning
    for name, value in (
        ("b", 35.5),
        ("b", True),
        ("rep_rate_hz", math.nan),
        ("rep_rate_hz", math.inf),
    ):
        with pytest.raises(ParameterError, match=name):
            PlanRequest(**{**base, name: value})
    with pytest.raises(ParameterError):
        PlanRequest(**{**base, "mu_grid": np.array([])})
    with pytest.raises(ParameterError):
        PlanRequest(**{**base, "mu_grid": np.array([0.0, 0.1])})
