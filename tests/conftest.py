import time

import pytest
from hypothesis import HealthCheck, settings

import covertlink.reliability as reliability
import reference_scenarios as ref
from covertlink.planner import PlanRequest, plan_with_report
from covertlink.reliability import ChannelModel
from make_plan_golden import bundled_configs, request_for, request_key

# scipy warm-up on first call can trip the per-example deadline
settings.register_profile(
    "covertlink",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("covertlink")


def fiber_request(op: ref.OperatingPoint) -> PlanRequest:
    """The default-grid plan request of one fiber reference scenario."""
    return PlanRequest(
        b=op.bits,
        epsilon=op.epsilon,
        target_e=ref.TARGET_ERROR,
        channel=ChannelModel(tau=ref.TAU, n_bar_a=op.n_bar_a, n_bar_b=op.n_bar_b),
        rep_rate_hz=op.rep_rate_hz,
    )


@pytest.fixture(scope="session")
def fiber_plan_reports():
    """Plan every fiber reference scenario once per session.

    Maps scenario name to (request, params, grid report, seconds).
    """
    out = {}
    for op in ref.FIBER:
        req = fiber_request(op)
        start = time.perf_counter()
        params, points = plan_with_report(req)
        out[op.name] = (req, params, points, time.perf_counter() - start)
    return out


@pytest.fixture(scope="session")
def bundled_plans(fiber_plan_reports):
    """{bundled config file name: (request, params, grid report)}, made
    as `covertlink plan` makes them, each distinct plan once.

    Configs that request a fiber reference scenario reuse its session plan.
    """
    made = {
        request_key(req): (req, params, points)
        for req, params, points, _ in fiber_plan_reports.values()
    }
    out = {}
    for path in bundled_configs():
        req = request_for(path)
        key = request_key(req)
        if key not in made:
            made[key] = (req, *plan_with_report(req))
        out[path.name] = made[key]
    return out


@pytest.fixture
def placed_windows(monkeypatch):
    """A list that collects (k, p_w, pi, w_star, nats, a, top) of every
    window reliability._bit_errors places during the test."""
    rows = []
    place = reliability._wrong_vote_window

    def recorded(*row):
        a, top = place(*row)
        rows.append((*row, a, top))
        return a, top

    monkeypatch.setattr(reliability, "_wrong_vote_window", recorded)
    return rows
