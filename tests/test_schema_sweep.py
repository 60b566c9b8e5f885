"""Every schema-valid input ends cleanly: a bounded sweep of the config
schema, drawn across decades and at its edges, through the planner, the
validator and the plan document, and one of the monitoring keys through
the adversary's traces."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertlink import cli, planner, simulator
from covertlink.codec import ALPHABET
from covertlink.exceptions import InfeasibleError, ParameterError
from covertlink.fileio import params_from_document, params_to_document
from covertlink.reliability import MIN_TARGET_ERROR

# 25 grid values, where plans use 400, keep each draw to a fraction of a second
_MU_GRID = np.geomspace(1e-4, 1.0, 25)

# bounded work: repetition probes per repetition search and divergence
# evaluations per pair search. Each search stalled on a schema-valid
# config before its Newton steps were guarded: 3,987 probes at
# target_error 0.9999, and an endless pair search at epsilon 0.45 on
# n_bar_a = 1e-5
_MOST_PROBES = 40
_MOST_EVALUATIONS = 64


def _decades(lo: float, hi: float):
    """10**e, e uniform in [lo, hi]: values across decades."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def _edges_or(*edges, values):
    return st.one_of(st.sampled_from(edges), values)


# n_bar_a stays at 10 or below, short of the range ROADMAP item 3 fixes:
# the profile support grows as 69 n_bar_a terms, and a plan at 1e3 takes
# seconds. Messages of up to 60 characters carry b up to 300 bits
_CONFIGS = st.fixed_dictionaries(
    {
        "message": st.text(alphabet=ALPHABET, min_size=1, max_size=60),
        "epsilon": _edges_or(
            0.5 - 1e-7, 0.45, 1e-4, values=_decades(-3, math.log10(0.5 - 1e-7))
        ),
        "target_error": _edges_or(
            MIN_TARGET_ERROR, 0.999, 0.9999999, 1.0 - 1e-7, values=_decades(-30, -1e-7)
        ),
        "channel": st.fixed_dictionaries(
            {
                "tau": _edges_or(1.0, values=_decades(-2, 0)),
                "n_bar_a": _edges_or(0.0, values=_decades(-6, 1)),
                "n_bar_b": _edges_or(0.0, values=_decades(-6, 1)),
            }
        ),
        "rep_rate_hz": _edges_or(1e-300, values=_decades(-300, 300)),
    }
)


def _counted(search, evaluator: str, most: int):
    """search, a generator for reliability._lockstep, failing the test once
    it asks evaluator for more than most values."""

    def counting(*args):
        run, value, asked = search(*args), None, 0
        while True:
            try:
                request = run.send(value)
            except StopIteration as done:
                return done.value
            asked += request[0].__name__ == evaluator
            assert asked <= most, (evaluator, args)
            value = yield request

    return counting


@settings(max_examples=60, derandomize=True, deadline=None)
@given(raw=_CONFIGS)
def test_every_schema_valid_config_plans_or_says_why(raw):
    # a plan that passes validate_plan and comes back from its document
    # unchanged, or an InfeasibleError or ParameterError with its reason
    with pytest.MonkeyPatch.context() as patch:
        for name, evaluator, most in (
            ("_repetition_search", "_bit_errors", _MOST_PROBES),
            ("_pair_search", "_divergences", _MOST_EVALUATIONS),
        ):
            patch.setattr(planner, name, _counted(getattr(planner, name), evaluator, most))
        try:
            cfg = {key: cli._RULES[key](value, key) for key, value in raw.items()}
            req, _ = cli._request_from_config(cfg)
            params, _ = planner.plan_with_report(dataclasses.replace(req, mu_grid=_MU_GRID))
        except (InfeasibleError, ParameterError) as exc:
            assert str(exc)
            return
    assert planner.validate_plan(params, req).passed
    assert params_from_document(params_to_document(params)) == params


@pytest.fixture(scope="module")
def desk_plan():
    """fiber_cqtustc's plan at its desk scale (rescale 14), made once."""
    cfg = cli.load_config(Path(cli.__file__).parent / "configs" / "fiber_cqtustc.yaml")
    return cli._planned_params({**cfg, "rescale": 14.0})[0]


def _monitoring(rate: float, pairs: float, intervals: float) -> tuple[float, float, float]:
    """(rep_rate_hz, monitor_duration_s, monitor_interval_s) for intervals
    that each hold about this many pairs at this rate."""
    interval = 2.0 * pairs / rate
    return rate, intervals * interval, interval


# At 2 Hz an interval of t s holds t pairs: 2^62 - 1 rounds up to 2^62, one
# past the most allowed, and the double below 2^62 is the most allowed
_MONITORING = st.builds(
    _monitoring,
    _edges_or(2.0, values=_decades(-300, 300)),
    _edges_or(2**62 - 1, math.nextafter(2.0**62, 0.0), values=_decades(-1, 20)),
    _edges_or(10, 1e5, 9.99, 100_001, values=_decades(0, 6)),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(drawn=_MONITORING)
def test_every_schema_valid_monitoring_gives_traces_or_says_why(desk_plan, drawn):
    # two traces of finite, non-negative counts, one per interval, or a
    # ParameterError with its reason
    keys = ("rep_rate_hz", "monitor_duration_s", "monitor_interval_s")
    try:
        rate, duration, interval = (cli._RULES[key](value, key) for key, value in zip(keys, drawn))
        n_intervals = simulator.monitor_interval_count(duration, interval)
        simulator.monitor_pairs_per_interval(rate, interval)
        p = dataclasses.replace(desk_plan, rep_rate_hz=rate)
        traces = [
            simulator.simulate_monitoring(p, on, duration, interval, 5) for on in (True, False)
        ]
    except ParameterError as exc:
        assert str(exc)
        return
    for trace in traces:
        assert trace.counts.shape == (n_intervals,)
        assert np.all(np.isfinite(trace.counts)) and np.all(trace.counts >= 0)
