"""Every schema-valid input ends cleanly: a bounded sweep of the config
schema, drawn across decades and at its edges, through the planner, the
validator and the plan document."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertlink import cli, planner
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
