"""The package's exported names stay in step with its code, its entry
points refuse a bad input by name, importing it loads no scipy, and its
modules parse on the oldest Python it supports."""

import ast
import dataclasses
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covertlink
from covertlink import codec, reliability, security, simulator
from covertlink.exceptions import ParameterError
from covertlink.planner import ProtocolParams

# CQTUSTC's channel, and its click probabilities at mu = 0.0348
_CHANNEL = reliability.ChannelModel(0.18, 2.30e-3, 3.18e-3)
_CP = reliability.click_probs(0.0348, _CHANNEL)
# a small plan of CQTUSTC's 35 bits, and a position layout for it
_PARAMS = ProtocolParams.derive(
    b=35,
    k=10,
    n_pairs=10_000,
    mu=0.0348,
    channel=_CHANNEL,
    rep_rate_hz=5e8,
    epsilon_target=0.014,
    target_e=0.01,
)
_BITS = codec.encode_message("CQTUSTC")
_LAYOUT = codec.choose_positions(codec.SharedRandomness(1), _PARAMS.n_pairs, _PARAMS.q, _BITS)


def _replaced(**changes):
    """A call that builds _PARAMS with the fields in changes replaced."""
    return functools.partial(dataclasses.replace, _PARAMS, **changes)


def test_all_names_are_unique():
    assert len(covertlink.__all__) == len(set(covertlink.__all__))


def test_all_names_resolve_on_the_package():
    missing = [name for name in covertlink.__all__ if not hasattr(covertlink, name)]
    assert missing == []


def test_all_names_are_public():
    assert [name for name in covertlink.__all__ if name.startswith("_")] == []


def test_modules_parse_with_python_3_10_grammar():
    """Syntax only, against requires-python >= 3.10: a name or library call
    that 3.10 lacks still passes."""
    modules = sorted(Path(covertlink.__file__).resolve().parent.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text("utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize(
    "entry, args, name",
    [
        (security.detection_bias_bound, (math.nan, 1e-16), "n_pairs"),
        (security.bias_for_protocol, (0, 10, 0.03, 2.3e-3), "n_pairs"),
        (reliability.click_probs, (math.nan, reliability.ChannelModel(0.18, 0.0, 0.0)), "mu"),
        (security.min_pairs_for_budget, (0.01, math.nan, 0.03, 1e-3), "d_signals"),
        (security.bias_for_protocol, (math.inf, 5, 0.03, 2.3e-3), "n_pairs"),
        (security.detection_bias_bound, (math.inf, 1e-16), "n_pairs"),
        (reliability.min_repetitions, (0.01, 35.5, _CP), "b"),
        (reliability.min_repetitions, (0.01, True, _CP), "b"),
        (reliability.message_error_prob, (0.1, 2.5), "b"),
        (reliability.bit_error_prob, (True, _CP), "k"),
        (security.min_pairs_for_budget, (0.014, 66570.5, 0.0348, 2.3e-3), "d_signals"),
        (security.min_pairs_for_budget, (0.014, True, 0.0348, 2.3e-3), "d_signals"),
        (security.bias_for_protocol, (10**11, 66570.5, 0.0348, 2.3e-3), "d_signals"),
        (security.detection_bias_bound, (1000.5, 1e-6), "n_pairs"),
        (security.detection_bias_bound, (True, 1e-6), "n_pairs"),
        (security.bias_for_protocol, (1000000.5, 10, 0.03, 2.3e-3), "n_pairs"),
        (security.bias_for_protocol, (True, 0, 0.03, 2.3e-3), "n_pairs"),
        (codec.choose_positions, (codec.SharedRandomness(1), 1000.5, 0.5, _BITS), "n_pairs"),
        (codec.choose_positions, (codec.SharedRandomness(1), True, 0.5, _BITS), "n_pairs"),
        (simulator.run_distinguisher, (_PARAMS, 100.5, 1), "trials"),
        (simulator.run_distinguisher, (_PARAMS, 150.0, 1), "trials"),
        (reliability.click_probs, (math.inf, reliability.ChannelModel(0.18, 0.0, 0.0)), "mu"),
        (simulator.simulate_transmission, (_PARAMS, _LAYOUT, -1), "seed"),
        (codec.SharedRandomness(-1).generator, ("positions",), "seed"),
        (codec.PositionPlan, (10_000.5, 35, _LAYOUT.positions, _LAYOUT.bit_value), "n_pairs"),
        (codec.PositionPlan, (10_000, 35.0, _LAYOUT.positions, _LAYOUT.bit_value), "b"),
        (_replaced(epsilon_target=math.nan), (), "epsilon_target"),
        (_replaced(target_e=math.nan), (), "target_e"),
        (_replaced(target_e=0.0), (), "target_e"),
    ],
    ids=[
        "detection_bias_bound-nan",
        "bias_for_protocol-zero",
        "click_probs-nan",
        "min_pairs_for_budget-nan",
        "bias_for_protocol-inf",
        "detection_bias_bound-inf",
        "min_repetitions-fraction",
        "min_repetitions-bool",
        "message_error_prob-fraction",
        "bit_error_prob-bool",
        "min_pairs_for_budget-fraction",
        "min_pairs_for_budget-bool",
        "bias_for_protocol-fraction",
        "detection_bias_bound-fraction",
        "detection_bias_bound-bool",
        "bias_for_protocol-fractional-pairs",
        "bias_for_protocol-bool",
        "choose_positions-fraction",
        "choose_positions-bool",
        "run_distinguisher-fraction",
        "run_distinguisher-float",
        "click_probs-inf",
        "simulate_transmission-negative-seed",
        "shared_randomness-negative-seed",
        "position_plan-fractional-pairs",
        "position_plan-float-bits",
        "protocol_params-nan-epsilon-target",
        "protocol_params-nan-target-e",
        "protocol_params-zero-target-e",
    ],
)
def test_entry_points_refuse_nan_and_zero_inputs_by_name(entry, args, name):
    with pytest.raises(ParameterError, match=f"^{name} must"):
        entry(*args)


def test_distinguisher_refuses_trials_past_its_cap_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew trials past the cap")

    monkeypatch.setattr(simulator, "_rng", no_draw)
    with pytest.raises(ParameterError, match=r"^trials must be an integer in \[100, 1000000\]"):
        simulator.run_distinguisher(_PARAMS, 10**6 + 1, 1)


def test_derive_refuses_a_plan_past_the_planner_limits_before_its_claims(monkeypatch):
    def no_sum(probes):
        raise AssertionError("summed the bit error of a plan past the planner's limits")

    monkeypatch.setattr(reliability, "_bit_errors", no_sum)
    with pytest.raises(ParameterError, match=r"^k = 1e\+08, .* MAX_REPETITIONS = 1e\+07$"):
        ProtocolParams.derive(
            b=35,
            k=10**8,
            n_pairs=10**12,
            mu=0.0348,
            channel=_CHANNEL,
            rep_rate_hz=5e8,
            epsilon_target=0.014,
            target_e=0.01,
        )


@pytest.mark.parametrize(
    "entry, args",
    [
        (reliability.min_repetitions, (0.01, 35, _CP)),
        (security.min_pairs_for_budget, (0.014, 66570, 0.0348, 2.3e-3)),
    ],
    ids=["min_repetitions", "min_pairs_for_budget"],
)
def test_entry_points_take_numpy_integer_counts(entry, args):
    # a count is any integer, numpy's too, with the plain int's answer
    counted = tuple(np.int64(a) if type(a) is int else a for a in args)
    assert entry(*counted) == entry(*args)


def _run_python(code: str, *args: str) -> str:
    """Stdout of a fresh interpreter running code, with this covertlink importable."""
    src = str(Path(covertlink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return run.stdout


@pytest.mark.parametrize("module", ["covertlink", "covertlink.cli"])
def test_import_loads_no_scipy(module):
    # the library and its command line run on numpy alone: importing
    # scipy.special alone took 0.16-0.19 s of every command
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _run_python(code).strip() == "[]"
