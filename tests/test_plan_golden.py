"""Planner answers on every bundled config against the recorded golden file.

tests/data/plan_golden.json was written by tests/make_plan_golden.py.
Every recorded integer, the pair count N among them, the chosen mu, the
predicted message error, both grid counts and each grid value's (mu,
feasible, k) must match exactly. Each returned N must also be the exact
minimum under the 80-digit oracle.
"""

import json
from pathlib import Path

import mpmath as mp
import pytest

import oracles
from make_plan_golden import bundled_configs, golden_record
from covertlink.planner import ProtocolParams, validate_plan

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "plan_golden.json").read_text("utf-8")
)
ORACLE_REL_TOL = 1e-13


@pytest.fixture(scope="module")
def fresh(bundled_plans):
    """{config name: (request, params, record)} from the session's plans."""
    return {
        name: (req, params, golden_record(req, params, points))
        for name, (req, params, points) in bundled_plans.items()
    }


def test_golden_covers_every_bundled_config():
    assert sorted(GOLDEN) == sorted(p.name for p in bundled_configs())
    assert len(GOLDEN) == 8


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_plan_matches_golden(fresh, name):
    _, _, record = fresh[name]
    gold = GOLDEN[name]
    assert len(record["grid"]) == 400
    assert record == gold


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_plan_is_derived_from_its_integers(fresh, name):
    # one rule forms every field and both claims from (b, k, N, mu), and
    # validate_plan re-derives the same claims, as rederive does from the
    # plan's own inputs
    req, params, _ = fresh[name]
    derived = ProtocolParams.derive(
        b=params.b,
        k=params.k,
        n_pairs=params.n_pairs,
        mu=params.mu,
        channel=req.channel,
        rep_rate_hz=req.rep_rate_hz,
        epsilon_target=req.epsilon,
        target_e=req.target_e,
    )
    assert derived == params == params.rederive()
    checks = {c.name: c.value for c in validate_plan(params, req).checks}
    assert checks["detection_bias"] == params.predicted_epsilon
    assert checks["message_error"] == params.predicted_e


def oracle_bound(params, n_pairs: int):
    with mp.workdps(80):
        q = mp.mpf(params.d) / n_pairs
        d_mode = oracles.kl_divergence_highprec(params.mu, params.channel.n_bar_a, q)
        return mp.sqrt(n_pairs * d_mode / 8)


@pytest.mark.parametrize(
    "name", ["cw_cqtustc.yaml", "cw_prtysat.yaml", "cw_qpqi.yaml",
             "fiber_cqtustc.yaml", "fiber_prtysat.yaml", "fiber_qpqi.yaml"]
)
def test_plan_pair_count_is_exact_minimum_under_oracle(fresh, name):
    _, params, _ = fresh[name]
    eps = params.epsilon_target
    n = params.n_pairs
    assert oracle_bound(params, n) <= eps * (1 + ORACLE_REL_TOL)
    assert oracle_bound(params, n - 1) > eps * (1 - ORACLE_REL_TOL)
