"""Acceptance gate: ten numbered end-to-end checks.

Each check prints one verdict line per tested configuration (visible
even under output capture) so a full run reads as a scoreboard. Two
checks are strict xfails: the QPQI reference point cannot be reproduced
from its own stated targets, and the QPQI overbright negative control
is information-theoretically invisible to click-level detectors. The
printed FAIL lines plus the xfail reasons document both.

Full-size plans run to N ~ 1e12 pairs; every simulation here touches
only the d' occupied positions, never the empty pairs.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import oracles
import reference_scenarios as ref
from covertlink.cli import EXIT_OK, main
from covertlink.codec import SharedRandomness, choose_positions, encode_message
from covertlink.fock_stats import per_mode_relative_entropy
from covertlink.planner import ProtocolParams
from covertlink.reliability import (
    ChannelModel,
    ClickProbabilities,
    bit_error_prob,
    click_probs,
)
from covertlink.security import BINS_PER_PAIR, min_pairs_for_budget
from covertlink.simulator import rescale_plan, run_distinguisher, simulate_transmission

# desk rescale target: keep q and mu, shrink to about 5000 signals
DESK_SIGNALS = 5000.0

# frozen seed bases; each batch run i uses base+i for the shared
# position draw and base+500+i for the channel noise
SEED_FULL_RUNS = 300_000
SEED_DESK_RUNS = 13_000_000
SEED_MATCHED_RUNS = 12_000_000
SEED_DISTINGUISHER = 97

COLUMN_NAMES = [op.name for op in ref.FIBER]

XFAIL_QPQI_PLAN = pytest.mark.xfail(
    strict=True,
    reason=(
        "the QPQI reference point is not recoverable from its own stated "
        "targets: the optimizer meets both budgets with ~9x fewer time bins "
        "at ~3.6x the recorded pulse intensity, so mu, d and the bin count "
        "all land outside the reproduction tolerances"
    ),
)

XFAIL_QPQI_CONTROL = pytest.mark.xfail(
    strict=True,
    reason=(
        "at the QPQI desk point the 1000x-brighter pulse saturates the "
        "per-pulse click probability, capping any click-level detector's "
        "advantage at sqrt(N q^2 chi2_pair / 16) ~= 0.071, below the "
        "recomputed honest bound ~0.076; the control cannot exceed the "
        "bound it is checked against"
    ),
)


def report(capsys, number: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\nacceptance {number:>2}: {'PASS' if ok else 'FAIL'}  {label}{tail}")


@pytest.fixture(scope="module")
def full_plans(fiber_plan_reports):
    """Every bundled fiber scenario, planned once; values reused by 2/3/7/8."""
    return {
        name: (params, elapsed)
        for name, (_, params, _, elapsed) in fiber_plan_reports.items()
    }


@pytest.fixture(scope="module")
def desk_plans(full_plans):
    return {
        name: rescale_plan(p, p.d / DESK_SIGNALS)
        for name, (p, _) in full_plans.items()
    }


def transmission_batch(params: ProtocolParams, message: str, seed_base: int, runs: int = 100):
    """Run seeded sparse transmissions; pool decode and error tallies."""
    bits = encode_message(message)
    decoded_ok = 0
    wrong_bits = 0
    votes = 0
    wrong_votes = 0
    for i in range(runs):
        layout = choose_positions(
            SharedRandomness(seed=seed_base + i), params.n_pairs, params.q, bits
        )
        tr = simulate_transmission(params, layout, rng_seed=seed_base + 500 + i)
        decoded_ok += tr.decoded == message
        wrong_bits += sum(1 for t in tr.tallies if not t.correct)
        votes += tr.stats.total_votes
        wrong_votes += tr.stats.wrong_votes
    return decoded_ok, wrong_bits, runs * params.b, votes, wrong_votes


def bit_error_z(wrong: int, n_bits: int, delta: float) -> float:
    sigma = math.sqrt(max(delta * (1.0 - delta), 1e-12) / n_bits)
    return (wrong / n_bits - delta) / sigma


def matched_channel(single_click_rate: float, error_fraction: float):
    """Invert recorded single-click statistics into per-bin probabilities.

    The channel clicks independently in the two bins and double clicks
    are discarded, so the recorded correct-only and wrong-only rates are
    a = p_c (1 - p_w) and w = p_w (1 - p_c). With t = p_c p_w the system
    reduces to t^2 - (1 - a - w) t + a w = 0; the smaller root keeps
    both probabilities in [0, 1]. A tau = 1 channel with thermal mean
    p_w / (1 - p_w) and pulse intensity -log((1 - p_c)/(1 - p_w))
    realizes exactly that pair.
    """
    a = single_click_rate * (1.0 - error_fraction)
    w = single_click_rate * error_fraction
    s = 1.0 - a - w
    t = (s - math.sqrt(s * s - 4.0 * a * w)) / 2.0
    p_c, p_w = a + t, w + t
    n_bar = p_w / (1.0 - p_w)
    mu = -math.log((1.0 - p_c) / (1.0 - p_w))
    return mu, ChannelModel(tau=1.0, n_bar_a=n_bar, n_bar_b=n_bar)


def synthetic_params(b: int, k: int, mu: float, channel: ChannelModel) -> ProtocolParams:
    """Structurally valid parameters around a hand-picked channel, q = 0.5."""
    return ProtocolParams.derive(
        b=b,
        k=k,
        n_pairs=2 * k * b,
        mu=mu,
        channel=channel,
        rep_rate_hz=1e6,
        epsilon_target=1.0,
        target_e=1.0,
    )


def test_criterion_01_relative_entropy_extended_precision(capsys):
    op = ref.FIBER_BY_NAME["CQTUSTC"]
    start = time.perf_counter()
    value = per_mode_relative_entropy(op.mu, op.n_bar_a, op.q)
    elapsed = time.perf_counter() - start
    frozen = ref.KL_PER_MODE_NATS["CQTUSTC"]
    rel_err = abs(value - frozen) / frozen
    ok = rel_err <= 1e-6 and elapsed < 1.0
    report(
        capsys, 1, "per-mode relative entropy vs 80-digit summation", ok,
        f"rel_err={rel_err:.1e} t={elapsed * 1e3:.0f}ms",
    )
    assert rel_err <= 1e-6
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "name",
    [
        "CQTUSTC",
        "PRTYSAT@NINE",
        pytest.param("QPQI", marks=XFAIL_QPQI_PLAN),
    ],
)
def test_criterion_02_reference_point_reproduction(full_plans, capsys, name):
    op = ref.FIBER_BY_NAME[name]
    p, elapsed = full_plans[name]
    mu_ratio = p.mu / op.mu
    d_ratio = p.d / op.signals
    bins_ratio = BINS_PER_PAIR * p.n_pairs / op.bins
    time_exact = p.running_time_s == BINS_PER_PAIR * p.n_pairs / op.rep_rate_hz
    ok = (
        0.7 <= mu_ratio <= 1.3
        and 0.7 <= d_ratio <= 1.3
        and 0.5 <= bins_ratio <= 2.0
        and time_exact
        and elapsed < 60.0
    )
    report(
        capsys, 2, f"reference point {name} reproduced", ok,
        f"mu x{mu_ratio:.2f} d x{d_ratio:.2f} bins x{bins_ratio:.2f} t={elapsed:.1f}s",
    )
    assert 0.7 <= mu_ratio <= 1.3
    assert 0.7 <= d_ratio <= 1.3
    assert 0.5 <= bins_ratio <= 2.0
    assert time_exact
    assert elapsed < 60.0


def test_criterion_03_repetition_count(full_plans, capsys):
    p, elapsed = full_plans["CQTUSTC"]
    ratio = p.k / 1961.0
    ok = 0.7 <= ratio <= 1.3 and elapsed < 60.0
    report(capsys, 3, "CQTUSTC repetitions near recorded 1961", ok, f"k={p.k} (x{ratio:.2f})")
    assert 0.7 <= ratio <= 1.3
    assert elapsed < 60.0


def test_criterion_04_closed_form_vs_enumeration(capsys):
    rng = np.random.default_rng(20260814)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 13))
        p_c = float(rng.uniform(0.0, 1.0))
        p_w = float(rng.uniform(0.0, 1.0 - p_c))
        cp = ClickProbabilities(p_c, p_w)
        diff = abs(bit_error_prob(k, cp) - oracles.majority_error_enumeration(k, p_c, p_w))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    report(
        capsys, 4, "bit error closed form vs exhaustive enumeration (k<=12)", ok,
        f"worst={worst:.1e} t={elapsed:.1f}s",
    )
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_05_closed_form_vs_block_monte_carlo(capsys):
    # recorded-run-magnitude per-bin probabilities (CQTUSTC inversion)
    mu, channel = matched_channel(8.42e-3, 0.1367)
    cp = click_probs(mu, channel)
    start = time.perf_counter()
    details = []
    all_ok = True
    for seed_off, k in enumerate((17, 101, 1961)):
        delta = bit_error_prob(k, cp)
        err, se = oracles.repetition_block_mc(
            k, cp.p_correct, cp.p_wrong, blocks=200_000, seed=501 + seed_off
        )
        se = max(se, math.sqrt(delta * (1.0 - delta) / 200_000))
        z = (err - delta) / se
        details.append(f"k={k} z={z:+.2f}")
        all_ok &= abs(z) <= 3.0
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 60.0
    report(
        capsys, 5, "bit error closed form vs 2e5-block Monte Carlo", ok,
        " ".join(details) + f" t={elapsed:.1f}s",
    )
    assert all_ok
    assert elapsed < 60.0


def test_criterion_06_click_probabilities_vs_photon_thinning(capsys):
    start = time.perf_counter()
    details = []
    all_ok = True
    for seed_off, name in enumerate(("CQTUSTC", "QPQI")):
        op = ref.FIBER_BY_NAME[name]
        channel = ChannelModel(tau=ref.TAU, n_bar_a=op.n_bar_a, n_bar_b=op.n_bar_b)
        cp = click_probs(op.mu, channel)
        hat_c, se_c = oracles.click_probability_mc(
            op.mu, op.n_bar_b, ref.TAU, samples=10_000_000, seed=601 + 2 * seed_off
        )
        hat_w, se_w = oracles.click_probability_mc(
            0.0, op.n_bar_b, ref.TAU, samples=10_000_000, seed=602 + 2 * seed_off
        )
        z_c = (hat_c - cp.p_correct) / se_c
        z_w = (hat_w - cp.p_wrong) / se_w
        details.append(f"{name} z_c={z_c:+.2f} z_w={z_w:+.2f}")
        all_ok &= abs(z_c) <= 3.0 and abs(z_w) <= 3.0
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 60.0
    report(
        capsys, 6, "click probabilities vs 1e7-sample photon thinning", ok,
        " ".join(details) + f" t={elapsed:.1f}s",
    )
    assert all_ok
    assert elapsed < 60.0


def test_criterion_07_end_to_end_round_trip(full_plans, desk_plans, capsys):
    start = time.perf_counter()

    # (a) decode every bit in >= 99 of 100 seeded full-size runs;
    # the runs also feed the full-size pooled bit-error statistic
    successes = {}
    bit_z = {}
    for col, op in enumerate(ref.FIBER):
        params, _ = full_plans[op.name]
        ok_runs, wrong, n_bits, _, _ = transmission_batch(
            params, op.message, SEED_FULL_RUNS + 1_000 * col
        )
        successes[op.name] = ok_runs
        delta = bit_error_prob(params.k, click_probs(params.mu, params.channel))
        bit_z[f"{op.name}/full"] = bit_error_z(wrong, n_bits, delta)
    decode_ok = all(v >= 99 for v in successes.values())
    report(
        capsys, 7, "every bit decoded in >=99/100 full-size runs", decode_ok,
        " ".join(f"{n}={successes[n]}" for n in COLUMN_NAMES),
    )

    # (b) pooled per-bit error within 3 sigma of the closed form, both
    # at full size and at the desk rescale (whose starved repetition
    # count the closed form must track as well)
    for col, op in enumerate(ref.FIBER):
        desk = desk_plans[op.name]
        _, wrong, n_bits, _, _ = transmission_batch(
            desk, op.message, SEED_DESK_RUNS + 1_000 * col
        )
        delta = bit_error_prob(desk.k, click_probs(desk.mu, desk.channel))
        bit_z[f"{op.name}/desk"] = bit_error_z(wrong, n_bits, delta)
    worst_bit = max(abs(z) for z in bit_z.values())
    errors_ok = worst_bit <= 3.0
    report(
        capsys, 7, "pooled bit-error rate within 3 sigma of closed form", errors_ok,
        f"|z|max={worst_bit:.2f} over {len(bit_z)} pools",
    )

    # (c) recorded per-pulse statistics reproduced on the inverted
    # matched channel: single-click rate and error fraction per run
    stats_z = {}
    for col, op in enumerate(ref.FIBER):
        mu, channel = matched_channel(op.vote_rate_per_pulse, op.vote_error_rate)
        params = synthetic_params(op.bits, round(DESK_SIGNALS / op.bits), mu, channel)
        _, _, _, votes, wrong_votes = transmission_batch(
            params, op.message, SEED_MATCHED_RUNS + 1_000 * col
        )
        pulses = 100 * params.d
        rate_sigma = math.sqrt(
            op.vote_rate_per_pulse * (1.0 - op.vote_rate_per_pulse) / pulses
        )
        err_sigma = math.sqrt(
            op.vote_error_rate * (1.0 - op.vote_error_rate) / votes
        )
        stats_z[f"{op.name}/rate"] = (votes / pulses - op.vote_rate_per_pulse) / rate_sigma
        stats_z[f"{op.name}/err"] = (wrong_votes / votes - op.vote_error_rate) / err_sigma
    worst_stats = max(abs(z) for z in stats_z.values())
    stats_ok = worst_stats <= 3.0
    elapsed = time.perf_counter() - start
    report(
        capsys, 7, "recorded click statistics reproduced on matched channel", stats_ok,
        f"|z|max={worst_stats:.2f} t={elapsed:.1f}s",
    )

    assert decode_ok, successes
    assert errors_ok, bit_z
    assert stats_ok, stats_z
    assert elapsed < 300.0


@pytest.mark.parametrize("name", COLUMN_NAMES)
def test_criterion_08_desk_scale_bias_within_bound(desk_plans, capsys, name):
    desk = desk_plans[name]
    start = time.perf_counter()
    res = run_distinguisher(desk, trials=10_000, rng_seed=SEED_DISTINGUISHER)
    elapsed = time.perf_counter() - start
    ok = (
        res.bound_epsilon == desk.predicted_epsilon
        and res.security_check()
        and elapsed < 600.0
    )
    report(
        capsys, 8, f"desk-scale bias within recomputed bound ({name})", ok,
        f"bias={res.empirical_bias:.4f} <= {res.bound_epsilon:.4f}+{3 * res.std_error:.4f}",
    )
    assert res.bound_epsilon == desk.predicted_epsilon
    assert res.security_check()
    assert elapsed < 600.0


@pytest.mark.parametrize(
    "name",
    [
        "CQTUSTC",
        "PRTYSAT@NINE",
        pytest.param("QPQI", marks=XFAIL_QPQI_CONTROL),
    ],
)
def test_criterion_08_overbright_negative_control_fails(desk_plans, capsys, name):
    desk = desk_plans[name]
    bright = dataclasses.replace(desk, mu=desk.mu * 1000.0)
    start = time.perf_counter()
    res = run_distinguisher(bright, trials=10_000, rng_seed=SEED_DISTINGUISHER)
    elapsed = time.perf_counter() - start
    caught = not res.security_check()
    ok = caught and elapsed < 600.0
    report(
        capsys, 8, f"1000x-bright control caught ({name})", ok,
        f"bias={res.empirical_bias:.4f} vs {res.bound_epsilon:.4f}+{3 * res.std_error:.4f}",
    )
    assert caught
    assert elapsed < 600.0


def test_criterion_09_pair_budget_quadratic_in_signals(capsys):
    op = ref.FIBER_BY_NAME["CQTUSTC"]
    start = time.perf_counter()
    d_values = (1_000, 2_000, 4_000, 8_000)
    pairs = [min_pairs_for_budget(op.epsilon, d, op.mu, op.n_bar_a) for d in d_values]
    coef = float(np.mean([n / d**2 for n, d in zip(pairs, d_values)]))
    worst = max(abs(n / (coef * d**2) - 1.0) for n, d in zip(pairs, d_values))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.10 and elapsed < 60.0
    report(
        capsys, 9, "required pairs scale quadratically in signal count", ok,
        f"max_dev={worst * 100:.1f}% t={elapsed:.1f}s",
    )
    assert worst <= 0.10
    assert elapsed < 60.0


FAST_CONFIG = """\
message: "HI"
epsilon: 0.05
target_error: 0.05
channel:
  tau: 0.5
  n_bar_a: 1.0e-2
  n_bar_b: 1.0e-2
rep_rate_hz: 1.0e+6
"""


def test_criterion_10_seeded_reruns_byte_identical(tmp_path, capsys):
    config = tmp_path / "fast.yaml"
    config.write_text(FAST_CONFIG)
    roots = []
    for tag in ("first", "second"):
        root = tmp_path / tag
        for command, extra in (
            ("plan", []),
            ("simulate", ["--seed", "9"]),
            ("eavesdrop", ["--seed", "9"]),
        ):
            rc = main(
                [command, "--config", str(config), "--out", str(root / command), *extra]
            )
            assert rc == EXIT_OK
        roots.append(root)
    listing = [
        sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
        for root in roots
    ]
    identical = listing[0] == listing[1] and all(
        (roots[0] / rel).read_bytes() == (roots[1] / rel).read_bytes()
        for rel in listing[0]
    )
    ok = identical and len(listing[0]) >= 10
    report(
        capsys, 10, "plan/simulate/eavesdrop reruns are byte-identical", ok,
        f"{len(listing[0])} files compared",
    )
    assert identical
    assert len(listing[0]) >= 10
