"""Command-line interface: schema checking, exit codes, output files,
and byte-level reproducibility."""

import json
import math
import time
from importlib.resources import files
from pathlib import Path

import pytest
import yaml

from covertlink import cli, reliability
from covertlink.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    main,
)
from covertlink.reliability import MAX_REPETITIONS
from covertlink.security import DEFAULT_PAIR_CEILING
from make_cli_golden import bundled_config, cli_record
from make_plan_golden import bundled_configs, request_key

CLI_GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text("utf-8"))

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


def shipped(name: str) -> str:
    return str(files("covertlink") / "configs" / name)


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "fast.yaml"
    path.write_text(FAST_CONFIG)
    return path


@pytest.fixture(scope="module")
def planned_dir(fast_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("plan_out")
    assert main(["plan", "--config", str(fast_config), "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def simulated_dir(fast_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("sim_out")
    rc = main(
        ["simulate", "--config", str(fast_config), "--out", str(out), "--seed", "7"]
    )
    assert rc == EXIT_OK
    return out


SIM_FILES = ("plan.json", "plan.cvpl", "transcript.csv", "tally.csv", "summary.json")


def test_plan_writes_document_and_table(planned_dir):
    doc = json.loads((planned_dir / "plan.json").read_text())
    assert doc["kind"] == "protocol_params"
    assert doc["params"]["b"] == 10
    assert doc["params"]["d"] == doc["params"]["k"] * 10
    assert doc["grid_points_feasible"] >= 1
    table = (planned_dir / "plan.txt").read_text()
    assert "mean photon number mu" in table
    assert "predicted detection bias" in table


def test_plan_rerun_is_byte_identical(fast_config, planned_dir, tmp_path):
    out = tmp_path / "again"
    assert main(["plan", "--config", str(fast_config), "--out", str(out)]) == EXIT_OK
    for name in ("plan.json", "plan.txt"):
        assert (out / name).read_bytes() == (planned_dir / name).read_bytes()


@pytest.mark.parametrize(
    "change",
    [
        # 2 N / 1e-300 Hz overflows: plan.json holds running_time_s "inf"
        {"epsilon: 0.05": "epsilon: 0.01", "rep_rate_hz: 1.0e+6": "rep_rate_hz: 1.0e-300"},
        # past mu ~ 0.69 a pulse would click more than once per slot
        {
            "tau: 0.5": "tau: 1.0",
            "n_bar_a: 1.0e-2": "n_bar_a: 0.5",
            "n_bar_b: 1.0e-2": "n_bar_b: 0.5",
        },
    ],
    ids=["vanishing rate", "loud channel"],
)
def test_schema_valid_extremes_plan_and_validate(tmp_path, change):
    text = FAST_CONFIG
    for old, new in change.items():
        text = text.replace(old, new)
    config = tmp_path / "extreme.yaml"
    config.write_text(text)
    assert main(["plan", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK
    assert main(["validate", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK


def test_validate_round_trip(fast_config, planned_dir):
    rc = main(["validate", "--config", str(fast_config), "--out", str(planned_dir)])
    assert rc == EXIT_OK
    report = json.loads((planned_dir / "validate.json").read_text())
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == ["detection_bias", "message_error"]


def test_validate_catches_tampered_plan(fast_config, planned_dir, tmp_path):
    doc = json.loads((planned_dir / "plan.json").read_text())
    p = doc["params"]
    # shrink the pair count consistently so only the bias check can fail
    p["n_pairs"] //= 4
    p["bins_total"] = 2 * p["n_pairs"]
    p["q"] = p["d"] / p["n_pairs"]
    p["running_time_s"] = p["bins_total"] / p["rep_rate_hz"]
    out = tmp_path / "tampered"
    out.mkdir()
    (out / "plan.json").write_text(json.dumps(doc))
    rc = main(["validate", "--config", str(fast_config), "--out", str(out)])
    assert rc == EXIT_CHECK_FAILED
    report = json.loads((out / "validate.json").read_text())
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "detection_bias" in failed


def test_validate_missing_plan_is_config_error(fast_config, tmp_path):
    rc = main(["validate", "--config", str(fast_config), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


def test_validate_plan_made_at_another_rate_is_config_error(planned_dir, tmp_path, capsys):
    # the plan's running time is right for its own rate: the mismatch is
    # refused by name, like one in b, channel or targets, not failed as a check
    path = tmp_path / "faster.yaml"
    path.write_text(FAST_CONFIG.replace("rep_rate_hz: 1.0e+6", "rep_rate_hz: 2.0e+6"))
    (tmp_path / "plan.json").write_bytes((planned_dir / "plan.json").read_bytes())
    rc = main(["validate", "--config", str(path), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "plan document carries rep_rate_hz = 1000000.0" in capsys.readouterr().err
    assert not (tmp_path / "validate.json").exists()


# breakage -> (params field, value written there)
FIELD_BREAKAGES = {
    "mu is 'x'": ("mu", "x"),
    "mu is null": ("mu", None),
    "mu is [1]": ("mu", [1]),
    "mu is {}": ("mu", {}),
    "mu is 'nan'": ("mu", "nan"),
    "mu is inf": ("mu", math.inf),
    "bins_total is 'x'": ("bins_total", "x"),
    "bins_total is -1": ("bins_total", -1),
    "bins_total is inf": ("bins_total", math.inf),
    # running_time_s is derived too: the document's copy must agree with it
    "running_time_s is 1": ("running_time_s", 1.0),
    "running_time_s is 'x'": ("running_time_s", "x"),
    "rep_rate_hz is 0": ("rep_rate_hz", 0),
    "rep_rate_hz is -1": ("rep_rate_hz", -1),
    "rep_rate_hz is inf": ("rep_rate_hz", math.inf),
    "rep_rate_hz is 'x'": ("rep_rate_hz", "x"),
    "predicted_epsilon is 'x'": ("predicted_epsilon", "x"),
    "predicted_epsilon is 'nan'": ("predicted_epsilon", "nan"),
    "predicted_e is null": ("predicted_e", None),
    "predicted_e is inf": ("predicted_e", math.inf),
    # a plan made for other targets than the config's
    "epsilon_target is 0.1": ("epsilon_target", 0.1),
    "target_e is 0.5": ("target_e", 0.5),
}

# breakage -> (channel key, value written there); stderr names "channel"
CHANNEL_BREAKAGES = {
    "n_bar_a is inf": ("n_bar_a", math.inf),
    "tau is 0": ("tau", 0),
    "n_bar_b is 0.02": ("n_bar_b", 0.02),
}


# breakage -> (integer params field, change made to it); bins_total, q
# and running_time_s are recomputed to match, so only the type is wrong
INTEGER_BREAKAGES = {
    "b is a float": ("b", float),
    "d is a float": ("d", float),
    "k is a float": ("k", float),
    "n_pairs is a float": ("n_pairs", float),
    "n_pairs is fractional": ("n_pairs", lambda n: n + 0.5),
}


def _break_plan_document(doc: dict, breakage: str):
    if breakage in INTEGER_BREAKAGES:
        field, change = INTEGER_BREAKAGES[breakage]
        p = doc["params"]
        p[field] = change(p[field])
        p["bins_total"] = 2 * p["n_pairs"]
        p["q"] = p["d"] / p["n_pairs"]
        p["running_time_s"] = p["bins_total"] / p["rep_rate_hz"]
    elif breakage in FIELD_BREAKAGES:
        field, value = FIELD_BREAKAGES[breakage]
        doc["params"][field] = value
    elif breakage in CHANNEL_BREAKAGES:
        key, value = CHANNEL_BREAKAGES[breakage]
        doc["params"]["channel"][key] = value
    elif breakage == "no params":
        del doc["params"]
    elif breakage == "channel is a string":
        doc["params"]["channel"] = "x"
    elif breakage == "tau is a string":
        doc["params"]["channel"]["tau"] = "x"
    else:
        return [doc]
    return doc


@pytest.mark.parametrize(
    "breakage",
    [
        "no params",
        "channel is a string",
        "tau is a string",
        "top-level array",
        *FIELD_BREAKAGES,
        *CHANNEL_BREAKAGES,
        *INTEGER_BREAKAGES,
    ],
)
def test_validate_malformed_plan_is_config_error(
    fast_config, planned_dir, tmp_path, capsys, breakage
):
    doc = json.loads((planned_dir / "plan.json").read_text())
    (tmp_path / "plan.json").write_text(json.dumps(_break_plan_document(doc, breakage)))
    rc = main(["validate", "--config", str(fast_config), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    if breakage in FIELD_BREAKAGES:
        assert FIELD_BREAKAGES[breakage][0] in err
    if breakage in CHANNEL_BREAKAGES:
        assert "channel" in err
    if breakage in INTEGER_BREAKAGES:
        assert f"{INTEGER_BREAKAGES[breakage][0]} must be an integer" in err


@pytest.mark.parametrize(
    "field, value, limit",
    [
        ("k", MAX_REPETITIONS + 1, "MAX_REPETITIONS = 1e+07"),
        ("n_pairs", DEFAULT_PAIR_CEILING + 1, "DEFAULT_PAIR_CEILING = 1e+16"),
    ],
    ids=["k", "n_pairs"],
)
def test_validate_refuses_a_plan_past_the_planner_limits(
    fast_config, planned_dir, tmp_path, capsys, monkeypatch, field, value, limit
):
    # refused when the file is loaded, before any bit-error sum
    def no_sum(probes):
        raise AssertionError("summed the bit error of a plan past the planner's limits")

    monkeypatch.setattr(reliability, "_bit_errors", no_sum)
    doc = json.loads((planned_dir / "plan.json").read_text())
    p = doc["params"]
    p[field] = value
    # d, q, bins_total and running_time_s recomputed to match
    p["d"] = p["k"] * p["b"]
    p["n_pairs"] = max(p["n_pairs"], p["d"])
    p["q"] = p["d"] / p["n_pairs"]
    p["bins_total"] = 2 * p["n_pairs"]
    p["running_time_s"] = p["bins_total"] / p["rep_rate_hz"]
    (tmp_path / "plan.json").write_text(json.dumps(doc))
    rc = main(["validate", "--config", str(fast_config), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert f"above the planner's limit {limit}" in capsys.readouterr().err
    assert not (tmp_path / "validate.json").exists()


@pytest.mark.parametrize(
    "field, digits, message",
    [
        ("k", 401, "k = ~10^400, above the planner's limit MAX_REPETITIONS"),
        ("k", 5000, "k must be an integer >= 0, got a 5000-digit integer"),
        ("tau", 401, "tau must be finite and in [0, 1], got ~10^400"),
    ],
    ids=["k past the float range", "k past int's digit limit", "tau past the float range"],
)
def test_validate_refuses_huge_integers_by_name(
    fast_config, planned_dir, tmp_path, capsys, field, digits, message
):
    # an integer past the float range, or longer than int() converts (4300
    # digits), ends as a config error that names its field, not as an
    # OverflowError or ValueError traceback
    doc = json.loads((planned_dir / "plan.json").read_text())
    params = doc["params"]
    (params["channel"] if field == "tau" else params)[field] = "HUGE"
    text = json.dumps(doc).replace('"HUGE"', "1" + "0" * (digits - 1))
    (tmp_path / "plan.json").write_text(text)
    rc = main(["validate", "--config", str(fast_config), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}" + (
        " = 1e+07\n" if field == "k" and digits < 4300 else "\n"
    )


def test_simulate_outputs(simulated_dir):
    for name in SIM_FILES:
        assert (simulated_dir / name).exists()
    summary = json.loads((simulated_dir / "summary.json").read_text())
    assert summary["kind"] == "transmission_summary"
    assert summary["sent_message"] == "HI"
    assert summary["exact_recovery"] is True
    tally = (simulated_dir / "tally.csv").read_text().splitlines()
    assert len(tally) == 1 + 10  # header plus one row per message bit


def test_simulate_same_seed_byte_identical(fast_config, simulated_dir, tmp_path):
    out = tmp_path / "rerun"
    rc = main(
        ["simulate", "--config", str(fast_config), "--out", str(out), "--seed", "7"]
    )
    assert rc == EXIT_OK
    for name in SIM_FILES:
        assert (out / name).read_bytes() == (simulated_dir / name).read_bytes()


def test_simulate_seed_changes_outcomes(fast_config, simulated_dir, tmp_path):
    out = tmp_path / "other_seed"
    rc = main(
        ["simulate", "--config", str(fast_config), "--out", str(out), "--seed", "8"]
    )
    assert rc == EXIT_OK
    changed = (out / "transcript.csv").read_bytes() != (
        simulated_dir / "transcript.csv"
    ).read_bytes()
    assert changed


def test_simulate_requires_seed(fast_config, tmp_path, capsys):
    rc = main(["simulate", "--config", str(fast_config), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err


def test_eavesdrop_null_diagnostic_passes(tmp_path):
    out = tmp_path / "null"
    rc = main(
        [
            "eavesdrop",
            "--config",
            shipped("null_diagnostic.yaml"),
            "--out",
            str(out),
            "--seed",
            "5",
        ]
    )
    assert rc == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "PASS"
    assert abs(report["empirical_pe"] - 0.5) <= 0.1
    # with no signals the on and off traces coincide seed for seed
    on = (out / "monitor_on.csv").read_bytes()
    assert on == (out / "monitor_off.csv").read_bytes()


def test_eavesdrop_negative_control_fails(tmp_path):
    out = tmp_path / "bright"
    rc = main(
        [
            "eavesdrop",
            "--config",
            shipped("negative_control.yaml"),
            "--out",
            str(out),
            "--seed",
            "5",
        ]
    )
    assert rc == EXIT_CHECK_FAILED
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "FAIL"
    assert report["empirical_bias"] > report["bound_epsilon"]
    # one detector: the five result fields and no per-detector figures
    assert {"empirical_pe", "empirical_bias", "std_error", "trials", "bound_epsilon"} <= set(report)
    assert not any("count_threshold" in key or "likelihood_ratio" in key for key in report)


def test_summary_predicted_error_rate_matches_the_seeded_run(
    bundled_plans, tmp_path, monkeypatch
):
    # summary.json's predicted vote error against the rate `simulate
    # --seed 7` measures, on every bundled config simulate runs
    # (null_diagnostic sends nothing, so simulate refuses it); the plans
    # come from the session instead of being made again
    plans = {request_key(req): (params, points) for req, params, points in bundled_plans.values()}
    monkeypatch.setattr(cli, "plan_with_report", lambda req: plans[request_key(req)])
    for path in bundled_configs():
        if path.name == "null_diagnostic.yaml":
            continue
        out = tmp_path / path.stem
        assert main(["simulate", "--config", str(path), "--out", str(out), "--seed", "7"]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        predicted = summary["predicted_error_rate"]
        se = math.sqrt(predicted * (1.0 - predicted) / summary["total_votes"])
        assert abs(summary["error_rate"] - predicted) <= 3.0 * se, path.name


def test_infeasible_targets_exit_code(tmp_path):
    cfg = tmp_path / "dead.yaml"
    cfg.write_text(FAST_CONFIG.replace("tau: 0.5", "tau: 1.0e-9"))
    rc = main(["plan", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INFEASIBLE


def test_vacuum_background_is_infeasible_with_reason(tmp_path, capsys):
    cfg = tmp_path / "vacuum.yaml"
    cfg.write_text(FAST_CONFIG.replace("n_bar_a: 1.0e-2", "n_bar_a: 0.0"))
    rc = main(["plan", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "vacuum background (n_bar_a = 0)" in err
    assert "no square-root law holds" in err


def test_eavesdrop_tiny_monitor_interval_is_config_error(tmp_path, capsys):
    # far more monitoring intervals than the cap: refused before any is allocated
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(FAST_CONFIG + "monitor_interval_s: 1.0e-9\n")
    start = time.perf_counter()
    rc = main(
        ["eavesdrop", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "1"]
    )
    assert rc == EXIT_CONFIG
    assert time.perf_counter() - start < 60.0
    assert "intervals; at most 100000 are allowed" in capsys.readouterr().err


def test_eavesdrop_bad_interval_count_refused_before_planning(tmp_path, capsys, monkeypatch):
    # with both monitoring times in the config the count is known up front
    def no_plan(req):
        raise AssertionError("planner called")

    monkeypatch.setattr(cli, "plan_with_report", no_plan)
    for times, cause in [
        ("monitor_duration_s: 1.0\nmonitor_interval_s: 1.0e-9\n", "at most 100000"),
        ("monitor_duration_s: 1.0\nmonitor_interval_s: 0.5\n", "at least 10 intervals"),
    ]:
        cfg = tmp_path / "times.yaml"
        cfg.write_text(FAST_CONFIG + times)
        rc = main(
            ["eavesdrop", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "1"]
        )
        assert rc == EXIT_CONFIG
        assert cause in capsys.readouterr().err


def test_eavesdrop_interval_past_the_pair_limit_refused_before_planning(
    tmp_path, capsys, monkeypatch
):
    # 1e29 s at the config's rate holds far more time-bin pairs than the
    # int64 binomial draws take; with the rate and both times in the
    # config the pair count is known up front
    def no_plan(req):
        raise AssertionError("planner called")

    monkeypatch.setattr(cli, "plan_with_report", no_plan)
    cfg = tmp_path / "long.yaml"
    cfg.write_text(FAST_CONFIG + "monitor_duration_s: 1.0e+30\nmonitor_interval_s: 1.0e+29\n")
    rc = main(["eavesdrop", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "1"])
    assert rc == EXIT_CONFIG
    assert "time-bin pairs; at most 4611686018427387903 are allowed" in capsys.readouterr().err


def test_bad_rescale_flag_refused_before_planning(fast_config, tmp_path, capsys, monkeypatch):
    def no_plan(req):
        raise AssertionError("planner called")

    monkeypatch.setattr(cli, "plan_with_report", no_plan)
    for command in ("simulate", "eavesdrop"):
        for factor in ("nan", "inf", "0", "-2"):
            rc = main(
                [command, "--config", str(fast_config), "--out", str(tmp_path / "o"),
                 "--seed", "1", "--rescale", factor]
            )
            assert rc == EXIT_CONFIG
            assert "'--rescale'" in capsys.readouterr().err


def test_rescale_past_the_planner_limits_is_config_error(tmp_path, capsys, monkeypatch):
    # --rescale 1e-9 asks for k ~ 1.88e12 and N ~ 8e20 (beyond a C long):
    # refused once the plan is known, before any draw
    def no_draw(*args):
        raise AssertionError("drew from a plan past the planner's limits")

    for name in ("choose_positions", "simulate_monitoring", "run_distinguisher"):
        monkeypatch.setattr(cli, name, no_draw)
    for command in ("simulate", "eavesdrop"):
        out = tmp_path / command
        rc = main(
            [command, "--config", shipped("fiber_cqtustc.yaml"), "--out", str(out),
             "--seed", "1", "--rescale", "1e-9"]
        )
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "rescale factor 1e-09 gives k = 1.88e+12" in err
        assert "MAX_REPETITIONS = 1e+07" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "mutation",
    [
        ("message: \"HI\"", "message: \"\""),  # empty message
        ("message: \"HI\"", "message: \"hi\""),  # outside the alphabet
        ("epsilon: 0.05", "epsilon: 0.6"),  # bias beyond a coin flip
        ("epsilon: 0.05", "epsilon: 0.05\nextra_knob: 1"),  # unknown key
        ("rep_rate_hz: 1.0e+6", ""),  # missing required key
        ("  tau: 0.5", "  tau: 1.5"),  # transmissivity above 1
        ("  n_bar_b: 1.0e-2", ""),  # incomplete channel block
        ("rep_rate_hz: 1.0e+6", "rep_rate_hz: 1.0e6"),  # unsigned exponent
    ],
)
def test_config_schema_rejections(tmp_path, mutation):
    old, new = mutation
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(FAST_CONFIG.replace(old, new))
    rc = main(["plan", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG


def test_target_error_below_the_search_floor_is_config_error(tmp_path, capsys, monkeypatch):
    # a target the repetition search cannot resolve is refused with its
    # reason before planning, not reported as infeasible after it
    def no_plan(req):
        raise AssertionError("planner called")

    monkeypatch.setattr(cli, "plan_with_report", no_plan)
    cfg = tmp_path / "deep.yaml"
    cfg.write_text(FAST_CONFIG.replace("target_error: 0.05", "target_error: 1.0e-305"))
    rc = main(["plan", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config key 'target_error' = 1e-305 is below MIN_TARGET_ERROR = 1e-300" in err


def test_target_error_at_the_search_floor_plans_or_says_why(tmp_path, capsys):
    # MIN_TARGET_ERROR itself is a valid target: the run ends in a plan
    # or an infeasible verdict with its reason, never in a traceback
    cfg = tmp_path / "floor.yaml"
    cfg.write_text(FAST_CONFIG.replace("target_error: 0.05", "target_error: 1.0e-300"))
    rc = main(["plan", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc in (EXIT_OK, EXIT_INFEASIBLE)
    if rc == EXIT_INFEASIBLE:
        assert "infeasible: " in capsys.readouterr().err
    else:
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK


def test_unsigned_exponent_message_has_hint(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(FAST_CONFIG.replace("rep_rate_hz: 1.0e+6", "rep_rate_hz: 1.0e6"))
    rc = main(["plan", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "signed exponent" in capsys.readouterr().err


@pytest.mark.parametrize(
    "original, repeated",
    [
        ("epsilon: 0.05\n", "epsilon: 0.05\nepsilon: 0.4\n"),
        ("  tau: 0.5\n", "  tau: 0.5\n  tau: 0.9\n"),
    ],
    ids=["top_level", "channel"],
)
def test_repeated_config_key_refused_before_planning(
    tmp_path, capsys, monkeypatch, original, repeated
):
    # plain YAML keeps the last value of a repeated key without a word
    def no_plan(req):
        raise AssertionError("planner called")

    monkeypatch.setattr(cli, "plan_with_report", no_plan)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(FAST_CONFIG.replace(original, repeated))
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    key = original.split(":")[0].strip()
    assert f"config key '{key}' is given twice" in capsys.readouterr().err


# each bad value fails as a config key and as the flag that overrides it
BAD_FLAG_VALUES = [
    ("seed", -3),
    ("seed", 2**64),
    ("trials", 50),
    ("trials", 99),
    ("trials", 10**6 + 1),
    ("rescale", 0),
    ("rescale", -2.0),
    ("rescale", math.nan),
    ("rescale", math.inf),
]


@pytest.mark.parametrize("given_as", ["key", "flag"])
@pytest.mark.parametrize("key, value", BAD_FLAG_VALUES)
def test_flag_validation(fast_config, tmp_path, capsys, monkeypatch, key, value, given_as):
    def no_plan(req):
        raise AssertionError("planner called")

    monkeypatch.setattr(cli, "plan_with_report", no_plan)
    argv = ["eavesdrop", "--out", str(tmp_path / "o")]
    if given_as == "key":
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(FAST_CONFIG + yaml.safe_dump({key: value}))
        argv += ["--config", str(cfg)]
        named = f"config key '{key}'"
    else:
        argv += ["--config", str(fast_config), f"--{key}", str(value)]
        argv += ["--seed", "1"] if key != "seed" else []
        named = f"flag '--{key}'"
    assert main(argv) == EXIT_CONFIG
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("config", CLI_GOLDEN)
def test_cli_outputs_match_golden(tmp_path, config):
    assert cli_record(bundled_config(config), tmp_path) == CLI_GOLDEN[config]
