"""Command-line front end: plan, simulate, eavesdrop, validate.

Every command is a pure function of (config, seed) to its output files:
no timestamps, no hidden defaults for physical constants, atomic writes,
and deterministic JSON/CSV layout, so reruns are byte-identical.

Each config key has one rule in _RULES. The flags --seed, --rescale and
--trials override the key of the same name and are checked by that
key's rule, before any planning. The subcommands, with their help text
and extra flags, are listed once, in _COMMANDS.

Exit codes: 0 ok, 2 config error, 3 infeasible targets, 4 security or
validation check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import fileio
from .codec import SharedRandomness, choose_positions, encode_message
from .exceptions import FormatError, InfeasibleError, ParameterError, _check_count, _check_real
from .planner import PlanRequest, ProtocolParams, plan_with_report, validate_plan
from .reliability import ChannelModel, check_target_error
from .simulator import (
    MAX_TRIALS,
    MIN_TRIALS,
    SECURITY_CHECK_SIGMAS,
    monitor_interval_count,
    monitor_pairs_per_interval,
    predicted_vote_error_rate,
    rescale_plan,
    run_distinguisher,
    simulate_monitoring,
    simulate_transmission,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_CHECK_FAILED = 4

DEFAULT_TRIALS = 1000
DEFAULT_MONITOR_INTERVALS = 20


def _number(lo: float = 0.0, hi: float = math.inf, lo_ok: bool = False, hi_ok: bool = False):
    """Rule: a real number between lo and hi, each end included only if asked."""

    def rule(value, name: str) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            # plain YAML parses 5.0e8 as a string; the exponent needs a sign
            raise ParameterError(
                f"{name} must be a number (scientific notation "
                "needs a signed exponent, e.g. 5.0e+8)"
            )
        return _check_real(value, name, lo, hi, open_lo=not lo_ok, open_hi=not hi_ok)

    return rule


def _target_error(value, name: str) -> float:
    # the repetition search's floor is checked after the range, so a
    # target below it is refused with a message that names the floor
    return check_target_error(_number(0.0, 1.0)(value, name), name)


def _message(value, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise ParameterError(f"{name} must be a non-empty string")
    return value


def _boolean(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ParameterError(f"{name} must be a boolean")
    return value


_CHANNEL_RULES = {
    "tau": _number(0.0, 1.0, hi_ok=True),
    # a noiseless channel is a valid input; the planner says why it
    # cannot be covert
    "n_bar_a": _number(lo_ok=True),
    "n_bar_b": _number(lo_ok=True),
}


def _channel(value, name: str) -> dict:
    if not isinstance(value, dict) or set(value) != set(_CHANNEL_RULES):
        raise ParameterError(
            f"{name} must be a mapping with exactly the keys " + ", ".join(_CHANNEL_RULES)
        )
    return {
        key: rule(value[key], f"config key 'channel.{key}'")
        for key, rule in _CHANNEL_RULES.items()
    }


# config key -> rule(value, name to report), applied in this order; the
# keys that flags override (_FLAGS) are checked by the same rules
_RULES = {
    "message": _message,
    "epsilon": _number(0.0, 0.5),
    "target_error": _target_error,
    "channel": _channel,
    "rep_rate_hz": _number(),
    # the CLI takes 64-bit seeds, [0, 2^64)
    "seed": lambda value, name: _check_count(value, name, 0, 2**64 - 1),
    "rescale": _number(),
    "trials": lambda value, name: _check_count(value, name, MIN_TRIALS, MAX_TRIALS),
    "mu_multiplier": _number(),
    "no_signals": _boolean,
    "monitor_duration_s": _number(),
    "monitor_interval_s": _number(),
}
_REQUIRED_KEYS = ("message", "epsilon", "target_error", "channel", "rep_rate_hz")


class _UniqueKeyLoader(yaml.SafeLoader):
    """The safe loader, refusing a mapping that repeats a key (plain YAML
    keeps the last value)."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key, _ in node.value:
            if not isinstance(key, yaml.ScalarNode):
                continue
            if key.value in seen:
                raise ParameterError(
                    f"config key {key.value!r} is given twice (line {key.start_mark.line + 1})"
                )
            seen.add(key.value)
        return super().construct_mapping(node, deep)


def load_config(path: Path) -> dict:
    """Read and schema-check one run configuration.

    Unknown and repeated keys are rejected so that a typo cannot silently
    fall back to a default or override an earlier value; all channel
    constants must be given explicitly.
    """
    try:
        raw = yaml.load(Path(path).read_text("utf-8"), Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ParameterError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ParameterError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParameterError("config must be a key/value mapping")
    unknown = sorted(set(raw) - set(_RULES))
    if unknown:
        raise ParameterError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(k for k in _REQUIRED_KEYS if k not in raw)
    if missing:
        raise ParameterError(f"missing config keys: {', '.join(missing)}")
    return {
        key: rule(raw[key], f"config key {key!r}") for key, rule in _RULES.items() if key in raw
    }


def resolve_config(cfg: dict, args: argparse.Namespace) -> dict:
    """Overlay command-line flags onto the file config, each by its key's rule."""
    resolved = dict(cfg)
    for key in _FLAGS:
        if (value := getattr(args, key, None)) is not None:
            resolved[key] = _RULES[key](value, f"flag '--{key}'")
    return resolved


def _require_seed(cfg: dict) -> int:
    if "seed" not in cfg:
        raise ParameterError(
            "a seed is required (config key 'seed' or flag --seed) so the "
            "run is reproducible"
        )
    return cfg["seed"]


def _request_from_config(cfg: dict) -> tuple[PlanRequest, np.ndarray]:
    bits = encode_message(cfg["message"])
    channel = ChannelModel(**cfg["channel"])
    req = PlanRequest(
        b=int(bits.size),
        epsilon=cfg["epsilon"],
        target_e=cfg["target_error"],
        channel=channel,
        rep_rate_hz=cfg["rep_rate_hz"],
    )
    return req, bits


def _planned_params(cfg: dict) -> tuple[ProtocolParams, PlanRequest, np.ndarray]:
    """Plan from the config, then apply rescale / mu_multiplier / no_signals."""
    req, bits = _request_from_config(cfg)
    params, _ = plan_with_report(req)
    if cfg.get("rescale", 1.0) != 1.0:
        params = rescale_plan(params, cfg["rescale"])
    if cfg.get("mu_multiplier", 1.0) != 1.0:
        # over-bright transmitter: actual mu deviates from the planned
        # value while the plan's claims are kept, as a real attacker or
        # hardware fault would leave them
        params = dataclasses.replace(params, mu=params.mu * cfg["mu_multiplier"])
    if cfg.get("no_signals", False):
        params = params.rederive(k=0)
    return params, req, bits


def format_params_table(p: ProtocolParams) -> str:
    rows = [
        ("message bits b", f"{p.b}"),
        ("detection-bias budget", f"{p.epsilon_target:g}"),
        ("message-error target", f"{p.target_e:g}"),
        ("repetition rate", f"{p.rep_rate_hz:.6g} Hz"),
        ("time bins", f"{p.bins_total:.3e}"),
        ("time-bin pairs N", f"{p.n_pairs}"),
        ("covert signals d", f"{p.d}"),
        ("repetitions per bit k", f"{p.k}"),
        ("signal fraction q", f"{p.q:.6e}"),
        ("mean photon number mu", f"{p.mu:.6e}"),
        ("transmitter noise n_bar_A", f"{p.channel.n_bar_a:.6e}"),
        ("receiver noise n_bar_B", f"{p.channel.n_bar_b:.6e}"),
        ("transmissivity tau", f"{p.channel.tau:g}"),
        ("running time", f"{p.running_time_s:.6g} s"),
        ("predicted detection bias", f"{p.predicted_epsilon:.6g}"),
        ("predicted message error", f"{p.predicted_e:.6g}"),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def cmd_plan(cfg: dict, out_dir: Path) -> int:
    """Plan protocol parameters and write them as document plus table."""
    req, _ = _request_from_config(cfg)
    params, grid = plan_with_report(req)
    table = format_params_table(params)
    fileio.write_json_document(
        out_dir / "plan.json",
        "protocol_params",
        {
            "params": fileio.params_to_document(params),
            "resolved_config": cfg,
            "grid_points_evaluated": len(grid),
            "grid_points_feasible": sum(1 for g in grid if g.feasible),
        },
    )
    fileio.atomic_write_text(out_dir / "plan.txt", table + "\n")
    print(table)
    return EXIT_OK


def cmd_simulate(cfg: dict, out_dir: Path) -> int:
    """Plan, choose positions, simulate the receiver, decode, summarize."""
    seed = _require_seed(cfg)
    if cfg.get("no_signals", False):
        raise ParameterError("no_signals makes no sense for 'simulate'")
    params, _, bits = _planned_params(cfg)
    shared = SharedRandomness(seed)
    position_plan = choose_positions(shared, params.n_pairs, params.q, bits)
    transcript = simulate_transmission(params, position_plan, seed)
    stats = transcript.stats

    fileio.write_json_document(
        out_dir / "plan.json",
        "protocol_params",
        {"params": fileio.params_to_document(params), "resolved_config": cfg},
    )
    fileio.write_plan(out_dir / "plan.cvpl", position_plan)
    fileio.write_transcript_csv(out_dir / "transcript.csv", transcript)
    fileio.write_tally_csv(out_dir / "tally.csv", transcript)
    summary = {
        "sent_message": cfg["message"],
        "decoded_message": transcript.decoded,
        "exact_recovery": transcript.decoded == cfg["message"],
        "signal_probability": stats.vote_rate_per_pulse,
        "noise_probability": stats.noise_bin_click_rate,
        "error_rate": stats.vote_error_rate,
        "clicks_per_bit": stats.clicks_per_bit,
        "message_bit_error_rate": stats.message_bit_error_rate,
        "signal_bin_click_rate": stats.signal_bin_click_rate,
        "total_votes": stats.total_votes,
        "wrong_votes": stats.wrong_votes,
        "predicted_error_rate": predicted_vote_error_rate(params),
        "predicted_message_error": params.predicted_e,
        "positions_drawn": position_plan.d_prime,
        "repetitions_per_bit": position_plan.k_prime,
        "resolved_config": cfg,
        "params": fileio.params_to_document(params),
    }
    fileio.write_json_document(out_dir / "summary.json", "transmission_summary", summary)
    print(f"sent:    {cfg['message']}")
    print(f"decoded: {transcript.decoded}")
    print(
        f"signal probability {stats.vote_rate_per_pulse:.4e}, "
        f"noise probability {stats.noise_bin_click_rate:.4e}, "
        f"error rate {stats.vote_error_rate:.4%}, "
        f"clicks/bit {stats.clicks_per_bit:.2f}"
    )
    return EXIT_OK


def cmd_eavesdrop(cfg: dict, out_dir: Path) -> int:
    """Simulate the adversary: monitoring traces plus best-detector error."""
    seed = _require_seed(cfg)
    if "monitor_duration_s" in cfg and "monitor_interval_s" in cfg:
        # the times and the rate all come from the config: refuse a bad
        # interval count or pair count before planning
        monitor_interval_count(cfg["monitor_duration_s"], cfg["monitor_interval_s"])
        monitor_pairs_per_interval(cfg["rep_rate_hz"], cfg["monitor_interval_s"])
    params, _, _ = _planned_params(cfg)
    duration = cfg.get("monitor_duration_s", params.running_time_s)
    interval = cfg.get("monitor_interval_s", duration / DEFAULT_MONITOR_INTERVALS)
    trace_on = simulate_monitoring(params, True, duration, interval, seed)
    trace_off = simulate_monitoring(params, False, duration, interval, seed)
    fileio.write_monitor_csv(out_dir / "monitor_on.csv", trace_on)
    fileio.write_monitor_csv(out_dir / "monitor_off.csv", trace_off)

    result = run_distinguisher(params, cfg.get("trials", DEFAULT_TRIALS), seed)
    passed = result.security_check()
    ci = 1.96 * result.std_error
    fileio.write_json_document(
        out_dir / "report.json",
        "eavesdrop_report",
        dataclasses.asdict(result)
        | {
            "verdict": "PASS" if passed else "FAIL",
            "empirical_pe_ci95": [result.empirical_pe - ci, result.empirical_pe + ci],
            "resolved_config": cfg,
            "params": fileio.params_to_document(params),
        },
    )
    print(
        f"security check: {'PASS' if passed else 'FAIL'} "
        f"(empirical bias {result.empirical_bias:.4f} vs bound "
        f"{result.bound_epsilon:.4f} + {SECURITY_CHECK_SIGMAS:g} sigma = "
        f"{result.bound_epsilon + SECURITY_CHECK_SIGMAS * result.std_error:.4f})"
    )
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_validate(cfg: dict, out_dir: Path) -> int:
    """Re-check a previously written plan document against the config targets."""
    req, _ = _request_from_config(cfg)
    doc = fileio.read_json_document(out_dir / "plan.json", "protocol_params")
    if "params" not in doc:
        raise FormatError("plan document has no 'params' field")
    params = fileio.params_from_document(doc["params"])
    report = validate_plan(params, req)
    fileio.write_json_document(
        out_dir / "validate.json",
        "validation_report",
        {"passed": report.passed, "checks": report.checks, "resolved_config": cfg},
    )
    for c in report.checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.value:.6g} vs {c.limit:.6g}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# name -> (function, help text, flags besides --config, --out and --seed)
_COMMANDS = {
    "plan": (cmd_plan, "compute protocol parameters for a config", ()),
    "simulate": (cmd_simulate, "run one seeded transmission and decode it", ("rescale",)),
    "eavesdrop": (
        cmd_eavesdrop,
        "simulate the adversary and check the bias bound",
        ("rescale", "trials"),
    ),
    "validate": (cmd_validate, "re-check a written plan document against its targets", ()),
}
# flags that override the config key of the same name
_FLAGS = {
    "seed": (int, "master seed (overrides the config; required by simulate/eavesdrop)"),
    "rescale": (float, "desk-scale shrink factor applied to the plan"),
    "trials": (int, f"distinguisher Monte-Carlo trials ({MIN_TRIALS} to {MAX_TRIALS})"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertlink",
        description="Covert optical communication planning and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, extra) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, type=Path, help="YAML run config")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        for flag in ("seed", *extra):
            kind, flag_help = _FLAGS[flag]
            p.add_argument(f"--{flag}", type=kind, help=flag_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(load_config(args.config), args)
        return _COMMANDS[args.command][0](cfg, args.out)
    except (ParameterError, FormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
