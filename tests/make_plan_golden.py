"""Record the planner's answers on every bundled config as a golden file.

Usage (from the repository root):

    PYTHONPATH=src python tests/make_plan_golden.py [--out PATH]

For each bundled YAML config this plans exactly what `covertlink plan`
plans and writes, per config: k, d, mu, N, predicted_e, the two grid
counts of plan.json, and (mu, feasible, k) for every value of the
default mu grid. Configs that request the same plan are planned once.
tests/test_plan_golden.py compares a fresh plan against the file, so a
change to the searches that moves any integer, the chosen mu or the
feasible region shows up there. Re-record only when such a move is
intended, and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import re
from importlib import resources
from pathlib import Path

from covertlink.cli import _request_from_config, load_config
from covertlink.planner import PlanRequest, plan_with_report

DEFAULT_OUT = Path(__file__).resolve().parent / "data" / "plan_golden.json"


def bundled_configs() -> list[Path]:
    folder = resources.files("covertlink") / "configs"
    return sorted(Path(str(p)) for p in folder.iterdir() if p.name.endswith(".yaml"))


def request_for(path: Path) -> PlanRequest:
    req, _ = _request_from_config(load_config(path))
    return req


def request_key(req: PlanRequest) -> tuple:
    """Everything plan() reads, as a hashable tuple."""
    ch = req.channel
    return (
        req.b,
        req.epsilon,
        req.target_e,
        ch.tau,
        ch.n_bar_a,
        ch.n_bar_b,
        req.rep_rate_hz,
        tuple(float(m) for m in req.mu_grid),
    )


def golden_record(req: PlanRequest, params, points) -> dict:
    grid_size = len(req.mu_grid)
    return {
        "k": params.k,
        "d": params.d,
        "mu": params.mu,
        "n_pairs": params.n_pairs,
        "predicted_e": params.predicted_e,
        "grid_points_evaluated": len(points),
        "grid_points_feasible": sum(1 for g in points if g.feasible),
        "grid": [[g.mu, g.feasible, g.k] for g in points[:grid_size]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    records: dict[str, dict] = {}
    by_key: dict[tuple, dict] = {}
    for path in bundled_configs():
        req = request_for(path)
        key = request_key(req)
        if key not in by_key:
            params, points = plan_with_report(req)
            by_key[key] = golden_record(req, params, points)
            print(f"{path.name}: k={params.k} N={params.n_pairs} mu={params.mu:.6e}")
        records[path.name] = by_key[key]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(records, indent=1, sort_keys=True)
    # one line per grid value: collapse every innermost list
    text = re.sub(
        r"\[\s+([^\[\]]+?)\s+\]",
        lambda m: "[" + ", ".join(v.strip() for v in m.group(1).split(",")) + "]",
        text,
    )
    args.out.write_text(text + "\n", "utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
