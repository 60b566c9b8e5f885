"""Check the plan in a plan.json against tests/data/plan_golden.json.

Usage (from any directory):

    python tests/check_plan_golden.py CONFIG PLAN_JSON

CONFIG is a key of the golden file, a bundled config's file name (e.g.
fiber_qpqi.yaml), and PLAN_JSON the plan.json that `covertlink plan`
wrote for that config. The plan's k, d, n_pairs, mu and predicted_e must
equal the recorded values exactly: JSON floats read back to the same
doubles, so the check is bit for bit. Each value is printed, and the
first that differs ends the run with a non-zero exit and names the
field. It needs the standard library alone, so it runs where the test
extras are not installed.
"""

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "data" / "plan_golden.json"
FIELDS = ("k", "d", "n_pairs", "mu", "predicted_e")


def main(config: str, plan_json: str) -> None:
    recorded = json.loads(GOLDEN.read_text("utf-8"))[config]
    params = json.loads(Path(plan_json).read_text("utf-8"))["params"]
    for field in FIELDS:
        got, expected = params[field], recorded[field]
        if got != expected:
            sys.exit(f"{config} {field}: {got!r} differs from {expected!r} in {GOLDEN.name}")
        print(f"{config} {field}: {got!r}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
