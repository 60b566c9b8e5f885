"""Check CLI output files against the digests in tests/data/cli_golden.json.

Usage (from the repository root):

    python tests/check_cli_digests.py CONFIG COMMAND DIR FILE...

CONFIG is a config key of the golden file (e.g. fiber_cqtustc) and
COMMAND the output folder its files are recorded under: plan (plan.json
and plan.txt from `covertlink plan`, and validate.json from `covertlink
validate` on the same folder), simulate or eavesdrop. Each FILE in DIR
must have the sha256 recorded as
COMMAND/FILE; each digest is printed, and the first one that differs
ends the run with a non-zero exit and names the file.
"""

import hashlib
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def main(config: str, command: str, directory: str, *names: str) -> None:
    recorded = json.loads(GOLDEN.read_text("utf-8"))[config]["files"]
    for name in names:
        digest = hashlib.sha256((Path(directory) / name).read_bytes()).hexdigest()
        if digest != recorded[f"{command}/{name}"]:
            sys.exit(f"{config} {name}: sha256 {digest} differs from tests/data/cli_golden.json")
        print(f"{config} {name}: {digest}")


if __name__ == "__main__":
    if len(sys.argv) < 5:
        sys.exit(__doc__)
    main(*sys.argv[1:])
