"""Record the digests of the CLI's output files as a golden file.

Usage (from the repository root):

    PYTHONPATH=src python tests/make_cli_golden.py [--out PATH]

For each of three bundled configs this runs, through cli.main, the four
commands `plan`, `validate` (on plan's output), `simulate --seed 7` and
`eavesdrop --seed 5 --rescale 14`, each in its own output directory but
validate, which re-checks the plan directory. The file records every
command's exit code and the sha256 of every file left in the output
directories. tests/test_cli.py compares fresh runs against it, so a
change to the config checks or the report writers that moves a single
byte or exit code shows up there. Re-record only when such a move is
intended, and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

from covertlink.cli import main as cli_main

DEFAULT_OUT = Path(__file__).resolve().parent / "data" / "cli_golden.json"

CONFIGS = ("null_diagnostic", "negative_control", "fiber_cqtustc")
# (command name, output directory, extra flags)
COMMANDS = (
    ("plan", "plan", ()),
    ("validate", "plan", ()),
    ("simulate", "simulate", ("--seed", "7")),
    ("eavesdrop", "eavesdrop", ("--seed", "5", "--rescale", "14")),
)


def bundled_config(name: str) -> Path:
    return Path(str(resources.files("covertlink") / "configs" / f"{name}.yaml"))


def cli_record(config: Path, out: Path) -> dict:
    """Exit code of each command and sha256 of each file it left under out."""
    exit_codes = {}
    for command, folder, flags in COMMANDS:
        argv = [command, "--config", str(config), "--out", str(out / folder), *flags]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            exit_codes[command] = cli_main(argv)
    files = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    return {"exit_codes": exit_codes, "files": files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            records[name] = cli_record(bundled_config(name), Path(tmp) / name)
            print(f"{name}: exit codes {records[name]['exit_codes']}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
