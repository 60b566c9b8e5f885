"""Record the digests of the receiver's output files as a golden file.

Usage (from the repository root):

    PYTHONPATH=src python tests/make_receiver_golden.py [--out PATH]

For each fiber reference scenario this plans the default-grid request of
the tests' session fixture, then runs a seeded choose_positions and
simulate_transmission and writes plan.cvpl, transcript.csv and tally.csv
as the CLI does. One synthetic plan over about 1e15 pairs adds
16-digit positions and dummy positions. The file records the sha256 of
each output. tests/test_fileio.py compares fresh outputs against it, so
a change to the position draw or the writers that moves a single byte
shows up there. Re-record only when such a move is intended, and say
why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import reference_scenarios as ref
from conftest import fiber_request
from covertlink.codec import SharedRandomness, choose_positions, encode_message
from covertlink.fileio import write_plan, write_tally_csv, write_transcript_csv
from covertlink.planner import ProtocolParams, plan_with_report
from covertlink.simulator import simulate_transmission

DEFAULT_OUT = Path(__file__).resolve().parent / "data" / "receiver_golden.json"

POSITION_SEED = 20170
NOISE_SEED = 31415
OUTPUTS = ("plan.cvpl", "transcript.csv", "tally.csv")

# 16-digit positions: the widest a transcript row gets below 2**53
SYNTHETIC_NAME = "synthetic-1e15"
SYNTHETIC_PAIRS = 1_234_567_890_123_457
SYNTHETIC_K = 61


def synthetic_params(base: ProtocolParams) -> ProtocolParams:
    """base's channel and b, with k = SYNTHETIC_K over SYNTHETIC_PAIRS pairs."""
    d = SYNTHETIC_K * base.b
    return dataclasses.replace(
        base,
        k=SYNTHETIC_K,
        d=d,
        n_pairs=SYNTHETIC_PAIRS,
        q=d / SYNTHETIC_PAIRS,
    )


def receiver_digests(params: ProtocolParams, message: str, out: Path) -> dict:
    """sha256 of each receiver output for one seeded transmission of params."""
    plan = choose_positions(
        SharedRandomness(POSITION_SEED), params.n_pairs, params.q, encode_message(message)
    )
    transcript = simulate_transmission(params, plan, NOISE_SEED)
    write_plan(out / "plan.cvpl", plan)
    write_transcript_csv(out / "transcript.csv", transcript)
    write_tally_csv(out / "tally.csv", transcript)
    record = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}
    record["d_prime"] = plan.d_prime
    record["dummies"] = plan.d_prime - plan.b * plan.k_prime
    return record


def golden_cases(reference_params: dict[str, ProtocolParams]) -> dict[str, tuple]:
    """{case name: (params, message)}: every fiber scenario plus the synthetic plan."""
    cases = {op.name: (reference_params[op.name], op.message) for op in ref.FIBER}
    first = ref.FIBER[0]
    cases[SYNTHETIC_NAME] = (synthetic_params(reference_params[first.name]), first.message)
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    reference_params = {op.name: plan_with_report(fiber_request(op))[0] for op in ref.FIBER}
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (params, message) in golden_cases(reference_params).items():
            out = Path(tmp) / name
            records[name] = receiver_digests(params, message, out)
            print(f"{name}: d'={records[name]['d_prime']} dummies={records[name]['dummies']}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
