"""Show that the benchmark's output checks reject wrong outputs.

    python3 perfbench/selftest.py

Run from the root of a checkout. Makes one real plan and one desk-scale
transmission, confirms the checks accept them, then feeds the checks
tampered copies that must each be refused: a plan with N lowered by
1e-3 relative, a plan with k - 1 repetitions, a transcript with one
outcome flipped, transcript CSV files cut short, and a position-plan
file with one byte changed. Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
from pathlib import Path

from run import OUT, SRC, import_program


def main() -> int:
    covertlink, _ = import_program()
    import checks
    import workloads

    work = OUT / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    failures = []

    def expect(label: str, accept: bool, check, *args) -> None:
        try:
            check(*args)
            outcome = "accepted"
        except checks.CheckFailed as exc:
            outcome = f"rejected ({exc})"
        ok = outcome == "accepted" if accept else outcome.startswith("rejected")
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {outcome}")
        if not ok:
            failures.append(label)

    try:
        cfg = workloads.bundled_config("fiber_cqtustc", SRC / "covertlink" / "configs")
        path = work / "plan.yaml"
        workloads.write_config(path, cfg)
        cfg = workloads.load_generated(path, cfg)
        params, bits, _ = workloads.plan_for(cfg)
        plan = covertlink.fileio.params_to_document(params)
        expect("plan as made", True, checks.check_plan, plan, cfg)

        n_low = int(plan["n_pairs"] * (1.0 - 1e-3))
        fewer_pairs = dict(
            plan, n_pairs=n_low, q=plan["d"] / n_low, running_time_s=2 * n_low / plan["rep_rate_hz"]
        )
        expect("plan with N lowered by 1e-3", False, checks.check_plan, fewer_pairs, cfg)
        k = plan["k"] - 1
        fewer_reps = dict(plan, k=k, d=k * plan["b"], q=k * plan["b"] / plan["n_pairs"])
        expect("plan with k - 1 repetitions", False, checks.check_plan, fewer_reps, cfg)

        desk = covertlink.simulator.rescale_plan(params, params.d / workloads.DESK_SIGNALS)
        layout = covertlink.codec.choose_positions(
            covertlink.codec.SharedRandomness(11), desk.n_pairs, desk.q, bits
        )
        tr = covertlink.simulator.simulate_transmission(desk, layout, 12)
        expect("transcript as simulated", True, checks.check_transcript, tr, bits)
        flipped = tr.outcomes.copy()
        flipped[0] = checks.ONE if flipped[0] == checks.ZERO else checks.ZERO
        expect(
            "transcript with one outcome flipped",
            False,
            checks.check_transcript,
            dataclasses.replace(tr, outcomes=flipped),
            bits,
        )

        csv = work / "transcript.csv"
        covertlink.fileio.write_transcript_csv(csv, tr)
        expect("transcript.csv as written", True, checks.check_transcript_csv, csv, tr)
        text = csv.read_text("ascii")
        csv.write_text(text[: text.rstrip("\n").rfind("\n") + 1], "ascii")
        expect("transcript.csv without its last row", False, checks.check_transcript_csv, csv, tr)
        csv.write_text(text[: len(text) // 2], "ascii")
        expect("transcript.csv cut mid-file", False, checks.check_transcript_csv, csv, tr)

        cvpl = work / "plan.cvpl"
        covertlink.fileio.write_plan(cvpl, layout)
        back = covertlink.fileio.read_plan(cvpl)
        expect("plan.cvpl as written", True, checks.check_plan_file, cvpl, layout, back)
        raw = bytearray(cvpl.read_bytes())
        raw[-1] ^= 1
        cvpl.write_bytes(bytes(raw))
        expect("plan.cvpl with one byte changed", False, checks.check_plan_file, cvpl, layout, back)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("self-test", "FAILED: " + ", ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
