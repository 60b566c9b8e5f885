"""
What the eavesdropper sees
==========================

An interceptor taps the line at the transmitter's output and counts
clicks. This script compares monitoring traces with and without a
transmission, then lets the exact per-pair likelihood-ratio test, the
best detector of the click counts (Neyman-Pearson), try to tell the
cases apart, first against a compliant transmitter and then against one
that cheats with 1000x the planned pulse intensity.
"""

import dataclasses

import numpy as np

from covertlink.planner import PlanRequest, plan
from covertlink.reliability import ChannelModel
from covertlink.simulator import rescale_plan, run_distinguisher, simulate_monitoring

request = PlanRequest(
    b=35,
    epsilon=0.014,
    target_e=0.01,
    channel=ChannelModel(tau=0.18, n_bar_a=2.3e-3, n_bar_b=3.18e-3),
    rep_rate_hz=5.0e8,
)
full = plan(request)

# desk rescale: same q and mu, ~5000 signals, so the Monte Carlo below
# runs in seconds; the bias bound is recomputed for the smaller record
desk = rescale_plan(full, full.d / 5000.0)
print(f"full plan:  d = {full.d}, N = {full.n_pairs:.3e}, bias bound {full.predicted_epsilon:.4f}")
print(f"desk plan:  d = {desk.d}, N = {desk.n_pairs:.3e}, bias bound {desk.predicted_epsilon:.4f}")

# click counts per interval, with and without the covert transmission
duration = desk.running_time_s
interval = duration / 20.0
on = simulate_monitoring(desk, True, duration, interval, rng_seed=11)
off = simulate_monitoring(desk, False, duration, interval, rng_seed=12)
print(f"\nmonitoring {len(on.counts)} intervals of {interval:.1f} s:")
print(f"  transmitting: mean {on.counts.mean():.0f}  sd {on.counts.std(ddof=1):.0f}")
print(f"  silent:       mean {off.counts.mean():.0f}  sd {off.counts.std(ddof=1):.0f}")
shift = on.counts.mean() - off.counts.mean()
print(f"  mean shift {shift:+.0f} clicks = {shift / off.counts.std(ddof=1):+.2f}"
      " per-interval standard deviations: lost in the noise")

# the distinguisher plays the likelihood-ratio test over fresh seeded trials
honest = run_distinguisher(desk, trials=4000, rng_seed=21)
print(f"\ncompliant transmitter, {honest.trials} trials:")
print(f"  likelihood-ratio error {honest.empirical_pe:.4f} +- {honest.std_error:.4f}")
print(f"  empirical bias {honest.empirical_bias:.4f}"
      f" <= bound {honest.bound_epsilon:.4f} + 3se {3 * honest.std_error:.4f}"
      f" -> {'within bound' if honest.security_check() else 'BOUND VIOLATED'}")

# negative control: crank the pulse intensity while keeping the claims
bright = dataclasses.replace(desk, mu=desk.mu * 1000.0)
caught = run_distinguisher(bright, trials=4000, rng_seed=22)
print(f"\n1000x-bright transmitter, same claimed bound:")
print(f"  empirical bias {caught.empirical_bias:.4f}"
      f" vs bound {caught.bound_epsilon:.4f} + 3se {3 * caught.std_error:.4f}"
      f" -> {'missed' if caught.security_check() else 'detected: claim rejected'}")
