"""
Planning a covert link from channel constants
=============================================

Given a message length, a stealth budget, a reliability target, and the
measured channel (transmissivity plus noise at both ends), the planner
picks the pulse intensity that moves the message in the least wall-clock
time. This script plans a 35-bit message over a 500 MHz link and then
re-derives its two claims, the detection-bias bound and the message
error, from scratch.
"""

import numpy as np

from covertlink.planner import PlanRequest, plan_with_report, validate_plan
from covertlink.reliability import ChannelModel

request = PlanRequest(
    b=35,                     # message bits
    epsilon=0.014,            # detection-bias budget
    target_e=0.01,            # whole-message decoding error target
    channel=ChannelModel(tau=0.18, n_bar_a=2.3e-3, n_bar_b=3.18e-3),
    rep_rate_hz=5.0e8,
)

params, grid = plan_with_report(request)

print("chosen operating point:")
print(f"  pulse intensity mu       = {params.mu:.4e}")
print(f"  repetitions per bit k    = {params.k}")
print(f"  covert signals d = k*b   = {params.d}")
print(f"  send probability q       = {params.q:.3e}")
print(f"  time-bin pairs N         = {params.n_pairs:.4e}")
print(f"  running time             = {params.running_time_s:.1f} s")
print(f"  predicted detection bias = {params.predicted_epsilon:.4f} (budget {request.epsilon})")
print(f"  predicted message error  = {params.predicted_e:.4f} (target {request.target_e})")

# the grid report shows the tradeoff: dim pulses need huge repetition
# counts, bright ones blow the stealth budget
feasible = [g for g in grid if g.feasible]
print(f"\ngrid: {len(feasible)} of {len(grid)} candidate intensities feasible")
for g in feasible[:: max(1, len(feasible) // 5)]:
    print(f"  mu = {g.mu:.3e}  k = {g.k:6d}  N = {g.n_pairs:.3e}")

# a flat-bottomed search valley: the planner prefers the dimmest grid
# point whose pair count is within 5% of the grid's smallest
costs = np.array([g.n_pairs for g in feasible], dtype=float)
print(f"\ncost spread across feasible grid: x{costs.max() / costs.min():.1f}")

# independent re-check of the plan's two claims: the bias bound and the message error
report = validate_plan(params, request)
print("\nvalidation report:")
for check in report.checks:
    print(f"  {check.name:<18} {'ok' if check.passed else 'FAILED'}"
          f"  value {check.value:.6g} vs limit {check.limit:.6g}")
print("plan accepted" if report.passed else "plan rejected")
