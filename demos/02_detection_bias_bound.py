"""
Budgeting stealth: the detection-bias bound and the square-root law
===================================================================

An interceptor watching N time-bin pairs cannot do better than random
guessing by more than the detection bias epsilon. This script prices a
message in channel uses: how many pairs buy a given bias budget, and
how that cost scales with the number of covert signals.
"""

from covertlink.security import (
    BINS_PER_PAIR,
    bias_for_protocol,
    detection_bias_bound,
    min_pairs_for_budget,
    per_mode_relative_entropy,
)

MU = 3.52e-2        # pulse intensity at the transmitter
NOISE = 2.3e-3      # thermal photons per mode at the interceptor's tap
D_SIGNALS = 68_651  # covert pulses the message needs

# more pairs dilute the same d signals (q = d/N falls), so the bias
# bound falls even though the record the interceptor sees grows
print("bias bound as the record stretches (d fixed):")
for n_pairs in (10**10, 10**11, 10**12):
    q = D_SIGNALS / n_pairs
    d_mode = per_mode_relative_entropy(MU, NOISE, q)
    eps = detection_bias_bound(n_pairs, d_mode)
    print(f"  N = {n_pairs:.0e} pairs  q = {q:.2e}  bias <= {eps:.4f}")

# invert the relationship: smallest N meeting a 0.014 budget
budget = 0.014
needed = min_pairs_for_budget(budget, D_SIGNALS, MU, NOISE)
print(f"\nbudget {budget}: need N = {needed:.4e} pairs"
      f" ({BINS_PER_PAIR * needed:.4e} raw bins)")
print(f"  check: bound at N    = {bias_for_protocol(needed, D_SIGNALS, MU, NOISE):.6f}")
print(f"  check: bound at N-1  = {bias_for_protocol(needed - 1, D_SIGNALS, MU, NOISE):.6f}")

# doubling the signal count quadruples the required pairs: reliable
# covert bits scale as sqrt(N)
print("\nrequired pairs vs signal count (same budget):")
base = None
for d in (1_000, 2_000, 4_000, 8_000):
    n = min_pairs_for_budget(budget, d, MU, NOISE)
    base = base or n
    print(f"  d = {d:5d}  N = {n:.4e}  (x{n / base:.2f} of d=1000, d^2 ratio x{(d / 1_000) ** 2})")
