"""
Photon statistics: hiding noise, covert pulses, and distinguishability
======================================================================

The covert link hides inside broadband background light. This script
builds the two photon-number distributions that matter (the thermal
background and a faint pulse riding on it), blends them the way an
interceptor would see them, and shows why the distinguishability
number needs a cancellation-stable evaluation.
"""

import numpy as np

from covertlink.fock_stats import DivergenceProfile

# one profile holds everything the divergence needs for a pulse of mean
# 3.52e-2 photons on a thermal background of mean 2.3e-3
profile = DivergenceProfile.build(3.52e-2, 2.3e-3)

# the background is thermal light: geometric photon-number distribution
background = profile.rho
print("thermal background, mean 2.3e-3 photons per mode")
print("  P(n=0..3) =", np.array2string(background[:4], precision=6))
print("  truncated at n =", background.size - 1, "tail mass", profile.tail_rho)

# a phase-randomized pulse has Poisson photon counts; on the channel it
# arrives convolved with the same thermal background. The profile keeps
# it as x = pulse / background - 1.
pulse = background * (1.0 + profile.x)
print("\npulse of mean 3.52e-2 photons on top of the background")
print("  P(n=0..3) =", np.array2string(pulse[:4], precision=6))

# a monitored mode carries the pulse only with tiny probability q, so
# the interceptor compares the background against a barely-shifted blend
print("\nrelative entropy between background and blend (nats):")
for q in (1e-2, 1e-5, 1e-8):
    d = profile.divergence(q)
    print(f"  q = {q:.0e}  D = {d:.6e}  (truncation bound {profile.error_bound(q):.1e})")

# the textbook sum p*log(p/s) subtracts nearly equal logs; at q = 1e-8
# the cancellation wipes out most significant digits
q = 1e-8
blend = (1.0 - q) * background + q * pulse
naive = float(np.sum(background * np.log(background / blend)))
stable = profile.divergence(q)
print(f"\nnaive log-ratio sum at q=1e-8:  {naive:.6e}")
print(f"stable evaluation:              {stable:.6e}")
print(f"relative error of the naive sum: {abs(naive - stable) / stable:.1%}")

# the divergence shrinks like q^2, which is what makes covert rates
# scale as the square root of the number of channel uses
d1 = profile.divergence(1e-4)
d2 = profile.divergence(2e-4)
print(f"\nq doubled from 1e-4 to 2e-4: D grows x{d2 / d1:.3f} (quadratic: x4)")
