"""Detection-bias bound for covert transmission and its inversions.

The adversary's advantage over random guessing is bounded by
sqrt(n_pairs * D / 8), where D is the per-mode relative entropy between
the channel's idle thermal state and its state during covert
transmission, a mixture of the idle state and the pulse on top of it.
This module evaluates the bound on D from fock_stats.DivergenceProfile
and inverts it to find the smallest number of time-bin pairs meeting a
covertness budget. The inversion is a generator, _pair_search, that
yields each divergence it needs; in the planner's lockstep rounds
(reliability._lockstep) the divergences of every pending search are
formed in one batched pass, fock_stats._divergences, with the same
doubles as one at a time. min_pairs_for_budget runs one search, as a
batch of one.

Convention: counts here are time-bin PAIRS; each pair contributes
BINS_PER_PAIR raw time bins when converted to wall-clock duration.
"""

from __future__ import annotations

import math

from .exceptions import InfeasibleError, ParameterError
from .fock_stats import DivergenceProfile, _divergences, per_mode_relative_entropy
from .reliability import _lockstep

BINS_PER_PAIR = 2

DEFAULT_PAIR_CEILING = 10**16

# Newton refinement of the square-root-law start: at most this many
# steps, each moving N by at most a factor e**_MAX_LOG_STEP
_NEWTON_STEPS = 8
_MAX_LOG_STEP = 8.0


def detection_bias_bound(n_pairs: int, d_per_mode: float) -> float:
    """Upper bound sqrt(n_pairs * d_per_mode / 8) on the adversary's bias.

    Args:
        n_pairs: number of time-bin pairs available, >= 1.
        d_per_mode: per-mode relative entropy in nats, >= 0.
    """
    if n_pairs < 1:
        raise ParameterError(f"n_pairs must be >= 1, got {n_pairs!r}")
    d_per_mode = float(d_per_mode)
    if not d_per_mode >= 0.0:
        raise ParameterError(f"d_per_mode must be >= 0, got {d_per_mode!r}")
    return math.sqrt(n_pairs * d_per_mode / 8.0)


def _check_budget(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 0.5:
        raise ParameterError(f"detection-bias budget must lie in (0, 0.5), got {epsilon!r}")
    return epsilon


def bias_for_protocol(n_pairs: int, d_signals: int, mu: float, n_bar_a: float) -> float:
    """Detection-bias bound for sending d_signals over n_pairs pairs."""
    q = d_signals / n_pairs
    return detection_bias_bound(n_pairs, per_mode_relative_entropy(mu, n_bar_a, q))


def min_pairs_for_budget(epsilon: float, d_signals: int, mu: float, n_bar_a: float) -> int:
    """Smallest pair count N whose detection-bias bound meets the budget.

    The bound at q = d/N is non-increasing in N: the per-mode divergence
    is convex in q with D(0) = 0, so N D(d/N) = d D(q)/q cannot grow
    with N. The computed bound keeps that order at single-pair
    resolution because the profile's D is accurate to a few units in
    the last place (see fock_stats): one pair moves the bound by about
    1/(2N) relative, which stays above that noise up to N ~ 1e15. The
    former double-precision sum carried ~1e-9 relative noise, so the
    computed bound reversed thousands of times near the answer and the
    returned N depended on the bisection path.

    The search starts from the square-root law: as q -> 0,
    D(q) = q^2 chi2 / 2, so N0 = d^2 chi2 / (16 epsilon^2). Newton steps
    on log(D(q)/q) against log q (slope 1 in the quadratic regime, 0
    where terms saturate) refine N0 to within a pair or two, usually in
    one step. Galloping outward from there brackets the answer between
    a failing and a passing N, and bisection closes the bracket. A
    search costs a handful of divergence evaluations, each at an
    integer N and kept for reuse; the returned N is verified against
    N - 1.

    The search is _pair_search, which the planner runs in lockstep with
    the other grid points' searches; here it runs alone, as a batch of
    one.

    Args:
        epsilon: covertness budget, in (0, 0.5).
        d_signals: number of covert signals to hide, >= 0.
        mu: pulse mean photon number.
        n_bar_a: background mean photon number at the sender's output.

    Returns:
        N, an int >= 1 and >= d, since q = d/N is a probability; N = 1
        when there are no signals.

    Raises:
        ParameterError: a bad budget or d_signals < 0.
        InfeasibleError: no N in [d, DEFAULT_PAIR_CEILING] satisfies the
            budget (none exists when d exceeds the ceiling), or the
            background is the vacuum and the bound's limit as N grows,
            sqrt(d (1 - e^-mu) / 8), is not below the budget.
    """
    return _lockstep([_pair_search(epsilon, d_signals, mu, n_bar_a)])[0]


def _pair_search(epsilon: float, d_signals: int, mu: float, n_bar_a: float):
    """min_pairs_for_budget's search, as a generator for reliability._lockstep.

    It yields (_divergences, (profile, q)) for each pair count N it
    evaluates, q = d/N, memoized per N, is sent D(q), and returns N.
    """
    epsilon = _check_budget(epsilon)
    if d_signals < 0:
        raise ParameterError(f"d_signals must be >= 0, got {d_signals!r}")
    if d_signals == 0:
        return 1
    if d_signals > DEFAULT_PAIR_CEILING:
        raise InfeasibleError(
            f"no pair count up to {DEFAULT_PAIR_CEILING:.3g} can carry "
            f"d={d_signals} signals (q = d/N <= 1)"
        )

    profile = DivergenceProfile.build(mu, n_bar_a)
    floor = d_signals
    divergences: dict[int, float] = {}

    def divergence_at(n_pairs: int):
        if n_pairs not in divergences:
            divergences[n_pairs] = yield _divergences, (profile, d_signals / n_pairs)
        return divergences[n_pairs]

    def bound(n_pairs: int):
        return detection_bias_bound(n_pairs, (yield from divergence_at(n_pairs)))

    def clamp(n_pairs: float) -> int:
        return int(min(max(math.ceil(n_pairs), floor), DEFAULT_PAIR_CEILING))

    if profile.uncovered > 0.0:
        limit = math.sqrt(d_signals * profile.uncovered / 8.0)
        if limit >= epsilon:
            raise InfeasibleError(
                "vacuum background (n_bar_a = 0): the pulse puts photons where "
                "the idle channel has none, so the divergence grows linearly in q, "
                "no square-root law holds, and the bound only falls to "
                f"{limit:.3g} >= budget {epsilon} for d={d_signals}, mu={mu}"
            )
        n = floor
    elif profile.chi2 == 0.0:
        n = floor
    else:
        target = 8.0 * epsilon**2 / d_signals  # the answer has D(q)/q = target
        n = clamp(d_signals**2 * profile.chi2 / (16.0 * epsilon**2))
        for _ in range(_NEWTON_STEPS):
            q = d_signals / n
            d_mode = yield from divergence_at(n)
            if d_mode == 0.0:
                break
            # slope of log(D/q) against log q
            slope = q * profile.slope(q) / d_mode - 1.0
            if not slope > 0.0:
                break
            step = (math.log(d_mode / q) - math.log(target)) / slope
            new_n = clamp(n * math.exp(min(max(step, -_MAX_LOG_STEP), _MAX_LOG_STEP)))
            if abs(new_n - n) <= 1:
                n = new_n
                break
            n = new_n

    # gallop outward from n to a bracket: bound(lo) > epsilon >= bound(hi);
    # lo = floor - 1 stands for "every allowed N below hi"
    if (yield from bound(n)) <= epsilon:
        hi, step = n, 1
        lo = hi - step
        while lo >= floor and (yield from bound(lo)) <= epsilon:
            hi, step = lo, 2 * step
            lo = hi - step
        lo = max(lo, floor - 1)
    else:
        lo, step = n, 1
        while True:
            hi = min(lo + step, DEFAULT_PAIR_CEILING)
            if (yield from bound(hi)) <= epsilon:
                break
            if hi >= DEFAULT_PAIR_CEILING:
                raise InfeasibleError(
                    f"no pair count up to {DEFAULT_PAIR_CEILING:.3g} meets detection-bias budget "
                    f"{epsilon} for d={d_signals}, mu={mu}"
                )
            lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (yield from bound(mid)) > epsilon:
            lo = mid
        else:
            hi = mid
    if (yield from bound(hi)) > epsilon or (hi > floor and (yield from bound(hi - 1)) <= epsilon):
        raise InfeasibleError("bisection postcondition failed; bound not monotone here")
    return hi
