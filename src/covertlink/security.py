"""Detection-bias bound for covert transmission and its inversions.

The adversary's advantage over random guessing is bounded by
sqrt(n_pairs * D / 8), where D is the per-mode relative entropy between
the channel's idle thermal state and its state during covert
transmission, a mixture of the idle state and the pulse on top of it.
This module evaluates the bound on D from fock_stats.DivergenceProfile
and inverts it to find the smallest number of time-bin pairs meeting a
covertness budget. The inversion is one bracketed Newton loop in log N,
a generator, _pair_search, that yields its profile and each divergence
it needs. In the planner's lockstep rounds (reliability._lockstep) the
profiles of every search that starts are built in one batched pass,
fock_stats._profiles, and the divergences of every pending search, each
with its slope dD/dq, in another, fock_stats._divergences; both give
the same doubles as one at a time. min_pairs_for_budget runs one
search, as a batch of one.

Convention: counts here are time-bin PAIRS; each pair contributes
BINS_PER_PAIR raw time bins when converted to wall-clock duration.
"""

from __future__ import annotations

import math

from .exceptions import InfeasibleError, _check_count, _check_real
from .fock_stats import _divergences, _profiles, per_mode_relative_entropy
from .reliability import _lockstep

BINS_PER_PAIR = 2

DEFAULT_PAIR_CEILING = 10**16

# a Newton step moves N by at most a factor e**_MAX_LOG_STEP
_MAX_LOG_STEP = 8.0


def detection_bias_bound(n_pairs: int, d_per_mode: float) -> float:
    """Upper bound sqrt(n_pairs * d_per_mode / 8) on the adversary's bias.

    Args:
        n_pairs: number of time-bin pairs available, an integer >= 1.
        d_per_mode: per-mode relative entropy in nats, finite and >= 0.
    """
    n_pairs = _check_count(n_pairs, "n_pairs", 1)
    return _bias(n_pairs, _check_real(d_per_mode, "d_per_mode", 0.0))


def _bias(n_pairs: int, d_per_mode: float) -> float:
    """detection_bias_bound's formula, for inputs already checked."""
    return math.sqrt(n_pairs * d_per_mode / 8.0)


def bias_for_protocol(n_pairs: int, d_signals: int, mu: float, n_bar_a: float) -> float:
    """Detection-bias bound for sending d_signals over n_pairs pairs."""
    n_pairs = _check_count(n_pairs, "n_pairs", 1)
    q = _check_count(d_signals, "d_signals", 0) / n_pairs
    return _bias(n_pairs, per_mode_relative_entropy(mu, n_bar_a, q))


def min_pairs_for_budget(epsilon: float, d_signals: int, mu: float, n_bar_a: float) -> int:
    """Smallest pair count N whose detection-bias bound meets the budget.

    The bound at q = d/N is non-increasing in N: the per-mode divergence
    is convex in q with D(0) = 0, so N D(d/N) = d D(q)/q cannot grow
    with N. The computed bound keeps that order at single-pair
    resolution because the profile's D is accurate to a few units in
    the last place (see fock_stats): one pair moves the bound by about
    1/(2N) relative, which stays above that noise up to N ~ 1e15. Above
    that, pass and fail can alternate pair by pair; the N returned still
    has bound(N) <= epsilon < bound(N - 1), the two ends of the bracket
    the search closes.

    One bracketed loop finds N, N - 1 failing and N passing. It starts
    from the square-root law: as q -> 0, D(q) = q^2 chi2 / 2, so N0 =
    d^2 chi2 / (16 epsilon^2). Each probe moves one end of the bracket,
    and the next lands by a Newton step on log(D(q)/q) against log q
    (slope 1 in the quadratic regime, 0 where terms saturate), rounded
    up and kept strictly inside the bracket. Where that slope is not
    positive (on a vacuum background D/q is flat) the loop doubles N
    until a passing N is known, and bisects from then on. It bisects, too,
    once a step lands at or past a probed far end: steps clamped inside
    each end in turn would close the bracket one pair at a time. Above N
    ~ 1e15, where D/q is resolved to about a pair, Newton steps shrink to
    a pair or two; from the fourth such step in a row the search gallops
    instead, striding 4 pairs from the end it walks from, then 8, 16 and
    so on, and bisects once the bracket is at most two strides wide. When
    a stride crosses the threshold, the pair beside the end it set out
    from is probed next, as a walk pair by pair would. A search costs a
    handful of divergence evaluations, each at an integer N.

    The search is _pair_search, which the planner runs in lockstep with
    the other grid points' searches; here it runs alone, as a batch of
    one. The budget and d_signals are checked once, here, before it
    starts; mu and n_bar_a when its profile is built.

    Args:
        epsilon: covertness budget, in (0, 0.5).
        d_signals: number of covert signals to hide, >= 0.
        mu: pulse mean photon number.
        n_bar_a: background mean photon number at the sender's output.

    Returns:
        N, an int >= 1 and >= d, since q = d/N is a probability; N = 1
        when there are no signals.

    Raises:
        ParameterError: a bad budget, or d_signals not an integer >= 0.
        InfeasibleError: no N in [d, DEFAULT_PAIR_CEILING] satisfies the
            budget (none exists when d exceeds the ceiling), or the
            background is the vacuum and the bound's limit as N grows,
            sqrt(d (1 - e^-mu) / 8), is not below the budget.
    """
    epsilon = _check_real(epsilon, "epsilon", 0.0, 0.5, open_lo=True, open_hi=True)
    d_signals = _check_count(d_signals, "d_signals", 0)
    return _lockstep([_pair_search(epsilon, d_signals, mu, n_bar_a)])[0]


def _pair_search(epsilon: float, d_signals: int, mu: float, n_bar_a: float):
    """min_pairs_for_budget's search, as a generator for reliability._lockstep,
    on a checked budget and d_signals.

    It yields (_profiles, (mu, n_bar_a)) once and is sent its profile,
    then (_divergences, (profile, q)) for each pair count N it evaluates,
    q = d/N, and is sent D(q) with dD/dq, the slope of its next Newton
    step; it returns N. No N is evaluated twice: each lies strictly
    inside the bracket (lo, hi) and then becomes one of its ends.
    """
    if d_signals == 0:
        return 1
    if d_signals > DEFAULT_PAIR_CEILING:
        raise InfeasibleError(
            f"no pair count up to {DEFAULT_PAIR_CEILING:.3g} can carry "
            f"d={d_signals} signals (q = d/N <= 1)"
        )

    profile = yield _profiles, (mu, n_bar_a)
    # the bracket: bound(lo) > epsilon >= bound(hi), where lo = d - 1 stands
    # for every allowed N below hi, and hi = DEFAULT_PAIR_CEILING + 1 for
    # no passing N probed yet
    lo, hi = d_signals - 1, DEFAULT_PAIR_CEILING + 1

    def inside(n_pairs: float) -> int:
        return math.ceil(min(max(n_pairs, lo + 1), hi - 1))

    if profile.uncovered > 0.0:
        limit = math.sqrt(d_signals * profile.uncovered / 8.0)
        if limit >= epsilon:
            raise InfeasibleError(
                "vacuum background (n_bar_a = 0): the pulse puts photons where "
                "the idle channel has none, so the divergence grows linearly in q, "
                "no square-root law holds, and the bound only falls to "
                f"{limit:.3g} >= budget {epsilon} for d={d_signals}, mu={mu}"
            )
        n = d_signals
    else:
        n = inside(d_signals**2 * profile.chi2 / (16.0 * epsilon**2))
    target = 8.0 * epsilon**2 / d_signals  # the answer has D(q)/q = target
    # Newton steps of 2 pairs or fewer in a row, the last stride of the
    # gallop that follows them, and whether it strides down (or up)
    creeps, stride, down = 0, 0, None
    while True:
        d_mode, d_slope = yield _divergences, (profile, d_signals / n)
        if _bias(n, d_mode) <= epsilon:
            hi = n
        elif n >= DEFAULT_PAIR_CEILING:
            raise InfeasibleError(
                f"no pair count up to {DEFAULT_PAIR_CEILING:.3g} meets detection-bias budget "
                f"{epsilon} for d={d_signals}, mu={mu}"
            )
        else:
            lo = n
        if hi - lo <= 1:
            break
        if down is not None and (n == lo) == down:
            # the gallop crossed the threshold: probe the pair beside the
            # end it strode from, as a walk pair by pair would
            n, down = (hi - 1 if down else lo + 1), None
            continue
        q = d_signals / n
        slope = 0.0  # of log(D/q) against log q; D/q is flat on a vacuum background
        if d_mode > 0.0 and profile.uncovered == 0.0:
            slope = q * d_slope / d_mode - 1.0
        if slope > 0.0:
            step = (math.log(d_mode / q) - math.log(target)) / slope
            guess = n * math.exp(min(max(step, -_MAX_LOG_STEP), _MAX_LOG_STEP))
            # the far end, hi from a failing n and lo from a passing one
            if n == lo:
                past_far_end = guess >= hi and hi <= DEFAULT_PAIR_CEILING
            else:
                past_far_end = guess <= lo and lo >= d_signals
            if not past_far_end:
                move = inside(guess) - n
                creeps = creeps + 1 if abs(move) <= 2 else 0
                if creeps <= 3:
                    stride, down = 0, None
                    n += move
                    continue
                # D/q is resolved to about a pair here: stride away from
                # this end, 4 pairs and then twice the last stride, while
                # the bracket is wide, and bisect it once narrow
                stride = 2 * stride if stride else 4
                if hi - lo > 2 * stride:
                    down = n == hi
                    n = inside(n - stride if down else n + stride)
                    continue
        if hi > DEFAULT_PAIR_CEILING:
            n = inside(2 * n)
        else:
            n = (lo + hi) // 2
    return hi
