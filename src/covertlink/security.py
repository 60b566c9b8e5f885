"""Detection-bias bound for covert transmission and its inversions.

The adversary's advantage over random guessing is bounded by
sqrt(n_pairs * D / 8), where D is the per-mode relative entropy between
the channel's idle thermal state and its state during covert
transmission, a mixture of the idle state and the pulse on top of it.
This module builds what D needs for one pulse intensity and background
(DivergenceProfile, in closed form), evaluates the bound, and inverts
it to find the smallest number of time-bin pairs meeting a covertness
budget.

Convention: counts here are time-bin PAIRS; each pair contributes
BINS_PER_PAIR raw time bins when converted to wall-clock duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .exceptions import InfeasibleError, ParameterError
from .fock_stats import RelativeEntropy, mixture_relative_entropy, thermal_weights

BINS_PER_PAIR = 2

# Tail mass at which the thermal background is truncated: the bound
# lives at D ~ 1e-16, and a 1e-15 tail would shift its sixth
# significant figure.
SECURITY_TRUNC_TOL = 1e-30

DEFAULT_PAIR_CEILING = 10**16

# Newton refinement of the square-root-law start: at most this many
# steps, each moving N by at most a factor e**_MAX_LOG_STEP
_NEWTON_STEPS = 8
_MAX_LOG_STEP = 8.0


@dataclass(frozen=True)
class ModePair:
    """Count of time-bin pairs.

    bias_bound is the detection-bias bound the search computed at
    n_pairs (nan when the pair count was made by hand).
    """

    n_pairs: int
    bias_bound: float = field(default=math.nan, compare=False)

    def __post_init__(self):
        if not isinstance(self.n_pairs, int) or self.n_pairs < 1:
            raise ParameterError(f"n_pairs must be an integer >= 1, got {self.n_pairs!r}")


@dataclass(frozen=True, eq=False)
class DivergenceProfile:
    """What D(q) = D(rho || (1 - q) rho + q rho_s) needs, for one (mu, n_bar_a).

    rho is thermal(n_bar_a) over its support at SECURITY_TRUNC_TOL;
    rho_s is Poisson(mu) convolved with the same thermal law, the pulse
    riding on the background. On that support
    rho_s(n) / rho(n) = e^-mu sum_{j<=n} a^j / j! with a = mu / r and
    r = n_bar_a / (1 + n_bar_a), so x = rho_s/rho - 1 comes in closed
    form. Built once, the profile evaluates D at any q for the cost of
    one pass over a few dozen terms.

    Attributes:
        rho, x: weights and ratios on the support n = 0..n_max.
        tail_rho, tail_s: mass of rho and of rho_s beyond the support.
        chi2: sum(rho x^2), the small-q curvature, 2 D(q) / q^2 -> chi2.
        uncovered: rho_s mass where rho has none at all. It is nonzero
            only for a vacuum background (n_bar_a = 0), where D grows
            linearly in q and no square-root law holds.
    """

    mu: float
    n_bar_a: float
    rho: np.ndarray
    x: np.ndarray
    tail_rho: float
    tail_s: float
    chi2: float
    uncovered: float

    @classmethod
    def build(cls, mu: float, n_bar_a: float) -> "DivergenceProfile":
        mu = float(mu)
        if not math.isfinite(mu) or mu < 0.0:
            raise ParameterError(f"mu must be finite and >= 0, got {mu!r}")
        rho, tail_rho = thermal_weights(n_bar_a, SECURITY_TRUNC_TOL)
        n_max = rho.size - 1
        # x_0 = e^-mu - 1; for n >= 1 the j >= 1 part of the partial
        # exponential sum is added to it, so no term cancels against 1
        x = np.full(rho.size, math.expm1(-mu))
        if n_max > 0:
            a = mu * (1.0 + n_bar_a) / n_bar_a
            with np.errstate(over="ignore"):
                partial = np.cumsum(np.cumprod(a / np.arange(1, n_max + 1)))
                x[1:] += math.exp(-mu) * partial
            if not np.all(np.isfinite(x)):
                raise ParameterError(
                    f"mu = {mu!r} is too bright against n_bar_a = {n_bar_a!r} "
                    "for the divergence to be represented in doubles"
                )
        # tail_s = P(X + Y > n_max), X ~ Poisson(mu), Y ~ thermal, split on
        # X = j: the j <= n_max thermal tails r^(n_max + 1 - j) sum to
        # tail_rho * rho_s(n_max) / rho(n_max); X > n_max is the Poisson
        # tail, a regularized incomplete gamma. Neither piece cancels.
        tail_s = float(tail_rho * (1.0 + x[-1]) + special.gammainc(n_max + 1, mu))
        uncovered = -math.expm1(-mu) if n_bar_a == 0.0 else 0.0
        chi2 = math.inf if uncovered > 0.0 else math.fsum(rho * x * x)
        return cls(
            mu=mu,
            n_bar_a=float(n_bar_a),
            rho=rho,
            x=x,
            tail_rho=tail_rho,
            tail_s=tail_s,
            chi2=chi2,
            uncovered=uncovered,
        )

    def divergence(self, q: float) -> RelativeEntropy:
        """Per-mode relative entropy D(q) in nats, with its error bar."""
        q = float(q)
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"q must lie in [0, 1], got {q!r}")
        return mixture_relative_entropy(self.rho, self.x, q, self.tail_rho, self.tail_s)

    def slope(self, q: float) -> float:
        """dD/dq: sum(rho x y / (1 + y)) plus the linear tail term."""
        y = q * self.x
        return math.fsum(self.rho * self.x * y / (1.0 + y)) - (self.tail_rho - self.tail_s)


def per_mode_relative_entropy(mu: float, n_bar_a: float, q: float) -> RelativeEntropy:
    """D(rho || (1 - q) rho + q rho_s) for one pulse intensity, via its profile."""
    return DivergenceProfile.build(mu, n_bar_a).divergence(q)


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


def min_pairs_for_budget(
    epsilon: float,
    d_signals: int,
    mu: float,
    n_bar_a: float,
    ceiling: int = DEFAULT_PAIR_CEILING,
) -> ModePair:
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

    Args:
        epsilon: covertness budget, in (0, 0.5).
        d_signals: number of covert signals to hide, >= 0.
        mu: pulse mean photon number.
        n_bar_a: background mean photon number at the sender's output.
        ceiling: largest N considered before declaring infeasibility.

    Returns:
        ModePair with the bound at N in bias_bound. N >= d, since
        q = d/N is a probability.

    Raises:
        InfeasibleError: no N <= ceiling satisfies the budget, or the
            background is the vacuum and the bound's limit as N grows,
            sqrt(d (1 - e^-mu) / 8), is not below the budget.
    """
    epsilon = _check_budget(epsilon)
    if d_signals < 0:
        raise ParameterError(f"d_signals must be >= 0, got {d_signals!r}")
    if d_signals == 0:
        return ModePair(1, 0.0)

    profile = DivergenceProfile.build(mu, n_bar_a)
    floor = d_signals
    divergences: dict[int, float] = {}

    def divergence_at(n_pairs: int) -> float:
        if n_pairs not in divergences:
            divergences[n_pairs] = float(profile.divergence(d_signals / n_pairs))
        return divergences[n_pairs]

    def bound(n_pairs: int) -> float:
        return detection_bias_bound(n_pairs, divergence_at(n_pairs))

    def clamp(n_pairs: float) -> int:
        return int(min(max(math.ceil(n_pairs), floor), ceiling))

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
            d_mode = divergence_at(n)
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
    if bound(n) <= epsilon:
        hi, step = n, 1
        lo = hi - step
        while lo >= floor and bound(lo) <= epsilon:
            hi, step = lo, 2 * step
            lo = hi - step
        lo = max(lo, floor - 1)
    else:
        lo, step = n, 1
        while True:
            hi = min(lo + step, ceiling)
            if bound(hi) <= epsilon:
                break
            if hi >= ceiling:
                raise InfeasibleError(
                    f"no pair count up to {ceiling:.3g} meets detection-bias budget "
                    f"{epsilon} for d={d_signals}, mu={mu}"
                )
            lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) > epsilon:
            lo = mid
        else:
            hi = mid
    if bound(hi) > epsilon or (hi > floor and bound(hi - 1) <= epsilon):
        raise InfeasibleError("bisection postcondition failed; bound not monotone here")
    return ModePair(hi, bound(hi))
