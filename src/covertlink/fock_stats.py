"""Photon-number statistics for covert-link analysis.

Distributions over photon number n = 0, 1, 2, ... are represented as
truncated dense arrays with an explicit residual tail mass, so that
normalization is tracked exactly. Thermal (Bose-Einstein) and Poisson
laws are provided along with convolution, convex mixing, and relative
entropy.

The covert regime mixes a signal state rho_s into the idle state rho
with weight q ~ 1e-8, so D(rho || (1 - q) rho + q rho_s) is ~1e-16 and
is fixed by the O(q^2) part of each term. mixture_relative_entropy()
is the one formula for it: with x_n = rho_s(n)/rho(n) - 1 and
y_n = q x_n, every term rho_n (y_n - log1p(y_n)) is non-negative and
evaluated without cancellation (a series below |y| = 0.1), and the
linear part -q sum(rho x) is not summed at all. Over the whole support
it is exactly zero; over a truncated support it equals q times the
difference of the two laws' tail masses, which is carried analytically.
The result is accurate to a few units in the last place rather than to
the ~1e-9 the plain -rho log1p(y) terms reach, which is what lets the
security module treat the detection-bias bound as monotone at single
time-bin-pair resolution.

All relative entropies are reported in nats (natural logarithm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .exceptions import ParameterError

# Default per-distribution truncation tolerance. Security-critical
# assemblies use a much tighter cutoff (see security module).
DEFAULT_TRUNC_TOL = 1e-15

# Crude cap on |ln(p/s)| for normal doubles, used only to convert
# unresolvable truncated mass into an error bar.
_LOG_CAP = 1500.0


@dataclass(frozen=True, eq=False)
class MixtureTag:
    """Provenance record attached by mix() enabling the stable KL path."""

    base: "FockDistribution"
    component: "FockDistribution"
    weight: float


@dataclass(frozen=True, eq=False)
class FockDistribution:
    """Truncated photon-number pmf with explicit residual tail mass.

    Attributes:
        pmf: probabilities for n = 0..n_max as a 1-d float array.
        tail_mass: probability mass above n_max (exact or an upper bound).
        mixture: set by mix(); records the convex-combination structure.
    """

    pmf: np.ndarray
    tail_mass: float
    mixture: MixtureTag | None = None

    def __post_init__(self):
        pmf = np.atleast_1d(np.asarray(self.pmf, dtype=float))
        object.__setattr__(self, "pmf", pmf)
        pmf.setflags(write=False)
        if pmf.ndim != 1 or pmf.size == 0:
            raise ParameterError("pmf must be a non-empty 1-d array")
        if np.any(pmf < 0.0) or np.any(pmf > 1.0):
            raise ParameterError("pmf entries must lie in [0, 1]")
        if not 0.0 <= self.tail_mass <= 1.0:
            raise ParameterError("tail_mass must lie in [0, 1]")
        total = float(np.sum(pmf)) + self.tail_mass
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(
                f"pmf plus tail_mass must sum to 1 within 1e-12, got {total!r}"
            )

    @property
    def n_max(self) -> int:
        return self.pmf.size - 1

    def prob(self, n: int) -> float:
        """Probability of exactly n photons (0.0 beyond the truncation)."""
        if n < 0:
            raise ParameterError("photon number must be non-negative")
        return float(self.pmf[n]) if n <= self.n_max else 0.0


class RelativeEntropy(float):
    """A relative-entropy value in nats carrying a truncation error bar.

    Behaves as a plain float; error_bound bounds the absolute difference
    between this value and the untruncated infinite sum.
    """

    error_bound: float

    def __new__(cls, value: float, error_bound: float):
        obj = super().__new__(cls, value)
        obj.error_bound = float(error_bound)
        return obj


def _check_mean(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def _check_trunc_tol(trunc_tol: float) -> float:
    trunc_tol = float(trunc_tol)
    if not 0.0 < trunc_tol < 1.0:
        raise ParameterError(f"trunc_tol must lie in (0, 1), got {trunc_tol!r}")
    return trunc_tol


def thermal_weights(n_bar: float, trunc_tol: float) -> tuple[np.ndarray, float]:
    """Thermal pmf n_bar**n / (1 + n_bar)**(n + 1) up to its cutoff, and the tail.

    The law is geometric with ratio r = n_bar / (1 + n_bar); the cutoff
    is the smallest n_max whose closed-form tail r**(n_max + 1) is
    <= trunc_tol. Returns (pmf for n = 0..n_max, r**(n_max + 1)).
    """
    n_bar = _check_mean(n_bar, "n_bar")
    trunc_tol = _check_trunc_tol(trunc_tol)
    if n_bar == 0.0:
        return np.array([1.0]), 0.0
    ratio = n_bar / (1.0 + n_bar)
    log_ratio = math.log(ratio)
    n_max = max(0, math.ceil(math.log(trunc_tol) / log_ratio) - 1)
    # log rounding can be off by one in either direction
    while ratio ** (n_max + 1) > trunc_tol:
        n_max += 1
    while n_max > 0 and ratio**n_max <= trunc_tol:
        n_max -= 1
    n = np.arange(n_max + 1)
    return np.exp(n * log_ratio - math.log1p(n_bar)), ratio ** (n_max + 1)


def thermal_pmf(n_bar: float, trunc_tol: float = DEFAULT_TRUNC_TOL) -> FockDistribution:
    """Thermal (Bose-Einstein) photon-number distribution of mean n_bar.

    Args:
        n_bar: mean photon number, >= 0.
        trunc_tol: maximum allowed tail mass, in (0, 1).

    Returns:
        FockDistribution with exact tail_mass r**(n_max + 1); see
        thermal_weights for the cutoff rule.
    """
    return FockDistribution(*thermal_weights(n_bar, trunc_tol))


def poisson_pmf(mu: float, trunc_tol: float = DEFAULT_TRUNC_TOL) -> FockDistribution:
    """Poisson photon-number distribution of mean mu, truncated to trunc_tol.

    Models a phase-randomized coherent pulse. The cutoff is the smallest
    n_max with survival mass P(X > n_max) <= trunc_tol.
    """
    mu = _check_mean(mu, "mu")
    trunc_tol = _check_trunc_tol(trunc_tol)
    if mu == 0.0:
        return FockDistribution(np.array([1.0]), 0.0)
    start = stats.poisson.isf(trunc_tol, mu)
    # isf saturates to nan below roughly 1e-17; the factorial tail decay
    # makes the remaining upward walk short
    n_max = int(start) if math.isfinite(start) else int(math.ceil(mu))
    while stats.poisson.sf(n_max, mu) > trunc_tol:
        n_max += 1
    while n_max > 0 and stats.poisson.sf(n_max - 1, mu) <= trunc_tol:
        n_max -= 1
    pmf = stats.poisson.pmf(np.arange(n_max + 1), mu)
    return FockDistribution(pmf, float(stats.poisson.sf(n_max, mu)))


def convolve(a: FockDistribution, b: FockDistribution) -> FockDistribution:
    """Distribution of the sum of two independent photon-number variables.

    The signal-plus-background state is convolve(poisson_pmf(mu),
    thermal_pmf(n_bar)). The result's tail_mass is the exact probability
    that either input drew from its own tail, which upper-bounds the
    missing mass and is <= the sum of the input tail masses.
    """
    pmf = np.convolve(a.pmf, b.pmf)
    # rounding in the convolution sums can nudge entries past the checks
    np.clip(pmf, 0.0, 1.0, out=pmf)
    tail = a.tail_mass + b.tail_mass - a.tail_mass * b.tail_mass
    total = float(np.sum(pmf))
    if total + tail > 1.0:
        pmf *= (1.0 - tail) / total
    return FockDistribution(pmf, tail)


def mix(rho: FockDistribution, rho_s: FockDistribution, q: float) -> FockDistribution:
    """Convex combination (1 - q) * rho + q * rho_s over the union support.

    The returned distribution carries a MixtureTag so that
    relative_entropy(rho, result) can use the cancellation-stable path.
    q = 0 and q = 1 return the inputs unchanged.
    """
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"mixing weight must lie in [0, 1], got {q!r}")
    if q == 0.0:
        return rho
    if q == 1.0:
        return rho_s
    size = max(rho.pmf.size, rho_s.pmf.size)
    pa = np.zeros(size)
    pa[: rho.pmf.size] = rho.pmf
    pb = np.zeros(size)
    pb[: rho_s.pmf.size] = rho_s.pmf
    pmf = (1.0 - q) * pa + q * pb
    tail = (1.0 - q) * rho.tail_mass + q * rho_s.tail_mass
    return FockDistribution(pmf, tail, mixture=MixtureTag(rho, rho_s, q))


# Below this |y| the term y - log1p(y) is summed as its Taylor series;
# above it the direct difference keeps ~2e-15 relative accuracy.
_SERIES_CUTOFF = 0.1
# coefficients (-1)**j / j of y**j, highest order first; the first
# omitted term is below 1e-17 of the leading y**2 / 2 at the cutoff
_SERIES_COEFFS = tuple((-1) ** j / j for j in range(17, 1, -1))


def _log1p_gap(y: np.ndarray) -> np.ndarray:
    """y - log1p(y) elementwise, accurate to a few ulp for every y > -1."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    small = np.abs(y) <= _SERIES_CUTOFF
    ys = y[small]
    acc = np.full_like(ys, _SERIES_COEFFS[0])
    for c in _SERIES_COEFFS[1:]:
        acc = acc * ys + c
    out[small] = acc * ys * ys
    yl = y[~small]
    out[~small] = yl - np.log1p(yl)
    return out


def mixture_relative_entropy(
    rho: np.ndarray,
    x: np.ndarray,
    q: float,
    tail_rho: float,
    tail_s: float,
) -> RelativeEntropy:
    """D(rho || (1 - q) rho + q rho_s) in nats, from rho and x = rho_s/rho - 1.

    The terms rho_n (y_n - log1p(y_n)), y_n = q x_n, are non-negative
    and combined with exact summation. The linear part of the divergence
    is -q sum(rho x) over the support, which is exactly
    -q (tail_rho - tail_s) and is added in that form, so no O(q) pieces
    cancel inside the sum.

    Args:
        rho: reference weights on the support, all > 0.
        x: rho_s(n) / rho(n) - 1 on the same support, all >= -1.
        q: mixing weight, in [0, 1].
        tail_rho: rho mass beyond the support.
        tail_s: rho_s mass beyond the support (including any rho_s mass
            where rho has none).

    The error bar bounds the dropped beyond-support terms, q tail_s /
    (1 - q) + tail_rho (-log1p(-q)) (at q = 1, tail_s + tail_rho times
    the log cap), plus the rounding of the sum.
    """
    terms = rho * _log1p_gap(q * x)
    quadratic = math.fsum(terms)
    linear = q * (tail_rho - tail_s)
    value = quadratic - linear
    if q < 1.0:
        err = q * tail_s / (1.0 - q) + tail_rho * (-math.log1p(-q))
    else:
        err = tail_s + tail_rho * _LOG_CAP
    err += 2.5e-16 * (quadratic + abs(linear))
    if value < 0.0:
        # Gibbs: the exact D is >= 0, so tiny negatives are rounding
        value = 0.0
    return RelativeEntropy(value, err)


def relative_entropy(rho: FockDistribution, sigma: FockDistribution) -> RelativeEntropy:
    """Kullback-Leibler divergence D(rho || sigma) in nats.

    When sigma was produced by mix(rho, rho_s, q), the value comes from
    mixture_relative_entropy, which stays accurate in the covert regime
    q ~ 1e-8, D ~ 1e-16, where the naive log-of-ratio form loses
    everything to cancellation.

    Truncated-tail contributions are bounded analytically and reported in
    the result's error_bound instead of being silently dropped.

    Returns:
        RelativeEntropy (a float subclass); math.inf when rho has mass
        where sigma has none beyond truncation.
    """
    tag = sigma.mixture
    if tag is not None and tag.base is rho:
        return _relative_entropy_mixture(rho, tag.component, tag.weight)
    return _relative_entropy_generic(rho, sigma)


def _relative_entropy_mixture(
    rho: FockDistribution, rho_s: FockDistribution, q: float
) -> RelativeEntropy:
    support = rho.pmf.size
    pb = np.zeros(support)
    overlap = min(support, rho_s.pmf.size)
    pb[:overlap] = rho_s.pmf[:overlap]
    covered = rho.pmf > 0.0
    pa = rho.pmf[covered]
    # rho_s mass invisible from rho's support window
    s_beyond = float(np.sum(rho_s.pmf[support:])) + rho_s.tail_mass
    s_beyond += float(np.sum(pb[~covered]))
    return mixture_relative_entropy(
        pa, pb[covered] / pa - 1.0, q, rho.tail_mass, s_beyond
    )


def _relative_entropy_generic(
    rho: FockDistribution, sigma: FockDistribution
) -> RelativeEntropy:
    common = min(rho.pmf.size, sigma.pmf.size)
    terms = []
    for n in range(common):
        p = rho.pmf[n]
        if p == 0.0:
            continue
        s = sigma.pmf[n]
        if s == 0.0:
            return RelativeEntropy(math.inf, 0.0)
        terms.append(p * math.log(p / s))
    value = math.fsum(terms)

    # rho mass falling where sigma's values are unknown or absent
    uncovered = float(np.sum(rho.pmf[common:])) + rho.tail_mass
    if uncovered > 0.0 and sigma.tail_mass == 0.0 and sigma.pmf.size <= common:
        return RelativeEntropy(math.inf, 0.0)
    err = uncovered * _LOG_CAP
    err += 2.5e-16 * math.fsum(abs(t) for t in terms)
    if value < 0.0:
        value = 0.0
    return RelativeEntropy(value, err)
