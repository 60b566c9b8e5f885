"""The per-mode divergence of a faint pulse on thermal light.

The covert regime mixes a signal state rho_s into the idle thermal
state rho with weight q ~ 1e-8, so D(rho || (1 - q) rho + q rho_s) is
~1e-16 and is fixed by the O(q^2) part of each term. DivergenceProfile
is the one place that D is formed, for one pulse intensity mu on a
thermal background of mean n_bar_a:

- build() lays out rho, the thermal (Bose-Einstein) law truncated where
  its closed-form tail falls to 1e-30, and x_n = rho_s(n)/rho(n) - 1 in
  closed form, with the mass of both laws beyond the support;
- divergence(q) sums the terms rho_n (y_n - log1p(y_n)), y_n = q x_n.
  Each is non-negative and evaluated without cancellation (a series
  below |y| = 0.1), and the linear part -q sum(rho x) is not summed at
  all. Over the whole support it is exactly zero; over a truncated
  support it equals q times the difference of the two laws' tail
  masses, which is carried analytically.

Each is a batch of one on a batched evaluator that the planner's
lockstep rounds call once per round: _profiles builds the profiles of
every pair search that starts, those of one n_bar_a in one 2-D pass,
and _divergences forms D together with dD/dq, sum(rho_n x_n y_n / (1 +
y_n)) less tail_rho - tail_s, from one y = q x for every pending
point. A batch gives every value the double it has alone.

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

from ._special import _log1p_gap, _passes, _poisson_tail
from .exceptions import ParameterError, _check_real

# Tail mass at which the thermal background is truncated: the bound
# lives at D ~ 1e-16, and a 1e-15 tail would shift its sixth
# significant figure.
_TRUNC_TOL = 1e-30

# Crude cap on |ln(p/s)| for normal doubles, used only to convert
# unresolvable truncated mass into an error bar.
_LOG_CAP = 1500.0


@dataclass(frozen=True, eq=False)
class DivergenceProfile:
    """What D(q) = D(rho || (1 - q) rho + q rho_s) needs, for one (mu, n_bar_a).

    rho is thermal(n_bar_a), n_bar_a**n / (1 + n_bar_a)**(n + 1), on
    n = 0..n_max, the smallest support whose geometric tail
    r**(n_max + 1), r = n_bar_a / (1 + n_bar_a), is at most 1e-30.
    rho_s is Poisson(mu) convolved with the same thermal law, the pulse
    riding on the background. On that support
    rho_s(n) / rho(n) = e^-mu sum_{j<=n} a^j / j! with a = mu / r, so
    x = rho_s/rho - 1 comes in closed form. Built once, the profile
    evaluates D at any q for the cost of one pass over a few dozen terms.

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
        """The profile of one (mu, n_bar_a): a batch of one on _profiles,
        which builds the profiles of a round of pair searches together,
        with the same doubles."""
        return _profiles([(mu, n_bar_a)])[0]

    def divergence(self, q: float) -> float:
        """Per-mode relative entropy D(q) in nats.

        The terms rho_n (y_n - log1p(y_n)) are combined with exact
        summation, and the linear part -q (tail_rho - tail_s) is added
        in closed form; _divergences forms it, here for one q.
        """
        return _divergences([(self, _check_real(q, "q", 0.0, 1.0))])[0][0]

    def error_bound(self, q: float) -> float:
        """Bound on |divergence(q) - D(q)|, D(q) the untruncated infinite sum.

        It bounds the dropped beyond-support terms, q tail_s / (1 - q) +
        tail_rho (-log1p(-q)) (at q = 1, tail_s + tail_rho times the log
        cap), plus the rounding of the sum.
        """
        q = _check_real(q, "q", 0.0, 1.0)
        quadratic = _sums([(self, q)])[0][0]
        linear = q * (self.tail_rho - self.tail_s)
        if q < 1.0:
            err = q * self.tail_s / (1.0 - q) + self.tail_rho * (-math.log1p(-q))
        else:
            err = self.tail_s + self.tail_rho * _LOG_CAP
        return err + 2.5e-16 * (quadratic + abs(linear))


def _profiles(items: list[tuple[float, float]]) -> list[DivergenceProfile]:
    """The DivergenceProfile of each (mu, n_bar_a), those of one n_bar_a together.

    Every mu of one n_bar_a shares one read-only rho and tail_rho, and its
    x is one row of a 2-D pass: a / j, j = 1..n_max, then a row-wise
    cumprod and cumsum give the partial exponential sums, scaled by e^-mu
    and added to x_0 = e^-mu - 1. Both scalars come from math per mu, as
    a lone build takes them: numpy's exp can differ in the last place.
    tail_s takes one vector _poisson_tail, and chi2 one math.fsum per row.
    _special._passes bounds each pass's terms of x, and so its memory.
    Every field is the double a build of that (mu, n_bar_a) alone gives:
    the row-wise accumulations run in the same order as along one row,
    and the scalars are the same.

    Raises:
        ParameterError: a mu or n_bar_a that is negative or not finite,
            the first in order, before any array is formed; or a mu too
            bright against its n_bar_a for x to be represented in
            doubles, the first such in order.
    """
    checked = []
    groups: dict[float, list[int]] = {}
    for mu, n_bar_a in items:
        mu, n_bar_a = _check_real(mu, "mu", 0.0), _check_real(n_bar_a, "n_bar_a", 0.0)
        groups.setdefault(n_bar_a, []).append(len(checked))
        checked.append((mu, n_bar_a))
    out: list = [None] * len(checked)
    bright = []
    for n_bar_a, members in groups.items():
        if n_bar_a == 0.0:
            n_max, rho, tail_rho = 0, np.array([1.0]), 0.0
        else:
            ratio = n_bar_a / (1.0 + n_bar_a)
            log_ratio = math.log(ratio)
            n_max = max(0, math.ceil(math.log(_TRUNC_TOL) / log_ratio) - 1)
            # log rounding can be off by one in either direction
            while ratio ** (n_max + 1) > _TRUNC_TOL:
                n_max += 1
            while n_max > 0 and ratio**n_max <= _TRUNC_TOL:
                n_max -= 1
            rho = np.exp(np.arange(n_max + 1) * log_ratio - math.log1p(n_bar_a))
            tail_rho = ratio ** (n_max + 1)
        rho.flags.writeable = False
        for begin, end in _passes([n_max + 1] * len(members)):
            part = members[begin:end]
            mus = [checked[i][0] for i in part]
            # x_0 = e^-mu - 1; for n >= 1 the j >= 1 part of the partial
            # exponential sum is added to it, so no term cancels against 1
            x = np.empty((len(part), n_max + 1))
            x[:, 0] = [math.expm1(-mu) for mu in mus]
            if n_max > 0:
                partial = x[:, 1:]
                # a / j, a = mu / r, along each row
                a = [[mu * (1.0 + n_bar_a) / n_bar_a] for mu in mus]
                with np.errstate(over="ignore"):
                    np.divide(a, np.arange(1, n_max + 1), out=partial)
                    np.cumprod(partial, axis=1, out=partial)
                    np.cumsum(partial, axis=1, out=partial)
                    partial *= [[math.exp(-mu)] for mu in mus]
                    partial += x[:, :1]
                # a row's sums only grow, so one that overflows does at its end
                finite = np.isfinite(x[:, -1])
                if not finite.all():
                    bright.append(part[int(np.argmin(finite))])
                    break
            # tail_s = P(X + Y > n_max), X ~ Poisson(mu), Y ~ thermal, split
            # on X = j: the j <= n_max thermal tails r^(n_max + 1 - j) sum
            # to tail_rho * rho_s(n_max) / rho(n_max); X > n_max is the
            # Poisson tail. Neither piece cancels.
            tail_s = tail_rho * (1.0 + x[:, -1]) + _poisson_tail(n_max + 1, mus)
            rows = zip(part, mus, x, tail_s.tolist(), rho * x * x)
            for i, mu, x_row, tail, chi2_terms in rows:
                uncovered = -math.expm1(-mu) if n_bar_a == 0.0 else 0.0
                out[i] = DivergenceProfile(
                    mu=mu,
                    n_bar_a=checked[i][1],
                    rho=rho,
                    x=x_row,
                    tail_rho=tail_rho,
                    tail_s=tail,
                    chi2=math.inf if uncovered > 0.0 else math.fsum(memoryview(chi2_terms)),
                    uncovered=uncovered,
                )
    if bright:
        mu, n_bar_a = checked[min(bright)]
        raise ParameterError(
            f"mu = {mu!r} is too bright against n_bar_a = {n_bar_a!r} "
            "for the divergence to be represented in doubles"
        )
    return out


def _sums(points: list[tuple[DivergenceProfile, float]]) -> list[tuple[float, float]]:
    """fsum(rho (y - log1p(y))) and fsum(rho x y / (1 + y)), y = q x, for
    each (profile, q).

    A pass (_special._passes) forms both sums' terms for its points'
    q x, laid end to end, and one math.fsum per point and sum adds them
    exactly, so each sum is the same double as for that point alone. The
    sums read the terms through memoryviews, which yield plain floats,
    far cheaper than numpy scalars.
    """
    sizes = [profile.x.size for profile, _ in points]
    out = []
    for begin, end in _passes(sizes):
        part = points[begin:end]
        x = np.concatenate([profile.x for profile, _ in part])
        rho = np.concatenate([profile.rho for profile, _ in part])
        y = np.repeat([q for _, q in part], sizes[begin:end]) * x
        gaps = memoryview(rho * _log1p_gap(y))
        tilts = memoryview(rho * x * y / (1.0 + y))
        stop = 0
        for size in sizes[begin:end]:
            start, stop = stop, stop + size
            out.append((math.fsum(gaps[start:stop]), math.fsum(tilts[start:stop])))
    return out


def _divergences(points: list[tuple[DivergenceProfile, float]]) -> list[tuple[float, float]]:
    """D(q) and dD/dq for each (profile, q) of points, q in [0, 1], in one
    batched pass.

    Both come from the one y = q x of _sums: D is the quadratic sum less
    q (tail_rho - tail_s), the slope the tilt sum less (tail_rho -
    tail_s). The pair searches take both at each pair count they probe.
    """
    return [
        # Gibbs: the exact D is >= 0, so tiny negatives are rounding
        (max(quadratic - q * (p.tail_rho - p.tail_s), 0.0), tilt - (p.tail_rho - p.tail_s))
        for (p, q), (quadratic, tilt) in zip(points, _sums(points))
    ]


def per_mode_relative_entropy(mu: float, n_bar_a: float, q: float) -> float:
    """D(rho || (1 - q) rho + q rho_s) for one pulse intensity, via its
    profile: batches of one on _profiles and _divergences."""
    return DivergenceProfile.build(mu, n_bar_a).divergence(q)
