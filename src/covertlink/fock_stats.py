"""The per-mode divergence kernel for covert-link analysis.

The covert regime mixes a signal state rho_s into the idle thermal
state rho with weight q ~ 1e-8, so D(rho || (1 - q) rho + q rho_s) is
~1e-16 and is fixed by the O(q^2) part of each term. This module holds
the two pieces every such divergence is built from:

- thermal_weights(): the thermal (Bose-Einstein) photon-number law of
  the background, truncated at a stated tail mass, with that tail
  returned in closed form;
- mixture_relative_entropy(): the one formula for D. With
  x_n = rho_s(n)/rho(n) - 1 and y_n = q x_n, every term
  rho_n (y_n - log1p(y_n)) is non-negative and evaluated without
  cancellation (a series below |y| = 0.1), and the linear part
  -q sum(rho x) is not summed at all. Over the whole support it is
  exactly zero; over a truncated support it equals q times the
  difference of the two laws' tail masses, which is carried
  analytically.

The result is accurate to a few units in the last place rather than to
the ~1e-9 the plain -rho log1p(y) terms reach, which is what lets the
security module treat the detection-bias bound as monotone at single
time-bin-pair resolution. security.DivergenceProfile assembles rho and
x for a given pulse and background.

All relative entropies are reported in nats (natural logarithm).
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ParameterError

# Crude cap on |ln(p/s)| for normal doubles, used only to convert
# unresolvable truncated mass into an error bar.
_LOG_CAP = 1500.0


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


def thermal_weights(n_bar: float, trunc_tol: float) -> tuple[np.ndarray, float]:
    """Thermal pmf n_bar**n / (1 + n_bar)**(n + 1) up to its cutoff, and the tail.

    The law is geometric with ratio r = n_bar / (1 + n_bar); the cutoff
    is the smallest n_max whose closed-form tail r**(n_max + 1) is
    <= trunc_tol. Returns (pmf for n = 0..n_max, r**(n_max + 1)).
    """
    n_bar, trunc_tol = float(n_bar), float(trunc_tol)
    if not math.isfinite(n_bar) or n_bar < 0.0:
        raise ParameterError(f"n_bar must be finite and >= 0, got {n_bar!r}")
    if not 0.0 < trunc_tol < 1.0:
        raise ParameterError(f"trunc_tol must lie in (0, 1), got {trunc_tol!r}")
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
