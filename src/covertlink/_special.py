"""Binomial and Poisson probabilities on numpy alone.

The planner's sums take three special functions, all here (the fourth,
the inverse normal that seeds the repetition search, is the standard
library's NormalDist().inv_cdf, Wichura's AS241):

- _log_binom_pmf and _binom_pmf: Loader's saddle-point binomial pmf, its
  log formed from stirlerr and bd0 as R's dbinom forms it (C. Loader,
  "Fast and accurate computation of binomial probabilities", 2000), to
  within about 1e-12 relative of 50-digit values where the pmf is normal;
  it is 0 (log -inf) off [0, n];
- _binom_cdf: P(Bin(n, p) <= x), a sum of exact term ratios off the
  pmf's top term in the tails; near the bulk, where that sum would run
  past _LONG_SUM terms, it is the hypergeometric series 2F1(-x, 1; n - x
  + 1; -odds), and Gauss's continued fraction (DLMF 15.7.5) gives it by
  level 2x + 1 at the latest;
- _poisson_tail: P(Poisson(mu) >= n), a sum of exact term ratios off its
  top term.

_passes splits every batched pass of the package by one term budget.

Every value is elementwise: an element's double is the same whatever
array it comes in. The ratio sums add their terms in order, largest
first, and each element stops only where its remaining terms fall below
half an ulp of its sum, so the terms a longer neighbour adds change
nothing.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

_LN_2PI = math.log(2.0 * math.pi)

# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n / e)^n) at n = 0..15; n = 0,
# where it is undefined, is never used
_STIRLERR_SMALL = np.array(
    [
        0.0,
        0.08106146679532726,
        0.0413406959554093,
        0.02767792568499834,
        0.020790672103765093,
        0.016644691189821193,
        0.013876128823070748,
        0.01189670994589177,
        0.010411265261972096,
        0.009255462182712733,
        0.00833056343336287,
        0.007573675487951841,
        0.00694284010720953,
        0.006408994188004207,
        0.0059513701127588475,
        0.005554733551962801,
    ]
)
# stirlerr's asymptotic series above 15: 1/12, 1/360, 1/1260, 1/1680, 1/1188
_STIRLING = (1.0 / 12.0, 1.0 / 360.0, 1.0 / 1260.0, 1.0 / 1680.0, 1.0 / 1188.0)


def _stirling_series(inverse):
    """stirlerr's asymptotic series at n = 1 / inverse (a float or an
    array), for n > 15."""
    s0, s1, s2, s3, s4 = _STIRLING
    r = inverse * inverse
    return (s0 - (s1 - (s2 - (s3 - s4 * r) * r) * r) * r) * inverse


# what the table adds to the series at n = 0..15, and nothing from 16 on
_STIRLERR_FIX = np.append(
    _STIRLERR_SMALL - np.array([_stirling_series(1.0 / n) if n else 0.0 for n in range(16)]), 0.0
)

# bd0's series in v = (x - m) / (x + m) holds below this |v|; its terms
# fall by v^2 each, so the seven in _BD0_COEFFS (2 / (2j + 1), highest
# order first) leave less than 1e-16 relative
_BD0_SERIES = 0.1
_BD0_COEFFS = tuple(2.0 / (2 * j + 1) for j in range(7, 0, -1))

# A ratio sum stops where its terms fall below 2^-54 of its first, 1: half
# an ulp of any sum >= 1 and more, so no later term changes it
_SUM_NATS = 54.0 * math.log(2.0)

# the cdf's ratio sums longer than this take the continued fraction: a
# ratio sum costs about 0.01 us a term in a batch and the fraction about
# 0.3 us a level, 22 to 26 levels on the bundled plans' long sums; the
# shorter sums keep their terms, and so their doubles
_LONG_SUM = 2048
# below this x the cdf sums every term, with no length bound to form
_SHORT_SUM = 64

# Below |y| = 0.1, y - log1p(y) is summed as its Taylor series: the
# coefficients (-1)**j / j of y**j, highest order first; the first omitted
# term is below 1e-17 of the leading y**2 / 2 at the cutoff. Above it the
# direct difference keeps ~2e-15 relative accuracy.
_SERIES_CUTOFF = 0.1
_SERIES_COEFFS = tuple((-1) ** j / j for j in range(17, 1, -1))

# A batched pass, here, in reliability or in fock_stats, takes at most
# this many terms at a time (a longer item alone), which bounds its memory.
_TERM_BUDGET = 2**13
# _log_binom_pmf keeps about forty doubles an element alive, so it takes
# an eighth of that many elements a pass
_PMF_BUDGET = _TERM_BUDGET // 8


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


def _stirlerr(n):
    """log(n!) - log(sqrt(2 pi n) (n / e)^n) at integers n >= 1, an array
    or one float.

    The asymptotic series, with the table's difference from it added at n
    <= 15 (0 beyond), which the series alone does not reach.
    """
    return _stirling_series(1.0 / n) + _STIRLERR_FIX.take(
        np.minimum(n, 16.0).astype(np.intp), mode="clip"
    )


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x log(x / m) + m - x, the deviance term, without cancellation near x = m.

    Where |v| < _BD0_SERIES, v = (x - m) / (x + m), it is (x - m) v + 2 x
    sum_j v^(2j+1) / (2j + 1); elsewhere the direct form, which then
    loses at most a digit. Each element takes its form alone.
    """
    d = x - m
    v = d / (x + m)
    near = np.abs(v) < _BD0_SERIES
    if not near.any():
        return x * np.log(x / m) - d
    v2 = v * v
    poly = _BD0_COEFFS[0] * v2 + _BD0_COEFFS[1]
    for c in _BD0_COEFFS[2:]:
        poly *= v2
        poly += c
    series = d * v
    series += (x * v) * (v2 * poly)
    if near.all():
        return series
    return np.where(near, series, x * np.log(x / m) - d)


def _flat(*values) -> list[np.ndarray]:
    """The values as 1-D float arrays of one length, broadcast where needed."""
    arrays = [np.asarray(v, dtype=float) for v in values]
    if any(a.ndim != 1 or a.shape != arrays[0].shape for a in arrays):
        arrays = [a.ravel() for a in np.broadcast_arrays(*arrays)]
    return arrays


def _log_binom_pmf(x, n, p) -> np.ndarray:
    """log P(Bin(n, p) = x) elementwise, by Loader's saddle point.

    x and n are integers held as floats, and 0 < p < 1. For 0 < x < n it
    is stirlerr(n) - stirlerr(x) - stirlerr(n - x) - bd0(x, n p) - bd0(n - x,
    n q) - log(2 pi x (n - x) / n) / 2; at x = 0 it is n log1p(-p), at x =
    n n log p, and -inf off [0, n], each formed alone.
    """
    x, n, p = _flat(x, n, p)
    if x.size > _PMF_BUDGET:
        # each element alone, so a pass at a time bounds the memory
        parts = [slice(i, i + _PMF_BUDGET) for i in range(0, x.size, _PMF_BUDGET)]
        return np.concatenate([_log_binom_pmf(x[s], n[s], p[s]) for s in parts])
    rest = n - x
    edge = np.minimum(x, rest) <= 0.0
    if edge.all():
        return np.array([_log_binom_edge(*v) for v in zip(x.tolist(), n.tolist(), p.tolist())])
    size = x.size
    counts = np.concatenate((n, x, rest))
    with np.errstate(all="ignore"):
        logs = np.log(counts)
        errs = _stirlerr(counts)
        bds = _bd0(np.concatenate((x, rest)), np.concatenate((n * p, n * (1.0 - p))))
        out = errs[:size] - errs[size : 2 * size]
        out -= errs[2 * size :]
        out -= bds[:size]
        out -= bds[size:]
        out -= 0.5 * (_LN_2PI + logs[size : 2 * size] + logs[2 * size :] - logs[:size])
    if edge.any():
        for i in np.flatnonzero(edge).tolist():
            out[i] = _log_binom_edge(float(x[i]), float(n[i]), float(p[i]))
    return out


def _log_binom_edge(x: float, n: float, p: float) -> float:
    """log P(Bin(n, p) = x) at x = 0 or n, or off [0, n]."""
    if x < 0.0 or x > n:
        return -math.inf
    if n == 0.0:
        return 0.0
    if x == 0.0:
        return n * math.log1p(-p) if p < 1.0 else -math.inf
    return n * math.log(p) if p > 0.0 else -math.inf


def _binom_pmf(x, n, p) -> np.ndarray:
    """P(Bin(n, p) = x) elementwise, 0 off [0, n]: exp of _log_binom_pmf."""
    return np.exp(_log_binom_pmf(x, n, p))


def _binom_cdf(x, n, p, log_top=None) -> np.ndarray:
    """P(Bin(n, p) <= x) elementwise, for integers x and n >= 0 and 0 <= p <= 1.

    log_top, if given, is _log_binom_pmf(x, n, p), which a caller may
    have formed beside other pmfs. At x = 0 the cdf is that one term.
    Below the mode, x < (n + 1) p - 1, it is the pmf at x times the sum of
    exact term ratios down from x (_descending_sums); above it, one minus
    the same sum on the upper tail, read as P(Bin(n, 1 - p) <= n - x - 1).
    """
    x, n, p = _flat(x, n, p)
    # x <= 0 leaves the pmf: its one term, or 0 below it
    out = np.exp(_log_binom_pmf(x, n, p) if log_top is None else log_top)
    rows = np.flatnonzero(x > 0.0)
    if rows.size == 0:
        return out
    if rows.size < x.size:
        x, n, p = x[rows], n[rows], p[rows]
    edge = (x >= n) | (p <= 0.0) | (p >= 1.0)
    if edge.any():
        for i in np.flatnonzero(edge).tolist():
            out[rows[i]] = 1.0 if x[i] >= n[i] or p[i] <= 0.0 else 0.0
        inside = ~edge
        rows, x, n, p = rows[inside], x[inside], n[inside], p[inside]
        if rows.size == 0:
            return out
    top = out[rows]
    q = 1.0 - p
    upper = (n + 1.0) * p - (x + 1.0) <= 0.0
    if upper.any():
        # the upper tail's first term, P(X = x + 1), by the exact ratio; p
        # and q swap there, since 1 - (1 - p) would round away p's digits
        top = np.where(upper, top * ((n - x) * p) / ((x + 1.0) * q), top)
        x, p, q = np.where(upper, n - x - 1.0, x), np.where(upper, q, p), np.where(upper, p, q)
    odds = q / p
    # a sum of all x + 1 terms is the same double as one cut at its bound,
    # whose terms past it change nothing; short ones skip the bound
    lengths = x + 1.0 if x.max() < _SHORT_SUM else _descending_lengths(x, n, odds)
    tail = top * _descending_sums(x, n, odds, lengths)
    out[rows] = np.where(upper, 1.0 - tail, tail) if upper.any() else tail
    return out


def _sum_lengths(rho, scale, most) -> np.ndarray:
    """How many terms, at most, of ratio sums whose term j is below rho^j
    exp(-j (j - 1) / (2 scale)) reach 2^-54 of the first, 1: the integer
    above the root of j^2 / (2 scale) + g j = _SUM_NATS, g = -log(rho) - 1
    / (2 scale), taken in a form that does not cancel, and at most most,
    plus one."""
    with np.errstate(all="ignore"):
        g = -np.log(rho) - 0.5 / scale
        root = 2.0 * _SUM_NATS / (g + np.sqrt(g * g + 2.0 * _SUM_NATS / scale))
    # fmin takes most where the root is nan, as at rho = 0
    return np.ceil(np.fmin(root, most)) + 1.0


def _descending_lengths(x, n, odds) -> np.ndarray:
    """The terms _descending_sums needs for x below the mode of Bin(n, p),
    odds = (1 - p) / p: term j is the product of the ratios y / (n + 1 -
    y) odds, y = x .. x - j + 1, and with y = x - i + 1 the ratio is the
    first, rho, times (1 - (i - 1) / x) (n + 1 - x) / (n + i - x), at most
    rho exp(-(i - 1) (1 / x + 1 / (n + 1))); so _sum_lengths bounds them,
    at most x + 1, past which the terms are 0."""
    with np.errstate(all="ignore"):
        rho = x / (n + 1.0 - x) * odds
        scale = x * (n + 1.0) / (x + n + 1.0)
    return _sum_lengths(rho, scale, x)


def _descending_sums(x, n, odds, lengths) -> np.ndarray:
    """sum_{y <= x} P(Bin(n, p) = y) / P(Bin(n, p) = x) for each x below its
    mode, odds = (1 - p) / p, to the lengths _descending_lengths gives.

    A sum longer than _LONG_SUM terms, near the bulk, is
    _ratio_sum_fraction's, one row at a time. The others run in 2-D
    passes, each as wide as its longest and each row's terms added in
    order, so a row's terms past its length, below half an ulp of its
    sum, change nothing: one pass where the rows fit in _TERM_BUDGET
    terms, else the rows by length as _passes splits them.
    """
    width = int(lengths.max())
    if width <= _LONG_SUM and width * x.size <= _TERM_BUDGET:
        return _ratio_sums(x, n + 1.0, odds, width)
    order = np.argsort(lengths, kind="stable")
    sizes = lengths[order].astype(np.intp).tolist()
    summed = bisect.bisect_right(sizes, _LONG_SUM)
    out = np.empty(x.size)
    for i in order[summed:].tolist():
        out[i] = _ratio_sum_fraction(float(x[i]), float(n[i]), float(odds[i]))
    for begin, end in _passes(sizes[:summed]):
        rows = order[begin:end]
        out[rows] = _ratio_sums(x[rows], n[rows] + 1.0, odds[rows], sizes[end - 1])
    return out


def _ratio_sums(x, top, odds, width) -> np.ndarray:
    """sum_{j < width} prod_{i < j} (x - i) / (top - x + i) odds, row by row."""
    terms = np.empty((x.size, width))
    terms[:, 0] = 1.0
    y = x[:, None] - np.arange(width - 1, dtype=float)
    np.divide(y, top[:, None] - y, out=terms[:, 1:])
    terms[:, 1:] *= odds[:, None]
    np.cumprod(terms, axis=1, out=terms)
    return np.cumsum(terms, axis=1, out=terms)[:, -1]


def _ratio_sum_fraction(x: float, n: float, odds: float) -> float:
    """sum_{j <= x} prod_{i < j} (x - i) / (n + 1 - x + i) odds, the sum
    _ratio_sums forms, for integers 0 <= x < n.

    It is 2F1(-x, 1; n - x + 1; -odds), and Gauss's continued fraction
    (DLMF 15.7.5) gives it as 1 / (1 + a_1 / (1 + a_2 / (1 + ...))), a_j =
    k_j odds: with m = (j - 1) // 2 and s = n - x + 2m, k_j = (m - x) (n -
    x + m) / (s (s + 1)) at odd j and (m + 1) (n + m + 1) / ((s + 1) (s +
    2)) at even j. The modified Lentz method (c and d) takes it level by
    level, a zero denominator becoming 1e-300, until a step lies within
    2^-53 of 1; k_{2x+1} = 0 ends it there at the latest.
    """
    rest = n - x
    value, c, d = 1.0, 1.0, 0.0
    for m in itertools.count():
        s = rest + 2.0 * m
        for a in (
            (m - x) * (rest + m) / (s * (s + 1.0)) * odds,
            (m + 1.0) * (n + m + 1.0) / ((s + 1.0) * (s + 2.0)) * odds,
        ):
            d = 1.0 + a * d
            if d == 0.0:
                d = 1e-300
            c = 1.0 + a / c
            if c == 0.0:
                c = 1e-300
            d = 1.0 / d
            step = c * d
            value *= step
            if abs(step - 1.0) <= 2.0**-53:
                return 1.0 / value


def _poisson_tail(n: int, mu) -> np.ndarray:
    """P(Poisson(mu) >= n) for one integer n >= 1 and each mu >= 0.

    Where mu < n, the pmf at n times a sum of exact term ratios mu / (y +
    1) up from n; otherwise one minus _poisson_head's sum below n. The
    pmf is Loader's, exp(-stirlerr(y) - bd0(y, mu)) / sqrt(2 pi y). The
    ratios up are at most their first, mu / (n + 1), times exp(-(j - 1) /
    (4 n)) while j <= n, so _sum_length bounds the terms at the largest
    mu; all sums run in one 2-D pass.
    """
    mu = np.asarray(mu, dtype=float).ravel()
    upper = mu < n
    if not upper.all():
        head = _poisson_head(n, np.where(upper, float(n), mu))
        return np.where(upper, _poisson_tail(n, np.where(upper, mu, 0.0)), 1.0 - head)
    rho = float(mu.max()) / (n + 1.0)
    width = _sum_length(rho, 2.0 * n)
    if width > n + 1:
        # the bound up holds only while j <= n; past that, the plain geometric one
        width = _sum_length(rho, math.inf)
    terms = np.empty((mu.size, width))
    terms[:, 0] = 1.0
    np.divide(mu[:, None], np.arange(n + 1.0, n + width), out=terms[:, 1:])
    np.cumprod(terms, axis=1, out=terms)
    with np.errstate(all="ignore"):
        first = np.exp(-_stirlerr(float(n)) - _bd0(float(n), mu)) / math.sqrt(2.0 * math.pi * n)
    return first * np.cumsum(terms, axis=1)[:, -1]


def _poisson_head(n: int, mu) -> np.ndarray:
    """P(Poisson(mu) < n) for each mu >= n >= 1: the pmf at n - 1 (exp(-mu)
    at 0) times the sum of ratios y / mu down from n - 1, each at most (n -
    1) / mu times exp(-(j - 1) / (2 (n - 1))), bounded at the smallest mu."""
    top = n - 1.0
    width = _sum_length(top / float(mu.min()), top)
    terms = np.empty((mu.size, width))
    terms[:, 0] = 1.0
    np.divide(np.arange(top, top - width + 1.0, -1.0), mu[:, None], out=terms[:, 1:])
    np.cumprod(terms, axis=1, out=terms)
    with np.errstate(all="ignore"):
        if top == 0.0:
            first = np.exp(-mu)
        else:
            first = np.exp(-_stirlerr(top) - _bd0(top, mu)) / math.sqrt(2.0 * math.pi * top)
    return first * np.cumsum(terms, axis=1)[:, -1]


def _sum_length(rho: float, scale: float) -> int:
    """_sum_lengths for one rho and scale (inf for the plain geometric bound)."""
    if rho <= 0.0 or scale <= 0.0:
        return 1
    g = -math.log(rho) - 0.5 / scale
    root = 2.0 * _SUM_NATS / (g + math.sqrt(g * g + 2.0 * _SUM_NATS / scale))
    return math.ceil(min(root, scale)) + 1


def _passes(sizes: list[int]):
    """(begin, end) of each run of sizes that one batched pass takes: at
    most _TERM_BUDGET in all, or a single larger size alone."""
    begin, used = 0, 0
    for end, size in enumerate(sizes):
        if used and used + size > _TERM_BUDGET:
            yield begin, end
            begin, used = end, 0
        used += size
    if begin < len(sizes):
        yield begin, len(sizes)
