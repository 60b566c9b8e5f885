"""Click statistics and repetition-code decoding error for the lossy link.

The receiver sees each sent pulse through a channel of total
transmissivity tau (detector efficiency included) on top of thermal
background noise. Closed forms are provided for the per-bin click
probabilities, the per-bit majority-vote error of a k-repetition code,
and the whole-message error, plus the inversion that finds the smallest
k meeting a message-error target. The inversion bounds every probe
cheaply, on the same boost binomial pmf as the exact sum (called once
per 256 terms of a long window, with exact term ratios between), runs
the exact sum only where the bounds cannot settle a probe, and returns
a plain k: a caller that reports the error at k runs the exact sum
there.

Conventions baked into the formulas (and mirrored by the simulator):
an exact vote tie counts as a bit error, and a bit with no clicks at
all counts as an error. Hence bit_error_prob(1, cp) == 1 - p_correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

try:
    # the boost binomial ufuncs that scipy.stats.binom.pmf and .cdf call
    from scipy.special._ufuncs import _binom_cdf, _binom_pmf
except ImportError:  # a scipy without these private names; binom runs the same code
    from scipy.stats import binom as _binom

    _binom_pmf, _binom_cdf = _binom.pmf, _binom.cdf

from .exceptions import InfeasibleError, ParameterError

# Repetition counts above this are rejected as a planning runaway.
MAX_REPETITIONS = 10**7

# Half-width of the click-count window, in standard deviations, used by
# the vectorized double-sum; a floor of 30 counts covers the skewed
# Poisson-like regime. Mass beyond the window is under ~1e-20.
_WINDOW_SIGMAS = 16.0

# Relative rounding error granted to the exact sum: a probe whose bounds
# come within this of the target is settled by the exact sum instead.
_EXACT_REL = 1e-9

# Relative rounding allowance of the bounded evaluator's window sum; the
# largest disagreement measured against the exact sum is 1.6e-12 (every
# probe of four bundled plans and of 3000 random channels).
_BOUNDS_REL = 1e-10

# The wrong-vote window leaves out mass below exp(-_TAIL_NATS) times the
# Chernoff bound (times sqrt(k), the factor the sum may fall below it).
_TAIL_NATS = 30.0

# A Chernoff bound below exp(_LOG_TINY) settles a probe without a sum (the
# search clamps message errors at 1e-300 anyway); above it, the window
# stays within about 40 standard deviations.
_LOG_TINY = math.log(1e-300)

# A double below 2^-1075 rounds to 0.0.
_LOG_ROUNDS_TO_ZERO = -1075.0 * math.log(2.0)

# The bounded evaluator's pmfs call boost at every _ANCHOR_EVERY-th term of
# a run and step by exact term ratios between; shorter runs are all boost.
_ANCHOR_EVERY = 256


@dataclass(frozen=True)
class ChannelModel:
    """Transmissivity and noise means of the optical link.

    Attributes:
        tau: end-to-end photon survival probability, detector included.
        n_bar_a: mean background photon number at the sender's output.
        n_bar_b: mean background photon number at the receiver's input.
    """

    tau: float
    n_bar_a: float
    n_bar_b: float

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ParameterError(f"tau must lie in [0, 1], got {self.tau!r}")
        if self.n_bar_a < 0.0 or self.n_bar_b < 0.0:
            raise ParameterError("noise means must be >= 0")


@dataclass(frozen=True)
class ClickProbabilities:
    """Per-bin click probabilities at the receiver for one sent pulse.

    p_good_given_click is the conditional probability that an observed
    click sits in the signal bin; it is nan when no click can occur.
    """

    p_correct: float
    p_wrong: float
    p_good_given_click: float

    def __post_init__(self):
        for name in ("p_correct", "p_wrong"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1], got {v!r}")


def click_probs(mu: float, ch: ChannelModel) -> ClickProbabilities:
    """Closed-form click probabilities for a pulse of mean photon number mu.

    The signal bin clicks unless both the attenuated pulse and the
    attenuated background deliver zero photons:
        p_correct = 1 - exp(-tau * mu) / (1 + tau * n_bar_b)
    The paired noise-only bin clicks with
        p_wrong = tau * n_bar_b / (1 + tau * n_bar_b).
    """
    if mu < 0.0:
        raise ParameterError(f"mu must be >= 0, got {mu!r}")
    a = ch.tau * mu
    c = ch.tau * ch.n_bar_b
    # 1 - e^-a/(1+c) rewritten so tiny a does not cancel against 1
    p_correct = (c - math.expm1(-a)) / (1.0 + c)
    p_wrong = c / (1.0 + c)
    total = p_correct + p_wrong
    p_good = p_correct / total if total > 0.0 else math.nan
    return ClickProbabilities(p_correct, p_wrong, p_good)


def bit_error_prob(k: int, cp: ClickProbabilities) -> float:
    """Majority-vote error probability for one bit repeated k times.

    Evaluates the double binomial sum: the outer sum runs over the number
    of clicks i ~ Binomial(k, p_correct + p_wrong); given i clicks, the
    bit is decoded wrongly when at most floor(i/2) of them are correct
    (ties and i = 0 both count as errors).

    This is the exact sum every reported bit error comes from. Binomial
    terms come from scipy's boost ufuncs (regularized beta, never
    factorials), the ones scipy.stats.binom.pmf and .cdf call, and the
    outer sum is restricted to a window of +-_WINDOW_SIGMAS (16) standard
    deviations around k p, at least 30 counts wide on each side, so k up
    to 1e5 costs a few thousand terms. The error itself lives near i = k
    s clicks, s = 2 r / (1 - p + 2 r) with r = sqrt(p_correct p_wrong):
    the dominant error splits its clicks evenly between correct and
    wrong. k s lies below k p, and for deep errors (below about 1e-40 on
    skewed channels) near or below the window's start, so there the
    start moves down to 16 standard deviations of Binomial(k, s) below k
    s. Where p_correct >= p_wrong and the Chernoff bound z^k, z = 1 - p
    + 2 r, lies below 2^-1075, the sum would round to 0.0, and 0.0 is
    returned without it. min_repetitions calls it only where its cheaper
    bounds cannot settle a probe.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ParameterError(f"k must be an integer >= 1, got {k!r}")
    p = cp.p_correct + cp.p_wrong
    if p > 1.0:
        raise ParameterError(
            "p_correct + p_wrong exceeds 1; the single-click-per-slot model "
            "does not apply"
        )
    if p == 0.0:
        return 1.0  # no clicks ever: only the i = 0 (error) term survives
    root = math.sqrt(cp.p_correct * cp.p_wrong)
    z = 1.0 - p + 2.0 * root
    # z^k bounds the error, ties and silent slots included, wherever a
    # click is likelier correct than wrong; below 2^-1075 the sum is 0.0
    if cp.p_correct >= cp.p_wrong and (z <= 0.0 or k * math.log(z) < _LOG_ROUNDS_TO_ZERO):
        return 0.0
    # Bernstein/Poisson tail bounds put the mass outside this window
    # below ~1e-20, far under the 1e-12 agreement the tests demand
    half = max(_WINDOW_SIGMAS * math.sqrt(k * p * (1.0 - p)), 30.0)
    lo = max(0, int(k * p - half))
    s = 2.0 * root / z if root > 0.0 else 0.0
    half_s = max(_WINDOW_SIGMAS * math.sqrt(k * s * (1.0 - s)), 30.0)
    # a start less than 8 sd below k s cuts into the error's peak; one
    # further down misses under 1e-15 of it and stays where it is
    if lo > k * s - 0.5 * half_s:
        lo = max(0, int(k * s - half_s))
    i = np.arange(lo, min(k, math.ceil(k * p + half)) + 1)
    outer = np.clip(_binom_pmf(i, k, p), 0.0, 1.0)
    wrong_majority = np.clip(_binom_cdf(i // 2, i, cp.p_good_given_click), 0.0, 1.0)
    delta = float(np.sum(outer * wrong_majority))
    return min(max(delta, 0.0), 1.0)


def _error_bounds(k: int, cp: ClickProbabilities) -> tuple[float, float, float] | None:
    """(lower, estimate, upper) on bit_error_prob(k, cp), or None.

    Splits on the wrong votes W ~ Binomial(k, p_wrong): given W = w the
    correct votes are Binomial(k - w, pi) with pi = p_correct / (1 -
    p_wrong), so the error is sum_w P(W = w) F(w) with F(w) = P(Bin(k - w,
    pi) <= w). F(w + 1) = F(w) + pmf(w; k - w - 1) (pi + (k - 2w - 1) pi /
    ((w + 1)(1 - pi))), so across a window [a, top] F is one exact start
    value F(a) plus a cumulative sum of positive terms: nothing cancels.
    Both pmfs, P(W = w) and the F step's, come from _binom_pmf_run: the
    boost ufunc the exact sum uses at every 256th w and exact term ratios
    between (a window of up to 256 terms is all boost). The window sits
    around the dominant w* = k sqrt(p_c p_w) / z, z = 1 - p + 2 sqrt(p_c
    p_w), and reaches out until the Chernoff tail bounds of what it
    leaves out, F(a) P(W < a) below and P(W > top) above, fall
    _TAIL_NATS below the Chernoff bound z^k of the whole error. The lower
    bound is the window sum less _BOUNDS_REL; the upper adds both tail
    bounds. Where z^k is below 1e-300 nothing is summed: the bounds are 0
    and z^k.

    None where the split does not apply: no wrong clicks, or no silent
    slots (pi = 1).
    """
    p_c, p_w = cp.p_correct, cp.p_wrong
    pi = p_c / (1.0 - p_w) if p_w < 1.0 else 0.0
    if p_w <= 0.0 or not 0.0 < pi < 1.0:
        return None
    root = math.sqrt(p_c * p_w)
    z = 1.0 - p_c - p_w + 2.0 * root
    log_chernoff = k * math.log(z)
    if log_chernoff < _LOG_TINY:
        return 0.0, 0.0, math.exp(log_chernoff)
    nats = _TAIL_NATS + 0.5 * math.log(k) - log_chernoff
    a, top = _wrong_vote_window(k, p_w, pi, k * root / z, nats)
    w = np.arange(a, top + 1, dtype=float)
    start = float(_binom_cdf(a, k - a, pi))
    before = w[:-1]
    n = k - 1.0 - before
    pmf = _binom_pmf_run(before, k - 1.0 - a, pi, shrink=True)
    steps = pmf * (pi + (n - before) * pi / ((1.0 - pi) * (before + 1.0)))
    f = np.empty_like(w)
    f[0] = 0.0
    np.cumsum(steps, out=f[1:])
    f += start
    total = float(np.sum(_binom_pmf_run(w, k, p_w, shrink=False) * f))
    tails = _chernoff(k, top + 1, p_w)
    if a > 0:
        tails += start * (_chernoff(k, a - 1, p_w) if a - 1 < k * p_w else 1.0)
    return total * (1.0 - _BOUNDS_REL), min(total, 1.0), (total + tails) * (1.0 + _BOUNDS_REL)


def _binom_pmf_run(x: np.ndarray, n: float, p: float, shrink: bool) -> np.ndarray:
    """P(Bin(n_i, p) = x_i) along consecutive x_i = x[0] + i, 0 < p < 1.

    n_i = n throughout, or n - i with shrink. Boost gives every
    _ANCHOR_EVERY-th term; the terms between follow by the exact ratio
    of neighbours, (n_i - x_i) / (x_i + 1) p / (1 - p), times (n_i - x_i
    - 1) / (n_i (1 - p)) with shrink, so each lies at most 255 rounded
    products (about 2e-13 relative) from a boost value. A run no longer
    than _ANCHOR_EVERY is all boost, and so is a block whose anchor is
    subnormal, where the ratios would carry its lost digits. With shrink
    the terms past x_i > n_i are 0 (boost gives nan there); a fixed-n run
    takes x_i <= n.
    """
    m = len(x)
    if m <= _ANCHOR_EVERY and not shrink:
        return _binom_pmf(x, n, p)
    n_i = n - np.arange(m, dtype=float) if shrink else np.full(m, float(n))
    if m <= _ANCHOR_EVERY:
        return _masked_pmf(x, n_i, p)
    xs, ns = x[:-1], n_i[:-1]
    ratio = (ns - xs) / (xs + 1.0) * (p / (1.0 - p))
    if shrink:
        # 0 from x_i = n_i - 1 on; n_i = 0 makes it 0/0
        with np.errstate(invalid="ignore"):
            ratio *= np.maximum(ns - xs - 1.0, 0.0) / (ns * (1.0 - p))
        ratio[ns <= 0.0] = 0.0
    blocks = -(-m // _ANCHOR_EVERY)
    terms = np.ones(blocks * _ANCHOR_EVERY)
    terms[1:m] = ratio
    anchors = slice(0, m, _ANCHOR_EVERY)
    terms[anchors] = _masked_pmf(x[anchors], n_i[anchors], p)
    terms = np.cumprod(terms.reshape(blocks, _ANCHOR_EVERY), axis=1).ravel()[:m]
    # a subnormal anchor has lost digits the ratios would carry on
    lost = (terms[anchors] < np.finfo(float).tiny) & (x[anchors] <= n_i[anchors])
    for b in np.flatnonzero(lost):
        run = slice(b * _ANCHOR_EVERY, (b + 1) * _ANCHOR_EVERY)
        terms[run] = _masked_pmf(x[run], n_i[run], p)
    return terms


def _masked_pmf(x: np.ndarray, n, p: float) -> np.ndarray:
    """Boost's binomial pmf, 0 where x > n."""
    return np.where(x <= n, _binom_pmf(x, n, p), 0.0)


def _wrong_vote_window(
    k: int, p_w: float, pi: float, w_star: float, nats: float
) -> tuple[int, int]:
    """Narrowest [a, top] around w_star whose two tail bounds are exp(-nats) or less."""

    def above_ok(m: int) -> bool:  # P(W >= m) <= exp(-nats)
        return m > k or k * _kl(m / k, p_w) >= nats

    def below_fails(a: int) -> bool:  # F(a) P(W < a) > exp(-nats)
        n = k - a
        rate = n * _kl(a / n, pi) if a < n * pi else 0.0
        if a - 1 < k * p_w:
            rate += k * _kl((a - 1) / k, p_w)
        return rate < nats

    # the upper Chernoff bound holds from k p_w up; w_star lies above k p_w
    # whenever p_correct > p_wrong
    top = _first(above_ok, math.ceil(max(w_star, k * p_w)), k + 1) - 1
    cap = min(math.floor(w_star), top)
    a = _first(lambda x: x > cap or below_fails(x), 1, cap + 1) - 1
    return a, top


def _first(pred, lo: int, hi: int) -> int:
    """Smallest x in [lo, hi] with pred(x), for pred monotone and pred(hi) true."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _kl(x: float, p: float) -> float:
    """Bernoulli relative entropy D(x || p) in nats."""
    d = x * math.log(x / p) if x > 0.0 else 0.0
    if x < 1.0:
        d += (1.0 - x) * math.log((1.0 - x) / (1.0 - p))
    return d


def _chernoff(k: int, m: int, p: float) -> float:
    """exp(-k D(m/k || p)), which bounds P(Bin(k, p) >= m) for m >= k p and
    P(Bin(k, p) <= m) for m <= k p; 0 for m outside [0, k]."""
    if m < 0 or m > k:
        return 0.0
    return math.exp(-k * _kl(m / k, p))


def message_error_prob(delta: float, b: int) -> float:
    """Probability 1 - (1 - delta)^b that any of b bits decodes wrongly."""
    if not 0.0 <= delta <= 1.0:
        raise ParameterError(f"delta must lie in [0, 1], got {delta!r}")
    if b < 1:
        raise ParameterError(f"b must be >= 1, got {b!r}")
    if delta == 1.0:
        return 1.0
    return -math.expm1(b * math.log1p(-delta))


def _estimate_repetitions(target_e: float, b: int, cp: ClickProbabilities) -> int:
    """Normal-approximation guess for the needed k; only seeds the search.

    One repetition moves the vote tally by +1 with probability p_correct,
    -1 with p_wrong, 0 otherwise, so the tally is approximately normal
    with mean k * (p_correct - p_wrong) and variance k * (p - mean^2/k^2).
    """
    delta_bit = -math.expm1(math.log1p(-target_e) / b)
    z = -float(ndtri(min(max(delta_bit, 1e-300), 0.5)))
    p = cp.p_correct + cp.p_wrong
    m1 = cp.p_correct - cp.p_wrong
    var = p - m1 * m1
    if z <= 0.0 or m1 <= 0.0:
        return 1
    return max(1, int(z * z * var / (m1 * m1)) + 1)


class _Probe:
    """Memoized message error per k for one search.

    bit_errors holds every probe's bit error: the bounded estimate where
    its bounds put the verdict beyond doubt, else the exact sum.
    """

    def __init__(self, target_e: float, b: int, cp: ClickProbabilities):
        self.target_e = target_e
        self.b = b
        self.cp = cp
        self.bit_errors: dict[int, float] = {}

    def error(self, k: int) -> float:
        if k not in self.bit_errors:
            self.bit_errors[k] = self._bit_error(k)
        return message_error_prob(self.bit_errors[k], self.b)

    def _bit_error(self, k: int) -> float:
        bounds = _error_bounds(k, self.cp)
        if bounds is not None:
            low, estimate, high = bounds
            if message_error_prob(low * (1.0 - _EXACT_REL), self.b) > self.target_e:
                return estimate
            if message_error_prob(min(high * (1.0 + _EXACT_REL), 1.0), self.b) <= self.target_e:
                return estimate
        return bit_error_prob(k, self.cp)

    def fails(self, k: int) -> bool:
        return self.error(k) > self.target_e


def min_repetitions(target_e: float, b: int, cp: ClickProbabilities) -> int:
    """Smallest repetition count k meeting the message-error target.

    Majority voting converges only when a click is more likely correct
    than wrong (p_good_given_click > 1/2); otherwise the target is
    unreachable and InfeasibleError is raised, as it is when the
    normal-approximation guess exceeds 4 * MAX_REPETITIONS or k =
    MAX_REPETITIONS itself fails.

    One search on f(k) = log(message error / target), which is nearly
    linear in k: starting from the normal-approximation guess, failing
    points step upward along the slope of the Chernoff exponent,
    log error ~ -k I - log(k) / 2 with I = -log(1 - p + 2 sqrt(p_correct
    p_wrong)), until a passing k is found; Illinois regula falsi then
    closes the bracket to an adjacent (failing, passing) pair. Because an
    even k can decode slightly worse than k - 1 (ties lose), the passing
    end is finally walked downward checking both k - 1 and k - 2, which
    covers the parity sawtooth riding the decreasing envelope. So the
    smallest passing k is returned as long as odd and even k each decode
    better as k grows.

    Which probes are exact: every probe is first bounded by the
    wrong-vote split (_error_bounds: a window sum less a relative
    rounding allowance below, plus Chernoff bounds on the mass outside
    the window above) and steers with the window sum. Its verdict stands
    only when the target lies outside [lower (1 - _EXACT_REL), upper (1 +
    _EXACT_REL)] in message error, where the relative margin _EXACT_REL =
    1e-9 covers the exact sum's own rounding; otherwise, or where the
    split does not apply (no wrong clicks), the probe falls back to
    bit_error_prob. So every pass/fail verdict is the one the exact sum
    gives, and the search returns the same k as an all-exact search,
    wherever the exact sum is itself within _EXACT_REL of the error. The
    answer itself gets no exact sum: a search whose probes all settle on
    their bounds runs none.

    Returns:
        The repetition count k, a plain int.
    """
    if not 0.0 < target_e < 1.0:
        raise ParameterError(f"target_e must lie in (0, 1), got {target_e!r}")
    if b < 1:
        raise ParameterError(f"b must be >= 1, got {b!r}")
    p = cp.p_correct + cp.p_wrong
    if p == 0.0 or math.isnan(cp.p_good_given_click) or cp.p_good_given_click <= 0.5:
        raise InfeasibleError(
            "majority vote cannot converge: correct clicks are not more "
            "likely than wrong ones"
        )
    probe = _Probe(target_e, b, cp)
    if not probe.fails(1):
        return 1
    guess = _estimate_repetitions(target_e, b, cp)
    if guess >= 4 * MAX_REPETITIONS:
        # the normal approximation is reliable to a few percent at this
        # scale, so a 4x margin over the cap cannot misclassify
        raise InfeasibleError(
            f"estimated repetitions {guess:.1e} exceed the cap {MAX_REPETITIONS:.1e}"
        )
    rate = -math.log(max(1.0 - p + 2.0 * math.sqrt(cp.p_correct * cp.p_wrong), 1e-300))
    lo, f_lo = 1, _log_excess(probe, 1)
    hi, f_hi = None, 0.0
    k = min(max(2, guess), MAX_REPETITIONS)
    side = 0
    while hi is None or hi - lo > 1:
        f_k = _log_excess(probe, k)
        if f_k > 0.0:
            if k >= MAX_REPETITIONS:
                raise InfeasibleError(
                    f"no repetition count up to {MAX_REPETITIONS:.1e} meets the "
                    f"message-error target {target_e}"
                )
            lo, f_lo = k, f_k
            if side == -1:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = k, f_k
            if side == 1:
                f_lo *= 0.5
            side = 1
        if hi is None:
            est = k + f_k / (rate + 0.5 / k)
            k = min(max(int(round(est)), k + 1), MAX_REPETITIONS)
        elif hi - lo > 1:
            est = lo + (hi - lo) * f_lo / (f_lo - f_hi)
            k = min(max(int(round(est)), lo + 1), hi - 1)
    k = hi
    while k > 1:
        if not probe.fails(k - 1):
            k -= 1
        elif k > 2 and not probe.fails(k - 2):
            k -= 2
        else:
            break
    return k


def _log_excess(probe: _Probe, k: int) -> float:
    """log(message error / target): > 0 fails, <= 0 passes."""
    return math.log(max(probe.error(k), 1e-300)) - math.log(probe.target_e)
