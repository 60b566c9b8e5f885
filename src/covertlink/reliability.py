"""Click statistics and repetition-code decoding error for the lossy link.

The receiver sees each sent pulse through a channel of total
transmissivity tau (detector efficiency included) on top of thermal
background noise. Closed forms are provided for the per-bin click
probabilities, the per-bit majority-vote error of a k-repetition code,
and the whole-message error, plus the inversion that finds the smallest
k meeting a message-error target.

Conventions baked into the formulas (and mirrored by the simulator):
an exact vote tie counts as a bit error, and a bit with no clicks at
all counts as an error. Hence bit_error_prob(1, cp) == 1 - p_correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .exceptions import InfeasibleError, ParameterError

# Repetition counts above this are rejected as a planning runaway.
MAX_REPETITIONS = 10**7

# Half-width of the click-count window, in standard deviations, used by
# the vectorized double-sum; a floor of 30 counts covers the skewed
# Poisson-like regime. Mass beyond the window is under ~1e-20.
_WINDOW_SIGMAS = 16.0


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

    Binomial terms come from scipy's regularized-beta implementations,
    never factorials, and the outer sum is restricted to a window of
    +-_WINDOW_SIGMAS (16) standard deviations around k p, at least 30
    counts wide on each side, so k up to 1e5 costs a few thousand terms.
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
    p_good = cp.p_good_given_click
    sd = math.sqrt(k * p * (1.0 - p))
    # Bernstein/Poisson tail bounds put the mass outside this window
    # below ~1e-20, far under the 1e-12 agreement the tests demand
    half = max(_WINDOW_SIGMAS * sd, 30.0)
    lo = max(0, int(k * p - half))
    hi = min(k, int(math.ceil(k * p + half)))
    i = np.arange(lo, hi + 1)
    outer = stats.binom.pmf(i, k, p)
    wrong_majority = stats.binom.cdf(i // 2, i, p_good)
    delta = float(np.sum(outer * wrong_majority))
    return min(max(delta, 0.0), 1.0)


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
    z = float(stats.norm.isf(min(max(delta_bit, 1e-300), 0.5)))
    p = cp.p_correct + cp.p_wrong
    m1 = cp.p_correct - cp.p_wrong
    var = p - m1 * m1
    if z <= 0.0 or m1 <= 0.0:
        return 1
    return max(1, int(z * z * var / (m1 * m1)) + 1)


class Repetitions(int):
    """A repetition count carrying the bit error the search computed at it.

    Behaves as a plain int; bit_error is bit_error_prob(k, cp) for the
    click probabilities the search ran on, so callers need not recompute
    the sum at the answer.
    """

    bit_error: float

    def __new__(cls, k: int, bit_error: float):
        obj = super().__new__(cls, k)
        obj.bit_error = float(bit_error)
        return obj


class _Probe:
    """Memoized message error per k for one search; bit_errors holds every probe."""

    def __init__(self, target_e: float, b: int, cp: ClickProbabilities):
        self.target_e = target_e
        self.b = b
        self.cp = cp
        self.bit_errors: dict[int, float] = {}

    def error(self, k: int) -> float:
        if k not in self.bit_errors:
            self.bit_errors[k] = bit_error_prob(k, self.cp)
        return message_error_prob(self.bit_errors[k], self.b)

    def fails(self, k: int) -> bool:
        return self.error(k) > self.target_e

    def answer(self, k: int) -> Repetitions:
        return Repetitions(k, self.bit_errors[k])


def min_repetitions(target_e: float, b: int, cp: ClickProbabilities) -> Repetitions:
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

    Returns:
        Repetitions (an int subclass) carrying the bit error at k.
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
        return probe.answer(1)
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
    return probe.answer(k)


def _log_excess(probe: _Probe, k: int) -> float:
    """log(message error / target): > 0 fails, <= 0 passes."""
    return math.log(max(probe.error(k), 1e-300)) - math.log(probe.target_e)
