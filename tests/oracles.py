"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written the slow, obvious way, with none
of the production code's algebraic shortcuts, so agreement between the
two is meaningful. Extended-precision pieces use mpmath; Monte-Carlo
pieces return (estimate, standard_error).
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np

from covertlink.exceptions import InfeasibleError, ParameterError
from covertlink.reliability import (
    MAX_REPETITIONS,
    ClickProbabilities,
    _estimate_repetitions,
    bit_error_prob,
    message_error_prob,
)


def thermal_term(n: int, n_bar) -> "mp.mpf":
    n_bar = mp.mpf(n_bar)
    return n_bar**n / (1 + n_bar) ** (n + 1)


def poisson_term(n: int, mu) -> "mp.mpf":
    mu = mp.mpf(mu)
    return mp.e ** (-mu) * mu**n / mp.factorial(n)


def _convolve(a, b):
    """Distribution of the sum of two counts, term by term, truncated to len(a)."""
    return [mp.fsum(a[j] * b[n - j] for j in range(n + 1)) for n in range(len(a))]


def pulse_on_background_highprec(mu, n_bar, n_terms: int, dps: int = 50):
    """rho_S(n), n < n_terms: Poisson(mu) convolved with thermal(n_bar)."""
    with mp.workdps(dps):
        rho = [thermal_term(n, n_bar) for n in range(n_terms)]
        pois = [poisson_term(n, mu) for n in range(n_terms)]
        return _convolve(pois, rho)


def pulse_on_background_tail_highprec(mu, n_bar, n_max: int, dps: int = 50):
    """P(X + Y > n_max) for X ~ Poisson(mu), Y ~ thermal(n_bar).

    Summed over X = j: P(X = j) P(Y > n_max - j), with the thermal tail
    P(Y > m) = (n_bar / (1 + n_bar))^(m + 1), plus P(X > n_max). The j
    sum stops once its terms fall below 10^-dps of the running total.
    """
    with mp.workdps(dps):
        r = mp.mpf(n_bar) / (1 + mp.mpf(n_bar))
        total = mp.mpf(0)
        for j in range(n_max + 1):
            term = poisson_term(j, mu) * r ** (n_max + 1 - j)
            total += term
            if j > mu and term < total * mp.mpf(10) ** -dps:
                break
        return total + mp.gammainc(n_max + 1, 0, mu, regularized=True)


def kl_divergence_highprec(mu, n_bar, q, n_terms: int = 400, dps: int = 80):
    """Brute-force KL divergence D(rho || (1-q) rho + q rho_S) in nats.

    rho is thermal(n_bar); rho_S is the convolution of Poisson(mu) with
    thermal(n_bar). Plain term-by-term summation at dps decimal digits.
    """
    with mp.workdps(dps):
        q = mp.mpf(q)
        rho = [thermal_term(n, n_bar) for n in range(n_terms)]
        pois = [poisson_term(n, mu) for n in range(n_terms)]
        rho_s = _convolve(pois, rho)
        total = mp.mpf(0)
        for n in range(n_terms):
            sigma = (1 - q) * rho[n] + q * rho_s[n]
            total += rho[n] * mp.log(rho[n] / sigma)
        return total


def chi_square_highprec(mu, n_bar, n_terms: int = 400, dps: int = 80):
    """Chi-square divergence sum(rho_S(n)^2 / rho(n)) - 1 of the same pair."""
    with mp.workdps(dps):
        rho = [thermal_term(n, n_bar) for n in range(n_terms)]
        pois = [poisson_term(n, mu) for n in range(n_terms)]
        rho_s = _convolve(pois, rho)
        return mp.fsum(rho_s[n] ** 2 / rho[n] for n in range(n_terms)) - 1


def message_error_highprec(delta, b: int, dps: int = 50):
    """1 - (1 - delta)^b summed the obvious way at high precision."""
    with mp.workdps(dps):
        return 1 - (1 - mp.mpf(delta)) ** b


def majority_error_enumeration(k: int, p_c: float, p_w: float) -> float:
    """Exact majority-vote error by multinomial enumeration over (c, w).

    Each of the k repetitions independently yields a correct click
    (p_c), a wrong click (p_w), or nothing. The bit is decoded wrongly
    whenever correct clicks do not outnumber wrong ones (ties and the
    all-silent case included).
    """
    r = 1.0 - p_c - p_w
    terms = []
    for c in range(k + 1):
        for w in range(k + 1 - c):
            if c > w:
                continue
            coef = math.comb(k, c) * math.comb(k - c, w)
            terms.append(coef * p_c**c * p_w**w * r ** (k - c - w))
    return math.fsum(terms)


def majority_error_highprec(k: int, p_c: float, p_w: float, w_max: int, dps: int = 40) -> float:
    """Majority-vote error over c <= w <= w_max, exact binomials at dps digits.

    The enumeration of majority_error_enumeration, with integer
    multinomial coefficients and mpmath powers, so that deep errors (1e-150
    and below), where majority_error_lgamma's rounded log terms lose about
    2e-12 relative, keep every digit. The caller picks w_max past where
    the error's mass lives.
    """
    with mp.workdps(dps):
        r = 1 - mp.mpf(p_c) - mp.mpf(p_w)
        total = mp.mpf(0)
        for w in range(min(w_max, k) + 1):
            for c in range(min(w, k - w) + 1):
                coef = math.comb(k, c) * math.comb(k - c, w)
                total += coef * mp.mpf(p_c) ** c * mp.mpf(p_w) ** w * r ** (k - c - w)
        return float(total)


def binom_pmf_highprec(x: int, n: int, p: float, dps: int = 40) -> "mp.mpf":
    """P(Bin(n, p) = x) at dps digits, as an mpf (no underflow)."""
    with mp.workdps(dps):
        log_pmf = (
            mp.loggamma(n + 1) - mp.loggamma(x + 1) - mp.loggamma(n - x + 1)
            + x * mp.log(mp.mpf(p)) + (n - x) * mp.log1p(-mp.mpf(p))
        )
        return +mp.exp(log_pmf)


def majority_error_bruteforce(k: int, p_c: float, p_w: float) -> float:
    """Same quantity by looping over all 3^k outcome strings (k <= 7)."""
    probs = (p_c, p_w, 1.0 - p_c - p_w)
    total = []
    for outcome in itertools.product((0, 1, 2), repeat=k):
        c = outcome.count(0)
        w = outcome.count(1)
        if c <= w:
            total.append(math.prod(probs[o] for o in outcome))
    return math.fsum(total)


def click_probability_mc(
    mu: float, n_bar: float, tau: float, samples: int, seed: int
) -> tuple[float, float]:
    """Photon-thinning Monte-Carlo click probability.

    Draw Poisson(mu) signal photons plus thermal(n_bar) noise photons,
    keep each independently with probability tau, and click when at
    least one photon survives. Thermal counts are geometric on {0,1,...}
    with success parameter 1/(1+n_bar).
    """
    rng = np.random.default_rng(seed)
    signal = rng.poisson(mu, size=samples) if mu > 0 else np.zeros(samples, np.int64)
    noise = rng.geometric(1.0 / (1.0 + n_bar), size=samples) - 1
    survivors = rng.binomial(signal + noise, tau)
    p_hat = float(np.mean(survivors >= 1))
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / samples)
    return p_hat, se


def repetition_block_mc(
    k: int, p_c: float, p_w: float, blocks: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo majority-vote error rate over whole repetition blocks."""
    rng = np.random.default_rng(seed)
    correct = rng.binomial(k, p_c, size=blocks)
    wrong = rng.binomial(k - correct, p_w / (1.0 - p_c))
    err = float(np.mean(correct <= wrong))
    se = math.sqrt(max(err * (1.0 - err), 1e-300) / blocks)
    return err, se


def majority_error_lgamma(k: int, p_c: float, p_w: float) -> float:
    """Majority-vote error rate by direct multinomial enumeration in log space.

    Works for repetition counts far beyond the reach of exact binomial
    coefficients (floats overflow near k ~ 1030). Counts ties and silent
    blocks as errors, like majority_error_enumeration. The double sum is
    windowed where the multinomial mass drops below ~1e-60, so truncation
    is negligible against the 1e-11 comparison tolerances used in tests.
    """
    if p_c + p_w >= 1.0:
        raise ValueError("need p_c + p_w < 1 for the multinomial model")
    # window half-widths: 40 sigma plus a flat floor of 60 counts
    c_hi = min(k, int(k * p_c + 40.0 * math.sqrt(k * p_c + 1.0) + 60))
    w_hi = min(k, int(k * p_w + 40.0 * math.sqrt(k * p_w + 1.0) + 60))
    log_pc = math.log(p_c) if p_c > 0.0 else None
    log_pw = math.log(p_w) if p_w > 0.0 else None
    log_none = math.log1p(-(p_c + p_w))
    lg_k = math.lgamma(k + 1)
    terms = []
    for c in range(c_hi + 1):
        if c > 0 and log_pc is None:
            break
        # error region: wrong votes >= correct votes (tie counted as error)
        for w in range(c, w_hi + 1):
            if c + w > k:
                break
            if w > 0 and log_pw is None:
                break
            log_term = lg_k - math.lgamma(c + 1) - math.lgamma(w + 1)
            log_term -= math.lgamma(k - c - w + 1)
            log_term += (k - c - w) * log_none
            if c > 0:
                log_term += c * log_pc
            if w > 0:
                log_term += w * log_pw
            terms.append(math.exp(log_term))
    return math.fsum(terms)


def draw_distinct_indices_loop(rng: np.random.Generator, n_pairs: int, count: int) -> np.ndarray:
    """count distinct uniform indices in [0, n_pairs), one stream value at a time.

    The first `count` distinct values of the iid batch stream (batches of
    max(16, still missing) values), sorted; dense draws take a partial
    permutation. This is the set-and-list loop the position draw used
    before it was vectorised, kept as the reference for its semantics.
    """
    if count > n_pairs:
        raise ValueError("cannot draw more distinct indices than pairs")
    if count > n_pairs // 2:
        return np.sort(rng.permutation(n_pairs)[:count].astype(np.uint64))
    chosen: set[int] = set()
    picked: list[int] = []
    while len(picked) < count:
        batch = rng.integers(0, n_pairs, size=max(16, count - len(picked)), dtype=np.uint64)
        for value in batch:
            v = int(value)
            if v not in chosen:
                chosen.add(v)
                picked.append(v)
                if len(picked) == count:
                    break
    return np.sort(np.asarray(picked, dtype=np.uint64))


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


def min_repetitions_all_exact(target_e: float, b: int, cp: ClickProbabilities) -> int:
    """Smallest repetition count k meeting the message-error target.

    The repetition search as it was before its probes were bounded: every
    probe runs the exact sum bit_error_prob. Kept verbatim as the
    reference the bounded search must agree with, k for k and
    InfeasibleError message for message.

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
