"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written the slow, obvious way, with none
of the production code's algebraic shortcuts, so agreement between the
two is meaningful. Extended-precision pieces use mpmath; Monte-Carlo
pieces return (estimate, standard_error).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left

import mpmath as mp
import numpy as np

# boost's binomial pmf and cdf, the ones scipy.stats.binom calls: the
# library's own pmf and cdf are checked against them
from scipy.special._ufuncs import _binom_cdf as boost_binom_cdf
from scipy.special._ufuncs import _binom_pmf as boost_binom_pmf

from covertlink._special import _binom_cdf, _log_binom_pmf, _poisson_tail
from covertlink.codec import _CHAR_TO_INDEX, ALPHABET, BITS_PER_CHAR
from covertlink.exceptions import InfeasibleError, ParameterError
from covertlink.fock_stats import _TRUNC_TOL, DivergenceProfile, _log1p_gap
from covertlink.reliability import (
    MAX_REPETITIONS,
    ClickProbabilities,
    _estimate_repetitions,
    _wrong_vote_window,
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


def binom_cdf_highprec(x: int, n: int, p: float, dps: int = 50) -> "mp.mpf":
    """P(Bin(n, p) <= x) at dps digits: the terms below x, or one minus
    those above it past the mode, summed from the largest until they fall
    below 10^-(dps + 5) of the sum."""
    with mp.workdps(dps):
        p = mp.mpf(p)
        q = 1 - p
        below = x + 1 < (n + 1) * p
        y = x if below else x + 1
        term = binom_pmf_highprec(y, n, p, dps)
        total = term
        floor = mp.mpf(10) ** -(dps + 5)
        while (y > 0) if below else (y < n):
            if below:
                term *= y * q / ((n - y + 1) * p)
                y -= 1
            else:
                term *= (n - y) * p / ((y + 1) * q)
                y += 1
            total += term
            if term < total * floor:
                break
        return total if below else 1 - total


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


def majority_error_double_sum(k: int, cp: ClickProbabilities) -> float:
    """Majority-vote error as a double binomial sum over the click count.

    The exact sum bit_error_prob ran before the wrong-vote window sum
    became its one evaluator, kept verbatim (its constants inlined) as a
    reference formed the other way round, on boost's pmf and cdf: the
    outer sum runs over the
    number of clicks i ~ Binomial(k, p_correct + p_wrong); given i clicks,
    the bit is decoded wrongly when at most floor(i/2) of them are
    correct (ties and i = 0 both count as errors). The outer sum is
    restricted to a window of +-16 standard deviations around k p, at
    least 30 counts wide on each side, whose start moves down to 16
    standard deviations of Binomial(k, s) below k s, s = 2 r / (1 - p +
    2 r), r = sqrt(p_correct p_wrong), where the error's own peak lies
    there. Where p_correct >= p_wrong and z^k, z = 1 - p + 2 r, lies below
    2^-1075, 0.0 is returned without a sum. Fast enough for k up to 1e7.
    """
    p = cp.p_correct + cp.p_wrong
    if p > 1.0:
        raise ParameterError("p_correct + p_wrong exceeds 1")
    if p == 0.0:
        return 1.0  # no clicks ever: only the i = 0 (error) term survives
    root = math.sqrt(cp.p_correct * cp.p_wrong)
    z = 1.0 - p + 2.0 * root
    if cp.p_correct >= cp.p_wrong and (z <= 0.0 or k * math.log(z) < -1075.0 * math.log(2.0)):
        return 0.0
    half = max(16.0 * math.sqrt(k * p * (1.0 - p)), 30.0)
    lo = max(0, int(k * p - half))
    s = 2.0 * root / z if root > 0.0 else 0.0
    half_s = max(16.0 * math.sqrt(k * s * (1.0 - s)), 30.0)
    if lo > k * s - 0.5 * half_s:
        lo = max(0, int(k * s - half_s))
    i = np.arange(lo, min(k, math.ceil(k * p + half)) + 1)
    outer = np.clip(boost_binom_pmf(i, k, p), 0.0, 1.0)
    wrong_majority = np.clip(boost_binom_cdf(i // 2, i, cp.p_correct / p), 0.0, 1.0)
    delta = float(np.sum(outer * wrong_majority))
    return min(max(delta, 0.0), 1.0)


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


def lrt_balanced_error(p) -> float:
    """Exact balanced error of the adversary's per-pair likelihood-ratio
    test at threshold 0, for a protocol with a small pair count.

    A pair at the tap (unit efficiency, thermal noise n_bar_a in each
    bin) shows 0, 1 or 2 clicks with law p0 when idle and s when it
    carries a pulse of mean mu; a record of N pairs, each sending with
    probability q, is Mult(N, p0) idle and Mult(N, (1 - q) p0 + q s)
    when communicating. Every (t0, t1, t2) with t0 + t1 + t2 = N is
    enumerated, and the result is 0.5 [P0(llr > 0) + P1(llr <= 0)].
    """
    from scipy.stats import multinomial

    n_bar, mu, n, q = p.channel.n_bar_a, p.mu, p.n_pairs, p.q
    idle = n_bar / (1.0 + n_bar)
    signal = 1.0 - math.exp(-mu) / (1.0 + n_bar)
    p0 = np.array([(1 - idle) ** 2, 2 * idle * (1 - idle), idle**2])
    s = np.array(
        [(1 - signal) * (1 - idle), signal * (1 - idle) + idle * (1 - signal), signal * idle]
    )
    p1 = (1.0 - q) * p0 + q * s
    counts = np.array([(n - t1 - t2, t1, t2) for t1 in range(n + 1) for t2 in range(n + 1 - t1)])
    llr = counts @ np.log(p1 / p0)
    present = llr > 0.0
    false_alarm = multinomial.pmf(counts[present], n, p0).sum()
    miss = multinomial.pmf(counts[~present], n, p1).sum()
    return 0.5 * (false_alarm + miss)


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


def encode_message_loop(text: str) -> np.ndarray:
    """encode_message one character and one bit at a time.

    The loop the encoder was before it took whole-array steps, kept as
    the reference for its bits and its error text.
    """
    if not text:
        raise ParameterError("message must contain at least one character")
    bits = np.empty(BITS_PER_CHAR * len(text), dtype=np.uint8)
    for pos, char in enumerate(text):
        try:
            code = _CHAR_TO_INDEX[char]
        except KeyError:
            raise ParameterError(
                f"character {char!r} is not in the {len(ALPHABET)}-symbol alphabet"
            ) from None
        for j in range(BITS_PER_CHAR):
            bits[BITS_PER_CHAR * pos + j] = (code >> (BITS_PER_CHAR - 1 - j)) & 1
    return bits


def decode_bits_loop(bits: np.ndarray) -> str:
    """decode_bits one character and one bit at a time (the loop it replaced)."""
    bits = np.asarray(bits)
    if bits.size == 0 or bits.size % BITS_PER_CHAR != 0:
        raise ParameterError("bit count must be a positive multiple of 5")
    if np.any((bits != 0) & (bits != 1)):
        raise ParameterError("bits must be 0 or 1")
    chars = []
    for pos in range(bits.size // BITS_PER_CHAR):
        code = 0
        for j in range(BITS_PER_CHAR):
            code = (code << 1) | int(bits[BITS_PER_CHAR * pos + j])
        chars.append(ALPHABET[code])
    return "".join(chars)


class ScriptedStream:
    """A Generator stand-in whose integers() hands out a fixed value stream in order.

    Each call returns a fresh copy of the next `size` values, so a test
    can put repeats anywhere within a batch and across batches. sizes
    records the batch sizes asked for.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.uint64)
        self.sizes: list[int] = []

    def integers(self, low, high, size, dtype):
        start = sum(self.sizes)
        batch = self.values[start : start + size]
        if batch.size < size:
            raise ValueError("the scripted stream ran out")
        if batch.min() < low or batch.max() >= high:
            raise ValueError("a scripted value lies outside [low, high)")
        self.sizes.append(size)
        return batch.astype(dtype)


class _Probe:
    """Memoized message error per k for one search; bit_errors holds every probe."""

    def __init__(self, target_e: float, b: int, cp: ClickProbabilities):
        self.target_e = target_e
        self.b = b
        self.cp = cp
        self.bit_errors: dict[int, float] = {}

    def error(self, k: int) -> float:
        if k not in self.bit_errors:
            self.bit_errors[k] = majority_error_double_sum(k, self.cp)
        return message_error_prob(self.bit_errors[k], self.b)

    def fails(self, k: int) -> bool:
        return self.error(k) > self.target_e


def min_repetitions_all_exact(target_e: float, b: int, cp: ClickProbabilities) -> int:
    """Smallest repetition count k meeting the message-error target.

    The repetition search as it was before its probes were bounded, and
    before one bracketed Newton loop replaced its Illinois regula falsi:
    every probe runs the double sum majority_error_double_sum, the exact
    sum of that time. Kept as the independent reference the search must
    agree with, k for k and InfeasibleError message for message.

    Majority voting converges only when a click is more likely correct
    than wrong (p_correct > p_wrong, the library's rule); otherwise the
    target is unreachable and InfeasibleError is raised, as it is when
    the normal-approximation guess exceeds 4 * MAX_REPETITIONS or k =
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
    if cp.p_correct <= cp.p_wrong:
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


def error_bounds_one_probe(k: int, cp: ClickProbabilities) -> tuple[float, float, float] | None:
    """(lower, estimate, upper) on the bit error at (k, cp), or None.

    The bounded evaluator for one probe, kept as the scalar reference: its
    window placed in closed form (reliability._wrong_vote_window), F(a)
    from the library's binomial cdf, and the window summed on pmf runs
    (binom_pmf_run) that step by exact ratios from the library's pmf at
    every 256th term. The runs are copies, so the batched evaluator's
    sums are checked against one probe's sum written out plainly.
    Wherever it sums a window its estimate is the double the batched
    reliability._bit_errors gives: None marks the closed-form cases, and
    an estimate of 0.0 below a Chernoff bound of 1e-300 a probe that
    reliability sums down to 2^-1075.
    """
    p_c, p_w = cp.p_correct, cp.p_wrong
    pi = p_c / (1.0 - p_w) if p_w < 1.0 else 0.0
    if p_w <= 0.0 or not 0.0 < pi < 1.0:
        return None
    root = math.sqrt(p_c * p_w)
    z = 1.0 - p_c - p_w + 2.0 * root
    log_chernoff = k * math.log(z)
    if log_chernoff < math.log(1e-300):
        return 0.0, 0.0, math.exp(log_chernoff)
    nats = 30.0 + 0.5 * math.log(k) - log_chernoff
    a, top = (int(end) for end in _wrong_vote_window(float(k), p_w, pi, k * root / z, nats))
    w = np.arange(a, top + 1, dtype=float)
    start = float(_binom_cdf(float(a), float(k - a), pi)[0])
    # the F steps, P(Bin(n, pi) = w) ((n - w) pi / ((1 - pi) (w + 1)) + pi)
    # with n = k - 1 - w, at every w but the last, which no F uses
    before = w[:-1]
    factor = (k - 2.0 * before - 1.0) * (pi / (1.0 - pi)) / (before + 1.0) + pi
    steps = binom_pmf_run(before, k, pi, shrink=True) * factor
    f = np.empty_like(w)
    f[0] = 0.0
    np.cumsum(steps, out=f[1:])
    f += start
    terms = binom_pmf_run(w, k, p_w, shrink=False) * f
    # a short window's total term by term, a long one's by numpy's sum
    total = float(np.cumsum(terms)[-1] if w.size <= 256 else np.sum(terms))
    tails = _chernoff(k, top + 1, p_w)
    if a > 0:
        tails += start * (_chernoff(k, a - 1, p_w) if a - 1 < k * p_w else 1.0)
    return total * (1.0 - 1e-10), min(total, 1.0), (total + tails) * (1.0 + 1e-10)


def boost_bit_error(k: int, cp: ClickProbabilities, every_term: bool = False) -> float | None:
    """The bit error at (k, cp) as the library summed it on boost's pmf and
    cdf, or None for the closed forms.

    The one-probe evaluator of the version that called scipy, kept
    verbatim as the boost-based reference but for its window, now placed
    in closed form (reliability._wrong_vote_window): F(a) from boost's
    cdf, and the window summed on boost_pmf_run, so the library's
    numpy-only sums are checked against the doubles boost gave; with
    every_term, on boost's pmf at every term.
    Below a Chernoff bound of 1e-300 it gives 0.0.
    """
    p_c, p_w = cp.p_correct, cp.p_wrong
    pi = p_c / (1.0 - p_w) if p_w < 1.0 else 0.0
    if p_w <= 0.0 or not 0.0 < pi < 1.0:
        return None
    root = math.sqrt(p_c * p_w)
    z = 1.0 - p_c - p_w + 2.0 * root
    log_chernoff = k * math.log(z)
    if log_chernoff < math.log(1e-300):
        return 0.0
    nats = 30.0 + 0.5 * math.log(k) - log_chernoff
    a, top = (int(end) for end in _wrong_vote_window(float(k), p_w, pi, k * root / z, nats))
    w = np.arange(a, top + 1, dtype=float)
    start = float(boost_binom_cdf(a, k - a, pi))
    before = w[:-1]
    n = k - 1.0 - before
    if every_term:
        pmf = _boost_masked_pmf(before, n, pi)
        outer = boost_binom_pmf(w, k, p_w)
    else:
        pmf = boost_pmf_run(before, k - 1.0 - a, pi, shrink=True)
        outer = boost_pmf_run(w, k, p_w, shrink=False)
    steps = pmf * (pi + (n - before) * pi / ((1.0 - pi) * (before + 1.0)))
    f = np.empty_like(w)
    f[0] = 0.0
    np.cumsum(steps, out=f[1:])
    f += start
    return min(float(np.sum(outer * f)), 1.0)


def boost_pmf_run(x: np.ndarray, n: float, p: float, shrink: bool) -> np.ndarray:
    """P(Bin(n_i, p) = x_i) along consecutive x_i = x[0] + i, 0 < p < 1,
    as boost_bit_error's version summed it.

    n_i = n throughout, or n - i with shrink. Boost gives every 256th
    term; the terms between follow by the exact ratio of neighbours, (n_i
    - x_i) / (x_i + 1) p / (1 - p), times (n_i - x_i - 1) / (n_i (1 - p))
    with shrink. A run no longer than 256 is all boost, and so is a block
    whose anchor is subnormal. With shrink the terms past x_i > n_i are 0;
    a fixed-n run takes x_i <= n.
    """
    m = len(x)
    if m <= 256 and not shrink:
        return boost_binom_pmf(x, n, p)
    n_i = n - np.arange(m, dtype=float) if shrink else np.full(m, float(n))
    if m <= 256:
        return _boost_masked_pmf(x, n_i, p)
    xs, ns = x[:-1], n_i[:-1]
    ratio = (ns - xs) / (xs + 1.0) * (p / (1.0 - p))
    if shrink:
        # 0 from x_i = n_i - 1 on; n_i = 0 makes it 0/0
        with np.errstate(invalid="ignore"):
            ratio *= np.maximum(ns - xs - 1.0, 0.0) / (ns * (1.0 - p))
        ratio[ns <= 0.0] = 0.0
    blocks = -(-m // 256)
    terms = np.ones(blocks * 256)
    terms[1:m] = ratio
    anchors = slice(0, m, 256)
    terms[anchors] = _boost_masked_pmf(x[anchors], n_i[anchors], p)
    terms = np.cumprod(terms.reshape(blocks, 256), axis=1).ravel()[:m]
    # a subnormal anchor has lost digits the ratios would carry on
    lost = (terms[anchors] < np.finfo(float).tiny) & (x[anchors] <= n_i[anchors])
    for b in np.flatnonzero(lost):
        run = slice(b * 256, (b + 1) * 256)
        terms[run] = _boost_masked_pmf(x[run], n_i[run], p)
    return terms


def _boost_masked_pmf(x: np.ndarray, n, p: float) -> np.ndarray:
    """Boost's binomial pmf, 0 where x > n."""
    return np.where(x <= n, boost_binom_pmf(x, n, p), 0.0)


def wrong_vote_window(k: int, p_w: float, pi: float, w_star: float, nats: float) -> tuple[int, int]:
    """Narrowest [a, top] around w_star whose two tail bounds are exp(-nats) or less.

    reliability's window placement as it stood when each probe placed its
    window alone, kept verbatim: two bisections over range(k + 1). The
    closed form's window (reliability._wrong_vote_window) contains it.
    """

    def above_ok(m: int) -> bool:  # P(W >= m) <= exp(-nats)
        return k * _kl(m / k, p_w) >= nats

    def below_fails(a: int) -> bool:  # F(a) P(W < a) > exp(-nats)
        n = k - a
        rate = n * _kl(a / n, pi) if a < n * pi else 0.0
        if a - 1 < k * p_w:
            rate += k * _kl((a - 1) / k, p_w)
        return rate < nats

    # first True of each monotone test; the bisection never evaluates the
    # range's end, so m <= k and a <= cap hold in every test. The upper
    # Chernoff bound holds from k p_w up; w_star lies above k p_w whenever
    # p_correct > p_wrong
    start = math.ceil(max(w_star, k * p_w))
    top = bisect_left(range(k + 1), True, start, key=above_ok) - 1
    cap = min(math.floor(w_star), top)
    a = bisect_left(range(cap + 1), True, 1, key=below_fails) - 1
    return a, top


def binom_pmf_run(x: np.ndarray, k: float, p: float, shrink: bool) -> np.ndarray:
    """P(Bin(n_i, p) = x_i) along consecutive x_i = x[0] + i, 0 < p < 1.

    n_i = k throughout, or k - 1 - x_i with shrink. The library's pmf
    gives the first term and every 256th after it in a run longer than
    256 (one that short is one block); the terms between follow by the
    exact ratio of neighbours: (n + 1 - x) / x p / (1 - p) at fixed n, and
    with shrink, n1 = k - x and gap = n1 - x, (gap + 1) max(gap, 0) / (x
    n1) p / (1 - p)^2, 0 from gap <= 0 on and at n1 = 0. A first term
    below e^-700 is taken scaled up by a power of two and the block
    scaled back at the end, so its lost digits do not carry on.
    """
    m = len(x)
    if m == 0:
        return np.empty(0)
    block = 256 if m > 256 else m
    xs = x[0] + np.arange(-(-m // block) * block, dtype=float)
    with np.errstate(all="ignore"):
        if shrink:
            n1 = k - xs
            gap = n1 - xs
            ratio = (gap + 1.0) * np.maximum(gap, 0.0) / (xs * n1) * (p / (1.0 - p) / (1.0 - p))
            ratio[n1 <= 0.0] = 0.0
        else:
            ratio = (k + 1.0 - xs) / xs * (p / (1.0 - p))
    firsts = xs[::block]
    logs = _log_binom_pmf(firsts, k - 1.0 - firsts if shrink else np.full(firsts.size, float(k)), p)
    shifts = np.zeros(logs.size, dtype=np.intp)
    for b, log_first in enumerate(logs.tolist()):
        if log_first == -math.inf:  # a block that starts past n, all 0
            shifts[b] = 2100
        elif log_first < -700.0:
            shifts[b] = min(math.ceil((-700.0 - log_first) / math.log(2.0)), 2100)
    terms = ratio.reshape(-1, block)
    terms[:, 0] = np.exp(logs + shifts * math.log(2.0))
    np.cumprod(terms, axis=1, out=terms)
    terms = np.ldexp(terms, -shifts[:, None]).ravel()
    return terms[:m]


def _kl(x: float, p: float) -> float:
    """Bernoulli relative entropy D(x || p) in nats."""
    d = x * math.log(x / p) if x > 0.0 else 0.0
    if x < 1.0:
        d += (1.0 - x) * math.log((1.0 - x) / (1.0 - p))
    return d


def window_tail_rates(k: int, p_w: float, pi: float, a: int, top: int) -> tuple[float, float]:
    """The Chernoff exponents of what [a, top] leaves out: of F(a) P(W < a)
    below and of P(W > top) above, each inf where it leaves nothing out.

    -log of _chernoff's bounds, kept as exponents so that a bound below
    the smallest double still compares: F(a) = P(Bin(k - a, pi) <= a) and
    W ~ Binomial(k, p_w), each tail bounded by 1 on its mean's side.
    """
    below = math.inf
    if a > 0:
        n = k - a
        below = n * _kl(a / n, pi) if a < n * pi else 0.0
        if a - 1 < k * p_w:
            below += k * _kl((a - 1) / k, p_w)
    above = math.inf
    if top < k:
        above = k * _kl((top + 1) / k, p_w) if top + 1 >= k * p_w else 0.0
    return below, above


def _chernoff(k: int, m: int, p: float) -> float:
    """exp(-k D(m/k || p)), which bounds P(Bin(k, p) >= m) for m >= k p and
    P(Bin(k, p) <= m) for m <= k p; 0 for m outside [0, k]."""
    if m < 0 or m > k:
        return 0.0
    return math.exp(-k * _kl(m / k, p))


def divergence_one_profile(profile: DivergenceProfile, q: float) -> float:
    """D(q) for one profile, as DivergenceProfile.divergence formed it
    before divergences were batched."""
    quadratic = math.fsum(profile.rho * _log1p_gap(q * profile.x))
    return max(quadratic - q * (profile.tail_rho - profile.tail_s), 0.0)


def slope_one_profile(profile: DivergenceProfile, q: float) -> float:
    """dD/dq for one profile, as DivergenceProfile.slope formed it before
    slopes were batched with the divergences."""
    y = q * profile.x
    return math.fsum(profile.rho * profile.x * y / (1.0 + y)) - (profile.tail_rho - profile.tail_s)


def build_one_profile(mu: float, n_bar_a: float) -> DivergenceProfile:
    """The profile of one (mu, n_bar_a), as DivergenceProfile.build formed
    it before profiles were built a pair-search round at a time."""
    mu = float(mu)
    if not math.isfinite(mu) or mu < 0.0:
        raise ParameterError(f"mu must be finite and >= 0, got {mu!r}")
    n_bar_a = float(n_bar_a)
    if not math.isfinite(n_bar_a) or n_bar_a < 0.0:
        raise ParameterError(f"n_bar_a must be finite and >= 0, got {n_bar_a!r}")
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
    # x_0 = e^-mu - 1; for n >= 1 the j >= 1 part of the partial
    # exponential sum is added to it, so no term cancels against 1
    x = np.full(n_max + 1, math.expm1(-mu))
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
    # tail. Neither piece cancels.
    tail_s = float(tail_rho * (1.0 + x[-1]) + _poisson_tail(n_max + 1, [mu])[0])
    uncovered = -math.expm1(-mu) if n_bar_a == 0.0 else 0.0
    chi2 = math.inf if uncovered > 0.0 else math.fsum(rho * x * x)
    return DivergenceProfile(
        mu=mu,
        n_bar_a=n_bar_a,
        rho=rho,
        x=x,
        tail_rho=tail_rho,
        tail_s=tail_s,
        chi2=chi2,
        uncovered=uncovered,
    )
