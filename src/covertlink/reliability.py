"""Click statistics and repetition-code decoding error for the lossy link.

The receiver sees each sent pulse through a channel of total
transmissivity tau (detector efficiency included) on top of thermal
background noise. Closed forms are provided for the per-bin click
probabilities, the per-bit majority-vote error of a k-repetition code,
and the whole-message error, plus the inversion that finds the smallest
k meeting a message-error target.

One evaluator, _bit_errors, forms every bit error: a sum over the
wrong votes on binomial pmfs that step by exact term ratios from
Loader's saddle-point pmf (_special._log_binom_pmf) at the first term of
each window and of each 256-term block of a long one, or a closed form
where that split does not apply. bit_error_prob is a batch of one on it,
and each probe of the inversion is its value against the target, so the
k returned passes by the very value bit_error_prob reports there.

The inversion is one bracketed Newton loop, a generator,
_repetition_search, that yields each probe it needs, and _lockstep runs
any number of such searches side by side: each round gathers every
pending probe into one batched _bit_errors call. That call places each
window in closed form, with no search: each end where a bound below its
tail's Chernoff exponent reaches the cut, so that the window contains
the narrowest one the exponents allow (about 7 % more terms on the
bundled plans). It then makes one pmf call for every anchor of the
batch, and sums the windows in 2-D numpy passes: every window of up to
256 terms in one pass, a row each, and the longer ones a few at a time.
The planner runs the searches of 64 grid points at a time this way;
min_repetitions runs one, as a batch of one. A probe's value
is the same double whatever shares its batch, so batching changes no
probe sequence and no result.

Conventions baked into the formulas, shared with the simulator: an
exact vote tie counts as a bit error, and a bit with no clicks at all
counts as an error. Hence bit_error_prob(1, cp) == 1 - p_correct.

The click model is not the simulator's. The formulas take a
repetition's click as exclusive: a correct vote with p_correct, a wrong
one with p_wrong. The simulator's two bins click independently and a
pair where both click casts no vote, so its votes come with
p_correct (1 - p_wrong) and p_wrong (1 - p_correct). On every bundled
plan the closed form's message error is the larger, so the planner's
claim is conservative there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
from ._special import _binom_cdf, _log_binom_pmf, _passes
from .exceptions import InfeasibleError, ParameterError, _check_count, _check_real

# The planner's limit on k: no plan (ProtocolParams) repeats a bit more often.
MAX_REPETITIONS = 10**7

# The smallest message-error target the repetition search resolves: it
# compares log message errors clamped at this floor, so below it every
# probe would read as failing.
MIN_TARGET_ERROR = 1e-300

# The wrong-vote window leaves out mass below exp(-_TAIL_NATS) times the
# Chernoff bound, or 1 where that bounds nothing (times sqrt(k), the factor
# the sum may fall below it).
_TAIL_NATS = 30.0

# A double below 2^-1075 rounds to 0.0.
_LOG_ROUNDS_TO_ZERO = -1075.0 * math.log(2.0)

# A pmf run whose first term lies below e^_LOG_NORMAL runs scaled by a power
# of two (_scaled_exp, _pmf_rows), so that no subnormal term carries its
# lost digits on.
_LOG_NORMAL = -700.0
_LN2 = math.log(2.0)

# The window sums' pmfs take Loader's pmf at every _ANCHOR_EVERY-th term of
# a window and step by exact term ratios between; a window no longer is
# one block, from its first term.
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
        _check_real(self.tau, "tau", 0.0, 1.0)
        for name in ("n_bar_a", "n_bar_b"):
            _check_real(getattr(self, name), f"channel noise mean {name}", 0.0)


@dataclass(frozen=True)
class ClickProbabilities:
    """Per-bin click probabilities at the receiver for one sent pulse.

    Attributes:
        p_correct: probability that the signal bin clicks.
        p_wrong: probability that the paired noise-only bin clicks.
    """

    p_correct: float
    p_wrong: float

    def __post_init__(self):
        _check_real(self.p_correct, "p_correct", 0.0, 1.0)
        _check_real(self.p_wrong, "p_wrong", 0.0, 1.0)


def click_probs(mu: float, ch: ChannelModel) -> ClickProbabilities:
    """Closed-form click probabilities for a pulse of mean photon number mu.

    The signal bin clicks unless both the attenuated pulse and the
    attenuated background deliver zero photons:
        p_correct = 1 - exp(-tau * mu) / (1 + tau * n_bar_b)
    The paired noise-only bin clicks with
        p_wrong = tau * n_bar_b / (1 + tau * n_bar_b).
    """
    _check_real(mu, "mu", 0.0)
    a = ch.tau * mu
    c = ch.tau * ch.n_bar_b
    # 1 - e^-a/(1+c) rewritten so tiny a does not cancel against 1
    p_correct = (c - math.expm1(-a)) / (1.0 + c)
    p_wrong = c / (1.0 + c)
    return ClickProbabilities(p_correct, p_wrong)


def bit_error_prob(k: int, cp: ClickProbabilities) -> float:
    """Majority-vote error probability for one bit repeated k times.

    A batch of one on _bit_errors, the one evaluator of the bit error;
    ties and a bit with no clicks at all count as errors.

    Raises:
        ParameterError: k is not an integer >= 1, or p_correct + p_wrong
            exceeds 1.
    """
    k = _check_count(k, "k", 1)
    if cp.p_correct + cp.p_wrong > 1.0:
        raise ParameterError(
            "p_correct + p_wrong exceeds 1; the single-click-per-slot model "
            "does not apply"
        )
    return _bit_errors([(k, cp)])[0]


def _bit_errors(probes: list[tuple[int, ClickProbabilities]]) -> list[float]:
    """The majority-vote error of each (k, cp), p_correct + p_wrong <= 1.

    Splits on the wrong votes W ~ Binomial(k, p_wrong): given W = w the
    correct votes are Binomial(k - w, pi) with pi = p_correct / (1 -
    p_wrong), so the error is sum_w P(W = w) F(w) with F(w) = P(Bin(k - w,
    pi) <= w). F(w + 1) = F(w) + pmf(w; k - w - 1) (pi + (k - 2w - 1) pi /
    ((w + 1)(1 - pi))), so across a window [a, top] F is one exact start
    value F(a) plus a cumulative sum of positive terms: nothing cancels.
    Both pmfs, P(W = w) and the F step's, step by exact term ratios from
    Loader's pmf at each block's first term, and F(a) is _binom_cdf's; one
    _log_binom_pmf call gives every such term of the batch. The window
    sits around the dominant w* = k sqrt(p_c p_w) / z, z = 1 - p + 2
    sqrt(p_c p_w), and reaches out at least until the Chernoff bounds of
    what it leaves out, F(a) P(W < a) below and P(W > top) above, fall
    _TAIL_NATS below the Chernoff bound z^k of the whole error; its ends
    come in closed form (_wrong_vote_window). z^k bounds the error
    only where p_correct >= p_wrong; otherwise the window is placed as if
    the error were 1, and around W's mean k p_w, where the error's mass
    then lies, instead of w*: where p_wrong nears 1, P(W = w) at w* lies
    thousands of nats below its peak, past what the scaled pmf runs hold.
    Where p_correct >= p_wrong and z^k < 2^-1075 the error rounds to 0.0,
    and 0.0 is returned without a sum.

    Where the split does not apply the vote count is one binomial, and
    its cdf gives the error: 1 with no correct clicks, (1 -
    p_correct)^k with no wrong ones, and P(Bin(k, p_correct) <= floor(k /
    2)) with no silent slots (p_correct + p_wrong = 1).

    The probes are evaluated together, each with the same arithmetic as
    alone: once _wrong_vote_window has placed each window, one
    _window_sums pass totals every window of at most _ANCHOR_EVERY terms,
    and further passes the longer ones, as _passes splits their padded terms.
    """
    out = [0.0] * len(probes)
    rows = []
    for i, (k, cp) in enumerate(probes):
        p_c, p_w = cp.p_correct, cp.p_wrong
        pi = p_c / (1.0 - p_w) if p_w < 1.0 else 1.0
        if p_c == 0.0 or p_w == 0.0 or pi >= 1.0:
            out[i] = float(_binom_cdf(k // 2 if p_w > 0.0 else 0, k, p_c)[0])
            continue
        root, z = _chernoff_base(p_c, p_w)
        if p_c >= p_w:
            log_chernoff, w_star = k * math.log(z), k * root / z
        else:
            log_chernoff, w_star = 0.0, k * p_w
        if log_chernoff < _LOG_ROUNDS_TO_ZERO:
            continue
        nats = _TAIL_NATS + 0.5 * math.log(k) - log_chernoff
        a, top = _wrong_vote_window(float(k), p_w, pi, w_star, nats)
        rows.append((i, k, p_w, pi, a, top))
    if not rows:
        return out
    # the short windows first, then the long ones, so that each pass's
    # blocks lie together; a short window is one block, a long one runs of
    # _ANCHOR_EVERY terms
    rows.sort(key=lambda row: row[5] - row[4] >= _ANCHOR_EVERY)
    index, k, p_w, pi, a, top = np.array(rows, dtype=float).T
    sizes = [int(row[5] - row[4]) + 1 for row in rows]
    blocks = [-(-size // _ANCHOR_EVERY) for size in sizes]
    first = list(itertools.accumulate(blocks, initial=0))
    # one pmf call gives every anchor: P(W = w) and the F step's pmf,
    # P(Bin(k - 1 - w, pi) = w), at each block's first term w, and F(a)'s
    # top term, P(Bin(k - a, pi) = a)
    size = first[-1]
    if size == len(rows):
        w0, k0, p0, pi0 = a, k, p_w, pi
    else:
        run = np.repeat(np.arange(len(rows)), blocks)
        w0 = a[run] + (np.arange(size) - np.array(first[:-1])[run]) * _ANCHOR_EVERY
        k0, p0, pi0 = k[run], p_w[run], pi[run]
    logs = _log_binom_pmf(
        np.concatenate((w0, w0, a)),
        np.concatenate((k0, k0 - 1.0 - w0, k - a)),
        np.concatenate((p0, pi0, pi)),
    )
    firsts, shifts = _scaled_exp(logs[: 2 * size])
    start = _binom_cdf(a, k - a, pi, logs[2 * size :])
    # the short windows in one pass as wide as the longest, the long ones
    # as _passes splits them
    short = blocks.count(1) if blocks[0] == 1 else 0
    passes = [(0, short, max(sizes[:short], default=1))]
    passes += [
        (short + begin, short + end, _ANCHOR_EVERY)
        for begin, end in _passes([count * _ANCHOR_EVERY for count in blocks[short:]])
    ]
    for begin, end, width in passes:
        if end > begin:
            held_w = slice(first[begin], first[end])
            held_step = slice(size + first[begin], size + first[end])
            part = slice(begin, end)
            sums = _window_sums(
                (k[part], p_w[part], pi[part], a[part], start[part]),
                sizes[part],
                (firsts[held_w], firsts[held_step]),
                None if shifts is None else (shifts[held_w], shifts[held_step]),
                width,
            )
            for i, total in zip(index[part].astype(int).tolist(), sums):
                out[i] = min(total, 1.0)
    return out


def _chernoff_base(p_c: float, p_w: float) -> tuple[float, float]:
    """sqrt(p_c p_w) and z = 1 - p_c - p_w + 2 sqrt(p_c p_w): where p_c >=
    p_w, z^k is the Chernoff bound of the k-repetition vote error."""
    root = math.sqrt(p_c * p_w)
    return root, 1.0 - p_c - p_w + 2.0 * root


def _window_sums(windows, sizes, firsts, shifts, width) -> list[float]:
    """sum_w P(W = w) F(w) over windows of m terms from a, F(a) = start, in one pass.

    windows holds the arrays k, p_w, pi, a and start, one entry a window,
    and sizes each window's number of terms, m. Each window's terms lie in
    blocks of width terms, one row each: one block for a window of at most
    _ANCHOR_EVERY terms, width the pass's longest, and whole blocks of
    _ANCHOR_EVERY terms for longer ones. firsts holds the two pmfs, P(W =
    w) and the F step's P(Bin(k - 1 - w, pi) = w), at each block's first
    term, and shifts, unless None, the powers of two they are scaled by
    (_scaled_exp); _pmf_rows steps from them by exact term ratios. The F
    step is formed at every term, a window's last too, which no F uses.
    Each window's cumulative sum of steps and its total run along its own
    terms in order (a short window's total term by term, a long one's by
    numpy's sum of its slice), so every window gets the doubles it gets
    alone, whatever shares its pass. A pass of one window takes its
    constants as floats, and others as columns: the same doubles either
    way. Returns the sums as a list.
    """
    blocks = [-(-size // width) for size in sizes]
    ends = None
    if len(sizes) == 1:
        k, p_w, pi, a, start = (float(column[0]) for column in windows)
        w = (a + np.arange(blocks[0] * width, dtype=float)).reshape(blocks[0], width)
    else:
        k, p_w, pi, a, start = windows
        if max(blocks) == 1:
            # P(W = w) past a short window's end is 0, so its total takes none of it
            ends = np.array(sizes)
        else:
            run = np.repeat(np.arange(len(sizes)), blocks)
            first = np.cumsum(blocks) - blocks
            k, p_w, pi, a, start = (v[run] for v in (k, p_w, pi, a, start))
            a = a + (np.arange(run.size) - first[run]) * width
        k, p_w, pi, a, start = (v[:, None] for v in (k, p_w, pi, a, start))
        w = a + np.arange(width, dtype=float)
    pmf_w = _pmf_rows(w, k, p_w, False, firsts[0], None if shifts is None else shifts[0], ends)
    steps = _pmf_rows(w, k, pi, True, firsts[1], None if shifts is None else shifts[1])
    # F(w + 1) - F(w) = P(Bin(n, pi) = w) ((n - w) pi / ((1 - pi) (w + 1)) + pi),
    # n = k - 1 - w
    factor = k - 1.0 - w
    factor -= w
    factor *= pi / (1.0 - pi)
    factor /= w + 1.0
    factor += pi
    steps *= factor
    # F(w) - F(a), the sum of the steps below w
    f = np.empty_like(w)
    if max(blocks) == 1:
        f[:, 0] = 0.0
        np.cumsum(steps[:, :-1], axis=1, out=f[:, 1:])
        f += start
        f *= pmf_w
        return np.cumsum(f, axis=1)[:, -1].tolist()
    flat_f, flat_steps = f.ravel(), steps.ravel()
    starts = itertools.accumulate([0] + blocks[:-1], lambda s, count: s + count * width)
    spans = list(zip(starts, sizes))
    for s, size in spans:
        flat_steps[s : s + size - 1].cumsum(out=flat_f[s + 1 : s + size])
        flat_f[s] = 0.0
    f += start
    f *= pmf_w
    return [float(flat_f[s : s + size].sum()) for s, size in spans]


def _pmf_rows(w, k, p, shrink: bool, first, shift, ends=None) -> np.ndarray:
    """P(Bin(n, p) = w) at each term of rows of consecutive w, from each row's first term.

    n = k, or k - 1 - w with shrink; k and p are floats or columns. Each
    term is the one before it times the exact ratio of neighbours: (k + 1
    - w) / w p / (1 - p) at fixed n; with shrink, n1 = k - w trials at w -
    1 and gap = n1 - w, (gap + 1) max(gap, 0) / (w n1) p / (1 - p)^2,
    which is 0 from gap <= 0 on, and set to 0 at n1 <= 0, where it is 0/0.
    first holds each row's first term, scaled up by 2^shift unless shift
    is None (_scaled_exp), and such a row is scaled back, exactly, by
    ldexp at the end. Where ends is given, row i is 0 from column ends[i]
    on. The ratio at column 0, which first replaces, is never used.
    """
    with np.errstate(all="ignore"):
        if shrink:
            n1 = k - w
            gap = n1 - w
            terms = gap + 1.0
            terms *= np.maximum(gap, 0.0)
            terms /= w * n1
            terms *= p / (1.0 - p) / (1.0 - p)
        else:
            terms = k + 1.0 - w
            terms /= w
            terms *= p / (1.0 - p)
    if shrink and np.any(w[:, -1:] >= k):
        terms[n1 <= 0.0] = 0.0
    if ends is not None:
        inside = np.flatnonzero(ends < w.shape[1])
        terms[inside, ends[inside]] = 0.0
    terms[:, 0] = first
    np.cumprod(terms, axis=1, out=terms)
    if shift is not None:
        np.ldexp(terms, -shift[:, None], out=terms)
    return terms


def _scaled_exp(logs: np.ndarray):
    """exp(logs), and None; or, where a log lies below _LOG_NORMAL, whose
    exp would be subnormal or 0 and carry its lost digits along a run of
    ratio products, exp(log + e log 2) with e the power of two that makes
    it normal (at most 2100, past which every term of its run rounds to
    0), and the e of each (0 elsewhere)."""
    low = logs < _LOG_NORMAL
    if not low.any():
        return np.exp(logs), None
    with np.errstate(all="ignore"):
        shift = np.where(low, np.minimum(np.ceil((_LOG_NORMAL - logs) / _LN2), 2100.0), 0.0)
    return np.exp(logs + shift * _LN2), shift.astype(np.intp)


def _wrong_vote_window(
    k: float, p_w: float, pi: float, w_star: float, nats: float
) -> tuple[float, float]:
    """A window [a, top] around w_star whose two tail bounds are exp(-nats)
    or less, and which contains the narrowest such window.

    The narrowest window's top + 1 is the first m from ceil(max(w_star, k
    p_w)) up with k D(m/k || p_w) >= nats, the Chernoff exponent of P(W >=
    m) (k + 1 if none), and its a + 1 the first a from 1 up to cap =
    min(floor(w_star), top) where the Chernoff exponents of F(a) and of
    P(W < a) sum below nats (cap + 1 if none). Here each end comes in
    closed form from a bound below its exponent, so it lies at or past the
    narrowest window's end (Boucheron, Lugosi and Massart, Concentration
    Inequalities, 2013, ch. 2). The upper Chernoff bound holds from k p_w
    up; w_star lies above k p_w whenever p_correct > p_wrong.

    top + 1 is where Bernstein's bound on the upper exponent, lam = k p_w,
    reaches nats. a is the floor of the largest of four points where a
    bound below the lower exponents reaches nats, clipped to [0, cap]:
    - D(x || p) >= (p - x)^2 / (2 p), x <= p, bounds the exponent of P(W
      < a), at u = a - 1, by (a - lam - 1)^2 / (2 lam) while a < lam + 1,
      and that of F(a), n = k - a, by (k pi - a (1 + pi))^2 / (2 k pi)
      while a < k pi / (1 + pi); past its vertex a tail is inactive and
      adds 0. The points are each term's root, and the smaller root of
      their sum where both tails are active there.
    - As a count of failures, m = k - u with mean k (1 - p_w), or m = n -
      a = k - 2a with mean n (1 - pi), each exponent is at least Poisson's,
      mu h(m / mu), h(t) = t log t - t + 1 (_poisson_reach). Where p_w or
      pi nears 1 the quadratics fall short by a factor 1 / (1 - p), and
      the window would reach where its pmf runs overflow. F's mean is
      bounded with n <= k - a0, a0 the largest of the other points, which
      holds wherever F's own point lies past a0, the only place it counts.
    """
    lam = k * p_w
    m = lam + nats / 3.0 + (nats * (nats / 9.0 + 2.0 * lam * (1.0 - p_w))) ** 0.5
    top = min(float(max(math.ceil(m), math.ceil(max(w_star, lam)))), k + 1.0) - 1.0
    cap = min(float(math.floor(w_star)), top)
    # each bound is (a - v)^2 / s below its vertex v, and 0 past it
    v1, s1 = lam + 1.0, 2.0 * lam
    v2, s2 = k * pi / (1.0 + pi), 2.0 * k * pi / (1.0 + pi) ** 2
    root = max(
        0.0,
        v1 - math.sqrt(nats * s1),
        v2 - math.sqrt(nats * s2),
        k + 1.0 - _poisson_reach(k * (1.0 - p_w), nats),
    )
    gap = nats - (v1 - v2) ** 2 / (s1 + s2)  # nats less the sum's least value
    if gap > 0.0:
        both = (v1 * s2 + v2 * s1) / (s1 + s2) - math.sqrt(gap * s1 * s2 / (s1 + s2))
        if both <= min(v1, v2):  # both tails are active at the sum's root
            root = max(root, both)
    if root < k:
        root = max(root, (k - _poisson_reach((k - root) * (1.0 - pi), nats)) / 2.0)
    return min(float(math.floor(root)), cap), top


def _poisson_reach(mu: float, nats: float) -> float:
    """An m >= mu, near the least, with mu h(m / mu) >= nats, h(t) = t log t - t + 1.

    With u = t - 1 and y = nats / mu, h(t) >= u^2 / (2 (1 + u / 3))
    (Bennett's h above Bernstein's) gives u = y / 3 + sqrt(y^2 / 9 + 2 y),
    and h(t) >= t (log t - 1) gives t = y / W(y / e), W Lambert's, taken at
    its lower bound log x - log log x for x >= e (W = log x - log W, and W
    <= log x there). The smaller t is kept.
    """
    y = nats / mu
    t = 1.0 + y / 3.0 + math.sqrt(y * (y / 9.0 + 2.0))
    if y >= math.e**2:
        x = math.log(y) - 1.0  # log(y / e)
        t = min(t, y / (x - math.log(x)))
    return mu * t


def message_error_prob(delta: float, b: int) -> float:
    """Probability 1 - (1 - delta)^b that any of b bits decodes wrongly."""
    _check_real(delta, "delta", 0.0, 1.0)
    return _message_error(delta, _check_count(b, "b", 1))


def _message_error(delta: float, b: int) -> float:
    """message_error_prob's formula, for inputs already checked."""
    if delta == 1.0:
        return 1.0
    return -math.expm1(b * math.log1p(-delta))


def check_target_error(target_e: float, name: str = "target_e") -> float:
    """target_e itself if it lies in [MIN_TARGET_ERROR, 1).

    Raises:
        ParameterError: target_e outside (0, 1), or below MIN_TARGET_ERROR.
    """
    _check_real(target_e, name, 0.0, 1.0, open_lo=True, open_hi=True)
    if target_e < MIN_TARGET_ERROR:
        raise ParameterError(
            f"{name} = {target_e!r} is below MIN_TARGET_ERROR = {MIN_TARGET_ERROR:g}, "
            "the smallest message-error target the repetition search resolves"
        )
    return target_e


def _estimate_repetitions(target_e: float, b: int, cp: ClickProbabilities) -> int:
    """Normal-approximation guess for the needed k; only seeds the search.

    One repetition moves the vote tally by +1 with probability p_correct,
    -1 with p_wrong, 0 otherwise, so the tally is approximately normal
    with mean k * (p_correct - p_wrong) and variance k * (p - mean^2/k^2).
    """
    delta_bit = -math.expm1(math.log1p(-target_e) / b)
    # Wichura's AS241 quantile (Applied Statistics 37(3), 1988)
    z = -NormalDist().inv_cdf(min(max(delta_bit, 1e-300), 0.5))
    p = cp.p_correct + cp.p_wrong
    m1 = cp.p_correct - cp.p_wrong
    var = p - m1 * m1
    if z <= 0.0 or m1 <= 0.0:
        return 1
    return max(1, int(z * z * var / (m1 * m1)) + 1)


def min_repetitions(target_e: float, b: int, cp: ClickProbabilities) -> int:
    """Smallest repetition count k meeting the message-error target.

    Majority voting converges only when the signal bin clicks more often
    than the noise bin (p_correct > p_wrong); otherwise the target is
    unreachable and InfeasibleError is raised, as it is when the
    normal-approximation guess exceeds 4 * MAX_REPETITIONS or k =
    MAX_REPETITIONS itself fails, or when p_correct + p_wrong exceeds 1,
    where the single-click-per-slot model does not apply. A target below
    MIN_TARGET_ERROR raises ParameterError (check_target_error).

    One bracketed loop on f(k) = log(message error / target), memoized
    per k, finds k, k - 1 failing (f > 0) and k passing. It starts from
    the normal-approximation guess, with k = 0 (no votes, which cannot
    decode) as the failing end, so k = 1 is probed only where the
    bracket closes on it. Each probe moves one end of the bracket, and
    the next lands by a Newton step on g(k) = log(delta / delta_t), delta
    the bit error and delta_t the one meeting the target exactly, which
    stays nearly linear in k where the message error saturates at 1. Its
    slope is the Chernoff exponent's, log delta ~ -k I - log(k) / 2 with
    I = -log z, z = 1 - p_correct - p_wrong + 2 sqrt(p_correct p_wrong)
    (no log(k) / 2 where p_wrong = 0), or the secant of the last two
    probes where that is flatter than the exponent's at both: a bit error
    near 1/2 has not reached the exponent. The next k is rounded and kept
    strictly inside the bracket.
    A passing error clamped at MIN_TARGET_ERROR reads f = 0 and gives no
    slope; the loop bisects there. Because an even k can decode slightly
    worse than k - 1 (ties lose), the passing end is then walked down
    two at a time while k - 2 passes. So the smallest passing k is
    returned as long as odd and even k each decode better as k grows.

    Each probe's message error comes from _bit_errors, the evaluator
    bit_error_prob is a batch of one on, and its verdict is that value
    against the target: the k returned passes by the very value
    bit_error_prob gives at k.

    The search is _repetition_search, which the planner runs in lockstep
    with the other grid points' searches; here it runs alone, as a batch
    of one. The target and b are checked once, here, before it starts;
    no probe checks them again.

    Returns:
        The repetition count k, a plain int.
    """
    check_target_error(target_e)
    return _lockstep([_repetition_search(target_e, _check_count(b, "b", 1), cp)])[0]


def _repetition_search(target_e: float, b: int, cp: ClickProbabilities):
    """min_repetitions' search, as a generator for _lockstep, on a checked
    target and b.

    It yields (_bit_errors, (k, cp)) for each k it probes, memoized per
    k, is sent that probe's bit error, and returns the repetition count.
    """
    if cp.p_correct + cp.p_wrong > 1.0:
        raise InfeasibleError(
            "p_correct + p_wrong exceeds 1; the single-click-per-slot model "
            "does not apply"
        )
    if cp.p_correct <= cp.p_wrong:
        raise InfeasibleError(
            "majority vote cannot converge: correct clicks are not more "
            "likely than wrong ones"
        )
    log_target = math.log(target_e)
    # the bit error at which b bits err with probability target_e exactly
    log_bit_target = math.log(-math.expm1(math.log1p(-target_e) / b))
    memo: dict[int, tuple[float, float]] = {}

    def log_excess(k: int):
        """f(k) = log(message error / target), > 0 failing and <= 0 passing,
        and g(k) = log(bit error / the bit error meeting the target exactly)."""
        if k not in memo:
            delta = yield _bit_errors, (k, cp)
            memo[k] = (
                math.log(max(_message_error(delta, b), MIN_TARGET_ERROR)) - log_target,
                math.log(max(delta, MIN_TARGET_ERROR / b)) - log_bit_target,
            )
        return memo[k]

    guess = _estimate_repetitions(target_e, b, cp)
    if guess >= 4 * MAX_REPETITIONS:
        # the normal approximation is reliable to a few percent at this
        # scale, so a 4x margin over the cap cannot misclassify
        raise InfeasibleError(
            f"estimated repetitions {guess:.1e} exceed the cap {MAX_REPETITIONS:.1e}"
        )
    rate = -math.log(max(_chernoff_base(cp.p_correct, cp.p_wrong)[1], 1e-300))
    # the bracket: f(lo) > 0 >= f(hi), where lo = 0 stands for no failing
    # k probed yet (no repetitions cannot decode) and hi = MAX_REPETITIONS
    # + 1 for no passing k probed yet
    lo, hi = 0, MAX_REPETITIONS + 1
    k = min(guess, hi - 1)
    prev = None
    while True:
        f_k, g_k = yield from log_excess(k)
        if f_k <= 0.0:
            hi = k
        elif k >= MAX_REPETITIONS:
            raise InfeasibleError(
                f"no repetition count up to {MAX_REPETITIONS:.1e} meets the "
                f"message-error target {target_e}"
            )
        else:
            lo = k
        if hi - lo <= 1:
            break
        if f_k == 0.0:
            # a passing error clamped at MIN_TARGET_ERROR reads f = 0
            # exactly and gives no slope to step on: bisect
            est = 0.5 * (lo + hi)
        else:
            # -dg/dk along the Chernoff exponent, or the secant through the
            # last two steps' probes where it is flatter than that at both
            model = rate + (0.5 / k if cp.p_wrong > 0.0 else 0.0)
            slope = model
            if prev is not None:
                k0, g0, model0 = prev
                secant = (g0 - g_k) / (k - k0)
                if 0.0 < secant < min(model0, model):
                    slope = secant
            prev = (k, g_k, model)
            est = k + g_k / slope if slope > 0.0 else hi
        k = min(max(int(round(est)), lo + 1), hi - 1)
    k = hi
    while k > 2 and (yield from log_excess(k - 2))[0] <= 0.0:
        k -= 2
    return k


def _lockstep(searches: list) -> list:
    """Run generator searches side by side; return what each returns, in order.

    A search yields (evaluate, item) for each value it needs and is sent
    the value back. Each round gathers the pending request of every
    search and makes one evaluate([item, ...]) call per evaluate
    function, so many searches share each batched pass. A search sees
    the same values in the same order as when run alone, so no result
    depends on what else runs beside it. An exception raised inside a
    search propagates.
    """
    results = [None] * len(searches)
    pending = [(i, search, None) for i, search in enumerate(searches)]
    while pending:
        requests: dict = {}
        for i, search, value in pending:
            try:
                evaluate, item = search.send(value)
            except StopIteration as done:
                results[i] = done.value
            else:
                requests.setdefault(evaluate, []).append((i, search, item))
        pending = []
        for evaluate, group in requests.items():
            values = evaluate([item for _, _, item in group])
            pending += [(i, search, value) for (i, search, _), value in zip(group, values)]
    return results
