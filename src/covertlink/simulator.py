"""Monte-Carlo simulation of the covert link and of the adversary.

The receiver-side simulation works position by position (O(d') for d'
sent signals) and never touches the ~1e12 idle bins. Its uniforms are
drawn a block of positions at a time and turned into click codes in
place, so the one-byte outcome per position is the only d'-long array
it makes; block draws give the values of one whole draw. Its statistics
come from two tallies, each made once: the per-bit votes that
codec.majority_decode counts and decides, and one (sent bit x outcome)
count table over all positions, summed block by block. Idle bins only
matter to the adversary, whose view is simulated through exact
aggregate binomial draws and numpy's multinomial (conditional
binomials, exact for the ~1e11 pairs of a full-scale trial), one
whole-array draw per family.
All outputs are pure functions of (inputs, seed): each transmission,
monitoring trace and distinguisher run takes one generator from its
own spawn-key domain of the seed, through codec._rng.

The adversary taps the channel at the sender's output with unit
efficiency (noise mean n_bar_a, no detector penalty), which is strictly
pessimistic for the legitimate parties. Its detector is the per-pair
likelihood-ratio test, the Neyman-Pearson optimum between the idle and
the sending click-count laws, so one test decides the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import (
    OUTCOME_BOTH,
    OUTCOME_ONE,
    OUTCOME_ZERO,
    BitTally,
    PositionPlan,
    _block_slices,
    _checked_outcomes,
    _require_whole_characters,
    _rng,
    majority_decode,
)
from .exceptions import ParameterError, _check_count, _check_real
from .planner import ProtocolParams
from .reliability import ChannelModel, click_probs
from .security import BINS_PER_PAIR

# spawn-key domains keeping the three simulation families independent
_DOMAIN_TRANSMIT = 0
_DOMAIN_MONITOR = 1
_DOMAIN_DISTINGUISH = 2

# Monte-Carlo standard errors the empirical bias may exceed the bound by
# before DistinguisherResult.security_check fails
SECURITY_CHECK_SIGMAS = 3.0

# bounds the per-interval arrays of one monitoring trace; the bundled
# default asks for 20 intervals
MAX_MONITOR_INTERVALS = 10**5

# the distinguisher's trials, drawn as whole arrays: 10^6 take under a
# second and about 65 MB of arrays
MIN_TRIALS = 100
MAX_TRIALS = 10**6

# an interval's BINS_PER_PAIR * pairs time bins are a binomial draw's
# int64 trial count
MAX_MONITOR_PAIRS = (2**63 - 1) // BINS_PER_PAIR


@dataclass(frozen=True)
class TransmissionStats:
    """Aggregate receiver statistics, all recomputable from the outcomes.

    vote_error_rate is the fraction of single-bin clicks landing in the
    wrong bin; clicks_per_bit averages votes over the message bits.
    """

    signal_bin_click_rate: float
    noise_bin_click_rate: float
    vote_rate_per_pulse: float
    vote_error_rate: float
    total_votes: int
    wrong_votes: int
    clicks_per_bit: float
    message_bit_error_rate: float


@dataclass(frozen=True, eq=False)
class Transcript:
    """Full record of one simulated transmission."""

    protocol: ProtocolParams
    plan: PositionPlan
    outcomes: np.ndarray
    decoded: str
    tallies: tuple[BitTally, ...]
    stats: TransmissionStats


@dataclass(frozen=True, eq=False)
class MonitorTrace:
    """Per-interval click counts as seen by the monitoring adversary."""

    interval_s: float
    counts: np.ndarray
    communicating: bool
    pairs_per_interval: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        counts.setflags(write=False)
        if np.any(counts < 0):
            raise ParameterError("counts must be non-negative")


@dataclass(frozen=True)
class DistinguisherResult:
    """Empirical performance of the adversary's likelihood-ratio test.

    bound_epsilon is the detection-bias bound claimed by the plan under
    test; the security assertion is empirical_bias <= bound_epsilon up
    to Monte-Carlo error, std_error being the standard error of
    empirical_pe.
    """

    empirical_pe: float
    empirical_bias: float
    std_error: float
    trials: int
    bound_epsilon: float

    def security_check(self, n_sigma: float = SECURITY_CHECK_SIGMAS) -> bool:
        return self.empirical_bias <= self.bound_epsilon + n_sigma * self.std_error


def adversary_click_probs(p: ProtocolParams) -> tuple[float, float]:
    """Per-bin click probabilities (idle, signal-bearing) at the tap point."""
    n_bar = p.channel.n_bar_a
    # the receiver's click model for a tap with unit efficiency at the sender
    cp = click_probs(p.mu, ChannelModel(tau=1.0, n_bar_a=n_bar, n_bar_b=n_bar))
    return cp.p_wrong, cp.p_correct


def simulate_transmission(
    p: ProtocolParams, plan: PositionPlan, rng_seed: int
) -> Transcript:
    """Simulate the receiver's clicks at every planned position and decode.

    Each sent signal independently produces a click in its own bin with
    probability p_correct and in the paired bin with probability p_wrong;
    simultaneous clicks are recorded and later discarded by the decoder.
    Work is O(d'), independent of the pair count.

    Raises:
        ParameterError: the plan is not the protocol's, or its b is not a
            multiple of BITS_PER_CHAR; both are checked before any draw.
    """
    if plan.n_pairs != p.n_pairs or plan.b != p.b:
        raise ParameterError("plan does not match the protocol parameters")
    _require_whole_characters(plan.b)
    cp = click_probs(p.mu, p.channel)
    rng = _rng(rng_seed, _DOMAIN_TRANSMIT)
    sent = plan.bit_value
    outcomes = np.empty(plan.d_prime, dtype=np.uint8)
    # bit j of an outcome code is a click in the bin that encodes j: the
    # signal clicks in the bin of the sent bit, the noise in the other one.
    # The d' signal uniforms come first in the stream, then the d' noise
    # ones; drawn a block at a time they are the values of one call.
    for rows in _block_slices(plan.d_prime):
        click = rng.random(rows.stop - rows.start) < cp.p_correct
        outcomes[rows] = click.view(np.uint8) << sent[rows]
    for rows in _block_slices(plan.d_prime):
        click = rng.random(rows.stop - rows.start) < cp.p_wrong
        outcomes[rows] |= click.view(np.uint8) << (1 - sent[rows])
    decoded, tallies = majority_decode(plan, outcomes)
    return Transcript(
        protocol=p,
        plan=plan,
        outcomes=outcomes,
        decoded=decoded,
        tallies=tallies,
        stats=compute_stats(plan, outcomes, tallies),
    )


def compute_stats(
    plan: PositionPlan, outcomes: np.ndarray, tallies: tuple[BitTally, ...]
) -> TransmissionStats:
    """Summarise a transmission from its outcomes and their per-bit tallies.

    One (sent bit x outcome) count table over all positions gives the
    click and vote figures; the per-bit figures sum the tallies that
    majority_decode made of the same outcomes.
    """
    if len(tallies) != plan.b:
        raise ParameterError("tallies must hold one entry per message bit")
    outcomes = _checked_outcomes(plan, outcomes)
    # row = sent bit, column = outcome code, counted a block at a time
    table = np.zeros(8, dtype=np.int64)
    for rows in _block_slices(plan.d_prime):
        table += np.bincount(4 * plan.bit_value[rows] + outcomes[rows], minlength=8)
    table = table.reshape(2, 4)
    both = int(table[:, OUTCOME_BOTH].sum())
    right_votes = int(table[0, OUTCOME_ZERO] + table[1, OUTCOME_ONE])
    wrong_votes = int(table[0, OUTCOME_ONE] + table[1, OUTCOME_ZERO])
    total_votes = right_votes + wrong_votes
    return TransmissionStats(
        signal_bin_click_rate=(right_votes + both) / plan.d_prime,
        noise_bin_click_rate=(wrong_votes + both) / plan.d_prime,
        vote_rate_per_pulse=total_votes / plan.d_prime,
        vote_error_rate=(wrong_votes / total_votes) if total_votes else math.nan,
        total_votes=total_votes,
        wrong_votes=wrong_votes,
        clicks_per_bit=sum(t.zero_votes + t.one_votes for t in tallies) / plan.b,
        message_bit_error_rate=sum(not t.correct for t in tallies) / plan.b,
    )


def predicted_vote_error_rate(p: ProtocolParams) -> float:
    """Model value the empirical vote_error_rate estimates.

    The two bins click independently and a pair where both click casts
    no vote, so a vote is right with p_C (1 - p_W) and wrong with
    p_W (1 - p_C).
    """
    cp = click_probs(p.mu, p.channel)
    right = cp.p_correct * (1.0 - cp.p_wrong)
    wrong = cp.p_wrong * (1.0 - cp.p_correct)
    return wrong / (right + wrong)


def monitor_interval_count(duration_s: float, interval_s: float) -> int:
    """Number of whole monitoring intervals of interval_s in duration_s.

    Raises:
        ParameterError: interval_s not finite and > 0, or fewer than 10 or
            more than MAX_MONITOR_INTERVALS intervals.
    """
    _check_real(interval_s, "interval_s", 0.0, open_lo=True)
    ratio = duration_s / interval_s
    # int(ratio) > MAX exactly when ratio >= MAX + 1; the float comparison
    # also rejects an infinite ratio
    if not ratio < MAX_MONITOR_INTERVALS + 1:
        raise ParameterError(
            f"monitoring {duration_s:.6g} s in intervals of {interval_s:.6g} s asks "
            f"for {ratio:.3g} intervals; at most {MAX_MONITOR_INTERVALS} are allowed"
        )
    n_intervals = int(ratio)
    if n_intervals < 10:
        raise ParameterError("duration must cover at least 10 intervals")
    return n_intervals


def monitor_pairs_per_interval(rep_rate_hz: float, interval_s: float) -> int:
    """Number of time-bin pairs in one monitoring interval, rounded.

    Raises:
        ParameterError: fewer than one pair, or more than
            MAX_MONITOR_PAIRS, whose time bins overflow the int64 draws.
    """
    pairs = rep_rate_hz * interval_s / BINS_PER_PAIR
    # round(pairs) > MAX exactly when pairs >= MAX + 1 (an exact float to
    # int comparison); it also rejects an infinite product
    if not pairs < MAX_MONITOR_PAIRS + 1:
        raise ParameterError(
            f"a monitoring interval of {interval_s:.6g} s at {rep_rate_hz:.6g} Hz holds "
            f"{pairs:.3g} time-bin pairs; at most {MAX_MONITOR_PAIRS} are allowed"
        )
    pairs = int(round(pairs))
    if pairs < 1:
        raise ParameterError("interval too short for even one time-bin pair")
    return pairs


def simulate_monitoring(
    p: ProtocolParams,
    communicating: bool,
    duration_s: float,
    interval_s: float,
    rng_seed: int,
) -> MonitorTrace:
    """Adversary's click counts per aggregation interval.

    Every interval is sampled from the aggregate statistics of its
    ~rep_rate * interval_s bins with exact binomial draws (never per-bin
    loops): the number of signal-bearing pairs is Binomial(pairs, q) and
    clicks follow with the idle/signal per-bin probabilities. With
    communicating=False (or q = 0) the signal count is forced to zero
    through the same code path, so equal seeds give equal traces.

    Raises:
        ParameterError: an interval count refused by monitor_interval_count
            or a pair count refused by monitor_pairs_per_interval (both
            checked before anything is allocated or drawn).
    """
    n_intervals = monitor_interval_count(duration_s, interval_s)
    pairs = monitor_pairs_per_interval(p.rep_rate_hz, interval_s)
    p_idle, p_signal = adversary_click_probs(p)
    q_eff = p.q if communicating else 0.0
    rng = _rng(rng_seed, _DOMAIN_MONITOR)
    m = rng.binomial(pairs, q_eff, size=n_intervals)
    counts = rng.binomial(m, p_signal) + rng.binomial(BINS_PER_PAIR * pairs - m, p_idle)
    return MonitorTrace(
        interval_s=interval_s,
        counts=counts,
        communicating=communicating,
        pairs_per_interval=pairs,
    )


def _pair_click_distribution(p_a: float, p_b: float) -> np.ndarray:
    """Distribution of the click count (0, 1 or 2) of one time-bin pair."""
    none = (1.0 - p_a) * (1.0 - p_b)
    one = p_a * (1.0 - p_b) + p_b * (1.0 - p_a)
    return np.array([none, one, max(0.0, 1.0 - none - one)])


def run_distinguisher(p: ProtocolParams, trials: int, rng_seed: int) -> DistinguisherResult:
    """Estimate the balanced error of the adversary's best detector.

    Each trial draws one whole protocol record (all n_pairs pairs) under
    an alternating hypothesis, reduced without loss to the per-pair
    click-count tallies (n1 pairs with one click, n2 with two). The
    detector is the exact per-pair likelihood-ratio test for this product
    model at threshold 0, scored on all trials. By Neyman-Pearson no test
    of the two multinomials has a smaller balanced error, so its error
    is the adversary's best. trials must be an integer in [MIN_TRIALS,
    MAX_TRIALS]; ParameterError says so before any draw.
    """
    trials = _check_count(trials, "trials", MIN_TRIALS, MAX_TRIALS)
    p_idle, p_signal = adversary_click_probs(p)
    noise_dist = _pair_click_distribution(p_idle, p_idle)
    signal_dist = _pair_click_distribution(p_signal, p_idle)
    n_pairs, q = p.n_pairs, p.q

    # per-pair log likelihood ratios by click count, kept accurate for
    # q ~ 1e-8 via log1p of the relative excess
    ratio_excess = (signal_dist - noise_dist) / noise_dist
    llr_weight = np.log1p(q * ratio_excess)

    labels = np.arange(trials) % 2 == 1
    rng = _rng(rng_seed, _DOMAIN_DISTINGUISH)
    m = np.zeros(trials, dtype=np.int64)
    m[labels] = rng.binomial(n_pairs, q, size=int(labels.sum()))
    # one row of (zero, one, two)-click pair counts per trial
    t0, t1, t2 = (
        rng.multinomial(m, signal_dist) + rng.multinomial(n_pairs - m, noise_dist)
    ).T
    # written out rather than as a matmul, so the bytes do not depend on
    # the BLAS build
    present = t0 * llr_weight[0] + t1 * llr_weight[1] + t2 * llr_weight[2] > 0.0
    # the balanced error: the false-alarm rate over the trials - trials // 2
    # idle trials and the missed-detection rate over the others, averaged
    fa = float(np.mean(present[~labels]))
    md = float(np.mean(~present[labels]))
    var = fa * (1.0 - fa) / (trials - trials // 2) + md * (1.0 - md) / (trials // 2)
    empirical_pe = 0.5 * (fa + md)
    return DistinguisherResult(
        empirical_pe=empirical_pe,
        empirical_bias=0.5 - empirical_pe,
        std_error=0.5 * math.sqrt(var),
        trials=trials,
        bound_epsilon=p.predicted_epsilon,
    )


def rescale_plan(p: ProtocolParams, factor: float) -> ProtocolParams:
    """Shrink a plan by ~factor while preserving q and mu.

    The repetition count is divided by factor (floored at 1), d follows
    as k * b, and the pair count follows from the preserved q up to
    integer rounding. ProtocolParams.rederive recomputes both predictions
    at the new scale, so bound comparisons against desk-scale
    simulations stay apples-to-apples.

    A factor below 1 grows the plan; past the planner's limits, which
    ProtocolParams keeps, it is refused with the factor named.
    """
    _check_real(factor, "factor", 0.0, open_lo=True)
    if p.d == 0:
        raise ParameterError("cannot rescale a plan with no signals")
    k_new = max(1, round(p.k / factor))
    d_new = k_new * p.b
    try:
        return p.rederive(k=k_new, n_pairs=max(d_new, round(d_new / p.q)))
    except ParameterError as exc:
        raise ParameterError(f"rescale factor {factor:g} gives {exc}") from exc
