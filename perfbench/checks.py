"""Output checks for the benchmark, computed apart from the library.

Nothing here calls `covertlink.fock_stats`, `covertlink.security` or
`covertlink.reliability`. The three model quantities the checks need are
recomputed from their definitions:

- the per-mode divergence D(rho || (1-q) rho + q rho_s), summed term by
  term in mpmath with an explicit truncation bound;
- the majority-vote error of a k-repetition code, enumerated over the
  multinomial (correct, wrong, silent) counts in log space;
- the closed-form click probabilities of the receiver and of an idle
  bin at the tap.

Every check raises CheckFailed with a reason; a passing check returns
nothing. The self-test (selftest.py) feeds each check a tampered input
to show it is not vacuous.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy.special import gammaln

ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ@ .!?-"
BITS_PER_CHAR = 5
BINS_PER_PAIR = 2

# transcript outcome codes, as documented in the transcript CSV
NONE, ZERO, ONE, BOTH = 0, 1, 2, 3

# extended precision for the divergence series; D ~ 1e-15 sits under
# first-order terms ~ 1e-7, so 40 digits leave ~30 significant digits
DIVERGENCE_DPS = 40

# The plan's pair count N is the smallest integer whose double-precision
# bound meets the budget, so the exact bound at N sits within one step of
# N (~1/(2N) relative) of the budget, on either side once rounding enters.
# The library's double-precision divergence was measured 1e-9 (default
# plans, q ~ 1e-7) to 1e-7 (long-message plan, q ~ 1.6e-9) below the exact
# value, so "meets the budget" allows this relative slack on the bound.
# N lowered by 1e-6 moves the exact bound by 5e-7 and must still fail.
BOUND_SLACK = 2e-7

# Monte-Carlo agreement, in standard errors. The benchmark is run tens
# of times per comparison on several hypotheses each, so 3-sigma checks
# would reject a correct program in a few percent of evaluations.
MC_SIGMAS = 5.0


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# ----------------------------------------------------------------------
# independent model computations


def click_probabilities(mu: float, tau: float, n_bar_b: float) -> tuple[float, float]:
    """Receiver click probabilities (p_C, p_W) for one pulse, in closed form.

    The signal bin stays dark only if neither the attenuated pulse nor
    the attenuated thermal background delivers a photon; the noise bin
    sees background alone.
    """
    with mp.workdps(30):
        a = mp.mpf(tau) * mp.mpf(mu)
        c = mp.mpf(tau) * mp.mpf(n_bar_b)
        p_c = 1 - mp.exp(-a) / (1 + c)
        p_w = c / (1 + c)
        return float(p_c), float(p_w)


def tap_idle_click_probability(n_bar_a: float) -> float:
    """Click probability of an idle bin at the tap: a thermal mode holds a photon."""
    with mp.workdps(30):
        n = mp.mpf(n_bar_a)
        return float(n / (1 + n))


def divergence(mu: float, n_bar: float, q: float) -> tuple[mp.mpf, mp.mpf]:
    """D(rho || (1 - q) rho + q rho_s) in nats, with a bound on the truncated tail.

    rho is thermal(n_bar); rho_s is Poisson(mu) convolved with thermal(n_bar).
    Every term satisfies -q rho_s(n) <= rho(n) log(rho(n)/sigma(n)) <= -rho(n) log(1-q),
    so the dropped tail is bounded by q * (tail of rho_s) + |log(1-q)| * (tail of rho).
    The series is extended until that bound is below 1e-12 of the sum.
    """
    with mp.workdps(DIVERGENCE_DPS):
        nb = mp.mpf(n_bar)
        m = mp.mpf(mu)
        qq = mp.mpf(q)
        r = nb / (1 + nb)
        n_terms = 64
        while True:
            rho = [r**n / (1 + nb) for n in range(n_terms)]
            pois = [mp.exp(-m) * m**n / mp.factorial(n) for n in range(n_terms)]
            rho_s = [mp.fsum(pois[j] * rho[n - j] for j in range(n + 1)) for n in range(n_terms)]
            total = mp.fsum(
                rho[n] * mp.log(rho[n] / ((1 - qq) * rho[n] + qq * rho_s[n]))
                for n in range(n_terms)
            )
            tail = qq * (1 - mp.fsum(rho_s)) - mp.log(1 - qq) * r**n_terms
            if total > 0 and tail <= total * mp.mpf("1e-12"):
                return total, tail
            n_terms *= 2
            if n_terms > 4096:
                raise CheckFailed(f"divergence series did not converge at mu={mu}, n_bar={n_bar}")


def bias_bound(n_pairs: int, d: int, mu: float, n_bar_a: float) -> float:
    """sqrt(N * D(d/N) / 8); the truncated tail is below 1e-12 of D."""
    value, _ = divergence(mu, n_bar_a, mp.mpf(d) / n_pairs)
    with mp.workdps(DIVERGENCE_DPS):
        return float(mp.sqrt(n_pairs * value / 8))


def majority_error(k: int, p_c: float, p_w: float) -> float:
    """Per-bit error of a k-fold majority vote, by multinomial enumeration.

    Each repetition yields a correct click (p_c), a wrong click (p_w) or
    nothing. The bit is lost when correct clicks do not outnumber wrong
    ones (ties and silence included). Terms are formed in log space; the
    enumeration covers wrong-click counts up to 40 standard deviations
    plus 60 above the mean, beyond which the mass is below 1e-100.
    """
    if not 0.0 < p_c + p_w < 1.0:
        raise CheckFailed(f"click probabilities out of range: {p_c}, {p_w}")
    w_hi = min(k, int(k * p_w + 40.0 * math.sqrt(k * p_w + 1.0) + 60))
    w = np.arange(w_hi + 1, dtype=float)[None, :]
    c = np.arange(w_hi + 1, dtype=float)[:, None]
    silent = k - c - w
    region = (c <= w) & (silent >= 0)
    silent = np.where(region, silent, 0.0)
    log_terms = (
        gammaln(k + 1.0)
        - gammaln(c + 1.0)
        - gammaln(w + 1.0)
        - gammaln(silent + 1.0)
        + c * math.log(p_c)
        + w * math.log(p_w)
        + silent * math.log1p(-(p_c + p_w))
    )
    terms = np.exp(log_terms[region])
    return math.fsum(terms.tolist())


def message_error(k: int, b: int, p_c: float, p_w: float) -> float:
    """Probability that at least one of b independently voted bits is lost."""
    delta = majority_error(k, p_c, p_w)
    if delta >= 1.0:
        return 1.0
    return -math.expm1(b * math.log1p(-delta))


def decode(bits: np.ndarray) -> str:
    weights = 1 << np.arange(BITS_PER_CHAR - 1, -1, -1)
    codes = bits.reshape(-1, BITS_PER_CHAR).astype(np.int64) @ weights
    return "".join(ALPHABET[int(c)] for c in codes)


# ----------------------------------------------------------------------
# plans


def check_plan(p: dict, cfg: dict) -> None:
    """A plan document (as written to plan.json) against its config.

    p holds b, d, k, q, n_pairs, mu, running_time_s, rep_rate_hz and the
    channel; cfg is the generated config the plan was made from.
    """
    b = BITS_PER_CHAR * len(cfg["message"])
    ch = cfg["channel"]
    require(p["b"] == b, f"b={p['b']} but the message has {b} bits")
    require(p["d"] == p["k"] * p["b"], f"d={p['d']} != k*b={p['k'] * p['b']}")
    require(p["k"] >= 1 and p["n_pairs"] >= p["d"], "need k >= 1 and N >= d")
    require(
        math.isclose(p["q"], p["d"] / p["n_pairs"], rel_tol=1e-12),
        f"q={p['q']!r} != d/N={p['d'] / p['n_pairs']!r}",
    )
    require(
        math.isclose(p["running_time_s"], BINS_PER_PAIR * p["n_pairs"] / cfg["rep_rate_hz"], rel_tol=1e-12),
        "running_time_s != 2N/rate",
    )
    require(
        p["channel"] == ch and p["rep_rate_hz"] == cfg["rep_rate_hz"],
        "plan channel or rate differs from the config",
    )

    target = cfg["target_error"]
    p_c, p_w = click_probabilities(p["mu"], ch["tau"], ch["n_bar_b"])
    e_k = message_error(p["k"], b, p_c, p_w)
    require(e_k <= target, f"message error {e_k!r} at k={p['k']} exceeds target {target!r}")
    if p["k"] > 1:
        e_less = message_error(p["k"] - 1, b, p_c, p_w)
        require(e_less > target, f"k-1={p['k'] - 1} already meets the target: k is not minimal")

    eps = cfg["epsilon"]
    at_n = bias_bound(p["n_pairs"], p["d"], p["mu"], ch["n_bar_a"])
    require(at_n <= eps * (1.0 + BOUND_SLACK), f"bound {at_n!r} at N exceeds budget {eps!r}")
    n_short = int(p["n_pairs"] * (1.0 - 1e-6))
    if n_short >= p["d"]:
        below = bias_bound(n_short, p["d"], p["mu"], ch["n_bar_a"])
        require(below > eps, f"bound {below!r} at N(1-1e-6) still meets {eps!r}: N is not minimal")


def check_plan_document(path: Path, cfg: dict) -> dict:
    doc = json.loads(Path(path).read_text("utf-8"))
    require(doc.get("kind") == "protocol_params", f"{path} is not a plan document")
    check_plan(doc["params"], cfg)
    return doc["params"]


def check_rescaled(desk, full, factor: float) -> None:
    """rescale_plan keeps q and mu and recomputes the bound at the new size."""
    require(desk.mu == full.mu and desk.b == full.b, "rescale changed mu or b")
    require(desk.k == max(1, round(full.k / factor)), "rescaled k is not round(k/factor)")
    require(desk.d == desk.k * desk.b, "rescaled d != k*b")
    require(abs(desk.q - full.q) <= 1e-3 * full.q, "rescale moved q by more than rounding")
    bound = bias_bound(desk.n_pairs, desk.d, desk.mu, desk.channel.n_bar_a)
    require(
        math.isclose(desk.predicted_epsilon, bound, rel_tol=1e-8),
        f"desk bound {desk.predicted_epsilon!r} != recomputed {bound!r}",
    )


# ----------------------------------------------------------------------
# transmissions


def tallies_from_outcomes(bit_index, bit_value, outcomes, b: int):
    """Per-bit (zero votes, one votes) and the sent bits, via np.bincount."""
    msg = bit_index >= 0
    idx = bit_index[msg]
    out = outcomes[msg]
    zeros = np.bincount(idx, weights=(out == ZERO), minlength=b).astype(np.int64)
    ones = np.bincount(idx, weights=(out == ONE), minlength=b).astype(np.int64)
    sent = np.empty(b, dtype=np.uint8)
    sent[idx] = bit_value[msg]
    return zeros, ones, sent


def check_layout(plan, n_pairs: int, bits: np.ndarray) -> None:
    """Positions strictly increasing in [0, N); message bits laid out in blocks."""
    pos = np.asarray(plan.positions, dtype=np.uint64)
    d_prime = pos.size
    b = bits.size
    require(plan.n_pairs == n_pairs and plan.b == b, "layout size differs from the plan")
    require(d_prime >= b, "fewer positions than message bits")
    require(bool(np.all(pos[1:] > pos[:-1])), "positions are not strictly increasing")
    require(int(pos[-1]) < n_pairs, "a position lies outside [0, N)")
    k_prime = d_prime // b
    require(plan.k_prime == k_prime, "k' != d'//b")
    expect_index = np.full(d_prime, -1, dtype=np.int64)
    expect_index[: b * k_prime] = np.repeat(np.arange(b), k_prime)
    require(bool(np.array_equal(plan.bit_index, expect_index)), "bit assignment is not in blocks of k'")
    require(
        bool(np.array_equal(plan.bit_value[: b * k_prime], np.repeat(bits, k_prime))),
        "message positions do not carry the message bits",
    )
    require(bool(np.all(plan.bit_value <= 1)), "bit values must be 0 or 1")


def check_transcript(tr, bits: np.ndarray) -> tuple[int, int, int]:
    """Reported tallies, decode and stats against a bincount recount.

    Returns (votes, wrong votes, wrong bits) for pooled statistics.
    """
    plan = tr.plan
    b = plan.b
    outcomes = np.asarray(tr.outcomes)
    require(outcomes.shape == (plan.d_prime,), "one outcome per position is required")
    require(bool(np.all(outcomes <= BOTH)), "outcome codes must lie in 0..3")
    bit_value = np.asarray(plan.bit_value)
    bit_index = np.asarray(plan.bit_index, dtype=np.int64)
    zeros, ones, sent = tallies_from_outcomes(bit_index, bit_value, outcomes, b)
    require(bool(np.array_equal(sent, bits)), "recorded sent bits differ from the message")
    tie = zeros == ones
    decoded = np.where(tie, 0, ones > zeros).astype(np.uint8)
    correct = ~tie & (decoded == sent)

    require(len(tr.tallies) == b, "one tally per message bit is required")
    reported = np.array(
        [(t.bit_index, t.zero_votes, t.one_votes, t.decoded, t.tie, t.sent, t.correct) for t in tr.tallies],
        dtype=np.int64,
    )
    expected = np.stack(
        [np.arange(b), zeros, ones, decoded, tie, sent, correct], axis=1
    ).astype(np.int64)
    require(bool(np.array_equal(reported, expected)), "reported tallies differ from the bincount recount")
    require(tr.decoded == decode(decoded), "decoded text differs from the recounted majorities")

    sent_one = bit_value == 1
    is_zero, is_one, is_both = outcomes == ZERO, outcomes == ONE, outcomes == BOTH
    vote = is_zero | is_one
    wrong = np.where(sent_one, is_zero, is_one)
    s = tr.stats
    expect = {
        "signal_bin_click_rate": float(np.mean(np.where(sent_one, is_one, is_zero) | is_both)),
        "noise_bin_click_rate": float(np.mean(np.where(sent_one, is_zero, is_one) | is_both)),
        "vote_rate_per_pulse": float(np.mean(vote)),
        "clicks_per_bit": float(np.sum(zeros + ones)) / b,
        "message_bit_error_rate": float(np.sum(~correct)) / b,
    }
    for name, value in expect.items():
        require(math.isclose(getattr(s, name), value, rel_tol=1e-12, abs_tol=1e-15), f"stats.{name} differs")
    require(s.total_votes == int(np.sum(vote)), "stats.total_votes differs")
    require(s.wrong_votes == int(np.sum(wrong)), "stats.wrong_votes differs")
    return int(np.sum(vote)), int(np.sum(wrong)), int(np.sum(~correct))


def check_vote_error_rate(votes: int, wrong: int, mu: float, tau: float, n_bar_b: float) -> None:
    """Wrong share of single-bin votes within MC_SIGMAS of p_W / (p_C + p_W)."""
    require(votes > 0, "no votes at all")
    p_c, p_w = click_probabilities(mu, tau, n_bar_b)
    expect = p_w / (p_c + p_w)
    sigma = math.sqrt(expect * (1.0 - expect) / votes)
    z = (wrong / votes - expect) / sigma
    require(abs(z) <= MC_SIGMAS, f"vote error rate {wrong / votes:.5f} is {z:+.1f} sigma from {expect:.5f}")


def check_message(decoded: str, message: str, wrong_bits: int) -> None:
    """The message decodes: every bit whose recounted majority is right comes back.

    A plan meets its message-error target (about 1e-2) only on average, so
    a seed may lose a bit; the recount has already tied such a loss to the
    votes. More than three lost bits has probability below 1e-9.
    """
    if wrong_bits == 0:
        require(decoded == message, "all majorities are right but the text differs")
    require(wrong_bits <= 3, f"{wrong_bits} bits lost; the plan predicts about 1e-2 per message")


_PLAN_HEADER = struct.Struct("<4sHxxQIIQ")


def check_plan_file(path: Path, plan, read_back) -> None:
    """plan.cvpl holds the layout byte for byte and reads back equal."""
    raw = Path(path).read_bytes()
    magic, version, n_pairs, b, k_prime, d_prime = _PLAN_HEADER.unpack_from(raw)
    require(magic == b"CVPL" and version == 1, "plan.cvpl has a bad header")
    require((n_pairs, b, k_prime, d_prime) == (plan.n_pairs, plan.b, plan.k_prime, plan.d_prime), "plan.cvpl header differs")
    require(len(raw) == _PLAN_HEADER.size + 13 * d_prime, "plan.cvpl has the wrong length")
    off = _PLAN_HEADER.size
    for name, dtype, width in (("positions", "<u8", 8), ("bit_index", "<i4", 4), ("bit_value", "u1", 1)):
        column = np.frombuffer(raw, dtype=dtype, count=d_prime, offset=off)
        require(bool(np.array_equal(column, getattr(plan, name))), f"plan.cvpl {name} differ")
        require(bool(np.array_equal(getattr(read_back, name), getattr(plan, name))), f"read-back {name} differ")
        off += width * d_prime
    require(
        (read_back.n_pairs, read_back.b, read_back.k_prime) == (plan.n_pairs, plan.b, plan.k_prime),
        "read-back plan header differs",
    )


def parse_csv(path: Path, header: str) -> np.ndarray:
    """An all-integer CSV file as a 2-d int64 array, header checked."""
    text = Path(path).read_text("ascii")
    head, _, body = text.partition("\n")
    del text
    require(head == header, f"{Path(path).name} header is {head!r}")
    require(body.endswith("\n"), f"{Path(path).name} does not end in a newline")
    n_cols = header.count(",") + 1
    n_rows = body.count("\n")
    # fromstring parses in C and stops at the first malformed field, which
    # the size test below then reports
    values = np.fromstring(body.replace("\n", ","), dtype=np.int64, sep=",")
    require(values.size == n_rows * n_cols, f"{Path(path).name} has ragged or malformed rows")
    return values.reshape(n_rows, n_cols)


def check_transcript_csv(path: Path, tr) -> None:
    rows = parse_csv(path, "position,bit_index,bit_value,outcome")
    plan = tr.plan
    require(rows.shape[0] == plan.d_prime, f"transcript.csv has {rows.shape[0]} rows, expected {plan.d_prime}")
    expect = np.stack(
        [plan.positions.astype(np.int64), plan.bit_index, plan.bit_value, tr.outcomes], axis=1
    ).astype(np.int64)
    require(bool(np.array_equal(rows, expect)), "transcript.csv differs from the arrays")


def check_tally_csv(path: Path, tr) -> None:
    rows = parse_csv(path, "bit_index,zero_votes,one_votes,decoded,sent,tie,correct")
    expect = np.array(
        [(t.bit_index, t.zero_votes, t.one_votes, t.decoded, t.sent, t.tie, t.correct) for t in tr.tallies],
        dtype=np.int64,
    )
    require(bool(np.array_equal(rows, expect)), "tally.csv differs from the tallies")


# ----------------------------------------------------------------------
# the adversary


def check_monitor_off(trace, params) -> None:
    """Idle monitoring counts average 2 * pairs * p_idle within MC_SIGMAS."""
    p_idle = tap_idle_click_probability(params.channel.n_bar_a)
    bins = BINS_PER_PAIR * trace.pairs_per_interval
    counts = np.asarray(trace.counts, dtype=float)
    expect = bins * p_idle
    sigma = math.sqrt(bins * p_idle * (1.0 - p_idle) / counts.size)
    z = (float(np.mean(counts)) - expect) / sigma
    require(abs(z) <= MC_SIGMAS, f"idle monitor mean is {z:+.1f} sigma from {expect:.1f}")


def check_no_signal(result) -> None:
    """With nothing sent no detector beats a coin: error 1/2 within MC_SIGMAS."""
    z = (result.empirical_pe - 0.5) / max(result.std_error, 1e-12)
    require(abs(z) <= MC_SIGMAS, f"no-signal detection error {result.empirical_pe:.4f} is {z:+.1f} sigma from 1/2")
