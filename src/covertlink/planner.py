"""End-to-end protocol parameter optimization.

For each candidate pulse intensity mu, the planner derives the smallest
repetition count meeting the message-error target, the resulting signal
count d, and then the smallest pair count N meeting the covertness
budget. Each mu is evaluated on its own, as a pure function of the
request; nothing found at one mu is carried to the next. The smallest
N over the grid (equivalently the fewest time bins, and hence the
shortest running time at a fixed repetition rate) is the floor, and the
returned plan is the dimmest grid point within FLATNESS_TOLERANCE of it.
Grid points carry k and N; ProtocolParams.derive forms both claims, the
bias bound and the message error, once, at the chosen point.

The searches of _LOCKSTEP_GROUP (64) grid points at a time advance in
lockstep (reliability._lockstep). Each round makes one batched call per
kind of pending request: the bit errors of every pending repetition
probe (reliability._bit_errors), the divergence profiles of every pair
search that starts (fock_stats._profiles), and the divergences with
their slopes at every pending pair count (fock_stats._divergences).
Each search is sent exactly the values it would get alone, so the
batching changes no probe and no result. The group size and the term
budget of _special._passes bound the batches' memory.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import InfeasibleError, ParameterError, _check_count, _check_real, _shown
from .reliability import (
    MAX_REPETITIONS,
    ChannelModel,
    _lockstep,
    _repetition_search,
    bit_error_prob,
    check_target_error,
    click_probs,
    message_error_prob,
)
from .security import BINS_PER_PAIR, DEFAULT_PAIR_CEILING, _pair_search, bias_for_protocol

# fraction of extra pairs the planner accepts in exchange for a dimmer pulse
FLATNESS_TOLERANCE = 0.05

# grid points whose searches advance together; bounds the batches' memory
_LOCKSTEP_GROUP = 64


def default_mu_grid() -> np.ndarray:
    """Logarithmic mu search grid over [1e-4, 1] with 400 points."""
    return np.geomspace(1e-4, 1.0, 400)


@dataclass(frozen=True)
class PlanRequest:
    """Inputs to plan(): message size, targets, channel, and search grid.

    Attributes:
        b: number of message bits.
        epsilon: detection-bias budget, in (0, 0.5).
        target_e: whole-message decoding error target, in
            [reliability.MIN_TARGET_ERROR, 1), the floor being 1e-300.
        channel: ChannelModel with tau and both noise means.
        rep_rate_hz: time-bin rate of the transmitter.
        mu_grid: strictly positive candidate pulse intensities.
    """

    b: int
    epsilon: float
    target_e: float
    channel: ChannelModel
    rep_rate_hz: float
    mu_grid: np.ndarray = field(default_factory=default_mu_grid)

    def __post_init__(self):
        # checked once, here, for every search of the plan: ProtocolParams'
        # rules for b and rep_rate_hz, and the searches' for the targets
        object.__setattr__(self, "b", _check_count(self.b, "b", 1))
        _check_real(self.epsilon, "epsilon", 0.0, 0.5, open_lo=True, open_hi=True)
        check_target_error(self.target_e)
        _check_real(self.rep_rate_hz, "rep_rate_hz", 0.0, open_lo=True)
        grid = np.atleast_1d(np.asarray(self.mu_grid, dtype=float))
        if grid.size == 0 or np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
            raise ParameterError("mu_grid must be non-empty, finite and > 0")
        object.__setattr__(self, "mu_grid", grid)


@dataclass(frozen=True)
class ProtocolParams:
    """A fully planned parameter set.

    d = k * b covert signals are spread over n_pairs time-bin pairs with
    per-pair send probability q = d / n_pairs. The no-signal form d = 0
    (with k = 0, q = 0) represents no-transmission diagnostics; derive
    forms it at k = 0, and the planner's searches never choose it.

    Every plan, however it is made or read, keeps the planner's limits
    k <= MAX_REPETITIONS and n_pairs <= DEFAULT_PAIR_CEILING, which bound
    the arrays of its bit error and its positions. predicted_epsilon and
    predicted_e are the planner's claims and must be finite reals; whether
    they still hold for the stored parameters is validate_plan's job, so
    an out-of-budget instance (e.g. an inflated-mu attack configuration,
    whose targets may be 1.0) can deliberately be built. Both targets are
    finite and in (0, 1].
    """

    b: int
    d: int
    k: int
    q: float
    n_pairs: int
    mu: float
    predicted_epsilon: float
    predicted_e: float
    channel: ChannelModel
    rep_rate_hz: float
    epsilon_target: float
    target_e: float

    def __post_init__(self):
        for name, least in (("b", 1), ("k", 0), ("d", 0), ("n_pairs", 1)):
            _check_count(getattr(self, name), name, least)
        for name, value, limit_name, limit in (
            ("k", self.k, "MAX_REPETITIONS", MAX_REPETITIONS),
            ("N", self.n_pairs, "DEFAULT_PAIR_CEILING", DEFAULT_PAIR_CEILING),
        ):
            if value > limit:
                raise ParameterError(
                    f"{name} = {_shown(value, '.3g')}, above the planner's limit "
                    f"{limit_name} = {limit:.0e}"
                )
        # any finite mu >= 0 may be stored, an inflated-mu attack's too
        _check_real(self.mu, "mu", 0.0)
        _check_real(self.rep_rate_hz, "rep_rate_hz", 0.0, open_lo=True)
        _check_real(self.predicted_epsilon, "predicted_epsilon")
        _check_real(self.predicted_e, "predicted_e")
        _check_real(self.epsilon_target, "epsilon_target", 0.0, 1.0, open_lo=True)
        _check_real(self.target_e, "target_e", 0.0, 1.0, open_lo=True)
        if self.d == 0:
            if self.k != 0 or self.q != 0.0:
                raise ParameterError("d = 0 requires k = 0 and q = 0")
        else:
            if self.k < 1 or self.d != self.k * self.b:
                raise ParameterError("d must equal k * b with k >= 1")
            _check_real(self.q, "q", 0.0, 1.0, open_lo=True)
            if abs(self.q - self.d / self.n_pairs) > 1e-12 * self.q:
                raise ParameterError("q must equal d / n_pairs")

    @classmethod
    def derive(
        cls,
        *,
        b: int,
        k: int,
        n_pairs: int,
        mu: float,
        channel: ChannelModel,
        rep_rate_hz: float,
        epsilon_target: float,
        target_e: float,
    ) -> "ProtocolParams":
        """The plan sending k repetitions of b bits over n_pairs pairs at mu.

        The one place a plan's fields and both claims are formed from
        (b, k, N, mu): d = k b, q = d / N, the detection-bias bound and
        the message error, once the record's checks (the planner's limits
        among them) have passed. k = 0 forms the no-signal record, d = 0
        and q = 0.0, which hides perfectly (bias 0.0) and delivers nothing
        (message error 1.0) whatever mu is, with neither claim computed.
        """
        d = k * b
        params = cls(
            b=b,
            d=d,
            k=k,
            # a zero n_pairs is refused by name, not by the division
            q=d / n_pairs if n_pairs else 0.0,
            n_pairs=n_pairs,
            mu=mu,
            predicted_epsilon=0.0,
            predicted_e=1.0,
            channel=channel,
            rep_rate_hz=rep_rate_hz,
            epsilon_target=epsilon_target,
            target_e=target_e,
        )
        if k == 0:
            return params
        epsilon = bias_for_protocol(n_pairs, d, mu, channel.n_bar_a)
        error = message_error_prob(bit_error_prob(k, click_probs(mu, channel)), b)
        return replace(params, predicted_epsilon=epsilon, predicted_e=error)

    def rederive(self, **changes) -> "ProtocolParams":
        """derive's plan from this plan's inputs, those named in changes replaced."""
        inputs = {name: getattr(self, name) for name in inspect.signature(self.derive).parameters}
        return self.derive(**{**inputs, **changes})

    @property
    def bins_total(self) -> int:
        return BINS_PER_PAIR * self.n_pairs

    @property
    def running_time_s(self) -> float:
        return self.bins_total / self.rep_rate_hz


@dataclass(frozen=True)
class GridPoint:
    """One evaluated mu candidate, kept for reporting; reason says why
    an infeasible one fails."""

    mu: float
    reason: str = ""
    k: int = 0
    n_pairs: int = 0

    @property
    def feasible(self) -> bool:
        return not self.reason


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    limit: float


@dataclass(frozen=True)
class PlanReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _mu_search(mu: float, req: PlanRequest):
    """One pulse intensity's repetition search, then its pair search, as a
    generator for _lockstep; returns the GridPoint."""
    cp = click_probs(mu, req.channel)
    try:
        k = yield from _repetition_search(req.target_e, req.b, cp)
    except InfeasibleError as exc:
        return GridPoint(mu=mu, reason=f"reliability: {exc}")
    try:
        n_pairs = yield from _pair_search(req.epsilon, k * req.b, mu, req.channel.n_bar_a)
    except InfeasibleError as exc:
        return GridPoint(mu=mu, reason=f"covertness: {exc}")
    return GridPoint(mu=mu, k=k, n_pairs=n_pairs)


def plan(req: PlanRequest) -> ProtocolParams:
    """Find a cheap, dim operating point subject to both targets.

    Every grid value is evaluated independently, once, and the smallest
    pair count over the grid is the floor. The floor of this objective
    sits in a very flat valley: tens of percent in mu move the pair
    count by only a few percent, so the exact argmin is an artifact of
    modeling minutiae, and no search refines it below the grid's step.
    The planner returns the dimmest grid point whose pair count stays
    within FLATNESS_TOLERANCE (5 %) of the floor.

    Raises:
        InfeasibleError: every candidate fails reliability or covertness.
    """
    params, _ = plan_with_report(req)
    return params


def plan_with_report(req: PlanRequest) -> tuple[ProtocolParams, tuple[GridPoint, ...]]:
    """plan()'s choice, with one GridPoint per value of the sorted grid."""
    grid = np.sort(req.mu_grid)
    points = []
    for start in range(0, grid.size, _LOCKSTEP_GROUP):
        group = grid[start : start + _LOCKSTEP_GROUP]
        points += _lockstep([_mu_search(float(mu), req) for mu in group])
    feasible = [p for p in points if p.feasible]
    if not feasible:
        # reasons embed point-specific numbers: group them by failure
        # mode and report one representative each
        groups: dict[str, tuple[str, int]] = {}
        for p in points:
            key = re.sub(r"[0-9][0-9.e+-]*", "~", p.reason)
            sample, count = groups.get(key, (p.reason, 0))
            groups[key] = (sample, count + 1)
        causes = "; ".join(
            f"{sample!r} ({count} of {len(points)} grid points)"
            for sample, count in groups.values()
        )
        raise InfeasibleError("no grid point satisfies both targets; causes: " + causes)
    # feasible keeps the sorted grid's order, so the first within budget is the dimmest
    floor = min(p.n_pairs for p in feasible)
    best = next(p for p in feasible if p.n_pairs <= floor * (1.0 + FLATNESS_TOLERANCE))

    params = ProtocolParams.derive(
        b=req.b,
        k=best.k,
        n_pairs=best.n_pairs,
        mu=best.mu,
        channel=req.channel,
        rep_rate_hz=req.rep_rate_hz,
        epsilon_target=req.epsilon,
        target_e=req.target_e,
    )
    return params, tuple(points)


def validate_plan(p: ProtocolParams, req: PlanRequest) -> PlanReport:
    """Recompute a plan's two claims and check them against the request.

    A plan whose b, channel, rep_rate_hz, epsilon_target or target_e is
    not the request's raises ParameterError. Otherwise
    ProtocolParams.rederive re-forms the bias bound and the message error
    from the plan's (b, k, N, mu), and each lands in the report beside its
    limit. A plan with no signals re-forms as derive's k = 0 record:
    bias 0.0, which passes, and message error 1.0, which fails.
    d, q and the running time need no row: ProtocolParams and
    fileio.params_from_document refuse stored ones that disagree.
    """
    for name, planned, wanted in (
        ("b", p.b, req.b),
        ("channel", p.channel, req.channel),
        ("rep_rate_hz", p.rep_rate_hz, req.rep_rate_hz),
        ("epsilon_target", p.epsilon_target, req.epsilon),
        ("target_e", p.target_e, req.target_e),
    ):
        if planned != wanted:
            raise ParameterError(
                f"plan document carries {name} = {planned!r} but the config gives {wanted!r}"
            )
    derived = p.rederive()
    eps, err = derived.predicted_epsilon, derived.predicted_e
    return PlanReport(
        (
            CheckResult("detection_bias", eps <= req.epsilon, eps, req.epsilon),
            CheckResult("message_error", err <= req.target_e, err, req.target_e),
        )
    )
