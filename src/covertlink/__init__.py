"""Covert optical communication over a noisy channel: planning and simulation.

The package is organized around one workflow: bound how detectable a
transmission is from the relative entropy between the idle thermal
background and the background carrying rare pulses (formed in
fock_stats by DivergenceProfile, bounded and inverted by security),
predict how reliably it decodes (reliability), search for the cheapest
parameters meeting both targets (planner), lay message bits onto secret
time-bin positions (codec), and exercise the whole thing, including the
adversary, with seeded Monte-Carlo (simulator). The cli module exposes
the four workflows as subcommands.
"""

from .codec import (
    ALPHABET,
    BITS_PER_CHAR,
    PositionPlan,
    SharedRandomness,
    choose_positions,
    decode_bits,
    encode_message,
    majority_decode,
    vote_counts,
)
from .exceptions import (
    CovertLinkError,
    FormatError,
    InfeasibleError,
    ParameterError,
)
from .fock_stats import DivergenceProfile, per_mode_relative_entropy
from .planner import (
    PlanRequest,
    ProtocolParams,
    plan,
    plan_with_report,
    validate_plan,
)
from .reliability import (
    ChannelModel,
    ClickProbabilities,
    bit_error_prob,
    click_probs,
    message_error_prob,
    min_repetitions,
)
from .security import BINS_PER_PAIR, detection_bias_bound, min_pairs_for_budget
from .simulator import (
    DistinguisherResult,
    MonitorTrace,
    Transcript,
    rescale_plan,
    run_distinguisher,
    simulate_monitoring,
    simulate_transmission,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHABET",
    "BINS_PER_PAIR",
    "BITS_PER_CHAR",
    "ChannelModel",
    "ClickProbabilities",
    "CovertLinkError",
    "DistinguisherResult",
    "DivergenceProfile",
    "FormatError",
    "InfeasibleError",
    "MonitorTrace",
    "ParameterError",
    "PlanRequest",
    "PositionPlan",
    "ProtocolParams",
    "SharedRandomness",
    "Transcript",
    "bit_error_prob",
    "choose_positions",
    "click_probs",
    "decode_bits",
    "detection_bias_bound",
    "encode_message",
    "majority_decode",
    "message_error_prob",
    "min_pairs_for_budget",
    "min_repetitions",
    "per_mode_relative_entropy",
    "plan",
    "plan_with_report",
    "rescale_plan",
    "run_distinguisher",
    "simulate_monitoring",
    "simulate_transmission",
    "validate_plan",
    "vote_counts",
]
