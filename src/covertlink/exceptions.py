"""Exception types shared across the package, and the two input rules.

Every numeric input is checked once, where it enters the package, by one
of two rules: _check_count for counts and seeds, _check_real for real
numbers. Both refuse by name with a ParameterError, and both take
numpy's scalars as well as Python's; neither takes a bool.
"""

import math
import numbers


class CovertLinkError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(CovertLinkError, ValueError):
    """A physical or protocol parameter is out of its valid range."""


class InfeasibleError(CovertLinkError):
    """No protocol configuration satisfies the requested constraints."""


class FormatError(CovertLinkError):
    """A serialized artifact is malformed or has an unsupported version."""


def _shown(value, spec: str = "") -> str:
    """value formatted by spec, or its repr; an integer past the float range
    as its order of magnitude, which a float format or str() may not give."""
    if isinstance(value, numbers.Integral) and abs(int(value)).bit_length() > 1024:
        return f"~10^{int(abs(int(value)).bit_length() * math.log10(2.0))}"
    return format(value, spec) if spec else repr(value)


def _check_count(value, name: str, least: int, most: float = math.inf) -> int:
    """value as an int, if it is an integer in [least, most]."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integer and least <= value <= most):
        span = f">= {least}" if most == math.inf else f"in [{least}, {most}]"
        raise ParameterError(f"{name} must be an integer {span}, got {_shown(value)}")
    return int(value)


def _check_real(
    value,
    name: str,
    lo: float = -math.inf,
    hi: float = math.inf,
    *,
    open_lo: bool = False,
    open_hi: bool = False,
) -> float:
    """value as a float, if it is a finite real number between lo and hi.

    Each end is included unless it is open; an infinite end only says
    that side is unbounded. An integer past the float range is not finite.
    """
    try:
        finite = isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an integer past the float range
        finite = False
    if (
        isinstance(value, bool)
        or not finite
        or not (lo < value if open_lo else lo <= value)
        or not (value < hi if open_hi else value <= hi)
    ):
        if hi == math.inf:
            span = "" if lo == -math.inf else f" and {'>' if open_lo else '>='} {lo:g}"
        else:
            span = f" and in {'(' if open_lo else '['}{lo:g}, {hi:g}{')' if open_hi else ']'}"
        raise ParameterError(f"{name} must be finite{span}, got {_shown(value)}")
    return float(value)
