"""Exception types shared across the package."""


class CovertLinkError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(CovertLinkError, ValueError):
    """A physical or protocol parameter is out of its valid range."""


class InfeasibleError(CovertLinkError):
    """No protocol configuration satisfies the requested constraints."""


class FormatError(CovertLinkError):
    """A serialized artifact is malformed or has an unsupported version."""
