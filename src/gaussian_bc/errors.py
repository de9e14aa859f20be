"""Semantic exception hierarchy shared by every module of the package."""


class GaussianBcError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(GaussianBcError, ValueError):
    """A parameter record violates one of its invariants."""


class DegenerateCoefficientsError(ParameterError):
    """Mixing weights collapse the encoder normalization (quadratic form is 0)."""


class OutOfRangeError(GaussianBcError, ValueError):
    """An argument lies outside the operation's valid domain."""


class DistortionRangeError(OutOfRangeError):
    """d1 violates the distortion-range condition required by the converse."""


class SnrThresholdError(OutOfRangeError):
    """P/n1 exceeds the SNR threshold under which the converse machinery applies."""


class InfeasibleDistortionError(OutOfRangeError):
    """A distortion below the single-user minimum was supplied."""


class BoundUndefinedError(GaussianBcError, ArithmeticError):
    """The converse functional is undefined for the supplied witness."""
