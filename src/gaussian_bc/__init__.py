"""Distortion-region toolkit for uncoded broadcast of a correlated Gaussian pair.

A transmitter observes a memoryless bivariate Gaussian stream and sends a
power-normalized linear combination of the two components over a one-to-two
AWGN broadcast channel; each receiver estimates its own component by scalar
MMSE. The package evaluates every closed-form quantity of that scheme
(single-user floors, region corner points, distortion pair, SNR threshold,
converse bound with optimal witnesses), provides an independent numeric
joint rate-distortion oracle, simulates the scheme by seeded Monte Carlo,
and machine-verifies that the achievability and converse curves coincide
below the threshold.
"""

from .closed_forms import (
    BoundWitness,
    combiner_mse_bound,
    d1_min_at_d2min,
    d2_converse_bound,
    d2_min_at_d1min,
    d2_min_at_rx1,
    d_min,
    is_uncoded_optimal,
    optimal_witness,
    simple_snr_threshold,
    snr_threshold,
    solve_alpha_for_d1,
    uncoded_distortions,
)
from .errors import (
    BoundUndefinedError,
    DegenerateCoefficientsError,
    DistortionRangeError,
    GaussianBcError,
    InfeasibleDistortionError,
    OutOfRangeError,
    ParameterError,
    SnrThresholdError,
)
from .params import (
    ChannelParams,
    DistortionPair,
    SourceParams,
    UncodedCoeffs,
    conditional_variance,
    negate_rho_transform,
    scale_variance_transform,
    validate_problem,
)
from .rate_distortion import (
    channel_capacity,
    conditional_info_bound,
    d2_lower_via_rx1,
    r_conditional,
    r_joint_numeric,
    r_scalar,
)
from .region import (
    BoundaryPoint,
    MatchPoint,
    MatchReport,
    converse_at,
    trace_uncoded_boundary,
    verify_matching,
)

__version__ = "0.1.0"

# The Monte-Carlo names load numpy, which nothing else in the package
# needs; they are imported on first access (PEP 562), so that
# ``import gaussian_bc`` and the CLI's other commands start without it.
_MONTECARLO_NAMES = frozenset({
    "MmseCoefficients",
    "SimulationConfig",
    "SimulationReport",
    "mmse_coefficients",
    "power_check",
    "sample_source_pairs",
    "simulate",
})


def __getattr__(name: str):
    if name in _MONTECARLO_NAMES:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BoundaryPoint",
    "BoundUndefinedError",
    "BoundWitness",
    "ChannelParams",
    "DegenerateCoefficientsError",
    "DistortionPair",
    "DistortionRangeError",
    "GaussianBcError",
    "InfeasibleDistortionError",
    "MatchPoint",
    "MatchReport",
    "MmseCoefficients",
    "OutOfRangeError",
    "ParameterError",
    "SimulationConfig",
    "SimulationReport",
    "SnrThresholdError",
    "SourceParams",
    "UncodedCoeffs",
    "channel_capacity",
    "combiner_mse_bound",
    "conditional_info_bound",
    "conditional_variance",
    "converse_at",
    "d1_min_at_d2min",
    "d2_converse_bound",
    "d2_lower_via_rx1",
    "d2_min_at_d1min",
    "d2_min_at_rx1",
    "d_min",
    "is_uncoded_optimal",
    "mmse_coefficients",
    "negate_rho_transform",
    "optimal_witness",
    "power_check",
    "r_conditional",
    "r_joint_numeric",
    "r_scalar",
    "sample_source_pairs",
    "scale_variance_transform",
    "simple_snr_threshold",
    "simulate",
    "snr_threshold",
    "solve_alpha_for_d1",
    "trace_uncoded_boundary",
    "uncoded_distortions",
    "validate_problem",
    "verify_matching",
]
