"""Heat kernel and heat trace of -d^2/dx^2 - 1/(4 x^2) on the half line,
for every self-adjoint boundary condition at the singular endpoint."""

from .errors import (
    ConvergenceError,
    DomainError,
    FitError,
    InsufficientSpectrumError,
)
from .quadrature import QuadResult, QuadSpec, integrate
from .kernels import (
    BoundaryCoeffs,
    BoundaryParam,
    extract_coeffs,
    friedrichs_kernel,
    nprime,
    q_diag,
    signaling,
)
from .ktheta import (
    KThetaValue,
    k1_smooth,
    k_theta,
    laplace_of_k,
    m_main,
    pole_location,
    residue_term,
)
from .trace import (
    TraceParts,
    TraceSample,
    exotic_limit,
    exotic_term,
    friedrichs_trace,
    full_trace,
    t1_reference,
    tn_trace,
    trace_curve,
)
from .oracle import (
    OracleTrace,
    Spectrum,
    eigenvalues,
    j0_zeros,
    oracle_trace,
    secular_negative,
    secular_positive,
)
from .asymptotics import AsymptoticFit, ExoticnessReport, exoticness_report, poly_fit

__version__ = "0.1.0"

__all__ = [
    "AsymptoticFit",
    "BoundaryCoeffs",
    "BoundaryParam",
    "ConvergenceError",
    "DomainError",
    "ExoticnessReport",
    "FitError",
    "InsufficientSpectrumError",
    "KThetaValue",
    "OracleTrace",
    "QuadResult",
    "QuadSpec",
    "Spectrum",
    "TraceParts",
    "TraceSample",
    "eigenvalues",
    "exotic_limit",
    "exotic_term",
    "exoticness_report",
    "extract_coeffs",
    "friedrichs_kernel",
    "friedrichs_trace",
    "full_trace",
    "integrate",
    "j0_zeros",
    "k1_smooth",
    "k_theta",
    "laplace_of_k",
    "m_main",
    "nprime",
    "oracle_trace",
    "pole_location",
    "poly_fit",
    "q_diag",
    "residue_term",
    "secular_negative",
    "secular_positive",
    "signaling",
    "t1_reference",
    "tn_trace",
    "trace_curve",
]
