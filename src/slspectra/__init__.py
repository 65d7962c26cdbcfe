"""Spectral toolkit for -y'' + q(x) y = mu y on [0, pi] with separated
boundary conditions parametrized by angles (alpha, beta).

Computes eigenvalues by shooting on the characteristic function, norming
constants with their oscillatory correction, the boundary index shift
delta_n, and partial sums of the associated cosine series with
absolute-continuity diagnostics.
"""

from .delta import (
    DeltaValue,
    delta_asymptotic,
    delta_for_index,
    sin_two_pi,
    solve_delta,
    solve_delta_extrapolated,
)
from .errors import (
    BlowUpError,
    BracketError,
    CaseError,
    ConvergenceError,
    QuadratureError,
    SpectralError,
    UnsupportedRegimeError,
)
from .kseries import (
    ACReport,
    KSeriesResult,
    ac_diagnostic,
    case_tag,
    k1_partial_sum,
    k2_closed_form_dd,
    k2_partial_sum,
    k_partial_sum,
    series_coefficients,
)
from .norming import (
    NormingRecord,
    ae_n,
    ae_tilde_n,
    extract_remainders,
    model_a,
    model_b,
    norming_a,
    norming_b,
    norming_record,
    norming_records,
)
from .odesolve import (
    FundamentalSystem,
    PicardResult,
    SolutionTrace,
    fundamental_system,
    kernel_A,
    kernel_B,
    phi,
    picard_y2,
    psi,
    solve_ivp,
)
from .potential import (
    BoundaryParams,
    CumulativeIntegrals,
    Potential,
    integrate,
    mean_q,
    sigma_functions,
)
from .spectrum import (
    Eigenpair,
    Spectrum,
    bracket_eigenvalue,
    char_function,
    char_function_right,
    count_interior_zeros,
    eigenfunction,
    eigenfunction_right,
    find_eigenvalue,
    find_spectrum,
)

__all__ = [
    "ACReport",
    "BlowUpError",
    "BoundaryParams",
    "BracketError",
    "CaseError",
    "ConvergenceError",
    "CumulativeIntegrals",
    "DeltaValue",
    "Eigenpair",
    "FundamentalSystem",
    "KSeriesResult",
    "NormingRecord",
    "PicardResult",
    "Potential",
    "QuadratureError",
    "SolutionTrace",
    "SpectralError",
    "Spectrum",
    "UnsupportedRegimeError",
    "ac_diagnostic",
    "ae_n",
    "ae_tilde_n",
    "bracket_eigenvalue",
    "case_tag",
    "char_function",
    "char_function_right",
    "count_interior_zeros",
    "delta_asymptotic",
    "delta_for_index",
    "eigenfunction",
    "eigenfunction_right",
    "extract_remainders",
    "find_eigenvalue",
    "find_spectrum",
    "fundamental_system",
    "integrate",
    "k1_partial_sum",
    "k2_closed_form_dd",
    "k2_partial_sum",
    "k_partial_sum",
    "kernel_A",
    "kernel_B",
    "mean_q",
    "model_a",
    "model_b",
    "norming_a",
    "norming_b",
    "norming_record",
    "norming_records",
    "phi",
    "picard_y2",
    "psi",
    "series_coefficients",
    "sigma_functions",
    "sin_two_pi",
    "solve_delta",
    "solve_delta_extrapolated",
    "solve_ivp",
]

__version__ = "0.1.0"
