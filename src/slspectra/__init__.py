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
    k2_closed_form_dd,
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
    norming_record,
    norming_records,
)
from .odesolve import (
    PicardResult,
    SolutionTrace,
    kernel_A,
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
    char_function,
    char_function_right,
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
    "case_tag",
    "char_function",
    "char_function_right",
    "delta_asymptotic",
    "delta_for_index",
    "extract_remainders",
    "find_eigenvalue",
    "find_spectrum",
    "integrate",
    "k2_closed_form_dd",
    "k_partial_sum",
    "kernel_A",
    "mean_q",
    "model_a",
    "model_b",
    "norming_record",
    "norming_records",
    "phi",
    "picard_y2",
    "psi",
    "series_coefficients",
    "sigma_functions",
    "sin_two_pi",
    "solve_delta",
    "solve_ivp",
]

__version__ = "0.1.0"
