"""Isotropic-stationary random fields on the sphere crossed with time.

Simulation of SPHARMA(p, q) processes per multipole, exact second-order
spectral calculus (angular power spectra, spectral density eigenvalues,
trace norms), and constructive approximation of arbitrary target spectral
density operators by invertible moving-average or causal autoregressive
models with certified error, and the Wold decomposition as an SPHMA model.
"""

from .approx import (
    ApproximationCertificate,
    approximate_operator,
    durbin_levinson,
    fit_ar,
    fit_ma,
    h_step_error,
    l2_omega_error,
    spectral_distance,
    wold,
)
from .model import (
    CausalityReport,
    SpharmaModel,
    check_causal,
    check_coprime,
    check_invertible,
    lag_polynomial_roots,
    model_autocovariance,
    model_autocovariance_table,
    psi_coefficients,
)
from .simulate import (
    CramerReport,
    HarmonicCoefficientSeries,
    SimulationConfig,
    batch_means_se,
    empirical_autocov,
    simulate_spharma,
    simulate_white_noise,
    synthesize_field,
    verify_cramer_orthogonality,
)
from .spectral import (
    AutocovarianceSpectrum,
    SpectralEigenvalues,
    SummabilityReport,
    autocov_table,
    ckl_truncation_error,
    covariance_kernel_eval,
    frequency_grid,
    kernel_from_eigenvalues,
    kernel_l2_norm,
    operator_trace_norm,
    spectral_from_autocov,
    summability_report,
)
from .sphere import (
    FieldSnapshot,
    SphereGrid,
    build_grid,
    legendre_all,
    real_sph_harm,
    sht_forward,
    sht_inverse,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
