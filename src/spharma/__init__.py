"""Isotropic-stationary random fields on the sphere crossed with time.

Simulation of SPHARMA(p, q) processes per multipole, exact second-order
spectral calculus (angular power spectra, spectral density eigenvalues,
trace norms, the lag/frequency pair), and constructive approximation of
arbitrary target spectral density operators by invertible moving-average or
causal autoregressive models with certified error, read off each
multipole's Wold factor, with the exact L2(Omega) reconstruction error of a
fit. References and quantities that only the tests use (spherical harmonics
one (l, m) at a time, Legendre polynomials, the forward transform, kernel
synthesis, summability sums, spectral distances, the harmonic truncation
error, the Wold decomposition as an SPHMA model and h-step prediction
errors) live in ``tests/oracles.py``.
"""

from .approx import (
    approximate_operator,
    durbin_levinson,
    fit_ar,
    fit_ma,
    l2_omega_error,
    spectral_factor,
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
    SpectralEigenvalues,
    autocov_table,
    frequency_grid,
    operator_trace_norm,
    spectral_from_autocov,
)
from .sphere import (
    FieldSnapshot,
    SphereGrid,
    build_grid,
    sht_inverse,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
