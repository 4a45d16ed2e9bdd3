"""Reference implementations and quantities that only the tests use.

No command and no library function reaches anything here. Most functions
check a library result by a second route: spherical harmonics evaluated one
(l, m) at a time, the Legendre polynomials P_l, grid quadrature, the forward
spherical harmonic transform (the inverse of ``sht_inverse``), covariance
kernel synthesis and norms, short-memory summability sums, the operator
distance of two spectra, Levinson's recursion for Yule-Walker fits, and
stream lookup in a coefficient series. The rest are quantities that tests
state properties of: the Gauss weights of a grid's colatitudes, the
mean-square error of truncating the harmonic expansion, the Wold
decomposition of a lag table as an SPHMA model, and the h-step prediction
error of a causal model. A lag table is the library's ``(L+1, max_lag+1)``
array. A method of a library class is a function here that takes the
object as its first argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spharma.approx import _sup_totals, _wold_weights
from spharma.model import (SpharmaModel, _require_causal, arma_filter, check_causal,
                           model_autocovariance_table)
from spharma.spectral import TWO_PI, autocov_table, spectral_from_autocov
from spharma.sphere import FOUR_PI


# spharma.sphere

_X_DOMAIN_SLACK = 1e-12


def _clip_domain(x):
    """Clamp arguments to [-1, 1], rejecting anything beyond roundoff slack."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + _X_DOMAIN_SLACK):
        raise ValueError("argument outside [-1, 1]")
    return np.clip(x, -1.0, 1.0)


def legendre_all(l_max, x):
    """Evaluate P_0(x), ..., P_{l_max}(x) by the three-term recurrence.

    Parameters
    ----------
    l_max : int
        Largest degree, >= 0.
    x : float or ndarray
        Argument(s) in [-1, 1].

    Returns
    -------
    ndarray
        Shape ``(l_max+1,) + shape(x)``; entry ``l`` holds P_l(x).
    """
    if l_max < 0:
        raise ValueError("l_max must be nonnegative")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(_clip_domain(x))
    out = np.empty((l_max + 1,) + x.shape)
    out[0] = 1.0
    if l_max >= 1:
        out[1] = x
    for l in range(1, l_max):
        out[l + 1] = ((2 * l + 1) * x * out[l] - l * out[l - 1]) / (l + 1)
    return out[:, 0] if scalar else out


def _normalized_assoc_legendre(l_max, m, x):
    """Fully normalized Q_{l,m}(x) for l = m..l_max, no Condon-Shortley phase.

    ``2*pi * integral(Q_{l,m}^2 dx) = 1`` on [-1, 1]. Stable upward
    recurrence in l at fixed m.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    n = l_max - m + 1
    out = np.empty((n,) + x.shape)
    # seed Q_{m,m}; accumulate the sectoral recurrence from Q_{0,0}
    q = np.full_like(x, 1.0 / math.sqrt(FOUR_PI))
    for k in range(1, m + 1):
        q = math.sqrt((2 * k + 1) / (2.0 * k)) * s * q
    out[0] = q
    if n > 1:
        out[1] = math.sqrt(2 * m + 3.0) * x * q
    for l in range(m + 2, l_max + 1):
        a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = math.sqrt(
            ((2.0 * l + 1.0) * (l - 1.0 + m) * (l - 1.0 - m))
            / ((2.0 * l - 3.0) * (l * l - m * m))
        )
        out[l - m] = a * x * out[l - m - 1] - b * out[l - m - 2]
    return out


def real_sph_harm(l, m, colat, lon):
    """Real orthonormal spherical harmonic Y_{l,m}(colat, lon).

    Cosine branch for m > 0, sine branch for m < 0, zonal for m = 0.
    """
    if abs(m) > l:
        raise IndexError("|m| must not exceed l")
    scalar = np.isscalar(colat) and np.isscalar(lon)
    colat = np.atleast_1d(np.asarray(colat, dtype=float))
    lon = np.atleast_1d(np.asarray(lon, dtype=float))
    q = _normalized_assoc_legendre(l, abs(m), np.cos(colat))[-1]
    if m == 0:
        val = q
    elif m > 0:
        val = math.sqrt(2.0) * q * np.cos(m * lon)
    else:
        val = math.sqrt(2.0) * q * np.sin(-m * lon)
    return float(val[0]) if scalar else val


def gauss_weights(grid):
    """Gauss-Legendre weights 2 / ((1 - r^2) P_n'(r)^2) of a grid whose n
    colatitude nodes are ``arccos`` of ``leggauss(n)``'s, in that order.

    ``leggauss`` gives the roots r of P_n rounded to float64, x, and weights
    from derivatives at x, off by about 1e-11 relative at n = 129. Here the
    weight is taken at the exact root r = x + delta, delta = -P_n(x) /
    P_n'(x), to first order in delta: P_n' varies by about n^2 ulps over the
    rounding of a root. The weights sum to 2.
    """
    n = grid.n_lat
    x, _ = np.polynomial.legendre.leggauss(n)
    # P_{n-1} and P_n by the three-term recurrence
    p0, p1 = np.ones_like(x), x
    for l in range(1, n):
        p0, p1 = p1, ((2 * l + 1) * x * p1 - l * p0) / (l + 1)
    s = 1.0 - x * x
    d1 = n * (p0 - x * p1) / s
    d2 = (2.0 * x * d1 - n * (n + 1) * p1) / s
    delta = -p1 / d1
    return 2.0 / ((s - 2.0 * x * delta) * (d1 + delta * d2) ** 2)


def integrate(grid, values):
    """Quadrature of node values over the sphere."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_lat, grid.n_lon):
        raise ValueError("value array does not match grid shape")
    lon_w = 2.0 * math.pi / grid.n_lon
    return float(gauss_weights(grid) @ values.sum(axis=1)) * lon_w


def sht_forward(fieldsnap, band_limit=None):
    """Forward spherical harmonic transform by separated quadrature.

    Longitude trigonometric sums first, then Gauss-Legendre colatitude
    quadrature. Exact for fields band-limited at the grid band limit;
    spectral content above it aliases into the returned coefficients, a
    stream-order vector.
    """
    grid = fieldsnap.grid
    L = grid.band_limit if band_limit is None else band_limit
    if L > grid.band_limit:
        raise ValueError("requested band limit exceeds grid band limit")
    Q = grid._legendre_table()
    cos_t, sin_t = grid._trig_tables()
    lon_w = 2.0 * math.pi / grid.n_lon
    # G[m, i] = sum_j f(i, j) * trig(m, j) * lon_w * w_i
    wv = gauss_weights(grid) * lon_w
    Gc = (fieldsnap.values @ cos_t[: L + 1].T).T * wv
    Gs = (fieldsnap.values @ sin_t[: L + 1].T).T * wv
    ls = np.arange(L + 1)
    centre = ls * (ls + 1)  # entry of a_{l,0}
    out = np.empty((L + 1) ** 2)
    out[centre] = Gc[0] @ Q[0][:, : L + 1]
    root2 = math.sqrt(2.0)
    for m in range(1, L + 1):
        q = Q[m][:, : L + 1 - m]
        out[centre[m:] + m] = root2 * (Gc[m] @ q)
        out[centre[m:] - m] = root2 * (Gs[m] @ q)
    return out


# spharma.spectral

def total_variance(lags):
    """sum_l (2l+1) C_l(0) over the rows of an ``(L+1, max_lag+1)`` lag table."""
    deg = 2 * np.arange(len(lags)) + 1
    return float(deg @ lags[:, 0])


def kernel_from_eigenvalues(eigs, c):
    """Isotropic kernel k(c) = sum_l eig_l (2l+1)/(4pi) P_l(c) from eigenvalues."""
    eigs = np.asarray(eigs, dtype=float)
    L = len(eigs) - 1
    deg = 2 * np.arange(L + 1) + 1
    coeff = deg / (4.0 * math.pi) * eigs
    P = legendre_all(L, c)
    return coeff @ P if np.ndim(P) > 1 else float(coeff @ P)


def covariance_kernel_eval(lags, t, c):
    """Covariance kernel r_t at inner product c: Legendre synthesis of C_l(t)."""
    if abs(t) >= lags.shape[1]:
        raise ValueError("lag out of range")
    return kernel_from_eigenvalues(lags[:, abs(t)], c)


def kernel_l2_norm(lags, t):
    """L2(S2 x S2) norm of the lag-t kernel: sqrt(sum_l (2l+1) C_l(t)^2)."""
    if abs(t) >= lags.shape[1]:
        raise ValueError("lag out of range")
    deg = 2 * np.arange(len(lags)) + 1
    return float(np.sqrt(deg @ lags[:, abs(t)] ** 2))


@dataclass
class SummabilityReport:
    """Short-memory diagnostics: summed kernel norms over lags plus tail."""

    kernel_l2_sum: float
    trace_sum: float
    tail_estimate: float
    divergent: bool
    max_lag: int


def _geometric_tail(last, prev):
    """Tail estimate sum_{t>T} |c_t| from the last two stored magnitudes."""
    last, prev = abs(last), abs(prev)
    if last == 0.0:
        return 0.0
    if prev <= last:
        return math.inf
    r = last / prev
    return last * r / (1.0 - r)


def summability_report(source, max_lag=200):
    """Summability sums over |t| <= max_lag for an ``(L+1, max_lag+1)`` lag
    table, whose own depth is used, or an ARMA model.

    For models the geometric tail uses the uniform root margin: the lag
    envelope decays like (1/xi_*)^t, so the tail beyond the last stored lag
    is estimated from the final trace term. A non-causal model (or a
    non-decaying table) sets the divergence flag instead of raising.
    """
    if isinstance(source, SpharmaModel):
        report = check_causal(source)
        # a model that check_causal refuses, a unit root among them, diverges
        if not report.causal:
            return SummabilityReport(math.inf, math.inf, math.inf, True, max_lag)
        lags = model_autocovariance_table(source, max_lag)
        rho = 0.0 if math.isinf(report.min_root_modulus) else 1.0 / report.min_root_modulus
    else:
        lags = source
        max_lag = lags.shape[1] - 1
        rho = None

    deg = 2 * np.arange(len(lags)) + 1
    l2_terms = np.sqrt(deg @ lags**2)
    tr_terms = deg @ np.abs(lags)
    kernel_l2_sum = float(l2_terms[0] + 2.0 * l2_terms[1:].sum())
    trace_sum = float(tr_terms[0] + 2.0 * tr_terms[1:].sum())

    if rho is not None:
        tail = 0.0 if rho == 0.0 else float(2.0 * tr_terms[-1] * rho / (1.0 - rho))
        divergent = False
    else:
        tail = 2.0 * _geometric_tail(tr_terms[-1], tr_terms[-2]) if max_lag >= 2 else 0.0
        divergent = not math.isfinite(tail)
    return SummabilityReport(kernel_l2_sum, trace_sum, tail, divergent, max_lag)


def ckl_truncation_error(spec, l_trunc):
    """Mean-square error of truncating the harmonic expansion at l_trunc.

    sum_{l > l_trunc} (2l+1)/(4pi) * integral(f_l), the integrals being the
    lag-0 row of ``autocov_table``, including the stored above-band tail
    bound (a sup bound, integrated over [-pi, pi]).
    """
    if l_trunc > spec.band_limit:
        raise ValueError("l_trunc exceeds band limit")
    if l_trunc < -1:
        raise ValueError("l_trunc must be at least -1")
    integrals = autocov_table(spec, 0)[:, 0]
    deg = 2 * np.arange(spec.band_limit + 1) + 1
    inside = deg[l_trunc + 1 :] @ integrals[l_trunc + 1 :] / (4.0 * math.pi)
    tail = spec.tail_bound * TWO_PI / (4.0 * math.pi)
    return float(inside + tail)


# spharma.simulate

def row_index(l, m):
    """Row of stream (l, m) in the packed coefficient layout."""
    if abs(m) > l:
        raise IndexError("|m| must not exceed l")
    return l * (l + 1) + m


def get(series, l, m):
    return series.values[row_index(l, m)]


# spharma.approx

def spectral_distance(f1, f2, norm="l2_kernel", lams=None):
    """sup over the frequency grid of the per-lambda distance, plus tails.

    ``l2_kernel``: sqrt(sum_l (2l+1) (f1_l - f2_l)^2); ``trace``:
    sum_l (2l+1) |f1_l - f2_l|. Stored above-band tail bounds of both
    operands are added (triangle inequality).
    """
    if f1.band_limit != f2.band_limit:
        raise ValueError("band limits differ")
    if lams is None:
        if f1.form == "tabulated" and f2.form == "tabulated":
            if len(f1.lam) != len(f2.lam) or not np.allclose(f1.lam, f2.lam):
                raise ValueError("tabulated spectra on mismatched grids")
            lams = f1.lam
        else:
            lams = f1.lambda_grid() if f1.form == "tabulated" else f2.lambda_grid()
    l2, trace = _sup_totals(f1.values(lams) - f2.values(lams))
    return {"l2_kernel": l2, "trace": trace}[norm] + f1.tail_bound + f2.tail_bound


def durbin_levinson_dot(c, order):
    """Yule-Walker AR(order) fit ``(phi, v)`` by Levinson's recursion with a
    dot product per step: kappa_k = (C(k) - phi_{k-1} . C(k-1..1)) / v_{k-1},
    phi_k = [phi_{k-1} - kappa_k reversed(phi_{k-1}), kappa_k] and
    v_k = v_{k-1} (1 - kappa_k^2)."""
    phi = np.empty(0)
    v = c[0]
    for k in range(1, order + 1):
        kappa = (c[k] - phi @ c[k - 1 : 0 : -1]) / v
        phi = np.r_[phi - kappa * phi[::-1], kappa]
        v = v * (1.0 - kappa * kappa)
    return phi, float(v)


def wold(lags, n_psi):
    """Wold decomposition per multipole from an ``(L+1, max_lag+1)`` lag table.

    psi_l is the factor (``spectral_factor``) of the lag sum of row l alone
    (``spectral_from_autocov``), and sigma_l^2 = C_l(0) / sum_j psi_{l;j}^2.
    Lags whose sum is negative or has no factor, as a deterministic
    component's, raise ``ValueError``.

    Returns ``(model, residual_per_l)``: the SPHMA(n_psi) model with MA
    coefficients psi_{l;1..n_psi} and noise powers sigma_l^2, and the
    dropped tail C_l(0) - sigma_l^2 * sum_{j <= n_psi} psi_{l;j}^2.
    """
    if n_psi < 0:
        raise ValueError("n_psi must be nonnegative")
    if lags.shape[1] <= n_psi:
        raise ValueError("autocovariance table shorter than requested psi count")
    c0, L = lags[:, 0], len(lags) - 1
    psi, sigma2 = _wold_weights(spectral_from_autocov(lags), c0, n_psi + 1)
    head = psi[:, : n_psi + 1]
    return (SpharmaModel(L, [np.empty(0)] * (L + 1), list(head[:, 1:]), sigma2),
            c0 - sigma2 * (head * head).sum(axis=1))


def h_step_error(model, h):
    """h-step prediction error sum_l (2l+1) sigma_l^2 sum_{j<h} psi_{l;j}^2
    of a causal model."""
    if h < 1:
        raise ValueError("h must be at least 1")
    L = model.band_limit
    deg = 2 * np.arange(L + 1) + 1
    # psi_coefficients per row, with causality decided once per distinct row
    _require_causal(model)
    head = np.vstack([arma_filter(model.ar[l], model.ma[l], np.eye(1, h)[0])
                      for l in range(L + 1)])
    return float(deg @ (model.noise * (head * head).sum(axis=1)))
