"""Constructive MA/AR approximation of spectral density operators.

Scalar machinery per multipole: the innovations algorithm (one-step
prediction coefficients and errors from an autocovariance sequence) and the
Durbin-Levinson solution of the Yule-Walker equations, cf. Brockwell & Davis,
"Time Series: Theory and Methods", chapters 5 and 8. The innovations rows
are the Cholesky factor of the Toeplitz matrix of C(0..n), computed by the
Schur algorithm (Kailath & Sayed, "Fast Reliable Algorithms for Matrices
with Structure", SIAM 1999, ch. 1) in O(n^2) time; the last row alone,
which the MA fits and the Wold decomposition read, takes O(n) memory.

Operator-level machinery: given target spectral eigenvalues f_l(lambda) and
a tolerance eps, fit an invertible MA(q) or causal AR(p) per multipole,
escalating the order until the per-multipole sup error fits the budget
eps / (2 (L+1)^2); the band tail above L is charged eps/2. Certificates
report per-multipole and total errors in the kernel-L2 and trace norms, with
the sup over frequency evaluated on a shared grid.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    SpharmaModel,
    arma_filter,
    check_causal,
    decay_length,
    min_root_modulus,
    model_autocovariance,
)
from .simulate import SimulationConfig, batch_means_se, simulate_spharma
from .spectral import frequency_grid, rational_density, trapezoid_lags
from .sphere import harmonic_values_at, stream_index

DEFAULT_ORDER_CAP = 256
_VAR_FLOOR = 1e-12
_WOLD_VARIANCE_TOL = 1e-10  # wold: least innovation variance, relative to C_l(0)
_L2_CHECK_NODE = (1.047197551196598, 0.8)  # l2_omega_check: (colat, lon)


def _innovations_core(c, depth, floor=None):
    """Columns of the innovations factor by the Schur algorithm.

    The innovations rows of C(0..depth) are the rows of the factorisation
    T = L diag(v) L^T of the Toeplitz matrix T[i, j] = C(|i - j|), with L
    unit lower triangular and ``theta_{i, i-k} = L[i, k]``. Schur's
    algorithm (Kailath & Sayed, "Fast Reliable Algorithms for Matrices with
    Structure", ch. 1) computes that factor column by column from two
    generator vectors, in O(depth^2) time and O(depth) memory: ``a`` starts
    as C(0..depth) and ``b`` as C(1..depth); at step k, ``a`` is column k of
    ``L diag(v)`` on rows k..depth, so ``v_k = a[0]``. Shifting ``a`` down
    one row and rotating with the reflection coefficient ``g = b[0] / v_k``
    gives the next pair, with ``v_{k+1} = v_k (1 - g^2)``.

    Yields column k of ``L diag(v)``, rows k..depth, for k = 0..depth. The
    arrays are fresh at each step, so callers may keep them.

    A step with |g| >= 1 is the nonpositive-variance case: T is not positive
    definite. With ``floor=None`` it raises ``ValueError`` naming the step
    k + 1. With a floor it warns and scales ``b`` so that |g| becomes
    sqrt(max(0, 1 - floor / v_k)), so ``v_{k+1} = min(floor, v_k)`` and
    every v stays positive. Scaling ``b`` by s adds the positive
    semidefinite matrix (1 - s^2) B B^T / v_k to the Schur complement left
    after step k, B the lower triangular Toeplitz matrix of ``b``: the later
    rows are those of that regularised matrix, not of T.
    """
    c = np.asarray(c, dtype=float)
    if len(c) < depth + 1:
        raise ValueError("autocovariance sequence shorter than recursion depth")
    if c[0] <= 0.0:
        raise ValueError("C(0) must be positive")
    a = c[: depth + 1].copy()
    b = a[1:]
    for k in range(depth):
        yield a
        head, v = a[:-1], a[0]
        g = b[0] / v
        floored = abs(g) >= 1.0
        if floored:
            if floor is None:
                raise ValueError(
                    f"innovations variance nonpositive at step {k + 1}: "
                    "input is not a positive definite autocovariance")
            warnings.warn(
                f"flooring nonpositive innovations variance at step {k + 1}")
            clipped = math.copysign(math.sqrt(max(0.0, 1.0 - floor / v)), g)
            b = b * (clipped / g)
            g = clipped
        a, b = head - g * b, (b - g * head)[1:]
        if floored:
            # exact where floor / v is below the rounding unit, so the
            # rotation would round v_{k+1} to zero
            a[0] = min(floor, v)
    yield a


def innovations(c, floor=None):
    """Innovations algorithm on an autocovariance sequence C(0..n).

    Runs the Schur recursion of ``_innovations_core`` in O(n^2) time; the
    returned triangle itself takes O(n^2) memory.

    Parameters
    ----------
    c : array_like
        Autocovariances C(0), ..., C(n) with C(0) > 0.
    floor : float, optional
        If given, nonpositive prediction variances are floored at this value
        with a warning instead of raising (for noisy empirical inputs); see
        ``_innovations_core`` for what the later rows hold.

    Returns
    -------
    theta : ndarray, shape (n+1, n+1)
        One-step predictor coefficients; ``theta[k, j]`` holds theta_{k,j}
        for 1 <= j <= k, zeros elsewhere.
    v : ndarray, shape (n+1,)
        Mean-square one-step prediction errors v_0, ..., v_n; non-increasing
        toward the innovation variance.
    """
    c = np.asarray(c, dtype=float)
    depth = len(c) - 1
    factor = np.zeros((depth + 1, depth + 1))
    for k, col in enumerate(_innovations_core(c, depth, floor=floor)):
        factor[k:, k] = col
    v = factor.diagonal().copy()
    rows, cols = np.tril_indices(depth + 1, -1)
    theta = np.zeros_like(factor)
    theta[rows, rows - cols] = factor[rows, cols] / v[cols]
    return theta, v


def _innovations_last_row(c, depth, floor=None):
    """theta_{depth, 1..depth} and v_0..v_depth in O(depth) memory.

    Keeps only the last-row entry of each Schur column:
    ``theta_{depth, depth-k} = a_k[depth] / v_k``.
    """
    last = np.empty(depth + 1)
    v = np.empty(depth + 1)
    for k, col in enumerate(_innovations_core(c, depth, floor=floor)):
        last[k] = col[-1]
        v[k] = col[0]
    return (last[:depth] / v[:depth])[::-1], v


def durbin_levinson(c, order):
    """Yule-Walker AR(order) fit via the Durbin-Levinson recursion.

    Returns ``(phi, v)`` with the AR coefficients and the one-step prediction
    variance. Raises on inputs that are not positive definite.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    c = np.asarray(c, dtype=float)
    if len(c) < order + 1:
        raise ValueError("need autocovariances up to the requested order")
    if c[0] <= 0.0:
        raise ValueError("C(0) must be positive")
    phi = np.empty(0)
    v = c[0]
    for k in range(1, order + 1):
        acc = c[k] - phi @ c[k - 1 : 0 : -1] if k > 1 else c[1]
        kappa = acc / v
        if not (abs(kappa) < 1.0):
            raise ValueError("input is not a positive definite autocovariance")
        phi = np.r_[phi - kappa * phi[::-1], kappa]
        v = v * (1.0 - kappa * kappa)
    return phi, float(v)


def _ma_depth(q):
    return max(200, 20 * q)


def fit_ma(c, q):
    """Invertible MA(q) fit by the innovations recursion on lags C(0..).

    The last-row coefficients theta_{n,1..q} at depth n = max(200, 20q),
    or less if ``c`` is shorter, approximate the Wold coefficients; the
    noise variance uses the variance-matching normalization

        sigma^2 = (1 + theta_1^2 + ... + theta_q^2)^{-1} * integral(f)

    so the fitted spectral density integrates to C(0) exactly.

    Returns ``(theta, sigma2)``.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    c = np.asarray(c, dtype=float)
    depth = min(_ma_depth(q), len(c) - 1)
    if depth < q:
        raise ValueError("not enough autocovariance lags for the requested order")
    if q == 0:
        return np.empty(0), float(c[0])
    last, _ = _innovations_last_row(c, depth, floor=_VAR_FLOOR)
    theta = last[:q]
    sigma2 = float(c[0] / (1.0 + theta @ theta))
    if min_root_modulus(theta, "ma") < 1.0:
        raise RuntimeError("innovations fit produced a non-invertible MA polynomial")
    return theta, sigma2


def fit_ar(c, p):
    """Causal AR(p) Yule-Walker fit on lags C(0..n), n >= p: (phi, sigma2)."""
    return durbin_levinson(c, p)


@dataclass
class ApproximationCertificate:
    """Certified approximation error of a fitted operator against its target."""

    kind: str
    epsilon: float
    norm: str
    l_trunc: int
    order: int
    per_multipole: list
    tail_error: float
    total_l2: float
    total_trace: float
    passed: bool
    order_cap_reached: bool = False

    def to_json(self):
        return {
            "schema": 1,
            "kind": self.kind,
            "epsilon": self.epsilon,
            "norm": self.norm,
            "L_trunc": self.l_trunc,
            "order": self.order,
            "per_multipole": [
                {"l": l, "order": o, "sup_error": e} for l, o, e in self.per_multipole
            ],
            "tail_error": self.tail_error,
            "total_l2": self.total_l2,
            "total_trace": self.total_trace,
            "passed": self.passed,
            "order_cap_reached": self.order_cap_reached,
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)


def _multipole_lags(target, l, max_lag):
    """C_l(0..max_lag) of a target: exact for a rational one, trapezoid
    lags of the table for a tabulated one. Both are prefix-stable."""
    if target.form == "rational":
        return model_autocovariance(target.model, l, max_lag)
    return trapezoid_lags(target.lam, target.table[l], max_lag)


def _order_schedule(cap, start=0):
    if cap <= start:
        return [min(start, cap)]
    orders = [0, 1]
    while orders[-1] < cap:
        orders.append(min(2 * orders[-1], cap))
    return [start] + [o for o in orders if o > start]


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
    diff = f1.values(lams) - f2.values(lams)
    return _sup_operator_norm(diff, norm) + f1.tail_bound + f2.tail_bound


def _sup_operator_norm(diff, norm):
    """sup over lambda of the operator norm of per-multipole differences.

    ``diff`` has shape (L+1, n_lams); ``l2_kernel`` is
    sqrt(sum_l (2l+1) diff_l^2) and ``trace`` is sum_l (2l+1) |diff_l|.
    """
    deg = (2 * np.arange(len(diff)) + 1)[:, None]
    if norm == "l2_kernel":
        per_lam = np.sqrt((deg * diff**2).sum(axis=0))
    elif norm == "trace":
        per_lam = (deg * np.abs(diff)).sum(axis=0)
    else:
        raise ValueError("norm must be 'l2_kernel' or 'trace'")
    return float(per_lam.max())


def approximate_operator(target, eps, kind, norm="l2_kernel",
                         order_cap=DEFAULT_ORDER_CAP):
    """Fit an invertible SPHMA(q) or causal SPHAR(p) within eps of the target.

    The full stored band is retained (its above-band tail must already fit
    the eps/2 tail budget); each multipole's order is doubled until the sup
    error over ``frequency_grid()`` fits the proof budget eps / (2 (L+1)^2) or
    the order cap is hit. The certificate records per-multipole sup errors
    and the realized totals in both norms; it passes iff the total in the
    requested norm is at most eps.

    Returns ``(model, certificate)``.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if kind not in ("ma", "ar"):
        raise ValueError("kind must be 'ma' or 'ar'")
    if norm not in ("l2_kernel", "trace"):
        raise ValueError("norm must be 'l2_kernel' or 'trace'")
    L = target.band_limit
    lam = frequency_grid()
    F = target.values(lam)
    budget = eps / (2.0 * (L + 1) ** 2)
    tail_error = target.tail_bound
    if tail_error > eps / 2.0:
        warnings.warn("stored band tail exceeds the eps/2 budget; cannot certify")

    fitted_ar = []
    fitted_ma = []
    noise = np.empty(L + 1)
    per_multipole = []
    fitted_rows = np.empty_like(F)
    cap_reached = False

    # a tabulated target resolves lags up to about a quarter of its grid
    resolved = math.inf if target.form == "rational" else len(target.lam) // 4
    for l in range(L + 1):
        best = None
        # a rational target that is already purely of the requested kind is a
        # fixed point: never fit below its own order
        start = 0
        if target.form == "rational":
            t_ar, t_ma = target.model.ar[l], target.model.ma[l]
            if kind == "ma" and len(t_ar) == 0:
                start = len(t_ma)
            elif kind == "ar" and len(t_ma) == 0:
                start = len(t_ar)
        schedule = _order_schedule(order_cap, start)
        depths = [_ma_depth(o) if kind == "ma" else o for o in schedule]
        # the lags are prefix-stable: one fetch at the deepest depth of the
        # schedule, and each order reads a prefix
        lags = _multipole_lags(target, l, max(depths))
        for order, depth in zip(schedule, depths):
            if depth > resolved:
                warnings.warn("frequency grid is coarse for the requested lag depth")
            c = lags[: depth + 1]
            if kind == "ma":
                try:
                    theta, sigma2 = fit_ma(c, order)
                except RuntimeError:
                    # a non-invertible fit certifies nothing; try the next order
                    continue
                coeffs = (np.empty(0), theta)
            else:
                phi, sigma2 = fit_ar(c, order)
                coeffs = (phi, np.empty(0))
            row = rational_density(coeffs[0], coeffs[1], sigma2, lam)
            err = float(np.abs(row - F[l]).max())
            if best is None or err < best[0]:
                best = (err, order, coeffs, sigma2, row)
            if err <= budget:
                break
        if best is None:
            raise ValueError(f"no invertible MA fit at multipole {l}")
        err, order, coeffs, sigma2, row = best
        if err > budget:
            cap_reached = True
        fitted_ar.append(coeffs[0])
        fitted_ma.append(coeffs[1])
        noise[l] = sigma2
        fitted_rows[l] = row
        per_multipole.append((l, order, err))

    model = SpharmaModel(L, fitted_ar, fitted_ma, noise)
    diff = fitted_rows - F
    total_l2 = _sup_operator_norm(diff, "l2_kernel") + tail_error
    total_trace = _sup_operator_norm(diff, "trace") + tail_error
    total = total_l2 if norm == "l2_kernel" else total_trace
    cert = ApproximationCertificate(
        kind=kind, epsilon=eps, norm=norm, l_trunc=L,
        order=max(o for _, o, _ in per_multipole),
        per_multipole=per_multipole, tail_error=tail_error,
        total_l2=total_l2, total_trace=total_trace,
        passed=bool(total <= eps), order_cap_reached=cap_reached,
    )
    return model, cert


@dataclass
class WoldResult:
    """Per-multipole Wold coefficients and innovation variances.

    ``residual_per_l`` is C_l(0) - sigma_l^2 * sum_{j <= n_psi} psi_{l;j}^2.
    For a purely nondeterministic multipole that is the dropped tail
    sigma_l^2 * sum_{j > n_psi} psi_{l;j}^2; a residual clearly above it
    signals a deterministic component.
    """

    psi: np.ndarray
    sigma2: np.ndarray
    residual_per_l: np.ndarray

    @property
    def band_limit(self):
        return self.psi.shape[0] - 1

    @property
    def n_psi(self):
        return self.psi.shape[1] - 1

    @property
    def sigma2_total(self):
        """One-step prediction error sum_l (2l+1) sigma_l^2."""
        deg = 2 * np.arange(self.band_limit + 1) + 1
        return float(deg @ self.sigma2)

    @property
    def residual_total(self):
        deg = 2 * np.arange(self.band_limit + 1) + 1
        return float(deg @ self.residual_per_l)

    def spectral_density(self, lams):
        """f_l(lambda) = |psi_l(e^{-i lambda})|^2 sigma_l^2 / (2 pi)."""
        lams = np.asarray(lams, dtype=float)
        return np.vstack([rational_density(np.empty(0), psi[1:], sigma2, lams)
                          for psi, sigma2 in zip(self.psi, self.sigma2)])


def wold(acv, n_psi):
    """Wold decomposition per multipole from an autocovariance table.

    Runs the innovations recursion to a depth well beyond ``n_psi`` and reads
    off psi_{l;j} = theta_{depth,j} and sigma_l^2 = v_depth. Multipoles whose
    innovation variance collapses below ``_WOLD_VARIANCE_TOL * C_l(0)`` are
    rejected (deterministic subprocess).
    """
    if n_psi < 0:
        raise ValueError("n_psi must be nonnegative")
    if acv.max_lag < n_psi:
        raise ValueError("autocovariance table shorter than requested psi count")
    depth = min(acv.max_lag, max(200, n_psi + 150))
    if depth < max(200, n_psi + 150):
        warnings.warn("few autocovariance lags; Wold coefficients may be biased")
    L = acv.band_limit
    psi = np.empty((L + 1, n_psi + 1))
    sigma2 = np.empty(L + 1)
    residual = np.empty(L + 1)
    for l in range(L + 1):
        c = acv.values[l]
        last, v = _innovations_last_row(c, depth)
        if v[-1] < _WOLD_VARIANCE_TOL * c[0]:
            raise ValueError(f"innovation variance vanishes at multipole {l}")
        psi[l, 0] = 1.0
        psi[l, 1:] = last[:n_psi]
        sigma2[l] = v[-1]
        residual[l] = c[0] - sigma2[l] * (psi[l] @ psi[l])
    return WoldResult(psi, sigma2, residual)


def h_step_error(w, h):
    """h-step prediction error sum_l (2l+1) sigma_l^2 sum_{j<h} psi_{l;j}^2."""
    if h < 1:
        raise ValueError("h must be at least 1")
    deg = 2 * np.arange(w.band_limit + 1) + 1
    head = w.psi[:, : min(h, w.n_psi + 1)]
    return float(deg @ (w.sigma2 * (head * head).sum(axis=1)))


@dataclass
class L2CheckResult:
    """Monte Carlo pointwise reconstruction error at a fixed node."""

    mse: float
    stderr: float
    n_used: int
    mode: str


def l2_omega_check(true_model, fitted_model, n_mc, seed):
    """Mean-square error of reconstructing the field from shared innovations.

    The true model is simulated together with its innovations; the fitted
    model is then driven by those same innovation streams:

    * pure MA fit: reconstruction z(t) + sum_j theta_j z(t-j) per stream
      (plus the bare z(t) for multipoles above the fitted band limit);
    * pure AR fit: the residual a(t) - sum_j phi_j a(t-j) - z(t) is the
      reconstruction error directly;
    * general ARMA: the fitted recursion is run on the innovations.

    The error field is evaluated at ``_L2_CHECK_NODE`` = (colat, lon) and
    averaged over time after a warm-up (the fitted AR order for an AR fit,
    else the MA order or the decay length of the AR roots, at most 2000 and
    half the run); the standard error comes from batch means.
    """
    if not check_causal(true_model).causal:
        raise ValueError("true model is not causal")
    fitted_report = check_causal(fitted_model)
    if not fitted_report.causal:
        raise ValueError("fitted model is not causal")
    if fitted_model.band_limit > true_model.band_limit:
        raise ValueError("fitted band limit exceeds the true model's")

    config = SimulationConfig(seed=seed, n=n_mc)
    series, innov = simulate_spharma(true_model, config, return_innovations=True)
    L_true, L_fit = true_model.band_limit, fitted_model.band_limit
    mode = ("ma" if fitted_model.p == 0 else
            "ar" if fitted_model.q == 0 else "arma")
    if mode == "ar":
        warmup = fitted_model.p
    else:
        xi = fitted_report.min_root_modulus
        warmup = (fitted_model.q if math.isinf(xi) else
                  min(2000, decay_length(xi, 1e-8)))
    warmup = min(warmup, n_mc // 2)

    err = np.empty_like(series.values)
    for l in range(L_true + 1):
        rows = slice(l * l, l * l + 2 * l + 1)
        a = series.values[rows]
        z = innov.values[rows]
        if l > L_fit:
            err[rows] = a - z
            continue
        if mode == "ar":
            err[rows] = arma_filter([], -fitted_model.ar[l], a) - z
        else:
            err[rows] = a - arma_filter(fitted_model.ar[l], fitted_model.ma[l], z)

    Y = harmonic_values_at(L_true, *_L2_CHECK_NODE)
    e_node = Y[stream_index(L_true)] @ err
    tail = e_node[warmup:] ** 2
    return L2CheckResult(float(tail.mean()), batch_means_se(tail),
                         len(tail), mode)
