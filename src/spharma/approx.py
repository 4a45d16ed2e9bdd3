"""Constructive MA/AR approximation of spectral density operators.

Scalar machinery per multipole: the innovations algorithm (one-step
prediction coefficients and errors from an autocovariance sequence) and the
Durbin-Levinson solution of the Yule-Walker equations, cf. Brockwell & Davis,
"Time Series: Theory and Methods", chapters 5 and 8. The innovations rows
are the Cholesky factor of the Toeplitz matrix of C(0..n); the Schur
algorithm (Kailath & Sayed, "Fast Reliable Algorithms for Matrices with
Structure", SIAM 1999, ch. 1) computes the last row, which the MA fits and
the Wold decomposition read, in O(n^2) time and O(n) memory. The Wold
decomposition truncated at n_psi terms is returned as an SPHMA(n_psi)
``SpharmaModel``, so its spectral density and h-step prediction errors are
those of any model.

Operator-level machinery: given target spectral eigenvalues f_l(lambda) and
a tolerance eps, fit an invertible MA(q) or causal AR(p) per multipole,
escalating the order until the per-multipole sup error fits the budget
eps / (2 (L+1)^2); the band tail above L is charged eps/2. Certificates
report per-multipole and total errors in the kernel-L2 and trace norms, with
the sup over frequency evaluated on a shared grid.

Process-level error: ``l2_omega_error`` is the exact mean-square error, at
any point of the sphere, of reconstructing a causal field from its own
innovations through a fitted model. Each multipole's error filter is
rational, so its energy is a quadratic form in the numerator with the
Toeplitz matrix of exact AR lags of the denominator; nothing is simulated
or truncated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    SpharmaModel,
    check_causal,
    min_root_modulus,
    model_autocovariance,
    model_autocovariance_table,
    psi_coefficients,
)
from .spectral import frequency_grid, rational_density, trapezoid_lags

DEFAULT_ORDER_CAP = 256
_VAR_FLOOR = 1e-12
_WOLD_VARIANCE_TOL = 1e-10  # wold: least innovation variance, relative to C_l(0)


def _innovations_last_row(c, depth, floor=None):
    """theta_{depth, 1..depth} and v_0..v_depth by the Schur algorithm.

    The innovations rows of C(0..depth) are the rows of the factorisation
    T = L diag(v) L^T of the Toeplitz matrix T[i, j] = C(|i - j|), with L
    unit lower triangular and ``theta_{i, i-k} = L[i, k]``. Schur's
    algorithm (Kailath & Sayed, "Fast Reliable Algorithms for Matrices with
    Structure", ch. 1) computes that factor column by column from two
    generator vectors, in O(depth^2) time and O(depth) memory: ``a`` starts
    as C(0..depth) and ``b`` as C(1..depth); at step k, ``a`` is column k of
    ``L diag(v)`` on rows k..depth, so ``v_k = a[0]`` and
    ``theta_{depth, depth-k} = a[-1] / v_k``. Shifting ``a`` down one row
    and rotating with the reflection coefficient ``g = b[0] / v_k`` gives
    the next pair, with ``v_{k+1} = v_k (1 - g^2)``. Row i of the triangle
    is the last row at depth i.

    A step with |g| >= 1 is the nonpositive-variance case: T is not positive
    definite. With ``floor=None`` it raises ``ValueError`` naming the step
    k + 1. With a floor (for noisy empirical inputs) it warns and scales
    ``b`` so that |g| becomes sqrt(max(0, 1 - floor / v_k)), so
    ``v_{k+1} = min(floor, v_k)`` and every v stays positive. Scaling ``b``
    by s adds the positive semidefinite matrix (1 - s^2) B B^T / v_k to the
    Schur complement left after step k, B the lower triangular Toeplitz
    matrix of ``b``: the later rows are those of that regularised matrix,
    not of T.
    """
    c = np.asarray(c, dtype=float)
    if len(c) < depth + 1:
        raise ValueError("autocovariance sequence shorter than recursion depth")
    if c[0] <= 0.0:
        raise ValueError("C(0) must be positive")
    a = c[: depth + 1].copy()
    b = a[1:]
    last = np.empty(depth)
    v = np.empty(depth + 1)
    for k in range(depth):
        head, vk = a[:-1], a[0]
        last[k] = a[-1]
        v[k] = vk
        g = b[0] / vk
        floored = abs(g) >= 1.0
        if floored:
            if floor is None:
                raise ValueError(
                    f"innovations variance nonpositive at step {k + 1}: "
                    "input is not a positive definite autocovariance")
            warnings.warn(
                f"flooring nonpositive innovations variance at step {k + 1}")
            clipped = math.copysign(math.sqrt(max(0.0, 1.0 - floor / vk)), g)
            b = b * (clipped / g)
            g = clipped
        a, b = head - g * b, (b - g * head)[1:]
        if floored:
            # exact where floor / v is below the rounding unit, so the
            # rotation would round v_{k+1} to zero
            a[0] = min(floor, vk)
    v[depth] = a[0]
    return (last / v[:depth])[::-1], v


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
    # phi_{k-1} is buf[:k-1]; step k overwrites it in place with phi_k
    buf = np.empty(order)
    v = c[0]
    for k in range(1, order + 1):
        phi = buf[: k - 1]
        acc = c[k] - phi @ c[k - 1 : 0 : -1] if k > 1 else c[1]
        kappa = acc / v
        if not (abs(kappa) < 1.0):
            raise ValueError("input is not a positive definite autocovariance")
        phi -= kappa * phi[::-1]
        buf[k - 1] = kappa
        v = v * (1.0 - kappa * kappa)
    return buf, float(v)


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


def _lag_table(target, max_lag):
    """C_l(0..max_lag) of a target for every l, one row per multipole: exact
    for a rational one, trapezoid lags of the table for a tabulated one."""
    if target.form == "rational":
        return model_autocovariance_table(target.model, max_lag).values
    return trapezoid_lags(target.lam, target.table, max_lag)


def _multipole_lags(target, l, max_lag):
    """Row l of ``_lag_table``, bit for bit. Both lag sources are prefix-stable."""
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
    the order cap is hit; on a tabulated target it also stops before the lag
    depth reaches the period of its grid's lags. The certificate records
    per-multipole sup errors and the realized totals in both norms; it
    passes iff the total in the requested norm is at most eps.

    Returns ``(model, certificate)``.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if kind not in ("ma", "ar"):
        raise ValueError("kind must be 'ma' or 'ar'")
    if norm not in ("l2_kernel", "trace"):
        raise ValueError("norm must be 'l2_kernel' or 'trace'")
    if order_cap < 0:
        raise ValueError("order_cap must be nonnegative")
    L = target.band_limit
    lam = frequency_grid()
    z = np.exp(1j * lam)
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

    # a tabulated target resolves lags up to about a quarter of its grid; its
    # lags have the grid's period N, and from depth N on C(N) = C(0) makes
    # the Toeplitz matrix singular, so the escalation stops short of it
    resolved = math.inf if target.form == "rational" else len(target.lam) // 4
    period = math.inf if target.form == "rational" else len(target.lam) - 1
    depth_of = _ma_depth if kind == "ma" else (lambda order: order)
    # the lags are prefix-stable, so each order reads a prefix of one table,
    # fetched for every multipole as deep as the default cap needs; only an
    # escalation past it fetches again, for its multipole, as deep as its
    # order needs
    table = _lag_table(target, depth_of(min(order_cap, DEFAULT_ORDER_CAP)))
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
        lags = table[l]
        for order in _order_schedule(order_cap, start):
            depth = depth_of(order)
            if order and depth >= period:
                break
            if depth > resolved:
                warnings.warn("frequency grid is coarse for the requested lag depth")
            if depth >= len(lags):
                lags = _multipole_lags(target, l, depth)
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
            row = rational_density(coeffs[0], coeffs[1], sigma2, z)
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


def wold(acv, n_psi):
    """Wold decomposition per multipole from an autocovariance table.

    Runs the innovations recursion to a depth well beyond ``n_psi`` and reads
    off psi_{l;j} = theta_{depth,j} and sigma_l^2 = v_depth. Multipoles whose
    innovation variance collapses below ``_WOLD_VARIANCE_TOL * C_l(0)`` are
    rejected (deterministic subprocess).

    Returns ``(model, residual_per_l)``: the SPHMA(n_psi) model with MA
    coefficients psi_{l;1..n_psi} and noise powers sigma_l^2, and
    C_l(0) - sigma_l^2 * sum_{j <= n_psi} psi_{l;j}^2. For a purely
    nondeterministic multipole that residual is the dropped tail
    sigma_l^2 * sum_{j > n_psi} psi_{l;j}^2; a residual clearly above it
    signals a deterministic component.
    """
    if n_psi < 0:
        raise ValueError("n_psi must be nonnegative")
    if acv.max_lag < n_psi:
        raise ValueError("autocovariance table shorter than requested psi count")
    depth = min(acv.max_lag, max(200, n_psi + 150))
    if depth < max(200, n_psi + 150):
        warnings.warn("few autocovariance lags; Wold coefficients may be biased")
    L = acv.band_limit
    ma = []
    sigma2 = np.empty(L + 1)
    residual = np.empty(L + 1)
    for l in range(L + 1):
        c = acv.values[l]
        last, v = _innovations_last_row(c, depth)
        if v[-1] < _WOLD_VARIANCE_TOL * c[0]:
            raise ValueError(f"innovation variance vanishes at multipole {l}")
        psi = np.r_[1.0, last[:n_psi]]
        ma.append(psi[1:])
        sigma2[l] = v[-1]
        residual[l] = c[0] - sigma2[l] * (psi @ psi)
    return SpharmaModel(L, [np.empty(0)] * (L + 1), ma, sigma2), residual


def h_step_error(model, h):
    """h-step prediction error sum_l (2l+1) sigma_l^2 sum_{j<h} psi_{l;j}^2
    of a causal model."""
    if h < 1:
        raise ValueError("h must be at least 1")
    L = model.band_limit
    deg = 2 * np.arange(L + 1) + 1
    head = np.vstack([psi_coefficients(model, l, h - 1) for l in range(L + 1)])
    return float(deg @ (model.noise * (head * head).sum(axis=1)))


def l2_omega_error(true_model, fitted_model):
    """Exact mean-square error of reconstructing the field from its innovations.

    The fitted model is driven by the true model's innovations z, and the
    error at each multipole is the filter d_l(B) z with, per case:

    * AR fit (every q_l = 0, some p_l > 0): the residual
      phi_fit(B) a - z, so d = phi_fit theta_true / phi_true - 1;
    * MA or ARMA fit: a - (theta_fit / phi_fit)(B) z, so
      d = theta_true / phi_true - theta_fit / phi_fit;
    * multipoles above the fitted band limit: a - z.

    Each d = N / D is rational, with N = P theta_true R - Q phi_true and
    D = phi_true R for (P, Q, R) = (phi_fit, 1, 1), (1, theta_fit, phi_fit)
    or (1, 1, 1). Then sum_j d_j^2 = N^T T N, T the Toeplitz matrix of the
    lags of the unit-noise AR with polynomial D, which
    ``model_autocovariance`` gives exactly. The field is isotropic, so the
    error at any point is

        sum_l (2l+1)/(4 pi) sigma_{true,l}^2 N_l^T T_l N_l,

    with nothing truncated; a fitted model equal to the true one gives
    exactly 0.
    """
    if not check_causal(true_model).causal:
        raise ValueError("true model is not causal")
    if not check_causal(fitted_model).causal:
        raise ValueError("fitted model is not causal")
    if fitted_model.band_limit > true_model.band_limit:
        raise ValueError("fitted band limit exceeds the true model's")
    ar_fit = fitted_model.q == 0 and fitted_model.p > 0
    one = np.ones(1)
    total = 0.0
    for l in range(true_model.band_limit + 1):
        phi_t = np.r_[1.0, -true_model.ar[l]]
        theta_t = np.r_[1.0, true_model.ma[l]]
        P = Q = R = one
        if l <= fitted_model.band_limit:
            phi_f = np.r_[1.0, -fitted_model.ar[l]]
            if ar_fit:
                P = phi_f
            else:
                Q, R = np.r_[1.0, fitted_model.ma[l]], phi_f
        # a fitted model equal to the truth convolves the same arrays in the
        # same order on both sides, so N is exactly 0
        a = np.convolve(P, np.convolve(theta_t, R))
        b = np.convolve(Q, phi_t)
        num = np.zeros(max(len(a), len(b)))
        num[: len(a)] = a
        num[: len(b)] -= b
        den = np.convolve(phi_t, R)
        unit = SpharmaModel(0, [-den[1:]], [np.empty(0)], [1.0])
        lags = model_autocovariance(unit, 0, len(num) - 1)
        k = np.arange(len(num))
        total += (2 * l + 1) * true_model.noise[l] * (
            num @ lags[np.abs(k[:, None] - k)] @ num)
    return float(total / (4.0 * math.pi))
