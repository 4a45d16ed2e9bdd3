"""Constructive MA/AR approximation of spectral density operators.

Scalar machinery per multipole (Brockwell & Davis, "Time Series: Theory
and Methods", chapters 5 and 8): the Wold factor of a spectral density by
its cepstrum, whose truncations are the MA fits and whose weights give
``l2_omega_error`` its innovation variances; and one Schur recursion on a
lag sequence, whose reflection coefficients Levinson's step-up turns into
the AR fits. Its other readout, the last innovations row, serves no fit.

Operator-level machinery: given target spectral eigenvalues f_l(lambda) and
a tolerance eps, fit an invertible MA(q) or causal AR(p) per multipole
(every root at modulus >= 1 + 1e-6, the one rule of ``model._root_report``),
escalating the order until the per-multipole sup error fits the budget
eps / (2 (L+1)^2); the band tail above L is charged eps/2. The certificate
is the plain dict that the CLI writes as ``certificate.json``: per-multipole
and total errors in the kernel-L2 and trace norms, with the sup over
frequency evaluated on a shared grid.

Process-level error: ``l2_omega_error`` is the mean-square error, at any
point of the sphere, of reconstructing a field from its own Wold innovations
through a fitted model. For any target, rational or tabulated, it sums the
squared differences between the weights of the target's Wold factor and
those of the fit; nothing is simulated. A model that is not causal, true or
fitted, is refused with the one "model is not causal at multipoles [...]".
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .model import (SpharmaModel, _distinct_rows, _require_causal, _root_report,
                    arma_filter, decay_length)
from .spectral import (
    TWO_PI,
    autocov_table,
    frequency_grid,
    rational_density,
    trapezoid_lags,
)

DEFAULT_ORDER_CAP = 256
_CEPSTRUM_TOL = 1e-13  # spectral_factor: cepstral tail of a converged factor
_FACTOR_MAX_PANELS = 2**17  # spectral_factor: finest grid of a rational target


def _schur(c, depth):
    """theta_{depth, 1..depth}, v_0..v_depth and kappa_1..kappa_depth.

    The innovations rows of C(0..depth) are the rows of T = L diag(v) L^T,
    T[i, j] = C(|i - j|), L unit lower triangular, theta_{i, i-k} = L[i, k];
    row i is the last row at depth i. Schur's algorithm (Kailath & Sayed,
    "Fast Reliable Algorithms for Matrices with Structure", SIAM 1999,
    ch. 1) computes L column by column in O(depth^2) time and O(depth)
    memory: ``a`` starts as C(0..depth) and ``b`` as C(1..depth); at step k,
    ``a`` is column k of L diag(v) on rows k..depth, so v_k = a[0] and
    theta_{depth, depth-k} = a[-1] / v_k, and the reflection coefficient
    kappa_{k+1} = b[0] / v_k gives the next pair, v_{k+1} = v_k (1 -
    kappa_{k+1}^2). A step with |kappa| >= 1 means T is not positive
    definite: ``ValueError`` names step k + 1, which reads only C(0..k + 1),
    so a sequence fails there at every depth >= k + 1.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    c = np.asarray(c, dtype=float)
    if len(c) < depth + 1:
        raise ValueError("autocovariance sequence shorter than recursion depth")
    if c[0] <= 0.0:
        raise ValueError("C(0) must be positive")
    a = c[: depth + 1].copy()
    b = a[1:]
    last = np.empty(depth)
    v = np.empty(depth + 1)
    kappa = np.empty(depth)
    for k in range(depth):
        head, vk = a[:-1], a[0]
        last[k] = a[-1]
        v[k] = vk
        g = kappa[k] = b[0] / vk
        if not abs(g) < 1.0:
            raise ValueError(
                f"prediction variance nonpositive at step {k + 1}: "
                "input is not a positive definite autocovariance")
        a, b = head - g * b, (b - g * head)[1:]
    v[depth] = a[0]
    return (last / v[:depth])[::-1], v, kappa


def _innovations_last_row(c, depth):
    """theta_{depth, 1..depth} and v_0..v_depth of C(0..depth) (``_schur``)."""
    return _schur(c, depth)[:2]


def durbin_levinson(c, order):
    """Yule-Walker AR(order) fit ``(phi, v_order)``: Levinson's step-up on the
    reflection coefficients of ``_schur``, in place,
    phi_k = [phi_{k-1} - kappa_k reversed(phi_{k-1}), kappa_k]."""
    _, v, kappa = _schur(c, order)
    phi = np.empty(order)
    for k in range(order):
        phi[:k] -= kappa[k] * phi[:k][::-1]
        phi[k] = kappa[k]
    return phi, float(v[-1])


def spectral_factor(spec, shift=0.0):
    """Wold factor psi_{l;0..N/2} of f_l + shift, one row per multipole.

    Kolmogorov-Szego (Brockwell & Davis, section 5.8): with c_k the cepstrum
    of log f on ``frequency_grid(N)``, psi(z) = exp(sum_{k>=1} c_k z^k) and
    f = sigma^2/2pi |psi(e^{i lambda})|^2. A tabulated target is factored on
    its grid, and warns unless every |c_k| is below ``_CEPSTRUM_TOL`` over
    the last eighth of k <= N/2; a rational one on 4096 panels, each row's
    grid doubled up to ``_FACTOR_MAX_PANELS`` until it is (rows that stop
    sooner are zero-padded). A row not positive at every node is NaN. Each
    distinct row (a table row, or a model's ar, ma and noise) is factored once.
    """
    m = spec.model
    owner, reps = _distinct_rows(*(m.ar, m.ma, m.noise) if m else (spec.table,))
    lam = spec.lambda_grid()
    pending = np.arange(len(reps))
    psi = np.zeros((len(pending), 0))
    while len(pending):
        n = len(lam) - 1
        h = n // 2
        f = spec.values(lam, reps[pending]) + shift
        positive = np.all(f > 0.0, axis=-1)
        c = trapezoid_lags(lam, np.log(np.where(positive[:, None], f, 1)), h) / TWO_PI
        # sum c_k z^k at the N-th roots of unity; c_{N/2} is halved (folds +-N/2)
        e = np.zeros((len(f), n))
        e[:, 1 : h + 1] = c[:, 1:]
        e[:, h] /= 2 - n % 2
        rows = (np.fft.fft(np.exp(n * np.fft.ifft(e)))[:, : h + 1] / n).real
        psi = np.pad(psi, ((0, 0), (0, h + 1 - psi.shape[1])))
        psi[pending] = np.where(positive[:, None], rows, np.nan)
        tail = np.abs(c[:, max(1, h - h // 8) :]).max(axis=-1, initial=0.0)
        pending = pending[positive & (tail > _CEPSTRUM_TOL)]
        if spec.form == "tabulated" or 2 * n > _FACTOR_MAX_PANELS:
            break
        lam = frequency_grid(2 * n)
    if spec.form == "tabulated" and len(pending):
        warnings.warn("frequency grid is coarse for the spectral factor")
    return psi[owner]


def fit_ma(psi, c0, q):
    """Invertible MA(q) fit: the spectral factor ``psi`` truncated at q terms.

    theta = psi_1..psi_q, with the variance-matching noise
    sigma^2 = C(0) / (1 + theta_1^2 + ... + theta_q^2), so the fitted
    spectral density integrates to C(0) exactly. Returns ``(theta, sigma2)``;
    raises ``RuntimeError`` when the truncation has an MA root of modulus
    below 1 + 1e-6, the verdict of ``model._root_report`` that
    ``check_invertible`` gives.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    if c0 <= 0.0:
        raise ValueError("C(0) must be positive")
    theta = np.asarray(psi[1 : q + 1], dtype=float)
    if len(theta) < q or not np.all(np.isfinite(theta)):
        raise ValueError("no spectral factor with the requested order")
    sigma2 = float(c0 / (1.0 + theta @ theta))
    if not _root_report([theta], "ma").causal:
        raise RuntimeError("truncated spectral factor is not invertible")
    return theta, sigma2


def fit_ar(c, p):
    """Causal AR(p) Yule-Walker fit on lags C(0..n), n >= p: (phi, sigma2)."""
    return durbin_levinson(c, p)


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

    The stored band's tail must already fit the eps/2 tail budget. Each
    multipole's order is doubled until the sup error over ``frequency_grid()``
    fits the budget eps / (2 (L+1)^2) or the order cap is hit. MA(q) fits
    truncate ``spectral_factor``; a multipole that misses its budget, with
    C_l(0) > 0, escalates again on the factor of f_l + budget/4, which exists
    where f_l touches 0, with noise matched to C_l(0) + 2 pi budget/4. AR(p)
    fits read lags, short of a tabulated grid's lag period. A non-invertible
    fit moves on; lags not positive definite, or no factor that long, end an
    escalation. One rule picks the fit: the first that meets the budget,
    else the fit nearest f_l of all that either factor gave. A multipole
    with no fit (C_l(0) = 0, say) raises ``ValueError``, as does a target
    with no lag table (not causal, or overflowing), before any density is
    evaluated. The certificate passes iff the total in the requested norm is
    at most eps; ``order_cap_reached`` iff a multipole tried the cap's order
    and still missed its budget. Each distinct target row, keyed as
    ``spectral_factor`` keys rows, is escalated once; its repeats take its
    fit and record.

    Returns ``(model, certificate)``: the certificate is the JSON-ready dict
    that the CLI writes as ``certificate.json``, less its ``config_hash``.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if kind not in ("ma", "ar"):
        raise ValueError("kind must be 'ma' or 'ar'")
    if norm not in ("l2_kernel", "trace"):
        raise ValueError("norm must be 'l2_kernel' or 'trace'")
    if order_cap < 0:
        raise ValueError("order_cap must be nonnegative")
    # lags first, so their refusal comes before any density. A tabulated
    # target resolves lags up to a quarter of its grid, and from its period
    # N on, C(N) = C(0) makes the Toeplitz matrix singular. MA reads C_l(0)
    # only; each AR order reads a prefix of one table, deeper only past the
    # default cap
    resolved = math.inf if target.form == "rational" else len(target.lam) // 4
    period = math.inf if target.form == "rational" else len(target.lam) - 1
    table = autocov_table(target, 0 if kind == "ma" else
                          min(order_cap, DEFAULT_ORDER_CAP))
    L = target.band_limit
    lam = frequency_grid()
    z = np.exp(1j * lam)
    F = target.values(lam)
    budget = eps / (2.0 * (L + 1) ** 2)
    tail_error = target.tail_bound
    if tail_error > eps / 2.0:
        warnings.warn("stored band tail exceeds the eps/2 budget; cannot certify")

    fits, factors, m = [], {}, target.model
    owner, reps = _distinct_rows(*(m.ar, m.ma, m.noise) if m else (target.table,))
    for l in reps:
        best, reason, capped = None, None, False
        # a pure rational target of the requested kind is a fixed point
        pure = m is not None and not len((m.ar if kind == "ma" else m.ma)[l])
        start = len((m.ma if kind == "ma" else m.ar)[l]) if pure else 0
        orders = _order_schedule(order_cap, start)
        orders = [o for o in orders if kind == "ma" or o == 0 or o < period]
        for shift in (0.0, budget / 4.0) if kind == "ma" else (0.0,):
            if shift and (table[l, 0] <= 0.0 or best and best[0] <= budget):
                break
            if kind == "ma" and shift not in factors:
                factors[shift] = spectral_factor(target, shift)
            for order in orders:
                phi, theta = np.empty(0), np.empty(0)
                try:
                    if kind == "ma":
                        theta, sigma2 = fit_ma(factors[shift][l],
                                               table[l, 0] + TWO_PI * shift, order)
                    else:
                        if order > resolved:
                            warnings.warn("frequency grid is coarse for the "
                                          "requested lag depth")
                        if order >= table.shape[1]:
                            table = autocov_table(target, order)
                        phi, sigma2 = fit_ar(table[l, : order + 1], order)
                except RuntimeError as exc:
                    # a non-invertible fit certifies nothing; try the next order
                    reason = exc
                    continue
                except ValueError as exc:
                    # every later order fails too: the best fit so far stands
                    reason = exc
                    break
                row = rational_density(phi, theta, sigma2, z)
                err = float(np.abs(row - F[l]).max())
                if best is None or err < best[0]:
                    best = (err, order, (phi, theta), sigma2, row)
                if err <= budget:
                    break
            else:
                capped = orders[-1] == order_cap
        if best is None:
            raise ValueError(f"no fit at multipole {l}: {reason}")
        fits.append((*best, capped and best[0] > budget))

    errs, kept, coeffs, noise, rows, missed_at_cap = zip(*[fits[k] for k in owner])
    model = SpharmaModel(L, [c[0] for c in coeffs], [c[1] for c in coeffs],
                         np.array(noise))
    diff = np.array(rows) - F
    total_l2 = _sup_operator_norm(diff, "l2_kernel") + tail_error
    total_trace = _sup_operator_norm(diff, "trace") + tail_error
    total = total_l2 if norm == "l2_kernel" else total_trace
    cert = {"schema": 1, "kind": kind, "epsilon": eps, "norm": norm, "L_trunc": L,
            "order": max(kept),
            "per_multipole": [{"l": l, "order": o, "sup_error": e}
                              for l, o, e in zip(range(L + 1), kept, errs)],
            "tail_error": tail_error, "total_l2": total_l2,
            "total_trace": total_trace, "passed": bool(total <= eps),
            "order_cap_reached": any(missed_at_cap)}
    return model, cert


def _wold_weights(spec, c0, length):
    """``spectral_factor(spec)``, zero-padded to at least ``length`` terms, and
    sigma_l^2 = C_l(0) / sum_j psi_{l;j}^2; ``ValueError`` if a row has none."""
    psi = spectral_factor(spec)
    missing = np.flatnonzero(np.isnan(psi[:, 0]))
    if len(missing):
        raise ValueError(f"no spectral factor at multipole {missing[0]}")
    psi = np.pad(psi, ((0, 0), (0, max(0, length - psi.shape[1]))))
    return psi, c0 / (psi * psi).sum(axis=1)


def l2_omega_error(target, fitted_model):
    """Mean-square error of reconstructing the field from its Wold innovations.

    ``target`` is a spectrum, rational or tabulated, or a causal model read
    through ``.spectral()``. With psi_l its Wold factor (``spectral_factor``)
    and sigma_l^2 = C_l(0) / sum_j psi_{l;j}^2, the fit driven by the
    target's innovations errs at multipole l by a filter with weights d:
    phi_fit * psi - delta_0 for an AR fit (every q_l = 0, some p_l > 0),
    psi - g for an MA or ARMA fit with psi-weights g, and psi - delta_0 above
    the fitted band limit. The field is isotropic, so the error at any point
    is sum_l (2l+1)/(4 pi) sigma_l^2 sum_j d_{l;j}^2. psi is zero-padded to
    q_fit + 1 terms plus the fit's decay length to float64 eps, so fitted
    weights that outlast the factor are summed in full. For an invertible
    model the innovations are its driving noise. A row with no factor (f_l
    not positive at every node) raises ``ValueError``, and so does a nonzero
    ``tail_bound``: a sup bound on the tail gives no Wold weights. A true or
    fitted model that is not causal raises ``_require_causal``'s one
    ``ValueError``, the true one from its lag table (``autocov_table``).
    """
    if isinstance(target, SpharmaModel):
        target = target.spectral()
    if target.tail_bound:
        raise ValueError("a spectral tail bound gives no Wold weights")
    fit = _require_causal(fitted_model)
    if fitted_model.band_limit > target.band_limit:
        raise ValueError("fitted band limit exceeds the true model's")
    n = fitted_model.q + 1 + decay_length(fit, np.finfo(float).eps)
    psi, sigma2 = _wold_weights(target, autocov_table(target, 0)[:, 0], n)
    ar_fit = fitted_model.q == 0 and fitted_model.p > 0
    impulse = np.eye(1, psi.shape[1])[0]
    total = 0.0
    for l, row in enumerate(psi):
        if l > fitted_model.band_limit:
            d = row - impulse
        elif ar_fit:
            d = np.convolve(np.r_[1.0, -fitted_model.ar[l]], row)
            d[0] -= 1.0
        else:
            d = row - arma_filter(fitted_model.ar[l], fitted_model.ma[l], impulse)
        total += (2 * l + 1) * sigma2[l] * (d @ d)
    return float(total / (4.0 * math.pi))
