"""Constructive MA/AR approximation of spectral density operators.

Per multipole (Brockwell & Davis, "Time Series: Theory and Methods",
chapters 5 and 8), MA fits truncate the Wold factor and AR fits come from
one Schur recursion on the lags; ``approximate_operator`` scans the orders
and certifies the fit, and ``l2_omega_error`` is a fit's process-level
error. A model that is not causal, true or fitted, is refused with the one
"model is not causal at multipoles [...]".
"""

from __future__ import annotations

import math
import warnings
from itertools import islice

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


def _schur_steps(c, depth):
    """``(kappa_k, a_k)``, k = 0..depth, of Schur's algorithm on C(0..depth).

    T[i, j] = C(|i - j|) is L diag(v) L^T, L unit lower triangular, whose
    rows are the innovations rows, theta_{i, i-k} = L[i, k]. Schur's
    algorithm (Kailath & Sayed, "Fast Reliable Algorithms for Matrices with
    Structure", SIAM 1999, ch. 1) gives a_k, column k of L diag(v) on rows
    k..depth, in O(depth) memory: v_k = a_k[0], theta_{depth, depth-k} =
    a_k[-1] / v_k, and v_{k+1} = v_k (1 - kappa_{k+1}^2), kappa_0 = 0. A
    |kappa| >= 1 means T is not positive definite: ``ValueError`` names step
    k + 1, which reads only C(0..k + 1). Every step is elementwise, so the
    first d steps are the same bits at every depth >= d.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    c = np.asarray(c, dtype=float)
    if len(c) < depth + 1:
        raise ValueError("autocovariance sequence shorter than recursion depth")
    if c[0] <= 0.0:
        raise ValueError("C(0) must be positive")
    a = c[: depth + 1].copy()
    b, g = a[1:], 0.0
    for k in range(depth):
        yield g, a
        head = a[:-1]
        g = b[0] / a[0]
        if not abs(g) < 1.0:
            raise ValueError(
                f"prediction variance nonpositive at step {k + 1}: "
                "input is not a positive definite autocovariance")
        a, b = head - g * b, (b - g * head)[1:]
    yield g, a


def _innovations_last_row(c, depth):
    """theta_{depth, 1..depth} and v_0..v_depth of C(0..depth) (above)."""
    v, last = np.array([(a[0], a[-1]) for _, a in _schur_steps(c, depth)]).T
    return (last[:-1] / v[:depth])[::-1], v


def durbin_levinson(c, order):
    """Yule-Walker AR(order) fit ``(phi, v_order)``: Levinson's step-up on the
    reflection coefficients of ``_schur_steps`` as they are yielded, in place,
    phi_k = [phi_{k-1} - kappa_k reversed(phi_{k-1}), kappa_k]."""
    steps = _schur_steps(c, order)
    _, a = next(steps)  # kappa_0 = 0; checks the input before phi is made
    phi = np.empty(order)
    for k, (kappa, a) in enumerate(steps):
        phi[:k] -= kappa * phi[:k][::-1]
        phi[k] = kappa
    return phi, float(a[0])


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


def _ma_densities(psi, c0, z, last):
    """``(q, f_q(z))`` for q = 0..last, f_q the density of ``fit_ma(psi, c0,
    q)``, by theta_q(z) = theta_{q-1}(z) + psi_q z^q in O(len(z)) per order,
    while ``psi`` lasts and is finite."""
    s, zq = np.ones_like(z), np.ones_like(z)
    for q in range(min(last, len(psi) - 1 if np.isfinite(psi[0]) else 0) + 1):
        if q:
            zq *= z
            s += psi[q] * zq
        sigma2 = c0 / (1.0 + psi[1 : q + 1] @ psi[1 : q + 1])
        yield q, sigma2 / TWO_PI * (s.real**2 + s.imag**2)


def _ar_densities(lags, z, last):
    """``(p, f_p(z))`` for p = 0..last, f_p = v_p / (2 pi |A_p(z)|^2) the
    density of ``fit_ar`` at order p, by the Levinson-Szego step A_p(z) =
    A_{p-1}(z) - kappa_p z^p conj(A_{p-1}(z)) in O(len(z)) per order.
    ``lags(p)`` holds C(0..p) at least; a longer row restarts the Schur pass,
    whose first steps it repeats bit for bit."""
    A, zp = np.ones_like(z), np.ones_like(z)
    c = ()
    for p in range(last + 1):
        if p == len(c):
            c = lags(p)
            steps = islice(_schur_steps(c, len(c) - 1), p, None)
        kappa, a = next(steps)
        A -= kappa * zp * A.conj()
        zp *= z
        yield p, a[0] / TWO_PI / (A.real**2 + A.imag**2)


def _sup_totals(diff):
    """sup over lambda of the operator norms of per-multipole differences,
    ``(l2_kernel, trace)``.

    ``diff`` has shape (L+1, n_lams); ``l2_kernel`` is
    sqrt(sum_l (2l+1) diff_l^2) and ``trace`` is sum_l (2l+1) |diff_l|.
    """
    deg = (2 * np.arange(len(diff)) + 1)[:, None]
    return (float(np.sqrt((deg * diff**2).sum(axis=0)).max()),
            float((deg * np.abs(diff)).sum(axis=0).max()))


def approximate_operator(target, eps, kind, norm="l2_kernel",
                         order_cap=DEFAULT_ORDER_CAP):
    """Fit an invertible SPHMA(q) or causal SPHAR(p) within eps of the target.

    The band tail above L must fit eps/2; each multipole gets eps / (2
    (L+1)^2) of sup error over ``frequency_grid()``. Each distinct row (keyed
    as in ``spectral_factor``) scans its orders from its start (its own order
    for a pure target of the kind, else 0) to the cap, in O(N) each, and is
    fitted once, at the first order within budget whose fit is valid. MA
    fits truncate ``spectral_factor`` and must be invertible; past a scan's
    first root test, only the candidates (the start, the powers of two and
    the cap) are tested. An MA miss scans the factor of f_l + budget/4 too,
    which exists where f_l touches 0, with noise C_l(0) + 2 pi budget/4. The
    factor's end, lags not positive definite or a tabulated grid's lag
    period end a scan. A miss keeps the first valid fit of the nearest
    scanned order, then the candidates, nearest first. No lag table (not
    causal, or overflowing) raises ``ValueError`` before any density, and a
    row with no fit (C_l(0) = 0, say) when it is reached. ``passed`` iff the
    total in ``norm`` is at most eps; ``order_cap_reached`` iff a multipole
    scanned the cap and missed.

    Returns ``(model, certificate)``, the certificate as the CLI writes it to
    ``certificate.json``, less its ``config_hash``.
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
    # only; the AR scans share one table, deeper only past the default cap
    resolved, last = math.inf, order_cap
    if target.form == "tabulated":
        resolved, last = len(target.lam) // 4, min(order_cap, len(target.lam) - 2)
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

    def lag_row(l, p):  # row l of the shared table, twice as deep past its end
        nonlocal table
        if p >= table.shape[1]:
            table = autocov_table(target, min(2 * (table.shape[1] - 1), last))
        return table[l]

    def valid_fit(l, shift, order):  # (coefficients, sigma2), None if not invertible
        try:
            return (fit_ar(table[l, : order + 1], order) if kind == "ar" else
                    fit_ma(factors[shift][l], table[l, 0] + TWO_PI * shift, order))
        except RuntimeError:
            return None

    fits, factors, m = [], {}, target.model
    owner, reps = _distinct_rows(*(m.ar, m.ma, m.noise) if m else (target.table,))
    for l in reps:
        if table[l, 0] <= 0.0:
            raise ValueError(f"no fit at multipole {l}: C(0) must be positive")
        # a pure rational target of the requested kind is a fixed point
        pure = m is not None and not len((m.ar if kind == "ma" else m.ma)[l])
        start = min(len(getattr(m, kind)[l]) if pure else 0, order_cap)
        candidates = {0, start, order_cap}
        candidates.update(2**k for k in range(order_cap.bit_length()))
        scanned, fit, reason = {}, None, None
        for shift in (0.0, budget / 4.0) if kind == "ma" else (0.0,):
            if kind == "ma" and shift not in factors:
                factors[shift] = spectral_factor(target, shift)
            scan = (_ar_densities(lambda p: lag_row(l, p), z, last) if kind == "ar"
                    else _ma_densities(factors[shift][l],
                                       table[l, 0] + TWO_PI * shift, z, last))
            retest = False
            try:
                for order, row in islice(scan, start, None):
                    if kind == "ar" and order == resolved + 1:
                        warnings.warn("frequency grid is coarse for the "
                                      "requested lag depth")
                    err = scanned[shift, order] = float(np.abs(row - F[l]).max())
                    if err <= budget and (not retest or order in candidates):
                        if fit := valid_fit(l, shift, order):
                            break
                        retest = True
            except ValueError as exc:
                # lags not positive definite: every later order fails too
                reason = exc
            if fit:
                break
        else:
            # a miss: the nearest scanned order, then the candidates
            ranked = sorted(scanned, key=scanned.get)
            for shift, order in ranked[:1] + [k for k in ranked[1:]
                                              if k[1] in candidates]:
                if fit := valid_fit(l, shift, order):
                    break
            else:
                raise ValueError(f"no fit at multipole {l}: {reason}")
        coeffs = (fit[0], np.empty(0)) if kind == "ar" else (np.empty(0), fit[0])
        row = rational_density(*coeffs, fit[1], z)
        err = float(np.abs(row - F[l]).max())
        fits.append((err, order, coeffs, fit[1], row,
                     err > budget and any(o == order_cap for _, o in scanned)))

    errs, kept, coeffs, noise, rows, missed_at_cap = zip(*[fits[k] for k in owner])
    model = SpharmaModel(L, [c[0] for c in coeffs], [c[1] for c in coeffs],
                         np.array(noise))
    total_l2, total_trace = (s + tail_error for s in _sup_totals(np.array(rows) - F))
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
