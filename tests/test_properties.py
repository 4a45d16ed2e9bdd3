"""Property tests over random causal ARMA models with p, q <= 3, and of the
spherical harmonic transforms."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from spharma import approx, cli, simulate, spectral, sphere

try:
    import mpmath
except ImportError:  # the abs2_on_circle property needs a 40-digit reference
    mpmath = None
try:
    from scipy.linalg import solve_triangular, toeplitz
    from scipy.signal import lfilter
except ImportError:  # oracles for the innovations recursion and arma_filter
    solve_triangular = toeplitz = lfilter = None
from spharma.model import (
    _FILTER_BLOCK,
    _ROOT_MARGIN,
    SpharmaModel,
    _filter_into,
    _padded_length,
    arma_filter,
    check_invertible,
    min_root_modulus,
    model_autocovariance,
    model_autocovariance_table,
    psi_coefficients,
)

from oracles import h_step_error, sht_forward, wold


@st.composite
def lag_poly(draw, max_order=3, min_root=1.25, max_root=3.0):
    """Ascending coefficients of c(z) with c(0) = 1 and all roots of modulus
    in [min_root, max_root], built from real roots and conjugate pairs."""
    budget = draw(st.integers(0, max_order))
    coeffs = np.array([1.0])
    while budget > 0:
        r = draw(st.floats(min_root, max_root))
        if budget >= 2 and draw(st.booleans()):
            w = draw(st.floats(0.0, math.pi))
            factor = np.array([1.0, -2.0 * math.cos(w) / r, 1.0 / r**2])
            budget -= 2
        else:
            r *= draw(st.sampled_from([-1.0, 1.0]))
            factor = np.array([1.0, -1.0 / r])
            budget -= 1
        coeffs = np.convolve(coeffs, factor)
    return coeffs


@st.composite
def causal_arma(draw):
    phi = -draw(lag_poly())[1:]
    theta = draw(lag_poly())[1:]
    noise = draw(st.floats(0.1, 10.0))
    return SpharmaModel(0, [phi], [theta], np.array([noise]))


@st.composite
def causal_sphere_arma(draw):
    """L <= 2 and, per multipole, AR and MA orders <= 2 drawn as in
    ``causal_arma``."""
    L = draw(st.integers(0, 2))
    ar = [-draw(lag_poly(max_order=2))[1:] for _ in range(L + 1)]
    ma = [draw(lag_poly(max_order=2))[1:] for _ in range(L + 1)]
    noise = draw(st.lists(st.floats(0.1, 10.0), min_size=L + 1, max_size=L + 1))
    return SpharmaModel(L, ar, ma, np.array(noise))


def recursion_oracle(phi, theta, count):
    """psi_0 = 1, psi_j = theta_j [j <= q] + sum_{k <= min(j, p)} phi_k psi_{j-k}."""
    psi = np.zeros(count + 1)
    psi[0] = 1.0
    for j in range(1, count + 1):
        acc = theta[j - 1] if j <= len(theta) else 0.0
        kmax = min(j, len(phi))
        if kmax:
            acc += phi[:kmax] @ psi[j - 1 :: -1][:kmax]
        psi[j] = acc
    return psi


@settings(max_examples=60, deadline=None)
@given(causal_arma())
def test_psi_weights_satisfy_the_arma_recursion(model):
    psi = psi_coefficients(model, 0, 200)
    oracle = recursion_oracle(model.ar[0], model.ma[0], 200)
    assert np.abs(psi - oracle).max() <= 1e-12 * np.abs(oracle).max()


@settings(max_examples=40, deadline=None)
@given(causal_arma())
def test_lags_and_frequencies_are_a_fourier_pair(model):
    max_lag = 20
    exact = model_autocovariance_table(model, max_lag)
    lam = spectral.frequency_grid()
    tab = spectral.SpectralEigenvalues.tabulated(lam, model.spectral().values(lam))
    back = spectral.autocov_table(tab, max_lag)
    assert np.abs(back - exact).max() <= 1e-11 * exact[:, 0].max()


@settings(max_examples=40, deadline=None)
@given(causal_arma())
def test_lags_survive_the_round_trip_through_the_frequency_grid(model):
    # spectral_from_autocov and trapezoid_lags are one DFT and its inverse
    # on frequency_grid(N): with 2 max_lag < N no lag aliases, and the roots
    # lie at modulus >= 1.25, so the lags beyond max_lag = 1000 are below
    # 1e-80 of C(0)
    max_lag = 1000
    lags = model_autocovariance(model, 0, max_lag)
    with warnings.catch_warnings():
        # lags of complex roots need not shrink from one lag to the next,
        # which the two-lag tail estimate flags; the tail is negligible here
        warnings.simplefilter("ignore")
        spec = spectral.spectral_from_autocov(lags[None, :])
    back = spectral.trapezoid_lags(spec.lam, spec.table, max_lag)[0]
    assert np.abs(back - lags).max() <= 1e-13 * lags[0]


def psi_sum_oracle(model, l, max_lag, terms):
    """C_{l;Z} sum_{j < terms} psi_j psi_{j+t}, the truncated Wold sum."""
    psi = psi_coefficients(model, l, terms + max_lag)
    return model.noise[l] * np.array(
        [psi[:terms] @ psi[t : t + terms] for t in range(max_lag + 1)])


@settings(max_examples=40, deadline=None)
@given(causal_arma())
def test_model_autocovariance_matches_the_psi_sum(model):
    # roots at modulus >= 1.25 with multiplicity <= 3: the psi weights beyond
    # 600 terms are below 1e-50 of the largest
    exact = model_autocovariance(model, 0, 60)
    oracle = psi_sum_oracle(model, 0, 60, 600)
    assert np.abs(exact - oracle).max() <= 1e-12 * oracle[0]


@settings(max_examples=40, deadline=None)
@given(causal_arma(), st.integers(0, 300))
def test_model_autocovariance_prefix_is_stable(model, max_lag):
    # approximate_operator computes each multipole's lags once, at the
    # deepest depth of its order schedule, and each order reads a prefix
    longer = model_autocovariance(model, 0, 4 * max_lag + 32)
    assert np.array_equal(longer[: max_lag + 1],
                          model_autocovariance(model, 0, max_lag))


def triangular_solve_oracle(c):
    """Innovations recursion with one triangular solve per step (cubic in n).

    Row i solves ``L[:i, :i] diag(v[:i]) x = C(i..1)`` for
    ``x = theta_{i, i..1}`` and sets ``v_i = C(0) - sum_k x_k^2 v_k``.
    """
    depth = len(c) - 1
    A = np.zeros((depth + 1, depth + 1))
    theta = np.zeros_like(A)
    v = np.empty(depth + 1)
    A[0, 0] = v[0] = c[0]
    for i in range(1, depth + 1):
        x = solve_triangular(A[:i, :i], c[i:0:-1], lower=True)
        v[i] = c[0] - (x * x) @ v[:i]
        A[i, :i] = x * v[:i]
        A[i, i] = v[i]
        theta[i, 1 : i + 1] = x[::-1]
    return theta, v


def innovations_triangle(c):
    """theta_{i, 1..i} in row i of an (n+1, n+1) array, and v_0..v_n: row i
    is the last row of the innovations recursion at depth i."""
    depth = len(c) - 1
    theta = np.zeros((depth + 1, depth + 1))
    for i in range(1, depth + 1):
        theta[i, 1 : i + 1], v = approx._innovations_last_row(c, i)
    return theta, v


@pytest.mark.skipif(lfilter is None, reason="needs scipy")
@settings(max_examples=40, deadline=None)
@given(causal_arma(), st.integers(1, 300))
def test_schur_innovations_match_the_triangular_solve(model, depth):
    c = model_autocovariance(model, 0, depth)
    theta, v = innovations_triangle(c)
    oracle_theta, oracle_v = triangular_solve_oracle(c)
    scale = np.abs(oracle_theta).max() or 1.0
    assert np.abs(theta - oracle_theta).max() <= 1e-10 * scale
    # the oracle's v_i = C(0) - sum cancels, so its error scales with C(0)
    assert np.abs(v - oracle_v).max() <= 1e-12 * c[0]
    # a shallower recursion runs the same steps, so its variances are a prefix
    _, short_v = approx._innovations_last_row(c, depth // 2)
    assert np.array_equal(short_v, v[: depth // 2 + 1])


@pytest.mark.skipif(lfilter is None, reason="needs scipy")
@settings(max_examples=40, deadline=None)
@given(causal_arma(), st.integers(1, 300))
def test_innovations_factor_rebuilds_the_toeplitz_matrix(model, depth):
    c = model_autocovariance(model, 0, depth)
    theta, v = innovations_triangle(c)
    rows, cols = np.tril_indices(depth + 1, -1)
    unit = np.eye(depth + 1)
    unit[rows, cols] = theta[rows, rows - cols]
    rebuilt = (unit * v) @ unit.T
    assert np.abs(rebuilt - toeplitz(c)).max() <= 1e-12 * c[0]


def _failures(recursion, c):
    """The error ``recursion(c, k)`` raises at each depth or order k, or None."""
    out = []
    for k in range(len(c)):
        try:
            recursion(c, k)
            out.append(None)
        except ValueError as exc:
            out.append(str(exc))
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12))
def test_a_failed_step_fails_at_every_later_depth(tail):
    # the AR scan in approximate_operator stops at the first order whose
    # recursion fails, because step k reads only C(0..k)
    c = np.r_[1.0, tail]
    for recursion in (approx._innovations_last_row, approx.durbin_levinson):
        errors = _failures(recursion, c)
        step = next((k for k, e in enumerate(errors) if e), None)
        if step is None:
            continue
        assert errors[:step] == [None] * step
        assert errors[step:] == [errors[step]] * (len(c) - step)
        assert f"at step {step}:" in errors[step]


@st.composite
def lags_failing_at(draw):
    """Lags C(0..n) with reflection coefficients |kappa_k| <= 0.9 before a
    step s and 1.1 <= |kappa_s| <= 2 at it, then arbitrary lags: not
    positive definite from step s on, by a margin no rounding can close.
    Returns ``(c, s)``."""
    step = draw(st.integers(1, 8))
    kappas = draw(st.lists(st.floats(-0.9, 0.9), min_size=step - 1,
                           max_size=step - 1))
    kappas.append(draw(st.floats(1.1, 2.0)) * draw(st.sampled_from([-1, 1])))
    tail = draw(st.lists(st.floats(-1.0, 1.0), max_size=6))
    # the Levinson step-up: C(k) from kappa_k and the AR(k-1) fit
    c, phi, v = [1.0], np.empty(0), 1.0
    for kappa in kappas:
        c.append(kappa * v + phi @ np.array(c[:0:-1]))
        phi = np.r_[phi - kappa * phi[::-1], kappa]
        v *= 1.0 - kappa * kappa
    return np.array(c + tail), step


@settings(max_examples=60, deadline=None)
@given(lags_failing_at())
def test_both_recursions_fail_at_the_same_step(case):
    c, step = case
    for recursion in (approx._innovations_last_row, approx.durbin_levinson):
        errors = _failures(recursion, c)
        assert errors[:step] == [None] * step
        assert all(f"at step {step}:" in e for e in errors[step:])


def spectral_condition_bound(model, l):
    """Bound on max f_l / min f_l from the root margin: each root r of the
    AR or MA polynomial of multipole l gives a factor |1 - e^{i lambda} / r|
    in [1 - 1/|r|, 1 + 1/|r|]."""
    rho = 1.0 / min(min_root_modulus(model.ar[l], "ar"),
                    min_root_modulus(model.ma[l], "ma"))
    order = len(model.ar[l]) + len(model.ma[l])
    return ((1.0 + rho) / (1.0 - rho)) ** (2 * order)


@settings(max_examples=40, deadline=None)
@given(causal_sphere_arma(), st.integers(0, 60))
def test_wold_model_reproduces_the_target(model, n_psi):
    # Every root lies at modulus >= 1.25, so |psi_j| <= 4 (j + 1) 0.8^j and
    # the sums over psi_0..psi_{n_psi + 1000} miss less than 1e-90 of the
    # series. The innovations coefficients theta_{depth, j} converge to
    # psi_j geometrically in depth - j; at depth >= max(200, n_psi + 150)
    # what is left is rounding. The Schur recursion is backward stable, so
    # its forward error is at most about depth * eps times the condition
    # number of the Toeplitz matrix, which max f_l / min f_l bounds.
    depth = max(200, n_psi + 150)
    w, _ = wold(model_autocovariance_table(model, depth), n_psi)
    L = model.band_limit
    rounding = depth * np.finfo(float).eps * np.array(
        [spectral_condition_bound(model, l) for l in range(L + 1)])
    deg = 2 * np.arange(L + 1) + 1
    # the h-step errors of both share psi_0..psi_{h-1} for h <= n_psi + 1
    c0 = model_autocovariance_table(model, 0)[:, 0]
    for h in range(1, n_psi + 2):
        assert (abs(h_step_error(w, h) - h_step_error(model, h))
                <= deg @ (rounding * c0))
    # |f - f_w| = sigma^2 / 2pi * ||psi(z)|^2 - |psi_w(z)|^2|
    # <= sigma^2 / 2pi * (|psi(z)| + |psi_w(z)|) |psi(z) - psi_w(z)|, with
    # |psi(z)| <= S = sum |psi_j| and |psi(z) - psi_w(z)| <= T, the tail
    # past n_psi, plus the rounding of psi_w
    lam = spectral.frequency_grid(512)
    err = np.abs(w.spectral().values(lam) - model.spectral().values(lam))
    for l in range(L + 1):
        psi = np.abs(psi_coefficients(model, l, n_psi + 1000))
        S, T = psi.sum(), psi[n_psi + 1 :].sum()
        bound = model.noise[l] / (2 * math.pi) * S * (2 * T + rounding[l] * S)
        assert err[l].max() <= bound


@st.composite
def pure_target(draw):
    """A kind and a pure AR or pure MA target of that kind: L <= 2 and, per
    multipole, a polynomial drawn by ``lag_poly``."""
    L = draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["ar", "ma"]))
    polys = [draw(lag_poly())[1:] for _ in range(L + 1)]
    noise = draw(st.lists(st.floats(0.1, 10.0), min_size=L + 1, max_size=L + 1))
    none = [np.empty(0)] * (L + 1)
    if kind == "ar":
        return kind, SpharmaModel(L, [-p for p in polys], none, np.array(noise))
    return kind, SpharmaModel(L, none, polys, np.array(noise))


@settings(max_examples=40, deadline=None)
@given(pure_target())
def test_exact_pure_targets_are_fixed_points(case):
    kind, target = case
    fitted, cert = approx.approximate_operator(target.spectral(), 1e-3, kind)
    assert cert["passed"]
    own = target.ar if kind == "ar" else target.ma
    got = fitted.ar if kind == "ar" else fitted.ma
    assert [row["order"] for row in cert["per_multipole"]] == [len(c) for c in own]
    for l in range(target.band_limit + 1):
        assert np.abs(got[l] - own[l]).max(initial=0.0) <= 1e-10
    assert np.abs(fitted.noise / target.noise - 1.0).max() <= 1e-10


# how far the scan's grid error may sit from the recorded sup error of the
# same fit, in units of the target's largest value; fixed before the first
# run (a scratch sweep of 80 fits found 3.6e-15)
_SCAN_ROUNDING = 1e-12


@settings(max_examples=30, deadline=None)
@given(causal_sphere_arma(), st.sampled_from(["ma", "ar"]),
       st.sampled_from([1e-1, 1e-2, 1e-3]))
def test_the_scan_certifies_the_least_order_within_budget(model, kind, eps):
    # the chosen order's scanned error is its recorded sup error, and every
    # lower order from the start misses the budget or is not invertible
    target = model.spectral()
    _, cert = approx.approximate_operator(target, eps, kind)
    budget = eps / (2 * (model.band_limit + 1) ** 2)
    lam = spectral.frequency_grid()
    z = np.exp(1j * lam)
    f = target.values(lam)
    tol = _SCAN_ROUNDING * f.max()
    psi = approx.spectral_factor(target)
    for l, record in enumerate(cert["per_multipole"]):
        order = record["order"]
        lags = spectral.autocov_table(target, order)[l]
        scan = dict(approx._ma_densities(psi[l], lags[0], z, order) if kind == "ma"
                    else approx._ar_densities(lambda p: lags, z, order))
        assert abs(np.abs(scan[order] - f[l]).max() - record["sup_error"]) <= tol
        assert record["sup_error"] <= budget + tol
        pure = not len((model.ar if kind == "ma" else model.ma)[l])
        for lower in range(len(getattr(model, kind)[l]) if pure else 0, order):
            if kind == "ar":
                phi, sigma2 = approx.fit_ar(lags[: lower + 1], lower)
                coeffs = phi, np.empty(0)
            else:
                try:
                    theta, sigma2 = approx.fit_ma(psi[l], lags[0], lower)
                except RuntimeError:
                    continue
                coeffs = np.empty(0), theta
            row = spectral.rational_density(*coeffs, sigma2, z)
            assert np.abs(row - f[l]).max() > budget - tol, lower


@settings(max_examples=40, deadline=None)
@given(causal_arma(), st.integers(1, 300), st.data())
def test_schur_steps_are_a_prefix_of_every_deeper_pass(model, deep, data):
    # the scan and the deeper lag fetch past the default cap read the first
    # steps of a deeper pass as those of a shallower one
    depth = data.draw(st.integers(0, deep - 1))
    c = model_autocovariance(model, 0, deep)
    (kappa, v), (deep_kappa, deep_v) = (
        np.array([(g, a[0]) for g, a in approx._schur_steps(c, d)]).T
        for d in (depth, deep))
    assert v.tobytes() == deep_v[: depth + 1].tobytes()
    assert kappa.tobytes() == deep_kappa[: depth + 1].tobytes()


def _tabulated(model):
    lam = spectral.frequency_grid(1024)
    return spectral.SpectralEigenvalues.tabulated(lam, model.spectral().values(lam))


@st.composite
def repeated_row_target(draw):
    """A target of L <= 3 whose multipoles repeat two rows, each a causal,
    invertible ARMA(p, q) with p, q <= 2 drawn as in ``causal_arma``: the
    rational target, or its densities tabulated on ``frequency_grid(1024)``."""
    rows = [(-draw(lag_poly(max_order=2))[1:], draw(lag_poly(max_order=2))[1:],
             draw(st.floats(0.1, 10.0))) for _ in range(2)]
    pick = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=4))
    model = SpharmaModel(len(pick) - 1, *[list(c) for c in zip(*pick)])
    return _tabulated(model) if draw(st.booleans()) else model.spectral()


def _row_alone(target, l):
    if target.form == "tabulated":
        return spectral.SpectralEigenvalues.tabulated(target.lam,
                                                      target.table[l : l + 1])
    m = target.model
    return SpharmaModel(0, [m.ar[l]], [m.ma[l]], [m.noise[l]]).spectral()


_REPEATS = SpharmaModel(3, [[0.8], [], [0.8], [0.8]], [[0.4], [0.5], [0.4], [0.4]],
                        np.array([1.0, 2.0, 1.0, 3.0]))


@seed(4040)
@settings(max_examples=25, deadline=None)
@given(repeated_row_target(), st.sampled_from(["ma", "ar"]),
       st.sampled_from([1e-2, 1e-3]))
@example(SpharmaModel.uniform(8, ar=[0.8], ma=[0.4]).spectral(), "ma", 1e-3)
@example(_REPEATS.spectral(), "ar", 1e-3)
@example(_tabulated(_REPEATS), "ma", 1e-2)
def test_each_multipole_is_the_fit_of_its_row_alone(target, kind, eps):
    # the fit of a multipole reads only its own row, so it is the fit of a
    # one-multipole target with that row and the same per-multipole budget:
    # eps / (2 (L+1)^2) here is eps / (L+1)^2 / 2 there, bit for bit
    L = target.band_limit
    fitted, cert = approx.approximate_operator(target, eps, kind)
    for l in range(L + 1):
        one, one_cert = approx.approximate_operator(_row_alone(target, l),
                                                    eps / (L + 1) ** 2, kind)
        assert cert["per_multipole"][l] == dict(one_cert["per_multipole"][0], l=l)
        assert fitted.ar[l].tobytes() == one.ar[0].tobytes()
        assert fitted.ma[l].tobytes() == one.ma[0].tobytes()
        assert fitted.noise[l] == one.noise[0]


@st.composite
def arma_any_ma(draw):
    """A causal ARMA with p, q <= 3 whose MA roots lie on either side of the
    unit circle: the roots of a ``lag_poly`` and the reciprocals of the roots
    of another."""
    phi = -draw(lag_poly())[1:]
    outside = draw(lag_poly())
    inside = draw(lag_poly(max_order=3 - (len(outside) - 1)))
    # z^k c(1/z) / c_k has the reciprocal roots of c(z)
    theta = np.convolve(outside, inside[::-1] / inside[-1])[1:]
    noise = draw(st.floats(0.1, 10.0))
    return SpharmaModel(0, [phi], [theta], np.array([noise]))


@settings(max_examples=60, deadline=None)
@given(arma_any_ma())
def test_spectral_factor_is_the_wold_factor(model):
    # Every root of psi = theta/phi, or of its minimum-phase equivalent,
    # lies at modulus >= 1.25, so the cepstrum has decayed by the default
    # grid's last eighth and the factor is exact up to rounding. An
    # invertible MA part makes psi_coefficients the Wold factor itself;
    # otherwise the factor is the invertible one with the same density.
    psi = approx.spectral_factor(model.spectral())[0]
    assert len(psi) == 4096 // 2 + 1
    # phi(z) psi(z) is a polynomial of degree q with no root inside the circle
    q = len(model.ma[0])
    num = np.convolve(np.r_[1.0, -model.ar[0]], psi)[: len(psi)]
    assert np.abs(num[q + 1 :]).max(initial=0.0) <= 1e-12 * np.abs(num).max()
    assert min_root_modulus(num[1 : q + 1], "ma") >= 1.0
    if min_root_modulus(model.ma[0], "ma") > 1.0:
        exact = psi_coefficients(model, 0, len(psi) - 1)
        assert np.abs(psi - exact).max() <= 1e-12 * np.abs(exact).max()
    lam = spectral.frequency_grid(1000)
    f = model.spectral().values(lam)[0]
    c0 = model_autocovariance(model, 0, 0)[0]
    shape = spectral.abs2_on_circle(psi, np.exp(1j * lam))
    # the variance-matched density of psi, sigma^2 sum psi_j^2 = C(0), in the
    # norm of the certificates: relative to the peak of f, not pointwise, as
    # the rounding of |psi(e^{i lambda})|^2 scales with (sum_j |psi_j|)^2
    g = c0 / (psi @ psi) * shape / (2 * math.pi)
    assert np.abs(g - f).max() <= 1e-12 * f.max()


@st.composite
def reconstruction_case(draw):
    """A truth drawn by ``causal_sphere_arma`` and a causal AR, MA or ARMA
    fit at a band limit up to the truth's, orders <= 2 per multipole."""
    truth = draw(causal_sphere_arma())
    L = draw(st.integers(0, truth.band_limit))
    kind = draw(st.sampled_from(["ar", "ma", "arma"]))
    none = [np.empty(0)] * (L + 1)
    ar = [-draw(lag_poly(max_order=2))[1:] for _ in range(L + 1)]
    ma = [draw(lag_poly(max_order=2))[1:] for _ in range(L + 1)]
    fit = SpharmaModel(L, none if kind == "ma" else ar,
                       none if kind == "ar" else ma, np.ones(L + 1))
    return truth, fit


def reconstruction_oracle(truth, fit, terms):
    """sum_l (2l+1)/(4pi) sigma_l^2 sum_{j <= terms} d_{l;j}^2 with d = a - b
    from the psi weights, and the same sum of (|a| + |b|)^2 as its scale:
    a = psi_true, or phi_fit * psi_true for an AR fit; b = psi_fit, or
    delta_0 for an AR fit and above the fitted band limit."""
    ar_fit = fit.q == 0 and fit.p > 0
    delta = np.zeros(terms + 1)
    delta[0] = 1.0
    value = scale = 0.0
    for l in range(truth.band_limit + 1):
        a, b = psi_coefficients(truth, l, terms), delta
        if l <= fit.band_limit:
            if ar_fit:
                a = np.convolve(np.r_[1.0, -fit.ar[l]], a)[: terms + 1]
            else:
                b = psi_coefficients(fit, l, terms)
        weight = (2 * l + 1) / (4.0 * math.pi) * truth.noise[l]
        value += weight * ((a - b) @ (a - b))
        scale += weight * ((np.abs(a) + np.abs(b)) @ (np.abs(a) + np.abs(b)))
    return value, scale


@settings(max_examples=60, deadline=None)
@given(reconstruction_case())
def test_l2_omega_error_matches_the_psi_sum(case):
    # the truth and fit have roots at modulus >= 1.25 with multiplicity
    # <= 4, so the weights beyond j = 600 are below 1e-50
    truth, fit = case
    exact = approx.l2_omega_error(truth, fit)
    value, scale = reconstruction_oracle(truth, fit, 600)
    assert abs(exact - value) <= 1e-10 * value + 1e-14 * scale


@st.composite
def ma_row_near_the_rule(draw):
    """An MA row of order <= 4 and the least modulus of its roots, drawn
    within 1e-7 of 1 + ``_ROOT_MARGIN``, in [0.3, 0.99] or in [1.01, 3]; the
    other roots lie at moduli from it up to 3."""
    edge = 1.0 + _ROOT_MARGIN
    least = draw(st.one_of(st.floats(edge - 1e-7, edge + 1e-7),
                           st.floats(0.3, 0.99), st.floats(1.01, 3.0)))
    w = draw(st.floats(0.0, math.pi))
    # a real root of either sign, or a conjugate pair, at the least modulus
    coeffs = draw(st.sampled_from([
        np.array([1.0, -1.0 / least]), np.array([1.0, 1.0 / least]),
        np.array([1.0, -2.0 * math.cos(w) / least, 1.0 / least**2])]))
    rest = draw(lag_poly(max_order=4 - (len(coeffs) - 1),
                         min_root=max(least, 1.25), max_root=3.0))
    return np.convolve(coeffs, rest)[1:], least


@seed(3901)
@settings(max_examples=200, deadline=None)
@given(ma_row_near_the_rule())
@example((np.array([-1.0 / (1.0 + 9e-7)]), 1.0 + 9e-7))
@example((np.array([-1.0 / (1.0 + 1.1e-6)]), 1.0 + 1.1e-6))
def test_fit_ma_refuses_what_check_invertible_names(case):
    # one rule: the truncation is refused exactly when the one-multipole
    # model with that MA row fails check_invertible at multipole 0
    theta, least = case
    model = SpharmaModel(0, [np.empty(0)], [theta], np.array([1.0]))
    named = check_invertible(model).offending_multipoles == [0]
    try:
        approx.fit_ma(np.r_[1.0, theta], 1.0, len(theta))
        refused = False
    except RuntimeError:
        refused = True
    assert refused == named
    if abs(least - (1.0 + _ROOT_MARGIN)) > 1e-3:
        assert refused == (least < 1.0)


def lfilter_oracle(ar, ma, x):
    return lfilter(np.r_[1.0, ma], np.r_[1.0, -np.asarray(ar)], x, axis=-1)


@st.composite
def filter_input(draw, max_n=3 * _FILTER_BLOCK + 7):
    """A causal ARMA(p, q) with p, q <= 3 and a (rows, n) Gaussian input."""
    model = draw(causal_arma())
    rows = draw(st.integers(1, 4))
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).standard_normal((rows, n))
    return model.ar[0], model.ma[0], x


@pytest.mark.skipif(lfilter is None, reason="needs scipy")
@settings(max_examples=80, deadline=None)
@given(filter_input())
def test_arma_filter_matches_lfilter(case):
    ar, ma, x = case
    ref = lfilter_oracle(ar, ma, x)
    assert np.abs(arma_filter(ar, ma, x) - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=60, deadline=None)
@given(filter_input(), st.data())
def test_arma_filter_prefix_is_stable(case, data):
    ar, ma, x = case
    m = data.draw(st.integers(0, x.shape[-1]))
    assert np.array_equal(arma_filter(ar, ma, x[:, :m]),
                          arma_filter(ar, ma, x)[:, :m])


@settings(max_examples=60, deadline=None)
@given(filter_input(max_n=_FILTER_BLOCK),
       st.integers(_FILTER_BLOCK + 1, 3 * _FILTER_BLOCK), st.integers(0, 2**32 - 1))
def test_single_block_is_a_prefix_of_a_longer_input(case, longer_n, seed):
    # up to 128 samples are filtered in one block of n; a longer input is cut
    # into blocks of 128, and its first n outputs are the same bits
    ar, ma, x = case
    rng = np.random.default_rng(seed)
    longer = np.hstack([x, rng.standard_normal((len(x), longer_n - x.shape[-1]))])
    assert np.array_equal(arma_filter(ar, ma, x),
                          arma_filter(ar, ma, longer)[:, : x.shape[-1]])


@settings(max_examples=60, deadline=None)
@given(filter_input())
def test_arma_filter_rows_are_independent(case):
    ar, ma, x = case
    together = arma_filter(ar, ma, x)
    for row, out in zip(x, together):
        assert np.array_equal(arma_filter(ar, ma, row), out)


@pytest.mark.skipif(lfilter is None, reason="needs scipy")
def test_arma_filter_edge_lengths():
    rng = np.random.default_rng(5)
    ar, ma = np.array([0.5, -0.3, 0.2]), np.array([0.4, 0.1])
    for n in (1, 2, _FILTER_BLOCK - 1, _FILTER_BLOCK, _FILTER_BLOCK + 1):
        x = rng.standard_normal((2, n))
        ref = lfilter_oracle(ar, ma, x)
        assert np.abs(arma_filter(ar, ma, x) - ref).max() <= 1e-12 * np.abs(ref).max()
    assert arma_filter(ar, ma, np.ones(1)).tolist() == [1.0]
    assert arma_filter(ar, ma, np.empty((3, 0))).shape == (3, 0)


@pytest.mark.skipif(lfilter is None, reason="needs scipy")
def test_arma_filter_orders_beyond_the_block():
    # an MA part of order 256, as in an MA fit at the default order cap, and
    # an AR part longer than the default block; sum |ar| < 1 keeps it causal
    rng = np.random.default_rng(6)
    long = rng.uniform(-1.0, 1.0, 2 * _FILTER_BLOCK)
    long *= 0.9 / np.abs(long).sum()
    x = rng.standard_normal((3, 5 * _FILTER_BLOCK + 3))
    for ar, ma in (([], long), (long[:200], [0.3]), (long[:200], long)):
        ref = lfilter_oracle(ar, ma, x)
        out = arma_filter(ar, ma, x)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(arma_filter(ar, ma, x[:, :150]), out[:, :150])


def test_arma_filter_without_ar_part():
    x = np.random.default_rng(7).standard_normal((2, 300))
    assert np.array_equal(arma_filter([], [], x), x)
    assert np.array_equal(arma_filter([0.0], [], x), x)
    assert np.array_equal(arma_filter([0.0], [0.5], x), arma_filter([], [0.5], x))
    assert np.array_equal(arma_filter([0.7, 0.0], [0.5], x),
                          arma_filter([0.7], [0.5], x))


def test_coefficient_rows_must_be_1d():
    x = np.random.default_rng(8).standard_normal((2, 300))
    with pytest.raises(ValueError, match="1-D rows"):
        arma_filter([[0.5], [0.3]], [], x)
    with pytest.raises(ValueError, match="1-D rows"):
        arma_filter([0.5], [[0.4], [0.2]], x)


@st.composite
def ragged_causal_model(draw):
    """Band limit 0-6 with its own causal ARMA(p, q), p, q <= 3, at each l;
    some rows have no AR part and some AR rows end in zero terms."""
    L = draw(st.integers(0, 6))
    ar = [np.r_[-draw(lag_poly())[1:], np.zeros(draw(st.integers(0, 2)))]
          for _ in range(L + 1)]
    ma = [draw(lag_poly())[1:] for _ in range(L + 1)]
    noise = draw(st.lists(st.floats(0.1, 10.0), min_size=L + 1, max_size=L + 1))
    return SpharmaModel(L, ar, ma, np.array(noise))


@settings(max_examples=60, deadline=None)
@given(ragged_causal_model(), st.sampled_from([0, 1, 5, _FILTER_BLOCK,
                                               _FILTER_BLOCK + 1, 300]))
def test_autocovariance_table_rows_are_the_multipole_lags(model, max_lag):
    table = model_autocovariance_table(model, max_lag)
    for l in range(model.band_limit + 1):
        assert (table[l].tobytes()
                == model_autocovariance(model, l, max_lag).tobytes())


# rows that runs of equal multipoles share: white noise and pure MA (p = 0,
# no padding), an AR(1) also written with a trailing zero, and ARMA rows
FILTER_ROWS = [((), ()), ((), (0.4,)), ((0.5,), ()), ((0.5, 0.0), ()),
               ((0.5, -0.3), (0.4,)), ((0.9,), (0.2, 0.1))]


@st.composite
def run_model(draw):
    """L <= 12, its multipoles in runs of equal rows drawn from FILTER_ROWS."""
    L = draw(st.integers(0, 12))
    ar, ma = [], []
    while len(ar) <= L:
        row_ar, row_ma = draw(st.sampled_from(FILTER_ROWS))
        length = draw(st.integers(1, L + 1 - len(ar)))
        ar += [row_ar] * length
        ma += [row_ma] * length
    noise = draw(st.lists(st.floats(0.1, 10.0), min_size=L + 1, max_size=L + 1))
    return SpharmaModel(L, ar, ma, np.array(noise))


def start_sum(w, factor):
    """r = F w for each row of the start draws ``w``, summed in
    ``simulate_spharma``'s order: a product at a time, from zero."""
    return sum((w[:, j, None] * factor[j] for j in range(len(factor))),
               np.zeros((len(w), len(factor))))


def per_multipole_series(model, seed, n, burn):
    """The series of fresh noise streams and one filter call per multipole,
    in fresh work arrays: each stream's m start draws, then its innovations."""
    total = n + burn
    factors = {l: f for run, _, f in simulate._filter_runs(model, total) for l in run}
    blocks = []
    for l in range(model.band_limit + 1):
        m = len(factors[l])
        draws = np.array([fresh_philox_oracle(seed, row, m + total)
                          for row in range(l * l, (l + 1) ** 2)])
        draws *= math.sqrt(model.noise[l])
        ar = np.trim_zeros(model.ar[l], "b")
        size = len(draws) * _padded_length(len(ar), total)
        out = _filter_into(ar, model.ma[l], draws[:, m:], np.empty(size),
                           np.empty(size), start_sum(draws[:, :m], factors[l]))
        blocks.append(out[:, burn:])
    return np.vstack(blocks)


def assert_runs_match_per_multipole(model, seed, n, burn_in):
    series = simulate.simulate_spharma(
        model, simulate.SimulationConfig(seed=seed, n=n, burn_in=burn_in))
    expected = per_multipole_series(model, seed, n, series.provenance["burn_in"])
    assert np.array_equal(series.values, expected)


@settings(max_examples=60, deadline=None)
@given(run_model(), st.integers(0, 2**64 - 1), st.integers(1, 40),
       st.sampled_from([0, 3]),
       st.sampled_from([1, 300, 2000, simulate._RUN_SAMPLES]))
@example(SpharmaModel(2, [[0.5], [0.5, 0.0], [0.5]], [[], [], []], np.ones(3)),
         2**64 - 1, 5, 0, simulate._RUN_SAMPLES)
@example(SpharmaModel.white_noise([2.0]), 0, 1, 0, 1)
@example(SpharmaModel.uniform(4, ma=[0.4]), 7, 30, 0, 300)
@example(SpharmaModel.white_noise(np.ones(5)), 7, 30, 0, 300)
# runs of 16, 9, 11, 13 and 15 rows, whose AR order (2, 0, 1, 0, 1) and MA
# length (1, 1, 2, 0, 0) change from run to run, over 300 samples padded to
# 384 when p > 0: each run after the first reuses work arrays that a larger
# run filled with other rows and another padded width
@example(SpharmaModel(7, [(0.5, -0.3)] * 4 + [(), (0.9,), (), (0.5,)],
                      [(0.4,)] * 5 + [(0.2, 0.1), (), ()], np.arange(1.0, 9.0)),
         11, 300, 0, simulate._RUN_SAMPLES)
# one AR(1) row split by the cap into runs of 9, 7, 9 and 11 rows, and after
# them white-noise runs of 13 and 15 rows, more rows than any before
@example(SpharmaModel(7, [(0.5,)] * 6 + [()] * 2, [(0.4,)] * 6 + [()] * 2,
                      np.ones(8)),
         5, 301, 3, 4000)
def test_grouped_filtering_matches_a_filter_call_per_multipole(model, seed, n,
                                                               burn_in, cap):
    # caps down to one sample split the runs at every possible place
    with mock.patch.object(simulate, "_RUN_SAMPLES", cap):
        assert_runs_match_per_multipole(model, seed, n, burn_in)


def test_runs_longer_than_the_cap_are_split():
    # 46^2 streams of 205 samples padded to 256 exceed the cap of 2^18
    model = SpharmaModel.uniform(45, ar=[0.5, 0.0], ma=[0.3])
    runs = simulate._filter_runs(model, 200 + 5)
    assert len(runs) > 1
    assert [l for run, *_ in runs for l in run] == list(range(46))
    assert_runs_match_per_multipole(model, 3, 200, 5)


def test_short_runs_are_not_padded():
    # 25 samples are one block of 25, not a padded block of 128: 46^2 streams
    # of them stay within the cap of 2^18 and share one filter call
    model = SpharmaModel.uniform(45, ar=[0.5, 0.0], ma=[0.3])
    [(run, ar, _)] = simulate._filter_runs(model, 20 + 5)
    assert run == range(46) and ar.tolist() == [0.5]
    assert_runs_match_per_multipole(model, 3, 20, 5)


def test_runs_start_where_the_row_key_changes():
    # rows A A B A A: rows are keyed after trimming AR zeros, the repeat of A
    # after B starts a run of its own, and an MA coefficient of -0.0 is a
    # different row from 0.0, since rows are keyed by their bits
    model = SpharmaModel(4, [[0.5, 0.0], [0.5], [0.5], [0.5], [0.5]],
                         [[0.0], [0.0], [-0.0], [0.0], [0.0]], np.ones(5))
    runs = simulate._filter_runs(model, 20 + 5)
    assert [(run, ar.tolist()) for run, ar, _ in runs] == [
        (range(0, 2), [0.5]), (range(2, 3), [0.5]), (range(3, 5), [0.5])]
    assert_runs_match_per_multipole(model, 3, 20, 5)


def start_response(model):
    """Multipole 0's outputs x_0..x_{m+7} for unit inputs, one row per input:
    the m start draws of ``simulate_spharma``'s exact start, then m + 8
    innovations. Every input is a standard normal, so the covariance of the
    outputs is the product of the responses."""
    [(_, _, factor)] = simulate._filter_runs(model, 1)
    m = len(factor)
    inputs = np.eye(2 * m + 8)
    ar = np.trim_zeros(model.ar[0], "b")
    size = len(inputs) * _padded_length(len(ar), m + 8)
    return _filter_into(ar, model.ma[0], inputs[:, m:], np.empty(size),
                        np.empty(size), start_sum(inputs[:, :m], factor))


@settings(max_examples=80, deadline=None)
@given(lag_poly(max_order=2, min_root=1.001, max_root=5.0),
       st.lists(st.floats(-3.0, 3.0), max_size=2))
# the cancelling row phi = -theta = 0.5, whose start covariance is 0, and a
# persistent ARMA(1,1)
@example(np.array([1.0, -0.5]), [-0.5])
@example(np.array([1.0, -0.999]), [0.3])
def test_stationary_start_is_exact(phi_poly, ma):
    # no sampling: the start makes x_0..x_{m+7} exactly stationary, with
    # the Toeplitz covariance of the model's lags, for causal rows with p,
    # q <= 2 and any MA part, non-invertible included
    model = SpharmaModel.uniform(0, ar=-phi_poly[1:], ma=ma)
    x = start_response(model)
    acv = model_autocovariance_table(model, x.shape[1] - 1)[0]
    lag = np.abs(np.subtract.outer(np.arange(len(acv)), np.arange(len(acv))))
    assert np.abs(x.T @ x - acv[lag]).max() <= 1e-10 * acv[0]


def lag_loop_oracle(series, max_lag):
    """The direct moment estimator: one pass over the streams per lag."""
    L, n = series.band_limit, series.n
    out = np.empty((L + 1, max_lag + 1))
    for l in range(L + 1):
        block = series.block(l)
        for t in range(max_lag + 1):
            prods = block[:, t:] * block[:, : n - t]
            out[l, t] = prods.sum() / ((2 * l + 1) * n)
    return out


@st.composite
def coefficient_series(draw, max_n=600):
    """A (L+1)^2-row series, L <= 3, whose rows differ in scale and colour."""
    L = draw(st.integers(0, 3))
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(((L + 1) ** 2, n + 2))
    x = (x[:, 2:] + 0.8 * x[:, 1:-1] - 0.3 * x[:, :-2])
    x *= rng.uniform(0.01, 100.0, ((L + 1) ** 2, 1))
    return simulate.HarmonicCoefficientSeries(L, x)


@settings(max_examples=80, deadline=None)
@given(coefficient_series(), st.data())
def test_fft_autocov_matches_the_lag_loop(series, data):
    max_lag = data.draw(st.integers(0, series.n // 4))
    got = simulate.empirical_autocov(series, max_lag)
    oracle = lag_loop_oracle(series, max_lag)
    assert np.all(np.abs(got - oracle) <= 1e-14 * oracle[:, :1])


def rfft_autocov_oracle(series, max_lag):
    """The FFT moment estimator with fresh arrays for every multipole."""
    L, n = series.band_limit, series.n
    nfft = simulate._fft_length(n + max_lag)
    out = np.empty((L + 1, max_lag + 1))
    for l in range(L + 1):
        spec = np.fft.rfft(series.block(l), nfft, axis=-1)
        power = (spec.real**2 + spec.imag**2).sum(axis=0)
        out[l] = np.fft.irfft(power, nfft)[: max_lag + 1] / ((2 * l + 1) * n)
    return out


@settings(max_examples=40, deadline=None)
@given(coefficient_series(), st.data())
def test_fft_autocov_in_reused_arrays_is_bit_for_bit_the_fresh_form(series, data):
    max_lag = data.draw(st.integers(0, series.n // 4))
    got = simulate.empirical_autocov(series, max_lag)
    assert got.tobytes() == rfft_autocov_oracle(series, max_lag).tobytes()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.integers(1, 600), st.data())
def test_fft_autocov_of_zeros_is_exactly_zero(L, n, data):
    max_lag = data.draw(st.integers(0, n - 1))
    series = simulate.HarmonicCoefficientSeries(L, np.zeros(((L + 1) ** 2, n)))
    assert not np.any(simulate.empirical_autocov(series, max_lag))


@settings(max_examples=30, deadline=None)
@given(coefficient_series(max_n=300), st.data())
def test_series_spectra_are_valid_by_construction(tmp_path_factory, series, data):
    # the 1/n lags are nonnegative definite and the Bartlett window's kernel
    # is nonnegative, so no rounding-sized refusal or warning can fire
    n = series.n
    max_lag = data.draw(st.just(n - 1) | st.integers(0, n - 1))
    path = tmp_path_factory.mktemp("series")
    series.save(path / "series.bin")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["spectrum", "--series", str(path / "series.bin"),
                         "--max-lag", str(max_lag), "--n-lambda", "4096",
                         "--out", str(path / "spec")]) == cli.EXIT_OK
    f = np.loadtxt(path / "spec" / "spectral_density.csv", delimiter=",",
                   skiprows=1, ndmin=2)[:, 2]
    assert len(f) == (series.band_limit + 1) * 4097 and np.all(f >= 0.0)
    lags = simulate.empirical_autocov(series, n - 1)
    toeplitz = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    for row in lags:
        assert np.linalg.eigvalsh(row[toeplitz]).min() >= -1e-12 * row[0]


def smooth_5(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


def assert_next_5_smooth(m):
    got = simulate._fft_length(m)
    assert got >= m and smooth_5(got)
    assert not any(smooth_5(k) for k in range(m, got))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**7))
def test_fft_length_is_the_next_5_smooth_integer(m):
    assert_next_5_smooth(m)


def test_fft_length_small_values():
    for m in range(1, 2000):
        assert_next_5_smooth(m)


def masked_irfft_gram(values, n_bands):
    """The band-split Gram matrix from every band component at all n samples.

    Each component is one inverse real FFT of the spectra with the bins of
    every other band zeroed, 32 streams at a time; entry (b, c) sums the
    products of components b and c over the streams and the middle half of
    the window.
    """
    n = values.shape[-1]
    lams = 2.0 * math.pi * np.fft.rfftfreq(n)
    band_of = np.minimum((lams / math.pi * n_bands).astype(int), n_bands - 1)
    edges = np.searchsorted(band_of, np.arange(n_bands + 1))
    lo, hi = n // 4, 3 * n // 4
    gram = np.zeros((n_bands, n_bands))
    for start in range(0, values.shape[0], 32):
        spectra = np.fft.rfft(values[start : start + 32], axis=-1)
        comps = np.empty((n_bands, len(spectra), hi - lo))
        masked = np.zeros_like(spectra)
        for b in range(n_bands):
            band = slice(edges[b], edges[b + 1])
            masked[:, band] = spectra[:, band]
            comps[b] = np.fft.irfft(masked, n, axis=-1)[:, lo:hi]
            masked[:, band] = 0.0
        comps = comps.reshape(n_bands, -1)
        gram += comps @ comps.T
    return gram


@st.composite
def band_split_case(draw):
    """AR(1)-coloured streams of n in [1024, 4096] samples and a band count
    in 2..40 or n // 2 + 1 (one bin per band). At n // 2 + 1 bands the
    oracle's Gram product costs about n^3 / 4 per stream, so those cases
    take one or two streams."""
    n = draw(st.integers(1024, 4096))
    n_bands = draw(st.one_of(st.integers(2, 40), st.just(n // 2 + 1)))
    rows = draw(st.integers(1, 40 if n_bands <= 40 else 2))
    phi = draw(st.floats(-0.9, 0.9))
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).standard_normal((rows, n))
    return arma_filter([phi], [], x), n_bands


@settings(max_examples=30, deadline=None)
@given(band_split_case())
@example((np.random.default_rng(1).standard_normal((33, 1025)), 8))
@example((np.random.default_rng(2).standard_normal((2, 1024)), 513))
@example((np.zeros((3, 2048)), 5))
def test_band_gram_matches_the_masked_irfft_oracle(case):
    values, n_bands = case
    oracle = masked_irfft_gram(values, n_bands)
    got = simulate._band_gram(values, n_bands)
    assert np.abs(got - oracle).max() <= 1e-12 * oracle.diagonal().max()


def test_window_kernel_matches_the_direct_sum():
    for n in (1024, 1025, 2047, 3000):
        lo, hi = n // 4, 3 * n // 4
        g = np.arange(n)[:, None]
        direct = np.exp(2j * np.pi * ((g * np.arange(lo, hi)) % n) / n).sum(axis=1)
        got = simulate._window_kernel(n, lo, hi)
        assert np.abs(got - direct).max() <= 1e-12 * (hi - lo)


def fresh_philox_oracle(seed, row, count):
    """Draws of a Philox built for one stream, the key given as exact words."""
    bitgen = np.random.Philox(key=np.array([seed, row], dtype=np.uint64))
    return np.random.Generator(bitgen).standard_normal(count)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**20)),
                min_size=1, max_size=12, unique=True),
       st.integers(0, 40), st.randoms(use_true_random=False))
def test_reused_philox_matches_fresh_generators_in_any_order(keys, count, rnd):
    # one generator re-keyed stream after stream, in a shuffled order, draws
    # what a fresh generator per stream draws: no stream depends on the ones
    # drawn before it
    keys = list(keys)
    rnd.shuffle(keys)
    ones = np.ones(len(keys))
    drawn = simulate._stream_normals(keys, np.empty((len(keys), count)), ones)
    for (seed, row), got in zip(keys, drawn):
        assert np.array_equal(got, fresh_philox_oracle(seed, row, count))
    reordered = keys[::-1]
    again = simulate._stream_normals(reordered, np.full((len(keys), count), np.nan),
                                     ones)
    assert np.array_equal(again, drawn[::-1])


@st.composite
def circle_polynomial(draw):
    """Real coefficients of degree 0..256, flat or geometrically decaying."""
    deg = draw(st.integers(0, 256))
    coeffs = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=deg + 1,
                                    max_size=deg + 1)))
    decay = draw(st.sampled_from([1.0, 0.99, 0.9, 0.5]))
    return coeffs * decay ** np.arange(deg + 1)


def abs2_oracle(coeffs, lam):
    """|p(e^{i lam})|^2 by Horner's rule in 40-digit arithmetic."""
    with mpmath.workdps(40):
        z = mpmath.expj(mpmath.mpf(lam))
        p = mpmath.mpc(0)
        for c in coeffs[::-1]:
            p = p * z + mpmath.mpf(c)
        return float(abs(p) ** 2)


@pytest.mark.skipif(mpmath is None, reason="needs mpmath")
@settings(max_examples=40, deadline=None)
@given(circle_polynomial(),
       st.lists(st.one_of(st.integers(0, 4096),
                          st.floats(-1e6, 1e6, allow_nan=False)),
                min_size=1, max_size=6))
def test_abs2_on_circle_matches_a_40_digit_evaluation(coeffs, picks):
    # integer picks index frequency_grid(4096); its end nodes +-pi always run
    grid = spectral.frequency_grid(4096)
    lams = np.array([grid[0], grid[-1]]
                    + [grid[x] if isinstance(x, int) else x for x in picks])
    got = spectral.abs2_on_circle(coeffs, np.exp(1j * lams))
    want = np.array([abs2_oracle(coeffs, lam) for lam in lams])
    bound = 8 * len(coeffs) * np.finfo(float).eps * np.abs(coeffs).sum() ** 2
    assert np.abs(got - want).max() <= bound


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8),
       st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=48),
       st.integers(0, 8), st.sampled_from([1, 3, 512, 4096]))
def test_abs2_on_circle_keeps_horners_bits(lead, body, trail, N):
    # rows of 0-64 coefficients, with zeros at either end, against Horner's
    # rule written out: one multiply and one add per coefficient in place
    coeffs = np.r_[np.zeros(lead), body, np.zeros(trail)]
    z = np.exp(1j * spectral.frequency_grid(N))
    p = np.zeros_like(z)
    for c in coeffs[::-1]:
        p *= z
        p += c
    want = p.real**2 + p.imag**2
    assert spectral.abs2_on_circle(coeffs, z).tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 40), st.integers(0, 8), st.integers(0, 8),
       st.integers(0, 2**32 - 1), st.integers(-10, 10),
       st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                min_size=1, max_size=4))
def test_sht_round_trip_in_stream_order(L, extra_band, extra_lat, seed, scale,
                                        nodes):
    # band limit L on a grid of band limit Lg >= L with n_lat >= Lg + 1 nodes
    Lg = L + extra_band
    x, _ = np.polynomial.legendre.leggauss(Lg + 1 + extra_lat)
    grid = sphere.SphereGrid(np.arccos(x), sphere.build_grid(Lg).longitudes, Lg)
    a = np.random.default_rng(seed).standard_normal((L + 1) ** 2) * 10.0**scale
    field = sphere.sht_inverse(a, grid)
    back = sht_forward(field, band_limit=L)
    assert np.abs(back - a).max() <= 1e-10 * np.abs(a).max()
    # the pointwise evaluator reads the same layout at the grid's own nodes
    padded = np.zeros((Lg + 1) ** 2)
    padded[: len(a)] = a
    for u, v in nodes:
        i, j = int(u * (grid.n_lat - 1)), int(v * (grid.n_lon - 1))
        direct = sphere.harmonic_values_at(Lg, grid.colatitudes[i],
                                           grid.longitudes[j]) @ padded
        assert abs(direct - field.values[i, j]) <= 1e-10 * np.abs(a).sum()
