import math
import warnings

import numpy as np
import pytest

from spharma import approx
from spharma.model import (
    SpharmaModel,
    arma_filter,
    check_causal,
    check_invertible,
    decay_length,
    lag_polynomial_roots,
    model_autocovariance,
    model_autocovariance_table,
    psi_coefficients,
)
from spharma.simulate import (SimulationConfig, batch_means_se, simulate_spharma,
                              simulate_white_noise)
from spharma.spectral import (SpectralEigenvalues, autocov_table,
                              frequency_grid, trapezoid_lags)
from spharma.sphere import harmonic_values_at

from oracles import spectral_distance

TWO_PI = 2.0 * math.pi


def ma1_acv(theta, sigma2, n):
    """MA(1) autocovariance: C(0) = sigma2 (1+theta^2), C(1) = sigma2 theta."""
    c = np.zeros(n + 1)
    c[0] = sigma2 * (1 + theta**2)
    c[1] = sigma2 * theta
    return c


def invertible_ma1_from_rho(rho1):
    """Factorization oracle: solve theta/(1+theta^2) = rho1, |theta| < 1."""
    roots = np.roots([rho1, -1.0, rho1])
    root = roots[np.abs(roots) < 1.0][0]
    return float(root.real)


class TestInnovations:
    def test_white_noise(self):
        c = np.zeros(6)
        c[0] = 2.5
        last, v = approx._innovations_last_row(c, 5)
        assert np.abs(last).max() == 0.0
        assert np.allclose(v, 2.5)

    def test_ma1_converges_to_invertible_root(self):
        c = ma1_acv(0.5, 1.0, 60)
        last, v = approx._innovations_last_row(c, 60)
        oracle = invertible_ma1_from_rho(c[1] / c[0])
        assert abs(oracle - 0.5) < 1e-12
        assert abs(last[0] - oracle) < 1e-8
        assert abs(v[60] - 1.0) < 1e-8

    def test_ar1_prediction_error(self):
        c = (4.0 / 3.0) * 0.5 ** np.arange(41)
        _, v = approx._innovations_last_row(c, 40)
        assert abs(v[40] - 1.0) < 1e-10

    def test_variances_monotone_nonincreasing(self):
        m = SpharmaModel.uniform(0, ar=[0.4], ma=[0.3], noise=1.0)
        c = model_autocovariance(m, 0, 50)
        _, v = approx._innovations_last_row(c, 50)
        assert np.all(np.diff(v) <= 1e-12)
        assert v[-1] > 0.9

    def test_non_positive_definite_rejected(self):
        c = np.array([1.0, 0.99, 0.0, 0.0])
        assert np.linalg.eigvalsh(
            np.array([[1, 0.99, 0], [0.99, 1, 0.99], [0, 0.99, 1]])).min() < 0
        with pytest.raises(ValueError):
            approx._innovations_last_row(c, 3)

    @pytest.mark.parametrize("c, step", [
        ([1.0, 0.99, 0.0, 0.0], 2),
        # AR(1) lags to lag 2, so positive definite up to there
        ([1.0, 0.99, 0.99**2, 0.5, 0.0], 3),
    ])
    def test_nonpositive_step_is_pinned(self, c, step):
        c = np.array(c)
        with pytest.raises(ValueError, match=f"at step {step}:"):
            approx._innovations_last_row(c, len(c) - 1)


class TestDurbinLevinson:
    def test_ar1_exact(self):
        c = (4.0 / 3.0) * 0.5 ** np.arange(3)
        phi, v = approx.durbin_levinson(c, 1)
        assert abs(phi[0] - 0.5) < 1e-14
        assert abs(v - 1.0) < 1e-14

    def test_arp_exact_recovery(self):
        rng = np.random.default_rng(14)
        target = SpharmaModel(0, [np.array([0.4, -0.2, 0.1])], [np.empty(0)],
                              np.array([1.3]))
        assert check_causal(target).causal
        c = model_autocovariance(target, 0, 10)
        phi, v = approx.durbin_levinson(c, 3)
        assert np.abs(phi - target.ar[0]).max() < 1e-10
        assert abs(v - 1.3) < 1e-10
        del rng

    def test_non_pd_rejected(self):
        with pytest.raises(ValueError):
            approx.durbin_levinson(np.array([1.0, 1.2]), 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal_to_concatenating_recursion(self, seed):
        # reference: the same recursion with phi rebuilt by np.r_ each step
        def reference(c, order):
            phi = np.empty(0)
            v = c[0]
            for k in range(1, order + 1):
                acc = c[k] - phi @ c[k - 1 : 0 : -1] if k > 1 else c[1]
                kappa = acc / v
                phi = np.r_[phi - kappa * phi[::-1], kappa]
                v = v * (1.0 - kappa * kappa)
            return phi, float(v)

        rng = np.random.default_rng(seed)
        for order in (0, 1, 2, 3, 17, 64, int(rng.integers(100, 257)), 256):
            # biased sample autocovariances are positive definite
            x = rng.standard_normal(order + 300)
            x = np.convolve(x, rng.uniform(-1.0, 1.0, 4), mode="valid")
            c = np.correlate(x, x, mode="full")[len(x) - 1 :][: order + 1] / len(x)
            phi, v = approx.durbin_levinson(c, order)
            ref_phi, ref_v = reference(c, order)
            assert phi.shape == (order,)
            assert phi.tobytes() == ref_phi.tobytes()
            assert v == ref_v


class TestFitMa:
    def test_recovers_ma1(self):
        c = ma1_acv(0.5, 1.0, 250)
        theta, s2 = approx.fit_ma(c, 1)
        assert abs(theta[0] - 0.5) < 1e-3
        assert abs(s2 - 1.0) < 1e-3

    def test_white_noise_any_order(self):
        c = np.zeros(300)
        c[0] = 1.9
        theta, s2 = approx.fit_ma(c, 3)
        assert np.abs(theta).max() < 1e-12
        assert abs(s2 - 1.9) < 1e-12

    def test_order_zero(self):
        c = ma1_acv(0.5, 1.0, 10)
        theta, s2 = approx.fit_ma(c, 0)
        assert theta.size == 0 and s2 == c[0]

    def test_error_decreasing_on_ar1_target(self):
        target = SpharmaModel.uniform(0, ar=[0.5], noise=1.0)
        c = model_autocovariance(target, 0, 400)
        lam = frequency_grid(512)
        f_true = target.spectral().values(lam)[0]
        errs = []
        for q in (1, 2, 4, 8):
            theta, s2 = approx.fit_ma(c, q)
            from spharma.spectral import abs2_on_circle

            f_fit = s2 / TWO_PI * abs2_on_circle(np.r_[1.0, theta], np.exp(1j * lam))
            errs.append(np.abs(f_fit - f_true).max())
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_fitted_polynomial_invertible(self):
        m = SpharmaModel.uniform(0, ma=[0.6, 0.2], noise=1.0)
        c = model_autocovariance(m, 0, 300)
        theta, _ = approx.fit_ma(c, 2)
        roots = lag_polynomial_roots(theta, kind="ma")
        assert np.abs(roots).min() > 1.0


class TestFitAr:
    def test_white_noise(self):
        c = np.zeros(5)
        c[0] = 0.7
        phi, s2 = approx.fit_ar(c, 2)
        assert np.abs(phi).max() < 1e-14 and abs(s2 - 0.7) < 1e-14

    def test_error_decreasing_on_ma1_target(self):
        target = SpharmaModel.uniform(0, ma=[0.5], noise=1.0)
        c = model_autocovariance(target, 0, 40)
        lam = frequency_grid(512)
        f_true = target.spectral().values(lam)[0]
        errs = []
        for p in (1, 2, 4, 8, 16):
            phi, s2 = approx.fit_ar(c, p)
            from spharma.spectral import abs2_on_circle

            f_fit = s2 / TWO_PI / abs2_on_circle(np.r_[1.0, -phi], np.exp(1j * lam))
            errs.append(np.abs(f_fit - f_true).max())
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_fitted_causal(self):
        target = SpharmaModel.uniform(0, ma=[0.7], noise=1.0)
        c = model_autocovariance(target, 0, 40)
        phi, _ = approx.fit_ar(c, 12)
        probe = SpharmaModel(0, [phi], [np.empty(0)], np.array([1.0]))
        assert check_causal(probe).causal


class TestSpectralDistance:
    def test_identical_is_zero(self):
        spec = SpharmaModel.uniform(2, ar=[0.4], noise=1.0).spectral()
        assert spectral_distance(spec, spec) == 0.0

    def test_single_multipole_offset(self):
        lam = frequency_grid(64)
        base = np.ones((2, len(lam)))
        bumped = base.copy()
        bumped[1] += 0.1
        f1 = SpectralEigenvalues.tabulated(lam, base)
        f2 = SpectralEigenvalues.tabulated(lam, bumped)
        assert abs(spectral_distance(f1, f2, "l2_kernel")
                   - math.sqrt(3) * 0.1) < 1e-12
        assert abs(spectral_distance(f1, f2, "trace") - 0.3) < 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(15)
        lam = frequency_grid(64)
        specs = [SpectralEigenvalues.tabulated(lam, rng.uniform(0, 1, (3, len(lam))))
                 for _ in range(3)]
        for norm in ("l2_kernel", "trace"):
            d01 = spectral_distance(specs[0], specs[1], norm)
            d12 = spectral_distance(specs[1], specs[2], norm)
            d02 = spectral_distance(specs[0], specs[2], norm)
            assert d02 <= d01 + d12 + 1e-12

    def test_grid_mismatch_rejected(self):
        f1 = SpectralEigenvalues.tabulated(frequency_grid(64), np.ones((1, 65)))
        f2 = SpectralEigenvalues.tabulated(frequency_grid(32), np.ones((1, 33)))
        with pytest.raises(ValueError):
            spectral_distance(f1, f2)


@pytest.fixture()
def lag_fetches(monkeypatch):
    """Every lag fetch that approximate_operator makes: ("table", multipoles,
    max_lag), one per ``autocov_table`` call."""
    fetches = []

    def table(spec, max_lag):
        fetches.append(("table", spec.band_limit + 1, max_lag))
        return autocov_table(spec, max_lag)

    monkeypatch.setattr(approx, "autocov_table", table)
    return fetches


class TestApproximateOperator:
    def test_fixed_point_on_exact_ma2(self):
        target_model = SpharmaModel.uniform(3, ma=[0.5, 0.2], noise=1.1)
        target = target_model.spectral()
        fitted, cert = approx.approximate_operator(target, 10.0, "ma")
        assert cert.passed
        assert cert.total_l2 < 1e-6
        for l in range(4):
            assert np.abs(fitted.ma[l] - [0.5, 0.2]).max() < 1e-6
            assert abs(fitted.noise[l] - 1.1) < 1e-6

    def test_white_noise_needs_order_zero(self):
        target = SpharmaModel.white_noise(np.full(5, 0.8)).spectral()
        for kind in ("ma", "ar"):
            fitted, cert = approx.approximate_operator(target, 0.5, kind)
            assert cert.order == 0 and cert.passed
            assert cert.total_l2 < 1e-12

    def test_order_grows_as_eps_shrinks(self):
        target = SpharmaModel.uniform(3, ar=[0.6], noise=1.0).spectral()
        orders = []
        for eps in (0.1, 0.03, 0.01):
            _, cert = approx.approximate_operator(target, eps, "ma")
            assert cert.passed
            orders.append(cert.order)
        assert orders == sorted(orders)

    def test_certified_model_invertible(self):
        target = SpharmaModel.uniform(2, ar=[0.5], noise=1.0).spectral()
        fitted, cert = approx.approximate_operator(target, 0.05, "ma")
        assert cert.passed
        assert check_invertible(fitted).causal

    def test_ar_kind_on_ma_target(self):
        target = SpharmaModel.uniform(2, ma=[0.5], noise=1.0).spectral()
        fitted, cert = approx.approximate_operator(target, 0.05, "ar",
                                                   norm="trace")
        assert cert.passed
        assert check_causal(fitted).causal
        assert fitted.q == 0 and fitted.p >= 1

    def test_order_cap_failure_reported(self):
        target = SpharmaModel.uniform(0, ar=[0.9], noise=1.0).spectral()
        _, cert = approx.approximate_operator(target, 1e-4, "ma",
                                              order_cap=4)
        assert cert.order_cap_reached
        assert not cert.passed
        assert cert.per_multipole[0][1] <= 4

    @pytest.mark.parametrize("kind, cap", [("ma", approx.DEFAULT_ORDER_CAP),
                                           ("ma", 10**9), ("ar", 64), ("ar", 10**5)])
    def test_one_lag_fetch_per_multipole(self, lag_fetches, kind, cap):
        # no escalation here goes past order 16, so whatever the cap, one
        # fetch covers both multipoles, as deep as the default cap's
        # schedule needs
        target = SpharmaModel.uniform(1, ar=[0.5], noise=1.0).spectral()
        _, cert = approx.approximate_operator(target, 1e-2, kind, order_cap=cap)
        assert cert.passed and cert.order <= 16
        order = min(cap, approx.DEFAULT_ORDER_CAP)
        depth = approx._ma_depth(order) if kind == "ma" else order
        assert lag_fetches == [("table", 2, depth)]

    def test_escalation_past_the_default_cap_fetches_deeper(self, lag_fetches,
                                                            monkeypatch):
        # multipole 0 escalates to AR order 512, past the table's 256 lags,
        # and fetches a deeper table; multipole 1 stops at order 16 and
        # reads that one
        model = SpharmaModel(1, [np.empty(0)] * 2, [np.array([0.99]),
                                                    np.array([0.5])], np.ones(2))
        target = model.spectral()
        fitted, cert = approx.approximate_operator(target, 1e-3, "ar", order_cap=1024)
        assert [o for _, o, _ in cert.per_multipole] == [512, 16]
        assert lag_fetches == [("table", 2, 256), ("table", 2, 512)]
        # the same fit as from one table at the deepest depth the cap allows
        monkeypatch.setattr(approx, "autocov_table",
                            lambda spec, k: autocov_table(spec, 1024))
        deep_fitted, deep_cert = approx.approximate_operator(target, 1e-3, "ar",
                                                             order_cap=1024)
        assert deep_cert == cert
        assert deep_fitted.content_hash() == fitted.content_hash()

    def test_lag_table_rows_are_the_per_multipole_fetches(self):
        # the table each escalation reads, for both target forms: exact lags
        # of a rational target, trapezoid lags of a tabulated one
        model = SpharmaModel(2, [[0.5], [], [0.9, -0.2]], [[], [0.4], [0.3]],
                             np.ones(3))
        lam = frequency_grid()
        table = autocov_table(model.spectral(), 300).values
        for l in range(3):
            assert (table[l].tobytes()
                    == model_autocovariance(model, l, 300).tobytes())
        f = model.spectral().values(lam)
        table = autocov_table(SpectralEigenvalues.tabulated(lam, f), 300).values
        for l in range(3):
            assert (table[l].tobytes()
                    == trapezoid_lags(lam, f[l], 300).tobytes())

    def test_tabulated_escalation_stops_before_the_lag_period(self, monkeypatch):
        # the trapezoid lags of the 4097-node grid have period 4096; the MA
        # order 256 (depth 5120) would be fitted on a singular Toeplitz matrix
        lam = frequency_grid()
        ar1 = SpharmaModel.uniform(0, ar=[0.95], noise=1.0).spectral()
        target = SpectralEigenvalues.tabulated(lam, ar1.values(lam))
        depths = []
        fit_ma = approx.fit_ma

        def fit(c, q):
            depths.append(len(c) - 1)
            return fit_ma(c, q)

        monkeypatch.setattr(approx, "fit_ma", fit)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fitted, cert = approx.approximate_operator(target, 1e-9, "ma")
        assert max(depths) < len(lam) - 1 == 4096
        assert [w for w in caught if "grid is coarse" in str(w.message)]
        assert cert.order == 128 and cert.order_cap_reached and not cert.passed
        # the same certificate and model as an escalation capped at order 128
        with pytest.warns(UserWarning, match="grid is coarse"):
            capped_fitted, capped = approx.approximate_operator(
                target, 1e-9, "ma", order_cap=128)
        assert capped == cert
        assert capped_fitted.content_hash() == fitted.content_hash()

    def test_negative_order_cap_rejected(self):
        target = SpharmaModel.uniform(0, ar=[0.5], noise=1.0).spectral()
        with pytest.raises(ValueError, match="order_cap must be nonnegative"):
            approx.approximate_operator(target, 1e-2, "ma", order_cap=-1)

    def test_certificate_json(self):
        target = SpharmaModel.uniform(1, ar=[0.4], noise=1.0).spectral()
        _, cert = approx.approximate_operator(target, 0.1, "ma")
        payload = cert.to_json()
        assert payload["passed"] is True
        assert payload["schema"] == 1
        assert {"l", "order", "sup_error"} <= set(payload["per_multipole"][0])

    def test_grid_refinement_stability(self):
        target = SpharmaModel.uniform(2, ar=[0.5], noise=1.0).spectral()
        fitted, cert = approx.approximate_operator(target, 0.05, "ma")
        fine = spectral_distance(target, fitted.spectral(), "l2_kernel",
                                 lams=frequency_grid(4 * 4096))
        assert abs(fine - cert.total_l2) <= 0.01 * max(cert.total_l2, 1e-30)

    def test_total_bounded_by_per_multipole_errors(self):
        target = SpharmaModel.uniform(3, ar=[0.5], ma=[0.2], noise=1.0).spectral()
        _, cert = approx.approximate_operator(target, 0.02, "ma")
        deg = 2 * np.arange(4) + 1
        errs = np.array([e for _, _, e in cert.per_multipole])
        assert cert.total_l2 <= math.sqrt(deg @ errs**2) + cert.tail_error + 1e-15
        assert cert.total_trace <= deg @ errs + cert.tail_error + 1e-15


class TestWold:
    def test_ar1(self):
        m = SpharmaModel.uniform(1, ar=[0.5], noise=2.0)
        acv = model_autocovariance_table(m, 300)
        w, residual = approx.wold(acv, 30)
        assert w.p == 0 and w.q == 30
        assert np.abs(w.ma[0] - 0.5 ** np.arange(1, 31)).max() < 1e-6
        assert np.abs(w.noise - 2.0).max() < 1e-6
        assert abs((2 * np.arange(2) + 1) @ residual) < 1e-6

    def test_white_noise(self):
        m = SpharmaModel.white_noise(np.array([1.5, 0.5]))
        acv = model_autocovariance_table(m, 250)
        w, _ = approx.wold(acv, 10)
        assert max(np.abs(ma).max() for ma in w.ma) < 1e-12
        assert np.allclose(w.noise, [1.5, 0.5])

    def test_spectral_identity(self):
        m = SpharmaModel.uniform(2, ar=[0.45, 0.2], ma=[0.3], noise=1.3)
        acv = model_autocovariance_table(m, 400)
        w, _ = approx.wold(acv, 120)
        lam = frequency_grid(512)
        assert np.abs(w.spectral().values(lam) - m.spectral().values(lam)).max() < 1e-4

    def test_arma11_residual_and_h_step(self):
        # the Wold model of an ARMA(1, 1) keeps its autocovariances and its
        # h-step errors, beyond the 40 psi weights too (h = 41)
        m = SpharmaModel.uniform(2, ar=[0.5], ma=[0.3])
        w, residual = approx.wold(model_autocovariance_table(m, 200), 40)
        assert w.q == 40 and residual.max() < 1e-12
        for h in (1, 2, 10, 41):
            assert abs(approx.h_step_error(w, h) - approx.h_step_error(m, h)) < 1e-12

    def test_deterministic_component_rejected(self):
        # a_{l,m}(t) = X cos(lambda0 t) + Y sin(lambda0 t) is deterministic;
        # its autocovariance is c0 cos(lambda0 t) and the innovations
        # variance collapses
        t = np.arange(121)
        vals = np.cos(0.7 * t)[None, :]
        from spharma.spectral import AutocovarianceSpectrum

        acv = AutocovarianceSpectrum(0, 120, vals)
        with pytest.warns(UserWarning), pytest.raises(ValueError):
            approx.wold(acv, 5)


class TestHStep:
    def test_one_step_is_sigma_total(self):
        m = SpharmaModel.uniform(1, ar=[0.5], noise=1.0)
        w, _ = approx.wold(model_autocovariance_table(m, 250), 50)
        assert abs(approx.h_step_error(w, 1) - np.array([1, 3]) @ w.noise) < 1e-12
        assert approx.h_step_error(m, 1) == 4.0

    def test_two_step_single_multipole(self):
        m = SpharmaModel.uniform(0, ar=[0.5], noise=1.0)
        w, _ = approx.wold(model_autocovariance_table(m, 250), 50)
        assert abs(approx.h_step_error(w, 2) - 1.25) < 1e-6
        assert approx.h_step_error(m, 2) == 1.25

    def test_converges_to_total_variance(self):
        m = SpharmaModel.uniform(0, ar=[0.5], noise=1.0)
        w, _ = approx.wold(model_autocovariance_table(m, 250), 80)
        errs = [approx.h_step_error(w, h) for h in (1, 2, 5, 10, 40)]
        assert all(b >= a for a, b in zip(errs, errs[1:]))
        assert abs(errs[-1] - 4.0 / 3.0) < 1e-6

    def test_non_causal_model_rejected(self):
        m = SpharmaModel.uniform(0, ar=[1.5], noise=1.0)
        with pytest.raises(ValueError, match="not causal"):
            approx.h_step_error(m, 2)


class TestL2OmegaCheck:
    def test_self_reconstruction_is_exact(self):
        m = SpharmaModel.uniform(2, ar=[0.5], ma=[0.3], noise=1.0)
        assert approx.l2_omega_error(m, m) == 0.0
        # against white noise the error is sum_l (2l + 1) sum_{j>=1} psi_j^2
        # / 4 pi, and psi_j = 0.8 * 0.5^(j-1) sums to 0.64 / 0.75 per l
        err = approx.l2_omega_error(m, SpharmaModel.white_noise(m.noise))
        assert abs(err - 9 * 0.64 / (0.75 * 4 * math.pi)) < 1e-12

    def test_error_monotone_in_ma_order(self):
        true_model = SpharmaModel.uniform(2, ar=[0.5], ma=[0.3], noise=1.0)
        results = []
        for q in (1, 2, 4):
            fitted = _fit_ma_model(true_model, q)
            results.append(approx.l2_omega_error(true_model, fitted))
        for a, b in zip(results, results[1:]):
            assert b <= a

    def test_error_close_to_analytic_tail(self):
        true_model = SpharmaModel.uniform(1, ar=[0.6], noise=1.0)
        q = 3
        fitted = _fit_ma_model(true_model, q)
        err = approx.l2_omega_error(true_model, fitted)
        tail = 0.0
        for l in range(2):
            psi = psi_coefficients(true_model, l, 200)
            tail += (2 * l + 1) / (4 * math.pi) * true_model.noise[l] * (
                psi[q + 1 :] @ psi[q + 1 :])
        assert abs(err - tail) < 0.1 * tail

    def test_noncausal_rejected(self):
        good = SpharmaModel.uniform(0, ar=[0.5], noise=1.0)
        bad = SpharmaModel.uniform(0, ar=[1.05], noise=1.0)
        wide = SpharmaModel.uniform(1, ar=[0.5], noise=1.0)
        with pytest.raises(ValueError, match="true model is not causal"):
            approx.l2_omega_error(bad, good)
        with pytest.raises(ValueError, match="fitted model is not causal"):
            approx.l2_omega_error(good, bad)
        with pytest.raises(ValueError, match="fitted band limit exceeds"):
            approx.l2_omega_error(good, wide)

    @pytest.mark.parametrize("fit, seed", [
        ("ma", 21), ("ar", 22), ("arma", 23), ("band_cut", 24)])
    def test_exact_matches_monte_carlo(self, fit, seed):
        true_model = SpharmaModel(
            2, [[0.5, -0.2], [0.6], [0.3]], [[0.3], [], [0.4, 0.2]],
            [1.0, 0.7, 0.5])
        fitted = {
            "ma": lambda: _fit_ma_model(true_model, 2),
            "ar": lambda: _fit_ar_model(true_model, 2),
            "arma": lambda: SpharmaModel.uniform(2, ar=[0.4], ma=[0.2]),
            "band_cut": lambda: SpharmaModel(1, true_model.ar[:2],
                                             true_model.ma[:2],
                                             true_model.noise[:2]),
        }[fit]()
        exact = approx.l2_omega_error(true_model, fitted)
        mse, se = monte_carlo_l2_omega(true_model, fitted, 50000, seed)
        assert abs(exact - mse) <= 3.0 * se, (exact, mse, se)


def monte_carlo_l2_omega(true_model, fitted_model, n_mc, seed):
    """Monte Carlo oracle of ``approx.l2_omega_error``: ``(mse, stderr)``.

    The true model is simulated, and its innovations are drawn again from
    the same Philox streams and burn-in as white noise of its noise powers;
    the fitted model is then driven by those innovation streams:

    * pure MA fit: reconstruction z(t) + sum_j theta_j z(t-j) per stream
      (plus the bare z(t) for multipoles above the fitted band limit);
    * pure AR fit: the residual a(t) - sum_j phi_j a(t-j) - z(t) is the
      reconstruction error directly;
    * general ARMA: the fitted recursion is run on the innovations.

    The error field is evaluated at one node and averaged over time after a
    warm-up (the fitted AR order for an AR fit, else the MA order or the
    decay length of the AR roots, at most 2000 and half the run); the
    standard error comes from batch means.
    """
    series = simulate_spharma(true_model, SimulationConfig(seed=seed, n=n_mc))
    innov = simulate_white_noise(true_model.noise, SimulationConfig(
        seed=seed, n=n_mc, burn_in=series.provenance["burn_in"]))
    L_true, L_fit = true_model.band_limit, fitted_model.band_limit
    ar_fit = fitted_model.q == 0 and fitted_model.p > 0
    if ar_fit:
        warmup = fitted_model.p
    else:
        xi = check_causal(fitted_model).min_root_modulus
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
        elif ar_fit:
            err[rows] = arma_filter([], -fitted_model.ar[l], a) - z
        else:
            err[rows] = a - arma_filter(fitted_model.ar[l], fitted_model.ma[l], z)

    e_node = harmonic_values_at(L_true, 1.047197551196598, 0.8) @ err
    tail = e_node[warmup:] ** 2
    return float(tail.mean()), batch_means_se(tail)


def _fit_ar_model(true_model, p):
    ar = []
    noise = np.empty(true_model.band_limit + 1)
    for l in range(true_model.band_limit + 1):
        phi, s2 = approx.fit_ar(model_autocovariance(true_model, l, p), p)
        ar.append(phi)
        noise[l] = s2
    return SpharmaModel(true_model.band_limit, ar,
                        [np.empty(0)] * (true_model.band_limit + 1), noise)


def _fit_ma_model(true_model, q):
    ma = []
    noise = np.empty(true_model.band_limit + 1)
    for l in range(true_model.band_limit + 1):
        c = model_autocovariance(true_model, l, approx._ma_depth(q))
        theta, s2 = approx.fit_ma(c, q)
        ma.append(theta)
        noise[l] = s2
    return SpharmaModel(true_model.band_limit,
                        [np.empty(0)] * (true_model.band_limit + 1), ma, noise)
