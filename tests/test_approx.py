import json
import math
import re
import warnings

import numpy as np
import pytest

from spharma import approx, cli
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
from spharma.approx import durbin_levinson
from spharma.simulate import (SimulationConfig, batch_means_se, empirical_autocov,
                              simulate_spharma, simulate_white_noise)
from spharma.spectral import (SpectralEigenvalues, autocov_table,
                              frequency_grid, rational_density, trapezoid_lags)
from spharma.sphere import harmonic_values_at

from oracles import durbin_levinson_dot, h_step_error, spectral_distance, wold

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

    @staticmethod
    def sample_lags(rng, order):
        # biased sample autocovariances are positive definite
        x = rng.standard_normal(order + 300)
        x = np.convolve(x, rng.uniform(-1.0, 1.0, 4), mode="valid")
        return np.correlate(x, x, mode="full")[len(x) - 1 :][: order + 1] / len(x)

    ORDERS = (0, 1, 2, 3, 17, 64, 256)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_dot_product_recursion(self, seed):
        # two stable routes to the solution of the order x order Toeplitz
        # system agree up to a forward error of order * eps * cond(T) each
        rng = np.random.default_rng(seed)
        for order in self.ORDERS + (int(rng.integers(100, 257)),):
            c = self.sample_lags(rng, order)
            k = np.arange(order + 1)
            cond = np.linalg.cond(c[np.abs(k[:, None] - k)])
            tol = 16 * (order + 1) * np.finfo(float).eps * cond
            phi, v = approx.durbin_levinson(c, order)
            ref_phi, ref_v = durbin_levinson_dot(c, order)
            assert phi.shape == (order,)
            assert (np.abs(phi - ref_phi).max(initial=0.0)
                    <= tol * max(1.0, np.abs(ref_phi).max(initial=0.0)))
            assert abs(v - ref_v) <= tol * ref_v

    @pytest.mark.parametrize("seed", range(4))
    def test_in_place_step_up_is_bitwise_the_concatenating_one(self, seed):
        rng = np.random.default_rng(seed)
        for order in self.ORDERS + (int(rng.integers(100, 257)),):
            c = self.sample_lags(rng, order)
            _, v, kappas = approx._schur(c, order)
            ref = np.empty(0)
            for kappa in kappas:
                ref = np.r_[ref - kappa * ref[::-1], kappa]
            phi, v_order = approx.durbin_levinson(c, order)
            assert phi.tobytes() == ref.tobytes()
            assert v_order == v[-1]


def factor_row(model):
    """The spectral factor and C(0) of a one-multipole model."""
    return (approx.spectral_factor(model.spectral())[0],
            model_autocovariance(model, 0, 0)[0])


class TestFitMa:
    def test_recovers_ma1(self):
        psi, c0 = factor_row(SpharmaModel.uniform(0, ma=[0.5], noise=1.0))
        theta, s2 = approx.fit_ma(psi, c0, 1)
        assert abs(theta[0] - 0.5) < 1e-3
        assert abs(s2 - 1.0) < 1e-3

    def test_white_noise_any_order(self):
        psi, c0 = factor_row(SpharmaModel.white_noise(np.array([1.9])))
        theta, s2 = approx.fit_ma(psi, c0, 3)
        assert np.abs(theta).max() < 1e-12
        assert abs(s2 - 1.9) < 1e-12

    def test_order_zero(self):
        psi, c0 = factor_row(SpharmaModel.uniform(0, ma=[0.5], noise=1.0))
        theta, s2 = approx.fit_ma(psi, c0, 0)
        assert theta.size == 0 and s2 == c0

    def test_error_decreasing_on_ar1_target(self):
        target = SpharmaModel.uniform(0, ar=[0.5], noise=1.0)
        psi, c0 = factor_row(target)
        lam = frequency_grid(512)
        f_true = target.spectral().values(lam)[0]
        errs = []
        for q in (1, 2, 4, 8):
            theta, s2 = approx.fit_ma(psi, c0, q)
            from spharma.spectral import abs2_on_circle

            f_fit = s2 / TWO_PI * abs2_on_circle(np.r_[1.0, theta], np.exp(1j * lam))
            errs.append(np.abs(f_fit - f_true).max())
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_fitted_polynomial_invertible(self):
        psi, c0 = factor_row(SpharmaModel.uniform(0, ma=[0.6, 0.2], noise=1.0))
        theta, _ = approx.fit_ma(psi, c0, 2)
        roots = lag_polynomial_roots(theta, kind="ma")
        assert np.abs(roots).min() > 1.0

    def test_refusals(self):
        # psi_1 = 1.2 of ARMA(1, 1) 0.8/0.4 is a non-invertible MA(1)
        psi, c0 = factor_row(SpharmaModel.uniform(0, ar=[0.8], ma=[0.4]))
        with pytest.raises(RuntimeError, match="not invertible"):
            approx.fit_ma(psi, c0, 1)
        with pytest.raises(ValueError, match="C\\(0\\) must be positive"):
            approx.fit_ma(psi, 0.0, 0)
        with pytest.raises(ValueError, match="no spectral factor"):
            approx.fit_ma(psi, c0, len(psi))
        with pytest.raises(ValueError, match="no spectral factor"):
            approx.fit_ma(np.full(5, np.nan), c0, 2)
        assert approx.fit_ma(np.full(5, np.nan), c0, 0)[1] == c0


class TestSpectralFactor:
    @staticmethod
    def count_rows(monkeypatch):
        """The shape of every density table ``spectral_factor`` reads."""
        shapes = []
        values = SpectralEigenvalues.values

        def recorded(self, lams=None, ls=None):
            out = values(self, lams, ls)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(SpectralEigenvalues, "values", recorded)
        return shapes

    def test_rational_grid_refines_until_the_cepstrum_decays(self):
        # AR(1) phi: c_k = phi^k / k is below 1e-13 by k = 80 at 0.7, but
        # only past k = 5400 at 0.996, so that row is refined and the other
        # zero-padded
        model = SpharmaModel(1, [[0.7], [0.996]], [[], []], np.ones(2))
        psi = approx.spectral_factor(model.spectral())
        assert psi.shape[1] > 4096 // 2 + 1
        for l, phi in enumerate((0.7, 0.996)):
            exact = phi ** np.arange(psi.shape[1])
            assert np.abs(psi[l] - exact).max() < 1e-12

    def test_tabulated_rows(self):
        lam = frequency_grid()
        f = np.vstack([np.ones_like(lam), (np.abs(lam) < 0.5).astype(float),
                       SpharmaModel.uniform(0, ma=[0.5]).spectral().values(lam)[0]])
        target = SpectralEigenvalues.tabulated(lam, f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = approx.spectral_factor(target)
        # the box has zeros, so no factor; shifted, its jumps leave a
        # cepstrum that the grid does not resolve
        assert psi.shape == (3, 2049)
        assert np.abs(psi[0] - np.eye(1, 2049)[0]).max() < 1e-15
        assert np.all(np.isnan(psi[1]))
        assert np.abs(psi[2, :3] - [1.0, 0.5, 0.0]).max() < 1e-14
        with pytest.warns(UserWarning, match="grid is coarse"):
            shifted = approx.spectral_factor(target, shift=0.01)
        assert not np.isnan(shifted).any()


    def test_only_pending_rows_are_refined(self, monkeypatch):
        # white noise and AR(1) resolve on 4096 panels; MA(1) with theta = 1
        # has c_k = (-1)^(k+1) / k, so it alone is refined up to 2^17
        model = SpharmaModel(2, [[], [0.5], []], [[], [], [1.0]], np.ones(3))
        shapes = self.count_rows(monkeypatch)
        psi = approx.spectral_factor(model.spectral())
        assert shapes == [(3, 4097)] + [(1, 2**k + 1) for k in range(13, 18)]
        # each row is bit for bit its own factor, zero-padded
        for l in range(3):
            alone = SpharmaModel(0, [model.ar[l]], [model.ma[l]], [1.0])
            row = approx.spectral_factor(alone.spectral())[0]
            assert psi[l, : len(row)].tobytes() == row.tobytes()
            assert not psi[l, len(row) :].any()

    def test_each_distinct_row_is_factored_once(self, monkeypatch):
        # rows repeat out of order; a row differing only in its noise is a
        # row of its own, in the model and in the table
        rows = [([0.5], [0.3], 1.0), ([], [0.4], 2.0), ([0.5], [0.3], 1.0),
                ([0.5], [0.3], 1.5), ([], [0.4], 2.0)]
        model = SpharmaModel(4, *[list(c) for c in zip(*rows)])
        lam = frequency_grid(1024)
        table = model.spectral().values(lam)
        tabulated = SpectralEigenvalues.tabulated(lam, table)
        for target in (model.spectral(), tabulated):
            shapes = self.count_rows(monkeypatch)
            psi = approx.spectral_factor(target)
            assert shapes == [(3, len(target.lambda_grid()))]
            for l in range(5):
                if target.form == "rational":
                    alone = SpharmaModel(0, [model.ar[l]], [model.ma[l]],
                                         [model.noise[l]]).spectral()
                else:
                    alone = SpectralEigenvalues.tabulated(lam, table[l : l + 1])
                row = approx.spectral_factor(alone)[0]
                assert psi[l, : len(row)].tobytes() == row.tobytes()
                assert not psi[l, len(row) :].any()


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


@pytest.mark.parametrize("call, message", [
    (lambda: durbin_levinson([1.0], -1), "depth must be nonnegative"),
    (lambda: durbin_levinson([1.0, 0.5], 3),
     "autocovariance sequence shorter than recursion depth"),
    (lambda: approx.fit_ma(np.ones(3), 1.0, -1), "q must be nonnegative"),
    (lambda: approx.approximate_operator(SpharmaModel.uniform(0).spectral(),
                                         0.1, "arma"),
     "kind must be 'ma' or 'ar'"),
    (lambda: approx.approximate_operator(SpharmaModel.uniform(0).spectral(),
                                         0.1, "ma", norm="l1"),
     "norm must be 'l2_kernel' or 'trace'"),
])
def test_refused_arguments(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestApproximateOperator:
    def test_fixed_point_on_exact_ma2(self):
        target_model = SpharmaModel.uniform(3, ma=[0.5, 0.2], noise=1.1)
        target = target_model.spectral()
        fitted, cert = approx.approximate_operator(target, 10.0, "ma")
        assert cert["passed"]
        assert cert["total_l2"] < 1e-6
        for l in range(4):
            assert np.abs(fitted.ma[l] - [0.5, 0.2]).max() < 1e-6
            assert abs(fitted.noise[l] - 1.1) < 1e-6

    def test_white_noise_needs_order_zero(self):
        target = SpharmaModel.white_noise(np.full(5, 0.8)).spectral()
        for kind in ("ma", "ar"):
            fitted, cert = approx.approximate_operator(target, 0.5, kind)
            assert cert["order"] == 0 and cert["passed"]
            assert cert["total_l2"] < 1e-12

    def test_order_grows_as_eps_shrinks(self):
        target = SpharmaModel.uniform(3, ar=[0.6], noise=1.0).spectral()
        orders = []
        for eps in (0.1, 0.03, 0.01):
            _, cert = approx.approximate_operator(target, eps, "ma")
            assert cert["passed"]
            orders.append(cert["order"])
        assert orders == sorted(orders)

    def test_certified_model_invertible(self):
        target = SpharmaModel.uniform(2, ar=[0.5], noise=1.0).spectral()
        fitted, cert = approx.approximate_operator(target, 0.05, "ma")
        assert cert["passed"]
        assert check_invertible(fitted).causal

    def test_ar_kind_on_ma_target(self):
        target = SpharmaModel.uniform(2, ma=[0.5], noise=1.0).spectral()
        fitted, cert = approx.approximate_operator(target, 0.05, "ar",
                                                   norm="trace")
        assert cert["passed"]
        assert check_causal(fitted).causal
        assert fitted.q == 0 and fitted.p >= 1

    def test_order_cap_failure_reported(self):
        target = SpharmaModel.uniform(0, ar=[0.9], noise=1.0).spectral()
        _, cert = approx.approximate_operator(target, 1e-4, "ma",
                                              order_cap=4)
        assert cert["order_cap_reached"]
        assert not cert["passed"]
        assert cert["per_multipole"][0]["order"] <= 4

    @pytest.mark.parametrize("kind, cap", [("ma", approx.DEFAULT_ORDER_CAP),
                                           ("ma", 10**9), ("ar", 64), ("ar", 10**5)])
    def test_one_lag_fetch_per_multipole(self, lag_fetches, kind, cap):
        # no escalation here goes past order 16, so whatever the cap, one
        # fetch covers both multipoles, as deep as the default AR cap's
        # schedule needs
        target = SpharmaModel.uniform(1, ar=[0.5], noise=1.0).spectral()
        _, cert = approx.approximate_operator(target, 1e-2, kind, order_cap=cap)
        assert cert["passed"] and cert["order"] <= 16
        # an MA fit reads C_l(0) only
        depth = 0 if kind == "ma" else min(cap, approx.DEFAULT_ORDER_CAP)
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
        assert [row["order"] for row in cert["per_multipole"]] == [512, 16]
        assert lag_fetches == [("table", 2, 256), ("table", 2, 512)]
        # the same fit as from one table at the deepest depth the cap allows
        monkeypatch.setattr(approx, "autocov_table",
                            lambda spec, k: autocov_table(spec, 1024))
        deep_fitted, deep_cert = approx.approximate_operator(target, 1e-3, "ar",
                                                             order_cap=1024)
        assert deep_cert == cert
        assert deep_fitted.content_hash() == fitted.content_hash()

    @pytest.mark.parametrize("kind", ["ma", "ar"])
    def test_one_escalation_per_distinct_row(self, monkeypatch, kind):
        # a uniform target escalates its one row once: the orders tried are
        # those of the one-multipole target with that row and the same
        # per-multipole budget, eps / (2 (L+1)^2)
        name = "fit_" + kind
        fit, orders = getattr(approx, name), []

        def counted(*args):
            orders.append(args[-1])
            return fit(*args)

        monkeypatch.setattr(approx, name, counted)
        uniform = SpharmaModel.uniform(8, ar=[0.8], ma=[0.4])
        _, cert = approx.approximate_operator(uniform.spectral(), 1e-3, kind)
        tried, orders[:] = orders[:], []
        alone = SpharmaModel.uniform(0, ar=[0.8], ma=[0.4])
        _, alone_cert = approx.approximate_operator(alone.spectral(), 1e-3 / 81,
                                                    kind)
        assert tried == orders and len(orders) > 1
        assert cert["per_multipole"] == [
            dict(alone_cert["per_multipole"][0], l=l) for l in range(9)]

    def test_lag_table_rows_are_the_per_multipole_fetches(self):
        # the table each escalation reads, for both target forms: exact lags
        # of a rational target, trapezoid lags of a tabulated one
        model = SpharmaModel(2, [[0.5], [], [0.9, -0.2]], [[], [0.4], [0.3]],
                             np.ones(3))
        lam = frequency_grid()
        table = autocov_table(model.spectral(), 300)
        for l in range(3):
            assert (table[l].tobytes()
                    == model_autocovariance(model, l, 300).tobytes())
        f = model.spectral().values(lam)
        table = autocov_table(SpectralEigenvalues.tabulated(lam, f), 300)
        for l in range(3):
            assert (table[l].tobytes()
                    == trapezoid_lags(lam, f[l], 300).tobytes())

    def test_tabulated_escalation_stops_before_the_lag_period(self, monkeypatch):
        # the trapezoid lags of the 4097-node grid have period 4096; the AR
        # order 4096 would be fitted on a singular Toeplitz matrix
        lam = frequency_grid()
        ma1 = SpharmaModel.uniform(0, ma=[0.995], noise=1.0).spectral()
        target = SpectralEigenvalues.tabulated(lam, ma1.values(lam))
        orders = []
        fit_ar = approx.fit_ar

        def fit(c, p):
            orders.append(p)
            return fit_ar(c, p)

        monkeypatch.setattr(approx, "fit_ar", fit)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fitted, cert = approx.approximate_operator(target, 1e-9, "ar",
                                                       order_cap=10**4)
        assert max(orders) < len(lam) - 1 == 4096
        assert [w for w in caught if "grid is coarse" in str(w.message)]
        # the cap was never tried, so it was not what stopped the escalation
        assert cert["order"] == 2048 and not cert["order_cap_reached"]
        assert not cert["passed"]
        # the same fit as an escalation capped at order 2048, which did try
        # its cap
        with pytest.warns(UserWarning, match="grid is coarse"):
            capped_fitted, capped = approx.approximate_operator(
                target, 1e-9, "ar", order_cap=2048)
        assert capped["order_cap_reached"]
        capped["order_cap_reached"] = False
        assert capped == cert
        assert capped_fitted.content_hash() == fitted.content_hash()

    def test_ma1_with_a_unit_root_passes_at_order_1(self):
        # f = |1 + e^{i lambda}|^2 / 2pi vanishes at lambda = pi: its factor
        # is not resolved on any grid, and the fit on f + budget/4 passes
        target = SpharmaModel.uniform(2, ma=[1.0], noise=1.0).spectral()
        fitted, cert = approx.approximate_operator(target, 1e-2, "ma")
        assert cert["passed"]
        assert [row["order"] for row in cert["per_multipole"]] == [1, 1, 1]
        assert check_invertible(fitted).causal

    def test_missed_budget_keeps_the_nearest_fit_of_either_factor(self,
                                                                  monkeypatch):
        # f = lambda^2 is 0 at the node lambda = 0, so its factor row is NaN
        # and its one fit is order-0 white noise, sup error 6.58. The factor
        # of f + budget/4 fits far nearer, none within the budget; the
        # record is the nearest fit that either factor gave
        lam = frequency_grid()
        target = SpectralEigenvalues.tabulated(lam, (lam**2)[None])
        fit_ma, errors = approx.fit_ma, []

        def traced(psi, c0, q):
            theta, sigma2 = fit_ma(psi, c0, q)
            row = rational_density(np.empty(0), theta, sigma2, np.exp(1j * lam))
            errors.append(float(np.abs(row - lam**2).max()))
            return theta, sigma2

        monkeypatch.setattr(approx, "fit_ma", traced)
        with pytest.warns(UserWarning, match="grid is coarse"):
            _, cert = approx.approximate_operator(target, 1e-2, "ma")
        record, = cert["per_multipole"]
        assert not cert["passed"] and cert["order_cap_reached"]
        assert record["order"] > 0 and len(errors) > 1
        assert record["sup_error"] <= min(errors) < 0.1

    def test_negative_order_cap_rejected(self):
        target = SpharmaModel.uniform(0, ar=[0.5], noise=1.0).spectral()
        with pytest.raises(ValueError, match="order_cap must be nonnegative"):
            approx.approximate_operator(target, 1e-2, "ma", order_cap=-1)

    def test_certificate_json(self, tmp_path):
        # the library's record is what certificate.json holds, less the hash
        # of the invoking configuration
        model = SpharmaModel.uniform(1, ar=[0.4], noise=1.0)
        model.save(tmp_path / "target.json")
        _, cert = approx.approximate_operator(model.spectral(), 0.1, "ma")
        assert cli.main(["approximate", "--target", str(tmp_path / "target.json"),
                         "--eps", "0.1", "--kind", "ma",
                         "--out", str(tmp_path / "fit")]) == cli.EXIT_OK
        written = json.loads((tmp_path / "fit" / "certificate.json").read_text())
        assert written.pop("config_hash")
        assert written == cert
        assert json.loads(json.dumps(cert)) == cert
        assert list(cert) == [
            "schema", "kind", "epsilon", "norm", "L_trunc", "order",
            "per_multipole", "tail_error", "total_l2", "total_trace", "passed",
            "order_cap_reached"]
        assert cert["passed"] is True and cert["schema"] == 1
        assert [list(row) for row in cert["per_multipole"]] == [
            ["l", "order", "sup_error"]] * 2

    def test_grid_refinement_stability(self):
        target = SpharmaModel.uniform(2, ar=[0.5], noise=1.0).spectral()
        fitted, cert = approx.approximate_operator(target, 0.05, "ma")
        fine = spectral_distance(target, fitted.spectral(), "l2_kernel",
                                 lams=frequency_grid(4 * 4096))
        assert abs(fine - cert["total_l2"]) <= 0.01 * max(cert["total_l2"], 1e-30)

    def test_total_bounded_by_per_multipole_errors(self):
        target = SpharmaModel.uniform(3, ar=[0.5], ma=[0.2], noise=1.0).spectral()
        _, cert = approx.approximate_operator(target, 0.02, "ma")
        deg = 2 * np.arange(4) + 1
        errs = np.array([row["sup_error"] for row in cert["per_multipole"]])
        tail = cert["tail_error"]
        assert cert["total_l2"] <= math.sqrt(deg @ errs**2) + tail + 1e-15
        assert cert["total_trace"] <= deg @ errs + tail + 1e-15


class TestWold:
    def test_ar1(self):
        m = SpharmaModel.uniform(1, ar=[0.5], noise=2.0)
        acv = model_autocovariance_table(m, 300)
        w, residual = wold(acv, 30)
        assert w.p == 0 and w.q == 30
        assert np.abs(w.ma[0] - 0.5 ** np.arange(1, 31)).max() < 1e-6
        assert np.abs(w.noise - 2.0).max() < 1e-6
        assert abs((2 * np.arange(2) + 1) @ residual) < 1e-6

    def test_white_noise(self):
        m = SpharmaModel.white_noise(np.array([1.5, 0.5]))
        acv = model_autocovariance_table(m, 250)
        w, _ = wold(acv, 10)
        assert max(np.abs(ma).max() for ma in w.ma) < 1e-12
        assert np.allclose(w.noise, [1.5, 0.5])

    def test_spectral_identity(self):
        m = SpharmaModel.uniform(2, ar=[0.45, 0.2], ma=[0.3], noise=1.3)
        acv = model_autocovariance_table(m, 400)
        w, _ = wold(acv, 120)
        lam = frequency_grid(512)
        assert np.abs(w.spectral().values(lam) - m.spectral().values(lam)).max() < 1e-4

    def test_arma11_residual_and_h_step(self):
        # the Wold model of an ARMA(1, 1) keeps its autocovariances and its
        # h-step errors, beyond the 40 psi weights too (h = 41)
        m = SpharmaModel.uniform(2, ar=[0.5], ma=[0.3])
        w, residual = wold(model_autocovariance_table(m, 200), 40)
        assert w.q == 40 and residual.max() < 1e-12
        for h in (1, 2, 10, 41):
            assert abs(h_step_error(w, h) - h_step_error(m, h)) < 1e-12

    @pytest.mark.parametrize("model, max_lag", [
        (SpharmaModel.uniform(1, ar=[0.5], noise=2.0), 300),
        (SpharmaModel.uniform(2, ar=[0.45, 0.2], ma=[0.3], noise=1.3), 400),
        (SpharmaModel.uniform(0, ar=[0.95], ma=[0.3]), 3000),
        (SpharmaModel.uniform(8, ar=[0.9]), 200),
    ])
    def test_weights_are_the_exact_psi(self, model, max_lag):
        acv = model_autocovariance_table(model, max_lag)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, _ = wold(acv, 150)
        for l in range(model.band_limit + 1):
            exact = psi_coefficients(model, l, 150)
            assert np.abs(w.ma[l] - exact[1:]).max() < 1e-13
        assert np.abs(w.noise - model.noise).max() < 1e-13

    def test_row_without_a_factor_is_named(self):
        # multipole 1 is white noise with a zero lag-0 variance: its lag sum
        # is zero everywhere, so it has no factor
        vals = np.zeros((2, 11))
        vals[0, 0] = 1.0
        with pytest.raises(ValueError, match="at multipole 1"):
            wold(vals, 5)

    def test_deterministic_component_rejected(self):
        # a_{l,m}(t) = X cos(lambda0 t) + Y sin(lambda0 t) is deterministic;
        # its autocovariance is c0 cos(lambda0 t), whose lag sum is a line
        # spectrum with negative side lobes: it has no factor
        t = np.arange(121)
        vals = np.cos(0.7 * t)[None, :]
        with pytest.raises(ValueError):
            wold(vals, 5)


def count_root_searches(monkeypatch):
    """The argument of every ``np.roots`` call from now on."""
    calls = []
    roots = np.roots

    def counted(poly):
        calls.append(tuple(poly))
        return roots(poly)

    monkeypatch.setattr(np, "roots", counted)
    return calls


class TestHStep:
    def test_one_root_search_per_distinct_row(self, monkeypatch):
        m = SpharmaModel.uniform(64, ar=[0.5, -0.2], ma=[0.3])
        calls = count_root_searches(monkeypatch)
        err = h_step_error(m, 5)
        assert len(calls) == 1
        head = np.array([psi_coefficients(m, l, 4) for l in range(65)])
        deg = 2 * np.arange(65) + 1
        assert err == float(deg @ (m.noise * (head * head).sum(axis=1)))

    def test_one_step_is_sigma_total(self):
        m = SpharmaModel.uniform(1, ar=[0.5], noise=1.0)
        w, _ = wold(model_autocovariance_table(m, 250), 50)
        assert abs(h_step_error(w, 1) - np.array([1, 3]) @ w.noise) < 1e-12
        assert h_step_error(m, 1) == 4.0

    def test_two_step_single_multipole(self):
        m = SpharmaModel.uniform(0, ar=[0.5], noise=1.0)
        w, _ = wold(model_autocovariance_table(m, 250), 50)
        assert abs(h_step_error(w, 2) - 1.25) < 1e-6
        assert h_step_error(m, 2) == 1.25

    def test_converges_to_total_variance(self):
        m = SpharmaModel.uniform(0, ar=[0.5], noise=1.0)
        w, _ = wold(model_autocovariance_table(m, 250), 80)
        errs = [h_step_error(w, h) for h in (1, 2, 5, 10, 40)]
        assert all(b >= a for a, b in zip(errs, errs[1:]))
        assert abs(errs[-1] - 4.0 / 3.0) < 1e-6

    def test_non_causal_model_rejected(self):
        m = SpharmaModel.uniform(0, ar=[1.5], noise=1.0)
        with pytest.raises(ValueError, match="not causal"):
            h_step_error(m, 2)


class TestL2OmegaCheck:
    def test_one_root_search_per_distinct_row(self, monkeypatch):
        # the fit's causality check and the truth's lag table, one shared
        # row each
        truth = SpharmaModel.uniform(64, ar=[0.5, -0.2], ma=[0.3])
        fit = SpharmaModel.uniform(64, ar=[0.6])
        calls = count_root_searches(monkeypatch)
        approx.l2_omega_error(truth, fit)
        assert len(calls) == 2

    def test_self_reconstruction_is_exact(self):
        # the factor and the fit's psi-weights agree to rounding, whose
        # squares are far below the scale sum_l (2l + 1) sigma_l^2 / 4 pi
        m = SpharmaModel.uniform(2, ar=[0.5], ma=[0.3], noise=1.0)
        scale = (2 * np.arange(3) + 1) @ m.noise / (4 * math.pi)
        assert approx.l2_omega_error(m, m) <= 1e-28 * scale
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
        message = re.escape("model is not causal at multipoles [0]")
        with pytest.raises(ValueError, match=message):
            approx.l2_omega_error(bad, good)
        with pytest.raises(ValueError, match=message):
            approx.l2_omega_error(good, bad)
        with pytest.raises(ValueError, match="fitted band limit exceeds"):
            approx.l2_omega_error(good, wide)

    @pytest.mark.parametrize("truth, fit", [
        (SpharmaModel.uniform(1, ar=[0.5], noise=1.3),
         SpharmaModel.uniform(1, ma=[0.4, 0.1])),
        (SpharmaModel(2, [[0.5, -0.2], [0.6], [0.3]], [[0.3], [], [0.4, 0.2]],
                      [1.0, 0.7, 0.5]), SpharmaModel.uniform(1, ar=[0.4])),
        (SpharmaModel.uniform(2, ar=[-0.7], ma=[0.5]),
         SpharmaModel.uniform(2, ar=[0.2], ma=[0.3])),
        (SpharmaModel.uniform(0, ma=[-0.6, 0.2], noise=2.0),
         SpharmaModel.white_noise([1.0])),
    ])
    def test_tabulated_target_gives_the_rational_error(self, truth, fit):
        tabulated = SpectralEigenvalues.tabulated(
            frequency_grid(), truth.spectral().values())
        exact = approx.l2_omega_error(truth, fit)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = approx.l2_omega_error(tabulated, fit)
        assert abs(got - exact) <= 1e-12 * exact

    def test_slowly_decaying_fit_is_summed_in_full(self):
        # white noise against psi-weights g_j = 1.199 * 0.999^(j - 1), j >= 1:
        # sum_j g_j^2 = 1.199^2 / (1 - 0.999^2) per unit of noise, and 1 + 3
        # degrees of freedom; the factor's 2049 terms alone miss 1.7 % of it
        truth = SpharmaModel.white_noise([1.0, 1.0])
        fit = SpharmaModel.uniform(1, ar=[0.999], ma=[0.2])
        closed = 4 / (4 * math.pi) * 1.199**2 / (1 - 0.999**2)
        assert abs(approx.l2_omega_error(truth, fit) - closed) <= 1e-10 * closed

    def test_ma_fit_longer_than_the_factor_is_summed_in_full(self):
        # an 8-panel white-noise table has a factor of 5 terms; the MA(6)
        # fit's weights theta_1..6 = 0.1 all count: C(0) * 6 * 0.01 / 4 pi
        lam = frequency_grid(8)
        target = SpectralEigenvalues.tabulated(lam, np.full((1, 9), 1.5 / TWO_PI))
        fit = SpharmaModel.uniform(0, ma=[0.1] * 6)
        err = approx.l2_omega_error(target, fit)
        assert abs(err - 1.5 * 0.06 / (4 * math.pi)) <= 1e-12 * err

    def test_target_without_a_factor_rejected(self):
        lam = frequency_grid()
        box = np.vstack([np.where(np.abs(lam) < 1.0, 1.0, 0.0), np.ones_like(lam)])
        target = SpectralEigenvalues.tabulated(lam, box)
        with pytest.raises(ValueError, match="multipole 0"):
            approx.l2_omega_error(target, SpharmaModel.white_noise([1.0, 1.0]))

    def test_tail_bound_rejected(self):
        m = SpharmaModel.uniform(1, ar=[0.5])
        target = SpectralEigenvalues.rational(m, tail_bound=0.1)
        with pytest.raises(ValueError, match="tail bound"):
            approx.l2_omega_error(target, m)

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
        report = check_causal(fitted_model)
        warmup = (fitted_model.q if math.isinf(report.min_root_modulus) else
                  min(2000, decay_length(report, 1e-8)))
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
    psi = approx.spectral_factor(true_model.spectral())
    c0 = model_autocovariance_table(true_model, 0)[:, 0]
    for l in range(true_model.band_limit + 1):
        theta, s2 = approx.fit_ma(psi[l], c0[l], q)
        ma.append(theta)
        noise[l] = s2
    return SpharmaModel(true_model.band_limit,
                        [np.empty(0)] * (true_model.band_limit + 1), ma, noise)


def test_yule_walker_round_trip_from_a_simulated_series():
    # simulate, pool lags per multipole, fit AR(2) by Durbin-Levinson and
    # take l2_omega_error against the truth; the excess over the AR(2) fit
    # to exact lags is >= 0. A p-parameter fit on N = (2l+1) n pooled
    # samples adds about p v_l / N to the one-step error v_l, weighted by
    # (2l+1) / 4 pi: sum_l p v_l / (4 pi n) in all, falling like 1/n
    L, p = 4, 2
    truth = SpharmaModel(L, [[0.6 - 0.01 * l, -0.2] for l in range(L + 1)],
                         [[0.3]] * (L + 1), [2.0 / (1 + l) for l in range(L + 1)])

    def ar_fit(lags):
        fits = [durbin_levinson(lags[l], p) for l in range(L + 1)]
        return SpharmaModel(L, [phi for phi, _ in fits], [[]] * (L + 1),
                            [v for _, v in fits])

    exact = ar_fit(model_autocovariance_table(truth, p))
    floor = approx.l2_omega_error(truth, exact)
    excess = []
    for n in (2**10, 2**12, 2**14):
        errs = [approx.l2_omega_error(truth, ar_fit(empirical_autocov(
                    simulate_spharma(truth, SimulationConfig(seed=seed, n=n)), p)))
                for seed in (1, 2, 3)]
        excess.append(np.mean(errs) - floor)
    assert excess[0] > excess[1] > excess[2] > 0.0, excess
    predicted = p * exact.noise.sum() / (4 * math.pi * 2**14)
    assert excess[2] < 4.0 * predicted, (excess, predicted)
