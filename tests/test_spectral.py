import math

import numpy as np
import pytest

from spharma import spectral
from spharma.model import SpharmaModel, model_autocovariance_table
from spharma.spectral import SpectralEigenvalues

from oracles import (ckl_truncation_error, covariance_kernel_eval, kernel_l2_norm,
                     summability_report, total_variance)

FOUR_PI = 4.0 * math.pi


def single_l_acv(l, band_limit, value, max_lag=0):
    vals = np.zeros((band_limit + 1, max_lag + 1))
    vals[l, 0] = value
    return vals


def geometric_acv(band_limit, max_lag, amps, ratios):
    t = np.arange(max_lag + 1)
    return np.array([a * r**t for a, r in zip(amps, ratios)])


class TestKernelEval:
    def test_monopole_unit_kernel(self):
        acv = single_l_acv(0, 2, FOUR_PI)
        for c in (-1.0, -0.2, 0.7, 1.0):
            assert abs(covariance_kernel_eval(acv, 0, c) - 1.0) < 1e-14

    def test_dipole_kernel_is_linear(self):
        acv = single_l_acv(1, 3, FOUR_PI / 3.0)
        for c in (-0.8, 0.0, 0.3, 1.0):
            assert abs(covariance_kernel_eval(acv, 0, c) - c) < 1e-14

    def test_zero_lag_row(self):
        vals = np.zeros((3, 2))
        vals[:, 0] = [1.0, 0.5, 0.2]
        assert covariance_kernel_eval(vals, 1, 0.4) == 0.0

    def test_lag_out_of_range(self):
        acv = single_l_acv(0, 1, 1.0)
        with pytest.raises(ValueError):
            covariance_kernel_eval(acv, 1, 0.0)

    def test_value_at_c_one_is_total_variance_density(self):
        acv = geometric_acv(2, 4, [1.0, 0.5, 0.25], [0.5, 0.4, 0.3])
        got = covariance_kernel_eval(acv, 0, 1.0)
        assert abs(got - total_variance(acv) / FOUR_PI) < 1e-13


class TestKernelL2Norm:
    def test_single_multipole(self):
        acv = single_l_acv(2, 4, 0.5)
        assert abs(kernel_l2_norm(acv, 0) - math.sqrt(5 * 0.25)) < 1e-14

    def test_all_zero(self):
        assert kernel_l2_norm(np.zeros((4, 3)), 1) == 0.0

    def test_two_multipoles(self):
        vals = np.zeros((2, 1))
        vals[:, 0] = [1.0, 1.0]
        assert abs(kernel_l2_norm(vals, 0) - 2.0) < 1e-14

    def test_against_double_integral_oracle(self):
        # ||r||^2 = 8 pi^2 * integral of r(c)^2 dc by Gauss quadrature
        acv = geometric_acv(3, 2, [1.0, 0.4, 0.2, 0.1], [0.5, 0.3, 0.2, 0.1])
        x, w = np.polynomial.legendre.leggauss(32)
        r = covariance_kernel_eval(acv, 1, x)
        oracle = math.sqrt(8.0 * math.pi**2 * float(w @ r**2))
        assert abs(kernel_l2_norm(acv, 1) - oracle) < 1e-12


class TestTraceNorm:
    def test_flat_band(self):
        lam = spectral.frequency_grid(64)
        table = np.vstack([np.ones_like(lam)] * 3)
        spec = SpectralEigenvalues.tabulated(lam, table)
        assert abs(spectral.operator_trace_norm(spec, 0.3) - 9.0) < 1e-12

    def test_zero(self):
        lam = spectral.frequency_grid(64)
        spec = SpectralEigenvalues.tabulated(lam, np.zeros((2, len(lam))))
        assert spectral.operator_trace_norm(spec, -1.0) == 0.0

    def test_ar1_closed_form(self):
        spec = SpharmaModel.uniform(1, ar=[0.5], noise=1.0).spectral()
        expected = 4.0 * 1.0 / (2.0 * math.pi * 0.25)
        assert abs(spectral.operator_trace_norm(spec, 0.0) - expected) < 1e-12

    def test_tail_bound_added(self):
        lam = spectral.frequency_grid(16)
        spec = SpectralEigenvalues.tabulated(lam, np.ones((1, len(lam))),
                                             tail_bound=0.25)
        assert abs(spectral.operator_trace_norm(spec, 0.0) - 1.25) < 1e-12


class TestFourierPair:
    def test_white_noise_is_flat(self):
        acv = single_l_acv(0, 1, 2.0, max_lag=3)
        spec = spectral.spectral_from_autocov(acv)
        assert np.abs(spec.table[0] - 2.0 / (2 * math.pi)).max() < 1e-14

    def test_ar1_matches_closed_form(self):
        phi = 0.5
        t = np.arange(201)
        vals = (phi**t / (1 - phi**2))[None, :]
        spec = spectral.spectral_from_autocov(vals)
        lam = spec.lam
        closed = 1.0 / (2 * math.pi * (1 - 2 * phi * np.cos(lam) + phi**2))
        assert np.abs(spec.table[0] - closed).max() < 1e-8

    def test_ma1_direct_sum(self):
        vals = np.array([[1.0, 0.4]])
        spec = spectral.spectral_from_autocov(vals)
        expected = (1.0 + 0.8 * np.cos(spec.lam)) / (2 * math.pi)
        assert np.abs(spec.table[0] - expected).max() < 1e-14
        assert np.all(spec.table >= 0.0)

    def test_inversion_flat_density(self):
        lam = spectral.frequency_grid(256)
        spec = SpectralEigenvalues.tabulated(lam, np.full((1, len(lam)),
                                                          1.0 / (2 * math.pi)))
        back = spectral.autocov_table(spec, 1)[0]
        assert abs(back[0] - 1.0) < 1e-12
        assert abs(back[1]) < 1e-12

    def test_inversion_ar1(self):
        spec = SpharmaModel.uniform(0, ar=[0.5], noise=0.75).spectral()
        back = spectral.autocov_table(spec, 1)[0]
        assert abs(back[0] - 1.0) < 1e-10
        assert abs(back[1] - 0.5) < 1e-10

    def test_roundtrip_geometric(self):
        rng = np.random.default_rng(2)
        amps = rng.uniform(0.5, 2.0, 4)
        ratios = rng.uniform(-0.9, 0.9, 4)
        acv = geometric_acv(3, 50, amps, ratios)
        spec = spectral.spectral_from_autocov(acv)
        back = spectral.autocov_table(spec, 50)
        for t in (0, 1, 7, 50):
            assert np.abs(back[:, t] - acv[:, t]).max() < 1e-8

    def test_significant_negative_rejected(self):
        vals = np.array([[1.0, 0.9]])  # 1 + 1.8 cos(lam) dips well below 0
        with pytest.raises(ValueError):
            spectral.spectral_from_autocov(vals)


class TestSummability:
    def test_white_noise_sums_are_lag_zero(self):
        acv = single_l_acv(0, 2, 3.0, max_lag=4)
        rep = summability_report(acv)
        assert abs(rep.kernel_l2_sum - 3.0) < 1e-14
        assert abs(rep.trace_sum - 3.0) < 1e-14
        assert not rep.divergent

    def test_ar1_model_triples_lag_zero(self):
        model = SpharmaModel.uniform(2, ar=[0.5], noise=1.0)
        rep = summability_report(model, max_lag=200)
        acv0 = model_autocovariance_table(model, 0)
        deg = 2 * np.arange(3) + 1
        lag0 = float(deg @ acv0[:, 0])
        assert abs(rep.trace_sum + rep.tail_estimate - 3.0 * lag0) < 1e-9 * lag0
        assert not rep.divergent

    def test_unit_root_flags_divergence(self):
        model = SpharmaModel.uniform(1, ar=[1.0], noise=1.0)
        rep = summability_report(model)
        assert rep.divergent

    def test_trace_norm_bounded_by_summed_trace(self):
        model = SpharmaModel.uniform(3, ar=[0.4], ma=[0.3], noise=0.7)
        rep = summability_report(model, max_lag=300)
        spec = model.spectral()
        lam = spectral.frequency_grid(128)
        trace = spectral.operator_trace_norm(spec, lam)
        assert trace.max() <= rep.trace_sum + rep.tail_estimate + 1e-9


class TestCklTruncation:
    def test_zero_at_band_limit(self):
        spec = SpharmaModel.white_noise(np.ones(4)).spectral()
        assert ckl_truncation_error(spec, 3) == 0.0

    def test_constant_densities(self):
        cs = np.array([1.0, 0.5, 0.25, 0.125])
        lam = spectral.frequency_grid(128)
        table = np.outer(cs / (2 * math.pi), np.ones_like(lam))
        spec = SpectralEigenvalues.tabulated(lam, table)
        got = ckl_truncation_error(spec, 1)
        expected = (5 * 0.25 + 7 * 0.125) / FOUR_PI
        assert abs(got - expected) < 1e-10
        # a rational ARMA(1, 1) spectrum integrates to the lag-0 autocovariance
        # (1 + 2 phi theta + theta^2) / (1 - phi^2) at unit noise
        spec = SpharmaModel.uniform(2, ar=[0.5], ma=[0.3]).spectral()
        got = ckl_truncation_error(spec, 0)
        expected = (3 + 5) * (1 + 0.3 + 0.09) / 0.75 / FOUR_PI
        assert abs(got - expected) < 1e-12

    def test_near_unit_root_is_exact(self):
        # trapezoid lags on the 4097-node grid alias by C(t + 4096), which is
        # near C(t) at phi = 0.9995: a rational target's lags must be exact
        phi, theta = 0.9995, 0.3
        spec = SpharmaModel.uniform(2, ar=[phi], ma=[theta]).spectral()
        c0 = (1 + 2 * phi * theta + theta**2) / (1 - phi**2)
        c1 = (1 + phi * theta) * (phi + theta) / (1 - phi**2)
        expected = np.r_[c0, c1 * phi ** np.arange(4)]
        lags = spectral.autocov_table(spec, 4)
        assert np.abs(lags - expected).max() <= 1e-12 * c0
        got = ckl_truncation_error(spec, 0)
        assert abs(got - (3 + 5) * c0 / FOUR_PI) <= 1e-12 * got

    def test_l_trunc_above_band_rejected(self):
        spec = SpharmaModel.white_noise(np.ones(2)).spectral()
        with pytest.raises(ValueError):
            ckl_truncation_error(spec, 5)
        with pytest.raises(ValueError):
            ckl_truncation_error(spec, -2)


class TestInvariants:
    def test_eigenvalue_below_kernel_l2_norm(self):
        model = SpharmaModel.uniform(4, ar=[0.5], ma=[0.25], noise=1.1)
        spec = model.spectral()
        lam = spectral.frequency_grid(64)
        F = spec.values(lam)
        deg = (2 * np.arange(5) + 1)[:, None]
        l2 = np.sqrt((deg * F**2).sum(axis=0))
        assert np.all(F <= l2[None, :] + 1e-12)
        assert np.all(F >= 0.0)

    def test_validation_rejects_cauchy_schwarz_violation(self):
        vals = np.array([[1.0, 1.5]])
        with pytest.raises(ValueError):
            spectral.spectral_from_autocov(vals)

    def test_validation_rejects_negative_variance(self):
        vals = np.array([[-0.5]])
        with pytest.raises(ValueError):
            spectral.spectral_from_autocov(vals)

    @pytest.mark.parametrize("vals, message", [
        ([[1.0, math.nan]], "autocovariances must be finite"),
        ([1.0, 0.5], r"\(L\+1, max_lag\+1\)")], ids=["nan", "1-d"])
    def test_validation_rejects_non_finite_or_non_2d_lags(self, vals, message):
        with pytest.raises(ValueError, match=message):
            spectral.spectral_from_autocov(np.array(vals))

    @pytest.mark.parametrize("tail", [math.nan, math.inf, -0.5])
    def test_validation_rejects_bad_tail_bound(self, tail):
        model = SpharmaModel.uniform(0, ar=[0.5])
        with pytest.raises(ValueError, match="tail_bound"):
            SpectralEigenvalues.rational(model, tail_bound=tail)
        lam = spectral.frequency_grid(16)
        with pytest.raises(ValueError, match="tail_bound"):
            SpectralEigenvalues.tabulated(lam, np.ones((1, 17)), tail_bound=tail)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_validation_rejects_non_finite_table(self, bad):
        table = np.ones((1, 17))
        table[0, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            SpectralEigenvalues.tabulated(spectral.frequency_grid(16), table)

    def test_json_roundtrips(self, tmp_path):
        acv = geometric_acv(2, 3, [1.0, 0.5, 0.2], [0.5, 0.4, 0.3])
        spec = SpharmaModel.uniform(2, ar=[0.4], noise=2.0).spectral()
        spath = tmp_path / "spec.json"
        spec.save(spath)
        back = SpectralEigenvalues.load(spath)
        lam = spectral.frequency_grid(32)
        assert np.allclose(back.values(lam), spec.values(lam))

        tab = spectral.spectral_from_autocov(acv)
        tpath = tmp_path / "tab.json"
        tab.save(tpath)
        back = SpectralEigenvalues.load(tpath)
        assert np.allclose(back.table, tab.table)

    def test_rational_file_format_is_pinned(self, tmp_path):
        # a rational spectrum file byte for byte as save() has always written it
        text = ('{"schema": 1, "form": "rational", "band_limit": 1, '
                '"tail_bound": 0.125, "rational": ['
                '{"l": 0, "ar": [0.5, -0.2], "ma": [0.3], "noise": 1.0}, '
                '{"l": 1, "ar": [], "ma": [0.4], "noise": 0.25}]}')
        path = tmp_path / "spec.json"
        path.write_text(text)
        SpectralEigenvalues.load(path).save(path)
        assert path.read_text() == text
        model = SpharmaModel(1, [[0.5, -0.2], []], [[0.3], [0.4]], [1.0, 0.25])
        assert model.spectral().to_json()["rational"] == model.to_json()["entries"]

    def test_tabulated_band_limit_must_match_rows(self):
        lam = spectral.frequency_grid(16)
        payload = SpectralEigenvalues.tabulated(lam, np.ones((2, len(lam)))).to_json()
        payload["band_limit"] = 5
        with pytest.raises(ValueError, match="band_limit"):
            SpectralEigenvalues.from_json(payload)


class TestTabulatedLags:
    def test_lags_match_a_40_digit_trapezoid_sum(self):
        # the trapezoid sum of the stored table, with exact nodes
        # -pi + 2 pi k / N, summed at 40 digits
        mp = pytest.importorskip("mpmath")
        n = 4096
        lam = spectral.frequency_grid(n)
        f = SpharmaModel.uniform(0, ar=[0.95]).spectral().values(lam)[0]
        lags = (0, 1, 2047, 5000)
        got = spectral.trapezoid_lags(lam, f, max(lags))
        with mp.workdps(40):
            h = 2 * mp.pi / n
            nodes = [-mp.pi + h * k for k in range(n + 1)]
            weights = [mp.mpf(x) for x in f]
            weights[0] /= 2
            weights[-1] /= 2
            for t in lags:
                exact = h * mp.fsum(w * mp.cos(t * x) for w, x in zip(weights, nodes))
                if t == 0:
                    c0 = exact
                assert abs(mp.mpf(got[t]) - exact) <= 1e-15 * c0

    def test_lags_are_periodic_in_the_grid_size(self):
        lam = spectral.frequency_grid(64)
        f = SpharmaModel.uniform(1, ar=[0.5], ma=[0.2]).spectral().values(lam)
        c = spectral.trapezoid_lags(lam, f, 200)
        assert c.shape == (2, 201)
        assert np.array_equal(c[:, 64:128], c[:, :64])
        assert np.abs(c[:, 1:32] - c[:, 63:32:-1]).max() <= 1e-15 * c[:, 0].max()


def ar1_half_density(lam):
    return SpharmaModel.uniform(0, ar=[0.5]).spectral().values(lam)


def nonuniform_grid():
    """Symmetric 2049-node grid on [-pi, pi], denser in the middle."""
    u = np.linspace(-1.0, 1.0, 2049)
    return math.pi * (0.6 * u + 0.4 * u**3)


class TestGridCheck:
    def test_nonuniform_grid_rejected(self):
        # trapezoid weights lam[1] - lam[0] once made C(0) = 3.06 of this
        # AR(1) table, whose exact C(0) is 4/3
        lam = nonuniform_grid()
        with pytest.raises(ValueError, match="frequency_grid"):
            SpectralEigenvalues.tabulated(lam, ar1_half_density(lam))
        with pytest.raises(ValueError, match="frequency_grid"):
            spectral.trapezoid_lags(lam, ar1_half_density(lam)[0], 2)

    @pytest.mark.parametrize("lo, hi", [(-math.pi, 0.5 * math.pi),
                                        (0.0, 2.0 * math.pi),
                                        (-3.0, 3.0)])
    def test_grid_not_spanning_minus_pi_to_pi_rejected(self, lo, hi):
        lam = np.linspace(lo, hi, 2049)
        with pytest.raises(ValueError, match="frequency_grid"):
            SpectralEigenvalues.tabulated(lam, np.ones((1, len(lam))))

    @pytest.mark.parametrize("lam", [[0.0], [], [[-math.pi, math.pi]]])
    def test_degenerate_grids_rejected(self, lam):
        with pytest.raises(ValueError, match="frequency grid"):
            SpectralEigenvalues.tabulated(lam, np.ones((1, np.size(lam))))

    def test_grid_to_rounding_accepted(self):
        n = 1000
        lam = -math.pi + 2.0 * math.pi * np.arange(n + 1) / n
        assert not np.array_equal(lam, spectral.frequency_grid(n))
        spec = SpectralEigenvalues.tabulated(lam, ar1_half_density(lam))
        assert abs(spectral.autocov_table(spec, 0)[0, 0] - 4.0 / 3.0) < 1e-12


class TestCircleEvaluation:
    def test_empty_coefficients_give_zeros(self):
        lam = spectral.frequency_grid(8)
        assert np.array_equal(spectral.abs2_on_circle([], np.exp(1j * lam)),
                              np.zeros(9))
        assert spectral.abs2_on_circle(np.empty(0), np.exp(0.3j)) == 0.0

    @pytest.mark.parametrize("ar, ma", [([], []), ([0.5, -0.2], []),
                                        ([], [0.3, 0.1]), ([0.9], [0.4])])
    def test_rational_density_is_bit_for_bit_the_horner_quotient(self, ar, ma):
        # an empty side is skipped, not evaluated: Horner's rule gives it
        # exactly 1.0, so the quotient's bytes do not change
        z = np.exp(1j * spectral.frequency_grid())
        ar, ma = np.array(ar, dtype=float), np.array(ma, dtype=float)
        horner = (0.7 / spectral.TWO_PI
                  * spectral.abs2_on_circle(np.r_[1.0, ma], z)
                  / spectral.abs2_on_circle(np.r_[1.0, -ar], z))
        got = spectral.rational_density(ar, ma, 0.7, z)
        assert got.tobytes() == horner.tobytes()

    @pytest.mark.parametrize("ar", [[1.0], [-1.0], [0.0, 1.0]])
    def test_ar_root_on_the_circle_rejected(self, ar):
        # roots at lambda = 0, pi and +-pi/2, all nodes of frequency_grid(4096)
        with pytest.raises(ValueError, match="vanishes on the unit circle"):
            spectral.rational_density(np.array(ar), np.empty(0), 1.0,
                                      np.exp(1j * spectral.frequency_grid()))
