import math
import re
from fractions import Fraction

import numpy as np
import pytest

from spharma import model as md
from spharma import spectral
from spharma.model import SpharmaModel
from spharma.sphere import build_grid

from oracles import gauss_weights, kernel_from_eigenvalues, real_sph_harm

FOUR_PI = 4.0 * math.pi


def series_division_oracle(phi, theta, count):
    """Coefficients of theta(z)/phi(z) via the geometric operator series.

    1/phi(z) = sum_k g(z)^k with g(z) = phi_1 z + ... + phi_p z^p; powers of
    g accumulate by convolution, independent of the production recursion.
    """
    g = np.r_[0.0, phi]
    inv = np.zeros(count + 1)
    inv[0] = 1.0
    power = np.array([1.0])
    for _ in range(count):
        power = np.convolve(power, g)[: count + 1]
        if not power.any():
            break
        inv[: len(power)] += power
    num = np.r_[1.0, theta]
    return np.convolve(inv, num)[: count + 1]


class TestValidation:
    def test_noise_must_be_positive(self):
        with pytest.raises(ValueError):
            SpharmaModel.uniform(1, noise=0.0)

    def test_orders(self):
        m = SpharmaModel(1, [np.array([0.1, 0.2]), np.array([0.3])],
                         [np.empty(0), np.array([0.5])], np.ones(2))
        assert m.p == 2 and m.q == 1

    def test_json_roundtrip(self, tmp_path):
        m = SpharmaModel(1, [np.array([0.1]), np.array([0.2, 0.1])],
                         [np.array([0.4]), np.empty(0)], np.array([1.0, 2.0]))
        path = tmp_path / "model.json"
        m.save(path)
        back = SpharmaModel.load(path)
        assert back.band_limit == 1
        assert np.array_equal(back.ar[1], m.ar[1])
        assert np.array_equal(back.ma[0], m.ma[0])
        assert np.array_equal(back.noise, m.noise)

    def test_load_rejects_nonpositive_noise(self, tmp_path):
        payload = {"schema": 1, "band_limit": 0,
                   "entries": [{"l": 0, "ar": [], "ma": [], "noise": -1.0}]}
        with pytest.raises(ValueError):
            SpharmaModel.from_json(payload)

    @pytest.mark.parametrize("ls", [(0, 2), (0, -1), (0, 0), (0, 1, 1)],
                             ids=["above-band", "negative", "repeated",
                                  "repeated-last"])
    def test_load_rejects_bad_multipole_indices(self, ls):
        payload = {"schema": 1, "band_limit": 1,
                   "entries": [{"l": l, "ar": [0.5], "ma": [], "noise": 1.0}
                               for l in ls]}
        with pytest.raises(ValueError, match="exactly once"):
            SpharmaModel.from_json(payload)

    def test_load_rejects_negative_band_limit(self):
        with pytest.raises(ValueError, match="band_limit"):
            SpharmaModel.from_json({"schema": 1, "band_limit": -1, "entries": []})

    def test_load_names_nan_noise_as_not_finite(self):
        payload = {"band_limit": 0,
                   "entries": [{"l": 0, "ar": [], "ma": [], "noise": math.nan}]}
        with pytest.raises(ValueError, match="finite"):
            SpharmaModel.from_json(payload)

    @pytest.mark.parametrize("ar, noise", [([math.nan], 1.0), ([], math.inf),
                                           ([], math.nan)])
    def test_rejects_non_finite_values(self, ar, noise):
        with pytest.raises(ValueError, match="finite"):
            SpharmaModel.uniform(1, ar=ar, noise=noise)

    @pytest.mark.parametrize("band_limit, ls", [(1, (0, 2)), (3, (0, 0))],
                             ids=["l-above-band", "repeated-l"])
    def test_rational_spectrum_rejects_bad_multipole_indices(self, band_limit, ls):
        # a rational spectrum file holds model entries and is read by the
        # model's reader, so it gets the same check
        payload = {"schema": 1, "form": "rational", "band_limit": band_limit,
                   "tail_bound": 0.0,
                   "rational": [{"l": l, "ar": [0.1 * (l + 1)], "ma": [],
                                 "noise": 1.0} for l in ls]}
        with pytest.raises(ValueError, match="exactly once"):
            spectral.SpectralEigenvalues.from_json(payload)


class TestCausality:
    def test_ar1_root(self):
        rep = md.check_causal(SpharmaModel.uniform(3, ar=[0.5], noise=1.0))
        assert rep.causal and abs(rep.min_root_modulus - 2.0) < 1e-12

    def test_unit_root_flagged(self):
        ar = [np.array([0.5])] * 3
        ar[1] = np.array([1.0])
        m = SpharmaModel(2, ar, [np.empty(0)] * 3, np.ones(3))
        rep = md.check_causal(m)
        assert not rep.causal and rep.offending_multipoles == [1]

    def test_quadratic_roots(self):
        # phi(z) = 1 - 0.2 z - 0.8 z^2 has roots 1 and -1.25
        rep = md.check_causal(SpharmaModel.uniform(0, ar=[0.2, 0.8], noise=1.0))
        assert not rep.causal
        assert abs(rep.min_root_modulus - 1.0) < 1e-12

    def test_scale_free_in_noise(self):
        base = SpharmaModel.uniform(2, ar=[0.3, 0.1], noise=1.0)
        scaled = SpharmaModel.uniform(2, ar=[0.3, 0.1], noise=123.4)
        r1, r2 = md.check_causal(base), md.check_causal(scaled)
        assert r1.causal == r2.causal
        assert r1.min_root_modulus == r2.min_root_modulus

    def test_invertibility(self):
        rep = md.check_invertible(SpharmaModel.uniform(1, ma=[0.5], noise=1.0))
        assert rep.causal and abs(rep.min_root_modulus - 2.0) < 1e-12
        rep = md.check_invertible(SpharmaModel.uniform(1, ma=[1.0], noise=1.0))
        assert not rep.causal
        rep = md.check_invertible(SpharmaModel.uniform(1, ar=[0.5], noise=1.0))
        assert rep.causal and math.isinf(rep.min_root_modulus)

    # rows repeated, distinct, non-causal and non-invertible, and [0.5] next
    # to [0.5, 0.0]: equal roots, but not the same bytes
    ROWS = [[0.5], [0.5], [1.25], [0.5, 0.0], [0.3, 0.1], [1.25], [0.5], []]

    @pytest.mark.parametrize("kind", ["ar", "ma"])
    def test_report_matches_a_root_search_per_row(self, kind):
        rows = [np.array(r) for r in self.ROWS]
        empty = [np.empty(0)] * len(rows)
        ar, ma = (rows, empty) if kind == "ar" else (empty, rows)
        model = SpharmaModel(len(rows) - 1, ar, ma, np.ones(len(rows)))
        check = md.check_causal if kind == "ar" else md.check_invertible
        mods = [md.min_root_modulus(r, kind) for r in rows]
        rep = check(model)
        assert rep.min_root_modulus == min(mods)
        assert rep.offending_multipoles == [
            l for l, mod in enumerate(mods) if mod < 1.0 + md._ROOT_MARGIN]
        assert rep.causal == (not rep.offending_multipoles)

    def test_roots_once_per_distinct_row(self, monkeypatch):
        calls = []
        original = md.min_root_modulus

        def counted(coeffs, kind="ar"):
            calls.append(tuple(coeffs))
            return original(coeffs, kind)

        monkeypatch.setattr(md, "min_root_modulus", counted)
        rows = [np.array(r) for r in self.ROWS]
        model = SpharmaModel(len(rows) - 1, rows, rows, np.ones(len(rows)))
        distinct = {np.array(r, dtype=float).tobytes() for r in self.ROWS}
        md.check_causal(model)
        assert len(calls) == len(distinct) == 5
        md.check_invertible(model)
        assert len(calls) == 2 * len(distinct)
        calls.clear()
        md.check_causal(SpharmaModel.uniform(128, ar=[0.5, -0.2], ma=[0.3]))
        assert calls == [(0.5, -0.2)]

    def test_lag_table_solves_each_ar_row_once(self, monkeypatch):
        calls = []
        roots = np.roots

        def counted(poly):
            calls.append(tuple(poly))
            return roots(poly)

        monkeypatch.setattr(np, "roots", counted)
        model = SpharmaModel.uniform(64, ar=[0.5, -0.2], ma=[0.3])
        table = md.model_autocovariance_table(model, 10)
        assert len(calls) == 1
        assert table[64].tobytes() == md.model_autocovariance(model, 64, 10).tobytes()

    @pytest.mark.parametrize("ar, first", [([[0.5], [1.5], [0.5], [1.5]], 1),
                                           ([[0.5], [0.5], [1.0], [2.0]], 2)])
    def test_lag_table_names_the_first_noncausal_multipole(self, ar, first):
        model = SpharmaModel(3, ar, [[]] * 4, np.ones(4))
        message = re.escape(f"model is not causal at multipoles [{first}, 3]")
        with pytest.raises(ValueError, match=f"^{message}$"):
            md.model_autocovariance_table(model, 3)

    def test_coprimality(self):
        ok = SpharmaModel.uniform(1, ar=[0.5], ma=[0.5], noise=1.0)
        assert md.check_coprime(ok).all()
        shared = SpharmaModel.uniform(1, ar=[0.5], ma=[-0.5], noise=1.0)
        assert not md.check_coprime(shared).any()
        trivial = SpharmaModel.white_noise(np.ones(2))
        assert md.check_coprime(trivial).all()


class TestPsi:
    def test_white_noise(self):
        m = SpharmaModel.white_noise(np.ones(1))
        assert np.array_equal(md.psi_coefficients(m, 0, 4), [1, 0, 0, 0, 0])

    def test_ar1_geometric(self):
        m = SpharmaModel.uniform(0, ar=[0.5], noise=1.0)
        psi = md.psi_coefficients(m, 0, 8)
        assert np.abs(psi - 0.5 ** np.arange(9)).max() < 1e-14

    def test_arma11(self):
        m = SpharmaModel.uniform(0, ar=[0.5], ma=[0.4], noise=1.0)
        psi = md.psi_coefficients(m, 0, 3)
        assert np.allclose(psi, [1.0, 0.9, 0.45, 0.225])

    def test_against_long_division_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            p, q = rng.integers(0, 4, 2)
            phi = rng.uniform(-0.3, 0.3, p)
            theta = rng.uniform(-0.5, 0.5, q)
            m = SpharmaModel(0, [phi], [theta], np.array([1.0]))
            if not md.check_causal(m).causal:
                continue
            psi = md.psi_coefficients(m, 0, 30)
            oracle = series_division_oracle(phi, theta, 30)
            assert np.abs(psi - oracle).max() < 1e-12

    def test_noncausal_rejected(self):
        m = SpharmaModel.uniform(0, ar=[1.0], noise=1.0)
        with pytest.raises(ValueError):
            md.psi_coefficients(m, 0, 5)

    def test_geometric_decay_envelope(self):
        m = SpharmaModel.uniform(0, ar=[0.4, 0.3], ma=[0.6], noise=1.0)
        rep = md.check_causal(m)
        rho = 1.0 / rep.min_root_modulus * 1.05
        psi = np.abs(md.psi_coefficients(m, 0, 120))
        env = (psi[:30] / rho ** np.arange(30)).max()
        assert np.all(psi <= env * rho ** np.arange(121) + 1e-15)


class TestSpectralDensity:
    def test_sphar1_closed_form(self):
        m = SpharmaModel.uniform(2, ar=[0.5], noise=1.0)
        got = m.spectral().values(0.0)[1, 0]
        assert abs(got - 2.0 / math.pi) < 1e-14

    def test_flat_for_white_noise(self):
        m = SpharmaModel.white_noise(np.array([2 * math.pi]))
        lam = np.linspace(-math.pi, math.pi, 9)
        assert np.abs(m.spectral().values(lam)[0] - 1.0).max() < 1e-14

    def test_ma1_at_pi(self):
        m = SpharmaModel.uniform(0, ma=[0.5], noise=1.0)
        got = m.spectral().values(math.pi)[0, 0]
        assert abs(got - 0.125 / math.pi) < 1e-15

    def test_arma11_closed_form(self):
        m = SpharmaModel.uniform(1, ar=[0.5], ma=[0.3], noise=2.0)
        z = complex(math.cos(0.7), math.sin(0.7))
        want = 2.0 / (2 * math.pi) * abs(1 + 0.3 * z) ** 2 / abs(1 - 0.5 * z) ** 2
        assert m.spectral().values(0.7)[1, 0] == pytest.approx(want, rel=1e-14)

    def test_unit_circle_pole_rejected(self):
        m = SpharmaModel.uniform(0, ar=[1.0], noise=1.0)
        with pytest.raises(ValueError):
            m.spectral().values(0.0)


class TestAutocovariance:
    def test_white_noise(self):
        m = SpharmaModel.white_noise(np.array([3.0]))
        acv = md.model_autocovariance(m, 0, 3)
        assert np.allclose(acv, [3.0, 0, 0, 0])

    def test_ar1_closed_form(self):
        m = SpharmaModel.uniform(0, ar=[0.5], noise=1.0)
        acv = md.model_autocovariance(m, 0, 5)
        expected = 0.5 ** np.arange(6) / 0.75
        assert np.abs(acv - expected).max() < 1e-12

    def test_matches_frequency_inversion(self):
        m = SpharmaModel.uniform(1, ar=[0.4], ma=[0.3], noise=1.2)
        lam = spectral.frequency_grid()
        tab = spectral.SpectralEigenvalues.tabulated(lam, m.spectral().values(lam))
        via_freq = spectral.autocov_table(tab, 3)[1]
        for t in range(4):
            direct = md.model_autocovariance(m, 1, t)[t]
            assert abs(direct - via_freq[t]) < 1e-8

    def test_density_integral_equals_lag_zero(self):
        m = SpharmaModel.uniform(2, ar=[0.6], ma=[-0.2], noise=0.8)
        lam = spectral.frequency_grid()
        tab = spectral.SpectralEigenvalues.tabulated(lam, m.spectral().values(lam))
        integrals = spectral.autocov_table(tab, 0)[:, 0]
        for l in range(3):
            c0 = md.model_autocovariance(m, l, 0)[0]
            assert abs(integrals[l] - c0) < 1e-8

    @pytest.mark.parametrize("phi", [0.9, 0.99, 0.999, 0.9999, 0.99995, 0.99999])
    @pytest.mark.parametrize("theta", [0.3, -0.7])
    def test_arma11_matches_40_digit_closed_form(self, phi, theta):
        # C(0) = s (1 + 2 phi theta + theta^2) / (1 - phi^2),
        # C(1) = s (1 + phi theta)(phi + theta) / (1 - phi^2),
        # C(k) = phi^(k-1) C(1); AR roots at modulus 1.1 down to 1.00001
        mp = pytest.importorskip("mpmath")
        max_lag = 5120
        m = SpharmaModel.uniform(0, ar=[phi], ma=[theta], noise=1.3)
        got = md.model_autocovariance(m, 0, max_lag)
        with mp.workdps(40):
            P, T, S = mp.mpf(phi), mp.mpf(theta), mp.mpf(1.3)
            c0 = S * (1 + 2 * P * T + T * T) / (1 - P * P)
            ck = S * (1 + P * T) * (P + T) / (1 - P * P)
            err = abs(mp.mpf(got[0]) - c0)
            for k in range(1, max_lag + 1):
                err = max(err, abs(mp.mpf(got[k]) - ck))
                ck *= P
            assert err <= 1e-14 * c0

    def test_table_of_mixed_rows_matches_40_digit_closed_form(self):
        # ARMA(1,1), AR(2) and MA(1) rows fall in three AR-order groups; 5120
        # lags run far past arma_filter's 128-sample block
        mp = pytest.importorskip("mpmath")
        arma = {0: (0.9, 0.3), 1: (0.999, -0.7), 3: (0.99995, 0.3),
                5: (0.99999, -0.7)}
        ar = [[0.9], [0.999], [0.5, -0.3], [0.99995], [], [0.99999]]
        ma = [[0.3], [-0.7], [], [0.3], [0.6], [-0.7]]
        noise = np.array([1.3, 0.7, 2.0, 1.1, 0.9, 0.5])
        max_lag = 5120
        got = md.model_autocovariance_table(SpharmaModel(5, ar, ma, noise),
                                            max_lag)
        with mp.workdps(40):
            for l, (phi, theta) in arma.items():
                P, T, S = mp.mpf(phi), mp.mpf(theta), mp.mpf(noise[l])
                c0 = S * (1 + 2 * P * T + T * T) / (1 - P * P)
                ck = S * (1 + P * T) * (P + T) / (1 - P * P)
                err = abs(mp.mpf(got[l, 0]) - c0)
                for k in range(1, max_lag + 1):
                    err = max(err, abs(mp.mpf(got[l, k]) - ck))
                    ck *= P
                assert err <= 1e-14 * c0, l
            # AR(2): C(0) and C(1) from the Yule-Walker equations, then
            # C(k) = phi_1 C(k-1) + phi_2 C(k-2)
            P1, P2, S = mp.mpf(0.5), mp.mpf(-0.3), mp.mpf(noise[2])
            c0 = S * (1 - P2) / ((1 + P2) * ((1 - P2) ** 2 - P1 * P1))
            prev, ck = c0, P1 * c0 / (1 - P2)
            err = abs(mp.mpf(got[2, 0]) - c0)
            for k in range(1, max_lag + 1):
                err = max(err, abs(mp.mpf(got[2, k]) - ck))
                prev, ck = ck, P1 * ck + P2 * prev
            assert err <= 1e-14 * c0
        # MA(1): C(0) = s (1 + theta^2), C(1) = s theta and nothing after
        assert abs(got[4, 0] - 0.9 * 1.36) <= 1e-15
        assert abs(got[4, 1] - 0.9 * 0.6) <= 1e-15
        assert not got[4, 2:].any()

    def test_arma11_near_a_unit_root_matches_the_exact_closed_form(self):
        # the (p+1)-square solve forms its pivot 1 - phi^2 by cancellation, and
        # one refinement step with a long-double residual restores the digits.
        # The reference is exact rational arithmetic on the floats phi, theta
        if np.finfo(np.longdouble).eps == np.finfo(float).eps:
            pytest.skip("long double is float64: the refinement cannot help")
        phi, theta = 0.9999, 0.3
        got = md.model_autocovariance(SpharmaModel.uniform(0, ar=[phi], ma=[theta]),
                                      0, 5)
        P, T = Fraction(phi), Fraction(theta)
        c0 = (1 + 2 * P * T + T * T) / (1 - P * P)
        c1 = (1 + P * T) * (P + T) / (1 - P * P)
        exact = [c0] + [c1 * P ** (k - 1) for k in range(1, 6)]
        err = max(abs(Fraction(float(g)) - e) for g, e in zip(got, exact))
        assert err <= 4 * np.finfo(float).eps * c0

    def test_one_drive_per_distinct_row(self, monkeypatch):
        calls = []
        drive = md._autocovariance_drive

        def counted(model, l, max_lag):
            calls.append(l)
            return drive(model, l, max_lag)

        monkeypatch.setattr(md, "_autocovariance_drive", counted)
        md.model_autocovariance_table(
            SpharmaModel.uniform(64, ar=[0.5, -0.2], ma=[0.3]), 10)
        assert calls == [0]
        # rows repeat out of order; l = 3 differs from l = 0 in its noise
        # alone, so it shares the drive, and l = 4 from l = 1 in its MA row
        rows = [([0.5], [0.3], 1.0), ([], [0.4], 2.0), ([0.5], [0.3], 1.0),
                ([0.5], [0.3], 1.5), ([], [0.2], 2.0), ([], [0.4], 2.0),
                ([0.9, -0.2], [], 1.0), ([0.5], [0.3], 1.0)]
        model = SpharmaModel(len(rows) - 1, *[list(c) for c in zip(*rows)])
        calls.clear()
        table = md.model_autocovariance_table(model, 300)
        assert calls == [0, 1, 4, 6]
        monkeypatch.undo()
        for l, (ar, ma, noise) in enumerate(rows):
            alone = SpharmaModel(0, [ar], [ma], [noise])
            assert (table[l].tobytes()
                    == md.model_autocovariance(model, l, 300).tobytes()
                    == md.model_autocovariance(alone, 0, 300).tobytes())

    def test_psi_square_sum_identity(self):
        m = SpharmaModel.uniform(0, ar=[0.5, 0.2], ma=[0.4], noise=2.0)
        psi = md.psi_coefficients(m, 0, 400)
        c0 = md.model_autocovariance(m, 0, 0)[0]
        assert abs((psi @ psi) - c0 / 2.0) < 1e-10


class TestKernelOperator:
    def test_monopole_unit(self):
        assert abs(kernel_from_eigenvalues([FOUR_PI], 0.3) - 1.0) < 1e-14

    def test_dipole_linear(self):
        eigs = [0.0, FOUR_PI / 3.0]
        for c in (-0.5, 0.1, 0.9):
            assert abs(kernel_from_eigenvalues(eigs, c) - c) < 1e-14

    def test_eigenfunction_identity(self):
        # quadrature application of the kernel operator to Y_{l,m}
        L = 4
        grid = build_grid(L)
        eigs = np.array([1.0, 0.7, 0.5, 0.3, 0.2])
        TH, PH = np.meshgrid(grid.colatitudes, grid.longitudes, indexing="ij")
        lon_w = 2 * math.pi / grid.n_lon
        xyz = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH),
                        np.cos(TH)], axis=-1).reshape(-1, 3)
        w = np.outer(gauss_weights(grid), np.full(grid.n_lon, lon_w)).ravel()
        for l, m in [(0, 0), (2, 1), (3, -2), (4, 4)]:
            f = real_sph_harm(l, m, TH.ravel(), PH.ravel())
            dots = np.clip(xyz @ xyz.T, -1.0, 1.0)
            K = kernel_from_eigenvalues(eigs, dots.ravel()).reshape(dots.shape)
            applied = K @ (w * f)
            assert np.abs(applied - eigs[l] * f).max() < 1e-10
