import csv
import math
import os
import re

import numpy as np
import pytest

from spharma import cli, simulate, spectral, sphere
from spharma.model import SpharmaModel, model_autocovariance_table

from oracles import (_normalized_assoc_legendre, gauss_weights, integrate,
                     legendre_all, real_sph_harm, sht_forward)

FOUR_PI = 4.0 * math.pi


def random_angles(rng, n):
    """Uniform points on the sphere as (colat, lon) pairs."""
    colat = np.arccos(rng.uniform(-1.0, 1.0, n))
    lon = rng.uniform(0.0, 2.0 * math.pi, n)
    return colat, lon


def sphere_dot(t1, p1, t2, p2):
    return math.cos(t1) * math.cos(t2) + math.sin(t1) * math.sin(t2) * math.cos(p1 - p2)


class TestLegendre:
    def test_at_one_all_unity(self):
        assert np.allclose(legendre_all(3, 1.0), [1, 1, 1, 1])

    def test_degree_one_is_identity(self):
        assert np.allclose(legendre_all(1, 0.3), [1.0, 0.3])

    def test_cubic_closed_form(self):
        # oracle: P_3(x) = (5x^3 - 3x)/2
        x = 0.5
        expected = (5 * x**3 - 3 * x) / 2
        assert expected == -0.4375
        assert abs(legendre_all(3, x)[3] - expected) < 1e-15

    def test_recurrence_residual(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, 1000)
        P = legendre_all(40, x)
        for l in range(1, 40):
            resid = (l + 1) * P[l + 1] - (2 * l + 1) * x * P[l] + l * P[l - 1]
            assert np.abs(resid).max() < 1e-12

    def test_bounded_by_one(self):
        rng = np.random.default_rng(8)
        P = legendre_all(64, rng.uniform(-1, 1, 200))
        assert np.abs(P).max() <= 1.0 + 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            legendre_all(3, 1.5)

    def test_roundoff_slack_tolerated(self):
        assert np.isfinite(legendre_all(2, 1.0 + 1e-13)[2])


class TestRealSphHarm:
    def test_monopole_value(self):
        # oracle: integral of a constant c over S^2 is 4 pi c^2 = 1
        expected = 1.0 / math.sqrt(FOUR_PI)
        assert abs(real_sph_harm(0, 0, 0.4, 2.0) - expected) < 1e-14
        assert abs(real_sph_harm(0, 0, 2.9, 5.5) - expected) < 1e-14

    def test_zonal_dipole_at_pole(self):
        expected = math.sqrt(3.0 / FOUR_PI)
        assert abs(real_sph_harm(1, 0, 0.0, 1.23) - expected) < 1e-14

    def test_degree_one_sum_of_squares(self):
        # addition theorem at x = y with P_1(1) = 1
        rng = np.random.default_rng(3)
        for colat, lon in zip(*random_angles(rng, 5)):
            total = sum(real_sph_harm(1, m, colat, lon) ** 2
                        for m in (-1, 0, 1))
            assert abs(total - 3.0 / FOUR_PI) < 1e-13

    def test_order_out_of_range(self):
        with pytest.raises(IndexError):
            real_sph_harm(2, 3, 0.5, 0.5)

    def test_m_zero_brute_force_normalization(self):
        # oracle: midpoint Riemann sum of Y^2 sin(theta) over a fine mesh
        nt = 6000
        th = (np.arange(nt) + 0.5) * math.pi / nt
        val = real_sph_harm(7, 0, th, np.zeros_like(th))
        integral = (val**2 * np.sin(th)).sum() * (math.pi / nt) * 2 * math.pi
        assert abs(integral - 1.0) < 1e-6

    def test_addition_theorem(self):
        rng = np.random.default_rng(11)
        for l in [1, 2, 5, 11, 20, 32]:
            t1, p1 = (v[0] for v in random_angles(rng, 1))
            t2, p2 = (v[0] for v in random_angles(rng, 1))
            lhs = sum(real_sph_harm(l, m, t1, p1) * real_sph_harm(l, m, t2, p2)
                      for m in range(-l, l + 1))
            c = sphere_dot(t1, p1, t2, p2)
            rhs = (2 * l + 1) / FOUR_PI * legendre_all(l, c)[l]
            assert abs(lhs - rhs) < 1e-10

    def test_harmonic_values_at_consistency(self):
        colat, lon = 1.234, 4.2
        L = 6
        packed = sphere.harmonic_values_at(L, colat, lon)
        for l in range(L + 1):
            for m in range(-l, l + 1):
                assert abs(packed[l * (l + 1) + m]
                           - real_sph_harm(l, m, colat, lon)) < 1e-13

    def test_harmonic_values_at_matches_per_order_recurrence(self):
        # bit for bit the values of one per-order recurrence per m
        rng = np.random.default_rng(41)
        for L in (0, 1, 2, 9, 40):
            colat, lon = float(rng.uniform(0, math.pi)), float(rng.uniform(0, 7))
            packed = sphere.harmonic_values_at(L, colat, lon)
            expected = np.zeros((L + 1) ** 2)
            centre = np.arange(L + 1) * np.arange(1, L + 2)
            x = np.cos(colat)
            for m in range(L + 1):
                q = _normalized_assoc_legendre(L, m, x)[:, 0]
                if m == 0:
                    expected[centre] = q
                else:
                    expected[centre[m:] + m] = q * (math.sqrt(2.0) * math.cos(m * lon))
                    expected[centre[m:] - m] = q * (math.sqrt(2.0) * math.sin(m * lon))
            assert np.array_equal(packed, expected)


class TestGrid:
    def test_trivial_band_limit(self):
        g = sphere.build_grid(0)
        assert g.n_lat == 1 and g.n_lon >= 1
        assert abs(gauss_weights(g).sum() - 2.0) < 1e-14

    def test_weights_positive_and_counts(self):
        g = sphere.build_grid(5)
        assert g.n_lat >= 6 and g.n_lon >= 11
        assert np.all(gauss_weights(g) > 0)

    def test_self_product_integral(self):
        g = sphere.build_grid(2)
        TH, PH = np.meshgrid(g.colatitudes, g.longitudes, indexing="ij")
        vals = real_sph_harm(2, 1, TH, PH)
        assert abs(integrate(g, vals**2) - 1.0) < 1e-12

    def test_gram_identity(self):
        L = 32
        g = sphere.build_grid(L)
        TH, PH = np.meshgrid(g.colatitudes, g.longitudes, indexing="ij")
        n_basis = (L + 1) ** 2
        Y = np.empty((n_basis, TH.size))
        idx = 0
        for l in range(L + 1):
            for m in range(-l, l + 1):
                Y[idx] = real_sph_harm(l, m, TH.ravel(), PH.ravel())
                idx += 1
        w = np.outer(gauss_weights(g),
                     np.full(g.n_lon, 2 * math.pi / g.n_lon)).ravel()
        gram = (Y * w) @ Y.T
        assert np.abs(gram - np.eye(n_basis)).max() < 1e-10

    def test_gram_columns_at_large_band_limit(self):
        # forward transform of a sampled basis function is a unit vector
        L = 64
        g = sphere.build_grid(L)
        rng = np.random.default_rng(9)
        for _ in range(8):
            l = int(rng.integers(0, L + 1))
            m = int(rng.integers(-l, l + 1))
            coeffs = np.zeros((L + 1) ** 2)
            coeffs[l * (l + 1) + m] = 1.0
            back = sht_forward(sphere.sht_inverse(coeffs, g))
            assert np.abs(back - coeffs).max() < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 17, 129])
    def test_gauss_weights_match_a_40_digit_reference(self, n):
        mpmath = pytest.importorskip("mpmath")

        def legendre_and_derivative(t):
            p0, p1 = mpmath.mpf(1), t
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + 1) * t * p1 - k * p0) / (k + 1)
            return p1, n * (p0 - t * p1) / (1 - t * t)

        g = sphere.build_grid(n - 1)
        with mpmath.workdps(40):
            for x, w in zip(np.cos(g.colatitudes), gauss_weights(g)):
                r = mpmath.mpf(float(x))
                for _ in range(4):
                    p, dp = legendre_and_derivative(r)
                    r -= p / dp
                _, dp = legendre_and_derivative(r)
                exact = 2 / ((1 - r * r) * dp * dp)
                assert abs(w / exact - 1) < 1e-13

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            sphere.SphereGrid(np.array([0.5]), np.array([0.0]), band_limit=3)


class TestPackedLegendreTable:
    @pytest.mark.parametrize("L", [0, 1, 2, 17, 128])
    def test_blocks_match_per_order_recurrence(self, L):
        g = sphere.build_grid(L)
        blocks = g._legendre_table()
        x = np.cos(g.colatitudes)
        assert len(blocks) == L + 1
        for m, block in enumerate(blocks):
            assert block.shape == (g.n_lat, L + 1 - m)
            assert block.flags.c_contiguous
            assert np.array_equal(block, _normalized_assoc_legendre(L, m, x).T)

    def test_blocks_share_one_packed_buffer(self):
        L = 20
        x, _ = np.polynomial.legendre.leggauss(23)
        g = sphere.SphereGrid(np.arccos(x), sphere.build_grid(L).longitudes, L)
        blocks = g._legendre_table()
        base = blocks[0].base
        assert all(b.base is base for b in blocks)
        assert base.nbytes == g.n_lat * (L + 1) * (L + 2) // 2 * 8

    def test_roundtrip_at_band_limit_128(self):
        rng = np.random.default_rng(128)
        L = 128
        g = sphere.build_grid(L)
        coeffs = rng.standard_normal((L + 1) ** 2)
        back = sht_forward(sphere.sht_inverse(coeffs, g))
        assert np.abs(back - coeffs).max() < 1e-12

    def test_inverse_matches_direct_synthesis_at_random_nodes(self):
        rng = np.random.default_rng(5)
        L = 24
        colat, lon = random_angles(rng, 3 * L)
        g = sphere.SphereGrid(np.sort(colat[: L + 3]), lon[: 2 * L + 5], L)
        coeffs = rng.standard_normal((L + 1) ** 2)
        values = sphere.sht_inverse(coeffs, g).values
        TH, PH = np.meshgrid(g.colatitudes, g.longitudes, indexing="ij")
        direct = sum(coeffs[l * (l + 1) + m] * real_sph_harm(l, m, TH, PH)
                     for l in range(L + 1) for m in range(-l, l + 1))
        assert np.abs(values - direct).max() < 1e-12 * np.abs(direct).max()

    def test_transforms_below_the_grid_band_limit(self):
        rng = np.random.default_rng(8)
        L, Lg = 5, 11
        g = sphere.build_grid(Lg)
        coeffs = rng.standard_normal((L + 1) ** 2)
        padded = np.zeros((Lg + 1) ** 2)
        padded[: (L + 1) ** 2] = coeffs
        field = sphere.sht_inverse(coeffs, g)
        assert np.abs(field.values - sphere.sht_inverse(padded, g).values).max() < 1e-13
        assert np.abs(sht_forward(field, band_limit=L) - coeffs).max() < 1e-13


class TestTransforms:
    def test_constant_field(self):
        g = sphere.build_grid(6)
        field = sphere.FieldSnapshot(g, np.full((g.n_lat, g.n_lon), 2.5))
        coeffs = sht_forward(field)
        assert abs(coeffs[0] - 2.5 * math.sqrt(FOUR_PI)) < 1e-12
        coeffs[0] = 0.0
        assert np.abs(coeffs).max() < 1e-12

    def test_single_harmonic_projection(self):
        g = sphere.build_grid(5)
        TH, PH = np.meshgrid(g.colatitudes, g.longitudes, indexing="ij")
        field = sphere.FieldSnapshot(g, real_sph_harm(3, -2, TH, PH))
        coeffs = sht_forward(field)
        assert abs(coeffs[3 * 4 - 2] - 1.0) < 1e-12
        coeffs[3 * 4 - 2] = 0.0
        assert np.abs(coeffs).max() < 1e-12

    def test_roundtrip_random(self):
        rng = np.random.default_rng(17)
        L = 16
        g = sphere.build_grid(L)
        coeffs = rng.standard_normal((L + 1) ** 2)
        back = sht_forward(sphere.sht_inverse(coeffs, g))
        assert np.abs(back - coeffs).max() < 1e-10

    def test_zero_and_constant_synthesis(self):
        g = sphere.build_grid(3)
        zero = sphere.sht_inverse(np.zeros(16), g)
        assert np.abs(zero.values).max() == 0.0
        coeffs = np.zeros(16)
        coeffs[0] = math.sqrt(FOUR_PI)
        ones = sphere.sht_inverse(coeffs, g)
        assert np.abs(ones.values - 1.0).max() < 1e-13

    def test_parseval(self):
        rng = np.random.default_rng(23)
        L = 12
        g = sphere.build_grid(L)
        coeffs = rng.standard_normal((L + 1) ** 2)
        field = sphere.sht_inverse(coeffs, g)
        assert abs(integrate(g, field.values**2) - (coeffs**2).sum()) < 1e-10

    def test_band_limit_errors(self):
        g = sphere.build_grid(2)
        with pytest.raises(ValueError):
            sphere.sht_inverse(np.zeros(16), g)
        field = sphere.FieldSnapshot(g, np.zeros((g.n_lat, g.n_lon)))
        with pytest.raises(ValueError):
            sht_forward(field, band_limit=5)

    @pytest.mark.parametrize("coeffs", [np.zeros(0), np.zeros(8), np.zeros((4, 4, 4))],
                             ids=["empty", "not-a-square", "three-dimensional"])
    def test_coefficients_must_be_a_stream_vector(self, coeffs):
        with pytest.raises(ValueError):
            sphere.sht_inverse(coeffs, sphere.build_grid(3))

    @pytest.mark.parametrize("L, Lg", [(0, 0), (3, 3), (5, 11), (40, 40)])
    def test_block_matches_one_column_at_a_time(self, L, Lg):
        # bit for bit the vector calls, and the grid keeps no state
        g = sphere.build_grid(Lg)

        def state():
            return {k: v.tobytes() if isinstance(v, np.ndarray) else v
                    for k, v in vars(g).items()}

        before = state()
        block = np.random.default_rng(L).standard_normal(((L + 1) ** 2, 5))
        snaps = sphere.sht_inverse(block, g)
        assert len(snaps) == 5
        for j, snap in enumerate(snaps):
            column = sphere.sht_inverse(block[:, j].copy(), g)
            assert snap.values.tobytes() == column.values.tobytes()
        assert sphere.sht_inverse(block[:, :0], g) == []
        assert state() == before

    def test_field_grid_mismatch(self):
        g = sphere.build_grid(2)
        with pytest.raises(ValueError):
            sphere.FieldSnapshot(g, np.zeros((2, 2)))


def _edge_values(rng, shape):
    """Mantissas at exponents 1e-20..1e20, led by 0.0, -0.0, 1e300, 5e-324."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 21, shape)
    values.flat[:4] = (0.0, -0.0, 1e300, 5e-324)
    return values


def _field_table(tmp_path):
    g = sphere.build_grid(5)
    values = _edge_values(np.random.default_rng(8), (g.n_lat, g.n_lon))
    sphere.FieldSnapshot(g, values).to_csv(tmp_path / "field.csv")
    return [("field.csv", ["colat", "lon", "value"],
             [(repr(float(th)), repr(float(ph)), repr(float(values[i, j])))
              for i, th in enumerate(g.colatitudes)
              for j, ph in enumerate(g.longitudes)])]


def _spectrum_tables(acv, spec, n_lambda):
    """The three ``spectrum`` tables, formatted cell by cell."""
    L = len(acv) - 1
    lam = spectral.frequency_grid(n_lambda)
    F = spec.values(lam)
    trace = spectral.operator_trace_norm(spec, lam)
    return [
        ("autocovariance.csv", ["l", "t", "C"],
         [(l, t, repr(float(acv[l, t])))
          for l in range(L + 1) for t in range(acv.shape[1])]),
        ("spectral_density.csv", ["l", "lambda", "f"],
         [(l, repr(float(lam[k])), repr(float(F[l, k])))
          for l in range(L + 1) for k in range(len(lam))]),
        ("trace_norm.csv", ["lambda", "trace"],
         [(repr(float(lam[k])), repr(float(trace[k]))) for k in range(len(lam))]),
    ]


def _spectrum_model_tables(tmp_path):
    # noise powers from 1e-20 to 1e20, AR and MA terms of both signs
    model = SpharmaModel(4, [[-0.5], [0.3], [], [0.9, -0.2], [-0.7]],
                         [[0.4], [], [-0.5], [], [-0.3]],
                         [1e-20, 1e-10, 1.0, 1e10, 1e20])
    model.save(tmp_path / "model.json")
    assert cli.main(["spectrum", "--model", str(tmp_path / "model.json"),
                     "--max-lag", "6", "--n-lambda", "16",
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    return _spectrum_tables(model_autocovariance_table(model, 6),
                            model.spectral(), 16)


def _spectrum_series_tables(tmp_path):
    # stream scales from 1e-10 to 1e10, so C_l(t) spans 1e-20 to 1e20
    rng = np.random.default_rng(11)
    values = rng.standard_normal((9, 256)) * 10.0 ** rng.integers(-10, 11, (9, 1))
    series = simulate.HarmonicCoefficientSeries(2, values)
    series.save(tmp_path / "series.bin")
    assert cli.main(["spectrum", "--series", str(tmp_path / "series.bin"),
                     "--max-lag", "6", "--n-lambda", "16",
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    # the spectrum sums the 1/n lags under the Bartlett window of width 6;
    # the lag table keeps the n - t divisor
    t = np.arange(7)
    acv = simulate.empirical_autocov(series, 6)
    lags = acv * (256 / (256 - t))
    acv *= 1.0 - t / 7
    return _spectrum_tables(lags, spectral.spectral_from_autocov(acv), 16)


_CSV_WRITERS = {"field": _field_table, "spectrum-model": _spectrum_model_tables,
                "spectrum-series": _spectrum_series_tables}


@pytest.mark.parametrize("call, message", [
    (lambda: sphere.SphereGrid(np.ones(1), np.ones(1), -1),
     "band_limit must be nonnegative"),
    (lambda: sphere.SphereGrid(np.ones(1), np.ones(3), 1),
     "need at least L+1 colatitude nodes"),
    (lambda: sphere.build_grid(-1), "band_limit must be nonnegative"),
    (lambda: sphere.FieldSnapshot(sphere.build_grid(1), np.zeros((3, 3))),
     "field values do not match grid dimensions"),
    (lambda: sphere.write_csv(os.devnull, ["a", "b", "c"], ["0"], ["0", "1"],
                              np.zeros((1, 1))),
     "labels do not match the value array"),
])
def test_refused_arguments(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestCsv:
    @pytest.mark.parametrize("writer", sorted(_CSV_WRITERS))
    def test_bytes_match_csv_writer(self, tmp_path, writer):
        # every table the package writes: the bytes csv.writer writes for
        # rows of ints and float reprs
        for name, header, rows in _CSV_WRITERS[writer](tmp_path):
            oracle = tmp_path / "oracle.csv"
            with open(oracle, "w", newline="") as fh:
                csv_writer = csv.writer(fh)
                csv_writer.writerow(header)
                csv_writer.writerows(rows)
            assert (tmp_path / name).read_bytes() == oracle.read_bytes(), name
