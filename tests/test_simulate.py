import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from spharma import simulate as sim
from spharma.model import SpharmaModel, model_autocovariance
from spharma.sphere import build_grid

from oracles import covariance_kernel_eval, get, row_index, sht_forward

FOUR_PI = 4.0 * math.pi


@pytest.fixture(scope="module")
def ar1_model():
    return SpharmaModel.uniform(4, ar=[0.5], noise=1.0)


@pytest.fixture(scope="module")
def ar1_series(ar1_model):
    return sim.simulate_spharma(ar1_model, sim.SimulationConfig(seed=101, n=30000))


class TestWhiteNoise:
    def test_same_seed_identical(self):
        cfg = sim.SimulationConfig(seed=5, n=200)
        a = sim.simulate_white_noise(np.ones(4), cfg)
        b = sim.simulate_white_noise(np.ones(4), cfg)
        assert np.array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        a = sim.simulate_white_noise(np.ones(2), sim.SimulationConfig(seed=1, n=100))
        b = sim.simulate_white_noise(np.ones(2), sim.SimulationConfig(seed=2, n=100))
        assert not np.array_equal(a.values, b.values)

    def test_variance_within_chi2_band(self):
        n = 100000
        c = 1.7
        series = sim.simulate_white_noise(np.array([c]),
                                          sim.SimulationConfig(seed=11, n=n))
        var = float((get(series, 0, 0) ** 2).mean())
        assert abs(var - c) < 3.0 * math.sqrt(2.0 / n) * c

    def test_cross_stream_correlation_small(self):
        n = 40000
        series = sim.simulate_white_noise(np.ones(3),
                                          sim.SimulationConfig(seed=13, n=n))
        x = get(series, 1, -1)
        y = get(series, 2, 2)
        corr = float(np.dot(x, y) / n)
        assert abs(corr) < 3.0 / math.sqrt(n)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            sim.simulate_white_noise(np.array([1.0, 0.0]),
                                     sim.SimulationConfig(seed=1, n=10))


class TestRngStreams:
    # sha256 of series.bin for uniform ARMA(2,1), L=6, n=50: the 64-bit seed
    # has its top bit set and is exact in float64, so the digest was the same
    # before and after the generator was reused and the key made exact
    GOLDEN_SEED = 2**63 + 12288
    GOLDEN_SHA256 = "dcbdbdfd3c9d59f547af29ae2370a87979a39a3cbf63a35d41270f0bcd4606dd"

    def test_golden_series_bytes(self, tmp_path):
        model = SpharmaModel.uniform(6, ar=[0.5, -0.3], ma=[0.4])
        series = sim.simulate_spharma(
            model, sim.SimulationConfig(seed=self.GOLDEN_SEED, n=50))
        assert series.provenance["burn_in"] == 39
        path = tmp_path / "series.bin"
        series.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN_SHA256

    def test_large_seeds_keep_all_64_bits(self):
        # seeds at or above 2^63 once went through float64 on their way into
        # the key: 2^63 + 12345 drew the streams of 2^63 + 12288, and
        # 2^64 - 1 those of seed 0
        def noise(seed):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cfg = sim.SimulationConfig(seed=seed, n=20)
                return sim.simulate_white_noise(np.ones(3), cfg).values

        assert not np.array_equal(noise(2**63 + 12345), noise(2**63 + 12288))
        assert not np.array_equal(noise(2**64 - 1), noise(0))
        top = np.random.Generator(np.random.Philox(
            key=np.array([2**64 - 1, 5], dtype=np.uint64))).standard_normal(20)
        assert np.array_equal(noise(2**64 - 1)[5], top)

    def test_white_noise_rows_are_fresh_philox_streams(self):
        series = sim.simulate_white_noise(
            np.array([1.0, 4.0]), sim.SimulationConfig(seed=9, n=30, burn_in=7))
        for l in range(2):
            for m in range(-l, l + 1):
                gen = np.random.Generator(
                    np.random.Philox(key=[9, row_index(l, m)]))
                expected = math.sqrt([1.0, 4.0][l]) * gen.standard_normal(37)[7:]
                assert np.array_equal(get(series, l, m), expected)

    def test_python_int_keys_match_fresh_generators(self):
        # the re-keyed state holds the key words as Python ints; they must
        # reach Philox as the exact 64-bit words a uint64 key array gives
        keys = [(seed, row) for seed in (0, 1, 2**63, 2**64 - 1)
                for row in (0, 1, 10**6)]
        drawn = sim._stream_normals(keys, np.empty((len(keys), 25)),
                                    np.ones(len(keys)))
        for key, got in zip(keys, drawn):
            gen = np.random.Generator(np.random.Philox(
                key=np.array(key, dtype=np.uint64)))
            assert np.array_equal(got, gen.standard_normal(25)), key


class TestSpharmaRecursion:
    def test_degenerate_model_equals_white_noise(self):
        cfg = sim.SimulationConfig(seed=21, n=500)
        noise = np.array([1.0, 2.0, 0.5])
        white = sim.simulate_white_noise(noise, cfg)
        model = SpharmaModel.white_noise(noise)
        series = sim.simulate_spharma(model, cfg)
        assert np.array_equal(white.values, series.values)

    def test_noncausal_rejected(self):
        model = SpharmaModel.uniform(1, ar=[1.01], noise=1.0)
        with pytest.raises(ValueError):
            sim.simulate_spharma(model, sim.SimulationConfig(seed=1, n=10))

    def test_determinism(self, ar1_model):
        cfg = sim.SimulationConfig(seed=33, n=400)
        a = sim.simulate_spharma(ar1_model, cfg)
        b = sim.simulate_spharma(ar1_model, cfg)
        assert np.array_equal(a.values, b.values)

    def test_lag_one_autocovariance(self, ar1_series):
        # AR(1): C(1) = phi / (1 - phi^2) = 2/3
        block = ar1_series.block(2)
        prods = (block[:, 1:] * block[:, :-1]).mean(axis=0)
        est = float(prods.mean())
        se = sim.batch_means_se(prods, 100)
        assert abs(est - 2.0 / 3.0) < 3.0 * se

    def test_marginal_variance_after_burn_in(self, ar1_model):
        series = sim.simulate_spharma(ar1_model,
                                      sim.SimulationConfig(seed=7, n=60000))
        var = float((series.block(0) ** 2).mean())
        c0 = model_autocovariance(ar1_model, 0, 0)[0]
        prods = series.block(0)[0] ** 2
        se = sim.batch_means_se(prods, 100)
        assert abs(var - c0) < 3.0 * se

    def test_stationarity_of_window_means(self, ar1_series):
        for chunk in np.array_split(ar1_series.values, 6, axis=1):
            per_stream = chunk.mean(axis=1)
            se = per_stream.std(ddof=1) / math.sqrt(len(per_stream))
            assert abs(per_stream.mean()) < 4.0 * se

    def test_isotropy_across_orders(self, ar1_series):
        block = ar1_series.block(3)
        variances = (block**2).mean(axis=1)
        ses = np.array([sim.batch_means_se(row**2) for row in block])
        pooled = variances.mean()
        assert np.all(np.abs(variances - pooled) < 5.0 * ses)

    def test_batch_means_se_rows_match_single_series(self, ar1_series):
        squares = ar1_series.block(3) ** 2
        for n_batches in (64, 7, 1000000):
            rows = sim.batch_means_se(squares, n_batches)
            assert rows.shape == (7,)
            singles = [sim.batch_means_se(row, n_batches) for row in squares]
            assert np.array_equal(rows, singles)
        assert isinstance(sim.batch_means_se(squares[0]), float)

    def test_batch_means_se_needs_two_samples(self):
        for x in (np.ones(1), np.ones((3, 1))):
            with pytest.raises(ValueError, match="at least 2 samples"):
                sim.batch_means_se(x)
        assert np.isfinite(sim.batch_means_se(np.array([0.0, 1.0])))


class TestFieldSynthesis:
    def test_zero_coefficients(self):
        series = sim.HarmonicCoefficientSeries(1, np.zeros((4, 3)))
        grid = build_grid(1)
        snaps = sim.synthesize_field(series, grid, [0, 2])
        assert len(snaps) == 2
        assert all(np.abs(snap.values).max() == 0.0 for snap in snaps)

    def test_roundtrip_through_transform(self, ar1_series):
        grid = build_grid(ar1_series.band_limit)
        (snap,) = sim.synthesize_field(ar1_series, grid, [17])
        back = sht_forward(snap)
        assert np.abs(back - ar1_series.values[:, 17]).max() < 1e-10

    def test_grid_band_limit_enforced(self, ar1_series):
        with pytest.raises(ValueError):
            sim.synthesize_field(ar1_series, build_grid(2), [0])

    @pytest.mark.parametrize("t", [-1, 3])
    def test_time_index_out_of_range(self, t):
        # a negative index must not wrap round to the end of the series
        series = sim.HarmonicCoefficientSeries(1, np.ones((4, 3)))
        with pytest.raises(IndexError):
            sim.synthesize_field(series, build_grid(1), [0, t])

    def test_node_variance_matches_kernel(self, ar1_model, ar1_series):
        grid = build_grid(ar1_series.band_limit)
        node_series = np.array([
            snap.values[2, 3]
            for snap in sim.synthesize_field(ar1_series, grid, range(3000))])
        var = float((node_series**2).mean())
        from spharma.model import model_autocovariance_table

        acv = model_autocovariance_table(ar1_model, 0)
        expected = covariance_kernel_eval(acv, 0, 1.0)
        se = sim.batch_means_se(node_series**2, 50)
        assert abs(var - expected) < 4.0 * se

    def test_two_node_covariance_matches_kernel(self, ar1_series):
        grid = build_grid(ar1_series.band_limit)
        i1, j1, i2, j2 = 1, 0, 3, 5
        snaps = sim.synthesize_field(ar1_series, grid, range(3000))
        a = np.array([snap.values[i1, j1] for snap in snaps])
        b = np.array([snap.values[i2, j2] for snap in snaps])
        acv = sim.empirical_autocov(ar1_series, 0)
        t1, t2 = grid.colatitudes[i1], grid.colatitudes[i2]
        dphi = grid.longitudes[j1] - grid.longitudes[j2]
        c = math.cos(t1) * math.cos(t2) + math.sin(t1) * math.sin(t2) * math.cos(dphi)
        expected = covariance_kernel_eval(acv, 0, c)
        prods = a * b
        se = sim.batch_means_se(prods, 50)
        assert abs(prods.mean() - expected) < 4.0 * se


class TestEmpiricalAutocov:
    def test_zero_series(self):
        series = sim.HarmonicCoefficientSeries(1, np.zeros((4, 50)))
        acv = sim.empirical_autocov(series, 3)
        assert np.abs(acv).max() == 0.0

    def test_white_noise_clt(self):
        n = 100000
        c = 0.8
        series = sim.simulate_white_noise(np.full(3, c),
                                          sim.SimulationConfig(seed=17, n=n))
        acv = sim.empirical_autocov(series, 1)
        n_streams = 5  # l = 2 block
        assert abs(acv[2, 0] - c) < 3.0 * c * math.sqrt(2.0 / (n * n_streams))
        assert abs(acv[2, 1]) < 3.0 * c / math.sqrt(n * n_streams)

    def test_lag_bound(self):
        series = sim.HarmonicCoefficientSeries(0, np.zeros((1, 10)))
        with pytest.raises(ValueError):
            sim.empirical_autocov(series, 10)

    def test_negative_lag_rejected(self):
        series = sim.HarmonicCoefficientSeries(0, np.zeros((1, 10)))
        with pytest.raises(ValueError):
            sim.empirical_autocov(series, -1)

class TestCramerOrthogonality:
    def test_white_noise_bands(self):
        series = sim.simulate_white_noise(np.ones(9),
                                          sim.SimulationConfig(seed=29, n=8192))
        corr = sim.verify_cramer_orthogonality(series, 8)
        assert corr < 4.5 / math.sqrt(series.n) and corr < 0.05

    def test_ar1_bands(self, ar1_series):
        corr = sim.verify_cramer_orthogonality(ar1_series, 6)
        assert corr < 4.5 / math.sqrt(ar1_series.n)

    def test_single_band_vacuous(self):
        series = sim.simulate_white_noise(np.ones(1),
                                          sim.SimulationConfig(seed=31, n=2048))
        corr = sim.verify_cramer_orthogonality(series, 1)
        assert corr < 4.5 / math.sqrt(series.n) and corr == 0.0

    def test_chunked_gram_matches_dense_band_split(self):
        # 49 streams span several chunks; compare with the direct pairwise
        # sums of complex-FFT band components, at even and odd lengths and at
        # odd and even band counts
        model = SpharmaModel.uniform(6, ar=[0.7])
        for n in (1024, 1025, 1031):
            series = sim.simulate_spharma(model, sim.SimulationConfig(seed=3, n=n))
            lams = np.abs(2.0 * math.pi * np.fft.fftfreq(n))
            spectra = np.fft.fft(series.values, axis=-1)
            for n_bands in (3, 4, 8):
                band_of = np.minimum((lams / math.pi * n_bands).astype(int),
                                     n_bands - 1)
                comps = [np.fft.ifft(np.where(band_of == b, spectra, 0.0),
                                     axis=-1).real[:, n // 4 : 3 * n // 4]
                         for b in range(n_bands)]
                expected = max(
                    abs((comps[b] * comps[c]).sum())
                    / math.sqrt((comps[b] ** 2).sum() * (comps[c] ** 2).sum())
                    for b in range(n_bands) for c in range(b + 1, n_bands))
                got = sim.verify_cramer_orthogonality(series, n_bands)
                assert abs(got - expected) <= 1e-12 * expected

    def test_short_series_rejected(self):
        series = sim.HarmonicCoefficientSeries(0, np.zeros((1, 512)))
        with pytest.raises(ValueError):
            sim.verify_cramer_orthogonality(series, 2)


class TestSeriesIo:
    def test_binary_roundtrip(self, tmp_path, ar1_model):
        cfg = sim.SimulationConfig(seed=37, n=123)
        series = sim.simulate_spharma(ar1_model, cfg)
        path = tmp_path / "series.bin"
        series.save(path)
        back = sim.HarmonicCoefficientSeries.load(path)
        assert np.array_equal(back.values, series.values)
        assert back.provenance["seed"] == 37
        assert back.provenance["model_hash"] == ar1_model.content_hash()

    def test_save_holds_no_second_copy(self, tmp_path):
        # an 8 MB series: writing it once copied it whole through astype
        series = sim.HarmonicCoefficientSeries(3, np.ones((16, 65536)))
        path = tmp_path / "series.bin"
        tracemalloc.start()
        try:
            series.save(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < series.values.nbytes // 8
        assert np.array_equal(np.fromfile(path, dtype="<f8").reshape(16, -1),
                              series.values)

    def test_loaded_values_are_read_only(self, tmp_path, ar1_model):
        path = tmp_path / "series.bin"
        sim.simulate_spharma(ar1_model, sim.SimulationConfig(seed=5, n=64)).save(path)
        back = sim.HarmonicCoefficientSeries.load(path)
        assert not back.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            back.values[0, 0] = 1.0

    def test_save_over_the_loaded_path_round_trips(self, tmp_path, ar1_model):
        # the load maps the file, so a save may not truncate it in place
        path = tmp_path / "series.bin"
        first = sim.simulate_spharma(ar1_model, sim.SimulationConfig(seed=5, n=64))
        second = sim.simulate_spharma(ar1_model, sim.SimulationConfig(seed=6, n=64))
        first.save(path)
        mapped = sim.HarmonicCoefficientSeries.load(path)
        mapped.save(path)
        assert np.array_equal(sim.HarmonicCoefficientSeries.load(path).values,
                              first.values)
        second.save(path)
        back = sim.HarmonicCoefficientSeries.load(path)
        assert np.array_equal(back.values, second.values)
        assert back.provenance["seed"] == 6
        assert sorted(p.name for p in tmp_path.iterdir()) == ["series.bin",
                                                              "series.json"]


def test_streams_do_not_depend_on_the_band_limit():
    # each (l, m) stream has its own RNG key, so adding multipoles (more
    # work, scheduled differently) leaves the existing streams untouched
    cfg = sim.SimulationConfig(seed=41, n=300, burn_in=25)
    L = 3
    small = sim.simulate_spharma(SpharmaModel.uniform(L, ar=[0.5], ma=[0.2]), cfg)
    large = sim.simulate_spharma(SpharmaModel.uniform(L + 3, ar=[0.5], ma=[0.2]), cfg)
    assert np.array_equal(small.values, large.values[: (L + 1) ** 2])


def test_all_zero_ar_has_no_ar_memory():
    # p = 1 but phi(z) = 1 has no roots: burn-in is max(p, q), not log(0)
    model = SpharmaModel.uniform(2, ar=[0.0])
    cfg = sim.SimulationConfig(seed=9, n=40)
    series = sim.simulate_spharma(model, cfg)
    assert series.provenance["burn_in"] == 1
    white = sim.simulate_white_noise(model.noise,
                                     sim.SimulationConfig(seed=9, n=40, burn_in=1))
    assert np.array_equal(series.values, white.values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (3, 4)])
def test_non_finite_series_values_rejected(bad, where):
    values = np.zeros((4, 5))
    values[where] = bad
    with pytest.raises(ValueError, match="series values must be finite"):
        sim.HarmonicCoefficientSeries(1, values)


def test_sidecar_may_not_overwrite_the_data(tmp_path):
    series = sim.HarmonicCoefficientSeries(0, np.zeros((1, 4)))
    with pytest.raises(ValueError):
        series.save(tmp_path / "series.json")
    assert not (tmp_path / "series.json").exists()


@pytest.mark.parametrize("call, message", [
    (lambda: sim.SimulationConfig(seed=0, n=4, burn_in=-1),
     "burn_in must be nonnegative"),
    (lambda: sim.SimulationConfig(seed=2**64, n=4), "seed must fit in 64 bits"),
    (lambda: sim.SimulationConfig(seed=-1, n=4), "seed must fit in 64 bits"),
    (lambda: sim.HarmonicCoefficientSeries(1, np.zeros((3, 4))),
     "values must have (band_limit+1)^2 stream rows"),
    (lambda: sim.HarmonicCoefficientSeries(0, np.zeros((1, 0))),
     "series length must be at least 1"),
    (lambda: sim.verify_cramer_orthogonality(
        sim.HarmonicCoefficientSeries(0, np.zeros((1, 2048))), 0),
     "n_bands must be at least 1"),
])
def test_refused_arguments(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_burn_in_cap_warns_and_is_recorded():
    # a root at modulus 1 + 1e-5 passes the root rule, but (1/xi)^burn <= 1e-10
    # needs about 2.3e6 steps
    model = SpharmaModel.uniform(0, ar=[1.0 / (1.0 + 1e-5)])
    with pytest.warns(UserWarning, match="huge burn-in; capping at 1e6"):
        series = sim.simulate_spharma(model, sim.SimulationConfig(seed=1, n=4))
    assert series.provenance["burn_in"] == 1_000_000 and series.n == 4


def test_burn_in_is_a_pure_shift():
    # same seed, longer burn-in: surviving samples are a shifted view of the
    # same innovation stream filtered from the same zero state
    model = SpharmaModel.uniform(0, ar=[0.5], noise=1.0)
    a = sim.simulate_spharma(model, sim.SimulationConfig(seed=3, n=50, burn_in=0))
    b = sim.simulate_spharma(model, sim.SimulationConfig(seed=3, n=50, burn_in=10))
    assert np.allclose(a.values[0, 10:50], b.values[0, 0:40])
