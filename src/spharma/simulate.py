"""SPHARMA coefficient series: simulation, and the estimators ``verify`` reads.

Every (l, m) coefficient stream draws from its own counter-based RNG stream
(Philox keyed by ``(seed, l*(l+1)+m)``), so output is bit-reproducible for a
given seed no matter how the per-multipole work is scheduled. One Philox
object is re-keyed for each stream rather than built anew. ARMA recursions
start from a zero state and discard a certified geometric burn-in.

Series layout: rows indexed by ``l*(l+1)+m`` (l ascending, m from -l to l),
time along the second axis. That row order is the package's one coefficient
layout, so a column ``values[:, t]`` is the coefficient vector that
``sphere.sht_inverse`` synthesizes. On disk a series is that array flattened
row-major as little-endian float64, with a JSON sidecar.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .model import (SpharmaModel, _distinct_rows, _filter_into, _padded_length,
                    _require_causal, decay_length)
from .sphere import sht_inverse

_BURN_TARGET = 1e-10
_BURN_CAP = 1_000_000
_CRAMER_CHUNK_ROWS = 32  # streams per chunk of the band-split Gram matrix
_CRAMER_BLOCK = 1 << 18  # _band_gram: floats per block of products or weights
_CRAMER_GRAM_MAX_BYTES = 1 << 30  # _band_gram: largest table of summed products
_RUN_SAMPLES = 1 << 18  # cap on one filter call's padded buffer in simulate_spharma
_NOISE_LAW = "gaussian"  # the only innovation law; recorded in every sidecar


@dataclass
class SimulationConfig:
    """Reproducible simulation parameters.

    ``burn_in=None`` requests the automatic choice: for a causal model with
    root margin xi the burn-in satisfies (1/xi)^burn <= 1e-10 (zero for pure
    moving averages beyond the MA order). Innovations are Gaussian.
    """

    seed: int
    n: int
    burn_in: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 bits")


@dataclass
class HarmonicCoefficientSeries:
    """Real coefficient streams a_{l,m}(t) for l <= band_limit, t = 0..n-1."""

    band_limit: int
    values: np.ndarray
    provenance: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n_rows = (self.band_limit + 1) ** 2
        if self.values.ndim != 2 or self.values.shape[0] != n_rows:
            raise ValueError("values must have (band_limit+1)^2 stream rows")
        if self.values.shape[1] < 1:
            raise ValueError("series length must be at least 1")
        # min and max propagate NaN, so both are finite only when every value
        # is: two passes over the values and no array the size of the series
        if not (np.isfinite(self.values.min()) and np.isfinite(self.values.max())):
            raise ValueError("series values must be finite")

    @property
    def n(self):
        return self.values.shape[1]

    def block(self, l):
        """All 2l+1 streams of multipole l, shape (2l+1, n)."""
        return self.values[l * l : l * l + 2 * l + 1]

    def sidecar(self):
        meta = {"schema": 1, "band_limit": self.band_limit, "n": self.n,
                "dtype": "<f8", "layout": "rows l*(l+1)+m, time fastest"}
        meta.update(self.provenance)
        return meta

    def save(self, path):
        """Write raw little-endian float64 next to a ``.json`` sidecar.

        The values go to ``<path>.tmp``, which then replaces ``path``: a
        series mapped from ``path`` is never truncated under its own map, and
        a failed save leaves any earlier file whole.
        """
        path = str(path)
        if _sidecar_path(path) == path:
            raise ValueError(f"series path {path!r} would be overwritten by its sidecar")
        self.values.astype("<f8", copy=False).tofile(path + ".tmp")
        os.replace(path + ".tmp", path)
        with open(_sidecar_path(path), "w") as fh:
            json.dump(self.sidecar(), fh, indent=1)

    @classmethod
    def load(cls, path):
        """Map a saved series read-only (``np.memmap``): the file is not
        copied into memory, and its values are never written."""
        path = str(path)
        size = os.path.getsize(path)  # a missing series is named before its sidecar
        with open(_sidecar_path(path)) as fh:
            meta = json.load(fh)
        if not (isinstance(meta, dict)
                and all(type(meta.get(k)) is int for k in ("band_limit", "n"))
                and meta["band_limit"] >= 0 and meta["n"] >= 1):
            raise ValueError("series sidecar must be a JSON object with integer "
                             "band_limit >= 0 and n >= 1")
        L, n = meta["band_limit"], meta["n"]
        if size != (L + 1) ** 2 * n * 8:
            raise ValueError("series file size does not match sidecar")
        values = np.memmap(path, dtype="<f8", mode="r", shape=((L + 1) ** 2, n))
        prov = {k: v for k, v in meta.items()
                if k not in ("schema", "band_limit", "n", "dtype", "layout")}
        return cls(L, values, prov)


def _sidecar_path(path):
    stem, _ = os.path.splitext(path)
    return stem + ".json"


def _stream_normals(keys, out, scales):
    """Fill row i of the 2-D ``out`` with standard normals from Philox key
    ``keys[i]`` times ``scales[i]``; returns ``out``.

    One bit generator serves every stream: for each ``(seed, row)`` key its
    state is set to that key, counter zero and an empty buffer, the state
    ``Philox(key=...)`` starts from, and the normals are drawn straight into
    the stream's row, and scaled there while the row is still in cache. The
    state is one dict of plain Python lists whose two key words are
    rewritten per stream: Python ints hold the 64-bit words exactly, and the
    state setter reads them without building an array.
    """
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    key = [0, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, (key[0], key[1]), scale in zip(out, keys, scales):
        bitgen.state = state
        gen.standard_normal(out=row)
        row *= scale
    return out


def simulate_white_noise(noise_spectrum, config):
    """Strong Gaussian spherical white noise with per-l variances C_{l;Z}.

    Simulated as the SPHARMA(0, 0) model of those noise powers.
    """
    return simulate_spharma(SpharmaModel.white_noise(noise_spectrum), config)


def _auto_burn_in(model, report):
    burn = decay_length(report, _BURN_TARGET)
    if burn > _BURN_CAP:
        warnings.warn("root margin implies a huge burn-in; capping at 1e6")
        burn = _BURN_CAP
    return max(burn, model.p, model.q)


def _filter_runs(model, total):
    """Consecutive multipoles, as ``range``s, that share one ``arma_filter``
    call, each with its trimmed AR row.

    Multipoles join a run while they repeat the run's row, trimmed AR and
    MA coefficients keyed by ``_distinct_rows``, and the filter's padded
    work array for the run stays within ``_RUN_SAMPLES``: rows x total
    samples, with p > 0 rounded up to whole blocks of ``arma_filter``'s
    block length. A multipole above the cap is a run of its own.
    """
    ars = [np.trim_zeros(ar, "b") for ar in model.ar]
    owner, _ = _distinct_rows(ars, model.ma)
    starts = [0]
    for l in range(1, len(ars)):
        size = ((l + 1) ** 2 - starts[-1] ** 2) * _padded_length(len(ars[l]), total)
        if owner[l] != owner[l - 1] or size > _RUN_SAMPLES:
            starts.append(l)
    ends = starts[1:] + [model.band_limit + 1]
    return [(range(lo, hi), ars[lo]) for lo, hi in zip(starts, ends)]


def simulate_spharma(model, config):
    """Simulate a causal SPHARMA model as a coefficient series.

    Per stream the recursion a(t) = sum phi_k a(t-k) + z(t) + sum theta_k
    z(t-k) runs from a zero state; the burn-in prefix (explicit or automatic,
    recorded as ``provenance["burn_in"]``) is discarded, after which the
    marginal variance agrees with C_l(0) to within the geometric burn-in
    bound. The innovations z are ``simulate_white_noise(model.noise, ...)``
    with the same seed and that burn-in. Consecutive multipoles with the
    same coefficients are filtered together, in runs of bounded size
    (``_filter_runs``); ``arma_filter`` treats each row on its own, so the
    series is bit for bit the one a filter call per multipole gives.

    Besides the series, the call allocates three work arrays once, each
    sized by its largest run: the noise, and the filter's padded and
    transposed arrays (``model._filter_into``). Every run draws, filters and
    copies its output into place within them, so no run allocates an array
    of its own size; by the ``_RUN_SAMPLES`` cap each holds at most 2 MB
    unless one multipole alone is larger.
    """
    report = _require_causal(model)
    burn = config.burn_in if config.burn_in is not None else _auto_burn_in(model, report)
    total = config.n + burn
    L = model.band_limit
    seed = int(config.seed)
    runs = [(run[0] ** 2, (run[-1] + 1) ** 2, ar, model.ma[run[0]])
            for run, ar in _filter_runs(model, total)]
    noise = np.empty((max(hi - lo for lo, hi, _, _ in runs), total))
    size = max((hi - lo) * _padded_length(len(ar), total)
               for lo, hi, ar, _ in runs)
    pad, work = np.empty(size), np.empty(size)
    values = np.empty(((L + 1) ** 2, config.n))
    scales = np.repeat(np.sqrt(model.noise), 2 * np.arange(L + 1) + 1)
    for lo, hi, ar, ma in runs:
        z = _stream_normals([(seed, row) for row in range(lo, hi)],
                            noise[: hi - lo], scales[lo:hi])
        values[lo:hi] = _filter_into(ar, ma, z, pad, work)[:, burn:]
    prov = {"seed": seed, "burn_in": int(burn),
            "noise_law": _NOISE_LAW, "model_hash": model.content_hash()}
    return HarmonicCoefficientSeries(L, values, prov)


def synthesize_field(series, grid, times):
    """Spatial field snapshots of the coefficient columns at ``times``, a
    list in that order, all from one ``sht_inverse`` call."""
    times = list(times)
    if not all(0 <= t < series.n for t in times):
        raise IndexError("time index out of range")
    return sht_inverse(series.values[:, times], grid)


def _fft_length(m):
    """Smallest 5-smooth integer 2^a 3^b 5^c that is at least m >= 1."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def empirical_autocov(series, max_lag):
    """(L+1, max_lag+1) moment estimator pooling each multipole's 2l+1 streams.

    C_hat_l(t) = sum_m sum_{s} a_{l,m}(s+t) a_{l,m}(s) / ((2l+1) n).

    Dividing by n, not by the n - t products in lag t's sum, makes the lags
    the Fourier coefficients of the pooled periodogram: their Toeplitz matrix
    is nonnegative definite (Brockwell & Davis 7.2), at a bias of -t/n C_l(t).

    The lag sums are one real FFT per multipole: the power spectra of the
    streams, zero-padded to at least n + max_lag so that no lag wraps round,
    are summed over m and transformed back. The spectra and their squares go
    into two arrays sized for the top multipole and reused by every l.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    if max_lag >= series.n:
        raise ValueError("max_lag must be below the series length")
    L, n = series.band_limit, series.n
    nfft = _fft_length(n + max_lag)
    out = np.empty((L + 1, max_lag + 1))
    n_bins = nfft // 2 + 1
    spectra = np.empty((2 * L + 1, n_bins), dtype=complex)
    squares = np.empty((2 * L + 1, n_bins, 2))
    for l in range(L + 1):
        spec = np.fft.rfft(series.block(l), nfft, axis=-1, out=spectra[: 2 * l + 1])
        # squares[m, k] holds (Re X_k)^2, (Im X_k)^2 of stream m; the first
        # part then takes their sum, |X_k|^2
        sq = np.square(spec.view(float).reshape(-1, n_bins, 2),
                       out=squares[: 2 * l + 1])
        power = np.add(sq[..., 0], sq[..., 1], out=sq[..., 0])
        lag_sums = np.fft.irfft(power.sum(axis=0), nfft)[: max_lag + 1]
        out[l] = lag_sums / ((2 * l + 1) * n)
    return out


def _window_kernel(n, lo, hi):
    """D(g) = sum_{t=lo}^{hi-1} exp(2 pi i g t / n) for g = 0..n-1: the
    conjugated FFT of the window's indicator."""
    window = np.zeros(n)
    window[lo:hi] = 1.0
    return np.fft.fft(window).conj()


def _band_gram(values, n_bands):
    """Gram matrix of the band components of the rows of ``values``.

    Entry (b, c) is sum over rows and over t in [n/4, 3n/4) of x_b(t) x_c(t),
    where x_b is the row band-passed to band b: the inverse real FFT of its
    spectrum with the bins of every other band zeroed.

    Band b holds the K_b bins from e_b, so x_b(t) = Re(e^{2 pi i e_b t/n}
    u_b(t)) / n, with u_b(t) = sum_{j<K_b} a X_{e_b+j} e^{2 pi i j t/n} and
    a the inverse real FFT's weight (1 at DC and at an even n's Nyquist bin,
    2 elsewhere). Then 2 n^2 x_b x_c = Re(e^{2 pi i (e_b-e_c) t/n} u_b conj(u_c)
    + e^{2 pi i (e_b+e_c) t/n} u_b u_c), and both products are trigonometric
    polynomials of fewer than N = _fft_length(2 max K_b) frequencies. Their
    window sums are therefore exact weighted sums of the N samples
    u_b(mn/N): one length-N inverse FFT per band and row. The products of
    the samples are summed over rows by one batched real matrix product
    per chunk of rows; the weights, FFTs of the window kernel ``D`` at the
    pair's frequency offsets, are applied once at the end, a block of band
    pairs at a time.
    """
    n = values.shape[-1]
    n_bins = n // 2 + 1
    # a band is a run of the n//2 + 1 bins of lambda >= 0 (|lambda| grows
    # with the bin)
    lams = 2.0 * math.pi * np.fft.rfftfreq(n)
    band_of = np.minimum((lams / math.pi * n_bands).astype(int), n_bands - 1)
    edges = np.searchsorted(band_of, np.arange(n_bands + 1))
    widths = np.diff(edges)
    N = _fft_length(2 * int(widths.max()))
    parts_per_m = 2 * n_bands
    table_bytes = N * parts_per_m**2 * 8
    if table_bytes > _CRAMER_GRAM_MAX_BYTES:
        raise ValueError(f"{n_bands} bands need a {table_bytes / 1e6:.0f} MB "
                         f"table of band products over {n} samples, above the "
                         f"{_CRAMER_GRAM_MAX_BYTES / 1e6:.0f} MB limit")
    # take[m, b]: the bin of band b's coefficient m, or the zero bin past the end
    m = np.arange(N)
    take = np.where(m[:, None] < widths, edges[:-1] + m[:, None], n_bins)

    # acc[m, 2b + i, 2c + j]: sum over rows of part i of u_b(mn/N) times part
    # j of u_c(mn/N) (part 0 real, 1 imaginary); the samples are u / (2N),
    # since the inverse FFT divides by N and the bins are taken as a X / 2
    acc = np.zeros((N, parts_per_m, parts_per_m))
    m_step = max(1, _CRAMER_BLOCK // parts_per_m**2)
    rows = min(_CRAMER_CHUNK_ROWS, len(values))
    spectra = np.zeros((rows, n_bins + 1), dtype=complex)
    samples = np.empty((rows, N, n_bands), dtype=complex)
    for start in range(0, len(values), rows):
        chunk = values[start : start + rows]
        spec, u = spectra[: len(chunk)], samples[: len(chunk)]
        np.fft.rfft(chunk, axis=-1, out=spec[:, :n_bins])
        spec[:, 0] *= 0.5
        if n % 2 == 0:
            spec[:, n_bins - 1] *= 0.5
        # every index is in range; "clip" lets take write straight into u
        np.take(spec, take, axis=1, out=u, mode="clip")
        np.fft.ifft(u, axis=1, out=u)
        parts = u.view(float)
        for m0 in range(0, N, m_step):
            block = parts[:, m0 : m0 + m_step]
            acc[m0 : m0 + m_step] += np.matmul(block.transpose(1, 2, 0),
                                               block.transpose(1, 0, 2))

    # sample m of the product with frequencies f carries the weight
    # FFT_N(D(f + offset))[m]; the difference term's f are centred on 0
    kernel = _window_kernel(n, n // 4, 3 * n // 4)
    centred = (m + N // 2) % N - N // 2
    b, c = np.triu_indices(n_bands)
    gram = np.empty((n_bands, n_bands))
    p_step = max(1, _CRAMER_BLOCK // N)
    for s in range(0, len(b), p_step):
        bs, cs = b[s : s + p_step], c[s : s + p_step]
        diff = np.fft.fft(kernel[(centred + (edges[bs] - edges[cs])[:, None]) % n])
        plus = np.fft.fft(kernel[(m + (edges[bs] + edges[cs])[:, None]) % n])
        rr = acc[:, 2 * bs, 2 * cs].T
        ii = acc[:, 2 * bs + 1, 2 * cs + 1].T
        ir = acc[:, 2 * bs + 1, 2 * cs].T
        ri = acc[:, 2 * bs, 2 * cs + 1].T
        # Re of diff * (rr + ii + i(ir - ri)) + plus * (rr - ii + i(ir + ri))
        total = ((rr * (diff.real + plus.real)).sum(-1)
                 + (ii * (diff.real - plus.real)).sum(-1)
                 - (ir * (diff.imag + plus.imag)).sum(-1)
                 + (ri * (diff.imag - plus.imag)).sum(-1))
        # 2 n^2 x_b x_c = (2N)^2 / N times the weighted sum of the samples
        gram[bs, cs] = gram[cs, bs] = total * (2.0 * N / (n * n))
    return gram


def verify_cramer_orthogonality(series, n_bands):
    """How far distinct-band components of the series are from uncorrelated:
    the largest absolute correlation between two bands.

    [-pi, pi] is split into ``n_bands`` symmetric bands of |lambda|; each
    stream is band-passed by DFT masking and correlations are pooled over
    streams on the middle half of the window (the full window correlation
    vanishes identically by Parseval, carrying no information). One band
    has no pair, so its correlation is 0.
    ``ValueError`` above n // 2 + 1 bands, the bins of a real FFT: more
    would leave some band empty; and, before anything that size is
    allocated, when the table of summed band products would exceed
    ``_CRAMER_GRAM_MAX_BYTES``.

    The band components are never formed at all n samples: ``_band_gram``
    takes one real FFT of length n per stream and one complex FFT of length
    about n / n_bands per band, and sums the window products exactly on that
    coarse grid.
    """
    if n_bands < 1:
        raise ValueError("n_bands must be at least 1")
    n = series.n
    if n < 1024:
        raise ValueError("orthogonality check needs at least 1024 samples")
    if n_bands > n // 2 + 1:
        raise ValueError(f"at most n // 2 + 1 = {n // 2 + 1} bands for "
                         f"{n} samples, got {n_bands}")
    if n_bands == 1:
        return 0.0

    gram = _band_gram(series.values, n_bands)
    # an exactly empty band sums to 0; rounding must not make a norm NaN
    norms = np.sqrt(np.maximum(np.diag(gram), 0.0))
    upper = np.triu_indices(n_bands, 1)
    denom = np.outer(norms, norms)[upper]
    corr = np.abs(gram[upper])[denom != 0.0] / denom[denom != 0.0]
    return float(corr.max(initial=0.0))


def batch_means_se(x, n_batches=64):
    """Standard error of the mean of a correlated series via batch means.

    A 2-D ``x`` holds one series per row and gives one standard error per
    row, each the value the row alone gives. ``ValueError`` below 2 samples.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if n < 2:
        raise ValueError("batch means need at least 2 samples")
    n_batches = min(n_batches, n)
    usable = (n // n_batches) * n_batches
    means = x[..., :usable].reshape(x.shape[:-1] + (n_batches, -1)).mean(axis=-1)
    se = means.std(axis=-1, ddof=1) / math.sqrt(n_batches)
    return float(se) if x.ndim == 1 else se
