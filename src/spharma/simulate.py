"""Simulation of spherical white noise and SPHARMA coefficient series.

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

from .model import (_FILTER_BLOCK, SpharmaModel, arma_filter, check_causal,
                    decay_length)
from .spectral import AutocovarianceSpectrum
from .sphere import sht_inverse

_BURN_TARGET = 1e-10
_BURN_CAP = 1_000_000
_CRAMER_CHUNK_ROWS = 32  # streams per chunk of the band-split Gram matrix
_CRAMER_FACTOR = 1.5  # verify_cramer_orthogonality: threshold 3 * factor / sqrt(n)
_RUN_SAMPLES = 1 << 18  # cap on one filter call's padded buffer in simulate_spharma
_NOISE_LAW = "gaussian"  # the only innovation law; recorded in every sidecar


def row_index(l, m):
    """Row of stream (l, m) in the packed coefficient layout."""
    if abs(m) > l:
        raise IndexError("|m| must not exceed l")
    return l * (l + 1) + m


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
        if not np.all(np.isfinite(self.values)):
            raise ValueError("series values must be finite")

    @property
    def n(self):
        return self.values.shape[1]

    def get(self, l, m):
        return self.values[row_index(l, m)]

    def block(self, l):
        """All 2l+1 streams of multipole l, shape (2l+1, n)."""
        return self.values[l * l : l * l + 2 * l + 1]

    def sidecar(self):
        meta = {"schema": 1, "band_limit": self.band_limit, "n": self.n,
                "dtype": "<f8", "layout": "rows l*(l+1)+m, time fastest"}
        meta.update(self.provenance)
        return meta

    def save(self, path):
        """Write raw little-endian float64 next to a ``.json`` sidecar."""
        path = str(path)
        if _sidecar_path(path) == path:
            raise ValueError(f"series path {path!r} would be overwritten by its sidecar")
        self.values.astype("<f8", copy=False).tofile(path)
        with open(_sidecar_path(path), "w") as fh:
            json.dump(self.sidecar(), fh, indent=1)

    @classmethod
    def load(cls, path):
        path = str(path)
        with open(_sidecar_path(path)) as fh:
            meta = json.load(fh)
        if not (isinstance(meta, dict)
                and all(type(meta.get(k)) is int for k in ("band_limit", "n"))
                and meta["band_limit"] >= 0 and meta["n"] >= 1):
            raise ValueError("series sidecar must be a JSON object with integer "
                             "band_limit >= 0 and n >= 1")
        L, n = meta["band_limit"], meta["n"]
        raw = np.fromfile(path, dtype="<f8")
        if raw.size != (L + 1) ** 2 * n:
            raise ValueError("series file size does not match sidecar")
        prov = {k: v for k, v in meta.items()
                if k not in ("schema", "band_limit", "n", "dtype", "layout")}
        return cls(L, raw.reshape((L + 1) ** 2, n), prov)


def _sidecar_path(path):
    stem, _ = os.path.splitext(path)
    return stem + ".json"


def _stream_normals(keys, count):
    """``(len(keys), count)`` standard normals, row i from Philox key ``keys[i]``.

    One bit generator serves every stream: for each ``(seed, row)`` key its
    state is set to that key, counter zero and an empty buffer, the state
    ``Philox(key=...)`` starts from, and the normals are drawn straight into
    the stream's row. The state is one dict of plain Python lists whose two
    key words are rewritten per stream: Python ints hold the 64-bit words
    exactly, and the state setter reads them without building an array.
    """
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    key = [0, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    out = np.empty((len(keys), count))
    for row, (key[0], key[1]) in zip(out, keys):
        bitgen.state = state
        gen.standard_normal(out=row)
    return out


def _noise_block(seed, l, scale, count):
    """(2l+1, count) innovations for multipole l at standard deviation scale."""
    seed = int(seed)
    block = _stream_normals([(seed, row) for row in range(l * l, (l + 1) ** 2)], count)
    block *= scale
    return block


def simulate_white_noise(noise_spectrum, config):
    """Strong Gaussian spherical white noise with per-l variances C_{l;Z}.

    Simulated as the SPHARMA(0, 0) model of those noise powers.
    """
    return simulate_spharma(SpharmaModel.white_noise(noise_spectrum), config)


def _auto_burn_in(model, report):
    burn = decay_length(report.min_root_modulus, _BURN_TARGET)
    if burn > _BURN_CAP:
        warnings.warn("root margin implies a huge burn-in; capping at 1e6")
        burn = _BURN_CAP
    return max(burn, model.p, model.q)


def _filter_runs(model, total):
    """Consecutive multipoles, as ``range``s, that share one ``arma_filter`` call.

    Multipoles join a run while their trimmed AR and their MA coefficients
    are bitwise equal to the run's and the buffer ``arma_filter`` allocates
    for the run stays within ``_RUN_SAMPLES``: rows x total samples, with
    p > 0 rounded up to whole blocks of max(p, 128). A multipole above the
    cap is a run of its own.
    """
    starts, prev = [], None
    for l in range(model.band_limit + 1):
        ar = np.trim_zeros(model.ar[l], "b")
        row = (ar.tobytes(), model.ma[l].tobytes())
        block = max(len(ar), _FILTER_BLOCK)
        width = -(-total // block) * block if len(ar) else total
        if row != prev or ((l + 1) ** 2 - starts[-1] ** 2) * width > _RUN_SAMPLES:
            starts.append(l)
        prev = row
    ends = starts[1:] + [model.band_limit + 1]
    return [range(lo, hi) for lo, hi in zip(starts, ends)]


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
    """
    report = check_causal(model)
    if not report.causal:
        raise ValueError(
            f"model is not causal at multipoles {report.offending_multipoles}")
    burn = config.burn_in if config.burn_in is not None else _auto_burn_in(model, report)
    total = config.n + burn
    L = model.band_limit
    values = np.empty(((L + 1) ** 2, config.n))
    for run in _filter_runs(model, total):
        blocks = [_noise_block(config.seed, l, math.sqrt(model.noise[l]), total)
                  for l in run]
        z = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        out = arma_filter(model.ar[run[0]], model.ma[run[0]], z)
        values[run[0] ** 2 : (run[-1] + 1) ** 2] = out[:, burn:]
    prov = {"seed": int(config.seed), "burn_in": int(burn),
            "noise_law": _NOISE_LAW, "model_hash": model.content_hash()}
    return HarmonicCoefficientSeries(L, values, prov)


def synthesize_field(series, grid, t):
    """Spatial field snapshot of the time-t coefficient column."""
    if not (0 <= t < series.n):
        raise IndexError("time index out of range")
    return sht_inverse(series.values[:, t], grid)


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
    """Moment estimator pooling the 2l+1 streams of each multipole.

    C_hat_l(t) = sum_m sum_{s} a_{l,m}(s+t) a_{l,m}(s) / ((2l+1)(n-t)).

    The lag sums are one real FFT per multipole: the power spectra of the
    streams, zero-padded to at least n + max_lag so that no lag wraps round,
    are summed over m and transformed back.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    if max_lag >= series.n:
        raise ValueError("max_lag must be below the series length")
    L, n = series.band_limit, series.n
    nfft = _fft_length(n + max_lag)
    counts = n - np.arange(max_lag + 1)
    out = np.empty((L + 1, max_lag + 1))
    for l in range(L + 1):
        spec = np.fft.rfft(series.block(l), nfft, axis=-1)
        power = (spec.real**2 + spec.imag**2).sum(axis=0)
        lag_sums = np.fft.irfft(power, nfft)[: max_lag + 1]
        out[l] = lag_sums / ((2 * l + 1) * counts)
    return AutocovarianceSpectrum(L, max_lag, out)


@dataclass
class CramerReport:
    """Empirical orthogonality of distinct frequency-band components."""

    n_bands: int
    max_abs_correlation: float
    threshold: float
    passed: bool


def verify_cramer_orthogonality(series, n_bands):
    """Check that distinct-band components of the series are uncorrelated.

    [-pi, pi] is split into ``n_bands`` symmetric bands of |lambda|; each
    stream is band-passed by DFT masking and correlations are pooled over
    streams on the middle half of the window (the full window correlation
    vanishes identically by Parseval, carrying no information). Passes when
    the largest absolute correlation is below ``3 * _CRAMER_FACTOR / sqrt(n)``.
    ``ValueError`` above n // 2 + 1 bands, the bins of a real FFT: more
    would leave some band empty.
    """
    if n_bands < 1:
        raise ValueError("n_bands must be at least 1")
    n = series.n
    if n < 1024:
        raise ValueError("orthogonality check needs at least 1024 samples")
    if n_bands > n // 2 + 1:
        raise ValueError(f"at most n // 2 + 1 = {n // 2 + 1} bands for "
                         f"{n} samples, got {n_bands}")
    threshold = 3.0 * _CRAMER_FACTOR / math.sqrt(n)
    if n_bands == 1:
        return CramerReport(1, 0.0, threshold, True)

    # The series is real, so a band is a run of the n//2 + 1 bins of
    # lambda >= 0 (|lambda| grows with the bin) and its component is one
    # inverse real FFT of the spectra with every other bin zeroed.
    lams = 2.0 * math.pi * np.fft.rfftfreq(n)
    band_of = np.minimum((lams / math.pi * n_bands).astype(int), n_bands - 1)
    edges = np.searchsorted(band_of, np.arange(n_bands + 1))
    lo, hi = n // 4, 3 * n // 4
    # Gram matrix of the band components, accumulated over chunks of streams
    gram = np.zeros((n_bands, n_bands))
    for start in range(0, series.values.shape[0], _CRAMER_CHUNK_ROWS):
        spectra = np.fft.rfft(series.values[start : start + _CRAMER_CHUNK_ROWS], axis=-1)
        comps = np.empty((n_bands, len(spectra), hi - lo))
        masked = np.zeros_like(spectra)
        for b in range(n_bands):
            band = slice(edges[b], edges[b + 1])
            masked[:, band] = spectra[:, band]
            comps[b] = np.fft.irfft(masked, n, axis=-1)[:, lo:hi]
            masked[:, band] = 0.0
        comps = comps.reshape(n_bands, -1)
        gram += comps @ comps.T

    norms = np.sqrt(np.diag(gram))
    upper = np.triu_indices(n_bands, 1)
    denom = np.outer(norms, norms)[upper]
    corr = np.abs(gram[upper])[denom != 0.0] / denom[denom != 0.0]
    max_corr = float(corr.max(initial=0.0))
    return CramerReport(n_bands, max_corr, threshold, max_corr < threshold)


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
