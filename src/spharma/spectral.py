"""Second-order calculus for isotropic-stationary sphere-cross-time fields.

Per multipole l, the lag-t covariance of the harmonic coefficients is C_l(t)
and its Fourier transform over lags,

    f_l(lambda) = (1/2pi) * sum_t exp(-i t lambda) C_l(t),

gives the eigenvalues of the frequency-lambda spectral density operator.

Frequencies live on [-pi, pi]. The lags of a rational spectrum are exact;
those of a tabulated one use the composite trapezoid rule on
``frequency_grid(N)``, where it and the sum over lags are a length-N DFT
pair. Band tails above the stored band limit are carried
as explicit ``tail_bound`` metadata rather than silently dropped.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

DEFAULT_FREQ_INTERVALS = 4096
_GRID_ATOL = 1e-12  # rounding allowed in a stored frequency grid
_SPECTRAL_TAIL_TOL = 1e-8  # spectral_from_autocov: lag tail that warns

TWO_PI = 2.0 * math.pi


def frequency_grid(n_intervals=DEFAULT_FREQ_INTERVALS):
    """Uniform grid on [-pi, pi] with ``n_intervals`` panels (endpoints included)."""
    return np.linspace(-math.pi, math.pi, n_intervals + 1)


def abs2_on_circle(coeffs, z):
    """|p(z)|^2 for the real polynomial p(z) = sum_k coeffs[k] z^k at the
    unit-circle points ``z = exp(i*lambda)``.

    Horner's rule: one multiply-add per coefficient, with ``z`` formed once
    per grid by the caller. The rounding error is about
    (deg+1) eps (sum_k |coeffs[k]|)^2, so values far below that scale (near
    a root on the circle) carry little relative accuracy. Empty ``coeffs``
    give zeros.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    z = np.asarray(z, dtype=complex)
    p = np.zeros_like(z)
    for c in coeffs[::-1]:
        p *= z
        p += c
    return p.real**2 + p.imag**2


def rational_density(ar, ma, noise, z):
    """noise/(2pi) * |theta(z)|^2 / |phi(z)|^2 at ``z = exp(i*lambda)``.

    ``ar`` and ``ma`` are the coefficients of phi(z) = 1 - ar_1 z - ... and
    theta(z) = 1 + ma_1 z + ...; an empty array contributes the constant 1,
    which Horner's rule gives exactly, so its pass over ``z`` is skipped.
    """
    out = np.full(np.shape(z), noise / TWO_PI)
    if len(ma):
        out *= abs2_on_circle(np.r_[1.0, ma], z)
    if len(ar):
        den = abs2_on_circle(np.r_[1.0, -ar], z)
        if np.any(den < 1e-24):
            raise ValueError("AR polynomial vanishes on the unit circle")
        out /= den
    return out


def _check_grid(lam):
    """Raise unless ``lam`` is ``frequency_grid(N)``, N >= 1, to rounding."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or len(lam) < 2:
        raise ValueError("frequency grid needs at least two nodes")
    if not np.abs(lam - frequency_grid(len(lam) - 1)).max() <= _GRID_ATOL:
        raise ValueError("frequency grid must be frequency_grid(N): uniform "
                         "on [-pi, pi], endpoints included")


def trapezoid_lags(lam, f, max_lag):
    """Trapezoid rule for integral f(lambda) cos(t lambda), t = 0..max_lag.

    ``lam`` is ``frequency_grid(N)``; ``f`` holds one tabulated spectrum of
    shape ``(len(lam),)`` or one per row, shape ``(rows, len(lam))``.
    exp(i t lambda_k) = (-1)^t exp(2 pi i t k / N) and the end nodes meet on
    the circle, so the sums are (-1)^t 2 pi times the inverse DFT of
    (f_0 + f_N) / 2, f_1, ..., f_{N-1}: one FFT per row gives every lag, and
    the lags have period N.
    """
    _check_grid(lam)
    f = np.asarray(f, dtype=float)
    t = np.arange(max_lag + 1)
    n = f.shape[-1] - 1
    g = f[..., :n].copy()
    g[..., 0] = 0.5 * (f[..., 0] + f[..., n])
    sign = np.where(t % 2, -TWO_PI, TWO_PI)
    return (sign * np.fft.ifft(g, axis=-1)[..., t % n]).real


def _json_int(value, name):
    """``value`` if it is a JSON integer, else ``ValueError``: no float, bool or
    string is truncated to one."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _json_number(value, name):
    """``float(value)`` if ``value`` is a JSON number within float range, else
    ``ValueError``: no bool, string or list is read as one."""
    if type(value) is not float and (type(value) is not int
                                     or abs(value) > sys.float_info.max):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def _json_numbers(value, name):
    """``value`` if it is a JSON number or a list of them (lists may nest), each
    as ``_json_number`` reads it, else ``ValueError``."""
    stack = [value]
    while stack:
        item = stack.pop()
        if type(item) is list:
            stack.extend(item)
        else:
            _json_number(item, name)
    return value


def _geometric_tail(last, prev):
    """Tail estimate sum_{t>T} |c_t| from the last two stored magnitudes."""
    last, prev = abs(last), abs(prev)
    if last == 0.0:
        return 0.0
    if prev <= last:
        return math.inf
    r = last / prev
    return last * r / (1.0 - r)


@dataclass
class AutocovarianceSpectrum:
    """Angular power spectra C_l(t) for l <= band_limit, |t| <= max_lag.

    Negative lags follow from the real-process symmetry C_l(-t) = C_l(t).
    ``tail_bound`` bounds sum_{l > band_limit} (2l+1) C_l(0); it is zero for
    exactly band-limited processes.
    """

    band_limit: int
    max_lag: int
    values: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.band_limit + 1, self.max_lag + 1):
            raise ValueError("values must have shape (band_limit+1, max_lag+1)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("autocovariances must be finite")
        if not 0.0 <= self.tail_bound < math.inf:
            raise ValueError("tail_bound must be finite and nonnegative")
        lag0 = self.values[:, 0]
        if np.any(lag0 < -1e-12 * (1.0 + np.abs(self.values).max())):
            raise ValueError("lag-0 autocovariances must be nonnegative")
        # Cauchy-Schwarz |C_l(t)| <= C_l(0), up to estimator roundoff
        slack = 1e-8 * (1.0 + lag0) + 1e-12
        if np.any(np.abs(self.values) > lag0[:, None] + slack[:, None]):
            raise ValueError("|C_l(t)| exceeds C_l(0): not a valid autocovariance")


class SpectralEigenvalues:
    """Eigenvalues f_l(lambda) of the spectral density operator.

    Either rational per multipole, ``noise/(2pi) |theta|^2/|phi|^2`` on the
    unit circle with the coefficients and noise powers of the SPHARMA model
    kept as ``model``, or tabulated on a stored frequency grid, which must be
    ``frequency_grid(N)`` to rounding (``ValueError`` otherwise).
    ``tail_bound`` bounds sup_lambda sum_{l > band_limit} (2l+1) f_l(lambda).
    """

    def __init__(self, band_limit, form, *, model=None, lambda_grid=None,
                 table=None, tail_bound=0.0):
        self.band_limit = int(band_limit)
        self.form = form
        self.tail_bound = float(tail_bound)
        if not 0.0 <= self.tail_bound < math.inf:
            raise ValueError("tail_bound must be finite and nonnegative")
        if form == "rational":
            if model is None or model.band_limit != self.band_limit:
                raise ValueError("rational form needs a model of the same band limit")
            self.model = model
            self.lam = None
            self.table = None
        elif form == "tabulated":
            _check_grid(lambda_grid)
            self.lam = np.asarray(lambda_grid, dtype=float)
            self.table = np.asarray(table, dtype=float)
            if self.table.shape != (self.band_limit + 1, len(self.lam)):
                raise ValueError("table must have shape (band_limit+1, len(grid))")
            if not np.all(np.isfinite(self.table)):
                raise ValueError("spectral eigenvalues must be finite")
            if np.any(self.table < 0.0):
                raise ValueError("spectral eigenvalues must be nonnegative")
            self.model = None
        else:
            raise ValueError("form must be 'rational' or 'tabulated'")

    @classmethod
    def rational(cls, model, tail_bound=0.0):
        """Exact spectral eigenvalues of a ``SpharmaModel``."""
        return cls(model.band_limit, "rational", model=model, tail_bound=tail_bound)

    @classmethod
    def tabulated(cls, lambda_grid, table, tail_bound=0.0):
        table = np.asarray(table, dtype=float)
        return cls(table.shape[0] - 1, "tabulated", lambda_grid=lambda_grid,
                   table=table, tail_bound=tail_bound)

    def lambda_grid(self):
        """The stored grid, or ``frequency_grid()`` for a rational spectrum."""
        if self.form == "tabulated":
            return self.lam
        return frequency_grid()

    def values(self, lams=None):
        """f_l on ``lams`` (default: the natural grid), shape (L+1, n_lams).

        Tabulated spectra are linearly interpolated off their stored grid.
        """
        if lams is None:
            lams = self.lambda_grid()
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        if self.form == "rational":
            m = self.model
            z = np.exp(1j * lams)
            return np.vstack([rational_density(ar, ma, noise, z)
                              for ar, ma, noise in zip(m.ar, m.ma, m.noise)])
        if lams.shape == self.lam.shape and np.allclose(lams, self.lam):
            return self.table
        return np.vstack([np.interp(lams, self.lam, row) for row in self.table])

    def to_json(self):
        payload = {"schema": 1, "form": self.form, "band_limit": self.band_limit,
                   "tail_bound": self.tail_bound}
        if self.form == "rational":
            payload["rational"] = self.model.to_json()["entries"]
        else:
            payload["lambda_grid"] = self.lam.tolist()
            payload["f"] = self.table.tolist()
        return payload

    @classmethod
    def from_json(cls, payload):
        """Read ``to_json`` output. ``band_limit`` is a JSON integer and every
        other number a JSON number; rational rows are model entries, each l
        from 0 to ``band_limit`` once; a tabulated ``f`` has ``band_limit + 1``
        rows. ``ValueError`` otherwise."""
        from .model import SpharmaModel

        tail = _json_number(payload.get("tail_bound", 0.0), "tail_bound")
        L = _json_int(payload["band_limit"], "band_limit")
        if payload["form"] == "rational":
            model = SpharmaModel.from_json({"band_limit": L,
                                            "entries": payload["rational"]})
            return cls.rational(model, tail_bound=tail)
        grid = _json_numbers(payload["lambda_grid"], "lambda_grid node")
        table = _json_numbers(payload["f"], "f value")
        return cls(L, payload["form"], lambda_grid=grid, table=table,
                   tail_bound=tail)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _trace_row(values, tail_bound):
    """sum_l (2l+1) f_l(lambda) + tail_bound from a table of f_l(lambda)."""
    return (2 * np.arange(len(values)) + 1) @ values + tail_bound


def operator_trace_norm(spec, lam):
    """Trace norm sum_l (2l+1) f_l(lambda), plus any stored band tail bound."""
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    tr = _trace_row(spec.values(lam_arr), spec.tail_bound)
    return float(tr[0]) if np.isscalar(lam) or np.ndim(lam) == 0 else tr


def spectral_from_autocov(acv):
    """Tabulate f_l(lambda) = (1/2pi) sum_{|t|<=max_lag} e^{-it lambda} C_l(t).

    The table is on ``frequency_grid()``. The sum over stored lags is exact;
    a geometric estimate of the dropped tail triggers a warning above
    ``_SPECTRAL_TAIL_TOL`` (relative to the peak value) and sets the clipping
    allowance for truncation-induced negatives. Values below that allowance
    raise, so genuinely invalid inputs are not masked.
    """
    n = DEFAULT_FREQ_INTERVALS
    lam = frequency_grid(n)
    L, T = acv.band_limit, acv.max_lag
    # f(lambda_k) = (1/2pi) sum_t C(|t|) (-1)^t exp(-2 pi i t k / N): the DFT
    # of the signed lags t = -T..T folded into bins t mod N, read with period N
    t = np.arange(-T, T + 1)
    folded = np.zeros((L + 1, n))
    np.add.at(folded, (slice(None), t % n),
              acv.values[:, np.abs(t)] * np.where(t % 2, -1.0, 1.0))
    f = np.fft.fft(folded, axis=-1).real[:, np.arange(n + 1) % n] / TWO_PI

    tail = 0.0
    if T >= 2:
        tails = [_geometric_tail(acv.values[l, T], acv.values[l, T - 1])
                 for l in range(L + 1)]
        tail = max(tails)
    scale = max(np.abs(f).max(), 1.0)
    if not math.isfinite(tail):
        warnings.warn("stored autocovariances do not decay; spectral tail unbounded")
        tail = scale
    elif tail / math.pi > _SPECTRAL_TAIL_TOL * scale:
        warnings.warn(
            f"autocovariance truncation tail estimate {tail:.3g} exceeds tolerance")
    allowance = tail / math.pi + 1e-12 * scale
    if np.any(f < -allowance):
        raise ValueError("spectral density significantly negative: invalid input")
    f = np.maximum(f, 0.0)
    return SpectralEigenvalues.tabulated(lam, f, tail_bound=acv.tail_bound)


def autocov_table(spec, max_lag):
    """Lags C_l(t) = integral of e^{i t lambda} f_l(lambda), t = 0..max_lag.

    The one route from a spectrum to its lags: exact for a rational spectrum
    (``model_autocovariance_table``), the trapezoid rule on the stored grid
    for a tabulated one (``trapezoid_lags``). Both are prefix-stable, so a
    deeper table extends a shallower one bit for bit.
    """
    if spec.form == "rational":
        from .model import model_autocovariance_table

        acv = model_autocovariance_table(spec.model, max_lag)
    else:
        acv = AutocovarianceSpectrum(
            spec.band_limit, max_lag, trapezoid_lags(spec.lam, spec.table, max_lag))
    # sum_{l>L} (2l+1) C_l(0) <= 2pi * sup_lambda tail of the trace sum
    acv.tail_bound = TWO_PI * spec.tail_bound
    return acv


def ckl_truncation_error(spec, l_trunc):
    """Mean-square error of truncating the harmonic expansion at l_trunc.

    sum_{l > l_trunc} (2l+1)/(4pi) * integral(f_l), the integrals being the
    lag-0 row of ``autocov_table``, including the stored above-band tail
    bound (a sup bound, integrated over [-pi, pi]).
    """
    if l_trunc > spec.band_limit:
        raise ValueError("l_trunc exceeds band limit")
    if l_trunc < -1:
        raise ValueError("l_trunc must be at least -1")
    integrals = autocov_table(spec, 0).values[:, 0]
    deg = 2 * np.arange(spec.band_limit + 1) + 1
    inside = deg[l_trunc + 1 :] @ integrals[l_trunc + 1 :] / (4.0 * math.pi)
    tail = spec.tail_bound * TWO_PI / (4.0 * math.pi)
    return float(inside + tail)
