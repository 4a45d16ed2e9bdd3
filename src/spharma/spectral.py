"""Second-order calculus for isotropic-stationary sphere-cross-time fields.

Per multipole l, the lag-t covariance of the harmonic coefficients is C_l(t)
and its Fourier transform over lags,

    f_l(lambda) = (1/2pi) * sum_t exp(-i t lambda) C_l(t),

gives the eigenvalues of the frequency-lambda spectral density operator.

Frequencies live on [-pi, pi]. The lags of a rational spectrum are exact;
those of a tabulated one use the composite trapezoid rule on
``frequency_grid(N)``, where it and the sum over lags are a length-N DFT
pair. A lag table is a plain ``(L+1, max_lag+1)`` array, row l holding
C_l(0..max_lag). Band tails above the stored band limit of a spectrum are
carried as explicit ``tail_bound`` metadata rather than silently dropped.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

DEFAULT_FREQ_INTERVALS = 4096
_GRID_ATOL = 1e-12  # rounding allowed in a stored frequency grid

TWO_PI = 2.0 * math.pi


def frequency_grid(n_intervals=DEFAULT_FREQ_INTERVALS):
    """Uniform grid on [-pi, pi] with ``n_intervals`` panels (endpoints included)."""
    return np.linspace(-math.pi, math.pi, n_intervals + 1)


def abs2_on_circle(coeffs, z):
    """|p(z)|^2 for the real polynomial p(z) = sum_k coeffs[k] z^k at the
    unit-circle points ``z = exp(i*lambda)``.

    Horner's rule (``np.polyval``): one multiply-add per coefficient, with
    ``z`` formed once per grid by the caller. The rounding error is about
    (deg+1) eps (sum_k |coeffs[k]|)^2, so values far below that scale (near
    a root on the circle) carry little relative accuracy. Empty ``coeffs``
    give zeros.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    p = np.polyval(coeffs[::-1], np.asarray(z, dtype=complex))
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

    def values(self, lams=None, ls=None):
        """f_l on ``lams`` (default: the natural grid), shape (L+1, n_lams),
        or one row per multipole in ``ls`` when given.

        Tabulated spectra are linearly interpolated, exactly at stored nodes.
        """
        if lams is None:
            lams = self.lambda_grid()
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        if self.form == "rational":
            m, z = self.model, np.exp(1j * lams)
            ls = range(self.band_limit + 1) if ls is None else ls
            return np.vstack([rational_density(m.ar[l], m.ma[l], m.noise[l], z)
                              for l in ls])
        table = self.table if ls is None else self.table[ls]
        return np.vstack([np.interp(lams, self.lam, row) for row in table])

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
        rows. A model payload (``entries`` and no ``form``) reads as the
        model's rational spectrum. ``ValueError`` otherwise, and for a
        payload that is not a JSON object."""
        from .model import SpharmaModel

        if not isinstance(payload, dict):
            raise ValueError("not a JSON object")
        if "entries" in payload and "form" not in payload:
            return cls.rational(SpharmaModel.from_json(payload))
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


def trace_norm(values, tail_bound):
    """sum_l (2l+1) values_l + tail_bound over the rows of an f_l(lambda) table."""
    return (2 * np.arange(len(values)) + 1) @ values + tail_bound


def operator_trace_norm(spec, lam):
    """Trace norm sum_l (2l+1) f_l(lambda), plus any stored band tail bound."""
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    tr = trace_norm(spec.values(lam_arr), spec.tail_bound)
    return float(tr[0]) if np.isscalar(lam) or np.ndim(lam) == 0 else tr


def spectral_from_autocov(lags):
    """Tabulate f_l(lambda) = (1/2pi) sum_{|t|<=max_lag} e^{-it lambda} C_l(t)
    from the ``(L+1, max_lag+1)`` lag table ``lags``.

    The table is on ``frequency_grid(N)``, N = 4096, and is the exact sum over
    the stored lags: nothing is guessed about the lags past T = max_lag. Lags
    that are nonnegative definite, truncated by a window with a nonnegative
    kernel (as ``spectrum --series`` truncates them), sum to a nonnegative f.
    The FFT rounds each value by about log2(N) eps / 2pi times the lags'
    absolute sum, under 2 (2T + 1) eps max_t |C_l(t)|, so values below twice
    that, -4 (2T + 1) eps max_t |C_l(t)|, are not rounding: such lags, a
    negative C_l(0) or a |C_l(t)| above it among them, are no autocovariance
    and raise ``ValueError``, as does a table that is not 2-D or not finite.
    The rest are clipped at zero.
    """
    lags = np.asarray(lags, dtype=float)
    if lags.ndim != 2 or not lags.size:
        raise ValueError("lags must be a nonempty (L+1, max_lag+1) array")
    if not np.all(np.isfinite(lags)):
        raise ValueError("autocovariances must be finite")
    n = DEFAULT_FREQ_INTERVALS
    lam = frequency_grid(n)
    T = lags.shape[1] - 1
    # f(lambda_k) = (1/2pi) sum_t C(|t|) (-1)^t exp(-2 pi i t k / N): the DFT
    # of the signed lags t = -T..T folded into bins t mod N, read with period N
    t = np.arange(-T, T + 1)
    folded = np.zeros((len(lags), n))
    np.add.at(folded, (slice(None), t % n),
              lags[:, np.abs(t)] * np.where(t % 2, -1.0, 1.0))
    f = np.fft.fft(folded, axis=-1).real[:, np.arange(n + 1) % n] / TWO_PI
    rounding = 4 * (2 * T + 1) * np.finfo(float).eps * np.abs(lags).max(axis=1)
    if np.any(f < -rounding[:, None]):
        raise ValueError("spectral density significantly negative: invalid input")
    return SpectralEigenvalues.tabulated(lam, np.maximum(f, 0.0))


def autocov_table(spec, max_lag):
    """Lags C_l(t) = integral of e^{i t lambda} f_l(lambda), t = 0..max_lag,
    as an ``(L+1, max_lag+1)`` array.

    The one route from a spectrum to its lags: exact for a rational spectrum
    (``model_autocovariance_table``), the trapezoid rule on the stored grid
    for a tabulated one (``trapezoid_lags``). Both are prefix-stable, so a
    deeper table extends a shallower one bit for bit. Lags that overflow
    (noise powers near the float range) raise ``ValueError``.
    """
    from .model import model_autocovariance_table

    # the finiteness check below is the refusal, so overflow warns nothing
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.form == "rational":
            lags = model_autocovariance_table(spec.model, max_lag)
        else:
            lags = trapezoid_lags(spec.lam, spec.table, max_lag)
    if not np.all(np.isfinite(lags)):
        raise ValueError("autocovariances must be finite")
    return lags
