"""Legendre polynomials, real spherical harmonics and band-limited transforms.

Conventions
-----------
Real orthonormal spherical harmonics without the Condon-Shortley phase:

    Y_{l,0}  = Q_{l,0}(cos theta)
    Y_{l,m}  = sqrt(2) * Q_{l,m}(cos theta) * cos(m*phi),   m > 0
    Y_{l,-m} = sqrt(2) * Q_{l,m}(cos theta) * sin(m*phi),   m > 0

where Q_{l,m} is the fully normalized associated Legendre function,
``integral(Y_{l,m}^2) = 1`` over the sphere. The usual complex basis with
Condon-Shortley phase is recovered by

    Y^c_{l,0}  = Y_{l,0}
    Y^c_{l,m}  = (-1)^m (Y_{l,m} + i Y_{l,-m}) / sqrt(2),   m > 0
    Y^c_{l,-m} = (Y_{l,m} - i Y_{l,-m}) / sqrt(2),          m > 0.

Coefficient arrays are dense with shape ``(L+1, 2L+1)`` and layout
``coeffs[l, L+m]``; entries with ``|m| > l`` must be zero.

Grids are Gauss-Legendre in colatitude (nodes in cos theta) crossed with
equiangular longitudes, the minimal node counts that integrate every product
``Y_{l,m} * Y_{l',m'}`` with ``l, l' <= L`` exactly.

A grid tabulates Q_{l,m} at its colatitude nodes once, packed by order: block
m has shape ``(n_lat, L+1-m)``, one contiguous row of Q_{m..L,m} per node, so
no storage goes to the zeros at m > l. Both transforms work one order at a
time on these blocks: the inverse forms the per-m cosine and sine sums over l
with two matrix-vector products per block, then multiplies them by the
longitude trigonometric tables; the forward transform runs the same steps
backwards.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

FOUR_PI = 4.0 * math.pi

_X_DOMAIN_SLACK = 1e-12


def _clip_domain(x):
    """Clamp arguments to [-1, 1], rejecting anything beyond roundoff slack."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + _X_DOMAIN_SLACK):
        raise ValueError("argument outside [-1, 1]")
    return np.clip(x, -1.0, 1.0)


def legendre_all(l_max, x):
    """Evaluate P_0(x), ..., P_{l_max}(x) by the three-term recurrence.

    Parameters
    ----------
    l_max : int
        Largest degree, >= 0.
    x : float or ndarray
        Argument(s) in [-1, 1].

    Returns
    -------
    ndarray
        Shape ``(l_max+1,) + shape(x)``; entry ``l`` holds P_l(x).
    """
    if l_max < 0:
        raise ValueError("l_max must be nonnegative")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(_clip_domain(x))
    out = np.empty((l_max + 1,) + x.shape)
    out[0] = 1.0
    if l_max >= 1:
        out[1] = x
    for l in range(1, l_max):
        out[l + 1] = ((2 * l + 1) * x * out[l] - l * out[l - 1]) / (l + 1)
    return out[:, 0] if scalar else out


def _normalized_assoc_legendre(l_max, m, x):
    """Fully normalized Q_{l,m}(x) for l = m..l_max, no Condon-Shortley phase.

    ``2*pi * integral(Q_{l,m}^2 dx) = 1`` on [-1, 1]. Stable upward
    recurrence in l at fixed m.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    n = l_max - m + 1
    out = np.empty((n,) + x.shape)
    # seed Q_{m,m}; accumulate the sectoral recurrence from Q_{0,0}
    q = np.full_like(x, 1.0 / math.sqrt(FOUR_PI))
    for k in range(1, m + 1):
        q = math.sqrt((2 * k + 1) / (2.0 * k)) * s * q
    out[0] = q
    if n > 1:
        out[1] = math.sqrt(2 * m + 3.0) * x * q
    for l in range(m + 2, l_max + 1):
        a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = math.sqrt(
            ((2.0 * l + 1.0) * (l - 1.0 + m) * (l - 1.0 - m))
            / ((2.0 * l - 3.0) * (l * l - m * m))
        )
        out[l - m] = a * x * out[l - m - 1] - b * out[l - m - 2]
    return out


def _legendre_by_degree(l_max, x):
    """Yield Q_{l,0..l}(x), shape ``(l+1,) + shape(x)``, for l = 0..l_max.

    The recurrence of `_normalized_assoc_legendre` run for every order at
    once, one array step per degree, with the same floating-point operations
    in the same order, so each value is bit-identical to it.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    prev = q = np.full((1,) + x.shape, 1.0 / math.sqrt(FOUR_PI))
    yield q
    for l in range(1, l_max + 1):
        nxt = np.empty((l + 1,) + x.shape)
        m = np.arange(l - 1).reshape((-1,) + (1,) * x.ndim)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((2.0 * l + 1.0) * (l - 1.0 + m) * (l - 1.0 - m))
                    / ((2.0 * l - 3.0) * (l * l - m * m)))
        nxt[: l - 1] = a * x * q[: l - 1] - b * prev[: l - 1]
        nxt[l - 1] = math.sqrt(2 * (l - 1) + 3.0) * x * q[l - 1]
        nxt[l] = math.sqrt((2 * l + 1) / (2.0 * l)) * s * q[l - 1]
        prev, q = q, nxt
        yield q


def real_sph_harm(l, m, colat, lon):
    """Real orthonormal spherical harmonic Y_{l,m}(colat, lon).

    Cosine branch for m > 0, sine branch for m < 0, zonal for m = 0.
    """
    if abs(m) > l:
        raise IndexError("|m| must not exceed l")
    scalar = np.isscalar(colat) and np.isscalar(lon)
    colat = np.atleast_1d(np.asarray(colat, dtype=float))
    lon = np.atleast_1d(np.asarray(lon, dtype=float))
    q = _normalized_assoc_legendre(l, abs(m), np.cos(colat))[-1]
    if m == 0:
        val = q
    elif m > 0:
        val = math.sqrt(2.0) * q * np.cos(m * lon)
    else:
        val = math.sqrt(2.0) * q * np.sin(-m * lon)
    return float(val[0]) if scalar else val


def harmonic_values_at(l_max, colat, lon):
    """All Y_{l,m}(colat, lon) for l <= l_max, packed as ``(L+1, 2L+1)``."""
    out = np.zeros((l_max + 1, 2 * l_max + 1))
    root2 = math.sqrt(2.0)
    c = np.array([root2 * math.cos(m * lon) for m in range(1, l_max + 1)])
    s = np.array([root2 * math.sin(m * lon) for m in range(1, l_max + 1)])
    for l, q in enumerate(_legendre_by_degree(l_max, np.cos(float(colat)))):
        q = q[:, 0]
        out[l, l_max] = q[0]
        out[l, l_max + 1 : l_max + l + 1] = q[1:] * c[:l]
        out[l, l_max - l : l_max] = (q[1:] * s[:l])[::-1]
    return out


@dataclass
class SphereGrid:
    """Gauss-Legendre x equiangular quadrature grid exact at band limit L.

    ``colat_weights`` are the Gauss weights with respect to x = cos(theta)
    and sum to 2; longitude quadrature carries a uniform weight 2*pi/n_lon.
    """

    colatitudes: np.ndarray
    colat_weights: np.ndarray
    longitudes: np.ndarray
    band_limit: int
    _tables: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.colatitudes = np.asarray(self.colatitudes, dtype=float)
        self.colat_weights = np.asarray(self.colat_weights, dtype=float)
        self.longitudes = np.asarray(self.longitudes, dtype=float)
        if self.band_limit < 0:
            raise ValueError("band_limit must be nonnegative")
        if len(self.colatitudes) < self.band_limit + 1:
            raise ValueError("need at least L+1 colatitude nodes")
        if len(self.longitudes) < max(2 * self.band_limit + 1, 1):
            raise ValueError("need at least 2L+1 longitude nodes")
        if np.any(self.colat_weights <= 0.0):
            raise ValueError("quadrature weights must be strictly positive")

    @property
    def n_lat(self):
        return len(self.colatitudes)

    @property
    def n_lon(self):
        return len(self.longitudes)

    def _legendre_table(self):
        """Q_{l,m} at the colatitude nodes, packed by order m.

        A list of L+1 blocks, views into one buffer of
        ``n_lat (L+1)(L+2)/2`` floats: block m has shape ``(n_lat, L+1-m)``
        and row i holds Q_{m,m}, ..., Q_{L,m} at node i, contiguous. Built on
        first use, one degree at a time for every order at once.
        """
        if "Q" not in self._tables:
            L, n = self.band_limit, self.n_lat
            m = np.arange(L + 1)
            width = L + 1 - m
            start = np.concatenate(([0], np.cumsum(n * width)))
            flat = np.empty(start[-1])
            # flat position of Q_{l,m} at node i is base[m, i] + l
            base = start[:-1, None] + width[:, None] * np.arange(n) - m[:, None]
            x = np.cos(self.colatitudes)
            for l, q in enumerate(_legendre_by_degree(L, x)):
                flat[base[: l + 1] + l] = q
            self._tables["Q"] = [flat[start[k] : start[k + 1]].reshape(n, L + 1 - k)
                                 for k in range(L + 1)]
        return self._tables["Q"]

    def _trig_tables(self):
        """cos(m*phi), sin(m*phi) matrices of shape (L+1, n_lon)."""
        if "cos" not in self._tables:
            m = np.arange(self.band_limit + 1)[:, None]
            self._tables["cos"] = np.cos(m * self.longitudes[None, :])
            self._tables["sin"] = np.sin(m * self.longitudes[None, :])
        return self._tables["cos"], self._tables["sin"]

    def integrate(self, values):
        """Quadrature of node values over the sphere."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_lat, self.n_lon):
            raise ValueError("value array does not match grid shape")
        lon_w = 2.0 * math.pi / self.n_lon
        return float(self.colat_weights @ values.sum(axis=1)) * lon_w

    def node_dot(self, i, j, k, l):
        """Euclidean inner product of grid nodes (i, j) and (k, l)."""
        t1, t2 = self.colatitudes[i], self.colatitudes[k]
        dphi = self.longitudes[j] - self.longitudes[l]
        return math.cos(t1) * math.cos(t2) + math.sin(t1) * math.sin(t2) * math.cos(dphi)

    def to_json(self):
        return {
            "schema": 1,
            "colatitudes": self.colatitudes.tolist(),
            "weights": self.colat_weights.tolist(),
            "n_lon": self.n_lon,
            "band_limit": self.band_limit,
        }

    @classmethod
    def from_json(cls, payload):
        n_lon = int(payload["n_lon"])
        return cls(
            colatitudes=np.asarray(payload["colatitudes"], dtype=float),
            colat_weights=np.asarray(payload["weights"], dtype=float),
            longitudes=2.0 * math.pi * np.arange(n_lon) / n_lon,
            band_limit=int(payload["band_limit"]),
        )

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def build_grid(band_limit, n_lat=None):
    """Minimal exact quadrature grid for fields band-limited at ``band_limit``:
    ``n_lat`` Gauss-Legendre colatitudes (``band_limit + 1`` by default) and
    ``2 * band_limit + 1`` equiangular longitudes."""
    if band_limit < 0:
        raise ValueError("band_limit must be nonnegative")
    n_lat = n_lat if n_lat is not None else band_limit + 1
    n_lon = 2 * band_limit + 1
    x, _ = np.polynomial.legendre.leggauss(n_lat)
    # leggauss orders ascending in x; colatitude descends as x grows
    colats = np.arccos(x)
    lons = 2.0 * math.pi * np.arange(n_lon) / n_lon
    return SphereGrid(colats, _gauss_weights(n_lat, x), lons, band_limit)


def _gauss_weights(n, x):
    """Gauss-Legendre weights 2 / ((1 - r^2) P_n'(r)^2) at the roots r near x.

    ``x`` holds the roots of P_n rounded to float64, as ``leggauss`` returns
    them; its own weights come from derivatives at the unrefined roots and
    are off by about 1e-11 relative at n = 129. Here the weight is taken at
    the exact root r = x + delta, delta = -P_n(x) / P_n'(x), to first order
    in delta: P_n' varies by about n^2 ulps over the rounding of a root.
    """
    P = legendre_all(n, x)
    s = 1.0 - x * x
    d1 = n * (P[n - 1] - x * P[n]) / s
    d2 = (2.0 * x * d1 - n * (n + 1) * P[n]) / s
    delta = -P[n] / d1
    return 2.0 / ((s - 2.0 * x * delta) * (d1 + delta * d2) ** 2)


@dataclass
class FieldSnapshot:
    """Real field values on a SphereGrid at one time index."""

    grid: SphereGrid
    values: np.ndarray
    time_index: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_lat, self.grid.n_lon):
            raise ValueError("field values do not match grid dimensions")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def to_csv(self, path):
        write_csv(path, ["colat", "lon", "value"],
                  [repr(th) for th in self.grid.colatitudes.tolist()],
                  [repr(ph) for ph in self.grid.longitudes.tolist()], self.values)

    @classmethod
    def from_csv(cls, path, grid, time_index=0):
        values = np.full((grid.n_lat, grid.n_lon), np.nan)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                th, ph = float(row["colat"]), float(row["lon"])
                i = int(np.argmin(np.abs(grid.colatitudes - th)))
                j = int(np.argmin(np.abs(grid.longitudes - ph)))
                values[i, j] = float(row["value"])
        if np.any(np.isnan(values)):
            raise ValueError("CSV does not cover every grid node")
        return cls(grid, values, time_index)


def empty_coeffs(band_limit):
    """Zero coefficient array in the dense ``(L+1, 2L+1)`` layout."""
    return np.zeros((band_limit + 1, 2 * band_limit + 1))


def stream_index(band_limit):
    """Index into the dense ``(L+1, 2L+1)`` layout for each stream row.

    Stream rows are ordered ``l*(l+1)+m`` (l ascending, m from -l to l), so
    ``dense[stream_index(L)]`` flattens a coefficient array into stream order
    and ``dense[stream_index(L)] = column`` scatters one back.
    """
    ls = np.repeat(np.arange(band_limit + 1), 2 * np.arange(band_limit + 1) + 1)
    ms = np.arange(len(ls)) - ls * (ls + 1)
    return ls, band_limit + ms


def _check_coeff_shape(coeffs):
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[1] != 2 * coeffs.shape[0] - 1:
        raise ValueError("coefficient array must have shape (L+1, 2L+1)")
    return coeffs


def sht_forward(fieldsnap, band_limit=None):
    """Forward spherical harmonic transform by separated quadrature.

    Longitude trigonometric sums first, then Gauss-Legendre colatitude
    quadrature. Exact for fields band-limited at the grid band limit;
    spectral content above it aliases into the returned coefficients.
    """
    grid = fieldsnap.grid
    L = grid.band_limit if band_limit is None else band_limit
    if L > grid.band_limit:
        raise ValueError("requested band limit exceeds grid band limit")
    Q = grid._legendre_table()
    cos_t, sin_t = grid._trig_tables()
    lon_w = 2.0 * math.pi / grid.n_lon
    # G[m, i] = sum_j f(i, j) * trig(m, j) * lon_w * w_i
    wv = grid.colat_weights * lon_w
    Gc = (fieldsnap.values @ cos_t[: L + 1].T).T * wv
    Gs = (fieldsnap.values @ sin_t[: L + 1].T).T * wv
    out = empty_coeffs(L)
    out[:, L] = Gc[0] @ Q[0][:, : L + 1]
    root2 = math.sqrt(2.0)
    for m in range(1, L + 1):
        q = Q[m][:, : L + 1 - m]
        out[m:, L + m] = root2 * (Gc[m] @ q)
        out[m:, L - m] = root2 * (Gs[m] @ q)
    return out


def sht_inverse(coeffs, grid, time_index=0):
    """Synthesize the band-limited field sum(a_{l,m} Y_{l,m}) on grid nodes."""
    coeffs = _check_coeff_shape(coeffs)
    L = coeffs.shape[0] - 1
    if L > grid.band_limit:
        raise ValueError("coefficient multipole exceeds grid band limit")
    Q = grid._legendre_table()
    cos_t, sin_t = grid._trig_tables()
    # per-order sums over l at each colatitude, then over m by one matmul each
    cos_sums = np.zeros((L + 1, grid.n_lat))
    sin_sums = np.zeros((L + 1, grid.n_lat))
    cos_sums[0] = Q[0][:, : L + 1] @ coeffs[:, L]
    root2 = math.sqrt(2.0)
    for m in range(1, L + 1):
        q = Q[m][:, : L + 1 - m]
        cos_sums[m] = root2 * (q @ coeffs[m:, L + m])
        sin_sums[m] = root2 * (q @ coeffs[m:, L - m])
    values = cos_sums.T @ cos_t[: L + 1] + sin_sums.T @ sin_t[: L + 1]
    return FieldSnapshot(grid, values, time_index)


def write_csv(path, header, row_labels, col_labels, values):
    """Write ``values[i, j]`` as a ``row_labels[i],col_labels[j],repr`` line.

    A label is one or more comma-joined fields and an empty column label adds
    none, so ``col_labels=[""]`` writes ``row,value`` lines. Float ``repr``
    round-trips exactly; lines end in CRLF and nothing is quoted: the bytes of
    the CSV module's default dialect, as no int or float repr needs quotes.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(row_labels), len(col_labels)):
        raise ValueError("labels do not match the value array")
    cols = [f"{c}," if c else "" for c in col_labels]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for r, row in zip(row_labels, values):
            head = f"{r},"
            fh.write("".join([f"{head}{c}{v!r}\r\n"
                              for c, v in zip(cols, row.tolist())]))


def coeffs_to_csv(coeffs, path):
    """Write coefficients as ``l,m,value`` rows."""
    coeffs = _check_coeff_shape(coeffs)
    L = coeffs.shape[0] - 1
    write_csv(path, ["l", "m", "value"],
              [f"{l},{m}" for l in range(L + 1) for m in range(-l, l + 1)],
              [""], coeffs[stream_index(L)][:, None])


def coeffs_from_csv(path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows.append((int(row["l"]), int(row["m"]), float(row["value"])))
    L = max(r[0] for r in rows)
    out = empty_coeffs(L)
    for l, m, v in rows:
        out[l, L + m] = v
    return out
