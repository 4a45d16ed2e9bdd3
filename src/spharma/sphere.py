"""Legendre functions, real spherical harmonics and band-limited synthesis.

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

Coefficients at band limit L are one vector of (L+1)^2 entries in stream
order: a_{l,m} at entry ``l*(l+1)+m``, l ascending and m from -l to l, the
row order of a coefficient series.

Grids are Gauss-Legendre in colatitude (nodes in cos theta) crossed with
equiangular longitudes, the minimal node counts whose quadrature is exact
for every product ``Y_{l,m} * Y_{l',m'}`` with ``l, l' <= L``.

The forward transform, the Gauss weights, grid quadrature and the Legendre
polynomials P_l, which only the tests use, are in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FOUR_PI = 4.0 * math.pi


def _legendre_by_order(l_max, x):
    """Yield Q_{m..l_max,m} at the nodes ``x`` for m = 0..l_max.

    Block m is C-contiguous, shape ``(len(x), l_max+1-m)``, one row per node.
    The stable upward recurrence in l runs at fixed m, seeded at Q_{m,m},
    which the sectoral recurrence carries from order to order. The
    floating-point operations are those of the per-order reference in
    ``tests/oracles.py``, in the same order, so each value is bit-identical
    to it.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    q = np.full_like(x, 1.0 / math.sqrt(FOUR_PI))
    for m in range(l_max + 1):
        if m:
            q = math.sqrt((2 * m + 1) / (2.0 * m)) * s * q
        out = np.empty((l_max + 1 - m, len(x)))
        out[0] = q
        if m < l_max:
            out[1] = math.sqrt(2 * m + 3.0) * x * q
        l = np.arange(m + 2, l_max + 1)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((2.0 * l + 1.0) * (l - 1.0 + m) * (l - 1.0 - m))
                    / ((2.0 * l - 3.0) * (l * l - m * m)))
        rows = list(out)
        for k, (ax, bk) in enumerate(zip(a[:, None] * x, b.tolist()), 2):
            np.subtract(ax * rows[k - 1], bk * rows[k - 2], out=rows[k])
        yield np.ascontiguousarray(out.T)


def harmonic_values_at(l_max, colat, lon):
    """All Y_{l,m}(colat, lon) for l <= l_max, a vector in stream order."""
    out = np.empty((l_max + 1) ** 2)
    centre = np.arange(l_max + 1) * np.arange(1, l_max + 2)
    root2 = math.sqrt(2.0)
    for m, q in enumerate(_legendre_by_order(l_max, np.cos(float(colat)))):
        q = q[0]
        if m == 0:
            out[centre] = q
        else:
            out[centre[m:] + m] = q * (root2 * math.cos(m * lon))
            out[centre[m:] - m] = q * (root2 * math.sin(m * lon))
    return out


@dataclass
class SphereGrid:
    """Gauss-Legendre colatitudes x equiangular longitudes at band limit L.

    Only the nodes are stored: synthesis reads no Gauss weights, and
    ``sht_inverse`` forms its own longitude tables.
    """

    colatitudes: np.ndarray
    longitudes: np.ndarray
    band_limit: int

    def __post_init__(self):
        self.colatitudes = np.asarray(self.colatitudes, dtype=float)
        self.longitudes = np.asarray(self.longitudes, dtype=float)
        if self.band_limit < 0:
            raise ValueError("band_limit must be nonnegative")
        if len(self.colatitudes) < self.band_limit + 1:
            raise ValueError("need at least L+1 colatitude nodes")
        if len(self.longitudes) < max(2 * self.band_limit + 1, 1):
            raise ValueError("need at least 2L+1 longitude nodes")

    @property
    def n_lat(self):
        return len(self.colatitudes)

    @property
    def n_lon(self):
        return len(self.longitudes)


def build_grid(band_limit):
    """Minimal exact quadrature grid for fields band-limited at ``band_limit``:
    ``band_limit + 1`` Gauss-Legendre colatitudes and ``2 * band_limit + 1``
    equiangular longitudes."""
    if band_limit < 0:
        raise ValueError("band_limit must be nonnegative")
    n_lon = 2 * band_limit + 1
    x, _ = np.polynomial.legendre.leggauss(band_limit + 1)
    lons = 2.0 * math.pi * np.arange(n_lon) / n_lon
    # leggauss orders ascending in x; colatitude descends as x grows
    return SphereGrid(np.arccos(x), lons, band_limit)


@dataclass
class FieldSnapshot:
    """Real field values on a SphereGrid."""

    grid: SphereGrid
    values: np.ndarray

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


def sht_inverse(coeffs, grid):
    """Synthesize the band-limited field sum(a_{l,m} Y_{l,m}) on grid nodes.

    ``coeffs`` is a stream-order vector, which gives one FieldSnapshot, or a
    block of such columns, which gives a list with one FieldSnapshot per
    column. The Legendre blocks are built once per call, one order at a time,
    and shared by every column: each column takes the products a vector
    would, two matrix-vector products per order for the cosine and sine sums
    over l. The sums over m then take one product each with cos(m phi) and
    sin(m phi), m <= L, formed once per call from ``grid.longitudes``.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    rows = len(coeffs) if coeffs.ndim in (1, 2) else 0
    L = math.isqrt(rows) - 1
    if L < 0 or (L + 1) ** 2 != rows:
        raise ValueError("coefficients must be (L+1)^2 rows in stream order")
    if L > grid.band_limit:
        raise ValueError("coefficient multipole exceeds grid band limit")
    cols = coeffs.T if coeffs.ndim == 2 else [coeffs]
    ls = np.arange(L + 1)
    centre = ls * (ls + 1)  # entry of a_{l,0}
    root2 = math.sqrt(2.0)
    # per-order sums over l at each colatitude, then over m by one matmul each
    cos_sums = np.zeros((len(cols), L + 1, grid.n_lat))
    sin_sums = np.zeros((len(cols), L + 1, grid.n_lat))
    for m, q in enumerate(_legendre_by_order(L, np.cos(grid.colatitudes))):
        for j, a in enumerate(cols):
            if m == 0:
                cos_sums[j, 0] = q @ a[centre]
            else:
                cos_sums[j, m] = root2 * (q @ a[centre[m:] + m])
                sin_sums[j, m] = root2 * (q @ a[centre[m:] - m])
    m_phi = ls[:, None] * grid.longitudes
    cos_t, sin_t = np.cos(m_phi), np.sin(m_phi)
    snaps = [FieldSnapshot(grid, c.T @ cos_t + s.T @ sin_t)
             for c, s in zip(cos_sums, sin_sums)]
    return snaps if coeffs.ndim == 2 else snaps[0]


def write_csv(path, header, row_labels, col_labels, values):
    """Write ``values[i, j]`` as a ``row_labels[i],col_labels[j],repr`` line.

    An empty column label adds no field, so ``col_labels=[""]`` writes
    ``row,value`` lines. Float ``repr`` round-trips exactly; lines end in CRLF
    and nothing is quoted: the bytes of the CSV module's default dialect, as
    no int or float repr needs quotes.
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
