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

Each ``sht_inverse`` call tabulates Q_{l,m} at the grid's colatitude nodes,
packed by order (a grid caches nothing): block m has shape
``(n_lat, L+1-m)``, one contiguous row of Q_{m..L,m} per node, so no storage
goes to the zeros at m > l. The transform works one order at a time on
these blocks: it forms the per-m cosine and sine sums over l with two
matrix-vector products per block, then multiplies them by the longitude
trigonometric tables, once per coefficient column. The forward transform,
the Gauss weights, grid quadrature and the Legendre polynomials P_l, which
only the tests use, are in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FOUR_PI = 4.0 * math.pi

def _legendre_by_degree(l_max, x):
    """Yield Q_{l,0..l}(x), shape ``(l+1,) + shape(x)``, for l = 0..l_max.

    Q_{m,m} comes from the sectoral recurrence seeded at Q_{0,0}, and the
    stable upward recurrence in l at fixed m runs for every order at once,
    one array step per degree. The floating-point operations are those of the
    per-order reference in ``tests/oracles.py``, in the same order, so each
    value is bit-identical to it.
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


def harmonic_values_at(l_max, colat, lon):
    """All Y_{l,m}(colat, lon) for l <= l_max, a vector in stream order."""
    out = np.empty((l_max + 1) ** 2)
    root2 = math.sqrt(2.0)
    c = np.array([root2 * math.cos(m * lon) for m in range(1, l_max + 1)])
    s = np.array([root2 * math.sin(m * lon) for m in range(1, l_max + 1)])
    for l, q in enumerate(_legendre_by_degree(l_max, np.cos(float(colat)))):
        q = q[:, 0]
        centre = l * (l + 1)
        out[centre] = q[0]
        out[centre + 1 : centre + l + 1] = q[1:] * c[:l]
        out[centre - l : centre] = (q[1:] * s[:l])[::-1]
    return out


@dataclass
class SphereGrid:
    """Gauss-Legendre colatitudes x equiangular longitudes at band limit L.

    The Gauss weights of the colatitude nodes are not stored: synthesis
    does not read them.
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

    def _legendre_table(self):
        """Q_{l,m} at the colatitude nodes, packed by order m.

        A list of L+1 blocks, views into one buffer of
        ``n_lat (L+1)(L+2)/2`` floats: block m has shape ``(n_lat, L+1-m)``
        and row i holds Q_{m,m}, ..., Q_{L,m} at node i, contiguous. Built
        on each call, one degree at a time for every order at once.
        """
        L, n = self.band_limit, self.n_lat
        m = np.arange(L + 1)
        width = L + 1 - m
        start = np.concatenate(([0], np.cumsum(n * width)))
        flat = np.empty(start[-1])
        # flat position of Q_{l,m} at node i is base[m, i] + l
        base = start[:-1, None] + width[:, None] * np.arange(n) - m[:, None]
        for l, q in enumerate(_legendre_by_degree(L, np.cos(self.colatitudes))):
            flat[base[: l + 1] + l] = q
        return [flat[start[k] : start[k + 1]].reshape(n, L + 1 - k)
                for k in range(L + 1)]

    def _trig_tables(self):
        """cos(m*phi), sin(m*phi) matrices of shape (L+1, n_lon)."""
        m_phi = np.arange(self.band_limit + 1)[:, None] * self.longitudes[None, :]
        return np.cos(m_phi), np.sin(m_phi)


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
    column; the tables are built once for the whole block, and each column
    takes the products a vector would.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    rows = len(coeffs) if coeffs.ndim in (1, 2) else 0
    L = math.isqrt(rows) - 1
    if L < 0 or (L + 1) ** 2 != rows:
        raise ValueError("coefficients must be (L+1)^2 rows in stream order")
    if L > grid.band_limit:
        raise ValueError("coefficient multipole exceeds grid band limit")
    Q = [q[:, : L + 1 - m] for m, q in enumerate(grid._legendre_table()[: L + 1])]
    cos_t, sin_t = (t[: L + 1] for t in grid._trig_tables())
    ls = np.arange(L + 1)
    centre = ls * (ls + 1)  # entry of a_{l,0}
    root2 = math.sqrt(2.0)
    # per-order sums over l at each colatitude, then over m by one matmul each
    cos_sums = np.zeros((L + 1, grid.n_lat))
    sin_sums = np.zeros((L + 1, grid.n_lat))
    snaps = []
    for a in coeffs.T if coeffs.ndim == 2 else [coeffs]:
        cos_sums[0] = Q[0] @ a[centre]
        for m in range(1, L + 1):
            cos_sums[m] = root2 * (Q[m] @ a[centre[m:] + m])
            sin_sums[m] = root2 * (Q[m] @ a[centre[m:] - m])
        snaps.append(FieldSnapshot(grid, cos_sums.T @ cos_t + sin_sums.T @ sin_t))
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
