"""SPHARMA(p, q) models: per-multipole ARMA recursions on the sphere.

A model stores, for every multipole l up to its band limit, the AR
coefficients phi_{l;1..p_l}, MA coefficients theta_{l;1..q_l} and the white
noise power C_{l;Z} > 0. The associated lag polynomials are

    phi_l(z)   = 1 - phi_{l;1} z - ... - phi_{l;p} z^p
    theta_l(z) = 1 + theta_{l;1} z + ... + theta_{l;q} z^q

and the process is causal (invertible) when all AR (MA) roots lie strictly
outside the closed unit disk, uniformly over l. Actual degrees may differ
across multipoles; coefficient arrays are ragged and p, q report the maxima.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import (AutocovarianceSpectrum, SpectralEigenvalues, _json_int,
                       _json_number, _json_numbers)

_DEGENERATE = 1e-14
_COPRIME_TOL = 1e-8  # check_coprime: least distance between AR and MA roots
_FILTER_BLOCK = 128  # arma_filter: blocks of max(p, 128) samples (see _filter_block)


def canonical_hash(payload):
    """Stable short hash of a JSON-serializable payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class SpharmaModel:
    """Per-multipole ARMA coefficients and noise powers up to a band limit."""

    band_limit: int
    ar: list
    ma: list
    noise: np.ndarray

    def __post_init__(self):
        if self.band_limit < 0:
            raise ValueError("band_limit must be nonnegative")
        n = self.band_limit + 1
        if len(self.ar) != n or len(self.ma) != n:
            raise ValueError("need one AR and one MA coefficient array per l")
        self.ar = [np.asarray(a, dtype=float) for a in self.ar]
        self.ma = [np.asarray(a, dtype=float) for a in self.ma]
        if any(a.ndim != 1 for a in self.ar + self.ma):
            raise ValueError("AR and MA coefficients must be 1-D arrays")
        self.noise = np.asarray(self.noise, dtype=float)
        if self.noise.shape != (n,):
            raise ValueError("noise must hold one positive power per l")
        if not all(np.isfinite(a).all() for a in self.ar + self.ma + [self.noise]):
            raise ValueError("coefficients and noise powers must be finite")
        if np.any(self.noise <= 0.0):
            raise ValueError("noise powers C_{l;Z} must be strictly positive")

    @property
    def p(self):
        return max((len(a) for a in self.ar), default=0)

    @property
    def q(self):
        return max((len(a) for a in self.ma), default=0)

    @classmethod
    def white_noise(cls, noise):
        noise = np.asarray(noise, dtype=float)
        L = len(noise) - 1
        return cls(L, [np.empty(0)] * (L + 1), [np.empty(0)] * (L + 1), noise)

    @classmethod
    def uniform(cls, band_limit, ar=(), ma=(), noise=1.0):
        """Same coefficients at every multipole; scalar or per-l noise."""
        noise_arr = np.broadcast_to(np.asarray(noise, dtype=float),
                                    (band_limit + 1,)).copy()
        return cls(band_limit,
                   [np.asarray(ar, dtype=float)] * (band_limit + 1),
                   [np.asarray(ma, dtype=float)] * (band_limit + 1),
                   noise_arr)

    def spectral(self):
        """Exact rational spectral eigenvalues of the model, no band tail."""
        return SpectralEigenvalues.rational(self)

    def to_json(self):
        return {
            "schema": 1,
            "band_limit": self.band_limit,
            "entries": [
                {"l": l, "ar": self.ar[l].tolist(), "ma": self.ma[l].tolist(),
                 "noise": float(self.noise[l])}
                for l in range(self.band_limit + 1)
            ],
        }

    @classmethod
    def from_json(cls, payload):
        """Read ``to_json`` output: each l from 0 to band_limit exactly once.

        ``band_limit`` and each ``l`` are JSON integers and each coefficient
        and ``noise`` a JSON number, as written; ``ValueError`` otherwise.
        """
        L = _json_int(payload["band_limit"], "band_limit")
        ar = [np.empty(0)] * (L + 1)
        ma = [np.empty(0)] * (L + 1)
        noise = np.full(L + 1, np.nan)
        seen = set()
        for entry in payload["entries"]:
            l = _json_int(entry["l"], "l")
            if not 0 <= l <= L or l in seen:
                raise ValueError(f"model JSON entry l={l}: each l from 0 to {L} "
                                 "must appear exactly once")
            seen.add(l)
            ar[l] = np.asarray(_json_numbers(entry["ar"], "ar coefficient"),
                               dtype=float)
            ma[l] = np.asarray(_json_numbers(entry["ma"], "ma coefficient"),
                               dtype=float)
            noise[l] = _json_number(entry["noise"], "noise")
        if len(seen) != L + 1:
            raise ValueError("model JSON missing entries for some multipoles")
        return cls(L, ar, ma, noise)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def content_hash(self):
        return canonical_hash(self.to_json())


@dataclass
class CausalityReport:
    """Outcome of a root-margin check over all multipoles."""

    causal: bool
    min_root_modulus: float
    offending_multipoles: list = field(default_factory=list)
    margin: float = 0.0


def lag_polynomial_roots(coeffs, kind="ar"):
    """Roots of 1 -/+ c_1 z - ... for AR / 1 + c_1 z + ... for MA coefficients.

    Companion-matrix eigenvalues via ``np.roots``; trailing near-zero
    coefficients are dropped so degenerate polynomials report no roots.
    """
    c = np.asarray(coeffs, dtype=float)
    sign = -1.0 if kind == "ar" else 1.0
    poly = np.r_[1.0, sign * c]
    scale = np.abs(poly).max()
    nz = np.nonzero(np.abs(poly) > _DEGENERATE * scale)[0]
    if len(nz) == 0 or nz[-1] == 0:
        return np.empty(0, dtype=complex)
    poly = poly[: nz[-1] + 1]
    return np.roots(poly[::-1])


def min_root_modulus(coeffs, kind="ar"):
    """Smallest root modulus of a lag polynomial; inf when it has no roots."""
    roots = lag_polynomial_roots(coeffs, kind=kind)
    return math.inf if len(roots) == 0 else float(np.abs(roots).min())


def decay_length(root_modulus, tol):
    """Smallest J with (1/root_modulus)^J <= tol: ceil(log tol / log rho).

    An infinite modulus (no AR roots) means no AR memory, so the length is 0.
    """
    if math.isinf(root_modulus):
        return 0
    return int(math.ceil(math.log(tol) / math.log(1.0 / root_modulus)))


def _root_margin_report(coeff_lists, margin, kind):
    """Least root modulus per multipole against 1 + margin.

    The roots of each distinct coefficient row are found once: a model with
    the same coefficients at every l pays one eigenvalue problem, not L+1.
    """
    if margin < 0.0:
        raise ValueError("margin must be nonnegative")
    by_row = {}
    mods = []
    for coeffs in coeff_lists:
        row = coeffs.tobytes()
        if row not in by_row:
            by_row[row] = min_root_modulus(coeffs, kind)
        mods.append(by_row[row])
    offending = [l for l, mod in enumerate(mods) if mod < 1.0 + margin]
    return CausalityReport(not offending, min(mods, default=math.inf),
                           offending, margin)


def check_causal(model, margin=1e-6):
    """All AR roots at modulus >= 1 + margin, per multipole."""
    return _root_margin_report(model.ar, margin, "ar")


def check_invertible(model, margin=1e-6):
    """All MA roots at modulus >= 1 + margin, per multipole."""
    return _root_margin_report(model.ma, margin, "ma")


def check_coprime(model):
    """Per-l flag: every AR root at distance > ``_COPRIME_TOL`` from every MA root."""
    out = np.ones(model.band_limit + 1, dtype=bool)
    for l in range(model.band_limit + 1):
        ra = lag_polynomial_roots(model.ar[l], "ar")
        rm = lag_polynomial_roots(model.ma[l], "ma")
        if len(ra) and len(rm):
            dist = np.abs(ra[:, None] - rm[None, :]).min()
            out[l] = dist > _COPRIME_TOL
    return out


def psi_coefficients(model, l, count):
    """Power-series coefficients psi_{l;0..count} of theta_l(z)/phi_l(z).

    psi_0 = 1 and psi_j = theta_j [j <= q] + sum_{k<=min(j,p)} phi_k psi_{j-k}:
    the impulse response of the ARMA filter theta_l(B)/phi_l(B).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if min_root_modulus(model.ar[l]) <= 1.0:
        raise ValueError(f"multipole {l} is not causal")
    impulse = np.zeros(count + 1)
    impulse[0] = 1.0
    return arma_filter(model.ar[l], model.ma[l], impulse)


def _ar_in_blocks(ar, w, length):
    """AR recursion from a zero state along axis 0 of ``w``, in place.

    w[j] += ar_1 w[j-1] + ... + ar_p w[j-p] for j < length, term by term in
    that order; every other axis is an independent recursion.
    """
    for j in range(1, length):
        for k in range(1, min(j, len(ar)) + 1):
            w[j] += ar[k - 1] * w[j - k]


def _filter_block(p, n):
    """Block length of ``arma_filter`` for p AR terms and n samples."""
    return max(1, min(max(p, _FILTER_BLOCK), n))


def arma_filter(ar, ma, x):
    """Apply theta(B)/phi(B) along the last axis of ``x`` from a zero state.

    y_t = ar_1 y_{t-1} + ... + ar_p y_{t-p} + x_t + ma_1 x_{t-1} + ...
    + ma_q x_{t-q}, with x and y zero before t = 0. The MA part is q shifted
    adds. For the AR part, time is cut into blocks of B = max(p, 128)
    samples, or one block of B = n when n is no longer: the recursion runs
    over the B positions of all blocks at once, each block from a zero
    state; then the last p outputs are carried from block to block, and each
    block gets its homogeneous response to the carried outputs of the block
    before. Within a block every step is elementwise and the first block
    meets no carried state, so each output depends neither on the other rows
    of ``x`` nor on its length: filtering a prefix gives a prefix of the
    output, bit for bit. Trailing zero AR coefficients are dropped.
    """
    ar = np.trim_zeros(np.asarray(ar, dtype=float), "b")
    ma = np.asarray(ma, dtype=float)
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    p = len(ar)
    B = _filter_block(p, n)
    nb = -(-n // B)
    rows = x.reshape(math.prod(x.shape[:-1]), n)
    u = np.zeros((len(rows), nb * B if p else n))
    u[:, :n] = rows
    for k in range(1, min(len(ma), n - 1) + 1):
        u[:, k:n] += ma[k - 1] * rows[:, : n - k]
    if p == 0 or n == 0:
        return u.reshape(x.shape)
    # (position in block, row, block): each step is one contiguous slice;
    # the transpose goes in tiles of 64 blocks, which keeps it in cache
    flat = u.reshape(len(rows) * nb, B)
    w = np.empty((B, len(flat)))
    for i in range(0, len(flat), 64):
        w[:, i : i + 64] = flat[i : i + 64].T
    w = w.reshape(B, len(rows), nb)
    _ar_in_blocks(ar, w, min(n, B))
    if nb > 1:
        # g[:, i - 1]: a block's response to y_{-i} = 1, which is the
        # recursion driven by ar_{i+j} at positions j = 0..p-i
        g = np.zeros((B, p))
        for i in range(1, p + 1):
            g[: p - i + 1, i - 1] = ar[i - 1 :]
        _ar_in_blocks(ar, g, B)
        # carried[b, i - 1]: y_{-i} seen by block b + 1, i.e. output B - i
        # of block b
        last = np.arange(B - 1, B - p - 1, -1)
        carried = np.ascontiguousarray(w[last].transpose(2, 0, 1))
        g_last = [g[last, i, None] for i in range(p)]
        for b in range(1, nb):
            prev = carried[b - 1]
            corr = g_last[0] * prev[0]
            for i in range(1, p):
                corr += g_last[i] * prev[i]
            carried[b] += corr
        state = [np.ascontiguousarray(carried[:-1, i].T) for i in range(p)]
        for j in range(B):
            corr = g[j, 0] * state[0]
            for i in range(1, p):
                corr += g[j, i] * state[i]
            w[j, :, 1:] += corr
    w = w.reshape(B, len(flat))
    for i in range(0, len(flat), 64):
        flat[i : i + 64] = w[:, i : i + 64].T
    return u[:, :n].reshape(x.shape)


def model_autocovariance(model, l, max_lag):
    """Exact C_l(0..max_lag) of a causal multipole (Brockwell & Davis 3.3, method 3).

    With phi_0 = -1 and theta_0 = 1, C(k) - sum_i phi_i C(k-i) = C_{l;Z} r_k,
    where r_k = sum_{j>=k} theta_j psi_{j-k} is zero for k > q. The equations
    for k = 0..p, with C(-k) = C(k), are a (p+1) x (p+1) system for C(0..p)
    that needs only psi_0..psi_q; the later lags run the same equations as a
    zero-state AR filter. Nothing is truncated, and the solve does not depend
    on max_lag, so the lags are prefix-stable bit for bit.
    """
    ar = np.trim_zeros(model.ar[l], "b")
    p, q = len(ar), len(model.ma[l])
    phi_poly = np.r_[1.0, -ar]
    psi = psi_coefficients(model, l, q)
    # r_k is entry q + k of theta convolved with psi reversed
    r = np.convolve(np.r_[1.0, model.ma[l]], psi[::-1])[q:]
    k = np.arange(p + 1)
    system = np.zeros((p + 1, p + 1))
    np.add.at(system, (k[:, None], np.abs(k[:, None] - k)), phi_poly)
    head = np.linalg.solve(system, np.r_[r, np.zeros(p)][: p + 1])
    # the filter's input: the left-hand sides, kept to their nonnegative lags
    e = np.r_[np.convolve(head, phi_poly)[: p + 1], r[p + 1 :]]
    drive = np.r_[e, np.zeros(max_lag + 1)][: max_lag + 1]
    return model.noise[l] * arma_filter(ar, [], drive)


def model_autocovariance_table(model, max_lag):
    vals = np.vstack([model_autocovariance(model, l, max_lag)
                      for l in range(model.band_limit + 1)])
    return AutocovarianceSpectrum(model.band_limit, max_lag, vals)
