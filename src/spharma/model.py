"""SPHARMA(p, q) models: per-multipole ARMA recursions on the sphere.

A model stores, for every multipole l up to its band limit, the AR
coefficients phi_{l;1..p_l}, MA coefficients theta_{l;1..q_l} and the white
noise power C_{l;Z} > 0. The associated lag polynomials are

    phi_l(z)   = 1 - phi_{l;1} z - ... - phi_{l;p} z^p
    theta_l(z) = 1 + theta_{l;1} z + ... + theta_{l;q} z^q

and the process is causal (invertible) when every AR (MA) root has modulus
at least 1 + ``_ROOT_MARGIN`` = 1 + 1e-6, uniformly over l. Actual degrees
may differ across multipoles; coefficient arrays are ragged and p, q report
the maxima.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import (SpectralEigenvalues, _json_int, _json_number,
                       _json_numbers)

_DEGENERATE = 1e-14
_ROOT_MARGIN = 1e-6  # causal (invertible): every AR (MA) root at modulus >= 1 + this
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

        ``band_limit`` and each ``l`` are JSON integers, ``entries`` a JSON
        list of JSON objects and each coefficient and ``noise`` a JSON number,
        as written; ``ValueError`` otherwise.
        """
        L = _json_int(payload["band_limit"], "band_limit")
        ar = [np.empty(0)] * (L + 1)
        ma = [np.empty(0)] * (L + 1)
        noise = np.full(L + 1, np.nan)
        seen = set()
        entries = payload["entries"]
        if type(entries) is not list:
            raise ValueError(f"entries must be a JSON list, got {entries!r}")
        for entry in entries:
            if type(entry) is not dict:
                raise ValueError(f"model entry must be a JSON object, got {entry!r}")
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
    """Outcome of the root rule over all multipoles (see ``_root_report``)."""

    causal: bool
    min_root_modulus: float
    offending_multipoles: list = field(default_factory=list)


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


def decay_length(report, tol):
    """Smallest J with (1/xi)^J <= tol for the least root modulus xi of a
    ``CausalityReport``: ceil(log tol / log(1/xi)).

    An infinite modulus (no AR roots) means no AR memory, so the length is 0.
    """
    xi = report.min_root_modulus
    if math.isinf(xi):
        return 0
    return int(math.ceil(math.log(tol) / math.log(1.0 / xi)))


def _distinct_rows(*columns):
    """``(owner, reps)`` for columns of one entry (array or number) per
    multipole: multipole l repeats multipole ``reps[owner[l]]``, the first
    whose entry in every column has the same bits."""
    first = {}
    keys = zip(*[[np.asarray(x).tobytes() for x in c] for c in columns])
    owner = np.array([first.setdefault(key, len(first)) for key in keys])
    return owner, np.unique(owner, return_index=True)[1]


def _root_report(rows, kind):
    """Least root modulus per multipole against 1 + ``_ROOT_MARGIN``, with one
    root search per distinct row (``_distinct_rows``)."""
    owner, reps = _distinct_rows(rows)
    mods = [min_root_modulus(rows[l], kind) for l in reps]
    per_l = [mods[k] for k in owner]
    offending = [l for l, mod in enumerate(per_l) if mod < 1.0 + _ROOT_MARGIN]
    return CausalityReport(not offending, min(per_l, default=math.inf), offending)


def check_causal(model):
    """All AR roots at modulus >= 1 + ``_ROOT_MARGIN``, per multipole."""
    return _root_report(model.ar, "ar")


def check_invertible(model):
    """All MA roots at modulus >= 1 + ``_ROOT_MARGIN``, per multipole."""
    return _root_report(model.ma, "ma")


def _require_causal(model):
    """``check_causal(model)``, or ``ValueError`` naming the multipoles that
    fail it: the one refusal of every call that needs a causal model."""
    report = check_causal(model)
    if not report.causal:
        raise ValueError(
            f"model is not causal at multipoles {report.offending_multipoles}")
    return report


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
    _require_causal(model)
    return arma_filter(model.ar[l], model.ma[l], np.eye(1, count + 1)[0])


def _ar_in_blocks(ar, w, length):
    """AR recursion from a zero state along axis 0 of ``w``, in place.

    w[j] += ar_1 w[j-1] + ... + ar_p w[j-p] for j < length, term by term in
    that order; every other axis is an independent recursion. Each
    ``ar[k - 1]`` is a scalar, or an array that broadcasts against ``w[j]``
    to give each column its own coefficient.
    """
    for j in range(1, length):
        for k in range(1, min(j, len(ar)) + 1):
            w[j] += ar[k - 1] * w[j - k]


def _filter_block(p, n):
    """Block length of ``arma_filter`` for p AR terms and n samples."""
    return max(1, min(max(p, _FILTER_BLOCK), n))


def _padded_length(p, n):
    """Samples per row in ``arma_filter``'s work arrays: n, rounded up to
    whole blocks when there is an AR part."""
    if not p:
        return n
    B = _filter_block(p, n)
    return -(-n // B) * B


def arma_filter(ar, ma, x):
    """Apply theta(B)/phi(B) along the last axis of ``x`` from a zero state.

    y_t = ar_1 y_{t-1} + ... + ar_p y_{t-p} + x_t + ma_1 x_{t-1} + ...
    + ma_q x_{t-q}, with x and y zero before t = 0. ``ar`` and ``ma`` are
    1-D rows shared by every row of ``x`` (``ValueError`` otherwise), and
    trailing zero AR coefficients are dropped. The MA part is q shifted
    adds. For the AR part, time is cut into blocks of B = max(p, 128)
    samples, or one block of B = n when n is no longer: the recursion runs
    over the B positions of all blocks at once, each block from a zero
    state; then the last p outputs are carried from block to block, and each
    block gets its homogeneous response to the carried outputs of the block
    before. Within a block every step is elementwise and the first block
    meets no carried state, so each output depends neither on the other rows
    of ``x`` nor on its length: filtering a prefix gives a prefix of the
    output, bit for bit.

    This call allocates its two work arrays; ``_filter_into`` runs the
    filter in arrays the caller owns and reuses.
    """
    ar = np.asarray(ar, dtype=float)
    ma = np.asarray(ma, dtype=float)
    if ar.ndim != 1 or ma.ndim != 1:
        raise ValueError("AR and MA coefficients must be 1-D rows")
    ar = np.trim_zeros(ar, "b")
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    rows = x.reshape(math.prod(x.shape[:-1]), n)
    size = len(rows) * _padded_length(len(ar), n)
    out = _filter_into(ar, ma, rows, np.empty(size), np.empty(size))
    return out.reshape(x.shape)


def _filter_into(ar, ma, rows, pad, work, start=None):
    """``arma_filter`` of the 2-D ``rows`` in caller-owned work arrays.

    ``ar`` and ``ma`` are 1-D float rows, ``ar`` without trailing zero
    terms, so its length is the AR order p. ``pad`` and ``work`` are 1-D
    float arrays of at least ``len(rows) * _padded_length(len(ar), n)``
    entries whose contents are never read: ``pad`` takes the rows,
    zero-padded to whole blocks, and is filtered in place; ``work`` holds
    each MA product and then the transposed blocks. Returns the output
    rows, a view of ``pad``. ``start``, if given, is what a past before
    t = 0 adds to each row's first AR inputs, added after the MA step.
    """
    n_rows, n = rows.shape
    p = len(ar)
    B = _filter_block(p, n)
    nb = -(-n // B)
    width = _padded_length(p, n)
    u = pad[: n_rows * width].reshape(n_rows, width)
    # the pad never reaches the first n outputs, but stale values there
    # could overflow or be subnormal in the recursion
    u[:, n:] = 0.0
    if len(ma) and n > 1:
        # the first MA term is formed in the copy: x_t + ma_1 x_{t-1} gives
        # the bits of the shifted add, as floating-point addition commutes
        np.multiply(ma[0], rows[:, : n - 1], out=u[:, 1:n])
        u[:, 0] = rows[:, 0]
        u[:, 1:n] += rows[:, 1:n]
        prod = work[: n_rows * n].reshape(n_rows, n)
        for k in range(2, min(len(ma), n - 1) + 1):
            np.multiply(ma[k - 1], rows[:, : n - k], out=prod[:, : n - k])
            u[:, k:n] += prod[:, : n - k]
    else:
        u[:, :n] = rows
    if start is not None:
        u[:, : min(n, start.shape[1])] += start[:, :n]
    if p == 0 or n == 0:
        return u
    # (position in block, row, block): each step is one contiguous slice;
    # the transpose goes in tiles of 64 blocks, which keeps it in cache
    flat = u.reshape(n_rows * nb, B)
    w = work[: n_rows * width].reshape(B, len(flat))
    for i in range(0, len(flat), 64):
        w[:, i : i + 64] = flat[i : i + 64].T
    w = w.reshape(B, n_rows, nb)
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
    return u[:, :n]


def _autocovariance_drive(model, l, max_lag):
    """Multipole l's trimmed AR row and the input from which a zero-state AR
    recursion with it gives C_l(0..max_lag) / C_{l;Z} (see
    ``model_autocovariance_table``). The caller has checked that l is causal."""
    ar = np.trim_zeros(model.ar[l], "b")
    p, q = len(ar), len(model.ma[l])
    phi_poly = np.r_[1.0, -ar]
    psi = arma_filter(model.ar[l], model.ma[l], np.eye(1, q + 1)[0])  # psi_0..q
    # r_k is entry q + k of theta convolved with psi reversed
    r = np.convolve(np.r_[1.0, model.ma[l]], psi[::-1])[q:]
    k = np.arange(p + 1)
    system = np.zeros((p + 1, p + 1))
    np.add.at(system, (k[:, None], np.abs(k[:, None] - k)), phi_poly)
    rhs = np.r_[r, np.zeros(p)][: p + 1]
    try:
        head = np.linalg.solve(system, rhs)
        # the pivot 1 - phi^2 forms by cancellation: refine once, residual in long double
        resid = rhs - system.astype(np.longdouble) @ head
        head += np.linalg.solve(system, resid.astype(float))
        if not head[0] > 0.0:  # no causal row has C(0) <= 0
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:  # a root too near the circle for float64
        raise ValueError("AR polynomial vanishes on the unit circle") from None
    # the recursion's input: the left-hand sides, kept to their nonnegative lags
    e = np.r_[np.convolve(head, phi_poly)[: p + 1], r[p + 1 :]]
    return ar, np.r_[e, np.zeros(max_lag + 1)][: max_lag + 1]


def model_autocovariance(model, l, max_lag):
    """Exact C_l(0..max_lag) of multipole l of a causal model: row l of
    ``model_autocovariance_table``, bit for bit."""
    return model_autocovariance_table(model, max_lag)[l]


def model_autocovariance_table(model, max_lag):
    """Exact C_l(0..max_lag) for every l of a causal model, an
    ``(L+1, max_lag+1)`` array (Brockwell & Davis 3.3, method 3).

    With phi_0 = -1 and theta_0 = 1, C(k) - sum_i phi_i C(k-i) = C_{l;Z} r_k,
    where r_k = sum_{j>=k} theta_j psi_{j-k} is zero for k > q. The equations
    for k = 0..p, with C(-k) = C(k), are a (p+1) x (p+1) system for C(0..p)
    that needs only psi_0..psi_q; the later lags run the same equations as a
    zero-state AR recursion down the lag axis. Nothing is truncated, and the
    solve does not depend on max_lag, so the lags are prefix-stable bit for
    bit.

    Causality is decided once per distinct AR row and the solve once per
    distinct ``(ar, ma)`` row (``_distinct_rows``), at C_{l;Z} = 1, with the
    noise power applied last. Solved rows of one trimmed AR order are the
    columns of one recursion, so its per-lag steps are paid once per order.
    """
    _require_causal(model)
    owner, reps = _distinct_rows(model.ar, model.ma)
    drives = [_autocovariance_drive(model, l, max_lag) for l in reps]
    group, _ = _distinct_rows([len(ar) for ar, _ in drives])  # by AR order
    lags = np.empty((len(reps), max_lag + 1))
    for k in range(group.max() + 1):
        ks = np.flatnonzero(group == k)
        # (lag or AR term, drive): one column per drive
        ar, w = (np.stack(c, axis=1) for c in zip(*[drives[i] for i in ks]))
        _ar_in_blocks(ar, w, len(w))
        lags[ks] = w.T
    return model.noise[:, None] * lags[owner]
