"""Reference values the benchmark checks spharma's outputs against.

Everything here uses numpy and scipy only, never spharma, so a defect in
the package cannot hide in its own reference.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import signal, special


def write_model(path, band_limit, ar, ma, noise):
    """Write a spharma model JSON; ``ar``, ``ma`` and ``noise`` map l to values."""
    entries = [{"l": l, "ar": [float(x) for x in ar(l)],
                "ma": [float(x) for x in ma(l)], "noise": float(noise(l))}
               for l in range(band_limit + 1)]
    with open(path, "w") as fh:
        json.dump({"schema": 1, "band_limit": band_limit, "entries": entries}, fh)


def read_model(path):
    """(ar, ma, noise) lists indexed by l from a spharma model JSON."""
    with open(path) as fh:
        entries = sorted(json.load(fh)["entries"], key=lambda e: e["l"])
    return ([np.asarray(e["ar"], float) for e in entries],
            [np.asarray(e["ma"], float) for e in entries],
            [float(e["noise"]) for e in entries])


def psi_autocov(ar, ma, noise, max_lag, n_psi=4000):
    """C(0..max_lag) = noise * sum_j psi_j psi_{j+t}, psi by impulse response."""
    impulse = np.zeros(n_psi + max_lag + 1)
    impulse[0] = 1.0
    psi = signal.lfilter(np.r_[1.0, ma], np.r_[1.0, -np.asarray(ar)], impulse)
    if abs(psi[-max_lag - 1:]).max() > 1e-15 * abs(psi).max():
        raise ValueError("psi expansion too short for this model")
    head = psi[: n_psi + 1]
    return noise * np.array([head @ psi[t : t + n_psi + 1]
                             for t in range(max_lag + 1)])


def arma11_autocov(phi, theta, noise, max_lag):
    """Closed-form C(0..max_lag) of the ARMA(1,1) x_t = phi x_{t-1} + z_t + theta z_{t-1}."""
    denom = 1.0 - phi * phi
    c0 = noise * (1.0 + 2.0 * phi * theta + theta * theta) / denom
    c1 = noise * (1.0 + phi * theta) * (phi + theta) / denom
    t = np.arange(1, max_lag + 1)
    return np.r_[c0, c1 * phi ** (t - 1)]


def rational_density(ar, ma, noise, lams):
    """noise/(2 pi) |theta(e^{i lam})|^2 / |phi(e^{i lam})|^2."""
    z = np.exp(1j * lams)
    num = np.polyval(np.r_[1.0, ma][::-1], z)
    den = np.polyval(np.r_[1.0, -np.asarray(ar)][::-1], z)
    return noise / (2.0 * math.pi) * np.abs(num) ** 2 / np.abs(den) ** 2


def l2_total(fit, target, n_intervals):
    """sup over a uniform grid of sqrt(sum_l (2l+1) (f_fit - f_target)^2)."""
    lams = np.linspace(-math.pi, math.pi, n_intervals + 1)
    acc = np.zeros_like(lams)
    for l, (fa, fm, fn, ta, tm, tn) in enumerate(zip(*fit, *target)):
        diff = rational_density(fa, fm, fn, lams) - rational_density(ta, tm, tn, lams)
        acc += (2 * l + 1) * diff**2
    return float(np.sqrt(acc).max())


def batch_means_se(x, n_batches=64):
    """Standard error of the mean of a correlated sequence by batch means."""
    usable = (len(x) // n_batches) * n_batches
    means = x[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


def read_series(path, band_limit):
    """Raw series file as (rows, n) with rows l*(l+1)+m."""
    raw = np.fromfile(path, dtype="<f8")
    return raw.reshape((band_limit + 1) ** 2, -1)


def real_harmonics(band_limit, colat, lon):
    """Real Y_{l,m} without the Condon-Shortley phase, in series row order.

    Converted from scipy's complex harmonics, which carry the phase:
    Y_{l,m} = sqrt(2) (-1)^m Re Y^c_{l,m} and Y_{l,-m} = sqrt(2) (-1)^m
    Im Y^c_{l,m} for m > 0.
    """
    ls = np.concatenate([np.full(2 * l + 1, l) for l in range(band_limit + 1)])
    ms = np.concatenate([np.arange(-l, l + 1) for l in range(band_limit + 1)])
    yc = special.sph_harm_y(ls, np.abs(ms), colat, lon)
    sign = np.where(ms % 2 == 0, 1.0, -1.0) * math.sqrt(2.0)
    return np.where(ms == 0, yc.real,
                    np.where(ms > 0, sign * yc.real, sign * yc.imag))
