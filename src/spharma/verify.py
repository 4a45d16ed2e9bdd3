"""The ``verify`` checks of a series, their limits and the pass rule (``_result``).

The estimators a check reads stay in ``simulate``, called through the module
and never imported by name, so a rebound one (``perfbench/traced_cli.py``
rebinds those it times) is the one called.
"""

import math

import numpy as np

from . import simulate, sphere

_STATIONARITY_WINDOWS = 8
_STATIONARITY_Z_MAX = 4.0
_ISOTROPY_Z_MAX = 5.0
_CRAMER_LIMIT = 4.5  # cramer: the limit is _CRAMER_LIMIT / sqrt(n)
_CKL_Z_MAX = 4.0
_CKL_NODE = (1.1, 2.4)  # ckl: (colat, lon) of the node the error is taken at


def _result(name, statistic, threshold):
    """A verify check's record: it passes while its statistic is below its
    threshold. A check with nothing to test below L = 1 adds
    ``"skipped": True`` to the record of a zero statistic."""
    return {"name": name, "statistic": statistic, "threshold": threshold,
            "passed": statistic < threshold}


def check_stationarity(series):
    """Largest z of a time window's mean against 0."""
    # a window's standard error: spread of its stream means, batch means at L = 0
    if series.n < 2 * _STATIONARITY_WINDOWS:
        raise ValueError("stationarity check needs at least "
                         f"{2 * _STATIONARITY_WINDOWS} samples")
    means = []
    for chunk in np.array_split(series.values, _STATIONARITY_WINDOWS, axis=1):
        per_stream = chunk.mean(axis=1)
        if len(per_stream) > 1:
            se = per_stream.std(ddof=1) / math.sqrt(len(per_stream))
        else:
            se = simulate.batch_means_se(chunk[0])
        means.append(abs(per_stream.mean()) / max(se, 1e-300))
    return _result("stationarity", float(max(means)), _STATIONARITY_Z_MAX)


def check_isotropy(series):
    """Largest z of a stream's variance against its multipole's pooled one."""
    if series.band_limit < 1:
        return _result("isotropy", 0.0, _ISOTROPY_Z_MAX) | {"skipped": True}
    worst = 0.0
    L = series.band_limit
    top = np.empty((2 * L + 1, series.n))  # reused by every multipole
    for l in range(1, L + 1):
        squares = np.square(series.block(l), out=top[: 2 * l + 1])
        variances = squares.mean(axis=1)
        ses = simulate.batch_means_se(squares)
        pooled = variances.mean()
        z = np.abs(variances - pooled) / np.maximum(ses, 1e-300)
        worst = max(worst, float(z.max()))
    return _result("isotropy", worst, _ISOTROPY_Z_MAX)


def check_cramer(series, n_bands):
    """Largest correlation of two frequency bands against 4.5 / sqrt(n)."""
    corr = simulate.verify_cramer_orthogonality(series, n_bands)
    return _result("cramer_orthogonality", corr, _CRAMER_LIMIT / math.sqrt(series.n))


def check_ckl(series):
    """Realized vs predicted truncation error two multipoles below the band."""
    L = series.band_limit
    if L < 1:
        return _result("ckl_truncation", 0.0, _CKL_Z_MAX) | {"skipped": True}
    # The truncated expansion keeps the rows of l <= L - 2, so its error is
    # the tail. The predicted variance, sum_{l > L-2} (2l+1) C_hat_l(0) / 4pi,
    # is the tail's sum of squares over 4 pi n: summed row by row, so the
    # tail is not copied, and rounded once.
    rows = (max(0, L - 2) + 1) ** 2
    tail = series.values[rows:]
    predicted = math.fsum((row * row).sum() for row in tail) / (4 * math.pi * series.n)
    err = (sphere.harmonic_values_at(L, *_CKL_NODE)[rows:] @ tail) ** 2
    realized = float(err.mean())
    se = simulate.batch_means_se(err)
    z = abs(realized - predicted) / max(se, 1e-300)
    return _result("ckl_truncation", z, _CKL_Z_MAX)
