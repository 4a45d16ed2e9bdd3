"""The approximation theorem, measured: certified orders against eps.

One multipole (L = 0), the default order cap, both kinds. Each entry is the
order that ``approximate_operator`` certifies at eps = 1e-1 .. 1e-5; None
marks a FAILed certificate, which is not pinned. A passing entry must keep
passing at no larger an order, so a change that lowers an order leaves this
test green (and updates README's table), and one that raises an order fails
it. The classes follow the classical rates: an analytic spectrum needs
orders like log(1/eps), a kink about 1/eps terms, and a spectral zero slows
the AR fits.
"""

import warnings

import numpy as np
import pytest

from spharma.approx import approximate_operator
from spharma.model import SpharmaModel
from spharma.spectral import SpectralEigenvalues, frequency_grid

EPS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
LAM = frequency_grid()


def _tabulated(f):
    return SpectralEigenvalues.tabulated(LAM, f[None])


TARGETS = {
    "arma11": SpharmaModel.uniform(0, ar=[0.9], ma=[0.4]).spectral(),
    "gauss": _tabulated(np.exp(-LAM**2 / 0.5) + 0.01),
    "kink": _tabulated(np.abs(LAM) + 0.1),
    "square": _tabulated(LAM**2),
    "cos2": _tabulated(np.maximum(np.cos(LAM), 0.0) ** 2),
}

ATLAS = {
    ("arma11", "ar"): (8, 16, 16, 16, 32),
    ("arma11", "ma"): (128, 128, 128, 256, 256),
    ("gauss", "ar"): (4, 16, 16, 32, 32),
    ("gauss", "ma"): (8, 8, 8, 16, 16),
    ("kink", "ar"): (32, 256, None, None, None),
    ("kink", "ma"): (16, 256, None, None, None),
    ("square", "ar"): (256, None, None, None, None),
    ("square", "ma"): (128, None, None, None, None),
    ("cos2", "ar"): (None, None, None, None, None),
    ("cos2", "ma"): (8, 16, 64, 128, None),
}


@pytest.mark.parametrize("name, kind", list(ATLAS))
def test_certified_orders_do_not_grow(name, kind):
    for eps, recorded in zip(EPS, ATLAS[name, kind]):
        if recorded is None:
            continue
        with warnings.catch_warnings():
            # a tabulated factor that its grid does not resolve warns
            warnings.simplefilter("ignore", UserWarning)
            _, cert = approximate_operator(TARGETS[name], eps, kind)
        assert cert["passed"], (eps, cert["per_multipole"])
        assert cert["order"] <= recorded, (eps, cert["order"])
