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
    ("arma11", "ar"): (8, 10, 13, 15, 18),
    ("arma11", "ma"): (67, 89, 111, 133, 155),
    ("gauss", "ar"): (4, 10, 14, 20, 25),
    ("gauss", "ma"): (5, 6, 8, 9, 10),
    ("kink", "ar"): (21, 149, None, None, None),
    ("kink", "ma"): (11, 125, None, None, None),
    ("square", "ar"): (189, None, None, None, None),
    ("square", "ma"): (65, None, None, None, None),
    ("cos2", "ar"): (None, None, None, None, None),
    ("cos2", "ma"): (3, 12, 37, 120, None),
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
