"""The benchmark's three workloads: inputs, CLI commands and output checks.

Each workload is a list of timed ``spharma`` CLI steps. A step's check runs
on its first execution and compares the outputs with references from
``refs``; later executions must reproduce the first one's bytes. ``smoke``
shrinks every size and keeps the same steps, names and checks.

Why these workloads:

- ``field`` is wide and short (L=128, n=64, eight snapshot CSVs). Per-stream
  RNG set-up, the Legendre table, ``sht_inverse`` and CSV writing dominate;
  ``model`` and ``approx`` do almost nothing.
- ``series`` is long and narrow (L=16, n=32768, a 76 MB series written and
  read back by ``spectrum`` and ``verify``). Bulk draws and ``lfilter``,
  series I/O, the moment estimator and the Cramer band split dominate.
- ``fit`` is certified approximation with no RNG and no SHT: the psi loop of
  ``spectrum --model``, the innovations recursion of ``approximate --kind
  ma`` and, as its control, ``approximate --kind ar``.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import refs

NAMES = ("field", "series", "fit")

FULL = {
    "field": {"L": 128, "n": 64, "snapshots": list(range(0, 64, 8))},
    "series": {"L": 16, "n": 32768, "max_lag": 100, "bands": 8},
    "fit": {"spec_L": 32, "spec_max_lag": 200, "ma_L": 6, "ar_L": 16},
}
SMOKE = {
    "field": {"L": 8, "n": 8, "snapshots": [0, 4]},
    "series": {"L": 4, "n": 2048, "max_lag": 20, "bands": 4},
    "fit": {"spec_L": 4, "spec_max_lag": 20, "ma_L": 2, "ar_L": 2},
}

CHECKED_LAGS = 6          # series: C_l(0..5) against the model
SERIES_Z_MAX = 6.0        # ... within this many batch-means standard errors
CLOSED_FORM_RTOL = 1e-9   # fit: spectrum --model against closed-form ARMA(1,1)
FINE_GRID = 4 * 4096      # fit: certificate totals recomputed on a 4x grid
SNAPSHOT_NODES = 4        # field: nodes per snapshot checked by direct synthesis


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Step:
    """One CLI command; ``metric`` names its wall time."""

    metric: str
    args: list
    out: str | None         # output directory, None for stdout only
    check: Callable[["Step", str], None]
    digest: str | None = field(default=None, repr=False)


@dataclass
class Workload:
    name: str
    steps: list
    probe: Step | None = None


def _field(sz, seed, work):
    L, n = sz["L"], sz["n"]
    model = os.path.join(work, "field_model.json")
    refs.write_model(model, L, lambda l: [0.5, -0.2], lambda l: [0.3],
                     lambda l: 1.0)
    out = os.path.join(work, "field_out")

    def check(step, stdout):
        values = refs.read_series(os.path.join(out, "series.bin"), L)
        expect(values.shape[1] == n, "series.bin has the wrong length")
        rng = np.random.default_rng(seed)
        for t in sz["snapshots"]:
            table = np.loadtxt(os.path.join(out, f"field_t{t}.csv"),
                               delimiter=",", skiprows=1, ndmin=2)
            expect(table.shape == ((L + 1) * (2 * L + 1), 3),
                   f"field_t{t}.csv does not cover the grid")
            scale = np.abs(table[:, 2]).max()
            for row in rng.choice(len(table), SNAPSHOT_NODES, replace=False):
                colat, lon, value = table[row]
                direct = refs.real_harmonics(L, colat, lon) @ values[:, t]
                expect(abs(direct - value) <= 1e-8 * scale,
                       f"field_t{t}.csv node {row}: {value!r} vs direct "
                       f"synthesis {direct!r}")

    snaps = ",".join(str(t) for t in sz["snapshots"])
    return Workload("field", [Step(
        "simulate_s", ["simulate", "--model", model, "--n", str(n), "--seed",
                       str(seed), "--snapshots", snaps, "--out", out],
        out, check)])


def _series(sz, seed, work):
    L, n = sz["L"], sz["n"]
    ar = lambda l: [0.6 - 0.01 * l, -0.2]
    ma = lambda l: [0.3]
    noise = lambda l: 2.0 / (1 + l)
    model = os.path.join(work, "series_model.json")
    refs.write_model(model, L, ar, ma, noise)
    sim_out = os.path.join(work, "series_out")
    spec_out = os.path.join(work, "series_spectrum")
    series_bin = os.path.join(sim_out, "series.bin")

    def check_simulate(step, stdout):
        expect(os.path.getsize(series_bin) == (L + 1) ** 2 * n * 8,
               "series.bin has the wrong size")

    def check_spectrum(step, stdout):
        table = np.loadtxt(os.path.join(spec_out, "autocovariance.csv"),
                           delimiter=",", skiprows=1, ndmin=2)
        expect(table.shape == ((L + 1) * (sz["max_lag"] + 1), 3),
               "autocovariance.csv has the wrong shape")
        got = table[:, 2].reshape(L + 1, sz["max_lag"] + 1)
        values = refs.read_series(series_bin, L)
        worst = 0.0
        for l in range(L + 1):
            block = values[l * l : (l + 1) ** 2]
            exact = refs.psi_autocov(ar(l), ma(l), noise(l), CHECKED_LAGS - 1)
            for t in range(CHECKED_LAGS):
                prods = (block[:, t:] * block[:, : n - t]).mean(axis=0)
                estimate = prods.mean()
                expect(abs(got[l, t] - estimate) <= 1e-10 * abs(got[l, 0]),
                       f"C_{l}({t}) = {got[l, t]!r} is not the moment "
                       f"estimate {estimate!r}")
                z = abs(estimate - exact[t]) / refs.batch_means_se(prods)
                worst = max(worst, z)
        expect(worst <= SERIES_Z_MAX,
               f"spectrum is {worst:.2f} standard errors from the model")

    def check_verify(step, stdout):
        lines = [ln for ln in stdout.splitlines() if ": pass " in ln]
        expect(len(lines) == 4, f"verify did not pass all four checks: {stdout!r}")

    return Workload("series", [
        Step("simulate_s", ["simulate", "--model", model, "--n", str(n),
                            "--seed", str(seed), "--out", sim_out],
             sim_out, check_simulate),
        Step("spectrum_s", ["spectrum", "--series", series_bin, "--max-lag",
                            str(sz["max_lag"]), "--out", spec_out],
             spec_out, check_spectrum),
        Step("verify_s", ["verify", "--series", series_bin, "--bands",
                          str(sz["bands"])], None, check_verify),
    ])


def _check_certificate(target_path, out):
    def check(step, stdout):
        with open(os.path.join(out, "certificate.json")) as fh:
            cert = json.load(fh)
        expect(cert["passed"] is True, "certificate did not pass")
        expect(cert["norm"] == "l2_kernel", "unexpected certificate norm")
        fit = refs.read_model(os.path.join(out, "fitted_model.json"))
        target = refs.read_model(target_path)
        total = refs.l2_total(fit, target, FINE_GRID) + cert["tail_error"]
        expect(total <= cert["epsilon"],
               f"total {total:.4g} on a {FINE_GRID}-panel grid exceeds eps "
               f"{cert['epsilon']}")
    return check


def _fit(sz, seed, work):
    del seed  # the fit workload draws no random numbers
    spec_L, max_lag = sz["spec_L"], sz["spec_max_lag"]
    phi = lambda l: 0.9995 - 0.0005 * l
    spec_noise = lambda l: 1.0 / (1 + l) ** 2
    spec_model = os.path.join(work, "fit_spectrum_model.json")
    refs.write_model(spec_model, spec_L, lambda l: [phi(l)], lambda l: [0.3],
                     spec_noise)
    spec_out = os.path.join(work, "fit_spectrum")

    def check_spectrum(step, stdout):
        table = np.loadtxt(os.path.join(spec_out, "autocovariance.csv"),
                           delimiter=",", skiprows=1, ndmin=2)
        got = table[:, 2].reshape(spec_L + 1, max_lag + 1)
        for l in range(spec_L + 1):
            exact = refs.arma11_autocov(phi(l), 0.3, spec_noise(l), max_lag)
            err = np.abs(got[l] - exact) / np.abs(exact)
            expect(err.max() <= CLOSED_FORM_RTOL,
                   f"C_{l} is {err.max():.3g} from the closed form")

    ma_target = os.path.join(work, "fit_ma_target.json")
    refs.write_model(ma_target, sz["ma_L"], lambda l: [0.75 * (1 - 0.3 * l / 7)],
                     lambda l: [], lambda l: (1 + l) ** -1.5)
    ar_target = os.path.join(work, "fit_ar_target.json")
    refs.write_model(ar_target, sz["ar_L"], lambda l: [0.3],
                     lambda l: [-0.9 * (1 - 0.2 * l / 17)],
                     lambda l: 1.0 / (1 + l) ** 2)
    # known defect: psi_1 = 1.2 > 1 makes the order-1 MA fit non-invertible
    probe_target = os.path.join(work, "fit_probe_target.json")
    refs.write_model(probe_target, 2, lambda l: [0.8], lambda l: [0.4],
                     lambda l: 1.0)

    def approximate(metric, kind, eps, target):
        out = os.path.join(work, f"fit_{metric}")
        return Step(metric, ["approximate", "--kind", kind, "--eps", eps,
                             "--target", target, "--out", out],
                    out, _check_certificate(target, out))

    return Workload("fit", [
        Step("spectrum_s", ["spectrum", "--model", spec_model, "--max-lag",
                            str(max_lag), "--out", spec_out],
             spec_out, check_spectrum),
        approximate("approximate_ma_s", "ma", "1e-2", ma_target),
        approximate("approximate_ar_s", "ar", "1e-3", ar_target),
    ], probe=approximate("probe", "ma", "0.01", probe_target))


def build(name, seed, work, smoke=False):
    """Write the workload's inputs under ``work`` and return its steps."""
    sizes = (SMOKE if smoke else FULL)[name]
    return {"field": _field, "series": _series, "fit": _fit}[name](
        sizes, seed, work)


def _outputs(step):
    return sorted(glob.glob(os.path.join(step.out, "*"))) if step.out else []


def flush_outputs(step):
    """fsync a step's outputs, so their writeback lands in no timed command."""
    for path in _outputs(step):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def output_digest(step, stdout):
    """Digest of a step's stdout and output files, to compare executions."""
    h = hashlib.sha256(stdout.rstrip().encode())
    for path in _outputs(step):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 22), b""):
                h.update(chunk)
    return h.hexdigest()
