"""Command-line front end: simulate, spectrum, approximate, verify.

Exit codes: 0 ok, 2 invalid input (sizes too large to allocate included),
3 I/O failure, 4 certificate not passed, 5 verification failure. All JSON
outputs carry ``"schema": 1``, and all but
``approximate``'s ``fitted_model.json`` (a plain model file) carry the hash
of the invoking configuration, so reruns with identical configs are
byte-stable and comparable.

Every input file is read by ``_read``, so a missing or invalid one exits 2.
``verify`` calls ``spharma.verify``'s checks as ``_check_*``, names perfbench traces.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import approx, simulate, spectral, sphere
from .model import SpharmaModel, _require_causal, canonical_hash
from .verify import (check_ckl as _check_ckl, check_cramer as _check_cramer,
                     check_isotropy as _check_isotropy,
                     check_stationarity as _check_stationarity)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5

def _config_hash(args, command):
    # identifies the computation, not where its outputs land
    payload = {k: v for k, v in sorted(vars(args).items())
               if k not in ("func", "out")}
    payload["command"] = command
    return canonical_hash(payload)


def _read(reader, path, what):
    """``reader(path)``, its failures as one-line ``ValueError``s (exit 2)."""
    try:
        return reader(path)
    except FileNotFoundError as exc:
        raise ValueError(f"{what} file not found: {exc.filename}") from exc
    except KeyError as exc:
        raise ValueError(f"invalid {what}: missing key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ValueError(f"invalid {what}: {exc}") from exc


def _truncate_model(model, lmax):
    if lmax is None or lmax >= model.band_limit:
        return model
    if lmax < 0:
        raise ValueError("lmax must be nonnegative")
    return SpharmaModel(lmax, model.ar[: lmax + 1], model.ma[: lmax + 1],
                        model.noise[: lmax + 1])


def _truncate_series(series, lmax):
    if lmax is None or lmax >= series.band_limit:
        return series
    if lmax < 0:
        raise ValueError("lmax must be nonnegative")
    rows = (lmax + 1) ** 2
    return simulate.HarmonicCoefficientSeries(lmax, series.values[:rows],
                                              dict(series.provenance))


def cmd_simulate(args):
    model = _truncate_model(_read(SpharmaModel.load, args.model, "model"),
                            args.lmax)
    for t in args.snapshots or ():
        if not (0 <= t < args.n):
            raise ValueError(f"snapshot index {t} out of range")
    config = simulate.SimulationConfig(seed=args.seed, n=args.n,
                                       burn_in=args.burn_in)
    # a snapshot, config or model refusal comes before the first stdout line
    report = _require_causal(model)
    print(f"causality: min root modulus {report.min_root_modulus:.10g}")
    series = simulate.simulate_spharma(model, config)
    series.provenance["config_hash"] = _config_hash(args, "simulate")
    os.makedirs(args.out, exist_ok=True)
    series.save(os.path.join(args.out, "series.bin"))
    if args.snapshots:
        grid = sphere.build_grid(model.band_limit)
        snaps = simulate.synthesize_field(series, grid, args.snapshots)
        for t, snap in zip(args.snapshots, snaps):
            snap.to_csv(os.path.join(args.out, f"field_t{t}.csv"))
    print(f"wrote series ({series.n} steps, L={series.band_limit}) to {args.out}")
    return EXIT_OK


def cmd_spectrum(args):
    if args.max_lag < 0:
        raise ValueError("max lag must be nonnegative")
    if args.n_lambda < 1:
        raise ValueError("n-lambda must be at least 1")
    if args.model:
        model = _read(SpharmaModel.load, args.model, "model")
        spec = _truncate_model(model, args.lmax).spectral()
        lags = spectral.autocov_table(spec, args.max_lag)
        divisors = {}
    else:
        series = _read(simulate.HarmonicCoefficientSeries.load, args.series,
                       "series")
        series = _truncate_series(series, args.lmax)
        acv = simulate.empirical_autocov(series, args.max_lag)
        # the 1/n lags under the Bartlett window of width max_lag: a Fejer-
        # smoothed periodogram, nonnegative at every lambda. The lag table
        # written keeps the n - t divisor
        t = np.arange(args.max_lag + 1)
        lags = acv * (series.n / (series.n - t))
        acv *= 1.0 - t / (args.max_lag + 1)
        spec = spectral.spectral_from_autocov(acv)
        divisors = {"series_n": series.n, "lag_divisor": "n - t",
                    "density_lag_divisor": "n", "density_window": "bartlett"}

    # every table is computed before the output directory is made, so a
    # failure leaves no partial directory behind
    lam = spectral.frequency_grid(args.n_lambda)
    density = spec.values(lam)
    trace = spectral.trace_norm(density, spec.tail_bound)
    lams = [repr(x) for x in lam.tolist()]

    os.makedirs(args.out, exist_ok=True)
    chash = _config_hash(args, "spectrum")
    L = spec.band_limit
    ls = [str(l) for l in range(L + 1)]
    sphere.write_csv(os.path.join(args.out, "autocovariance.csv"), ["l", "t", "C"],
                     ls, [str(t) for t in range(args.max_lag + 1)], lags)
    sphere.write_csv(os.path.join(args.out, "spectral_density.csv"),
                     ["l", "lambda", "f"], ls, lams, density)
    sphere.write_csv(os.path.join(args.out, "trace_norm.csv"), ["lambda", "trace"],
                     lams, [""], trace[:, None])
    with open(os.path.join(args.out, "spectrum_meta.json"), "w") as fh:
        json.dump({"schema": 1, "config_hash": chash, "band_limit": L,
                   "max_lag": args.max_lag, **divisors}, fh, indent=1)
    print(f"wrote spectrum tables to {args.out}")
    return EXIT_OK


def cmd_approximate(args):
    target = _read(spectral.SpectralEigenvalues.load, args.target,
                   "spectral target")
    norm = "l2_kernel" if args.norm == "l2" else "trace"
    model, cert = approx.approximate_operator(target, args.eps, args.kind,
                                              norm=norm, order_cap=args.order_cap)
    os.makedirs(args.out, exist_ok=True)
    model.save(os.path.join(args.out, "fitted_model.json"))
    cert["config_hash"] = _config_hash(args, "approximate")
    with open(os.path.join(args.out, "certificate.json"), "w") as fh:
        json.dump(cert, fh, indent=1)
    status = "passed" if cert["passed"] else "FAILED"
    print(f"certificate {status}: total_l2={cert['total_l2']:.3e} "
          f"total_trace={cert['total_trace']:.3e} order={cert['order']}")
    return EXIT_OK if cert["passed"] else EXIT_BUDGET


def cmd_verify(args):
    series = _read(simulate.HarmonicCoefficientSeries.load, args.series, "series")
    known = {"stationarity": lambda: _check_stationarity(series),
             "isotropy": lambda: _check_isotropy(series),
             "cramer": lambda: _check_cramer(series, args.bands),
             "ckl": lambda: _check_ckl(series)}
    names = list(known) if args.checks is None else args.checks.split(",")
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"unknown check {unknown[0]!r}")
    results = [known[name]() for name in names]
    report = {"schema": 1, "config_hash": _config_hash(args, "verify"),
              "checks": results, "passed": all(r["passed"] for r in results)}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "verify_report.json"), "w") as fh:
            json.dump(report, fh, indent=1)
    for r in results:
        if r.get("skipped"):
            print(f"{r['name']}: skipped (needs L >= 1)")
        else:
            print(f"{r['name']}: {'pass' if r['passed'] else 'FAIL'} "
                  f"(stat {r['statistic']:.4g} vs {r['threshold']:.4g})")
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def _time_indices(text):
    """``--snapshots``: comma-separated integer time indices."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integer time indices, got {text!r}") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spharma",
        description="Isotropic-stationary sphere-cross-time random fields: "
                    "simulation, spectra and ARMA approximation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a SPHARMA model")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    p.add_argument("--snapshots", type=_time_indices, default=None,
                   help="comma-separated time indices to render")
    p.add_argument("--lmax", type=int, default=None,
                   help="restrict to multipoles l <= lmax")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectrum", help="autocovariance/spectral tables")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model")
    src.add_argument("--series")
    p.add_argument("--max-lag", type=int, default=50, dest="max_lag")
    p.add_argument("--n-lambda", type=int, default=512, dest="n_lambda")
    p.add_argument("--lmax", type=int, default=None,
                   help="restrict to multipoles l <= lmax")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("approximate", help="fit an MA/AR operator approximation")
    p.add_argument("--target", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--kind", choices=["ma", "ar"], required=True)
    p.add_argument("--norm", choices=["l2", "trace"], default="l2")
    p.add_argument("--order-cap", type=int, default=approx.DEFAULT_ORDER_CAP,
                   dest="order_cap")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("verify", help="second-order diagnostics on a series")
    p.add_argument("--series", required=True)
    p.add_argument("--bands", type=int, default=8)
    p.add_argument("--checks", default=None,
                   help="comma list from stationarity,isotropy,cramer,ckl")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"sizes too large to allocate: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
