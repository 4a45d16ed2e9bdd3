"""Command-line front end: simulate, spectrum, approximate, verify.

Exit codes: 0 ok, 2 invalid input (sizes too large to allocate included),
3 I/O failure, 4 certificate not passed, 5 verification failure. All JSON
outputs carry ``"schema": 1``, and all but
``approximate``'s ``fitted_model.json`` (a plain model file) carry the hash
of the invoking configuration, so reruns with identical configs are
byte-stable and comparable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import approx, simulate, spectral, sphere
from .model import SpharmaModel, canonical_hash, check_causal

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5

# verify: each check passes while its statistic is below its z_max
_STATIONARITY_WINDOWS = 8
_STATIONARITY_Z_MAX = 4.0
_ISOTROPY_Z_MAX = 5.0
_CKL_Z_MAX = 4.0
_CKL_NODE = (1.1, 2.4)  # ckl: (colat, lon) of the node the error is taken at


def _config_hash(args, command):
    # identifies the computation, not where its outputs land
    payload = {k: v for k, v in sorted(vars(args).items())
               if k not in ("func", "out")}
    payload["command"] = command
    return canonical_hash(payload)


def _load_model(path):
    if not os.path.exists(path):
        raise ValueError(f"model file not found: {path}")
    try:
        return SpharmaModel.load(path)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"invalid model JSON: {exc}") from exc


def _load_series(path):
    try:
        return simulate.HarmonicCoefficientSeries.load(path)
    except FileNotFoundError as exc:
        raise ValueError(f"series file not found: {exc.filename}") from exc
    except ValueError as exc:
        raise ValueError(f"invalid series: {exc}") from exc


def _load_target(path):
    """Spectral target: either a spectrum JSON or a model JSON."""
    if not os.path.exists(path):
        raise ValueError(f"target file not found: {path}")
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise TypeError("not a JSON object")
        if "entries" in payload and "form" not in payload:
            return SpharmaModel.from_json(payload).spectral()
        return spectral.SpectralEigenvalues.from_json(payload)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"invalid spectral target: {exc}") from exc


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
    model = _truncate_model(_load_model(args.model), args.lmax)
    report = check_causal(model)
    print(f"causality: min root modulus {report.min_root_modulus:.6g}")
    for t in args.snapshots or ():
        if not (0 <= t < args.n):
            print(f"snapshot index {t} out of range", file=sys.stderr)
            return EXIT_INPUT
    config = simulate.SimulationConfig(seed=args.seed, n=args.n,
                                       burn_in=args.burn_in)
    series = simulate.simulate_spharma(model, config)
    series.provenance["config_hash"] = _config_hash(args, "simulate")
    os.makedirs(args.out, exist_ok=True)
    series.save(os.path.join(args.out, "series.bin"))
    if args.snapshots:
        grid = sphere.build_grid(model.band_limit)
        for t in args.snapshots:
            snap = simulate.synthesize_field(series, grid, t)
            snap.to_csv(os.path.join(args.out, f"field_t{t}.csv"))
    print(f"wrote series ({series.n} steps, L={series.band_limit}) to {args.out}")
    return EXIT_OK


def cmd_spectrum(args):
    if args.max_lag < 0:
        raise ValueError("max lag must be nonnegative")
    if args.n_lambda < 1:
        raise ValueError("n-lambda must be at least 1")
    if args.model:
        spec = _truncate_model(_load_model(args.model), args.lmax).spectral()
        try:
            acv = spectral.autocov_table(spec, args.max_lag)
        except ValueError as exc:
            print(f"cannot evaluate model spectrum: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        series = _truncate_series(_load_series(args.series), args.lmax)
        acv = simulate.empirical_autocov(series, args.max_lag)
        spec = spectral.spectral_from_autocov(acv)

    # every table is computed before the output directory is made, so a
    # failure leaves no partial directory behind
    lam = spectral.frequency_grid(args.n_lambda)
    density = spec.values(lam)
    trace = spectral._trace_row(density, spec.tail_bound)
    lams = [repr(x) for x in lam.tolist()]

    os.makedirs(args.out, exist_ok=True)
    chash = _config_hash(args, "spectrum")
    L = acv.band_limit
    ls = [str(l) for l in range(L + 1)]
    sphere.write_csv(os.path.join(args.out, "autocovariance.csv"), ["l", "t", "C"],
                     ls, [str(t) for t in range(acv.max_lag + 1)], acv.values)
    sphere.write_csv(os.path.join(args.out, "spectral_density.csv"),
                     ["l", "lambda", "f"], ls, lams, density)
    sphere.write_csv(os.path.join(args.out, "trace_norm.csv"), ["lambda", "trace"],
                     lams, [""], trace[:, None])
    with open(os.path.join(args.out, "spectrum_meta.json"), "w") as fh:
        json.dump({"schema": 1, "config_hash": chash, "band_limit": L,
                   "max_lag": acv.max_lag}, fh, indent=1)
    print(f"wrote spectrum tables to {args.out}")
    return EXIT_OK


def cmd_approximate(args):
    target = _load_target(args.target)
    norm = "l2_kernel" if args.norm == "l2" else "trace"
    model, cert = approx.approximate_operator(target, args.eps, args.kind,
                                              norm=norm, order_cap=args.order_cap)
    os.makedirs(args.out, exist_ok=True)
    model.save(os.path.join(args.out, "fitted_model.json"))
    payload = cert.to_json()
    payload["config_hash"] = _config_hash(args, "approximate")
    with open(os.path.join(args.out, "certificate.json"), "w") as fh:
        json.dump(payload, fh, indent=1)
    status = "passed" if cert.passed else "FAILED"
    print(f"certificate {status}: total_l2={cert.total_l2:.3e} "
          f"total_trace={cert.total_trace:.3e} order={cert.order}")
    return EXIT_OK if cert.passed else EXIT_BUDGET


def _check_stationarity(series):
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
    worst = float(max(means))
    return {"name": "stationarity", "statistic": worst,
            "threshold": _STATIONARITY_Z_MAX, "passed": worst < _STATIONARITY_Z_MAX}


def _skipped(name, threshold):
    """A check with nothing to test below L = 1: it passes and says so."""
    return {"name": name, "statistic": 0.0, "threshold": threshold,
            "passed": True, "skipped": True}


def _check_isotropy(series):
    if series.band_limit < 1:
        return _skipped("isotropy", _ISOTROPY_Z_MAX)
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
    return {"name": "isotropy", "statistic": worst,
            "threshold": _ISOTROPY_Z_MAX, "passed": worst < _ISOTROPY_Z_MAX}


def _check_cramer(series, n_bands):
    rep = simulate.verify_cramer_orthogonality(series, n_bands)
    return {"name": "cramer_orthogonality", "statistic": rep.max_abs_correlation,
            "threshold": rep.threshold, "passed": rep.passed}


def _check_ckl(series):
    """Realized vs predicted truncation error two multipoles below the band."""
    L = series.band_limit
    if L < 1:
        return _skipped("ckl_truncation", _CKL_Z_MAX)
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
    return {"name": "ckl_truncation", "statistic": z, "threshold": _CKL_Z_MAX,
            "passed": z < _CKL_Z_MAX}


def cmd_verify(args):
    series = _load_series(args.series)
    known = {"stationarity": lambda: _check_stationarity(series),
             "isotropy": lambda: _check_isotropy(series),
             "cramer": lambda: _check_cramer(series, args.bands),
             "ckl": lambda: _check_ckl(series)}
    names = list(known) if args.checks is None else args.checks.split(",")
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown check {unknown[0]!r}", file=sys.stderr)
        return EXIT_INPUT
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
    p.add_argument("--snapshots", type=lambda s: [int(x) for x in s.split(",")],
                   default=None, help="comma-separated time indices to render")
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
