"""Run one ``spharma`` CLI command with span wrappers around each layer.

Usage: ``python traced_cli.py SPANS_JSON -- <spharma cli arguments>``

The wrappers replace module attributes and class methods of the spharma
package before ``spharma.cli.main`` runs, including the names that one
module imported from another, so every call into a layer goes through a
wrapper. Spans live in memory (name, start, end, parent, size) and are
written to SPANS_JSON when the command has returned; SPANS_JSON.exit then
gets the time at which the process starts to shut down. After the command,
outside its spans, two extra calls are timed for the benchmark:

- a second ``sht_inverse`` on the grid the command used, so the Legendre
  table time is the first call minus the second;
- ``simulate_white_noise`` at the command's size, seed and burn-in.

Times are ``time.perf_counter`` readings, which on Linux share one clock
with the parent benchmark process.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

T_START = time.perf_counter()


class Recorder:
    """In-memory spans and counters of one process (single-threaded)."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, size]
        self.stack = []
        self.counters = {}   # name -> [calls, size sum, size max]
        self.last_args = {}  # span name -> (args, kwargs, result) of last call

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name, size):
        c = self.counters.setdefault(name, [0, 0, 0])
        c[0] += 1
        c[1] += size
        c[2] = max(c[2], size)


def _file_size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _spanned(rec, name, fn, size=None, keep=False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if size is not None:
            rec.spans[idx][4] = size(args, kwargs, out)
        if keep:
            rec.last_args[name] = (args, kwargs, out)
        return out

    return wrapper


def _counted(rec, name, fn, size):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name, size(args, kwargs))
        return fn(*args, **kwargs)

    return wrapper


def _replace_everywhere(modules, original, wrapped):
    """Rebind every module attribute that names ``original``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def _cramer_bytes(args, kwargs, out):
    # band components (n_bands, rows, n/2) float64 plus the complex spectra
    series, n_bands = args[0], args[1]
    rows, n = series.values.shape
    lo, hi = n // 4, 3 * n // 4
    return n_bands * rows * (hi - lo) * 8 + rows * n * 16


def _simulate_size(args, kwargs, out):
    model, config = args[0], args[1]
    series = out[0] if isinstance(out, tuple) else out
    streams = series.values.shape[0]
    drawn = streams * (config.n + int(series.provenance["burn_in"]))
    return {"L": model.band_limit, "n": config.n, "streams": streams,
            "samples": drawn}


def install(rec):
    """Wrap the layer entry points of the imported spharma package."""
    from spharma import approx, cli, model, simulate, spectral, sphere

    modules = [approx, cli, model, simulate, spectral, sphere]
    # (span name, module, attribute, size function or None, keep last call)
    functions = [
        ("cli.simulate", cli, "cmd_simulate", None, False),
        ("cli.spectrum", cli, "cmd_spectrum", None, False),
        ("cli.approximate", cli, "cmd_approximate", None, False),
        ("cli.verify", cli, "cmd_verify", None, False),
        ("cli.verify.stationarity", cli, "_check_stationarity", None, False),
        ("cli.verify.isotropy", cli, "_check_isotropy", None, False),
        ("cli.verify.cramer", cli, "_check_cramer", None, False),
        ("cli.verify.ckl", cli, "_check_ckl", None, False),
        ("sphere.build_grid", sphere, "build_grid", None, False),
        ("sphere.sht_inverse", sphere, "sht_inverse",
         lambda a, k, o: len(a[0]) - 1, True),
        ("sphere.harmonic_values_at", sphere, "harmonic_values_at", None, False),
        ("simulate.simulate_spharma", simulate, "simulate_spharma",
         _simulate_size, True),
        ("simulate.synthesize_field", simulate, "synthesize_field", None, False),
        ("simulate.empirical_autocov", simulate, "empirical_autocov",
         lambda a, k, o: a[1] + 1, False),
        ("simulate.cramer", simulate, "verify_cramer_orthogonality",
         _cramer_bytes, False),
        ("simulate.batch_means_se", simulate, "batch_means_se", None, False),
        ("spectral.spectral_from_autocov", spectral, "spectral_from_autocov",
         None, False),
        ("spectral.operator_trace_norm", spectral, "operator_trace_norm",
         None, False),
        ("model.check_causal", model, "check_causal", None, False),
        ("model.model_autocovariance_table", model,
         "model_autocovariance_table", None, False),
        ("model.model_autocovariance", model, "model_autocovariance",
         None, False),
        ("model.psi_coefficients", model, "psi_coefficients",
         lambda a, k, o: a[2], False),
        ("approx.approximate_operator", approx, "approximate_operator",
         lambda a, k, o: a[0].band_limit + 1, False),
        # the fit target is C(0..depth), so its length gives the depth
        ("approx.fit_ma", approx, "fit_ma", lambda a, k, o: len(a[0]) - 1, False),
        ("approx.fit_ar", approx, "fit_ar", lambda a, k, o: a[1], False),
    ]
    for name, mod, attr, size, keep in functions:
        original = getattr(mod, attr)
        _replace_everywhere(modules, original,
                            _spanned(rec, name, original, size, keep))

    # recursions inside a fit are counted, not spanned, so the fit's self
    # time keeps the recursion it runs
    counted = [
        ("approx.innovations", approx, "_innovations_last_row",
         lambda a, k: a[1]),
        ("approx.durbin_levinson", approx, "durbin_levinson",
         lambda a, k: a[1]),
    ]
    for name, mod, attr, size in counted:
        original = getattr(mod, attr)
        _replace_everywhere(modules, original,
                            _counted(rec, name, original, size))

    methods = [
        ("spectral.values", spectral.SpectralEigenvalues, "values",
         lambda a, k, o: int(o.size)),
        ("simulate.series_save", simulate.HarmonicCoefficientSeries, "save",
         lambda a, k, o: _file_size(str(a[1]))),
        ("sphere.snapshot_csv", sphere.FieldSnapshot, "to_csv",
         lambda a, k, o: _file_size(str(a[1]))),
    ]
    for name, cls, attr, size in methods:
        setattr(cls, attr, _spanned(rec, name, getattr(cls, attr), size))
    load = simulate.HarmonicCoefficientSeries.__dict__["load"].__func__
    simulate.HarmonicCoefficientSeries.load = classmethod(
        _spanned(rec, "simulate.series_load", load))


def _extra_calls(rec):
    """Out-of-command calls whose durations the benchmark subtracts or reports."""
    from spharma import simulate, sphere

    extras = {}
    if "sphere.sht_inverse" in rec.last_args:
        args, kwargs, _ = rec.last_args["sphere.sht_inverse"]
        sht = sphere.sht_inverse.__wrapped__
        t0 = time.perf_counter()
        sht(*args, **kwargs)
        extras["sht_inverse_cached_s"] = time.perf_counter() - t0
        grid = args[1]
        extras["legendre_table_bytes"] = (
            (grid.band_limit + 1) ** 2 * grid.n_lat * 8)
    if "simulate.simulate_spharma" in rec.last_args:
        (model, config, *_), _, out = rec.last_args["simulate.simulate_spharma"]
        series = out[0] if isinstance(out, tuple) else out
        noise_cfg = simulate.SimulationConfig(
            seed=config.seed, n=config.n,
            burn_in=int(series.provenance["burn_in"]))
        t0 = time.perf_counter()
        simulate.simulate_white_noise(model.noise, noise_cfg)
        extras["noise_s"] = time.perf_counter() - t0
    return extras


def main(argv):
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- <cli arguments>")
    rec = Recorder()
    with rec.span("import"):
        import spharma.cli

        install(rec)
    code = 1
    try:
        with rec.span("cli.main"):
            code = spharma.cli.main(cli_args)
    finally:
        post_start = time.perf_counter()
        extras = _extra_calls(rec) if code == 0 else {}
        with open(spans_path, "w") as fh:
            json.dump({"t_start": T_START, "post_start": post_start,
                       "post_end": time.perf_counter(), "exit_code": code,
                       "spans": rec.spans, "counters": rec.counters,
                       "extras": extras}, fh)
        # when interpreter shutdown starts, for the benchmark's coverage figure
        with open(spans_path + ".exit", "w") as fh:
            fh.write(repr(time.perf_counter()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
