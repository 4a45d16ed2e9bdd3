"""Per-layer metrics from the spans of traced commands.

A layer's self time is the duration of its spans minus the part covered by
their child spans. Bypassed layers read 0: a workload that never calls a
layer reports no time and no work for it.
"""

from __future__ import annotations

from collections import defaultdict

# per_layer metric -> span names whose self time it sums
SELF_TIME = {
    "cli.simulate.self_s": ["cli.simulate"],
    "cli.spectrum.self_s": ["cli.spectrum"],
    "cli.approximate.self_s": ["cli.approximate"],
    "cli.verify.self_s": ["cli.verify"],
    "cli.verify.stationarity_s": ["cli.verify.stationarity"],
    "cli.verify.isotropy_s": ["cli.verify.isotropy"],
    "cli.verify.ckl_s": ["cli.verify.ckl"],
    "sphere.snapshot_csv_s": ["sphere.snapshot_csv"],
    "simulate.simulate_spharma_s": ["simulate.simulate_spharma"],
    "simulate.series_save_s": ["simulate.series_save"],
    "simulate.series_load_s": ["simulate.series_load"],
    "simulate.empirical_autocov_s": ["simulate.empirical_autocov"],
    "simulate.cramer_s": ["simulate.cramer"],
    "simulate.batch_means_se_s": ["simulate.batch_means_se"],
    "spectral.values_s": ["spectral.values"],
    "spectral.spectral_from_autocov_s": ["spectral.spectral_from_autocov"],
    "spectral.operator_trace_norm_s": ["spectral.operator_trace_norm"],
    "model.model_autocovariance_s": ["model.model_autocovariance",
                                     "model.model_autocovariance_table"],
    "model.psi_coefficients_s": ["model.psi_coefficients"],
    "model.check_causal_s": ["model.check_causal"],
    "approx.fit_ma_s": ["approx.fit_ma"],
    "approx.fit_ar_s": ["approx.fit_ar"],
    "approx.approximate_operator_s": ["approx.approximate_operator"],
}
CALLS = {
    "sphere.sht_inverse.calls": "sphere.sht_inverse",
    "simulate.batch_means_se.calls": "simulate.batch_means_se",
    "spectral.values.calls": "spectral.values",
    "model.model_autocovariance.calls": "model.model_autocovariance",
    "approx.fit_ma.calls": "approx.fit_ma",
    "approx.fit_ar.calls": "approx.fit_ar",
}
# per_layer metric -> (span name, key of a dict size or None for a number)
SIZE_SUM = {
    "sphere.snapshot_csv_bytes": ("sphere.snapshot_csv", None),
    "simulate.streams": ("simulate.simulate_spharma", "streams"),
    "simulate.samples": ("simulate.simulate_spharma", "samples"),
    "simulate.series_bytes": ("simulate.series_save", None),
    "simulate.empirical_autocov.lags": ("simulate.empirical_autocov", None),
    "simulate.cramer_bytes": ("simulate.cramer", None),
    "spectral.values.points": ("spectral.values", None),
    "model.psi_terms": ("model.psi_coefficients", None),
}
FIT_MA_DEPTHS = (200, 320, 640, 1280)
SIMULATE_SHAPES = ((128, 64), (16, 32768))
IMPORT_PACKAGES = {"import.scipy_signal_s": "scipy.signal",
                   "import.scipy_linalg_s": "scipy.linalg",
                   "import.spharma_s": "spharma"}


def unit_of(name):
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "coverage_min")):
        return "1"
    return "count"


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def import_self_times(importtime_stderr):
    """Seconds of ``-X importtime`` self time per package in IMPORT_PACKAGES."""
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, module = line[len("import time:"):].split("|")
        module = module.strip()
        if not self_us.strip().isdigit():
            continue
        for metric, package in IMPORT_PACKAGES.items():
            if module == package or module.startswith(package + "."):
                totals[metric] += int(self_us) * 1e-6
    return totals


def command_layers(trace):
    """Per-layer metrics of one traced command from its spans file."""
    spans, own = trace["spans"], self_times(trace["spans"])
    out = defaultdict(float)
    for metric, names in SELF_TIME.items():
        out[metric] = sum(o for s, o in zip(spans, own) if s[0] in names)
    for metric, name in CALLS.items():
        out[metric] = sum(1 for s in spans if s[0] == name)
    for metric, (name, key) in SIZE_SUM.items():
        out[metric] = sum(s[4][key] if key else s[4]
                          for s in spans if s[0] == name)

    sht = [(s, o) for s, o in zip(spans, own) if s[0] == "sphere.sht_inverse"]
    extras = trace["extras"]
    if sht:
        # the first call builds and caches the grid's tables; the extra call
        # on the same grid after the command does not
        table = (sht[0][0][2] - sht[0][0][1]) - extras["sht_inverse_cached_s"]
        out["sphere.legendre_table_s"] = table
        out["sphere.legendre_table_bytes"] = extras["legendre_table_bytes"]
        out["sphere.sht_inverse_s"] = sum(o for _, o in sht) - table
    out["simulate.noise_s"] = extras.get("noise_s", 0.0)

    for depth in FIT_MA_DEPTHS:
        out[f"approx.fit_ma_s.depth{depth}"] = sum(
            o for s, o in zip(spans, own) if s[0] == "approx.fit_ma" and s[4] == depth)
    for L, n in SIMULATE_SHAPES:
        out[f"simulate.simulate_spharma_s.L{L}_n{n}"] = sum(
            o for s, o in zip(spans, own) if s[0] == "simulate.simulate_spharma"
            and (s[4]["L"], s[4]["n"]) == (L, n))

    counters = trace["counters"]
    calls, depth_sum, depth_max = counters.get("approx.innovations", (0, 0, 0))
    out["approx.innovations.depth_sum"] = depth_sum
    out["approx.innovations.depth_max"] = depth_max
    out["approx.durbin_levinson.order_sum"] = counters.get(
        "approx.durbin_levinson", (0, 0, 0))[1]
    out["multipoles"] = sum(s[4] for s in spans
                            if s[0] == "approx.approximate_operator")
    return out


def combine(commands):
    """Sum per-command layer metrics over a workload's commands."""
    total = defaultdict(float)
    for layers in commands:
        for k, v in layers.items():
            total[k] = max(total[k], v) if k.endswith("depth_max") else total[k] + v
    multipoles = total.pop("multipoles", 0)
    fits = total["approx.fit_ma.calls"] + total["approx.fit_ar.calls"]
    total["approx.fits_kept_ratio"] = multipoles / fits if fits else 0.0
    return total


def names():
    """Every per-layer metric name, in report order."""
    return (list(IMPORT_PACKAGES) + list(SELF_TIME) + list(CALLS)
            + list(SIZE_SUM)
            + ["sphere.legendre_table_s", "sphere.legendre_table_bytes",
               "sphere.sht_inverse_s", "simulate.noise_s",
               "approx.innovations.depth_sum", "approx.innovations.depth_max",
               "approx.durbin_levinson.order_sum", "approx.fits_kept_ratio"]
            + [f"approx.fit_ma_s.depth{d}" for d in FIT_MA_DEPTHS]
            + [f"simulate.simulate_spharma_s.L{L}_n{n}" for L, n in SIMULATE_SHAPES]
            + ["trace.overhead_s", "trace.coverage_min"])
