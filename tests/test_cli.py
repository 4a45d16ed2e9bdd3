import ast
import csv
import inspect
import json
import os
import subprocess
import sys
import warnings
from contextlib import nullcontext

import numpy as np
import pytest

import spharma
from spharma import approx, cli, simulate, spectral, verify
from spharma.model import SpharmaModel


@pytest.fixture()
def model_path(tmp_path):
    path = tmp_path / "model.json"
    SpharmaModel.uniform(3, ar=[0.4], noise=1.0).save(path)
    return str(path)


@pytest.fixture()
def noncausal_path(tmp_path):
    path = tmp_path / "bad.json"
    SpharmaModel.uniform(1, ar=[1.0], noise=1.0).save(path)
    return str(path)


def run(*argv):
    return cli.main([str(a) for a in argv])


class TestSimulateCommand:
    def test_writes_series_and_sidecar(self, tmp_path, model_path):
        out = tmp_path / "run"
        code = run("simulate", "--model", model_path, "--n", 50,
                   "--seed", 7, "--out", out)
        assert code == cli.EXIT_OK
        series = simulate.HarmonicCoefficientSeries.load(out / "series.bin")
        assert series.n == 50 and series.band_limit == 3
        meta = json.loads((out / "series.json").read_text())
        assert meta["n"] == 50 and meta["seed"] == 7
        assert "config_hash" in meta

    def test_byte_identical_reruns(self, tmp_path, model_path):
        # a different AR order and MA length at each l: one filter run per
        # multipole in reused work arrays, which must not leak into the output
        ragged = tmp_path / "ragged.json"
        SpharmaModel(3, [[0.5], [0.5, -0.2], [], [0.3]],
                     [[], [0.4], [0.2, 0.1], [0.3, 0.1, 0.05]],
                     np.ones(4)).save(ragged)
        for name, model, n in [("uniform", model_path, 64), ("ragged", ragged, 4096)]:
            out1, out2 = tmp_path / name / "a", tmp_path / name / "b"
            for out in (out1, out2):
                assert run("simulate", "--model", model, "--n", n,
                           "--seed", 3, "--out", out) == cli.EXIT_OK
            assert ((out1 / "series.bin").read_bytes()
                    == (out2 / "series.bin").read_bytes())
            assert ((out1 / "series.json").read_text()
                    == (out2 / "series.json").read_text())
            assert run("spectrum", "--series", out1 / "series.bin", "--max-lag", 20,
                       "--out", tmp_path / name / "spectrum") == cli.EXIT_OK

    def test_noncausal_exits_2(self, tmp_path, noncausal_path, capsys):
        code = run("simulate", "--model", noncausal_path, "--n", 10,
                   "--out", tmp_path / "x")
        assert code == cli.EXIT_INPUT
        assert "multipoles" in capsys.readouterr().err

    def test_causality_line_shows_the_margin(self, tmp_path, capsys):
        # an accepted AR root of modulus 1 + 2e-6 prints its margin, not "1",
        # which would read as a unit root under the 1 + 1e-6 rule
        path = tmp_path / "edge.json"
        SpharmaModel.uniform(1, ar=[1.0 / (1.0 + 2e-6)]).save(path)
        assert run("simulate", "--model", path, "--n", 8,
                   "--out", tmp_path / "x") == cli.EXIT_OK
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "causality: min root modulus 1.000002"

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_n_exits_2(self, tmp_path, model_path, n, capsys):
        out = tmp_path / "x"
        assert run("simulate", "--model", model_path, "--n", n,
                   "--out", out) == cli.EXIT_INPUT
        assert not out.exists()
        assert "n must be at least 1" in capsys.readouterr().err

    def test_missing_model_exits_2(self, tmp_path, capsys):
        code = run("simulate", "--model", tmp_path / "nope.json", "--n", 10,
                   "--out", tmp_path / "x")
        assert code == cli.EXIT_INPUT
        assert (capsys.readouterr().err
                == f"model file not found: {tmp_path / 'nope.json'}\n")

    def test_negative_lmax_exits_2_before_any_output(self, tmp_path, model_path,
                                                      capsys):
        out = tmp_path / "run"
        assert run("simulate", "--model", model_path, "--n", 10, "--lmax", -1,
                   "--out", out) == cli.EXIT_INPUT
        assert "lmax must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_snapshot_csv(self, tmp_path, model_path):
        out = tmp_path / "run"
        code = run("simulate", "--model", model_path, "--n", 20, "--seed", 1,
                   "--out", out, "--snapshots", "0,5")
        assert code == cli.EXIT_OK
        with open(out / "field_t5.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {"colat", "lon", "value"} == set(rows[0])

    def test_snapshot_out_of_range_writes_nothing(self, tmp_path, model_path,
                                                  capsys):
        out = tmp_path / "run"
        code = run("simulate", "--model", model_path, "--n", 20, "--seed", 1,
                   "--out", out, "--snapshots", "0,20")
        assert code == cli.EXIT_INPUT
        assert not (out / "series.bin").exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "snapshot index 20 out of range" in captured.err

    def test_snapshot_indices_not_integers_exit_2(self, tmp_path, model_path,
                                                  capsys):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--model", model_path, "--n", 20, "--out", out,
                "--snapshots", "1,x")
        assert exc.value.code == cli.EXIT_INPUT
        assert not out.exists()
        assert ("argument --snapshots: expected comma-separated integer time "
                "indices, got '1,x'") in capsys.readouterr().err

    def test_io_failure_exits_3(self, tmp_path, model_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = run("simulate", "--model", model_path, "--n", 10,
                   "--out", blocker / "sub")
        assert code == cli.EXIT_IO


class TestSpectrumCommand:
    def test_model_tables(self, tmp_path, model_path):
        out = tmp_path / "spec"
        code = run("spectrum", "--model", model_path, "--out", out,
                   "--max-lag", 5, "--n-lambda", 32)
        assert code == cli.EXIT_OK
        with open(out / "autocovariance.csv", newline="") as fh:
            acv_rows = list(csv.DictReader(fh))
        assert len(acv_rows) == 4 * 6
        with open(out / "spectral_density.csv", newline="") as fh:
            f_rows = list(csv.DictReader(fh))
        assert len(f_rows) == 4 * 33
        with open(out / "trace_norm.csv", newline="") as fh:
            t_rows = list(csv.DictReader(fh))
        assert len(t_rows) == 33
        # white-noise-free AR(1) density at lambda = 0 equals the closed form
        import math

        f0 = [float(r["f"]) for r in f_rows
              if r["l"] == "0" and abs(float(r["lambda"])) < 1e-12][0]
        assert abs(f0 - 1.0 / (2 * math.pi * 0.36)) < 1e-12

    def test_csv_parse_back_lossless(self, tmp_path, model_path):
        out = tmp_path / "spec"
        run("spectrum", "--model", model_path, "--out", out,
            "--max-lag", 3, "--n-lambda", 16)
        from spharma.model import model_autocovariance_table

        model = SpharmaModel.load(model_path)
        acv = model_autocovariance_table(model, 3)
        with open(out / "autocovariance.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                assert float(row["C"]) == acv[int(row["l"]), int(row["t"])]

    def test_lmax_truncates(self, tmp_path, model_path):
        out = tmp_path / "run"
        code = run("simulate", "--model", model_path, "--n", 16, "--seed", 1,
                   "--lmax", 1, "--out", out)
        assert code == cli.EXIT_OK
        series = simulate.HarmonicCoefficientSeries.load(out / "series.bin")
        assert series.band_limit == 1

    def test_noncausal_model_exits_2_before_any_output(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        SpharmaModel(1, [[0.5], [1.0]], [[], []], np.ones(2)).save(path)
        out = tmp_path / "spec"
        assert run("spectrum", "--model", path, "--out", out) == cli.EXIT_INPUT
        assert "model is not causal at multipoles [1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["--model", "--series"])
    def test_negative_lmax_exits_2_before_any_output(self, tmp_path, model_path,
                                                      source, capsys):
        run_dir = tmp_path / "run"
        run("simulate", "--model", model_path, "--n", 64, "--seed", 2,
            "--out", run_dir)
        path = model_path if source == "--model" else run_dir / "series.bin"
        out = tmp_path / "spec"
        assert run("spectrum", source, path, "--lmax", -1,
                   "--out", out) == cli.EXIT_INPUT
        assert "lmax must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_meta_names_the_lags_behind_each_table(self, tmp_path, model_path):
        # the density sums the 1/n lags, (n - t) / n times the CSV's, under
        # the Bartlett window 1 - t / (max_lag + 1)
        run_dir = tmp_path / "run"
        assert run("simulate", "--model", model_path, "--n", 300, "--seed", 3,
                   "--out", run_dir) == cli.EXIT_OK
        metas = {}
        for source, path in (("--model", model_path),
                             ("--series", run_dir / "series.bin")):
            out = tmp_path / source
            assert run("spectrum", source, path, "--max-lag", 10,
                       "--n-lambda", 32, "--out", out) == cli.EXIT_OK
            metas[source] = json.loads((out / "spectrum_meta.json").read_text())
        assert set(metas["--model"]) == {"schema", "config_hash", "band_limit",
                                         "max_lag"}
        meta = metas["--series"]
        assert (meta["lag_divisor"], meta["density_lag_divisor"],
                meta["density_window"]) == ("n - t", "n", "bartlett")
        n, T = meta["series_n"], meta["max_lag"]
        assert n == 300
        out = tmp_path / "--series"
        with open(out / "autocovariance.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        lags = np.zeros((meta["band_limit"] + 1, T + 1))
        for row in rows:
            lags[int(row["l"]), int(row["t"])] = float(row["C"])
        t = np.arange(T + 1)
        weights = (n - t) / n * (1 - t / (T + 1)) * np.where(t, 2.0, 1.0)
        with open(out / "spectral_density.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = np.array([float(row["f"]) for row in rows])
        rebuilt = np.array([
            lags[int(row["l"])] * weights @ np.cos(t * float(row["lambda"]))
            for row in rows]) / (2 * np.pi)
        assert np.abs(got - rebuilt).max() <= 1e-12 * got.max()

    def test_series_lmax_keeps_the_full_run_rows(self, tmp_path):
        model = tmp_path / "model.json"
        SpharmaModel.uniform(2, ar=[0.5], ma=[0.3]).save(model)
        assert run("simulate", "--model", model, "--n", 300, "--seed", 4,
                   "--out", tmp_path / "run") == cli.EXIT_OK
        tables = {}
        for name, flags in (("full", ()), ("low", ("--lmax", 1))):
            out = tmp_path / name
            assert run("spectrum", "--series", tmp_path / "run" / "series.bin",
                       "--max-lag", 10, "--n-lambda", 32, *flags,
                       "--out", out) == cli.EXIT_OK
            tables[name] = {f: (out / f).read_text().splitlines()
                            for f in ("autocovariance.csv", "spectral_density.csv")}
        for f, full in tables["full"].items():
            kept = [row for row in full[1:] if int(row.split(",")[0]) <= 1]
            assert tables["low"][f] == full[:1] + kept

    @pytest.mark.parametrize("L, ar, ma, n, max_lag, seeds", [
        (0, [0.9], [], 8, 7, range(41)),
        (2, [0.5], [0.3], 2048, 1000, range(40))], ids=["ar1-n8", "arma11-n2048"])
    def test_true_model_series_are_never_refused(self, tmp_path, L, ar, ma, n,
                                                 max_lag, seeds):
        # with the 1/(n - t) lags summed unwindowed, 27 of the first range and
        # 8 of the second exited 2, and every series of the second warned
        model = tmp_path / "model.json"
        SpharmaModel.uniform(L, ar=ar, ma=ma).save(model)
        for seed in seeds:
            run_dir = tmp_path / f"run{seed}"
            assert run("simulate", "--model", model, "--n", n, "--seed", seed,
                       "--out", run_dir) == cli.EXIT_OK
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run("spectrum", "--series", run_dir / "series.bin",
                           "--max-lag", max_lag, "--out", run_dir / "spec")
            assert code == cli.EXIT_OK

    def test_empirical_close_to_model(self, tmp_path, model_path):
        run_dir = tmp_path / "run"
        run("simulate", "--model", model_path, "--n", 60000, "--seed", 11,
            "--out", run_dir)
        out = tmp_path / "spec"
        code = run("spectrum", "--series", run_dir / "series.bin",
                   "--out", out, "--max-lag", 3, "--n-lambda", 16)
        assert code == cli.EXIT_OK
        model = SpharmaModel.load(model_path)
        from spharma.model import model_autocovariance_table

        acv = model_autocovariance_table(model, 3)
        with open(out / "autocovariance.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                expect = acv[int(row["l"]), int(row["t"])]
                assert abs(float(row["C"]) - expect) < 0.05


    @pytest.mark.parametrize("flags", [("--max-lag", -1), ("--n-lambda", 0),
                                       ("--n-lambda", -3)],
                             ids=["max-lag=-1", "n-lambda=0", "n-lambda=-3"])
    @pytest.mark.parametrize("source", ["--model", "--series"])
    def test_bad_sizes_exit_2_before_any_output(self, tmp_path, model_path,
                                                source, flags, capsys):
        run_dir = tmp_path / "run"
        run("simulate", "--model", model_path, "--n", 64, "--seed", 2,
            "--out", run_dir)
        path = model_path if source == "--model" else run_dir / "series.bin"
        out = tmp_path / "spec"
        code = run("spectrum", source, path, "--out", out, *flags)
        assert code == cli.EXIT_INPUT
        assert not out.exists()
        err = capsys.readouterr().err
        assert "must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("source", ["--model", "--series"])
    def test_density_evaluated_once(self, tmp_path, model_path, source,
                                    monkeypatch):
        # trace_norm.csv is summed from the density spectral_density.csv holds
        run_dir = tmp_path / "run"
        run("simulate", "--model", model_path, "--n", 64, "--seed", 2,
            "--out", run_dir)
        path = model_path if source == "--model" else run_dir / "series.bin"
        values = spectral.SpectralEigenvalues.values
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(self)
            return values(self, *args, **kwargs)

        monkeypatch.setattr(spectral.SpectralEigenvalues, "values", counted)
        out = tmp_path / "spec"
        assert run("spectrum", source, path, "--max-lag", 5, "--n-lambda", 32,
                   "--out", out) == cli.EXIT_OK
        assert len(calls) == 1
        lam = spectral.frequency_grid(32)
        trace = spectral.operator_trace_norm(calls[0], lam)
        with open(out / "trace_norm.csv", newline="") as fh:
            assert [float(row["trace"]) for row in csv.DictReader(fh)] == list(trace)


class TestApproximateCommand:
    def test_pass_and_artifacts(self, tmp_path, model_path):
        from spharma.model import check_invertible

        # the model file, and its spectrum tabulated on frequency_grid()
        tabulated = tmp_path / "tab.json"
        lam = spharma.frequency_grid()
        spharma.SpectralEigenvalues.tabulated(
            lam, SpharmaModel.load(model_path).spectral().values(lam)).save(tabulated)
        for target, out in [(model_path, tmp_path / "fit"),
                            (tabulated, tmp_path / "fit_tab")]:
            code = run("approximate", "--target", target, "--eps", 0.05,
                       "--kind", "ma", "--out", out)
            assert code == cli.EXIT_OK
            cert = json.loads((out / "certificate.json").read_text())
            assert cert["passed"] is True
            assert cert["total_l2"] <= 0.05
            fitted = SpharmaModel.load(out / "fitted_model.json")
            assert check_invertible(fitted).causal

    def test_missing_target_exits_2_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "fit"
        assert run("approximate", "--target", tmp_path / "missing.json",
                   "--eps", 0.1, "--kind", "ma", "--out", out) == cli.EXIT_INPUT
        assert "target file not found" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_eps_order_zero_on_white(self, tmp_path):
        target = tmp_path / "white.json"
        SpharmaModel.white_noise(np.ones(3)).save(target)
        out = tmp_path / "fit"
        code = run("approximate", "--target", target, "--eps", 100.0,
                   "--kind", "ma", "--out", out)
        assert code == cli.EXIT_OK
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["order"] == 0

    def test_ar_kind_on_ma_target(self, tmp_path):
        target = tmp_path / "ma.json"
        SpharmaModel.uniform(2, ma=[0.5], noise=1.0).save(target)
        out = tmp_path / "fit"
        code = run("approximate", "--target", target, "--eps", 0.05,
                   "--kind", "ar", "--out", out)
        assert code == cli.EXIT_OK
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["passed"] and cert["order"] >= 1

    def test_order_cap_exits_4(self, tmp_path):
        target = tmp_path / "hard.json"
        SpharmaModel.uniform(0, ar=[0.9], noise=1.0).save(target)
        out = tmp_path / "fit"
        code = run("approximate", "--target", target, "--eps", 1e-4,
                   "--kind", "ma", "--order-cap", 4, "--out", out)
        assert code == cli.EXIT_BUDGET
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["passed"] is False and cert["order_cap_reached"] is True

    def test_band_tail_over_eps_exits_4(self, tmp_path, capsys):
        # the stored band tail alone exceeds eps: no order reaches the cap,
        # and the certificate still cannot pass
        target = tmp_path / "tail.json"
        target.write_text(json.dumps({
            "schema": 1, "form": "rational", "band_limit": 0, "tail_bound": 1.0,
            "rational": [{"l": 0, "ar": [0.5], "ma": [], "noise": 1.0}]}))
        out = tmp_path / "fit"
        with pytest.warns(UserWarning, match="band tail"):
            code = run("approximate", "--target", target, "--eps", 0.01,
                       "--kind", "ma", "--out", out)
        assert code == cli.EXIT_BUDGET
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["passed"] is False and cert["order_cap_reached"] is False
        assert "certificate FAILED" in capsys.readouterr().out

    def test_huge_order_cap_same_certificate(self, tmp_path):
        # lags are fetched as deep as the scan goes, not as deep as the cap
        # would allow (149 GiB of lags at this cap)
        target = tmp_path / "ar1.json"
        SpharmaModel.uniform(1, ar=[0.5], noise=1.0).save(target)
        certs = []
        for cap in (approx.DEFAULT_ORDER_CAP, 10**9):
            out = tmp_path / f"fit{cap}"
            assert run("approximate", "--target", target, "--eps", 1e-2, "--kind",
                       "ma", "--order-cap", cap, "--out", out) == cli.EXIT_OK
            cert = json.loads((out / "certificate.json").read_text())
            del cert["config_hash"]
            certs.append(cert)
        assert certs[0] == certs[1]

    def test_pure_target_above_the_cap_tries_the_cap_only(self, tmp_path,
                                                          monkeypatch):
        # a pure MA(3) target's schedule starts at order 3, past a cap of 2
        target = tmp_path / "ma3.json"
        SpharmaModel.uniform(0, ma=[0.5, 0.3, 0.2]).save(target)
        orders, fit_ma = [], approx.fit_ma
        monkeypatch.setattr(approx, "fit_ma",
                            lambda psi, c0, q: orders.append(q) or fit_ma(psi, c0, q))
        out = tmp_path / "fit"
        assert run("approximate", "--target", target, "--eps", 1e-6, "--kind", "ma",
                   "--order-cap", 2, "--out", out) == cli.EXIT_BUDGET
        assert orders and set(orders) == {2}
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["per_multipole"][0]["order"] == 2 and cert["order_cap_reached"]

    def test_negative_order_cap_exits_2(self, tmp_path, model_path, capsys):
        out = tmp_path / "fit"
        code = run("approximate", "--target", model_path, "--eps", 0.05,
                   "--kind", "ma", "--order-cap", -1, "--out", out)
        assert code == cli.EXIT_INPUT
        assert not out.exists()
        assert "order_cap must be nonnegative" in capsys.readouterr().err

    def test_non_invertible_ma_orders_are_skipped(self, tmp_path):
        # psi_1 = 1.2 makes the order-1 truncated factor non-invertible; the
        # scan moves past it instead of ending in a traceback
        target = tmp_path / "arma.json"
        SpharmaModel.uniform(2, ar=[0.8], ma=[0.4], noise=1.0).save(target)
        out = tmp_path / "fit"
        code = run("approximate", "--target", target, "--eps", 0.01,
                   "--kind", "ma", "--out", out)
        assert code in (cli.EXIT_OK, cli.EXIT_BUDGET)
        cert = json.loads((out / "certificate.json").read_text())
        assert all(row["order"] != 1 for row in cert["per_multipole"])

    def test_lags_not_positive_definite_stop_both_kinds(self, tmp_path):
        # f = 1 on |lambda| < 0.5 has spectral zeros. Its lags stop being
        # positive definite, which ends the AR scan at the first order whose
        # recursion fails, with the nearest fit so far, order 0. f has no
        # spectral factor, so MA fits past order 0 come from the factor of
        # f + budget/4; none meets the budget, and the nearest valid fit of
        # either factor, order 2 of the shifted one, stands
        lam = spharma.frequency_grid()
        target = tmp_path / "box.json"
        spharma.SpectralEigenvalues.tabulated(
            lam, (np.abs(lam) < 0.5).astype(float)[None, :]).save(target)
        certs = {}
        for kind in ("ar", "ma"):
            out = tmp_path / kind
            with (pytest.warns(UserWarning, match="grid is coarse")
                  if kind == "ma" else nullcontext()):
                assert run("approximate", "--target", target, "--eps", 0.05,
                           "--kind", kind, "--out", out) == cli.EXIT_BUDGET
            certs[kind] = json.loads((out / "certificate.json").read_text())
        # the AR scan stopped at order 1, far below the cap; the MA one on
        # f + budget/4 scanned to the cap (every truncation from order 4 on
        # is non-invertible)
        assert certs["ar"]["order_cap_reached"] is False
        assert certs["ma"]["order_cap_reached"] is True
        ar, = certs["ar"]["per_multipole"]
        ma, = certs["ma"]["per_multipole"]
        assert ar["order"] == 0 and ma["order"] == 2
        assert ma["sup_error"] == pytest.approx(0.5923430930603489, rel=1e-6)
        assert ma["sup_error"] < ar["sup_error"]
        assert not certs["ar"]["passed"] and not certs["ma"]["passed"]

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("name", ["cos2", "gauss_009", "gauss_001", "box"])
    def test_targets_with_spectral_zeros(self, tmp_path, name, eps):
        # MA fits of a continuous f >= 0 exist, and the factor of f + budget/4
        # finds them where f touches 0; a discontinuous f has none in the sup
        # norm
        lam = spharma.frequency_grid()
        f = {"cos2": np.maximum(np.cos(lam), 0.0) ** 2,
             "gauss_009": np.exp(-lam**2 / 0.09),
             "gauss_001": np.exp(-lam**2 / 0.01),
             "box": (np.abs(lam) < 0.5).astype(float)}[name]
        target = tmp_path / "target.json"
        spharma.SpectralEigenvalues.tabulated(lam, f[None, :]).save(target)
        out = tmp_path / "fit"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run("approximate", "--target", target, "--eps", eps,
                       "--kind", "ma", "--out", out)
        cert = json.loads((out / "certificate.json").read_text())
        if name == "box":
            assert code == cli.EXIT_BUDGET and not cert["passed"]
        else:
            assert code == cli.EXIT_OK and cert["passed"]
            assert cert["total_l2"] <= eps and cert["order"] >= 1

    @pytest.mark.parametrize("kind", ["ar", "ma"])
    def test_all_zero_multipole_exits_2(self, tmp_path, kind, capsys):
        lam = spharma.frequency_grid()
        target = tmp_path / "zero.json"
        spharma.SpectralEigenvalues.tabulated(
            lam, np.vstack([np.ones_like(lam), np.zeros_like(lam)])).save(target)
        out = tmp_path / "fit"
        assert run("approximate", "--target", target, "--eps", 0.05,
                   "--kind", kind, "--out", out) == cli.EXIT_INPUT
        assert not out.exists()
        err = capsys.readouterr().err
        assert "no fit at multipole 1: C(0) must be positive" in err
        assert "MA" not in err

    @pytest.mark.parametrize("grid", ["nonuniform", "half_circle"])
    def test_tabulated_target_off_frequency_grid_exits_2(self, tmp_path, grid,
                                                         capsys):
        u = np.linspace(-1.0, 1.0, 2049)
        lam = {"nonuniform": np.pi * (0.6 * u + 0.4 * u**3),
               "half_circle": np.linspace(-np.pi, 0.5 * np.pi, 2049)}[grid]
        f = SpharmaModel.uniform(0, ar=[0.5]).spectral().values(lam)
        target = tmp_path / "tab.json"
        target.write_text(json.dumps({
            "schema": 1, "form": "tabulated", "band_limit": 0,
            "tail_bound": 0.0, "lambda_grid": lam.tolist(), "f": f.tolist()}))
        out = tmp_path / "fit"
        code = run("approximate", "--target", target, "--eps", 0.01,
                   "--kind", "ma", "--out", out)
        assert code == cli.EXIT_INPUT
        assert not out.exists()
        err = capsys.readouterr().err
        assert "frequency_grid" in err and "Traceback" not in err

    @pytest.mark.parametrize("cap, code", [(4, cli.EXIT_BUDGET),
                                           (approx.DEFAULT_ORDER_CAP, cli.EXIT_OK)])
    def test_trace_norm_certificate(self, tmp_path, model_path, cap, code):
        # at order 4 the fit meets eps = 0.05 in the kernel-L2 norm but not
        # in the trace norm
        codes, certs = {}, {}
        for norm in ("trace", "l2"):
            out = tmp_path / norm
            codes[norm] = run("approximate", "--target", model_path, "--eps",
                              0.05, "--kind", "ma", "--norm", norm,
                              "--order-cap", cap, "--out", out)
            certs[norm] = json.loads((out / "certificate.json").read_text())
        cert = certs["trace"]
        assert codes == {"trace": code, "l2": cli.EXIT_OK}
        assert cert["norm"] == "trace"
        assert cert["passed"] is (cert["total_trace"] <= cert["epsilon"])
        assert cert["passed"] is (code == cli.EXIT_OK)
        assert cert["config_hash"] != certs["l2"]["config_hash"]

    @pytest.mark.parametrize("eps", ["-1.0", "nan", "inf"],
                             ids=["negative", "nan", "inf"])
    def test_invalid_eps_exits_2(self, tmp_path, model_path, eps, capsys):
        out = tmp_path / "x"
        code = run("approximate", "--target", model_path, "--eps", eps,
                   "--kind", "ma", "--out", out)
        assert code == cli.EXIT_INPUT
        assert not out.exists()
        assert "eps must be positive and finite" in capsys.readouterr().err


class TestVerifyCommand:
    def test_well_specified_passes(self, tmp_path, model_path):
        run_dir = tmp_path / "run"
        run("simulate", "--model", model_path, "--n", 4096, "--seed", 13,
            "--out", run_dir)
        out = tmp_path / "ver"
        code = run("verify", "--series", run_dir / "series.bin", "--out", out)
        assert code == cli.EXIT_OK
        report = json.loads((out / "verify_report.json").read_text())
        assert report["passed"] is True
        assert {c["name"] for c in report["checks"]} == {
            "stationarity", "isotropy", "cramer_orthogonality", "ckl_truncation"}
        for c in report["checks"]:
            assert c["passed"] == (c.get("skipped", False)
                                   or c["statistic"] < c["threshold"])

    def test_trended_series_fails_stationarity(self, tmp_path, model_path):
        run_dir = tmp_path / "run"
        run("simulate", "--model", model_path, "--n", 4096, "--seed", 17,
            "--out", run_dir)
        series = simulate.HarmonicCoefficientSeries.load(run_dir / "series.bin")
        trended = series.values + 0.002 * np.arange(series.n)[None, :]
        simulate.HarmonicCoefficientSeries(
            series.band_limit, trended, series.provenance
        ).save(run_dir / "trended.bin")
        out = tmp_path / "ver"
        code = run("verify", "--series", run_dir / "trended.bin",
                   "--checks", "stationarity", "--out", out)
        assert code == cli.EXIT_VERIFY
        for c in json.loads((out / "verify_report.json").read_text())["checks"]:
            assert c["passed"] == (c.get("skipped", False)
                                   or c["statistic"] < c["threshold"])

    def test_unknown_check_exits_2(self, tmp_path, model_path, capsys):
        run_dir = tmp_path / "run"
        run("simulate", "--model", model_path, "--n", 2048, "--seed", 19,
            "--out", run_dir)
        # only an absent --checks means every check; an empty name is unknown
        for checks, name in [("nonsense", "nonsense"), ("isotropy,", ""),
                             ("", "")]:
            code = run("verify", "--series", run_dir / "series.bin",
                       "--checks", checks)
            assert code == cli.EXIT_INPUT
            assert f"unknown check {name!r}" in capsys.readouterr().err

    def test_unknown_check_exits_before_any_check_runs(self, tmp_path,
                                                       model_path, monkeypatch):
        run("simulate", "--model", model_path, "--n", 2048, "--seed", 19,
            "--out", tmp_path / "run")

        def never(*args):
            raise AssertionError("a check ran before the names were validated")

        monkeypatch.setattr(cli, "_check_cramer", never)
        code = run("verify", "--series", tmp_path / "run" / "series.bin",
                   "--checks", "cramer,bogus")
        assert code == cli.EXIT_INPUT

    def test_repeated_check_exits_2_before_any_check_runs(self, tmp_path,
                                                          model_path, monkeypatch,
                                                          capsys):
        run("simulate", "--model", model_path, "--n", 2048, "--seed", 19,
            "--out", tmp_path / "run")

        def never(*args):
            raise AssertionError("a check ran before the names were validated")

        monkeypatch.setattr(cli, "_check_cramer", never)
        monkeypatch.setattr(cli, "_check_stationarity", never)
        capsys.readouterr()
        for checks in ("cramer,cramer,stationarity", "stationarity,cramer,cramer"):
            code = run("verify", "--series", tmp_path / "run" / "series.bin",
                       "--checks", checks, "--out", tmp_path / "report")
            assert code == cli.EXIT_INPUT
            assert "repeated check 'cramer'" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    def test_more_bands_than_frequency_bins_exits_2(self, tmp_path):
        # a real FFT of 1024 samples has 513 bins, one per band at most
        model = tmp_path / "model.json"
        SpharmaModel.uniform(0, ar=[0.4], noise=1.0).save(model)
        run("simulate", "--model", model, "--n", 1024, "--seed", 13,
            "--out", tmp_path / "run")
        series = tmp_path / "run" / "series.bin"
        code = run("verify", "--series", series, "--checks", "cramer",
                   "--bands", 514, "--out", tmp_path / "too_many")
        assert code == cli.EXIT_INPUT
        assert not (tmp_path / "too_many" / "verify_report.json").exists()
        code = run("verify", "--series", series, "--checks", "cramer",
                   "--bands", 513, "--out", tmp_path / "one_bin_each")
        assert code in (cli.EXIT_OK, cli.EXIT_VERIFY)
        check, = json.loads(
            (tmp_path / "one_bin_each" / "verify_report.json").read_text())["checks"]
        assert check["name"] == "cramer_orthogonality"

    def test_band_table_over_the_limit_exits_2(self, tmp_path, monkeypatch,
                                               capsys):
        # 64 bands of 4096 samples need a 9 MB table of band products; with
        # the limit lowered to 1 MB the count is refused before the table
        # exists, so a regressed guard allocates megabytes, not gigabytes
        model = tmp_path / "model.json"
        SpharmaModel.uniform(0, ar=[0.4], noise=1.0).save(model)
        run("simulate", "--model", model, "--n", 4096, "--seed", 13,
            "--out", tmp_path / "run")
        series = tmp_path / "run" / "series.bin"
        monkeypatch.setattr(simulate, "_CRAMER_GRAM_MAX_BYTES", 1 << 20)
        code = run("verify", "--series", series, "--checks", "cramer",
                   "--bands", 64, "--out", tmp_path / "refused")
        assert code == cli.EXIT_INPUT
        assert not (tmp_path / "refused").exists()
        err = capsys.readouterr().err
        assert "64 bands need a 9 MB table" in err and "1 MB limit" in err
        monkeypatch.undo()
        code = run("verify", "--series", series, "--checks", "cramer",
                   "--bands", 64)
        assert code in (cli.EXIT_OK, cli.EXIT_VERIFY)

    def test_missing_series_exits_2(self, tmp_path, capsys):
        code = run("verify", "--series", tmp_path / "nope.bin")
        assert code == cli.EXIT_INPUT
        assert (capsys.readouterr().err
                == f"series file not found: {tmp_path / 'nope.bin'}\n")

    @pytest.mark.filterwarnings("error")
    def test_one_stream_stationarity_is_finite(self, tmp_path):
        model = tmp_path / "model.json"
        SpharmaModel.uniform(0, ar=[0.4], noise=1.0).save(model)
        run("simulate", "--model", model, "--n", 4096, "--seed", 13,
            "--out", tmp_path / "run")
        out = tmp_path / "ver"
        code = run("verify", "--series", tmp_path / "run" / "series.bin",
                   "--checks", "stationarity", "--out", out)
        assert code == cli.EXIT_OK
        check, = json.loads((out / "verify_report.json").read_text())["checks"]
        assert np.isfinite(check["statistic"]) and check["passed"] is True

    @pytest.mark.parametrize("n", [5, 15])
    def test_short_series_stationarity_exits_2(self, tmp_path, model_path, n,
                                               capsys):
        run("simulate", "--model", model_path, "--n", n, "--seed", 13,
            "--out", tmp_path / "run")
        out = tmp_path / "ver"
        code = run("verify", "--series", tmp_path / "run" / "series.bin",
                   "--checks", "stationarity", "--out", out)
        assert code == cli.EXIT_INPUT
        assert not out.exists()
        assert "at least 16 samples" in capsys.readouterr().err

    def test_one_sample_isotropy_and_ckl_exit_2(self, tmp_path, model_path,
                                                capsys):
        # one sample leaves batch means no spread to estimate
        run("simulate", "--model", model_path, "--n", 1, "--seed", 13,
            "--out", tmp_path / "run")
        out = tmp_path / "ver"
        code = run("verify", "--series", tmp_path / "run" / "series.bin",
                   "--checks", "isotropy,ckl", "--out", out)
        assert code == cli.EXIT_INPUT
        assert not out.exists()
        assert "at least 2 samples" in capsys.readouterr().err

    def test_isotropy_and_ckl_skipped_below_l1(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        SpharmaModel.uniform(0, ar=[0.4], noise=1.0).save(model)
        run("simulate", "--model", model, "--n", 2048, "--seed", 13,
            "--out", tmp_path / "run")
        capsys.readouterr()
        out = tmp_path / "ver"
        code = run("verify", "--series", tmp_path / "run" / "series.bin",
                   "--checks", "isotropy,ckl", "--out", out)
        assert code == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "isotropy: skipped (needs L >= 1)",
            "ckl_truncation: skipped (needs L >= 1)"]
        report = json.loads((out / "verify_report.json").read_text())
        assert report["passed"] is True
        for check in report["checks"]:
            assert check["skipped"] is True and check["passed"] is True

    def test_isotropy_and_ckl_run_from_l1(self, tmp_path, model_path, capsys):
        run("simulate", "--model", model_path, "--n", 2048, "--seed", 13,
            "--out", tmp_path / "run")
        capsys.readouterr()
        out = tmp_path / "ver"
        code = run("verify", "--series", tmp_path / "run" / "series.bin",
                   "--checks", "isotropy,ckl", "--out", out)
        assert code == cli.EXIT_OK
        checks = json.loads((out / "verify_report.json").read_text())["checks"]
        assert [set(c) for c in checks] == [
            {"name", "statistic", "threshold", "passed"}] * 2
        assert capsys.readouterr().out.splitlines() == [
            f"{c['name']}: pass (stat {c['statistic']:.4g} vs "
            f"{c['threshold']:.4g})" for c in checks]

    @pytest.mark.parametrize("band_limit", [0, 3])
    def test_library_checks_give_the_report_records(self, tmp_path, band_limit):
        model = tmp_path / "model.json"
        SpharmaModel.uniform(band_limit, ar=[0.4], noise=1.0).save(model)
        run("simulate", "--model", model, "--n", 2048, "--seed", 13,
            "--out", tmp_path / "run")
        out = tmp_path / "ver"
        run("verify", "--series", tmp_path / "run" / "series.bin", "--bands", 6,
            "--out", out)
        series = simulate.HarmonicCoefficientSeries.load(tmp_path / "run" / "series.bin")
        checks = json.loads((out / "verify_report.json").read_text())["checks"]
        assert checks == [verify.check_stationarity(series),
                          verify.check_isotropy(series),
                          verify.check_cramer(series, 6), verify.check_ckl(series)]


def _series_command(name, path, out):
    """argv of a command that reads the series at ``path``."""
    return {"spectrum": ["spectrum", "--series", path, "--max-lag", 2,
                         "--out", out],
            "verify": ["verify", "--series", path, "--out", out]}[name]


def _break_sidecar(sidecar, defect):
    meta = json.loads(sidecar.read_text())
    if defect == "missing-sidecar":
        sidecar.unlink()
    elif defect == "no-band-limit":
        del meta["band_limit"]
        sidecar.write_text(json.dumps(meta))
    else:
        sidecar.write_text(json.dumps(list(meta.items())))


@pytest.mark.parametrize("defect", ["missing-series", "missing-sidecar",
                                    "no-band-limit", "not-an-object",
                                    "one-float-short", "one-float-long"])
@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_malformed_series_exits_2(tmp_path, model_path, command, defect, capsys):
    run("simulate", "--model", model_path, "--n", 32, "--seed", 1,
        "--out", tmp_path / "run")
    series = tmp_path / "run" / "series.bin"
    data = series.read_bytes()
    if defect == "missing-series":
        series = tmp_path / "run" / "nope.bin"
    elif defect == "one-float-short":
        series.write_bytes(data[:-8])
    elif defect == "one-float-long":
        series.write_bytes(data + data[:8])
    else:
        _break_sidecar(tmp_path / "run" / "series.json", defect)
    out = tmp_path / "out"
    assert run(*_series_command(command, series, out)) == cli.EXIT_INPUT
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if defect.startswith("one-float"):
        assert "series file size does not match sidecar" in err
    if defect.startswith("missing"):
        # the missing file is named, the series before its sidecar
        missing = series if defect == "missing-series" else series.with_suffix(".json")
        assert err.endswith(f"series file not found: {missing}\n")


def test_config_hash_stable_and_distinct(tmp_path, model_path):
    out1, out2, out3 = tmp_path / "1", tmp_path / "2", tmp_path / "3"
    run("simulate", "--model", model_path, "--n", 16, "--seed", 1, "--out", out1)
    run("simulate", "--model", model_path, "--n", 16, "--seed", 1, "--out", out2)
    run("simulate", "--model", model_path, "--n", 16, "--seed", 2, "--out", out3)
    h1 = json.loads((out1 / "series.json").read_text())["config_hash"]
    h2 = json.loads((out2 / "series.json").read_text())["config_hash"]
    h3 = json.loads((out3 / "series.json").read_text())["config_hash"]
    assert h1 == h2 != h3


@pytest.mark.parametrize("argv", [
    ("simulate", "--n", 10**12),
    ("spectrum", "--max-lag", 10**12),
    ("spectrum", "--n-lambda", 10**12),
], ids=["simulate-n", "spectrum-max-lag", "spectrum-n-lambda"])
def test_sizes_too_large_to_allocate_exit_2(tmp_path, model_path, argv, capsys):
    # each asks numpy for terabytes, which it refuses before touching memory
    out = tmp_path / "out"
    code = run(argv[0], "--model", model_path, *argv[1:], "--out", out)
    assert code == cli.EXIT_INPUT
    assert not out.exists()
    err = capsys.readouterr().err
    assert "allocate" in err and "Traceback" not in err


def test_cli_import_does_not_load_scipy():
    # numpy is the only runtime dependency; scipy is a test oracle
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(spharma.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, spharma.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_library_surface():
    # only what a command, a kept library function or a tier-1 test reaches;
    # test-only references live in tests/oracles.py
    assert spharma.__all__ == [
        "CausalityReport", "FieldSnapshot", "HarmonicCoefficientSeries",
        "SimulationConfig", "SpectralEigenvalues", "SpharmaModel", "SphereGrid",
        "approx", "approximate_operator", "autocov_table", "batch_means_se",
        "build_grid", "check_causal", "check_coprime", "check_invertible",
        "durbin_levinson", "empirical_autocov", "fit_ar", "fit_ma",
        "frequency_grid", "l2_omega_error", "lag_polynomial_roots", "model",
        "model_autocovariance", "model_autocovariance_table",
        "operator_trace_norm", "psi_coefficients", "sht_inverse", "simulate",
        "simulate_spharma", "simulate_white_noise", "spectral", "spectral_factor",
        "spectral_from_autocov", "sphere", "synthesize_field",
        "verify_cramer_orthogonality"]
    # spectral.py imports nothing from sphere.py
    tree = ast.parse(inspect.getsource(spharma.spectral))
    imported = {f"{node.module or ''}.{alias.name}" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not [name for name in imported if "sphere" in name.split(".")], imported


def test_verify_reaches_its_callees_through_their_modules():
    # perfbench/traced_cli.py times a function by rebinding it on the modules
    # it lists, which do not include spharma.verify: a callee imported into
    # verify by name would run untimed, and its spans would read 0
    tree = ast.parse(inspect.getsource(verify))
    froms = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules = {alias.name for node in froms if node.level == 1 and not node.module
               for alias in node.names}
    assert {"simulate", "sphere"} <= modules, modules
    by_name = [f"{node.module}.{alias.name}" for node in froms if node.module
               and {"simulate", "sphere"} & set(node.module.split("."))
               for alias in node.names]
    assert not by_name, by_name
    # cli calls the checks under the names the harness wraps
    for name in ("stationarity", "isotropy", "cramer", "ckl"):
        assert getattr(cli, f"_check_{name}") is getattr(verify, f"check_{name}")


def _command(name, path, out):
    """argv of a command that reads the JSON at ``path`` and writes to ``out``."""
    return {"simulate": ["simulate", "--model", path, "--n", 10, "--out", out],
            "spectrum": ["spectrum", "--model", path, "--out", out],
            "approximate": ["approximate", "--target", path, "--eps", 0.05,
                            "--kind", "ma", "--out", out]}[name]


def _entry(l):
    return {"l": l, "ar": [0.5], "ma": [], "noise": 1.0}


class TestMalformedInputs:
    @pytest.mark.parametrize("ls", [(0, 2), (0, -1), (0, 0)],
                             ids=["above-band", "negative", "repeated"])
    @pytest.mark.parametrize("command", ["simulate", "approximate"])
    def test_bad_multipole_index_exits_2(self, tmp_path, command, ls, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"schema": 1, "band_limit": 1,
                                    "entries": [_entry(l) for l in ls]}))
        out = tmp_path / "out"
        assert run(*_command(command, path, out)) == cli.EXIT_INPUT
        assert not out.exists()
        assert "exactly once" in capsys.readouterr().err

    @pytest.mark.parametrize("band_limit, ls", [(1, (0, 2)), (3, (0, 0))],
                             ids=["l-above-band", "repeated-l"])
    def test_rational_spectrum_bad_multipole_index_exits_2(self, tmp_path,
                                                           band_limit, ls):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"schema": 1, "form": "rational",
                                    "band_limit": band_limit, "tail_bound": 0.0,
                                    "rational": [_entry(l) for l in ls]}))
        out = tmp_path / "out"
        assert run(*_command("approximate", path, out)) == cli.EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("command, payload, message", [
        ("approximate", [1, 2], "not a JSON object"),
        ("approximate", "abc", "not a JSON object"),
        ("approximate", {"schema": 1, "band_limit": 0, "tail_bound": 0.0},
         "invalid spectral target: missing key 'form'\n"),
        ("simulate", {"schema": 1, "form": "rational", "band_limit": 0,
                      "tail_bound": 0.0, "rational": [_entry(0)]},
         "invalid model: missing key 'entries'\n"),
        ("simulate", {"band_limit": 0, "entries": 5},
         "invalid model: entries must be a JSON list, got 5\n"),
        ("simulate", {"band_limit": 0, "entries": {"l": 0}},
         "invalid model: entries must be a JSON list, got {'l': 0}\n"),
        ("simulate", {"band_limit": 0, "entries": [5]},
         "invalid model: model entry must be a JSON object, got 5\n")],
        ids=["list", "string", "no-form", "spectrum-as-model", "entries-number",
             "entries-object", "entry-number"])
    def test_target_not_an_object_exits_2(self, tmp_path, command, payload,
                                          message, capsys):
        path = tmp_path / "target.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert run(*_command(command, path, out)) == cli.EXIT_INPUT
        assert not out.exists()
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model"],
        ["approximate", "--eps", 0.05, "--kind", "ar", "--target"],
        ["approximate", "--eps", 0.05, "--kind", "ma", "--target"]],
        ids=["spectrum", "approximate-ar", "approximate-ma"])
    def test_overflowing_autocovariances_exit_2(self, tmp_path, argv, capsys):
        # C_l(0) = 1e308 / (1 - 0.81) overflows, so the model has no lag table
        # and the refusal comes before any numpy warning
        path = tmp_path / "model.json"
        SpharmaModel.uniform(1, ar=[0.9], noise=1e308).save(path)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv, path, "--out", out) == cli.EXIT_INPUT
        assert not out.exists()
        assert "autocovariances must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model"],
        ["simulate", "--n", 10, "--model"],
        ["approximate", "--eps", 0.05, "--kind", "ar", "--target"],
        ["approximate", "--eps", 0.05, "--kind", "ma", "--target"]],
        ids=["spectrum", "simulate", "approximate-ar", "approximate-ma"])
    def test_root_inside_the_margin_exits_2(self, tmp_path, argv, capsys):
        # an AR root of modulus 1 + 5e-7 < 1 + 1e-6: one rule refuses the
        # model wherever it is read, before anything is printed
        path = tmp_path / "model.json"
        SpharmaModel.uniform(1, ar=[1.0 / (1.0 + 5e-7)]).save(path)
        out = tmp_path / "out"
        assert run(*argv, path, "--out", out) == cli.EXIT_INPUT
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "model is not causal at multipoles [0, 1]" in captured.err

    @pytest.mark.parametrize("gap", [1e-4, 1e-5, 2e-4])
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model"],
        ["approximate", "--eps", 0.01, "--kind", "ar", "--target"],
        ["simulate", "--n", 10, "--model"]],
        ids=["spectrum", "approximate-ar", "simulate"])
    def test_near_unit_ar_root_exits_2(self, tmp_path, argv, gap, capsys):
        # a triple AR root at 1 + gap passes the root rule, but its density
        # vanishes on the circle in float64 (gap 1e-4), its lag system is
        # singular (gap 1e-5) or solves to a negative C(0) (gap 2e-4): one
        # message each time, from simulate too, whose exact start reads the
        # lags, and nothing on stdout
        r = 1.0 + gap
        path = tmp_path / "model.json"
        SpharmaModel.uniform(1, ar=[3 / r, -3 / r**2, 1 / r**3]).save(path)
        out = tmp_path / "out"
        assert run(*argv, path, "--out", out) == cli.EXIT_INPUT
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "AR polynomial vanishes on the unit circle" in captured.err

    @pytest.mark.parametrize("form", ["rational", "tabulated"])
    @pytest.mark.parametrize("tail", ["NaN", "Infinity"])
    def test_non_finite_tail_bound_exits_2(self, tmp_path, form, tail, capsys):
        lam = spharma.frequency_grid(64)
        payload = {"schema": 1, "form": form, "band_limit": 0, "tail_bound": 0.0}
        if form == "rational":
            payload["rational"] = [_entry(0)]
        else:
            f = SpharmaModel.uniform(0, ar=[0.5]).spectral().values(lam)
            payload.update(lambda_grid=lam.tolist(), f=f.tolist())
        path = tmp_path / "target.json"
        # the JSON module writes and reads NaN and Infinity as bare tokens
        path.write_text(json.dumps(payload).replace('"tail_bound": 0.0',
                                                    f'"tail_bound": {tail}'))
        out = tmp_path / "out"
        assert run(*_command("approximate", path, out)) == cli.EXIT_INPUT
        assert not out.exists()
        err = capsys.readouterr().err
        assert "invalid spectral target" in err and "Traceback" not in err

    @pytest.mark.parametrize("form, key, bad", [
        ("rational", "tail_bound", "0.001"), ("rational", "tail_bound", False),
        ("rational", "tail_bound", [0.1]),
        ("tabulated", "tail_bound", "0.001"), ("tabulated", "tail_bound", False),
        ("tabulated", "f", "strings"), ("tabulated", "lambda_grid", "strings")],
        ids=["rational-string-tail", "rational-bool-tail", "rational-list-tail",
             "tabulated-string-tail",
             "tabulated-bool-tail", "string-f", "string-lambda-grid"])
    def test_non_number_in_spectral_target_exits_2(self, tmp_path, form, key, bad,
                                                   capsys):
        # float() and np.asarray(..., dtype=float) would read each as a number
        lam = spharma.frequency_grid(64)
        payload = {"schema": 1, "form": form, "band_limit": 0, "tail_bound": 0.0}
        if form == "rational":
            payload["rational"] = [_entry(0)]
        else:
            f = SpharmaModel.uniform(0, ar=[0.5]).spectral().values(lam)
            payload.update(lambda_grid=lam.tolist(), f=f.tolist())
        if bad == "strings":
            bad = np.asarray(payload[key]).astype(str).tolist()
        payload[key] = bad
        path = tmp_path / "target.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert run(*_command("approximate", path, out)) == cli.EXIT_INPUT
        assert not out.exists()
        err = capsys.readouterr().err
        assert "invalid spectral target" in err and "must be a JSON number" in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_table_entry_exits_2(self, tmp_path, bad, capsys):
        lam = spharma.frequency_grid(64)
        f = SpharmaModel.uniform(0, ar=[0.5]).spectral().values(lam)
        f[0, 7] = bad
        path = tmp_path / "tab.json"
        path.write_text(json.dumps({"schema": 1, "form": "tabulated",
                                    "band_limit": 0, "tail_bound": 0.0,
                                    "lambda_grid": lam.tolist(), "f": f.tolist()}))
        out = tmp_path / "out"
        assert run(*_command("approximate", path, out)) == cli.EXIT_INPUT
        assert not out.exists()
        err = capsys.readouterr().err
        assert "invalid spectral target" in err and "finite" in err

    def test_tabulated_band_limit_mismatch_exits_2(self, tmp_path):
        lam = spharma.frequency_grid(64)
        # a band limit above the rows, and ones that int() would truncate
        for k, (band_limit, rows) in enumerate([(5, 2), (0.5, 1), (True, 2)]):
            f = SpharmaModel.uniform(rows - 1, ar=[0.5]).spectral().values(lam)
            path = tmp_path / f"tab{k}.json"
            path.write_text(json.dumps({"schema": 1, "form": "tabulated",
                                        "band_limit": band_limit, "tail_bound": 0.0,
                                        "lambda_grid": lam.tolist(),
                                        "f": f.tolist()}))
            out = tmp_path / f"out{k}"
            assert run(*_command("approximate", path, out)) == cli.EXIT_INPUT
            assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "spectrum", "approximate"])
    def test_nan_noise_is_reported_as_not_finite(self, tmp_path, command, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"schema": 1, "band_limit": 0, "entries": [
            {"l": 0, "ar": [], "ma": [], "noise": float("nan")}]}))
        out = tmp_path / "out"
        assert run(*_command(command, path, out)) == cli.EXIT_INPUT
        assert not out.exists()
        err = capsys.readouterr().err
        assert "finite" in err and "missing" not in err

    @pytest.mark.parametrize("band_limit, entries", [
        (0, 5), (0, [{"l": None, "ar": [], "ma": [], "noise": 1.0}]), (-1, []),
        (0, [{"l": 0, "ar": [], "ma": [], "noise": float("inf")}]),
        (0, [{"l": 0, "ar": 0.5, "ma": [], "noise": 1.0}]),
        (0, [{"l": 0, "ar": [], "ma": 0.3, "noise": 1.0}]),
        (1.9, [_entry(0), _entry(1)]), (True, [_entry(0), _entry(1)]),
        (1, [_entry(0.7), _entry(1.2)]), (1, [_entry(0), _entry(True)]),
        (0, [_entry("0")]), (0, [{"l": 0, "ar": [], "ma": [], "noise": "2"}]),
        (0, [{"l": 0, "ar": ["0.5"], "ma": [], "noise": 1.0}]),
        (0, [{"l": 0, "ar": [], "ma": [True], "noise": 1.0}]),
        (0, [{"l": 0, "ar": [], "ma": [], "noise": 10**400}]),
        (0, [{"l": 0, "ar": [], "ma": [], "noise": [1.0]}])],
        ids=["entries-number", "l-null", "negative-band-limit", "infinite-noise",
             "scalar-ar", "scalar-ma", "float-band-limit", "bool-band-limit",
             "float-l", "bool-l", "string-l", "string-noise", "string-ar",
             "bool-ma", "huge-int-noise", "list-noise"])
    @pytest.mark.parametrize("command", ["simulate", "spectrum", "approximate"])
    def test_malformed_model_json_exits_2(self, tmp_path, command, band_limit,
                                          entries, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"schema": 1, "band_limit": band_limit,
                                    "entries": entries}))
        out = tmp_path / "out"
        assert run(*_command(command, path, out)) == cli.EXIT_INPUT
        assert not out.exists()
        err = capsys.readouterr().err
        assert "invalid" in err and "Traceback" not in err
