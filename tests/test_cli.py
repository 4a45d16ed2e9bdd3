import ast
import csv
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import spharma
from spharma import approx, cli, simulate
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

    # the empirical lags of a short series need not decay by lag 20
    @pytest.mark.filterwarnings("ignore:stored autocovariances do not decay")
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

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_n_exits_2(self, tmp_path, model_path, n, capsys):
        out = tmp_path / "x"
        assert run("simulate", "--model", model_path, "--n", n,
                   "--out", out) == cli.EXIT_INPUT
        assert not out.exists()
        assert "n must be at least 1" in capsys.readouterr().err

    def test_missing_model_exits_2(self, tmp_path):
        code = run("simulate", "--model", tmp_path / "nope.json", "--n", 10,
                   "--out", tmp_path / "x")
        assert code == cli.EXIT_INPUT

    def test_snapshot_csv(self, tmp_path, model_path):
        out = tmp_path / "run"
        code = run("simulate", "--model", model_path, "--n", 20, "--seed", 1,
                   "--out", out, "--snapshots", "0,5")
        assert code == cli.EXIT_OK
        with open(out / "field_t5.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {"colat", "lon", "value"} == set(rows[0])

    def test_snapshot_out_of_range_writes_nothing(self, tmp_path, model_path):
        out = tmp_path / "run"
        code = run("simulate", "--model", model_path, "--n", 20, "--seed", 1,
                   "--out", out, "--snapshots", "0,20")
        assert code == cli.EXIT_INPUT
        assert not (out / "series.bin").exists()

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
                assert float(row["C"]) == acv.values[int(row["l"]), int(row["t"])]

    def test_lmax_truncates(self, tmp_path, model_path):
        out = tmp_path / "run"
        code = run("simulate", "--model", model_path, "--n", 16, "--seed", 1,
                   "--lmax", 1, "--out", out)
        assert code == cli.EXIT_OK
        series = simulate.HarmonicCoefficientSeries.load(out / "series.bin")
        assert series.band_limit == 1

    @pytest.mark.filterwarnings("ignore::UserWarning")
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
                expect = acv.values[int(row["l"]), int(row["t"])]
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
        # lags are fetched as deep as the escalation goes, not as deep as the
        # cap would allow (149 GiB of lags at this cap)
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

    def test_negative_order_cap_exits_2(self, tmp_path, model_path, capsys):
        out = tmp_path / "fit"
        code = run("approximate", "--target", model_path, "--eps", 0.05,
                   "--kind", "ma", "--order-cap", -1, "--out", out)
        assert code == cli.EXIT_INPUT
        assert not out.exists()
        assert "order_cap must be nonnegative" in capsys.readouterr().err

    def test_non_invertible_ma_orders_are_skipped(self, tmp_path):
        # psi_1 = 1.2 makes the order-1 innovations fit non-invertible; the
        # escalation moves past it instead of ending in a traceback
        target = tmp_path / "arma.json"
        SpharmaModel.uniform(2, ar=[0.8], ma=[0.4], noise=1.0).save(target)
        out = tmp_path / "fit"
        code = run("approximate", "--target", target, "--eps", 0.01,
                   "--kind", "ma", "--out", out)
        assert code in (cli.EXIT_OK, cli.EXIT_BUDGET)
        cert = json.loads((out / "certificate.json").read_text())
        assert all(row["order"] != 1 for row in cert["per_multipole"])

    def test_lags_not_positive_definite_stop_both_kinds(self, tmp_path):
        # f = 1 on |lambda| < 0.5 has spectral zeros: its lags stop being
        # positive definite, which ends both escalations at the first order
        # whose recursion fails, with the best fit so far, order 0
        lam = spharma.frequency_grid()
        target = tmp_path / "box.json"
        spharma.SpectralEigenvalues.tabulated(
            lam, (np.abs(lam) < 0.5).astype(float)[None, :]).save(target)
        certs, models = {}, {}
        for kind in ("ar", "ma"):
            out = tmp_path / kind
            assert run("approximate", "--target", target, "--eps", 0.05,
                       "--kind", kind, "--out", out) == cli.EXIT_BUDGET
            models[kind] = (out / "fitted_model.json").read_bytes()
            cert = json.loads((out / "certificate.json").read_text())
            assert cert.pop("kind") == kind
            del cert["config_hash"]
            certs[kind] = cert
        assert certs["ar"] == certs["ma"]
        assert certs["ma"]["order"] == 0 and not certs["ma"]["passed"]
        assert models["ar"] == models["ma"]

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

    def test_trended_series_fails_stationarity(self, tmp_path, model_path):
        run_dir = tmp_path / "run"
        run("simulate", "--model", model_path, "--n", 4096, "--seed", 17,
            "--out", run_dir)
        series = simulate.HarmonicCoefficientSeries.load(run_dir / "series.bin")
        trended = series.values + 0.002 * np.arange(series.n)[None, :]
        simulate.HarmonicCoefficientSeries(
            series.band_limit, trended, series.provenance
        ).save(run_dir / "trended.bin")
        code = run("verify", "--series", run_dir / "trended.bin",
                   "--checks", "stationarity")
        assert code == cli.EXIT_VERIFY

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

    def test_missing_series_exits_2(self, tmp_path):
        code = run("verify", "--series", tmp_path / "nope.bin")
        assert code == cli.EXIT_INPUT

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
    ("simulate", "--n", 10, "--burn-in", 10**12),
    ("spectrum", "--max-lag", 10**12),
    ("spectrum", "--n-lambda", 10**12),
], ids=["simulate-n", "simulate-burn-in", "spectrum-max-lag", "spectrum-n-lambda"])
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
        "ApproximationCertificate", "AutocovarianceSpectrum", "CausalityReport",
        "CramerReport", "FieldSnapshot", "HarmonicCoefficientSeries",
        "SimulationConfig", "SpectralEigenvalues", "SpharmaModel", "SphereGrid",
        "approx", "approximate_operator", "autocov_table", "batch_means_se",
        "build_grid", "check_causal", "check_coprime", "check_invertible",
        "ckl_truncation_error", "durbin_levinson", "empirical_autocov", "fit_ar",
        "fit_ma", "frequency_grid", "h_step_error", "l2_omega_error",
        "lag_polynomial_roots", "legendre_all", "model", "model_autocovariance",
        "model_autocovariance_table", "operator_trace_norm", "psi_coefficients",
        "sht_forward", "sht_inverse", "simulate", "simulate_spharma",
        "simulate_white_noise", "spectral", "spectral_from_autocov", "sphere",
        "synthesize_field", "verify_cramer_orthogonality", "wold"]
    # spectral.py imports nothing from sphere.py
    tree = ast.parse(inspect.getsource(spharma.spectral))
    imported = {f"{node.module or ''}.{alias.name}" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not [name for name in imported if "sphere" in name.split(".")], imported


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

    @pytest.mark.parametrize("payload", [[1, 2], "abc"], ids=["list", "string"])
    def test_target_not_an_object_exits_2(self, tmp_path, payload, capsys):
        path = tmp_path / "target.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert run(*_command("approximate", path, out)) == cli.EXIT_INPUT
        assert not out.exists()
        err = capsys.readouterr().err
        assert "not a JSON object" in err and "Traceback" not in err

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
