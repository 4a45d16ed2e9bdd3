"""Acceptance suite: every criterion at its stated tolerance and runtime.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import math
import time

import numpy as np

from spharma import approx, simulate, spectral, sphere
from spharma.model import (
    SpharmaModel,
    model_autocovariance,
    model_autocovariance_table,
    psi_coefficients,
)
from spharma.spectral import frequency_grid

from oracles import (ckl_truncation_error, integrate, legendre_all, sht_forward,
                     spectral_distance, wold)

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


class _Stopwatch:
    def __init__(self, label, limit_s):
        self.label = label
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.label} ({elapsed:.2f}s / limit {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.label}: runtime {elapsed:.1f}s over budget"
        return False


def random_lag_poly(rng, max_order, min_root=1.25, max_root=3.0):
    """Ascending coefficients of a random polynomial with c(0)=1 and all
    roots of modulus in [min_root, max_root]."""
    order = int(rng.integers(0, max_order + 1))
    coeffs = np.array([1.0])
    budget = order
    while budget > 0:
        if budget >= 2 and rng.random() < 0.5:
            r = rng.uniform(min_root, max_root)
            w = rng.uniform(0.0, math.pi)
            factor = np.array([1.0, -2.0 * math.cos(w) / r, 1.0 / r**2])
            budget -= 2
        else:
            r = rng.uniform(min_root, max_root) * rng.choice([-1.0, 1.0])
            factor = np.array([1.0, -1.0 / r])
            budget -= 1
        coeffs = np.convolve(coeffs, factor)
    return coeffs


def long_division_oracle(phi, theta, count):
    """Schoolbook long division of theta(z) by phi(z) up to z^count."""
    divisor = np.r_[1.0, -np.asarray(phi, dtype=float)]
    remainder = np.zeros(count + len(divisor) + 1)
    remainder[: len(theta) + 1] = np.r_[1.0, theta]
    quotient = np.empty(count + 1)
    for j in range(count + 1):
        quotient[j] = remainder[j]
        remainder[j : j + len(divisor)] -= quotient[j] * divisor
    return quotient


def pooled_cell_estimate(block, t, n_batches=200):
    """Mean and batch-means SE of the lag-t moment pooled over orders."""
    n = block.shape[1]
    prods = (block[:, t:] * block[:, : n - t]).mean(axis=0)
    return float(prods.mean()), simulate.batch_means_se(prods, n_batches)


def test_criterion_01_sphar1_closed_form():
    with _Stopwatch("criterion 1: SPHAR(1) spectral density closed form", 1.0):
        rng = np.random.default_rng(1001)
        n_models, n_freqs = 100, 100
        worst = 0.0
        for _ in range(n_models):
            L = 0
            phi = rng.uniform(-0.95, 0.95)
            cz = rng.uniform(0.1, 10.0)
            m = SpharmaModel(L, [np.array([phi])], [np.empty(0)], np.array([cz]))
            lam = rng.uniform(-math.pi, math.pi, n_freqs)
            got = m.spectral().values(lam)[0]
            expected = cz / (TWO_PI * (1.0 - 2.0 * phi * np.cos(lam) + phi**2))
            # 1e-12 agreement, read relative where the density exceeds 1
            scaled = np.abs(got - expected) / np.maximum(1.0, np.abs(expected))
            worst = max(worst, float(scaled.max()))
        assert worst < 1e-12, f"max deviation {worst:.3e}"


def test_criterion_02_fourier_pair_identity():
    with _Stopwatch("criterion 2: spectral/autocovariance inversion pair", 5.0):
        rng = np.random.default_rng(1002)
        max_lag = 50
        t = np.arange(max_lag + 1)
        worst = 0.0
        for trial in range(10):
            L = 3
            amps = rng.uniform(0.5, 2.0, L + 1)
            ratios = rng.uniform(-0.9, 0.9, L + 1)
            if trial == 0:
                ratios[:2] = [0.9, -0.9]  # exercise the stated edge ratio
            vals = amps[:, None] * ratios[:, None] ** t[None, :]
            import warnings as _w

            with _w.catch_warnings():
                _w.simplefilter("ignore")
                spec = spectral.spectral_from_autocov(vals)
            back = spectral.autocov_table(spec, max_lag)
            worst = max(worst, float(np.abs(back - vals).max()))
        assert worst < 1e-8, f"roundtrip error {worst:.3e}"


def test_criterion_03_psi_expansion_oracle():
    with _Stopwatch("criterion 3: psi expansion vs long-division oracle", 1.0):
        rng = np.random.default_rng(1003)
        count = 40
        worst = 0.0
        for _ in range(100):
            phi = -random_lag_poly(rng, 5)[1:]
            theta = random_lag_poly(rng, 5)[1:]
            m = SpharmaModel(0, [phi], [theta], np.array([1.0]))
            psi = psi_coefficients(m, 0, count)
            oracle = long_division_oracle(phi, theta, count)
            worst = max(worst, float(np.abs(psi - oracle).max()))
        assert worst < 1e-12, f"max deviation {worst:.3e}"


def test_criterion_04_harmonic_analysis():
    with _Stopwatch("criterion 4: addition theorem, SHT roundtrip, Parseval", 30.0):
        L = 64
        rng = np.random.default_rng(1004)

        worst_add = 0.0
        for _ in range(20):
            t1, t2 = np.arccos(rng.uniform(-1, 1, 2))
            p1, p2 = rng.uniform(0, TWO_PI, 2)
            Y1 = sphere.harmonic_values_at(L, t1, p1)
            Y2 = sphere.harmonic_values_at(L, t2, p2)
            c = (math.cos(t1) * math.cos(t2)
                 + math.sin(t1) * math.sin(t2) * math.cos(p1 - p2))
            P = legendre_all(L, c)
            for l in range(L + 1):
                block = slice(l * l, (l + 1) ** 2)
                lhs = float(Y1[block] @ Y2[block])
                rhs = (2 * l + 1) / FOUR_PI * P[l]
                worst_add = max(worst_add, abs(lhs - rhs))
        assert worst_add < 1e-10, f"addition theorem residual {worst_add:.3e}"

        grid = sphere.build_grid(L)
        coeffs = rng.standard_normal((L + 1) ** 2)
        field = sphere.sht_inverse(coeffs, grid)
        back = sht_forward(field)
        rt = float(np.abs(back - coeffs).max())
        assert rt < 1e-10, f"roundtrip error {rt:.3e}"

        energy = float((coeffs**2).sum())
        pv = abs(integrate(grid, field.values**2) - energy)
        assert pv < 1e-10 * max(1.0, energy), f"Parseval residual {pv:.3e}"


def test_criterion_05_monte_carlo_second_order():
    with _Stopwatch("criterion 5: SPHARMA(1,1) empirical vs exact moments", 120.0):
        L, n, t_max = 8, 200000, 5
        ls = np.arange(L + 1)
        model = SpharmaModel(
            L,
            [np.array([0.6 - 0.05 * l]) for l in ls],
            [np.array([0.4 - 0.03 * l]) for l in ls],
            2.0 / (1.0 + ls),
        )
        series = simulate.simulate_spharma(model, simulate.SimulationConfig(seed=555, n=n))
        hits = 0
        for l in ls:
            block = series.block(l)
            exact = model_autocovariance(model, l, t_max)
            for t in range(t_max + 1):
                est, se = pooled_cell_estimate(block, t)
                if abs(est - exact[t]) <= 3.0 * se:
                    hits += 1
        total = (L + 1) * (t_max + 1)
        assert hits >= math.ceil(0.95 * total), f"only {hits}/{total} cells within 3 SE"


def _run_operator_approximation(target, kind, eps_values):
    orders = []
    for eps in eps_values:
        for norm in ("l2_kernel", "trace"):
            fitted, cert = approx.approximate_operator(target, eps, kind, norm=norm)
            assert cert["passed"], f"{kind} eps={eps} norm={norm} failed: " \
                f"l2={cert['total_l2']:.3e} trace={cert['total_trace']:.3e}"
            refined = spectral_distance(
                target, fitted.spectral(), norm, lams=frequency_grid(4 * 4096))
            assert refined <= eps * 1.01, \
                f"refined-grid error {refined:.3e} above eps {eps}"
            if norm == "l2_kernel":
                orders.append(cert["order"])
    assert orders == sorted(orders), f"orders not weakly increasing: {orders}"


def test_criterion_06_ma_construction():
    with _Stopwatch("criterion 6: certified MA approximation of SPHAR(1)", 60.0):
        L = 8
        ls = np.arange(L + 1)
        target = SpharmaModel(
            L, [np.array([0.6 / (1.0 + l)]) for l in ls],
            [np.empty(0)] * (L + 1), 1.0 / (1.0 + ls) ** 2).spectral()
        _run_operator_approximation(target, "ma", (0.1, 0.03, 0.01))


def test_criterion_07_ar_construction():
    with _Stopwatch("criterion 7: certified AR approximation of SPHMA(1)", 60.0):
        L = 8
        ls = np.arange(L + 1)
        target = SpharmaModel(
            L, [np.empty(0)] * (L + 1),
            [np.array([0.5 / (1.0 + l)]) for l in ls],
            1.0 / (1.0 + ls) ** 2).spectral()
        _run_operator_approximation(target, "ar", (0.1, 0.03, 0.01))


def test_criterion_08_wold_identity():
    with _Stopwatch("criterion 8: Wold factorization reproduces the density", 30.0):
        lam = frequency_grid(1024)
        targets = [
            SpharmaModel.uniform(3, ar=[0.8], noise=1.0),
            SpharmaModel.uniform(3, ma=[0.5, 0.2], noise=0.7),
            SpharmaModel.uniform(3, ar=[0.45, 0.2], ma=[0.3], noise=1.3),
            SpharmaModel.uniform(3, ar=[-0.7], ma=[0.4], noise=2.0),
        ]
        worst = 0.0
        for m in targets:
            from spharma.model import check_causal, check_invertible

            for rep in (check_causal(m), check_invertible(m)):
                assert rep.min_root_modulus >= 1.2
            acv = model_autocovariance_table(m, 360)
            w, _ = wold(acv, 120)
            err = np.abs(w.spectral().values(lam) - m.spectral().values(lam)).max()
            worst = max(worst, float(err))
        assert worst < 1e-4, f"sup error {worst:.3e}"


def test_criterion_09_l2_reconstruction_tail():
    with _Stopwatch("criterion 9: reconstruction error vs Wold tail", 120.0):
        L = 4
        true_model = SpharmaModel.uniform(L, ar=[0.5], ma=[0.3], noise=1.0)
        qs = (1, 2, 4, 8)
        results = []
        psi = approx.spectral_factor(true_model.spectral())
        c0 = model_autocovariance_table(true_model, 0)[:, 0]
        for q in qs:
            ma, noise = [], np.empty(L + 1)
            for l in range(L + 1):
                theta, s2 = approx.fit_ma(psi[l], c0[l], q)
                ma.append(theta)
                noise[l] = s2
            fitted = SpharmaModel(L, [np.empty(0)] * (L + 1), ma, noise)
            results.append(approx.l2_omega_error(true_model, fitted))

        for a, b in zip(results, results[1:]):
            assert b <= a, "error not monotone"

        for q, err in zip(qs, results):
            tail = 0.0
            for l in range(L + 1):
                psi = psi_coefficients(true_model, l, 300)
                tail += (2 * l + 1) * true_model.noise[l] * (psi[q + 1 :] @ psi[q + 1 :])
            assert err <= tail, \
                f"q={q}: error {err:.3e} above tail bound {tail:.3e}"


def test_criterion_10_ckl_truncation_error():
    with _Stopwatch("criterion 10: realized vs predicted truncation error", 120.0):
        L, n = 8, 40000
        ls = np.arange(L + 1)
        model = SpharmaModel(
            L, [np.array([0.5 - 0.04 * l]) for l in ls],
            [np.empty(0)] * (L + 1), 1.5 / (1.0 + ls) ** 2)
        series = simulate.simulate_spharma(model, simulate.SimulationConfig(seed=777, n=n))
        spec = model.spectral()
        node = (1.1, 2.4)
        Y = sphere.harmonic_values_at(L, *node)
        for l_cut in (2, 4, 6):
            flat = np.where(np.arange((L + 1) ** 2) >= (l_cut + 1) ** 2, Y, 0.0)
            err = (flat @ series.values) ** 2
            realized = float(err.mean())
            se = simulate.batch_means_se(err, 100)
            predicted = ckl_truncation_error(spec, l_cut)
            assert abs(realized - predicted) <= 3.0 * se, \
                f"L={l_cut}: realized {realized:.4e} vs predicted {predicted:.4e} " \
                f"(3SE {3*se:.2e})"
