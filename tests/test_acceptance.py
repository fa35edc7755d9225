"""Acceptance gate: eight criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Each
criterion states its own tolerance and runtime budget; oracle values come from
the independent implementations in tests/oracles.py.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from copuladyn import (
    ReturnMatrix,
    SynthSpec,
    TradingCalendar,
    average_gaussian_density,
    average_pairwise_density,
    bivariate_normal_cdf,
    difference_map,
    empirical_copula_density,
    gaussian_copula_cdf,
    gaussian_grid,
    lower_tail,
    pearson_matrix,
    sample_panel,
    std_normal_quantile,
    synthetic_timestamps,
    windowed_reports,
)
from oracles import bvn_cdf_dblquad, loop_cumulative, loop_density_counts


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def _tie_prone_series(rng, t):
    """Continuous or rounded (tie-heavy) draws, biased toward ties."""
    raw = rng.normal(size=t)
    style = rng.integers(0, 3)
    if style == 0:
        return raw
    if style == 1:
        return np.round(raw, 1)
    return np.round(raw * 2.0) / 2.0


@pytest.mark.filterwarnings("ignore:sample length")
def test_criterion_1_brute_force_equivalence(rng):
    t0 = time.perf_counter()
    worst = 0
    for _ in range(200):
        t = int(rng.integers(2, 51))
        m = int(rng.integers(2, 6))
        r1 = _tie_prone_series(rng, t)
        r2 = _tie_prone_series(rng, t)
        grid = empirical_copula_density(r1, r2, m)
        counts = np.asarray(loop_density_counts(list(r1), list(r2), m))
        # compare after the same single division the estimator performs
        if not np.array_equal(grid.density, counts / t):
            worst += 1
            continue
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if grid.cumulative[i, j] != loop_cumulative(list(r1), list(r2), i / m, j / m):
                    worst += 1
    elapsed = time.perf_counter() - t0
    ok = worst == 0 and elapsed < 5.0
    _report(1, ok, f"200 instances, {worst} mismatches, {elapsed:.2f}s < 5s")


def test_criterion_2_gaussian_self_consistency():
    t0 = time.perf_counter()
    t_len = 100_000
    mat = sample_panel(SynthSpec(kind="gaussian", assets=10, length=t_len,
                                 seed=20070102, correlation=0.5))
    emp = average_pairwise_density(mat, 50)
    corr = pearson_matrix(mat)
    ref = average_gaussian_density(corr, 50)
    diff = difference_map(emp, corr)
    assert np.array_equal(diff.values, emp.density - ref.density)
    sigma = np.sqrt(ref.density * (1.0 - ref.density) / t_len)
    z = np.abs(diff.values) / sigma
    frac3 = float((z <= 3.0).mean())
    n5 = int((z > 5.0).sum())
    elapsed = time.perf_counter() - t0
    ok = frac3 >= 0.99 and n5 == 0 and elapsed < 120.0
    _report(2, ok, f"{frac3:.2%} cells within 3 sigma (need >= 99%), "
                   f"{n5} beyond 5 sigma (need 0), max |z| = {z.max():.2f}, "
                   f"{elapsed:.1f}s < 120s")


def test_criterion_3_bivariate_normal_accuracy(rng):
    t0 = time.perf_counter()
    worst_arcsin = 0.0
    for c in np.linspace(-1.0, 1.0, 21):
        closed = 0.25 + math.asin(float(c)) / (2.0 * math.pi)
        worst_arcsin = max(worst_arcsin, abs(bivariate_normal_cdf(0.0, 0.0, float(c)) - closed))
    worst_quad = 0.0
    for _ in range(100):
        x, y = rng.uniform(-3.5, 3.5, size=2)
        c = float(rng.uniform(-0.99, 0.99))
        gap = abs(bivariate_normal_cdf(float(x), float(y), c) - bvn_cdf_dblquad(float(x), float(y), c))
        worst_quad = max(worst_quad, gap)
    elapsed = time.perf_counter() - t0
    ok = worst_arcsin < 1e-9 and worst_quad < 1e-6 and elapsed < 30.0
    _report(3, ok, f"arcsin worst {worst_arcsin:.2e} < 1e-9, "
                   f"oracle worst {worst_quad:.2e} < 1e-6, {elapsed:.1f}s < 30s")


def test_criterion_4_tail_dependence_oracles():
    alphas = (0.02, 0.04, 0.1, 0.25)
    worst = 0.0
    for c in (0.0, 0.3, 0.5, 0.8):
        grid = gaussian_grid(c, 100)  # every alpha lands on a node
        for a in alphas:
            q = float(std_normal_quantile(a))
            oracle = bvn_cdf_dblquad(q, q, c)
            worst = max(worst, abs(lower_tail(grid, a) - oracle))
    worst_mono = max(
        abs(lower_tail(gaussian_grid(1.0, 100), a) - a) for a in alphas)
    worst_ind = max(
        abs(lower_tail(gaussian_grid(0.0, 100), a) - a * a) for a in alphas)
    ok = worst < 1e-6 and worst_mono < 1e-12 and worst_ind < 1e-12
    _report(4, ok, f"oracle worst {worst:.2e} < 1e-6, comonotone gap "
                   f"{worst_mono:.1e}, independence gap {worst_ind:.1e}")


def test_criterion_5_frechet_and_uniformity(rng):
    t0 = time.perf_counter()
    failures = 0
    for trial in range(1000):
        t = int(rng.integers(20, 301))
        m = int(rng.integers(2, 11))
        r1 = rng.normal(size=t)
        r2 = 0.5 * r1 + rng.normal(size=t)
        if trial % 2 == 1:
            # heavy ties: roughly half of each series exactly zero
            r1[rng.random(t) < 0.5] = 0.0
            r2[rng.random(t) < 0.5] = 0.0
        grid = empirical_copula_density(r1, r2, m)
        tie1 = int(np.max(np.unique(r1, return_counts=True)[1]))
        tie2 = int(np.max(np.unique(r2, return_counts=True)[1]))
        slack = max(tie1, tie2) / t + 1e-12
        cum = grid.cumulative
        nodes = np.arange(m + 1) / m
        upper = np.minimum.outer(nodes, nodes) + slack
        lower = np.maximum(np.add.outer(nodes, nodes) - 1.0, 0.0) - 1e-12
        ok_nodes = np.all(cum >= lower) and np.all(cum <= upper)
        rows = grid.density.sum(axis=1)
        cols = grid.density.sum(axis=0)
        ok_margins = (np.max(np.abs(rows - 1.0 / m)) <= slack
                      and np.max(np.abs(cols - 1.0 / m)) <= slack)
        ok_total = abs(grid.density.sum() - 1.0) <= 1e-12
        ok_shape = (np.all(np.diff(cum, axis=0) >= 0.0)
                    and np.all(np.diff(cum, axis=1) >= 0.0)
                    and np.all(cum[0, :] == 0.0) and np.all(cum[:, 0] == 0.0)
                    and cum[m, m] == 1.0 and np.all(grid.density >= 0.0))
        if not (ok_nodes and ok_margins and ok_total and ok_shape):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0
    _report(5, ok, f"1000 pairs (half with ~50% zeros), {failures} violations, "
                   f"{elapsed:.1f}s")


def test_criterion_6_rank_invariance(rng):
    failures = 0
    for _ in range(100):
        t = int(rng.integers(50, 501))
        m = int(rng.integers(2, 51))
        r1 = rng.normal(size=t)
        r2 = 0.3 * r1 + rng.normal(size=t)
        base = empirical_copula_density(r1, r2, m)
        mapped = empirical_copula_density(np.exp(r1), r2 ** 3 + r2, m)
        if not (np.array_equal(base.density, mapped.density)
                and np.array_equal(base.cumulative, mapped.cumulative)):
            failures += 1
    ok = failures == 0
    _report(6, ok, f"100 pairs under exp / cubic maps, {failures} grids differ")


def test_criterion_7_dynamics_two_regime(tmp_path):
    t0 = time.perf_counter()
    k_assets, days, per_day = 5, 1000, 13
    t_len = days * per_day
    gen = np.random.default_rng(20070102)

    def block(c, n):
        common = gen.standard_normal(n)
        noise = gen.standard_normal((k_assets, n))
        return math.sqrt(c) * common[None, :] + math.sqrt(1.0 - c) * noise

    half = t_len // 2  # day 500 boundary, aligned with the 10-day windows
    data = np.hstack([block(0.2, half), block(0.7, t_len - half)])
    stamps, dates = synthetic_timestamps(TradingCalendar(), "2007-01-03", t_len, 30)
    mat = ReturnMatrix(asset_ids=[f"S{k}" for k in range(k_assets)], interval=30,
                       returns=data, timestamps=stamps, session_dates=dates)
    reports = windowed_reports(mat, 10, 50, (0.1,))
    lam = np.array([r.tail.lower[0] for r in reports])
    cbar = np.array([r.mean_correlation for r in reports])
    lgauss = np.array([r.gaussian_tail.lower[0] for r in reports])
    t_w = reports[0].sample_count

    inside = 0
    eps = 1e-4
    for w in range(len(reports)):
        p = lgauss[w]
        se_emp = math.sqrt(p * (1.0 - p) / t_w)
        c = min(max(cbar[w], -0.999), 0.999)
        slope = (gaussian_copula_cdf(0.1, 0.1, c + eps)
                 - gaussian_copula_cdf(0.1, 0.1, c - eps)) / (2.0 * eps)
        se_c = (1.0 - c * c) / math.sqrt(t_w)
        band = 3.0 * math.sqrt(se_emp ** 2 + (slope * se_c) ** 2)
        inside += abs(lam[w] - lgauss[w]) <= band
    frac_inside = inside / len(reports)

    n_half = len(reports) // 2
    corr_shift = cbar[n_half:].mean() - cbar[:n_half].mean()
    lam_shift = lam[n_half:].mean() - lam[:n_half].mean()
    relation_corr = float(np.corrcoef(cbar, lam)[0, 1])
    elapsed = time.perf_counter() - t0
    ok = (len(reports) == 100 and corr_shift > 0.2 and lam_shift > 0.0
          and frac_inside >= 0.95 and relation_corr >= 0.8 and elapsed < 300.0)
    _report(7, ok, f"100 windows, corr shift +{corr_shift:.2f}, lambda shift "
                   f"+{lam_shift:.3f}, {frac_inside:.0%} in Monte Carlo band "
                   f"(need >= 95%), relation corr {relation_corr:.2f} >= 0.8, "
                   f"{elapsed:.1f}s < 300s")


def test_criterion_8_determinism_and_scaling(tmp_path):
    t0 = time.perf_counter()
    src = tmp_path / "panel"
    proc = subprocess.run(
        [sys.executable, "-m", "copuladyn", "synth", "--kind", "gaussian",
         "--corr", "0.4", "--assets", "6", "--length", str(20 * 13),
         "--seed", "31", "--out", str(src)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    payloads = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"dyn{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "copuladyn", "dynamics",
             "--input", str(src / "prices.csv"), "--grid", "10",
             "--window-days", "10", "--threads", threads, "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blob = (out / "relation.csv").read_bytes()
        for win in sorted((out / "windows").iterdir()):
            blob += win.read_bytes()
        payloads.append(blob)
    identical = payloads[0] == payloads[1] == payloads[2]

    big = sample_panel(SynthSpec(kind="gaussian", assets=100, length=3000,
                                 seed=77, correlation=0.3))
    t1 = time.perf_counter()
    grid = average_pairwise_density(big, 50)
    scale_time = time.perf_counter() - t1
    ok = identical and grid.pair_count == 4950 and scale_time < 60.0
    elapsed = time.perf_counter() - t0
    _report(8, ok, f"dynamics CSVs byte-identical across threads 1/4/8: "
                   f"{identical}; 4950-pair m=50 averaging {scale_time:.2f}s "
                   f"< 60s (total {elapsed:.1f}s)")
