"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success; failures surface the line in the captured output).  Criteria 7 and
8 share one full pipeline run pair over the bundled synthetic dataset.
"""

import csv
import filecmp
import math
import os
import time

import numpy as np
import pytest

from liqcov import dcc, portfolio, vecm
from liqcov.bayes import linked_posterior, posterior_covariance
from liqcov.cli import RunConfig, run_backtest_stage, run_liquidity
from liqcov.condsvd import conditional_svd
from liqcov.stats import significance_stars, two_sample_ttest
from liqcov.synthetic import write_synthetic_csv


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def random_psd(rng, n, extra=3):
    x = rng.normal(size=(n + extra, n))
    return x.T @ x


# -- criterion 1: conditional SVD ------------------------------------------

def test_criterion_1_conditional_svd():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a = random_psd(rng, n)
        b = random_psd(rng, n)
        res = conditional_svd(a, b)
        worst = max(worst, np.linalg.norm(res.h @ b @ res.h.T - a) / np.linalg.norm(a))
    identity_err = 0.0
    for n in (2, 4, 8):
        a = random_psd(rng, n)
        res = conditional_svd(a, a.copy())
        identity_err = max(identity_err, float(np.max(np.abs(res.h - np.eye(n)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and identity_err < 1e-10 and elapsed < 5.0
    report(1, "conditional SVD reconstruction and identity", ok,
           f"residual {worst:.2e}, identity {identity_err:.2e}, {elapsed:.2f}s")


# -- criterion 2: Bayesian shrinkage ----------------------------------------

def test_criterion_2_bayesian_shrinkage():
    start = time.perf_counter()
    scalar = posterior_covariance(np.array([[1.0]]), np.array([[1.0]]), 1.0)[0, 0]
    exact = scalar == 1.5
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        sigma = random_psd(rng, n)
        omega = random_psd(rng, n)
        diff = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
        jumps = rng.uniform(0.3, 3.0, n)
        tau = float(rng.uniform(0.1, 5.0))
        linked = linked_posterior(sigma, omega, diff, np.diag(jumps), tau)
        diff_inv = np.linalg.inv(diff)
        scale = 1.0 / np.sqrt(jumps)
        two_step = posterior_covariance(
            diff_inv @ sigma @ diff_inv.T, omega * np.outer(scale, scale), tau
        )
        worst = max(worst, np.max(np.abs(linked - two_step)) / max(1.0, np.max(np.abs(two_step))))
    elapsed = time.perf_counter() - start
    ok = exact and worst < 1e-8 and elapsed < 5.0
    report(2, "Bayesian shrinkage exact scalar and linked-form equivalence", ok,
           f"scalar {scalar}, equivalence {worst:.2e}, {elapsed:.2f}s")


# -- criterion 3: GARCH/DCC recovery ----------------------------------------

def test_criterion_3_garch_dcc_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    n = 10_000
    omega, alpha, beta = 0.1, 0.1, 0.8
    e = np.empty(n)
    h2 = omega / (1 - alpha - beta)
    for t in range(n):
        e[t] = np.sqrt(h2) * rng.standard_normal()
        h2 = omega + alpha * e[t] ** 2 + beta * h2
    params = dcc.fit_garch11(e)
    garch_ok = (
        abs(params.omega - omega) < 0.1
        and abs(params.alpha - alpha) < 0.1
        and abs(params.beta - beta) < 0.1
    )

    a_true, b_true = 0.05, 0.90
    corr = np.array([[1.0, 0.5], [0.5, 1.0]])
    q = corr.copy()
    xi_prev = np.zeros(2)
    resid = np.empty((3000, 2))
    for t in range(3000):
        q = (1 - a_true - b_true) * corr + a_true * np.outer(xi_prev, xi_prev) + b_true * q
        d = 1.0 / np.sqrt(np.diag(q))
        z = np.linalg.cholesky(q * np.outer(d, d)) @ rng.standard_normal(2)
        resid[t] = z
        xi_prev = z
    fit_d = dcc.fit_dcc(resid, "dcc")
    fit_a = dcc.fit_dcc(resid, "adcc")
    dcc_ok = abs(fit_d.a - a_true) < 0.05 and abs(fit_d.b - b_true) < 0.05
    constraints_ok = (
        params.alpha + params.beta < 1.0
        and fit_d.a + fit_d.b < 1.0
        and fit_a.a + fit_a.b + fit_a.g < 1.0
        and not (fit_d.fallback or fit_a.fallback or params.fallback)
    )
    elapsed = time.perf_counter() - start
    ok = garch_ok and dcc_ok and constraints_ok and elapsed < 60.0
    report(3, "GARCH/DCC simulation recovery under stationarity", ok,
           f"garch ({params.omega:.3f},{params.alpha:.3f},{params.beta:.3f}), "
           f"dcc ({fit_d.a:.3f},{fit_d.b:.3f}), {elapsed:.1f}s")


# -- criterion 4: VECM -------------------------------------------------------

def test_criterion_4_vecm():
    start = time.perf_counter()
    rng = np.random.default_rng(6)

    alpha_vec = np.array([-0.2, 0.1])
    beta_vec = np.array([1.0, -1.0])
    gamma_true = np.outer(alpha_vec, beta_vec)
    y = np.zeros((2000, 2))
    for t in range(1, 2000):
        y[t] = y[t - 1] + gamma_true @ y[t - 1] + rng.normal(0, 0.05, 2)
    fit = vecm.fit_vecm(y, p=1, coint_rank=1)
    gamma_ok = np.max(np.abs(fit.gamma - gamma_true)) < 0.1

    identity_err = 0.0
    rng2 = np.random.default_rng(7)
    walks = np.cumsum(rng2.normal(0, 0.5, (300, 3)), axis=0)
    for rank in (0, 1, 2, 3):
        for p in (1, 2, 3):
            f = vecm.fit_vecm(walks, p=p, coint_rank=rank)
            identity = -(np.eye(3) - f.phi.sum(axis=0))
            identity_err = max(identity_err, float(np.max(np.abs(f.gamma - identity))))

    fit3 = vecm.fit_vecm(walks, p=3, coint_rank=1)
    shocks = rng2.normal(0, 0.01, (60, 3))
    level = list(walks[-3:])
    ecm = list(walks[-3:])
    for shock in shocks:
        level.append(sum(fit3.phi[i] @ level[-1 - i] for i in range(3)) + shock)
        dy = fit3.gamma @ ecm[-1]
        for i in range(1, 3):
            dy += fit3.phi_star[i - 1] @ (ecm[-i] - ecm[-i - 1])
        ecm.append(ecm[-1] + dy + shock)
    path_err = float(np.max(np.abs(np.array(level) - np.array(ecm))))

    elapsed = time.perf_counter() - start
    ok = gamma_ok and identity_err < 1e-8 and path_err < 1e-10 and elapsed < 30.0
    report(4, "VECM recovery, long-run identity, level/ECM equivalence", ok,
           f"gamma err {np.max(np.abs(fit.gamma - gamma_true)):.3f}, "
           f"identity {identity_err:.1e}, path {path_err:.1e}, {elapsed:.1f}s")


# -- criterion 5: QP optimizer -----------------------------------------------

class GridOracle:
    """Dense 2-asset feasibility grid, built once and reused per instance."""

    def __init__(self, cap, step=0.001):
        pts = np.arange(0.0, min(cap, 1.0) + step / 2, step)
        w1, w2 = np.meshgrid(pts, pts, indexing="ij")
        feasible = (w1 + w2 <= 1.0 + 1e-12) & (w2 <= cap + 1e-12)
        self.w1 = w1[feasible]
        self.w2 = w2[feasible]

    def best(self, mu, sigma, lam):
        obj = (
            mu[0] * self.w1 + mu[1] * self.w2
            - 0.5 * lam * (
                sigma[0, 0] * self.w1**2
                + 2 * sigma[0, 1] * self.w1 * self.w2
                + sigma[1, 1] * self.w2**2
            )
        )
        return float(obj.max())


def test_criterion_5_qp_optimizer():
    start = time.perf_counter()
    rng = np.random.default_rng(500)
    cap = 1.5
    oracle = GridOracle(cap)
    worst_gap, worst_sum, worst_bound = 0.0, 0.0, 0.0
    for _ in range(500):
        mu = rng.normal(0.0, 0.02, 2)
        a = rng.normal(size=(2, 2))
        sigma = a @ a.T * 1e-3 + 1e-6 * np.eye(2)
        lam = float(rng.uniform(0.1, 10.0))
        w = portfolio.solve_mv(portfolio.MvProblem(mu, sigma, lam))
        got = float(mu @ w[:2] - 0.5 * lam * w[:2] @ sigma @ w[:2])
        best = oracle.best(mu, sigma, lam)
        gap = got - best
        assert gap >= -1e-12          # exact solver cannot lose to its own grid
        worst_gap = max(worst_gap, abs(gap))
        worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
        worst_bound = max(
            worst_bound,
            float(max(np.max(-w[:2]), np.max(w[:2] - cap), -w[2])),
        )
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-6 and worst_sum < 1e-10 and worst_bound < 1e-12 and elapsed < 30.0
    report(5, "QP optimizer vs dense grid oracle with exact constraints", ok,
           f"gap {worst_gap:.2e}, sum {worst_sum:.1e}, bounds {worst_bound:.1e}, {elapsed:.1f}s")


# -- criterion 6: statistics anchors -----------------------------------------

def test_criterion_6_statistics_anchors():
    rng = np.random.default_rng(9)
    res_a = two_sample_ttest(rng.normal(size=1877), rng.normal(size=1877))
    res_b = two_sample_ttest(rng.normal(size=2429), rng.normal(size=2429))
    x = rng.normal(size=100)
    res_eq = two_sample_ttest(x, x.copy())
    stars_ok = (
        significance_stars(0.009) == "***"
        and significance_stars(0.049) == "**"
        and significance_stars(0.099) == "*"
        and significance_stars(0.101) == ""
    )
    ok = res_a.dof == 3752 and res_b.dof == 4856 and res_eq.t_value == 0.0 and stars_ok
    report(6, "t-test dof anchors, equal-sample zero, star thresholds", ok,
           f"dof {res_a.dof}/{res_b.dof}")


# -- criteria 7 and 8: end-to-end run and determinism -------------------------

BUNDLED = dict(n_assets=8, n_days=600, minutes_per_day=48, seed=7)


@pytest.fixture(scope="module")
def bundled_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bundled")
    data = tmp / "bundled.csv"
    write_synthetic_csv(data, **BUNDLED)

    def config(out):
        return RunConfig.from_mapping(dict(
            data_csv=str(data),
            out_dir=str(out),
            minutes_per_day=48,
            asset_class="crypto",
            window_days=365,
            refit_stride=1,
            tau=1.0,
            variants=(1, 2, 3, 4, 5, 6),
        ))

    cfg_a = config(tmp / "run_a")
    start = time.perf_counter()
    run_liquidity(cfg_a)
    results = run_backtest_stage(cfg_a)     # runs the forecast stage lazily
    elapsed = time.perf_counter() - start

    cfg_b = config(tmp / "run_b")
    run_liquidity(cfg_b)
    run_backtest_stage(cfg_b)
    return cfg_a, cfg_b, results, elapsed


def test_criterion_7_end_to_end(bundled_runs):
    cfg_a, _, results, elapsed = bundled_runs
    out = cfg_a.out_dir

    shaped = True
    expectations = {
        "table1.csv": 13,   # header + 12 descriptive rows
        "table2.csv": 7,    # header + 3 rows per panel
        "table3.csv": 9,    # header + 8 coefficient rows
        "table4.csv": 7,    # header + 6 variants
    }
    for name, lines in expectations.items():
        path = os.path.join(out, name)
        if not os.path.exists(path):
            shaped = False
            continue
        with open(path) as fh:
            shaped = shaped and len(fh.read().strip().splitlines()) == lines

    six_ok = len(results) == 6 and all(math.isfinite(r.sharpe) for r in results)

    sign_ok = True
    with open(os.path.join(out, "table2.csv")) as fh:
        rows = fh.read().strip().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        if cells[0] == "conditional covariance":
            sign_ok = sign_ok and float(cells[2]) < 0.0

    ok = shaped and six_ok and sign_ok and elapsed < 600.0
    report(7, "end-to-end bundled synthetic run", ok,
           f"{elapsed:.0f}s, sharpes {[f'{r.sharpe:.2f}' for r in results]}, "
           f"conditional-panel t negative: {sign_ok}")


def test_criterion_8_determinism_across_reruns(bundled_runs):
    cfg_a, cfg_b, _, _ = bundled_runs
    names_a = sorted(
        f for f in os.listdir(cfg_a.out_dir)
        if os.path.isfile(os.path.join(cfg_a.out_dir, f))
    )
    names_b = sorted(
        f for f in os.listdir(cfg_b.out_dir)
        if os.path.isfile(os.path.join(cfg_b.out_dir, f))
    )
    same_tree = names_a == names_b
    mismatches = [
        name for name in names_a
        if same_tree and not filecmp.cmp(
            os.path.join(cfg_a.out_dir, name), os.path.join(cfg_b.out_dir, name),
            shallow=False,
        )
    ]
    ok = same_tree and not mismatches
    report(8, "bit-identical output trees across fresh reruns", ok,
           f"{len(names_a)} files" + (f", mismatches {mismatches}" if mismatches else ""))


def test_output_cells_parse(bundled_runs):
    """Every numeric cell of the chain's tables reads back with float(), and no
    cell of any output CSV carries a numpy type name."""
    out = bundled_runs[0].out_dir
    text_columns = {"date", "anchor_date", "pipeline", "kind", "best_kind"}
    chain_tables = ("forecasts.csv", "windows.csv",
                    "posteriors_regular.csv", "posteriors_adjusted.csv")
    for name in sorted(f for f in os.listdir(out) if f.endswith(".csv")):
        with open(os.path.join(out, name), newline="") as fh:
            header, *rows = list(csv.reader(fh))
        for row in rows:
            assert not [c for c in row if "np." in c], (name, row)
            if name in chain_tables:
                for column, cell in zip(header, row):
                    if column not in text_columns:
                        float(cell)


def test_adcc_never_below_the_dcc_it_nests(bundled_runs):
    """Every bundled window's ADCC fit ends no lower than its DCC fit, up to
    rounding (ADCC with g = 0 is DCC)."""
    with open(os.path.join(bundled_runs[0].out_dir, "windows.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 470
    below = [(r["anchor_date"], r["pipeline"]) for r in rows
             if float(r["adcc_loglik"]) < float(r["dcc_loglik"]) - 1e-9 * abs(float(r["dcc_loglik"]))]
    assert below == []
