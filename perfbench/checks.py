"""Correctness checks on liqcov outputs, against the benchmark's own code.

Every check recomputes what it compares against: from the raw minute rows,
with plain matrix inverses, or with a loop over time.  None of them reads a
stored copy of an earlier output.  A failed check raises ``CheckError``.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import math
import os

import numpy as np
from scipy.optimize import minimize

LOG_2PI = math.log(2.0 * math.pi)


class CheckError(AssertionError):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# raw minute rows
# ---------------------------------------------------------------------------

class RawMinutes:
    """Closes and dollar volumes of a minute CSV, as (symbol, day, minute) cubes.

    Only complete sessions starting at 00:00 UTC are supported, which is
    what the synthetic generator writes.
    """

    def __init__(self, symbols, dates, closes, volumes):
        self.symbols = tuple(symbols)
        self.dates = tuple(dates)
        self.closes = closes        # (n_assets, n_days, minutes)
        self.volumes = volumes

    @classmethod
    def read(cls, path, minutes_per_day: int) -> "RawMinutes":
        with open(path) as fh:
            header = fh.readline().strip()
            _require(header == "timestamp,symbol,close,dollar_volume", f"header {header!r}")
            fields = [line.split(",") for line in fh.read().splitlines() if line]
        day_keys = np.array([f[0][:10] for f in fields])
        minute = np.array([int(f[0][11:13]) * 60 + int(f[0][14:16]) for f in fields])
        sym_keys = np.array([f[1] for f in fields])
        close = np.array([float(f[2]) for f in fields])
        volume = np.array([float(f[3]) for f in fields])
        symbols, sym_idx = np.unique(sym_keys, return_inverse=True)
        days, day_idx = np.unique(day_keys, return_inverse=True)
        shape = (len(symbols), len(days), minutes_per_day)
        _require(len(fields) == math.prod(shape), "raw rows do not fill whole sessions")
        closes = np.full(shape, np.nan)
        volumes = np.full(shape, np.nan)
        closes[sym_idx, day_idx, minute] = close
        volumes[sym_idx, day_idx, minute] = volume
        _require(not np.isnan(closes).any(), "raw rows leave minutes empty")
        dates = [dt.date.fromisoformat(d) for d in days]
        return cls(symbols, dates, closes, volumes)

    def minute_returns(self) -> np.ndarray:
        """Close-to-close minute returns; a session's first minute links to
        the previous session's last close, and the very first minute is 0."""
        flat = self.closes.reshape(self.closes.shape[0], -1)
        r = np.zeros_like(flat)
        r[:, 1:] = flat[:, 1:] / flat[:, :-1] - 1.0
        return r.reshape(self.closes.shape)

    def daily_returns(self) -> np.ndarray:
        """(n_days, n_assets): last close over the previous session's last
        close, minus one; the first session is measured from its first close."""
        last = self.closes[:, :, -1]
        prev = np.concatenate([self.closes[:, :1, 0], last[:, :-1]], axis=1)
        return (last / prev - 1.0).T


def adjusted_minutes(r: np.ndarray, a: np.ndarray) -> np.ndarray | None:
    """r_adj = sqrt(eta * (|r|/mean|r|) / (A/mean A)) * r on traded minutes,
    with eta making the factors average one over them; None when the day is
    degenerate (no return or volume variation, or r_adj <= -100%)."""
    abs_r = np.abs(r)
    mean_abs, mean_vol = abs_r.mean(), a.mean()
    if mean_abs <= 0.0 or mean_vol <= 0.0:
        return None
    active = a > 0.0
    ratio = (abs_r[active] / mean_abs) / (a[active] / mean_vol)
    if ratio.sum() <= 0.0:
        return None
    factor = np.ones_like(r)
    factor[active] = ratio * (active.sum() / ratio.sum())
    r_adj = np.sqrt(factor) * r
    return None if np.any(r_adj <= -1.0) else r_adj


class LiquidityReference:
    """Daily and intraday quantities recomputed from the raw rows."""

    def __init__(self, raw: RawMinutes):
        r = raw.minute_returns()
        n_assets, n_days, _ = r.shape
        self.dates = raw.dates
        self.q = raw.daily_returns()
        self.q_adj = np.empty((n_days, n_assets))
        self.sigma = np.empty((n_days, n_assets, n_assets))
        self.sigma_adj = np.empty((n_days, n_assets, n_assets))
        for d in range(n_days):
            cols = []
            for i in range(n_assets):
                r_adj = adjusted_minutes(r[i, d], raw.volumes[i, d])
                if r_adj is None:
                    r_adj = r[i, d]
                    self.q_adj[d, i] = self.q[d, i]
                else:
                    self.q_adj[d, i] = np.prod(1.0 + r_adj) - 1.0
                cols.append(r_adj)
            self.sigma[d] = _centered_gram(r[:, d].T)
            self.sigma_adj[d] = _centered_gram(np.column_stack(cols))


def _centered_gram(x: np.ndarray) -> np.ndarray:
    xc = x - x.mean(axis=0)
    return xc.T @ xc


# ---------------------------------------------------------------------------
# liquidity stage
# ---------------------------------------------------------------------------

def check_daily_returns(series, ref: LiquidityReference, tol: float = 1e-10) -> None:
    _require(series.dates == ref.dates, "series dates differ from the raw sessions")
    err = float(np.max(np.abs(series.q - ref.q)))
    _require(err <= tol, f"daily return off the raw closes by {err:.3e}")


def check_adjusted_returns(series, ref: LiquidityReference, tol: float = 1e-9) -> None:
    err = float(np.max(np.abs(series.q_adj - ref.q_adj)))
    _require(err <= tol, f"q_adj off the reference adjustment by {err:.3e}")


def check_diffusion_reconstructs(series, ref: LiquidityReference, tol: float = 1e-8) -> None:
    for d in range(series.n_days):
        h = series.diff[d]
        recon = h @ ref.sigma_adj[d] @ h.T
        err = np.linalg.norm(recon - ref.sigma[d]) / np.linalg.norm(ref.sigma[d])
        _require(err <= tol, f"{series.dates[d]}: H Sigma_adj H' misses Sigma by {err:.3e}")


def check_composite_determinant(series, tol: float = 1e-9) -> None:
    for d in range(series.n_days):
        det_c = np.linalg.det(series.comp[d])
        want = np.linalg.det(series.diff[d]) / math.sqrt(np.linalg.det(series.jump[d]))
        _require(abs(det_c - want) <= tol * max(abs(want), 1e-300),
                 f"{series.dates[d]}: det(composite) {det_c!r} != {want!r}")


# ---------------------------------------------------------------------------
# forecast chain
# ---------------------------------------------------------------------------

def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[0])


def _check_spd(m: np.ndarray, what: str) -> None:
    scale = float(np.max(np.abs(m)))
    _require(np.max(np.abs(m - m.T)) <= 1e-12 * scale, f"{what} is not symmetric")
    _require(_min_eig(m) > 0.0, f"{what} is not positive definite")


def check_forecast_records(records, series, tau: float, max_persistence: float) -> None:
    """SPD forecasts and posteriors, the posterior formula, a PSD posterior
    increment, stationary (a, b, g), nested likelihoods and the best pick."""
    index = {d: i for i, d in enumerate(series.dates)}
    by_key = {}
    for r in records:
        by_key[(r.date, r.pipeline, r.kind)] = r
        what = f"{r.date} {r.pipeline} {r.kind}"
        _check_spd(r.omega_hat, f"{what} forecast")
        _check_spd(r.sigma_post, f"{what} posterior")
        d = index[r.date] - 1
        prior = series.sigma_tt[d] if r.pipeline == "regular" else series.sigma_tt_adj[d]
        inv = np.linalg.inv
        want = prior + inv(inv(tau * prior) + inv(r.omega_hat))
        err = np.linalg.norm(r.sigma_post - want) / np.linalg.norm(want)
        _require(err <= 1e-8, f"{what} posterior off the plain-inverse formula by {err:.3e}")
        inc = r.sigma_post - prior
        _require(_min_eig(inc) >= -1e-9 * float(np.max(np.abs(prior))),
                 f"{what} posterior minus prior is not PSD")
        _require(min(r.a, r.b, r.g) >= 0.0 and r.a + r.b + r.g <= max_persistence,
                 f"{what} (a, b, g) = {(r.a, r.b, r.g)} outside the stationarity simplex")
        _require(r.kind != "dcc" or r.g == 0.0, f"{what} symmetric model has g != 0")
    for (date, pipeline, kind), rec in by_key.items():
        if kind != "best":
            continue
        dcc = by_key[(date, pipeline, "dcc")]
        adcc = by_key[(date, pipeline, "adcc")]
        what = f"{date} {pipeline}"
        _require(adcc.loglik >= dcc.loglik - 1e-9 * abs(dcc.loglik),
                 f"{what}: ADCC log-likelihood {adcc.loglik!r} below DCC {dcc.loglik!r}")
        chosen = adcc if adcc.loglik > dcc.loglik else dcc
        _require(rec.loglik == max(dcc.loglik, adcc.loglik)
                 and np.array_equal(rec.sigma_post, chosen.sigma_post),
                 f"{what}: best is not the higher-likelihood model")


class ReferenceLikelihood:
    """Gaussian log-likelihood of residuals under GARCH(1,1) variances and
    (A)DCC correlations, written as a plain loop over time."""

    def __init__(self, residuals: np.ndarray, garch):
        e = np.asarray(residuals, dtype=np.float64)
        n, dim = e.shape
        h2 = np.empty((n, dim))
        for i, p in enumerate(garch):
            h2[0, i] = np.mean(e[:, i] ** 2)
            for t in range(1, n):
                h2[t, i] = p.omega + p.alpha * e[t - 1, i] ** 2 + p.beta * h2[t - 1, i]
        self.xi = e / np.sqrt(h2)
        self.neg = np.minimum(self.xi, 0.0)
        second = self.xi.T @ self.xi / n
        sd = np.sqrt(np.diag(second))
        self.obar = second / np.outer(sd, sd)
        np.fill_diagonal(self.obar, 1.0)
        self.nbar = self.neg.T @ self.neg / n
        self.const = -0.5 * (n * dim * LOG_2PI + np.sum(np.log(h2)))

    def __call__(self, a: float, b: float, g: float) -> float:
        xi, neg = self.xi, self.neg
        q = self.obar.copy()
        total = 0.0
        for t in range(xi.shape[0]):
            if t > 0:
                q = ((1.0 - a - b) * self.obar - g * self.nbar
                     + a * np.outer(xi[t - 1], xi[t - 1]) + b * q
                     + g * np.outer(neg[t - 1], neg[t - 1]))
            sd = np.sqrt(np.diag(q))
            r = q / np.outer(sd, sd)
            sign, logdet = np.linalg.slogdet(r)
            if sign <= 0:
                return -math.inf
            total -= 0.5 * (logdet + xi[t] @ np.linalg.solve(r, xi[t]))
        return self.const + total


def check_reference_loglik(ref: ReferenceLikelihood, record) -> None:
    """The reported log-likelihood is the reference one at the reported (a, b, g)."""
    ll = ref(record.a, record.b, record.g)
    _require(abs(ll - record.loglik) <= 1e-8 * abs(ll),
             f"{record.date} {record.pipeline} {record.kind}: reference log-likelihood "
             f"{ll!r} != reported {record.loglik!r}")


def check_no_better_point(ref: ReferenceLikelihood, record, starts, max_persistence: float,
                          step: float = 1e-3) -> None:
    """Neither a start point nor a feasible step of ``step`` in one
    correlation parameter beats the reported fit by more than 1e-6 relative."""
    ll = record.loglik
    slack = 1e-6 * abs(ll)
    n_params = 3 if record.kind == "adcc" else 2
    params = np.array([record.a, record.b, record.g])
    candidates = [np.array(list(s) + [0.0] * (3 - len(s))) for s in starts]
    for k in range(n_params):
        for sign in (-1.0, 1.0):
            cand = params.copy()
            cand[k] += sign * step
            candidates.append(cand)
    for cand in candidates:
        if cand.min() < 0.0 or cand.sum() > max_persistence:
            continue
        other = ref(*cand)
        _require(other <= ll + slack,
                 f"{record.date} {record.pipeline} {record.kind}: (a, b, g) = "
                 f"{tuple(float(v) for v in cand)} beats the fit, {other!r} > {ll!r}")


# ---------------------------------------------------------------------------
# backtest stage
# ---------------------------------------------------------------------------

def read_tree(root) -> dict[str, bytes]:
    """Relative path -> sha256 digest of every file under root."""
    tree = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).digest()
    return tree


def check_trees_equal(tree: dict[str, bytes], fresh: dict[str, bytes]) -> None:
    _require(tree.keys() == fresh.keys(),
             f"tree files changed: {sorted(tree.keys() ^ fresh.keys())}")
    changed = sorted(name for name in tree if tree[name] != fresh[name])
    _require(not changed, f"tree files differ from the fresh run: {changed}")


def check_realized_returns(results, dates, q_raw: np.ndarray, tol: float = 1e-12) -> None:
    index = {d: i for i, d in enumerate(dates)}
    for res in results:
        n_assets = res.weights.shape[1] - 1
        rows = [index[d] for d in res.dates]
        want = np.einsum("ti,ti->t", res.weights[:, :n_assets], q_raw[rows])
        err = float(np.max(np.abs(res.realized - want)))
        _require(err <= tol, f"variant {res.variant.id}: realized return off by {err:.3e}")


def check_weights(results, tol: float = 1e-12) -> None:
    for res in results:
        w = res.weights
        n_assets = w.shape[1] - 1
        vid = res.variant.id
        _require(w.min() >= 0.0, f"variant {vid}: negative weight")
        _require(w[:, :n_assets].max() <= 3.0 / n_assets + tol, f"variant {vid}: weight above 3/N")
        _require(np.max(np.abs(w.sum(axis=1) - 1.0)) <= tol,
                 f"variant {vid}: weights and cash do not sum to one")


def read_posteriors(path) -> dict[dt.date, np.ndarray]:
    cells: dict[dt.date, list] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for date, i, j, value in reader:
            cells.setdefault(dt.date.fromisoformat(date), []).append((int(i), int(j), float(value)))
    out = {}
    for date, vals in cells.items():
        n = int(math.isqrt(len(vals)))
        mat = np.empty((n, n))
        for i, j, v in vals:
            mat[i, j] = v
        out[date] = mat
    return out


def mv_problem(variant, t: int, series, window_days: int, posteriors) -> tuple:
    """(mu, sigma, lambda) of a variant's decision on day t, rebuilt from the
    series and the persisted posteriors."""
    lo = t - window_days + 1
    adjusted = variant.id % 2 == 0
    src = series.q_adj if adjusted else series.q
    mu = src[lo:t + 1].mean(axis=0)
    if variant.cov_source == "rolling_window":
        sigma = np.cov(src[lo:t + 1].T, ddof=1)
    elif variant.cov_source == "intraday":
        sigma = (series.sigma_tt_adj if adjusted else series.sigma_tt)[t]
    else:
        sigma = posteriors["adjusted" if adjusted else "regular"][series.dates[t + 1]]
    market = series.q[lo:t + 1].mean(axis=1)
    lam = market[-1] / np.var(market, ddof=1)
    return mu, sigma, lam if lam > 0.0 else 0.1


def mv_objective(w, mu, sigma, lam) -> float:
    return float(mu @ w - 0.5 * lam * w @ sigma @ w)


def scipy_mv(mu, sigma, lam) -> np.ndarray:
    n = mu.shape[0]
    cap = 3.0 / n
    res = minimize(
        lambda w: -mv_objective(w, mu, sigma, lam),
        np.full(n, 1.0 / (2 * n)),
        jac=lambda w: -(mu - lam * sigma @ w),
        bounds=[(0.0, cap)] * n,
        constraints=[{"type": "ineq", "fun": lambda w: 1.0 - w.sum(),
                      "jac": lambda w: -np.ones(n)}],
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 500},
    )
    return np.clip(res.x, 0.0, cap)


def check_mv_optimal(results, series, window_days: int, posteriors, days) -> None:
    """On the sampled decision days, the backtest's weights score no worse on
    the mean-variance objective than an independent SLSQP solve."""
    for res in results:
        for t in days:
            mu, sigma, lam = mv_problem(res.variant, t, series, window_days, posteriors)
            w = res.weights[t - window_days + 1, :-1]
            got = mv_objective(w, mu, sigma, lam)
            best = mv_objective(scipy_mv(mu, sigma, lam), mu, sigma, lam)
            _require(got >= best - 1e-9 * max(1.0, abs(best)),
                     f"variant {res.variant.id} day {series.dates[t]}: "
                     f"objective {got!r} below the scipy solve {best!r}")
