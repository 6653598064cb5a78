"""Span tracer that wraps liqcov functions from outside the program.

``Tracer.install`` rebinds every name under which a target function is
reachable in the loaded ``liqcov`` modules (``from .x import f`` copies the
binding, so the defining module alone is not enough) to a wrapper that
records a span: id, parent id, round, name, start and end.  Spans are kept
in memory and written out by ``write``; ``uninstall`` restores the original
bindings, so untraced rounds run the program exactly as shipped.

A span's self time is its duration minus the durations of its direct child
spans.  Counters that only a return value can tell (optimizer iterations,
fallbacks, degenerate asset-days) are read from the wrapped calls' results.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

# (module, function) pairs traced as spans.  ``_run_anchor`` is the one
# private function: it is the only boundary around a single anchor.
SPAN_TARGETS = (
    ("synthetic", "write_synthetic_csv"),
    ("cli", "run_liquidity"),
    ("cli", "run_forecast"),
    ("cli", "run_backtest_stage"),
    ("cli", "run_report"),
    ("marketdata", "ingest_minute_csv"),
    ("marketdata", "write_grids_csv"),
    ("marketdata", "read_grids_csv"),
    ("pipeline", "snapshots_from_grids"),
    ("pipeline", "run_forecasts"),
    ("pipeline", "_run_anchor"),
    ("liquidity", "build_snapshot"),
    ("liquidity", "liquidity_adjusted_minutes"),
    ("condsvd", "conditional_svd"),
    ("vecm", "select_lag"),
    ("vecm", "johansen_trace"),
    ("vecm", "fit_vecm"),
    ("dcc", "fit_dcc"),
    ("dcc", "fit_garch11"),
    ("dcc", "forecast_covariance"),
    ("_kernels", "garch11_negloglik"),
    ("_kernels", "corr_negloglik"),
    ("bayes", "posterior_covariance"),
    ("portfolio", "run_backtest"),
    ("portfolio", "solve_mv"),
)

# Wrapped for its result only: a span here would hide the GARCH stage's
# time inside the optimizer and leave ``fit_garch11`` with no self time.
COUNT_TARGETS = (("dcc", "_minimize_fd"),)

# Relative distance below the persistence cap at which a GARCH fit counts
# as sitting on the stationarity boundary.
BOUNDARY_RTOL = 1e-6


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.round = 0
        self._stack: list[list] = []     # [span id, child seconds]
        self._next_id = 1
        self._saved: list[tuple[dict, str, object]] = []
        self._max_persistence = None

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        modules = [m for name, m in sys.modules.items()
                   if name == "liqcov" or name.startswith("liqcov.")]
        wrappers = {}
        for mod_name, fn_name in SPAN_TARGETS:
            fn = getattr(sys.modules[f"liqcov.{mod_name}"], fn_name)
            wrappers[id(fn)] = self._span_wrapper(fn, f"{mod_name}.{fn_name}")
        for mod_name, fn_name in COUNT_TARGETS:
            fn = getattr(sys.modules[f"liqcov.{mod_name}"], fn_name)
            wrappers[id(fn)] = self._optimizer_wrapper(fn)
        self._max_persistence = sys.modules["liqcov.dcc"].MAX_PERSISTENCE
        for mod in modules:
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((namespace, attr, value))
                    namespace[attr] = wrapper

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._saved):
            namespace[attr] = value
        self._saved.clear()

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn, name):
        observe = self._observers().get(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.spans.append((span_id, parent, self.round, name, t0, t1))
                self.self_s[name] += dur - frame[1]
                self.total_s[name] += dur
                self.calls[name] += 1
                self.durations[name].append(dur)
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _optimizer_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.counts["dcc.optimizer.calls"] += 1
            self.counts["dcc.optimizer.nit"] += int(res.nit)
            self.counts["dcc.optimizer.nfev"] += int(res.nfev)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def _observers(self):
        counts = self.counts

        def garch(params):
            counts["dcc.fallbacks"] += bool(params.fallback)
            cap = self._max_persistence
            counts["dcc.garch_at_boundary"] += (
                params.alpha + params.beta >= cap * (1.0 - BOUNDARY_RTOL))

        def fit(dcc_fit):
            counts["dcc.fallbacks"] += bool(dcc_fit.fallback)

        def snapshot(snap):
            counts["liquidity.asset_days"] += len(snap.asset_days)
            counts["liquidity.nondegenerate"] += sum(not d.degenerate for d in snap.asset_days)

        def ingest(result):
            counts["marketdata.rows"] += sum(g.returns.shape[0] for g in result.grids)

        def backtest(results):
            counts["portfolio.carry_forward_days"] += sum(len(r.failures) for r in results)

        return {
            "dcc.fit_garch11": garch,
            "dcc.fit_dcc": fit,
            "liquidity.build_snapshot": snapshot,
            "marketdata.ingest_minute_csv": ingest,
            "portfolio.run_backtest": backtest,
        }

    # -- output ---------------------------------------------------------

    def reset(self) -> None:
        """Drop the aggregates (spans stay for the trace file)."""
        for table in (self.self_s, self.total_s, self.calls, self.durations, self.counts):
            table.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,round,name,start_s,end_s\n")
            for span_id, parent, rnd, name, t0, t1 in self.spans:
                fh.write(f"{span_id},{parent},{rnd},{name},{t0!r},{t1!r}\n")

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per round of traced work."""
        per = 1.0 / rounds
        s, tot, n, c = self.self_s, self.total_s, self.calls, self.counts

        def p50(name):
            vals = self.durations.get(name)
            return statistics.median(vals) if vals else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        ingest_s = tot["marketdata.ingest_minute_csv"]
        return {
            "cli.run_liquidity.s": (s["cli.run_liquidity"] * per, "s"),
            "cli.run_backtest_stage.s": (s["cli.run_backtest_stage"] * per, "s"),
            "cli.series_builds": (n["pipeline.snapshots_from_grids"] * per, "count"),
            "marketdata.ingest_minute_csv.s": (s["marketdata.ingest_minute_csv"] * per, "s"),
            "marketdata.rows_per_s": (ratio(c["marketdata.rows"], ingest_s), "1/s"),
            "marketdata.write_grids_csv.s": (s["marketdata.write_grids_csv"] * per, "s"),
            "marketdata.read_grids_csv.s": (s["marketdata.read_grids_csv"] * per, "s"),
            "marketdata.read_grids_csv.calls": (n["marketdata.read_grids_csv"] * per, "count"),
            "liquidity.build_snapshot.s": (s["liquidity.build_snapshot"] * per, "s"),
            "liquidity.build_snapshot.calls": (n["liquidity.build_snapshot"] * per, "count"),
            "condsvd.conditional_svd.s": (s["condsvd.conditional_svd"] * per, "s"),
            "liquidity.liquidity_adjusted_minutes.calls": (
                n["liquidity.liquidity_adjusted_minutes"] * per, "count"),
            "liquidity.nondegenerate_ratio": (
                ratio(c["liquidity.nondegenerate"], c["liquidity.asset_days"]), "ratio"),
            "vecm.select_lag.s": (s["vecm.select_lag"] * per, "s"),
            "vecm.johansen_trace.s": (s["vecm.johansen_trace"] * per, "s"),
            "vecm.fit_vecm.s": (s["vecm.fit_vecm"] * per, "s"),
            "dcc.fit_dcc.s": (tot["dcc.fit_dcc"] * per, "s"),
            "dcc.fit_dcc.calls": (n["dcc.fit_dcc"] * per, "count"),
            "dcc.fit_garch11.s": (s["dcc.fit_garch11"] * per, "s"),
            "dcc.fit_garch11.calls": (n["dcc.fit_garch11"] * per, "count"),
            "dcc.corr_fit.s": (s["dcc.fit_dcc"] * per, "s"),
            "dcc.optimizer.calls": (c["dcc.optimizer.calls"] * per, "count"),
            "dcc.optimizer.nit": (c["dcc.optimizer.nit"] * per, "count"),
            "dcc.optimizer.nfev": (c["dcc.optimizer.nfev"] * per, "count"),
            "kernels.garch11_negloglik.calls": (n["_kernels.garch11_negloglik"] * per, "count"),
            "kernels.garch11_negloglik.s": (s["_kernels.garch11_negloglik"] * per, "s"),
            "kernels.corr_negloglik.calls": (n["_kernels.corr_negloglik"] * per, "count"),
            "kernels.corr_negloglik.s": (s["_kernels.corr_negloglik"] * per, "s"),
            "dcc.forecast_covariance.s": (s["dcc.forecast_covariance"] * per, "s"),
            "dcc.fallbacks": (c["dcc.fallbacks"] * per, "count"),
            "dcc.garch_at_boundary": (c["dcc.garch_at_boundary"] * per, "count"),
            "bayes.posterior_covariance.s": (s["bayes.posterior_covariance"] * per, "s"),
            "bayes.posterior_covariance.calls": (n["bayes.posterior_covariance"] * per, "count"),
            "pipeline.run_forecasts.s": (tot["pipeline.run_forecasts"] * per, "s"),
            "pipeline.self_s": ((s["pipeline.run_forecasts"] + s["pipeline._run_anchor"]) * per, "s"),
            "pipeline.anchor_s_p50": (p50("pipeline._run_anchor"), "s"),
            "pipeline.anchor_s_p50.samples": (len(self.durations.get("pipeline._run_anchor", ())), "count"),
            "pipeline.anchors": (n["pipeline._run_anchor"] * per, "count"),
            "portfolio.run_backtest.s": (s["portfolio.run_backtest"] * per, "s"),
            "portfolio.solve_mv.s": (s["portfolio.solve_mv"] * per, "s"),
            "portfolio.solve_mv.calls": (n["portfolio.solve_mv"] * per, "count"),
            "portfolio.solve_mv.p50_s": (p50("portfolio.solve_mv"), "s"),
            "portfolio.carry_forward_days": (c["portfolio.carry_forward_days"] * per, "count"),
        }
