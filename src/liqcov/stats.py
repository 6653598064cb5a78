"""Descriptive statistics, pooled t-tests, and table/figure emitters.

The descriptive table works on capped series (reporting caps extreme
determinants at 10) and counts days at the cap, at or above 1, and at or
below 0.10.  Group comparisons use the equal-variance pooled two-sample
t-test, whose n1 + n2 - 2 degrees of freedom match the reported tables;
significance stars mark the 1% / 5% / 10% levels.
"""

from __future__ import annotations

import csv
import datetime as dt
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.stats import t as student_t

from .liquidity import DET_CAP

STAR_LEVELS = ((0.01, "***"), (0.05, "**"), (0.10, "*"))
HISTOGRAM_BINS = 50


@dataclass(frozen=True)
class DescriptiveRow:
    count: int
    mean: float
    std: float
    min: float
    median: float
    max: float
    n_at_cap: int
    n_ge_1: int
    n_le_0_10: int

    @property
    def pct_at_cap(self) -> float:
        return self.n_at_cap / self.count

    @property
    def pct_ge_1(self) -> float:
        return self.n_ge_1 / self.count

    @property
    def pct_le_0_10(self) -> float:
        return self.n_le_0_10 / self.count


@dataclass(frozen=True)
class TTestResult:
    t_value: float
    dof: int
    p_two_sided: float
    p_greater: float
    p_less: float
    stars: str
    degenerate: bool = False


def significance_stars(p_value: float) -> str:
    for level, stars in STAR_LEVELS:
        if p_value < level:
            return stars
    return ""


def descriptive_table(values) -> DescriptiveRow:
    """Summary statistics and threshold counts of a capped scalar series."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("empty series")
    return DescriptiveRow(
        count=int(v.size),
        mean=float(v.mean()),
        std=float(v.std(ddof=1)) if v.size > 1 else 0.0,
        min=float(v.min()),
        median=float(np.median(v)),
        max=float(v.max()),
        n_at_cap=int(np.count_nonzero(v >= DET_CAP)),
        n_ge_1=int(np.count_nonzero(v >= 1.0)),
        n_le_0_10=int(np.count_nonzero(v <= 0.10)),
    )


def two_sample_ttest(x, y, sides: str = "two") -> TTestResult:
    """Equal-variance pooled t-test of mean(x) against mean(y).

    sides selects which p-value carries the significance stars:
    "two", "less" (alternative mean(x) < mean(y)), or "greater".
    """
    if sides not in ("two", "less", "greater"):
        raise ValueError(f"sides must be 'two', 'less' or 'greater', got {sides!r}")
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    n1, n2 = x.size, y.size
    if n1 < 2 or n2 < 2:
        raise ValueError("both samples need at least two observations")
    dof = n1 + n2 - 2
    pooled_var = ((n1 - 1) * x.var(ddof=1) + (n2 - 1) * y.var(ddof=1)) / dof
    diff = float(x.mean() - y.mean())
    degenerate = pooled_var <= 0.0
    if degenerate:
        t_value = 0.0 if diff == 0.0 else np.copysign(np.inf, diff)
    else:
        t_value = diff / np.sqrt(pooled_var * (1.0 / n1 + 1.0 / n2))
    with np.errstate(invalid="ignore"):
        p_greater = float(student_t.sf(t_value, dof))
        p_less = float(student_t.cdf(t_value, dof))
    p_two = 2.0 * min(p_greater, p_less)
    p_for_stars = {"two": p_two, "less": p_less, "greater": p_greater}[sides]
    return TTestResult(
        t_value=float(t_value),
        dof=dof,
        p_two_sided=p_two,
        p_greater=p_greater,
        p_less=p_less,
        stars=significance_stars(p_for_stars),
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    test: TTestResult
    direction: str      # arrow showing the effect of the liquidity adjustment


def _direction(test: TTestResult) -> str:
    if not test.stars:
        return "<->"
    return "up" if test.t_value < 0 else "down"

DIRECTION_GLYPHS = {"up": "↑", "down": "↓", "<->": "↔"}


def determinant_tests(
    regular: Mapping[str, np.ndarray],
    adjusted: Mapping[str, np.ndarray],
) -> list[ComparisonRow]:
    """One-sided (less) tests of regular minus adjusted determinant series,
    one row per key of regular, in its order.

    A significantly negative t means the liquidity adjustment increases the
    determinant (direction "up").
    """
    rows = []
    for kind in regular:
        x = np.asarray(regular[kind], dtype=np.float64)
        y = np.asarray(adjusted[kind], dtype=np.float64)
        if x.shape != y.shape:
            raise ValueError(f"{kind}: series lengths differ ({x.shape} vs {y.shape})")
        test = two_sample_ttest(x, y, sides="less")
        rows.append(ComparisonRow(label=f"{kind} t-test", test=test, direction=_direction(test)))
    return rows


_COEF_ROWS = {
    "dcc": (("a", (0,)), ("b", (1,)), ("a + b", (0, 1))),
    "adcc": (("a", (0,)), ("b", (1,)), ("g", (2,)), ("a + b", (0, 1)), ("a + b + g", (0, 1, 2))),
}


def coefficient_tests(
    regular: Mapping[str, np.ndarray],
    adjusted: Mapping[str, np.ndarray],
) -> list[ComparisonRow]:
    """Two-sided tests of fitted dynamics coefficients, regular vs adjusted.

    Inputs map "dcc" to an (n_windows, 2) array of (a, b) and "adcc" to an
    (n_windows, 3) array of (a, b, g).
    """
    rows = []
    for kind, specs in _COEF_ROWS.items():
        x = np.asarray(regular[kind], dtype=np.float64)
        y = np.asarray(adjusted[kind], dtype=np.float64)
        if x.shape != y.shape:
            raise ValueError(f"{kind}: series lengths differ ({x.shape} vs {y.shape})")
        for label, cols in specs:
            xs = x[:, list(cols)].sum(axis=1)
            ys = y[:, list(cols)].sum(axis=1)
            test = two_sample_ttest(xs, ys, sides="two")
            rows.append(ComparisonRow(label=f"{kind}: {label}", test=test, direction=_direction(test)))
    return rows


def histogram(values):
    """HISTOGRAM_BINS uniform-bin counts over the capped range; the last bin
    is right-closed so values at exactly the cap land in it."""
    v = np.asarray(values, dtype=np.float64).ravel()
    return np.histogram(v, bins=HISTOGRAM_BINS, range=(0.0, DET_CAP))


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def render_markdown_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


def _csv_cell(value):
    """The one cell format of every output CSV: a float in its shortest
    round-trip repr, a flag as 0/1, a date in ISO 8601; an int or str as it is."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, dt.date):
        return value.isoformat()
    return value


def write_replacing(path, write) -> None:
    """Call write on a temporary file next to path, then move it onto path,
    so that path is never seen half-written."""
    tmp = os.fspath(path) + ".tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_csv_table(path, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write headers and rows of raw values, each cell formatted by _csv_cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows([_csv_cell(v) for v in row] for row in rows)


def descriptive_rows_table(columns: Mapping[str, DescriptiveRow]) -> tuple[list[str], list[list[str]]]:
    """Layout with one column per liquidity measure and the threshold rows."""
    headers = ["measure"] + list(columns)
    def fmt(v):
        return f"{v:.2f}"
    body = [
        ["count"] + [str(c.count) for c in columns.values()],
        ["mean"] + [fmt(c.mean) for c in columns.values()],
        ["std"] + [fmt(c.std) for c in columns.values()],
        ["min"] + [fmt(c.min) for c in columns.values()],
        ["median"] + [fmt(c.median) for c in columns.values()],
        ["max"] + [fmt(c.max) for c in columns.values()],
        ["number of days (= cap)"] + [str(c.n_at_cap) for c in columns.values()],
        ["as % of total"] + [f"{100 * c.pct_at_cap:.2f}%" for c in columns.values()],
        ["number of days (>= 1)"] + [str(c.n_ge_1) for c in columns.values()],
        ["as % of total"] + [f"{100 * c.pct_ge_1:.2f}%" for c in columns.values()],
        ["number of days (<= 0.10)"] + [str(c.n_le_0_10) for c in columns.values()],
        ["as % of total"] + [f"{100 * c.pct_le_0_10:.2f}%" for c in columns.values()],
    ]
    return headers, body


def comparison_rows_table(rows: Sequence[ComparisonRow]) -> tuple[list[str], list[list[str]]]:
    headers = ["test", "t_value", "dof", "p_two_sided", "p_greater", "p_less", "sig", "direction"]
    body = []
    for row in rows:
        t = row.test
        body.append([
            row.label,
            f"{t.t_value:.4f}",
            str(t.dof),
            f"{t.p_two_sided:.4f}",
            f"{t.p_greater:.4f}",
            f"{t.p_less:.4f}",
            t.stars,
            DIRECTION_GLYPHS[row.direction],
        ])
    return headers, body


def write_histogram_csv(path, counts, edges) -> None:
    write_csv_table(path, ["bin_left", "bin_right", "count"],
                    zip(edges[:-1], edges[1:], counts))


def write_histogram_svg(path, counts, edges, title: str) -> None:
    """Minimal deterministic SVG bar chart (no plotting backend)."""
    counts = np.asarray(counts)
    width, height, margin = 640, 360, 40
    peak = max(int(counts.max()), 1)
    n = len(counts)
    bar_w = (width - 2 * margin) / n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for i, count in enumerate(counts):
        bar_h = (height - 2 * margin) * int(count) / peak
        x = margin + i * bar_w
        y = height - margin - bar_h
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w * 0.9:.2f}" '
            f'height="{bar_h:.2f}" fill="#4878a8"/>'
        )
    parts.append(
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>'
    )
    lo, hi = float(edges[0]), float(edges[-1])
    parts.append(
        f'<text x="{margin}" y="{height - margin + 16}" font-family="sans-serif" '
        f'font-size="11">{lo:g}</text>'
    )
    parts.append(
        f'<text x="{width - margin}" y="{height - margin + 16}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{hi:g}</text>'
    )
    parts.append(f'<text x="{margin - 6}" y="{margin}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11">{peak}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
