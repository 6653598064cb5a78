"""Descriptive tables, pooled t-tests, histograms, and emitters."""

import datetime as dt

import numpy as np
import pytest
from scipy.stats import t as student_t

from liqcov.stats import (
    HISTOGRAM_BINS,
    coefficient_tests,
    descriptive_table,
    determinant_tests,
    histogram,
    render_markdown_table,
    significance_stars,
    two_sample_ttest,
    write_csv_table,
    write_histogram_svg,
)


class TestDescriptive:
    def test_hand_countable(self):
        row = descriptive_table([10.0, 0.5, 0.05])
        assert row.count == 3
        assert row.n_at_cap == 1
        assert row.n_ge_1 == 1
        assert row.n_le_0_10 == 1
        assert row.pct_at_cap == pytest.approx(1 / 3)

    def test_all_equal(self):
        row = descriptive_table(np.ones(50))
        assert row.median == row.mean == 1.0
        assert row.std == 0.0
        assert row.n_ge_1 == 50 and row.n_at_cap == 0

    def test_threshold_partition(self):
        rng = np.random.default_rng(1)
        values = np.minimum(np.abs(rng.normal(1.0, 3.0, 500)), 10.0)
        row = descriptive_table(values)
        in_between = np.count_nonzero((values > 0.10) & (values < 1.0))
        assert row.n_le_0_10 + in_between + row.n_ge_1 == row.count

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            descriptive_table([])


class TestTTest:
    def test_dof_anchors(self):
        rng = np.random.default_rng(2)
        res = two_sample_ttest(rng.normal(size=1877), rng.normal(size=1877))
        assert res.dof == 3752
        res = two_sample_ttest(rng.normal(size=2429), rng.normal(size=2429))
        assert res.dof == 4856

    def test_identical_samples(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        res = two_sample_ttest(x, x.copy())
        assert res.t_value == 0.0
        assert res.p_two_sided == pytest.approx(1.0)
        assert res.stars == ""

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.3, 1.0, 150)
        y = rng.normal(0.0, 1.0, 220)
        res = two_sample_ttest(x, y, sides="two")
        n1, n2 = len(x), len(y)
        sp2 = ((n1 - 1) * x.var(ddof=1) + (n2 - 1) * y.var(ddof=1)) / (n1 + n2 - 2)
        t_oracle = (x.mean() - y.mean()) / np.sqrt(sp2 * (1 / n1 + 1 / n2))
        assert res.t_value == pytest.approx(float(t_oracle), abs=1e-8)
        assert res.p_greater == pytest.approx(float(student_t.sf(t_oracle, n1 + n2 - 2)))

    def test_p_complementarity(self):
        rng = np.random.default_rng(4)
        res = two_sample_ttest(rng.normal(size=50), rng.normal(0.2, 1, 60))
        assert res.p_greater + res.p_less == pytest.approx(1.0, abs=1e-10)
        assert res.p_two_sided == pytest.approx(2 * min(res.p_greater, res.p_less))

    def test_star_thresholds(self):
        assert significance_stars(0.005) == "***"
        assert significance_stars(0.03) == "**"
        assert significance_stars(0.07) == "*"
        assert significance_stars(0.2) == ""

    def test_degenerate_zero_variance(self):
        res = two_sample_ttest(np.ones(5), np.ones(5))
        assert res.degenerate and res.t_value == 0.0
        res = two_sample_ttest(np.full(5, 2.0), np.ones(5))
        assert res.degenerate and np.isinf(res.t_value)


class TestDeterminantTests:
    def test_constructed_separation(self):
        rng = np.random.default_rng(5)
        adjusted = {k: rng.normal(5.0, 1.0, 400) for k in ("dcc", "adcc", "dcc_best")}
        regular = {k: adjusted[k] - 3.0 + rng.normal(0, 0.1, 400) for k in adjusted}
        rows = determinant_tests(regular, adjusted)
        assert [row.label for row in rows] == ["dcc t-test", "adcc t-test", "dcc_best t-test"]
        for row in rows:
            assert row.test.p_less < 1e-6
            assert row.direction == "up"

    def test_identical_pipelines(self):
        series = {k: np.linspace(1.0, 2.0, 100) for k in ("dcc", "adcc", "dcc_best")}
        rows = determinant_tests(series, {k: v.copy() for k, v in series.items()})
        for row in rows:
            assert row.test.t_value == 0.0
            assert row.direction == "<->"

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            determinant_tests(
                {"dcc": np.ones(10)}, {"dcc": np.ones(11)}
            )


class TestCoefficientTests:
    def test_identical_series_all_zero_t(self):
        rng = np.random.default_rng(6)
        reg = {"dcc": rng.uniform(0, 0.5, (80, 2)), "adcc": rng.uniform(0, 0.4, (80, 3))}
        rows = coefficient_tests(reg, {k: v.copy() for k, v in reg.items()})
        assert len(rows) == 8
        assert all(r.test.t_value == 0.0 for r in rows)

    def test_shifted_persistence_significant(self):
        rng = np.random.default_rng(7)
        base_dcc = np.column_stack([rng.uniform(0.02, 0.08, 300), rng.uniform(0.85, 0.95, 300)])
        base_adcc = np.column_stack([base_dcc, rng.uniform(0.0, 0.05, 300)])
        adj_dcc = base_dcc.copy()
        adj_dcc[:, 1] -= 0.1
        adj_adcc = base_adcc.copy()
        adj_adcc[:, 1] -= 0.1
        rows = coefficient_tests(
            {"dcc": base_dcc, "adcc": base_adcc},
            {"dcc": adj_dcc, "adcc": adj_adcc},
        )
        by_label = {r.label: r for r in rows}
        assert by_label["dcc: b"].test.stars == "***"
        assert by_label["dcc: b"].direction == "down"
        assert by_label["adcc: b"].test.stars == "***"

    def test_dof_anchor(self):
        rng = np.random.default_rng(8)
        reg = {"dcc": rng.uniform(0, 1, (1877, 2)), "adcc": rng.uniform(0, 1, (1877, 3))}
        adj = {"dcc": rng.uniform(0, 1, (1877, 2)), "adcc": rng.uniform(0, 1, (1877, 3))}
        rows = coefficient_tests(reg, adj)
        assert all(r.test.dof == 3752 for r in rows)


class TestHistogram:
    def test_single_value_one_bin(self):
        counts, _ = histogram(np.full(30, 4.2))
        assert counts.shape == (HISTOGRAM_BINS,)
        assert counts.sum() == 30
        assert np.count_nonzero(counts) == 1

    def test_uniform_multinomial(self):
        rng = np.random.default_rng(9)
        n, bins = 10_000, HISTOGRAM_BINS
        counts, _ = histogram(rng.uniform(0, 10, n))
        assert counts.sum() == n
        expected = n / bins
        sigma = np.sqrt(n * (1 / bins) * (1 - 1 / bins))
        assert np.all(np.abs(counts - expected) < 3 * sigma)

    def test_cap_lands_in_last_bin(self):
        counts, _ = histogram(np.array([10.0, 10.0, 0.0]))
        assert counts[-1] == 2 and counts[0] == 1

    def test_svg_emitter_deterministic(self, tmp_path):
        counts, edges = histogram(np.array([1.0, 2.0, 9.0]))
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_histogram_svg(p1, counts, edges, title="x")
        write_histogram_svg(p2, counts, edges, title="x")
        assert p1.read_bytes() == p2.read_bytes()
        assert b"<svg" in p1.read_bytes()


def test_markdown_table_render():
    md = render_markdown_table(["a", "b"], [["1", "2"], ["3", "4"]])
    lines = md.strip().splitlines()
    assert lines[0] == "| a | b |"
    assert len(lines) == 4


def test_csv_cell_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv_table(path, ["a", "b", "c", "d", "e", "f", "g"], [
        [dt.date(2021, 3, 1), np.float64(0.1), 1 / 3, np.bool_(True), False, np.int64(7), "x"],
    ])
    assert path.read_text() == (
        "a,b,c,d,e,f,g\n2021-03-01,0.1,0.3333333333333333,1,0,7,x\n")
