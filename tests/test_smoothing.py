"""Kernel-smoothed quantile function, conditional moments, prediction
intervals, and the confidence (delta) score."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, stats

from bqrnet.network import TauGrid
from bqrnet.smoothing import (ConfidenceScores, SmoothedQuantileFn, _moment_operator,
                              conditional_mean, conditional_moments,
                              conditional_stat, delta_score, delta_scores,
                              prediction_interval, prediction_intervals,
                              smooth)

GRID = TauGrid.default()


class TestSmoothedQuantileFn:
    def test_constant_maps_to_constant(self):
        sq = smooth(np.full(9, 3.7), GRID)
        taus = np.linspace(0.001, 0.999, 101)
        assert np.allclose(sq(taus), 3.7, atol=1e-12)

    def test_weights_match_quadrature_oracle(self):
        # each raw weight equals the Gaussian kernel mass over its knot
        # interval; compare the pre-normalization ratio structure by
        # normalizing the quadrature values identically
        sq = smooth(np.arange(9.0), GRID, h=0.1)
        taus = GRID.array
        knots = np.concatenate(([0.0], 0.5 * (taus[:-1] + taus[1:]), [1.0]))
        for tau in (0.05, 0.3, 0.5, 0.77, 0.95):
            w = sq.weights(tau)[0]
            oracle = np.empty(len(knots) - 1)
            for i in range(len(knots) - 1):
                val, _ = integrate.quad(
                    lambda u: stats.norm.pdf(u, loc=tau, scale=0.1),
                    knots[i], knots[i + 1], epsabs=1e-12)
                oracle[i] = val
            oracle /= oracle.sum()
            assert np.allclose(w, oracle, atol=1e-8)

    def test_weights_partition_of_unity(self):
        sq = smooth(np.arange(9.0), GRID, h=0.07)
        taus = np.linspace(0.001, 0.999, 211)
        assert np.allclose(sq.weights(taus).sum(axis=1), 1.0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=1, max_size=15,
                    unique=True),
           st.floats(1e-3, 10.0),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_weights_sum_to_one(self, levels, h, taus):
        # at any level in [0, 1], and at the quadrature nodes of the moments
        grid = TauGrid(tuple(sorted(levels)))
        w = smooth(np.zeros(len(grid)), grid, h).weights(taus)
        nodes, _, _ = _moment_operator(grid.levels, h)
        for weights in (w, nodes):
            assert np.all(weights >= 0.0)
            assert np.allclose(weights.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)

    def test_strictly_increasing_values_give_increasing_function(self):
        sq = smooth(np.linspace(-2, 2, 9), GRID)
        taus = np.linspace(0.0005, 0.9995, 1001)
        assert np.all(np.diff(sq(taus)) > 0)

    def test_bandwidth_positive(self):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            smooth(np.zeros(9), GRID, h=0.0)

    @pytest.mark.parametrize("h", [np.inf, 1.5e308])
    def test_bandwidth_whose_weights_cannot_be_normalized(self, h):
        # h sqrt 2 overflows at 1.5e308, so every kernel row sums to 0; both
        # gave NaN, not an error
        with pytest.raises(ValueError, match="bandwidth"):
            smooth(np.zeros(9), GRID, h)(0.5)
        with pytest.raises(ValueError, match="bandwidth"):
            conditional_moments(np.zeros((2, 9)), GRID, h)

    @pytest.mark.parametrize("h", [10.0 ** k for k in range(18)] + [1e300],
                             ids="{:g}".format)
    def test_antisymmetric_row_keeps_zero_mean_at_wide_bandwidths(self, h):
        # the weights were differences of normal CDFs that round near 0.5:
        # the mean read 7.3e-7 at 1e12 and 0.013 at 1e15, and from 1e16 on
        # no weights could be normalized
        mean, _ = conditional_moments(np.linspace(-2, 2, 9)[None, :], GRID, h)
        assert abs(mean[0]) <= 3e-15

    @pytest.mark.parametrize("h", [0.02, 0.1, 0.5])
    def test_weights_match_normal_cdf_differences(self, h):
        # at working bandwidths the weights are the CDF differences they were
        cdf = np.frompyfunc(lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0)), 1, 1)
        knots = np.concatenate(([0.0], 0.5 * (GRID.array[:-1] + GRID.array[1:]),
                                [1.0]))
        taus = np.linspace(0.0, 1.0, 1001)
        c = cdf((taus[:, None] - knots[None, :]) / h).astype(float)
        ref = c[:, :-1] - c[:, 1:]
        ref /= ref.sum(axis=1, keepdims=True)
        assert np.abs(smooth(np.zeros(9), GRID, h).weights(taus) - ref).max() \
            <= 3e-16

    def test_values_align_with_grid(self):
        with pytest.raises(ValueError):
            smooth(np.zeros(5), GRID)

    def test_scalar_evaluation(self):
        sq = smooth(np.linspace(0, 1, 9), GRID)
        assert isinstance(sq(0.5), float)


class TestConditionalMoments:
    def test_constant_mean(self):
        sq = smooth(np.full(9, -1.2), GRID)
        assert conditional_mean(sq) == pytest.approx(-1.2, abs=1e-9)

    def test_constant_variance_zero(self):
        sq = smooth(np.full(9, 4.0), GRID)
        assert conditional_stat(sq, "variance") == pytest.approx(0.0, abs=1e-9)
        assert conditional_stat(sq, "moment", k=2) == pytest.approx(16.0, abs=1e-7)

    def test_constant_rows_have_no_negative_variance(self):
        # rounding left 151 of these 200 rows, and the 4.0 row, below 0
        c = np.random.default_rng(0).normal(0.0, 10.0, 200)
        rows = np.repeat(c[:, None], 9, axis=1)
        mean, var = conditional_moments(rows, GRID)
        _, w_mean, _ = _moment_operator(GRID.levels, 0.1)
        assert np.all(var >= 0.0)
        assert np.array_equal(mean, rows @ w_mean)
        assert np.allclose(mean, c, rtol=0.0, atol=1e-12)
        assert conditional_stat(smooth(np.full(9, 4.0), GRID), "variance") >= 0.0

    def test_antisymmetric_values_mean_zero(self):
        vals = np.linspace(-3, 3, 9)
        assert conditional_mean(smooth(vals, GRID)) == pytest.approx(0.0, abs=1e-6)

    def test_normal_quantile_grid(self):
        # truncating the grid at the 10th/90th percentiles caps the
        # representable variance near 0.70; smoothing shrinks it further.
        # The binding check is agreement with an independent adaptive
        # quadrature of the smoothed function.
        vals = stats.norm.ppf(GRID.array)
        sq = smooth(vals, GRID)
        assert conditional_mean(sq) == pytest.approx(0.0, abs=0.05)
        var = conditional_stat(sq, "variance")
        mean_oracle, _ = integrate.quad(lambda t: sq(t), 0.0, 1.0,
                                        epsabs=1e-10, limit=200)
        second_oracle, _ = integrate.quad(lambda t: sq(t) ** 2, 0.0, 1.0,
                                          epsabs=1e-10, limit=200)
        assert var == pytest.approx(second_oracle - mean_oracle ** 2, abs=1e-6)
        assert 0.4 < var < 1.0

    def test_unknown_functional(self):
        with pytest.raises(ValueError):
            conditional_stat(smooth(np.zeros(9), GRID), "skewness")


class TestPredictionInterval:
    def test_grid_hit(self):
        vals = np.linspace(10, 18, 9)
        lo, hi = prediction_interval(vals, GRID, 0.2)
        assert lo == pytest.approx(vals[0])
        assert hi == pytest.approx(vals[8])

    def test_interpolated_midpoints(self):
        vals = np.linspace(0, 8, 9)
        lo, hi = prediction_interval(vals, GRID, 0.5)
        # 0.25 and 0.75 sit halfway between grid levels
        assert lo == pytest.approx(1.5)
        assert hi == pytest.approx(6.5)
        assert lo <= hi

    def test_out_of_grid(self):
        with pytest.raises(ValueError, match="outside the grid span"):
            prediction_interval(np.zeros(9), GRID, 0.1)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_level_outside_unit_interval(self, level):
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\)"):
            prediction_interval(np.linspace(0, 8, 9), GRID, level)


class TestDeltaScore:
    def test_all_positive_no_crossing(self):
        rep = delta_score(np.linspace(0.5, 4.0, 9), GRID)
        assert rep.delta == 0.5
        assert rep.predicted_label == 1
        assert rep.expected_misclassification == 0.0

    def test_all_negative_no_crossing(self):
        rep = delta_score(np.linspace(-4.0, -0.5, 9), GRID)
        assert rep.delta == 0.5
        assert rep.predicted_label == 0

    def test_crossing_by_hand(self):
        # Q(0.4) = -0.1, Q(0.5) = +0.1: linear interpolant crosses zero at
        # tau = 0.45, so delta = 0.05 with label 1
        vals = np.array([-0.9, -0.7, -0.5, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9])
        rep = delta_score(vals, GRID)
        assert rep.delta == pytest.approx(0.05, abs=1e-12)
        assert rep.predicted_label == 1
        assert rep.expected_misclassification == pytest.approx(0.45)

    def test_median_exactly_zero(self):
        vals = np.linspace(-1, 1, 9)
        vals[4] = 0.0
        rep = delta_score(vals, GRID)
        assert rep.delta == 0.0
        assert rep.predicted_label == 0
        assert rep.expected_misclassification == 0.5

    def test_negative_median_crossing(self):
        # mirror case: Q(0.5) = -0.1, Q(0.6) = +0.1 crosses at 0.55
        vals = np.array([-0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7])
        rep = delta_score(vals, GRID)
        assert rep.delta == pytest.approx(0.05, abs=1e-12)
        assert rep.predicted_label == 0

    def test_grid_must_contain_median(self):
        with pytest.raises(ValueError):
            delta_score(np.zeros(2), TauGrid((0.4, 0.6)))

    def test_misaligned_values(self):
        with pytest.raises(ValueError):
            delta_score(np.zeros(5), GRID)

    def test_delta_scores_rowwise(self):
        mat = np.vstack([np.linspace(0.5, 4.0, 9), np.linspace(-4.0, -0.5, 9)])
        scores = delta_scores(mat, GRID)
        assert isinstance(scores, ConfidenceScores)
        assert scores.predicted_label.tolist() == [1, 0]
        assert scores.delta.tolist() == [0.5, 0.5]
        assert scores.expected_misclassification.tolist() == [0.0, 0.0]

    def test_delta_in_range(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            vals = np.sort(rng.normal(size=9))
            rep = delta_score(vals, GRID)
            assert 0.0 <= rep.delta <= 0.5
            assert rep.predicted_label in (0, 1)
            # label consistent with the median sign
            if vals[4] > 0:
                assert rep.predicted_label == 1


# knot values with ties and exact zeros; magnitudes stay far from underflow,
# so positive scaling keeps every sign and every crossing
knot_values = st.one_of(st.integers(-3, 3).map(float),
                        st.floats(-100.0, 100.0).filter(lambda v: abs(v) > 1e-6))
pred_matrices = hnp.arrays(float, st.tuples(st.integers(1, 12), st.just(9)),
                           elements=knot_values)


class TestDeltaProperties:
    @settings(max_examples=100, deadline=None)
    @given(pred_matrices, st.floats(1e-3, 1e3))
    def test_in_range_and_scale_invariant(self, preds, factor):
        scores = delta_scores(preds, GRID)
        assert np.all((scores.delta >= 0.0) & (scores.delta <= 0.5))
        scaled = delta_scores(factor * preds, GRID)
        assert np.allclose(scaled.delta, scores.delta, rtol=0.0, atol=1e-12)
        assert np.array_equal(scaled.predicted_label, scores.predicted_label)

    @settings(max_examples=100, deadline=None)
    @given(pred_matrices)
    def test_row_score_is_that_row_of_the_batch(self, preds):
        scores = delta_scores(preds, GRID)
        for i, row in enumerate(preds):
            one = delta_score(row, GRID)
            assert isinstance(one, ConfidenceScores)
            assert type(one.delta) is float and type(one.predicted_label) is int
            assert one.delta == scores.delta[i]
            assert one.predicted_label == scores.predicted_label[i]


def _rowwise_delta(values, taus, mid):
    """Reference: scan outward from the median for the bracketing knot."""
    if values[mid] == 0.0:
        return 0.0, 0
    if values[mid] > 0:
        for a in range(mid - 1, -1, -1):
            if values[a] <= 0.0:
                b = a + 1
                tau = taus[a] - values[a] * (taus[b] - taus[a]) \
                    / (values[b] - values[a])
                return min(max(0.5 - tau, 0.0), 0.5), 1
        return 0.5, 1
    for b in range(mid + 1, len(taus)):
        if values[b] >= 0.0:
            a = b - 1
            tau = taus[a] - values[a] * (taus[b] - taus[a]) \
                / (values[b] - values[a])
            return min(max(tau - 0.5, 0.0), 0.5), 0
    return 0.5, 0


def _rowwise_moments(values, h):
    """Reference: composite Simpson over the smoothed function's values."""
    taus = np.linspace(0.0, 1.0, 1001)
    q = smooth(values, GRID, h)(taus)

    def simpson(fx):
        return (taus[1] - taus[0]) / 3.0 * (
            fx[0] + fx[-1] + 4.0 * fx[1:-1:2].sum() + 2.0 * fx[2:-1:2].sum())

    mean = simpson(q)
    return mean, simpson(q ** 2) - mean ** 2


class TestBatchAgainstRowwise:
    @pytest.fixture(scope="class")
    def preds(self):
        rng = np.random.default_rng(21)
        n = 400
        monotone = np.sort(rng.normal(size=(n, 9)), axis=1) \
            * rng.uniform(0.1, 3.0, (n, 1)) + rng.normal(0.0, 1.0, (n, 1))
        crossing = rng.normal(size=(n, 9))
        zero_median = np.sort(rng.normal(size=(n, 9)), axis=1)
        zero_median[:, GRID.median_index] = 0.0
        all_pos = np.abs(rng.normal(size=(n, 9))) + 0.1
        all_neg = -np.abs(rng.normal(size=(n, 9))) - 0.1
        ties = rng.integers(-2, 3, (n, 9)).astype(float)
        return np.vstack([monotone, crossing, zero_median, all_pos, all_neg,
                          ties])

    # a median that is the grid's only, first, last or a middle level
    @pytest.mark.parametrize("grid", [
        TauGrid((0.5,)), TauGrid((0.5, 0.7)), TauGrid((0.3, 0.5)), GRID],
        ids=["median-alone", "median-first", "median-last", "default"])
    def test_delta_and_label_exact(self, preds, grid):
        preds = preds[:, :len(grid)]
        scores = delta_scores(preds, grid)
        ref = [_rowwise_delta(row, grid.array, grid.median_index)
               for row in preds]
        assert np.array_equal(scores.delta, [d for d, _ in ref])
        assert np.array_equal(scores.predicted_label, [lab for _, lab in ref])
        one = delta_score(preds[7], grid)
        assert (one.delta, one.predicted_label) == ref[7]

    @pytest.mark.parametrize("level", [0.2, 0.25, 0.5, 0.8])
    def test_intervals_exact(self, preds, level):
        lo, hi = prediction_intervals(preds, GRID, level)
        taus = GRID.array
        assert np.array_equal(
            lo, [np.interp(0.5 * level, taus, row) for row in preds])
        assert np.array_equal(
            hi, [np.interp(1.0 - 0.5 * level, taus, row) for row in preds])
        assert prediction_interval(preds[3], GRID, level) == (lo[3], hi[3])

    @pytest.mark.parametrize("h", [0.05, 0.1])
    def test_mean_and_variance(self, preds, h):
        rows = preds[::12]
        mean, var = conditional_moments(rows, GRID, h)
        ref = np.array([_rowwise_moments(row, h) for row in rows])
        assert np.abs(mean - ref[:, 0]).max() <= 1e-12
        assert np.abs(var - ref[:, 1]).max() <= 1e-12
        sq = smooth(rows[5], GRID, h)
        assert abs(conditional_mean(sq) - ref[5, 0]) <= 1e-12
        assert abs(conditional_stat(sq, "variance") - ref[5, 1]) <= 1e-12

    def test_batch_validates(self):
        with pytest.raises(ValueError):
            conditional_moments(np.zeros((3, 5)), GRID)
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            conditional_moments(np.zeros((3, 9)), GRID, h=0.0)
        with pytest.raises(ValueError):
            delta_scores(np.zeros(9), GRID)
