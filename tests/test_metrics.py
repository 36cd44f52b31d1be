"""Coverage against an analytic-quantile oracle, confidence-bin reports,
pair-count AUC against brute-force pairwise counting, and accuracy."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from bqrnet.datasets import LabeledDataset, gen_dataset, threshold_labels
from bqrnet.metrics import (CoverageTable, accuracy, coverage, delta_report,
                            r_squared, roc_auc, roc_auc_at_delta, summary_json)
from bqrnet.network import TauGrid
from bqrnet.smoothing import ConfidenceScores, delta_scores

GRID = TauGrid.default()


def brute_force_auc(scores, labels):
    """Oracle: average pairwise win rate with half credit for ties."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            wins += 1.0 if p > q else (0.5 if p == q else 0.0)
    return wins / (len(pos) * len(neg))


def latent_dataset(latent):
    return LabeledDataset(features=np.zeros((len(latent), 1)), latent=latent)


class TestCoverage:
    def test_oracle_quantile_predictor(self):
        # exact conditional quantiles of the D1 latent: 5 sin(8x) + z_tau,
        # pushed through the same normalization as real predictions
        ds = gen_dataset("D1", 5000, seed=13)
        mu = float(np.median(ds.latent))
        ds = threshold_labels(ds, mu)
        x = ds.features[:, 0]
        preds = (5.0 * np.sin(8.0 * x)[:, None]
                 + stats.norm.ppf(GRID.array)[None, :] - mu)
        cov = coverage(ds, preds, GRID).coverage
        assert np.all(np.abs(cov - GRID.array) <= 0.03)

    def test_huge_predictions_cover_everything(self):
        # the median column needs a spread to normalize by, and after
        # normalization it has mean 0 as the latent has, so only the other
        # levels can cover every row
        lat = np.random.default_rng(0).normal(size=50)
        preds = np.full((50, 9), 1e9)
        preds[:, GRID.median_index] = lat
        cov = coverage(latent_dataset(lat), preds, GRID).coverage
        assert np.all(np.delete(cov, GRID.median_index) == 1.0)

    def test_strict_inequality(self):
        # every prediction column equals the latent, before and after
        # normalization, and no row lies strictly below itself
        lat = np.array([0.0, 1.0, 2.0, 3.0])
        preds = np.repeat(lat[:, None], 9, axis=1)
        cov = coverage(latent_dataset(lat), preds, GRID).coverage
        assert np.all(cov == 0.0)

    def test_misaligned(self):
        with pytest.raises(ValueError):
            coverage(latent_dataset(np.arange(4.0)), np.zeros((5, 9)), GRID)

    def test_csv(self, tmp_path):
        table = CoverageTable(grid=GRID, coverage=GRID.array.copy())
        path = tmp_path / "cov.csv"
        table.to_csv(path, dataset_name="D1")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("dataset,0.1,0.2")
        assert lines[1].startswith("D1,0.1000")


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_all_wrong(self):
        assert accuracy([1, 0], [0, 1]) == 0.0

    def test_half(self):
        assert accuracy([1, 1], [1, 0]) == 0.5

    def test_empty(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestRSquared:
    def test_perfect(self):
        assert r_squared([1, 2, 3], [1, 2, 3]) == 1.0

    def test_can_be_negative(self):
        assert r_squared([1.0, 2.0, 3.0], [10.0, -5.0, 30.0]) < 0

    def test_constant_observed_is_undefined(self):
        assert r_squared([0.0, 0.0], [0.45, 0.2]) is None
        assert r_squared([0.1, 0.1], [0.1, 0.1]) is None


class TestDeltaReport:
    def _reports(self, deltas, labels_pred):
        return ConfidenceScores(delta=np.asarray(deltas, dtype=float),
                                predicted_label=np.asarray(labels_pred))

    def test_perfectly_confident_and_correct(self):
        labels = np.array([1, 0, 1, 0])
        reps = self._reports([0.5] * 4, labels)
        rep = delta_report(reps, labels)
        assert rep.misclassification == [0.0] * 5
        assert rep.retention == [1.0] * 5

    def test_retention_decreasing_with_rising_thresholds(self):
        rng = np.random.default_rng(1)
        deltas = rng.uniform(0.0, 0.5, 500)
        labels = rng.integers(0, 2, 500)
        reps = self._reports(deltas, labels)
        rep = delta_report(reps, labels)
        assert all(a >= b for a, b in zip(rep.retention, rep.retention[1:]))
        assert all(a > b for a, b in
                   zip(rep.retention, rep.retention[1:]))  # strict here

    def test_empty_threshold_yields_none(self):
        labels = np.array([1, 0])
        reps = self._reports([0.05, 0.05], labels)
        rep = delta_report(reps, labels)
        assert rep.misclassification[-1] is None
        assert rep.retention[-1] == 0.0

    def test_calibrated_bins_give_high_r2(self):
        # synthetic rows whose error rate equals 0.5 - delta exactly
        rng = np.random.default_rng(2)
        deltas, labels, pred = [], [], []
        for center in (0.1, 0.2, 0.3, 0.4):
            for _ in range(500):
                deltas.append(center)
                p = int(rng.integers(0, 2))
                pred.append(p)
                wrong = rng.random() < (0.5 - center)
                labels.append(1 - p if wrong else p)
        reps = self._reports(deltas, pred)
        rep = delta_report(reps, np.array(labels))
        assert rep.r2 is not None and rep.r2 > 0.8

    def test_equal_bin_rates_give_no_r2(self, tmp_path):
        # both rows right, so both non-empty bins misclassify at rate 0
        labels = np.array([1, 0])
        rep = delta_report(self._reports([0.05, 0.3], labels), labels)
        assert rep.r2 is None
        rep.to_csv(tmp_path / "delta.csv")
        assert tmp_path.joinpath("delta.csv").read_text().splitlines()[1] \
            .endswith(",NA")

    def test_csv_marks_missing(self, tmp_path):
        labels = np.array([1, 0])
        rep = delta_report(self._reports([0.05, 0.05], labels), labels)
        path = tmp_path / "delta.csv"
        rep.to_csv(path, dataset_name="D1")
        text = path.read_text()
        assert "NA" in text


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_reversed(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_single_class_none(self):
        assert roc_auc([0.1, 0.9], [1, 1]) is None

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=20000)
        labels = rng.integers(0, 2, 20000)
        assert roc_auc(scores, labels) == pytest.approx(0.5, abs=0.02)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(4)
        for n in (10, 50, 200):
            scores = rng.integers(0, 6, n).astype(float)  # many ties
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            assert roc_auc(scores, labels) == pytest.approx(
                brute_force_auc(scores, labels), abs=1e-12)

    def test_restricted_auc(self):
        # rows linear in tau with medians 0.1, 0.9, 0.2, 0.8 and their zero
        # at level 0.1, 0.1, 0.4, 0.4, so their deltas are 0.4, 0.4, 0.1, 0.1
        scores = np.array([0.1, 0.9, 0.2, 0.8])
        labels = np.array([0, 1, 1, 0])
        zero = GRID.array[[0, 0, 3, 3], None]
        preds = scores[:, None] * ((GRID.array - zero) / (0.5 - zero))
        assert np.array_equal(preds[:, GRID.median_index], scores)
        assert np.allclose(delta_scores(preds, GRID).delta,
                           [0.4, 0.4, 0.1, 0.1])
        # keeping only the two confident rows yields perfect separation
        assert roc_auc_at_delta(preds, GRID, labels, 0.3) == 1.0
        assert roc_auc_at_delta(preds, GRID, labels, 0.0) == 0.75

    def test_restricted_auc_domain(self):
        with pytest.raises(ValueError, match="delta_min"):
            roc_auc_at_delta(np.zeros((1, 9)), GRID, np.zeros(1), 0.7)


scores_with_ties = st.one_of(st.integers(-3, 3).map(float),
                             st.floats(-1e6, 1e6))


class TestRocAucProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(scores_with_ties, st.booleans()),
                    min_size=2, max_size=60))
    def test_equals_pair_count(self, rows):
        scores = np.array([s for s, _ in rows])
        labels = np.array([int(b) for _, b in rows])
        assume(0 < labels.sum() < labels.size)
        assert roc_auc(scores, labels) == brute_force_auc(scores, labels)

    @given(st.lists(scores_with_ties, min_size=1, max_size=20),
           st.sampled_from([0, 1]))
    def test_one_class_is_none(self, scores, label):
        assert roc_auc(scores, [label] * len(scores)) is None

    @given(st.lists(scores_with_ties, min_size=2, max_size=20),
           st.data())
    def test_nan_score_is_nan(self, scores, data):
        labels = [1] + [0] * (len(scores) - 1)
        scores[data.draw(st.integers(0, len(scores) - 1))] = float("nan")
        assert math.isnan(roc_auc(scores, labels))


class TestSummaryJson:
    def test_writes_numpy_types(self, tmp_path):
        path = tmp_path / "s.json"
        summary_json(path, {"a": np.float64(1.5), "b": np.arange(3),
                            "c": {"d": np.int64(2)}})
        data = json.loads(path.read_text())
        assert data == {"a": 1.5, "b": [0, 1, 2], "c": {"d": 2}}

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_and_nothing_written(self, tmp_path,
                                                           value):
        path = tmp_path / "s.json"
        with pytest.raises(ValueError):
            summary_json(path, {"r2": value})
        assert not path.exists()
