"""Simulated generators, thresholding, label flips, splits, CSV ingestion
and export, and coverage normalization."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from bqrnet.datasets import (GENERATORS, LabeledDataset, NoiseSpec,
                             flip_labels, fold_scaling, gen_dataset, load_csv,
                             normalize_for_coverage, resolve_threshold,
                             scale_features, threshold_labels,
                             train_test_split, write_csv, write_rows)
from bqrnet.network import TauGrid, forward, init_net


def signal(dataset_id):
    return GENERATORS[dataset_id][0]


class TestGenerators:
    def test_signal_values_at_known_points(self):
        assert signal("D1")(np.array([0.0]))[0] == pytest.approx(0.0)
        assert signal("D2")(np.array([0.5]))[0] == pytest.approx(2.0)
        assert signal("D3")(np.array([0.0]))[0] == pytest.approx(
            np.sqrt(5) - 2.5)
        # removable singularity at the origin
        assert signal("D4")(np.array([0.0]))[0] == 0.0

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown dataset id 'D7'"):
            gen_dataset("D7", 10, 0)
        with pytest.raises(ValueError, match="unknown dataset id 'bogus'"):
            gen_dataset("bogus", 10, 0)

    def test_deterministic(self):
        a = gen_dataset("D1", 100, seed=5)
        b = gen_dataset("D1", 100, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.latent, b.latent)

    def test_features_in_range(self):
        for did in ("D1", "D2", "D3", "D4", "D5", "D6"):
            ds = gen_dataset(did, 500, seed=1)
            assert ds.features.shape == (500, 1)
            assert np.all(np.abs(ds.features) <= 1.0)
            assert np.all(np.isfinite(ds.latent))

    def test_d5_mean_matches_quadrature(self):
        # sample mean of the latent vs the analytic signal mean over x in
        # (-1, 1) (noise is mean zero); agreement within 3 standard errors
        ds = gen_dataset("D5", 100_000, seed=7)
        f = signal("D5")
        analytic, _ = integrate.quad(lambda x: f(np.array([x]))[0] / 2.0,
                                     -1.0, 1.0, epsabs=1e-10)
        se = ds.latent.std() / np.sqrt(ds.n)
        assert abs(ds.latent.mean() - analytic) < 3 * se

    @pytest.mark.parametrize("dataset_id, mean, var", [
        ("D1", 0.0, 1.0), ("D2", 0.0, 0.5), ("D3", 0.0, 0.03),
        ("D4", 0.0, 0.5), ("D5", 0.0, 0.25), ("D6", 0.5, 0.25)])
    def test_noise_law(self, dataset_id, mean, var):
        # rng.normal takes a standard deviation: D2 and D4 pass sqrt(0.5),
        # D5 passes 0.5; D3 is U(-0.3, 0.3) and D6 chi^2(2)/4
        n = 1_000_000
        ds = gen_dataset(dataset_id, n, seed=12)
        resid = ds.latent - signal(dataset_id)(ds.features[:, 0])
        assert resid.mean() == pytest.approx(mean, abs=5 * np.sqrt(var / n))
        assert resid.var() == pytest.approx(var, rel=0.01)

    def test_d6_noise_nonnegative(self):
        ds = gen_dataset("D6", 5000, seed=3)
        resid = ds.latent - signal("D6")(ds.features[:, 0])
        assert np.all(resid >= 0.0)
        # chi^2(2)/4 has mean 1/2
        assert resid.mean() == pytest.approx(0.5, abs=0.05)


class TestThreshold:
    def test_boundary_goes_to_class_zero(self):
        ds = LabeledDataset(features=np.zeros((3, 1)),
                            latent=np.array([-1.0, 0.0, 1.0]))
        out = threshold_labels(ds, 0.0)
        assert list(out.labels) == [0, 0, 1]
        assert out.threshold == 0.0

    def test_extreme_thresholds(self):
        ds = gen_dataset("D1", 50, seed=2)
        assert np.all(threshold_labels(ds, ds.latent.min() - 1).labels == 1)
        assert np.all(threshold_labels(ds, ds.latent.max()).labels == 0)

    def test_requires_latent(self):
        ds = LabeledDataset(features=np.zeros((2, 1)), labels=[0, 1])
        with pytest.raises(ValueError, match="requires the true latent"):
            threshold_labels(ds, 0.0)


class TestLabeledDataset:
    @pytest.mark.parametrize("features", [np.zeros(3), np.zeros((0, 1)), 1.0])
    def test_features_must_be_rows(self, features):
        # three values are three rows of one feature or one row of three,
        # so a vector is not read as either
        with pytest.raises(ValueError, match="^expected one or more rows of "
                                             "finite values, got shape "):
            LabeledDataset(features=features)

    @pytest.mark.parametrize("labels", [[0.7, 1.0], [0, 1, 1], [[0], [1]],
                                        [0, 2], [0, np.nan]])
    def test_labels_must_be_n_binary_values(self, labels):
        # 0.7 was stored as 0, and a third label was kept
        with pytest.raises(ValueError, match="^expected 2 labels of 0 or 1, "):
            LabeledDataset(features=np.zeros((2, 1)), labels=labels)


class TestFlipLabels:
    @pytest.fixture
    def ds(self):
        return threshold_labels(gen_dataset("D1", 10, seed=4), 0.0)

    def test_zero_fraction_identity(self, ds):
        out = flip_labels(ds, NoiseSpec(0.0, seed=1))
        assert np.array_equal(out.labels, ds.labels)

    def test_exact_count(self, ds):
        out = flip_labels(ds, NoiseSpec(0.5, seed=1))
        assert int((out.labels != ds.labels).sum()) == 5

    def test_deterministic(self, ds):
        a = flip_labels(ds, NoiseSpec(0.3, seed=9))
        b = flip_labels(ds, NoiseSpec(0.3, seed=9))
        assert np.array_equal(a.labels, b.labels)

    def test_involution(self, ds):
        # flipping the same index set twice restores the original labels
        once = flip_labels(ds, NoiseSpec(0.4, seed=9))
        twice = flip_labels(once, NoiseSpec(0.4, seed=9))
        assert np.array_equal(twice.labels, ds.labels)

    def test_fraction_domain(self):
        with pytest.raises(ValueError, match=r"flip fraction 0.6 outside \[0, 0.5\]"):
            NoiseSpec(0.6, seed=0)
        with pytest.raises(ValueError, match=r"flip fraction -0.1 outside \[0, 0.5\]"):
            NoiseSpec(-0.1, seed=0)


class TestSplit:
    def test_sizes_and_disjoint(self):
        ds = threshold_labels(gen_dataset("D1", 100, seed=6), 0.0)
        train, test = train_test_split(ds, test_fraction=0.3, seed=1)
        assert train.n == 70 and test.n == 30
        all_x = np.sort(np.concatenate([train.features[:, 0],
                                        test.features[:, 0]]))
        assert np.array_equal(all_x, np.sort(ds.features[:, 0]))

    def test_deterministic(self):
        ds = gen_dataset("D2", 50, seed=6)
        a, _ = train_test_split(ds, seed=3)
        b, _ = train_test_split(ds, seed=3)
        assert np.array_equal(a.features, b.features)


@pytest.fixture
def from_text(tmp_path):
    """load_csv over a file holding the given text."""
    def load(text, **kwargs):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return load_csv(path, **kwargs)
    return load


class TestCsv:
    def test_features_as_read(self, from_text):
        text = "x,label\n0,0\n5,1\n10.25,1\n"
        ds = from_text(text, label_column="label")
        assert np.array_equal(ds.features[:, 0], [0.0, 5.0, 10.25])
        assert list(ds.labels) == [0, 1, 1]

    def test_threshold_binarizes_real_response(self, from_text):
        text = "x,resp\n0,1.5\n1,2.5\n2,3.5\n"
        ds = from_text(text, label_column="resp", threshold=2.5)
        assert list(ds.labels) == [0, 0, 1]

    @pytest.mark.parametrize("spec, threshold", [
        ("median", 2.5), ("p50", 2.5), ("P0", 1.5), (" 2.0 ", 2.0), (2, 2.0)])
    def test_threshold_spec_over_response(self, from_text, spec, threshold):
        ds = from_text("x,resp\n0,1.5\n1,2.5\n2,3.5\n",
                       label_column="resp", threshold=spec)
        assert ds.threshold == threshold
        assert list(ds.labels) == [int(r > threshold) for r in (1.5, 2.5, 3.5)]

    @pytest.mark.parametrize("spec", [float("nan"), float("inf"), "nan",
                                      "-inf", " NaN "])
    def test_non_finite_threshold_rejected(self, spec):
        with pytest.raises(ValueError, match="threshold must be finite"):
            resolve_threshold(spec, np.array([1.5, 2.5, 3.5]))

    def test_malformed_threshold_spec(self, from_text):
        with pytest.raises(ValueError):
            from_text("x,resp\n0,1.5\n", label_column="resp", threshold="mean")

    @pytest.mark.parametrize("spec", ["pfoo", "abc", "p-5", "p150", "pnan",
                                      "p", ""])
    def test_bad_threshold_text_names_threshold(self, spec):
        # these printed float()'s or numpy's percentile message, which name
        # no option
        message = (f"threshold must be a number, 'median' or 'p0'..'p100', "
                   f'not "{spec}"')
        with pytest.raises(ValueError) as info:
            resolve_threshold(spec, np.array([1.5, 2.5, 3.5]))
        assert str(info.value) == message

    def test_non_binary_without_threshold(self, from_text):
        with pytest.raises(ValueError, match="label column is not binary"):
            from_text("x,label\n0,0.7\n", label_column="label")

    def test_missing_label_column(self, from_text):
        with pytest.raises(ValueError, match="label column 'label' not found"):
            from_text("x,y\n0,1\n", label_column="label")

    def test_ragged_row_reports_line(self, from_text):
        with pytest.raises(ValueError, match="^row 3: expected 2 fields, got 1$"):
            from_text("x,label\n0,1\n2\n", label_column="label")

    def test_non_numeric_field(self, from_text):
        with pytest.raises(ValueError, match="row 2: non-numeric field"):
            from_text("x,label\nfoo,1\n", label_column="label")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_field_reports_line(self, from_text, cell):
        with pytest.raises(ValueError, match="^row 3: non-finite value$"):
            from_text(f"x0,label\n0.1,0\n{cell},1\n0.5,1\n",
                      label_column="label")

    def test_non_finite_label_or_latent(self, from_text):
        with pytest.raises(ValueError, match="row 2: non-finite value"):
            from_text("x,resp\n0,nan\n1,2\n",
                      label_column="resp", threshold=1.0)
        with pytest.raises(ValueError, match="row 3: non-finite value"):
            from_text("x,lat,label\n0,0.5,0\n1,inf,1\n",
                      label_column="label", latent_column="lat")

    @pytest.mark.parametrize("header, names", [
        ("label,x,label", "'label'"), ("x, x,label", "'x'"),
        ("x,label,x,label", "'label', 'x'")])
    def test_repeated_column_names_rejected(self, from_text, header, names):
        # the second label column was read as a feature: a label leak
        row = ",".join("0" * len(header.split(",")))
        with pytest.raises(ValueError) as info:
            from_text(f"{header}\n{row}\n", label_column="label")
        assert str(info.value) == f"repeated column name(s): {names}"

    def test_label_column_may_be_the_latent_column(self, from_text):
        ds = from_text("x,latent\n0,1.5\n1,2.5\n2,3.5\n", label_column="latent",
                       threshold="median", latent_column="latent")
        assert list(ds.labels) == [0, 0, 1]
        assert list(ds.latent) == [1.5, 2.5, 3.5]
        assert ds.column_names == ["x"]

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_csv("/nonexistent/file.csv", label_column="label")

    def test_byte_order_mark_skipped(self, tmp_path):
        # spreadsheet programs start a UTF-8 CSV with a byte-order mark
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbflabel,x\n1,0.5\n0,-0.5\n")
        ds = load_csv(path, label_column="label")
        assert ds.column_names == ["x"]
        assert list(ds.labels) == [1, 0]

    def test_non_ascii_header_whatever_the_locale(self, tmp_path):
        # an ASCII locale without UTF-8 mode must neither fail to read a
        # UTF-8 header nor write it back in another encoding
        text = "x_\u00e9,label\r\n0.5,1\r\n-0.5,0\r\n".encode()
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_bytes(text)
        src_dir = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C",
                   PYTHONPATH=os.pathsep.join(
                       [src_dir] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = ("import sys; from bqrnet.datasets import load_csv, write_csv; "
                "write_csv(load_csv(sys.argv[1], label_column='label'), sys.argv[2])")
        subprocess.run([sys.executable, "-c", code, str(src), str(dst)],
                       env=env, capture_output=True, timeout=60, check=True)
        assert dst.read_bytes() == text

    def test_round_trip(self, tmp_path):
        ds = threshold_labels(gen_dataset("D3", 20, seed=8), 0.0)
        path = tmp_path / "d3.csv"
        write_csv(ds, path)
        back = load_csv(path, label_column="label", latent_column="latent")
        assert np.allclose(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert np.allclose(back.latent, ds.latent)

    @pytest.mark.parametrize("latent, labels", [
        (True, True), (False, True), (True, False)])
    def test_write_csv_text_matches_per_row_repr(self, tmp_path, latent,
                                                 labels):
        ds = threshold_labels(gen_dataset("D6", 300, seed=2), 1.0)
        ds = LabeledDataset(features=ds.features,
                            labels=ds.labels if labels else None,
                            latent=ds.latent if latent else None)
        path, ref = tmp_path / "d6.csv", tmp_path / "ref.csv"
        write_csv(ds, path)
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x0"] + ["latent"] * latent + ["label"] * labels)
            for i in range(ds.n):
                row = [repr(float(v)) for v in ds.features[i]]
                if latent:
                    row.append(repr(float(ds.latent[i])))
                if labels:
                    row.append(str(int(ds.labels[i])))
                writer.writerow(row)
        assert path.read_bytes() == ref.read_bytes()

    def test_scale_features_constant_column(self):
        out = scale_features(np.array([[2.0], [2.0]]),
                             np.array([2.0]), np.array([2.0]))
        assert np.all(out == 0.0)


# every kind of cell a caller might hand write_rows: a str may need quoting,
# and the repr of a NumPy scalar, such as np.float64(0.1), is not its csv text
CELLS = st.one_of(
    st.integers(), st.floats(), st.sampled_from([-0.0, np.nan, np.inf, -np.inf]),
    st.booleans(), st.none(),
    st.floats().map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.text(st.sampled_from([",", '"', "\r", "\n", "a", " ", "\u00e9"]),
            max_size=4))
NUMBERS = st.one_of(st.integers(), st.floats())


def csv_module_bytes(path, header, rows):
    """The bytes csv.writer writes for a header and rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


class TestWriteRows:
    @settings(max_examples=200, deadline=None)
    @given(header=st.lists(CELLS, max_size=4),
           rows=st.lists(st.one_of(st.lists(NUMBERS, max_size=6),
                                   st.lists(CELLS, max_size=6)), max_size=8))
    def test_bytes_match_csv_writer(self, tmp_path_factory, header, rows):
        tmp = tmp_path_factory.mktemp("rows")
        write_rows(tmp / "out.csv", header, rows)
        assert (tmp / "out.csv").read_bytes() == csv_module_bytes(
            tmp / "ref.csv", header, rows)

    @pytest.mark.parametrize("row", [[""], []])
    def test_one_row(self, tmp_path, row):
        # csv quotes a lone empty field, so that the line is not blank
        write_rows(tmp_path / "out.csv", ["a"], [row])
        assert (tmp_path / "out.csv").read_bytes() == csv_module_bytes(
            tmp_path / "ref.csv", ["a"], [row])


@st.composite
def nets_and_raw_columns(draw):
    """A net of 1-4 inputs with every parameter drawn from N(0, 1), the
    (lo, hi) of each input column, and 1-30 raw rows that reach half a span
    beyond them. Offsets stay within 10 spans of 0: folding cancels s x
    against s lo + 1, and at 10 spans the worst of 5000 random cases was
    2.5e-14 (2.6e-13 at 100 spans). The last column may be constant, and
    then its rows take any value."""
    d = draw(st.integers(1, 4))
    trunk = draw(st.lists(st.integers(1, 16), min_size=1, max_size=3))
    m = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    net = init_net(d, trunk, TauGrid(tuple((np.arange(m) + 1.0) / (m + 1))),
                   seed=seed)
    rng = np.random.default_rng(seed)
    net.params[:] = rng.normal(size=net.params.size)
    span = np.array(draw(st.lists(st.floats(0.1, 100.0), min_size=d,
                                  max_size=d)))
    lo = span * np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=d,
                                       max_size=d)))
    x = lo + span * rng.uniform(-0.5, 1.5, size=(draw(st.integers(1, 30)), d))
    if draw(st.booleans()):
        span[-1] = 0.0
        x[:, -1] = lo[-1] + rng.normal(size=len(x))
    return net, x, lo, lo + span


class TestFoldScaling:
    @settings(max_examples=200, deadline=None)
    @given(nets_and_raw_columns())
    def test_folded_net_takes_raw_features(self, case):
        net, x, lo, hi = case
        want = forward(net, scale_features(x, lo, hi))
        got = forward(fold_scaling(net, lo, hi), x)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_returns_a_copy(self):
        net = init_net(2, [4], TauGrid.default(), seed=1)
        before = net.params.copy()
        folded = fold_scaling(net, np.array([0.0, 3.0]), np.array([10.0, 3.0]))
        assert np.array_equal(net.params, before)
        assert not np.shares_memory(folded.params, net.params)
        # the constant second column reaches the network as 0
        assert np.all(folded.trunk_w[0][:, 1] == 0.0)


class TestCoverageNormalization:
    def test_standardization(self):
        ds = threshold_labels(gen_dataset("D1", 400, seed=9),
                              float(np.median(gen_dataset("D1", 400, seed=9).latent)))
        preds = np.sort(np.random.default_rng(0).normal(size=(400, 9)), axis=1)
        lat, pn = normalize_for_coverage(ds, preds, TauGrid.default())
        assert lat.mean() == pytest.approx(0.0, abs=1e-9)
        assert lat.std() == pytest.approx(1.0, abs=1e-9)
        med = pn[:, 4]
        assert med.mean() == pytest.approx(0.0, abs=1e-9)
        assert med.std() == pytest.approx(1.0, abs=1e-9)

    def test_threshold_cancels(self):
        # coverage needs only the latent: subtracting any threshold first
        # moves the standardized latent by rounding alone
        ds = gen_dataset("D2", 300, seed=4)
        preds = np.sort(np.random.default_rng(1).normal(size=(300, 9)), axis=1)
        lat, _ = normalize_for_coverage(ds, preds, TauGrid.default())
        for mu in (-2.0, 0.7, float(np.median(ds.latent))):
            centred = ds.latent - mu
            old = (centred - centred.mean()) / centred.std()
            assert np.abs(lat - old).max() <= 1e-12
            lat_t, _ = normalize_for_coverage(threshold_labels(ds, mu), preds,
                                              TauGrid.default())
            assert np.array_equal(lat_t, lat)

    def test_degenerate_latent(self):
        ds = LabeledDataset(features=np.zeros((5, 1)),
                            latent=np.full(5, 2.0), labels=np.zeros(5),
                            threshold=0.0)
        with pytest.raises(ValueError, match="degenerate latent"):
            normalize_for_coverage(ds, np.zeros((5, 9)), TauGrid.default())

    def test_alignment_checks(self):
        ds = threshold_labels(gen_dataset("D1", 10, seed=1), 0.0)
        with pytest.raises(ValueError):
            normalize_for_coverage(ds, np.zeros((9, 9)), TauGrid.default())
        with pytest.raises(ValueError):
            normalize_for_coverage(ds, np.zeros((10, 3)), TauGrid.default())
