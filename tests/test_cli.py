"""End-to-end command-line checks: simulate, train, evaluate, noise-sweep,
lalr-bench, and smooth, including config-file merging and exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bqrnet import cli, datasets, network
from bqrnet.cli import EXIT_RUNTIME, EXIT_VALIDATION, main


SMOKE_BLOBS = Path(__file__).resolve().parent.parent / "data" / "smoke_blobs.csv"


def run(args):
    return main([str(a) for a in args])


def rewrite_checkpoint(src, dst, params=None, **meta):
    """Copy the checkpoint ``src`` to ``dst`` with the given meta keys
    replaced and, when given, another params array."""
    with np.load(src) as ckpt:
        arrays = dict(ckpt)
    meta = {**json.loads(arrays["meta"].tobytes()), **meta}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    if params is not None:
        arrays["params"] = params
    np.savez(dst, **arrays)


def strict_json(path):
    """The JSON file at ``path``, rejecting NaN and the infinities, which
    RFC 8259 does not allow."""
    def reject(constant):
        raise ValueError(f"{path}: {constant} is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=reject)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small trained checkpoint shared by evaluate/smooth tests."""
    out = tmp_path_factory.mktemp("trained")
    rc = run(["train", "--id", "D3", "--n", "600", "--seed", "5",
              "--trunk", "16,16", "--epochs", "60", "--batch-size", "64",
              "--lr", "lalr", "--out", out])
    assert rc == 0
    return out


class TestSimulate:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "d1.csv"
        rc = run(["simulate", "--id", "D1", "--n", "200", "--seed", "7",
                  "--threshold", "median", "--out", out])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == "x0,latent,label"
        assert len(out.read_text().splitlines()) == 201

    def test_unknown_id_exit_code(self, tmp_path, capsys):
        rc = run(["simulate", "--id", "D9", "--n", "10", "--seed", "0",
                  "--out", tmp_path / "x.csv"])
        assert rc == EXIT_VALIDATION
        assert "D1" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["simulate", "--id", "D2", "--n", "50", "--seed", "3",
                        "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_data_key_left_to_other_commands(self, tmp_path):
        config = tmp_path / "cfg.yaml"
        config.write_text("dataset_id: D1\nn: 20\ndata: d1.csv\n")
        out = tmp_path / "d1.csv"
        assert run(["simulate", "--config", config, "--out", out]) == 0
        assert len(out.read_text().splitlines()) == 21

    def test_percentile_threshold(self, tmp_path):
        out = tmp_path / "p80.csv"
        assert run(["simulate", "--id", "D1", "--n", "500", "--seed", "1",
                    "--threshold", "p80", "--out", out]) == 0
        labels = [int(l.rsplit(",", 1)[1])
                  for l in out.read_text().splitlines()[1:]]
        assert sum(labels) == 100


def test_successive_calls_do_not_share_options(tmp_path):
    from bqrnet import cli
    assert cli.build_parser() is cli.build_parser()
    p80, default = tmp_path / "p80.csv", tmp_path / "default.csv"
    for extra, out in ((["--threshold", "p80"], p80), ([], default)):
        assert run(["simulate", "--id", "D1", "--n", "500", "--seed", "1",
                    *extra, "--out", out]) == 0
    for path, positives in ((p80, 100), (default, 250)):
        labels = [int(l.rsplit(",", 1)[1])
                  for l in path.read_text().splitlines()[1:]]
        assert sum(labels) == positives


class TestTrain:
    def test_writes_artifacts(self, trained):
        assert (trained / "checkpoint.npz").exists()
        trace = (trained / "trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,loss,accuracy,eta,kz"
        assert len(trace) == 61
        summary = json.loads((trained / "train_summary.json").read_text())
        assert "config_hash" in summary and summary["final_loss"] is not None

    def test_lalr_trace_consistent(self, trained):
        # eta column equals 1 / (kz * L) for the default 9-level grid, lam=1
        from bqrnet.losses import LossSpec, lipschitz_const
        from bqrnet.network import TauGrid
        lip = lipschitz_const(LossSpec(grid=TauGrid.default(), lam=1.0))
        rows = (trained / "trace.csv").read_text().splitlines()[1:3]
        for row in rows:
            _, _, _, eta, kz = row.split(",")
            assert float(eta) == pytest.approx(1.0 / (float(kz) * lip))

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("dataset_id: D1\nn: 200\nseed: 2\nepochs: 5\n"
                       "trunk: [8]\nbatch_size: 32\n")
        out = tmp_path / "run"
        rc = run(["train", "--config", cfg, "--epochs", "3", "--out", out])
        assert rc == 0
        assert len((out / "trace.csv").read_text().splitlines()) == 4

    def test_missing_dataset(self, capsys):
        assert run(["train", "--epochs", "1"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("text, flags", [
        ("dataset_id: D1\n", ["--data", SMOKE_BLOBS, "--label-column", "label"]),
        ("data: d.csv\nlabel_column: label\n", ["--id", "D1"]),
    ], ids=["config-id-flag-data", "config-data-flag-id"])
    def test_dataset_id_and_data_rejected(self, tmp_path, capsys, text, flags):
        # a config's dataset_id used to win over a --data flag
        config = tmp_path / "cfg.yaml"
        config.write_text(text)
        out = tmp_path / "run"
        assert run(["train", "--config", config, *flags, "--trunk", "4",
                    "--epochs", "1", "--out", out]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "dataset_id" in err and "data (--data)" in err
        assert not out.exists()

    def test_fit_setup_scales_each_column(self, tmp_path):
        # every fit scales its features by their own min and max, and folds
        # that map into the net, so the checkpoint takes them as read
        data = tmp_path / "d.csv"
        data.write_text("x,c,label\n0,3,0\n5,3,1\n10,3,1\n")
        ds, fresh, fold = cli._fit_setup(
            {"data": str(data), "label_column": "label"}, [4])
        assert np.allclose(ds.features, [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        assert list(ds.labels) == [0, 1, 1]
        net, _ = fresh()
        raw = datasets.load_csv(data, label_column="label").features
        assert np.allclose(network.forward(fold(net), raw),
                           network.forward(net, ds.features), rtol=0.0,
                           atol=1e-12)
        simulated, _, _ = cli._fit_setup({"dataset_id": "D1", "n": 100}, [4])
        assert simulated.features.min() == -1.0
        assert simulated.features.max() == 1.0

    def test_simulated_and_csv_sources_fit_alike(self, tmp_path):
        # one D1 draw, given by id or as its simulate file, trains one model
        data = tmp_path / "d1.csv"
        assert run(["simulate", "--id", "D1", "--n", "400", "--seed", "7",
                    "--out", data]) == 0
        fit = ["--seed", "7", "--trunk", "8,8", "--epochs", "5"]
        sources = {"id": ["--id", "D1", "--n", "400"],
                   "csv": ["--data", data, "--label-column", "label",
                           "--latent-column", "latent"]}
        for name, source in sources.items():
            assert run(["train", *source, *fit, "--out", tmp_path / name]) == 0
        ckpt = [network.load_checkpoint(tmp_path / name / "checkpoint.npz")
                for name in sources]
        assert np.array_equal(ckpt[0].params, ckpt[1].params)
        assert (tmp_path / "id" / "trace.csv").read_bytes() \
            == (tmp_path / "csv" / "trace.csv").read_bytes()

    def test_percentile_threshold_on_csv_response(self, tmp_path):
        rng = np.random.default_rng(4)
        data = tmp_path / "d.csv"
        np.savetxt(data, np.column_stack([rng.uniform(-1, 1, 500),
                                          rng.normal(size=500)]),
                   delimiter=",", header="x0,latent", comments="")
        argv = ["train", "--data", data, "--label-column", "latent",
                "--threshold", "p80", "--trunk", "4", "--epochs", "1",
                "--out", tmp_path / "run"]
        assert run(argv) == 0
        cfg = cli._resolve(cli.build_parser().parse_args(map(str, argv)))
        assert cli._load_dataset(cfg).labels.sum() == 100

    @pytest.mark.parametrize("epochs", ["0", "1"])
    def test_grid_without_median_rejected(self, tmp_path, capsys, epochs):
        out = tmp_path / "run"
        rc = run(["train", "--id", "D1", "--n", "100", "--grid", "0.1,0.9",
                  "--epochs", epochs, "--out", out])
        assert rc == EXIT_VALIDATION
        assert "median" in capsys.readouterr().err
        assert not (out / "checkpoint.npz").exists()

    def test_malformed_yaml_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("dataset_id: [D1\nn: 200\n")
        rc = run(["train", "--config", cfg, "--epochs", "1",
                  "--out", tmp_path / "run"])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {cfg}: expected ',' or ']', but got ':' at line 2, "
            "column 2\n")

    @pytest.mark.parametrize("text, problem", [
        (b"a: [1", "expected ',' or ']', but got '<stream end>' at line 1, "
                   "column 6"),
        (b"a: !!python/object:os.system 1\n", "could not determine a "
         "constructor for the tag 'tag:yaml.org,2002:python/object:os.system' "
         "at line 1, column 4"),
        (b"a: \xff\n", "unacceptable character #x00ff: invalid start byte")],
        ids=["unclosed", "unsafe-tag", "not-utf-8"])
    def test_yaml_error_is_one_line(self, tmp_path, capsys, text, problem):
        # the parser's message spans up to five lines
        cfg = tmp_path / "bad.yaml"
        cfg.write_bytes(text)
        assert run(["train", "--config", cfg]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {cfg}: {problem}\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--trunk", "", 'trunk must be int, not ""'),
        ("--trunk", "4,x", 'trunk must be int, not "x"'),
        ("--grid", "0.5,x", 'grid must be float, not "x"')])
    def test_list_item_names_its_key(self, tmp_path, capsys, flag, value,
                                     message):
        # these printed int()'s or float()'s message, which names no option
        out = tmp_path / "run"
        assert run(["train", "--id", "D1", "--n", "100", "--epochs", "1",
                    flag, value, "--out", out]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_config_key_set_twice_rejected(self, tmp_path, capsys):
        # the last value won: this file trained 3 epochs and exited 0
        cfg = tmp_path / "twice.yaml"
        cfg.write_text("dataset_id: D1\nn: 100\nepochs: 1\nepochs: 3\n")
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--trunk", "4",
                    "--out", out]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f'error: {cfg}: duplicate key "epochs" at line 4, column 1\n')
        assert not out.exists()

    def test_nan_quantile_level_rejected(self, tmp_path, capsys):
        # it trained a NaN column, the grid's median_index, and exited 3
        # with a non-finite loss
        out = tmp_path / "run"
        assert run(["train", "--id", "D1", "--n", "100", "--epochs", "1",
                    "--grid", "0.5,nan", "--out", out]) == EXIT_VALIDATION
        assert capsys.readouterr().err \
            == "error: quantile levels must lie strictly in (0, 1)\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["pfoo", "abc", "p-5", "p150"])
    def test_bad_threshold_text_names_threshold(self, tmp_path, capsys, value):
        # these printed float()'s or numpy's percentile message
        out = tmp_path / "run"
        assert run(["train", "--id", "D1", "--n", "100", "--epochs", "1",
                    "--threshold", value, "--out", out]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: threshold must be a number, 'median' or 'p0'..'p100', "
            f'not "{value}"\n')
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "nan"), ("--lr", "inf"), ("--lam", "nan"), ("--lam", "inf"),
        ("--threshold", "nan"), ("--threshold", "inf")])
    def test_non_finite_setting_rejected(self, tmp_path, capsys, flag, value):
        # a validation error before the first epoch, not a divergence after
        # it; a NaN threshold used to label every row 0 and train on that
        out = tmp_path / "run"
        rc = run(["train", "--id", "D1", "--n", "100", "--epochs", "1",
                  flag, value, "--out", out])
        assert rc == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("flags, config", [
        (["--lr", "fixed"], ""), (["--lr", "FIXED"], ""), ([], "lr: fixed\n")])
    def test_lr_fixed_is_not_a_rate(self, tmp_path, capsys, flags, config):
        # the mode's name trained silently at 0.1
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config)
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--id", "D1", "--n", "100",
                    "--epochs", "1", *flags, "--out", out]) == EXIT_VALIDATION
        assert capsys.readouterr().err \
            == "error: bad lr 'fixed': use 'lalr' or a number\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, config", [
        (["--loss", "BCE"], ""), ([], "loss: BCE\n")])
    def test_loss_in_any_case(self, tmp_path, flags, config):
        # loss: BCE trained the baseline, where --loss BCE exited 2 with
        # argparse's usage
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config)
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--id", "D1", "--n", "100",
                    "--trunk", "4", "--epochs", "1", *flags,
                    "--out", out]) == 0
        net = network.load_checkpoint(out / "checkpoint.npz")
        assert net.grid.levels == (0.5,)

    @pytest.mark.parametrize("flags, config", [
        (["--loss", "xyz"], ""), ([], "loss: xyz\n")])
    def test_unknown_loss_rejected(self, tmp_path, capsys, flags, config):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config)
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--id", "D1", "--n", "100",
                    "--trunk", "4", "--epochs", "1", *flags,
                    "--out", out]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: unknown loss kind 'xyz'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "noise-sweep", "lalr-bench"])
    def test_single_class_labels_rejected(self, tmp_path, capsys, command):
        # a threshold beyond the response range leaves one class to fit
        out = tmp_path / "run"
        rc = run([command, "--id", "D1", "--n", "200", "--threshold", "100",
                  "--trunk", "4", "--epochs", "2", "--out", out])
        assert rc == EXIT_VALIDATION
        assert "single class" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_column_name_rejected(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("label,x,label\n0,0.1,0\n1,0.9,1\n")
        out = tmp_path / "run"
        assert run(["train", "--data", data, "--label-column", "label",
                    "--trunk", "4", "--epochs", "1", "--out", out]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: repeated column name(s): 'label'\n"
        assert not out.exists()

    def test_divergent_run_exit_code(self, tmp_path, capsys):
        out = tmp_path / "div"
        rc = run(["train", "--id", "D1", "--n", "100", "--seed", "0",
                  "--epochs", "5", "--batch-size", "16",
                  "--lr", "1e200", "--out", out])
        assert rc == EXIT_RUNTIME
        assert (out / "trace.csv").exists()
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_divergence_in_the_last_step_exit_code(self, tmp_path, capsys):
        # one batch, one epoch: the loss is finite, and only the epoch's
        # accuracy forward meets the overflowed weights
        out = tmp_path / "div"
        rc = run(["train", "--id", "D1", "--n", "100", "--seed", "0",
                  "--epochs", "1", "--batch-size", "100",
                  "--lr", "1e200", "--out", out])
        assert rc == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "error: non-finite network output at epoch 1 "
            "(partial trace written)\n")
        assert not (out / "checkpoint.npz").exists()

    def test_divergent_noise_sweep_prints_one_line(self, tmp_path, capsys):
        rc = run(["noise-sweep", "--id", "D1", "--n", "100", "--seed", "0",
                  "--epochs", "2", "--batch-size", "16", "--lr", "1e200",
                  "--fractions", "0", "--out", tmp_path / "sweep"])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestEvaluate:
    def test_simulated_with_latent(self, trained, tmp_path):
        out = tmp_path / "eval"
        rc = run(["evaluate", "--id", "D3", "--n", "300", "--seed", "6",
                  "--checkpoint", trained / "checkpoint.npz", "--out", out])
        assert rc == 0
        assert (out / "coverage.csv").exists()
        assert (out / "delta_report.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["coverage"] is not None
        assert 0.0 <= summary["accuracy"] <= 1.0

    def test_missing_checkpoint_exit_code(self, tmp_path, capsys):
        rc = run(["evaluate", "--id", "D1", "--n", "20", "--seed", "1",
                  "--checkpoint", tmp_path / "absent.npz",
                  "--out", tmp_path / "eval"])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.npz" in err

    # a current file whose meta or params do not build a network; each of
    # these ended in a traceback or an error naming no file
    MALFORMED = {"float_width": dict(trunk_widths=[16.0, 16.0]),
                 "str_dim": dict(input_dim="1"),
                 "wrong_length": dict(params=np.zeros(5))}

    @pytest.mark.parametrize("kind", ["no_meta", "corrupt_zip", *MALFORMED])
    def test_bad_checkpoint_exit_code(self, trained, tmp_path, capsys, kind):
        path = tmp_path / "other.npz"
        if kind == "no_meta":
            np.savez(path, params=np.zeros(3))
        elif kind == "corrupt_zip":
            path.write_bytes(b"PK\x03\x04" + bytes(60))
        else:
            rewrite_checkpoint(trained / "checkpoint.npz", path,
                               **self.MALFORMED[kind])
        rc = run(["evaluate", "--id", "D1", "--n", "20", "--seed", "1",
                  "--checkpoint", path, "--out", tmp_path / "eval"])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not a bqrnet checkpoint (")

    # at 0.9.1 a NaN-params smooth exited 0 with delta 0.5 on every row, and
    # evaluate wrote its CSVs before summary.json failed on the NaN; at 0.10.0
    # finite outputs of about 3e302 (huge) gave smooth a NaN variance and
    # evaluate a coverage of 0.6 at every level, both with exit 0
    @pytest.mark.parametrize("command", ["evaluate", "smooth"])
    @pytest.mark.parametrize("fill, error", [
        (np.nan, "{path}: not a bqrnet checkpoint (non-finite parameters)"),
        (1e200, "non-finite network output"),
        (1e100, "overflow encountered in square")],
        ids=["nan", "overflow", "huge"])
    def test_non_finite_checkpoint_writes_nothing(self, trained, tmp_path,
                                                  capsys, command, fill, error):
        path = tmp_path / "bad.npz"
        with np.load(trained / "checkpoint.npz") as ckpt:
            params = np.full(ckpt["params"].size, fill)
        rewrite_checkpoint(trained / "checkpoint.npz", path, params=params)
        out = tmp_path / "out"
        rc = run([command, "--id", "D3", "--n", "20", "--seed", "1",
                  "--checkpoint", path, "--out", out])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {error.format(path=path)}\n"
        assert not out.exists()

    def test_version_1_checkpoint_rejected(self, trained, tmp_path, capsys):
        # a version 1 file cannot say whether it expects scaled features
        path = tmp_path / "v1.npz"
        rewrite_checkpoint(trained / "checkpoint.npz", path,
                           version="bqrnet-ckpt-1")
        out = tmp_path / "eval"
        rc = run(["evaluate", "--id", "D3", "--n", "20", "--seed", "1",
                  "--checkpoint", path, "--out", out])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "unsupported checkpoint version: 'bqrnet-ckpt-1'" in err
        assert not out.exists()

    def test_single_class_data_scored(self, trained, tmp_path):
        out = tmp_path / "eval"
        assert run(["evaluate", "--id", "D3", "--n", "50", "--seed", "1",
                    "--threshold", "100", "--checkpoint",
                    trained / "checkpoint.npz", "--out", out]) == 0
        assert strict_json(out / "summary.json")["auc"] is None

    def test_csv_with_latent_column(self, trained, tmp_path, capsys):
        # a simulate file carries no threshold; coverage needs only the latent
        data = tmp_path / "d3.csv"
        assert run(["simulate", "--id", "D3", "--n", "300", "--seed", "6",
                    "--out", data]) == 0
        out = tmp_path / "eval"
        rc = run(["evaluate", "--data", data, "--label-column", "label",
                  "--latent-column", "latent",
                  "--checkpoint", trained / "checkpoint.npz", "--out", out])
        assert rc == 0
        assert "skipped" not in capsys.readouterr().out
        assert (out / "coverage.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["coverage"]) == 9
        assert all(0.0 <= c <= 1.0 for c in summary["coverage"])

    def test_perfect_fit_has_null_r2(self, tmp_path):
        # every row is classified right, so every non-empty bin misclassifies
        # at rate 0 and the calibration fit is undefined
        csv = ["--data", SMOKE_BLOBS, "--label-column", "label"]
        assert run(["train", *csv, "--trunk", "8,8", "--epochs", "200",
                    "--batch-size", "32", "--out", tmp_path / "run"]) == 0
        out = tmp_path / "eval"
        assert run(["evaluate", *csv, "--checkpoint",
                    tmp_path / "run" / "checkpoint.npz", "--out", out]) == 0
        summary = strict_json(out / "summary.json")
        assert summary["accuracy"] == 1.0 and summary["delta_r2"] is None
        m_r = (out / "delta_report.csv").read_text().splitlines()[1]
        assert m_r.endswith(",NA")
        strict_json(tmp_path / "run" / "train_summary.json")

    def test_bce_checkpoint(self, tmp_path):
        # the median is the grid's only level, so no row crosses zero inside
        # the grid: every delta is 0.5 and every row is kept at every
        # threshold, and the one occupied bin leaves the calibration undefined
        fit = ["--id", "D1", "--n", "300", "--seed", "3"]
        assert run(["train", *fit, "--loss", "bce", "--grid", "0.5",
                    "--trunk", "8", "--epochs", "5",
                    "--out", tmp_path / "run"]) == 0
        out = tmp_path / "eval"
        assert run(["evaluate", "--id", "D1", "--n", "200", "--seed", "4",
                    "--checkpoint", tmp_path / "run" / "checkpoint.npz",
                    "--out", out]) == 0
        summary = strict_json(out / "summary.json")
        assert summary["grid"] == [0.5]
        assert summary["retention_per_threshold"] == [1.0] * 5
        assert summary["misclassification_per_threshold"] \
            == pytest.approx([1.0 - summary["accuracy"]] * 5, abs=1e-15)
        assert summary["delta_r2"] is None

    def test_csv_without_latent_skips_coverage(self, trained, tmp_path, capsys):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(0)
        rows = ["x,label"] + [f"{v:.4f},{l}" for v, l in
                              zip(rng.uniform(-1, 1, 40), rng.integers(0, 2, 40))]
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "eval"
        rc = run(["evaluate", "--data", data, "--label-column", "label",
                  "--checkpoint", trained / "checkpoint.npz", "--out", out])
        assert rc == 0
        assert not (out / "coverage.csv").exists()
        assert "coverage table skipped" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["coverage"] is None
        assert (out / "delta_report.csv").exists()


class TestNoiseSweep:
    def test_accuracy_grid(self, tmp_path):
        out = tmp_path / "sweep"
        rc = run(["noise-sweep", "--id", "D3", "--n", "400", "--seed", "4",
                  "--trunk", "8", "--epochs", "20", "--batch-size", "64",
                  "--fractions", "0,0.2", "--out", out])
        assert rc == 0
        lines = (out / "noise_sweep.csv").read_text().splitlines()
        assert lines[0] == "dataset,loss,0%,20%"
        assert lines[1].startswith("D3,BCE,")
        assert lines[2].startswith("D3,BQR,")
        for line in lines[1:]:
            for cell in line.split(",")[2:]:
                assert 0.0 <= float(cell) <= 1.0

    def test_fraction_validation(self, tmp_path, capsys):
        rc = run(["noise-sweep", "--id", "D3", "--n", "100", "--seed", "4",
                  "--fractions", "0.7", "--out", tmp_path])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err \
            == "error: flip fraction 0.7 outside [0, 0.5]\n"

    def test_csv_dataset(self, tmp_path):
        data = Path(__file__).resolve().parent.parent / "data" / "smoke_blobs.csv"
        out = tmp_path / "sweep"
        rc = run(["noise-sweep", "--data", data, "--label-column", "label",
                  "--trunk", "4", "--epochs", "3", "--batch-size", "64",
                  "--fractions", "0,0.2", "--out", out])
        assert rc == 0
        assert (out / "noise_sweep.csv").read_text().splitlines()[0] \
            == "dataset,loss,0%,20%"


class TestLalrBench:
    def test_three_arms(self, tmp_path):
        # bundled smoke dataset: two offset blobs, adaptive rate must beat
        # the fixed rates
        data = Path(__file__).resolve().parent.parent / "data" / "smoke_blobs.csv"
        out = tmp_path / "bench"
        rc = run(["lalr-bench", "--data", data, "--label-column", "label",
                  "--grid", "0.5", "--lam", "0", "--trunk", "8",
                  "--epochs", "300", "--batch-size", "64", "--seed", "6",
                  "--target-acc", "0.99", "--out", out])
        assert rc == 0
        lines = (out / "lalr_bench.csv").read_text().splitlines()
        assert lines[0] == "dataset,target_acc,n_fixed_0.01,n_fixed_0.1,n_lalr"
        _, _, n001, n01, nlalr = lines[1].split(",")
        assert int(nlalr) < int(n01)

    def test_unreached_target_format(self, tmp_path):
        data = tmp_path / "noise.csv"
        rng = np.random.default_rng(1)
        rows = ["x,label"] + [f"{rng.uniform(-1, 1):.4f},{rng.integers(0, 2)}"
                              for _ in range(80)]
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "bench"
        rc = run(["lalr-bench", "--data", data, "--label-column", "label",
                  "--grid", "0.5", "--lam", "0", "--trunk", "4",
                  "--epochs", "3", "--batch-size", "32",
                  "--target-acc", "0.999", "--out", out])
        assert rc == 0
        line = (out / "lalr_bench.csv").read_text().splitlines()[1]
        assert "N/A (" in line

    def test_config_loss_is_ignored(self, tmp_path):
        # lalr-bench takes no --loss; at 0.10.0 a config's loss: bce trained
        # every arm with BCE
        config = tmp_path / "cfg.yaml"
        config.write_text("loss: bce\n")
        flags = ["lalr-bench", "--id", "D1", "--n", "200", "--seed", "2",
                 "--trunk", "4", "--epochs", "20", "--target-acc", "0.8"]
        for extra, out in (([], "flags"), (["--config", config], "config")):
            assert run(flags + extra + ["--out", tmp_path / out]) == 0
        assert (tmp_path / "config" / "lalr_bench.csv").read_bytes() \
            == (tmp_path / "flags" / "lalr_bench.csv").read_bytes()

    @pytest.mark.parametrize("target", ["nan", "5"])
    def test_target_acc_outside_unit_interval(self, tmp_path, capsys, target):
        # no accuracy can reach either, so every arm would run to its last
        # epoch and report N/A
        out = tmp_path / "bench"
        rc = run(["lalr-bench", "--data", SMOKE_BLOBS, "--label-column", "label",
                  "--trunk", "4", "--epochs", "3", "--target-acc", target,
                  "--out", out])
        assert rc == EXIT_VALIDATION
        assert re.fullmatch(r"error: target_acc .*\n", capsys.readouterr().err)
        assert not out.exists()


class TestSmooth:
    def test_per_row_outputs(self, trained, tmp_path):
        out = tmp_path / "smooth"
        rc = run(["smooth", "--id", "D3", "--n", "40", "--seed", "9",
                  "--checkpoint", trained / "checkpoint.npz", "--out", out])
        assert rc == 0
        lines = (out / "smooth.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["q_0.10", "q_0.20"]
        assert header[-6:] == ["mean", "variance", "delta", "label",
                               "pi_low", "pi_high"]
        assert len(lines) == 41
        row = lines[1].split(",")
        assert 0.0 <= float(row[-4]) <= 0.5  # delta
        assert float(row[-2]) <= float(row[-1])  # interval ordered

    def test_constant_checkpoint_mean(self, tmp_path):
        # degenerate checkpoint with zero weights and constant bias 2.5:
        # smoothed mean equals the constant for every row
        from bqrnet.network import TauGrid, init_net, save_checkpoint
        net = init_net(1, [4], TauGrid.default(), seed=0)
        net.trunk_w[0][:] = 0.0
        net.head_w[:] = 0.0
        net.head_b[:] = 2.5
        ckpt = tmp_path / "const.npz"
        save_checkpoint(net, ckpt)
        out = tmp_path / "smooth"
        rc = run(["smooth", "--id", "D1", "--n", "5", "--seed", "1",
                  "--checkpoint", ckpt, "--out", out])
        assert rc == 0
        for line in (out / "smooth.csv").read_text().splitlines()[1:]:
            assert float(line.split(",")[9]) == pytest.approx(2.5, abs=1e-9)

    def test_pi_level_outside_unit_interval(self, trained, tmp_path, capsys):
        rc = run(["smooth", "--id", "D3", "--n", "20", "--seed", "9",
                  "--checkpoint", trained / "checkpoint.npz",
                  "--pi-level", "1.5", "--out", tmp_path / "smooth"])
        assert rc == EXIT_VALIDATION
        assert re.fullmatch(r"error: .*level.*\n", capsys.readouterr().err)

    @pytest.mark.parametrize("fit", [["--loss", "bce", "--grid", "0.5"],
                                     ["--grid", "0.3,0.5,0.7"]])
    def test_grid_that_cannot_span_the_default_interval(self, tmp_path, capsys,
                                                        fit):
        # the default 50% interval needs the levels 0.25 and 0.75: smooth
        # writes every other column and says what it skipped, while an
        # explicit level is never skipped
        assert run(["train", "--id", "D1", "--n", "300", "--seed", "3", *fit,
                    "--trunk", "8", "--epochs", "5",
                    "--out", tmp_path / "run"]) == 0
        capsys.readouterr()
        score = ["smooth", "--id", "D1", "--n", "40", "--seed", "9",
                 "--checkpoint", tmp_path / "run" / "checkpoint.npz"]
        assert run([*score, "--out", tmp_path / "smooth"]) == 0
        note, report = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"note: interval levels \(0.250, 0.750\) fall "
                            r"outside .*; pi_low and pi_high skipped", note)
        assert report.startswith("wrote ")
        header, *rows = (tmp_path / "smooth" / "smooth.csv").read_text() \
            .splitlines()
        assert header.split(",")[-4:] == ["mean", "variance", "delta", "label"]
        assert "pi_" not in header
        assert len(rows) == 40
        assert run([*score, "--pi-level", "0.5",
                    "--out", tmp_path / "bad"]) == EXIT_VALIDATION
        assert re.fullmatch(r"error: interval levels .*\n",
                            capsys.readouterr().err)
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("bandwidth", ["inf", "1.5e308"])
    def test_bandwidth_whose_weights_cannot_be_normalized(self, trained,
                                                         tmp_path, capsys,
                                                         bandwidth):
        # both wrote NaN mean and variance columns and exited 0
        out = tmp_path / "smooth"
        rc = run(["smooth", "--id", "D3", "--n", "20", "--seed", "9",
                  "--checkpoint", trained / "checkpoint.npz",
                  "--bandwidth", bandwidth, "--out", out])
        assert rc == EXIT_VALIDATION
        assert "bandwidth" in capsys.readouterr().err
        assert not (out / "smooth.csv").exists()

    def test_row_does_not_depend_on_the_rest_of_its_file(self, tmp_path):
        # a checkpoint trained on a CSV takes raw features, so scoring the
        # x > 0 rows alone gives them the quantiles they get in the full file
        full, part = tmp_path / "d1.csv", tmp_path / "d1_pos.csv"
        assert run(["simulate", "--id", "D1", "--n", "400", "--seed", "7",
                    "--out", full]) == 0
        header, *lines = full.read_text().splitlines()
        positive = [float(line.split(",")[0]) > 0 for line in lines]
        part.write_text("\n".join([header] + [line for line, pos in
                                              zip(lines, positive) if pos]) + "\n")
        columns = ["--label-column", "label", "--latent-column", "latent"]
        ckpt = tmp_path / "run" / "checkpoint.npz"
        assert run(["train", "--data", full, *columns, "--trunk", "8,8",
                    "--epochs", "2", "--out", tmp_path / "run"]) == 0
        quantiles = {}
        for data in (full, part):
            out = tmp_path / data.stem
            assert run(["smooth", "--data", data, *columns,
                        "--checkpoint", ckpt, "--out", out]) == 0
            quantiles[data] = np.loadtxt(out / "smooth.csv", delimiter=",",
                                         skiprows=1, usecols=range(9))
        assert np.array_equal(quantiles[full][positive], quantiles[part])
        assert 0 < len(quantiles[part]) < len(quantiles[full])

    def test_reproducible(self, trained, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["smooth", "--id", "D3", "--n", "10", "--seed", "2",
                        "--checkpoint", trained / "checkpoint.npz",
                        "--out", out]) == 0
            outs.append((out / "smooth.csv").read_bytes())
        assert outs[0] == outs[1]


class TestFlags:
    # (command, flag) pairs that were parsed and then ignored
    UNUSED = [(cmd, flag) for cmd in ("evaluate", "smooth")
              for flag in ("--trunk", "--grid", "--lam", "--epochs",
                           "--batch-size")] \
        + [("noise-sweep", "--loss"), ("lalr-bench", "--lr")]

    @pytest.mark.parametrize("command,flag", UNUSED)
    def test_unused_flag_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, flag, "8"])
        assert exc.value.code == EXIT_VALIDATION
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_train_config_unchanged(self, tmp_path):
        # every flag train takes, over a config file that also sets
        # smooth's bandwidth, which train drops
        config = tmp_path / "cfg.yaml"
        config.write_text("epochs: 99\nbandwidth: 0.2\nout: elsewhere\n")
        args = cli.build_parser().parse_args([
            "train", "--config", str(config), "--id", "D1", "--n", "700",
            "--seed", "3", "--threshold", "p60", "--data", "d.csv",
            "--label-column", "label", "--latent-column", "latent",
            "--trunk", "16,8", "--grid", "0.25,0.5,0.75", "--lam", "0.5",
            "--loss", "bqr", "--lr", "0.05", "--epochs", "7",
            "--batch-size", "32", "--out", "run"])
        cfg = cli._resolve(args)
        assert cfg == {
            "epochs": 7, "out": "run", "dataset_id": "D1",
            "n": 700, "seed": 3, "threshold": "p60", "data": "d.csv",
            "label_column": "label", "latent_column": "latent",
            "trunk": "16,8", "grid": "0.25,0.5,0.75", "lam": 0.5,
            "loss": "bqr", "lr": "0.05", "batch_size": 32}
        assert cli._config_hash(cfg) == "dcdfd9682dcf948a"

    COMMON = ["--config", "--id", "--n", "--seed", "--threshold", "--out"]
    DATA = COMMON + ["--data", "--label-column", "--latent-column"]
    FIT = DATA + ["--trunk", "--grid", "--lam", "--epochs", "--batch-size"]
    FLAGS = {
        "simulate": COMMON,
        "train": FIT + ["--loss", "--lr"],
        "evaluate": DATA + ["--checkpoint"],
        "noise-sweep": FIT + ["--lr", "--fractions"],
        "lalr-bench": FIT + ["--target-acc"],
        "smooth": DATA + ["--checkpoint", "--bandwidth", "--pi-level"],
    }

    @staticmethod
    def subparsers():
        return next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def test_help_line_names_what_each_command_writes(self):
        writes = {"simulate": "CSV", "train": "checkpoint.npz",
                  "evaluate": "summary.json", "noise-sweep": "noise_sweep.csv",
                  "lalr-bench": "lalr_bench.csv", "smooth": "smooth.csv"}
        assert list(writes) == list(cli.COMMANDS)
        for name, (_, help_) in cli.COMMANDS.items():
            assert writes[name] in help_, name

    def test_each_command_takes_its_flags_in_order(self):
        # the option strings of every command as 0.4.0 declared them
        subparsers = self.subparsers()
        assert list(subparsers) == list(self.FLAGS)
        for name, flags in self.FLAGS.items():
            got = [s for a in subparsers[name]._actions for s in a.option_strings]
            assert got == ["-h", "--help"] + flags, name

    @pytest.mark.parametrize("command, text, key", [
        ("train", "batch-size: 7\ndataset_id: D1\nn: 100\nepochs: 1\n",
         "batch-size"),
        ("simulate", "id: D1\n", "id"),
        ("smooth", "bandwith: 0.3\n", "bandwith"),
        ("evaluate", "scale: false\n", "scale"),
        ("simulate", "config: other.yaml\ndataset_id: D1\nn: 10\n", "config"),
    ], ids=["flag-spelling", "flag-name", "misspelt", "scale", "config"])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, command,
                                         text, key):
        config = tmp_path / "cfg.yaml"
        config.write_text(text)
        out = tmp_path / "run"
        assert run([command, "--config", config, "--out", out]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown config key(s): {key} (")
        assert not out.exists()

    def test_config_keys_are_the_option_dests(self):
        dests = {a.dest for sp in self.subparsers().values()
                 for a in sp._actions if a.dest != "help"}
        assert cli.CONFIG_KEYS == dests - {"config"}

    @pytest.mark.parametrize("key, value", [
        ("epochs", "null"), ("epochs", "2.7"), ("epochs", "true"),
        ("trunk", "[4, null]"), ("n", "[100]"), ("seed", '"3"'),
        ("seed", "null"), ("threshold", "true"), ("label_column", ".nan"),
        ("latent_column", "2024-01-01")])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, key,
                                                 value):
        # each of these ended in a traceback, or was read as another value;
        # the last two are read only into train_summary.json, which at 0.10.0
        # failed on them after the checkpoint was written
        settings = {"dataset_id": "D1", "n": 100, "epochs": 1, "trunk": "[4]",
                    key: value}
        config = tmp_path / "cfg.yaml"
        config.write_text("".join(f"{k}: {v}\n" for k, v in settings.items()))
        out = tmp_path / "run"
        assert run(["train", "--config", config, "--out", out]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_negative_seed_rejected(self, tmp_path, capsys, command):
        # NumPy's "expected non-negative integer" named no key
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: -1\n")
        out = tmp_path / "run"
        flags = [command, "--id", "D1", "--n", "20", "--out", out]
        if command in ("evaluate", "smooth"):
            flags += ["--checkpoint", tmp_path / "absent.npz"]
        for seed in (["--seed", "-1"], ["--config", cfg]):
            assert run(flags + seed) == EXIT_VALIDATION
            assert capsys.readouterr().err \
                == "error: seed must be a non-negative int, not -1\n"
            assert not out.exists()

    def test_other_commands_keys_are_dropped(self, tmp_path):
        # they reach neither the command nor train_summary.json; at 0.10.0 a
        # date ended train in a traceback after the checkpoint was written
        config = tmp_path / "cfg.yaml"
        config.write_text("bandwidth: 2024-01-01\npi_level: .nan\n"
                          "checkpoint: run.npz\nfractions: [0.1]\n")
        flags = ["train", "--id", "D1", "--n", "100", "--epochs", "1",
                 "--trunk", "4", "--out", tmp_path / "run"]
        summaries = []
        for extra in ([], ["--config", config]):
            assert run(flags + extra) == 0
            summaries.append((tmp_path / "run" / "train_summary.json").read_bytes())
        assert summaries[0] == summaries[1]

    def test_config_values_of_each_accepted_type(self, tmp_path):
        # an int for a float, a number for lr and threshold, a single value
        # or text for a list
        config = tmp_path / "cfg.yaml"
        config.write_text("dataset_id: D1\nn: 100\nepochs: 2\nlam: 1\n"
                          "lr: 0.05\nthreshold: 0.1\ntrunk: 4\n"
                          "grid: 0.25,0.5,0.75\nloss: bqr\n")
        out = tmp_path / "run"
        assert run(["train", "--config", config, "--out", out]) == 0
        summary = strict_json(out / "train_summary.json")
        assert summary["param_count"] == 4 * 2 + 3 * 4 + 3
        assert len((out / "trace.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("value,expected", [
        (None, [1.0]), ("0.25,0.5", [0.25, 0.5]), ([1, 2], [1.0, 2.0]),
        (0.5, [0.5])])
    def test_list_option(self, value, expected):
        assert cli._get({"grid": value}, "grid", [1.0]) == expected


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, bqrnet.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stdout.strip() == "[]"
