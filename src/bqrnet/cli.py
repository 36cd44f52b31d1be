"""Command-line front end: simulation, training, evaluation, label-noise
sweeps, learning-rate benchmarks, and smoothed-quantile exports.

Every command is driven by an optional YAML config plus flag overrides
(flags win), uses only explicit seeds, and embeds a hash of the resolved
configuration in its outputs. Exit codes: 0 success, 2 validation error,
3 runtime/divergence error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import datasets, losses, metrics, network, smoothing, training

EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class ValidationError(ValueError):
    pass


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ValidationError("config file must contain a mapping")
    return data


def _resolve(args: argparse.Namespace) -> dict:
    """The config file's values overridden by every flag the command was
    given; the parser gives each command only the flags it uses."""
    out = _load_config(args.config)
    out.update((key, val) for key, val in vars(args).items()
               if val is not None and key not in ("command", "fn", "config"))
    return out


def _require(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise ValidationError(f"missing required option: {key}")
    return cfg[key]


def _list(cfg: dict, key: str, kind, default) -> list:
    """cfg[key] as a list of ``kind``: a flag gives comma-separated text, a
    config file a list or a single value."""
    val = cfg.get(key)
    if val is None:
        return default
    if isinstance(val, str):
        val = val.split(",")
    return [kind(v) for v in np.atleast_1d(val)]


def _parse_grid(cfg: dict) -> network.TauGrid:
    return network.TauGrid(_list(cfg, "grid", float, network.DEFAULT_GRID))


def _load_dataset(cfg: dict,
                  default_n: int = 7000) -> datasets.LabeledDataset:
    """The simulated dataset (labelled at its threshold, 'median' unless
    given) or the CSV file the config names."""
    if cfg.get("dataset_id"):
        ds = datasets.gen_dataset(cfg["dataset_id"],
                                  int(cfg.get("n", default_n)),
                                  int(cfg.get("seed", 0)))
        return datasets.threshold_labels(ds, datasets.resolve_threshold(
            cfg.get("threshold", "median"), ds.latent))
    if cfg.get("data"):
        return datasets.load_csv(
            cfg["data"], label_column=_require(cfg, "label_column"),
            scale=bool(cfg.get("scale", True)),
            threshold=cfg.get("threshold"),
            latent_column=cfg.get("latent_column"))
    raise ValidationError("no dataset given: pass --id or --data")


def _train_config(cfg: dict) -> training.TrainConfig:
    mode = str(cfg.get("lr", "lalr")).lower()
    eta = 0.1
    if mode not in (training.FIXED, training.LALR):
        try:
            eta = float(mode)
        except ValueError:
            raise ValidationError(f"bad lr {mode!r}: use 'lalr' or a number")
        mode = training.FIXED
    return training.TrainConfig(
        epochs=int(cfg.get("epochs", 500)),
        batch_size=int(cfg.get("batch_size", 128)),
        lr_mode=mode, eta=eta, seed=int(cfg.get("seed", 0)))


def _loss_spec(cfg: dict, grid: network.TauGrid) -> losses.LossSpec:
    kind = str(cfg.get("loss", losses.BQR)).lower()
    if kind == losses.BCE:
        grid = network.TauGrid((0.5,))
    return losses.LossSpec(grid=grid, lam=float(cfg.get("lam", 1.0)), kind=kind)


def _outdir(cfg: dict) -> Path:
    out = Path(cfg.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = _resolve(args)
    _require(cfg, "dataset_id")
    ds = _load_dataset(cfg, default_n=10000)
    out = Path(cfg.get("out", f"{ds.name}.csv"))
    datasets.write_csv(ds, out)
    print(f"wrote {ds.n} rows to {out} (threshold={ds.threshold:.6g}, "
          f"config {_config_hash(cfg)})")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(args)
    ds = _load_dataset(cfg)
    grid = _parse_grid(cfg)
    spec = _loss_spec(cfg, grid)
    trunk = _list(cfg, "trunk", int, [64, 64])
    net = network.init_net(ds.dim, trunk, spec.grid, seed=int(cfg.get("seed", 0)))
    tcfg = _train_config(cfg)
    out = _outdir(cfg)
    try:
        net, trace = training.train(net, ds.features, ds.labels, spec, tcfg)
    except training.TrainingDiverged as exc:
        exc.trace.to_csv(out / "trace.csv")
        print(f"error: {exc} (partial trace written)", file=sys.stderr)
        return EXIT_RUNTIME
    network.save_checkpoint(net, out / "checkpoint.npz")
    trace.to_csv(out / "trace.csv")
    metrics.summary_json(out / "train_summary.json", {
        "config": {k: v for k, v in cfg.items() if k != "config"},
        "config_hash": _config_hash(cfg),
        "final_loss": trace.records[-1].loss if trace.records else None,
        "final_accuracy": trace.records[-1].accuracy if trace.records else None,
        "param_count": network.param_count(net),
    })
    print(f"wrote checkpoint.npz and trace.csv to {out} "
          f"(config {_config_hash(cfg)})")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _resolve(args)
    ds = _load_dataset(cfg)
    net = network.load_checkpoint(_require(cfg, "checkpoint"))
    grid = net.grid
    out = _outdir(cfg)
    preds = network.forward(net, ds.features)
    summary = {"config": {k: v for k, v in cfg.items() if k != "config"},
               "config_hash": _config_hash(cfg),
               "n": ds.n, "grid": list(grid.levels)}
    if ds.latent is not None:
        lat_n, preds_n = datasets.normalize_for_coverage(ds, preds, grid)
        cov = metrics.coverage(lat_n, preds_n, grid)
        cov.to_csv(out / "coverage.csv", dataset_name=ds.name)
        summary["coverage"] = cov.coverage
    else:
        summary["coverage"] = None
        print("note: no latent column; coverage table skipped")
    scores = smoothing.delta_scores(preds, grid)
    rep = metrics.delta_report(scores, ds.labels)
    rep.to_csv(out / "delta_report.csv", dataset_name=ds.name)
    med = preds[:, grid.median_index]
    summary["accuracy"] = metrics.accuracy(scores.predicted_label, ds.labels)
    summary["auc"] = metrics.roc_auc(med, ds.labels)
    summary["delta_r2"] = rep.r2
    summary["misclassification_per_threshold"] = rep.misclassification
    summary["retention_per_threshold"] = rep.retention
    metrics.summary_json(out / "summary.json", summary)
    print(f"wrote coverage/delta reports and summary.json to {out} "
          f"(config {_config_hash(cfg)})")
    return 0


def cmd_noise_sweep(args) -> int:
    cfg = _resolve(args)
    fractions = _list(cfg, "fractions", float, [0.0, 0.1, 0.2, 0.3, 0.4])
    for f in fractions:
        if not 0.0 <= f <= 0.5:
            raise ValidationError(f"flip fraction {f} outside [0, 0.5]")
    ds = _load_dataset(cfg)
    grid = _parse_grid(cfg)
    seed = int(cfg.get("seed", 0))
    trunk = _list(cfg, "trunk", int, [64, 64])
    tcfg = _train_config(cfg)
    rows = {"bce": [], "bqr": []}
    for frac in fractions:
        noisy = datasets.flip_labels(ds, datasets.NoiseSpec(frac, seed + 17)) \
            if frac > 0 else ds
        for kind in ("bce", "bqr"):
            spec = _loss_spec({**cfg, "loss": kind}, grid)
            net = network.init_net(ds.dim, trunk, spec.grid, seed=seed)
            net, _ = training.train(net, noisy.features, noisy.labels, spec, tcfg)
            z = network.forward(net, ds.features)
            acc = metrics.accuracy(
                (z[:, spec.grid.median_index] > 0).astype(int), ds.labels)
            rows[kind].append(acc)
    out = _outdir(cfg)
    path = out / "noise_sweep.csv"
    datasets.write_rows(
        path, ["dataset", "loss"] + [f"{f:.0%}" for f in fractions],
        [[ds.name, kind.upper()] + [f"{a:.4f}" for a in accs]
         for kind, accs in rows.items()])
    print(f"wrote {path} (config {_config_hash(cfg)})")
    return 0


def cmd_lalr_bench(args) -> int:
    cfg = _resolve(args)
    target = float(cfg.get("target_acc", 0.97))
    ds = _load_dataset(cfg)
    grid = _parse_grid(cfg)
    spec = _loss_spec(cfg, grid)
    seed = int(cfg.get("seed", 0))
    trunk = _list(cfg, "trunk", int, [32, 32])
    results = []
    for mode, eta in ((training.FIXED, 0.01), (training.FIXED, 0.1),
                      (training.LALR, 0.1)):
        net = network.init_net(ds.dim, trunk, spec.grid, seed=seed)
        tcfg = training.TrainConfig(
            epochs=int(cfg.get("epochs", 1000)),
            batch_size=int(cfg.get("batch_size", 64)),
            lr_mode=mode, eta=eta, seed=seed + 1)
        _, trace = training.train(net, ds.features, ds.labels, spec, tcfg)
        results.append(training.epochs_to_target(trace, target))
    out = _outdir(cfg)
    path = out / "lalr_bench.csv"
    datasets.write_rows(path, ["dataset", "target_acc", "n_fixed_0.01",
                               "n_fixed_0.1", "n_lalr"],
                        [[ds.name, target] + [str(r) for r in results]])
    print(f"wrote {path} (config {_config_hash(cfg)})")
    return 0


def cmd_smooth(args) -> int:
    cfg = _resolve(args)
    ds = _load_dataset(cfg)
    net = network.load_checkpoint(_require(cfg, "checkpoint"))
    grid = net.grid
    h = float(cfg.get("bandwidth", smoothing.DEFAULT_BANDWIDTH))
    pi_level = float(cfg.get("pi_level", 0.5))
    preds = network.forward(net, ds.features)
    mean, variance = smoothing.conditional_moments(preds, grid, h)
    scores = smoothing.delta_scores(preds, grid)
    lo, hi = smoothing.prediction_intervals(preds, grid, pi_level)
    out = _outdir(cfg)
    path = out / "smooth.csv"
    columns = (mean, variance, scores.delta, scores.predicted_label, lo, hi)
    datasets.write_rows(
        path, [f"q_{t:.2f}" for t in grid.levels]
        + ["mean", "variance", "delta", "label", "pi_low", "pi_high"],
        (q + rest for q, *rest in zip(preds.tolist(),
                                      *(c.tolist() for c in columns))))
    print(f"wrote {path} (config {_config_hash(cfg)})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqrnet",
        description="Latent-quantile binary classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("simulate", cmd_simulate), ("train", cmd_train),
                     ("evaluate", cmd_evaluate),
                     ("noise-sweep", cmd_noise_sweep),
                     ("lalr-bench", cmd_lalr_bench), ("smooth", cmd_smooth)):
        p = sub.add_parser(name, help="generate a simulated dataset CSV"
                           if name == "simulate" else f"{name} command")
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="YAML config file; flags override it")
        p.add_argument("--id", dest="dataset_id",
                       help="simulated dataset id (D1..D6)")
        p.add_argument("--n", type=int, help="number of simulated rows")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--threshold",
                       help="binarization threshold: number, 'median', or 'p80'")
        p.add_argument("--out", help="output directory (or file for simulate)")
        if name == "simulate":
            continue
        p.add_argument("--data", help="CSV dataset path")
        p.add_argument("--label-column", dest="label_column")
        p.add_argument("--latent-column", dest="latent_column")
        if name in ("train", "noise-sweep", "lalr-bench"):
            p.add_argument("--trunk", help="comma-separated trunk widths")
            p.add_argument("--grid", help="comma-separated quantile levels")
            p.add_argument("--lam", type=float, help="crossing penalty weight")
            p.add_argument("--epochs", type=int)
            p.add_argument("--batch-size", dest="batch_size", type=int)
        if name == "train":
            p.add_argument("--loss", choices=["bqr", "bce"])
        if name in ("train", "noise-sweep"):
            p.add_argument("--lr", help="'lalr' or a fixed learning rate")
        if name in ("evaluate", "smooth"):
            p.add_argument("--checkpoint")
        if name == "noise-sweep":
            p.add_argument("--fractions", help="comma-separated flip fractions")
        if name == "lalr-bench":
            p.add_argument("--target-acc", dest="target_acc", type=float)
        if name == "smooth":
            p.add_argument("--bandwidth", type=float)
            p.add_argument("--pi-level", dest="pi_level", type=float)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use: parse_args leaves it
    unchanged, so one instance serves every call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except training.TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
