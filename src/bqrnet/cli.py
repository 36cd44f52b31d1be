"""Command-line front end: simulation, training, evaluation, label-noise
sweeps, learning-rate benchmarks, and smoothed-quantile exports.

Every command is driven by an optional YAML config plus flag overrides
(flags win), uses only explicit seeds, and embeds a hash of the resolved
configuration in its outputs. Exit codes: 0 success, 2 validation error,
3 runtime/divergence error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import yaml

from . import datasets, losses, metrics, network, smoothing, training

EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that rejects a mapping setting one key twice,
    where the safe loader keeps the last value; a key may still override
    one merged in by ``<<``."""

    def construct_mapping(self, node, deep=False):
        keys = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)
        seen = set()
        for key_node in keys:
            key = self.construct_object(key_node, deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    problem=f"duplicate key {json.dumps(key, default=str)}",
                    problem_mark=key_node.start_mark)
            seen.add(key)
        return mapping


def _resolve(args: argparse.Namespace) -> dict:
    """The config file's values overridden by every flag the command was
    given; the parser gives each command only the flags it uses. A file key
    must be one of CONFIG_KEYS."""
    out = {}
    if args.config is not None:
        with open(args.config, "rb") as fh:
            try:
                out = yaml.load(fh, Loader=_UniqueKeyLoader) or {}
            except yaml.YAMLError as exc:  # its text spans several lines
                problem = getattr(exc, "problem", None) or str(exc).partition("\n")[0]
                mark = getattr(exc, "problem_mark", None)
                if mark:
                    problem += f" at line {mark.line + 1}, column {mark.column + 1}"
                raise ValueError(f"{args.config}: {problem}") from None
        if not isinstance(out, dict):
            raise ValueError("config file must contain a mapping")
        unknown = sorted(map(str, out.keys() - CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)} "
                             "(keys are the flags' dest names, e.g. batch_size)")
    out.update((key, val) for key, val in vars(args).items()
               if val is not None and key not in ("command", "fn", "config"))
    return out


def _typed(key: str, val, kind):
    """``val`` when it is of type ``kind`` (or of one in a tuple of types),
    else a ValueError naming ``key``. A float may be given as an int;
    true and false are bools only, not ints. A float comes back as a float."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    kinds += (int,) if float in kinds else ()
    if isinstance(val, bool) != (bool in kinds) or not isinstance(val, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"{key} must be {names}, not "
                         f"{json.dumps(val, default=str)}")
    return float(val) if kind is float else val


def _get(cfg: dict, key: str, kind, default=None):
    """cfg[key] checked by ``_typed``, or ``default`` when the key is absent.
    A null value stands for an absent key only where the default is None."""
    val = cfg.get(key, default)
    return None if val is None and default is None else _typed(key, val, kind)


def _require(cfg: dict, key: str) -> str:
    val = _get(cfg, key, str)
    if val is None:
        raise ValueError(f"missing required option: {key}")
    return val


def _list(cfg: dict, key: str, kind, default) -> list:
    """cfg[key] as a list of ``kind``: a flag gives comma-separated text, a
    config file a list, a single value or the same text; null is the
    default. Text items are converted and the others checked by ``_typed``,
    either under the key's name."""
    val = _get(cfg, key, (str, list, kind))
    if val is None:
        return default
    if isinstance(val, str):
        val = val.split(",")
    elif not isinstance(val, list):
        val = [val]
    return [_parse(key, v, kind) if isinstance(v, str) else _typed(key, v, kind)
            for v in val]


def _parse(key: str, text: str, kind):
    """``kind(text)``, or a ValueError naming ``key`` in the form of
    ``_typed``'s."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{key} must be {kind.__name__}, not "
                         f"{json.dumps(text)}") from None


def _load_dataset(cfg: dict, default_n: int = 7000):
    """The simulated dataset (labelled at its threshold, 'median' unless
    given) or the CSV file the config names, with its features as read."""
    dataset_id, data = _get(cfg, "dataset_id", str), _get(cfg, "data", str)
    if dataset_id and data:
        raise ValueError("both dataset_id (--id) and data (--data) are set; "
                         "give one")
    if dataset_id:
        ds = datasets.gen_dataset(dataset_id, _get(cfg, "n", int, default_n),
                                  _get(cfg, "seed", int, 0))
        return datasets.threshold_labels(ds, datasets.resolve_threshold(
            _get(cfg, "threshold", (str, float), "median"), ds.latent))
    if data:
        return datasets.load_csv(
            data, label_column=_require(cfg, "label_column"),
            threshold=_get(cfg, "threshold", (str, float)),
            latent_column=_get(cfg, "latent_column", str))
    raise ValueError("no dataset given: pass --id or --data")


def _train_config(cfg: dict) -> training.TrainConfig:
    mode = str(_get(cfg, "lr", (str, float), "lalr")).lower()
    eta = 0.1
    if mode not in (training.FIXED, training.LALR):
        try:
            eta = float(mode)
        except ValueError:
            raise ValueError(f"bad lr {mode!r}: use 'lalr' or a number")
        mode = training.FIXED
    return training.TrainConfig(
        epochs=_get(cfg, "epochs", int, 500),
        batch_size=_get(cfg, "batch_size", int, 128),
        lr_mode=mode, eta=eta, seed=_get(cfg, "seed", int, 0))


def _fit_setup(cfg: dict, trunk_default: list):
    """The dataset with each feature column scaled into [-1, 1] by its own
    min and max; ``fresh(loss)``: a network at its initial weights and the
    loss spec to train it with (the BCE baseline takes only the grid (0.5,));
    and ``fold(net)``: a copy of a trained net that takes raw features."""
    ds = _load_dataset(cfg)
    if ds.labels.min() == ds.labels.max():
        raise ValueError(f"the labels of {ds.name} hold a single class")
    lo, hi = ds.features.min(axis=0), ds.features.max(axis=0)
    ds = dataclasses.replace(ds, features=datasets.scale_features(ds.features, lo, hi))
    grid = network.TauGrid(_list(cfg, "grid", float, network.DEFAULT_GRID))
    trunk = _list(cfg, "trunk", int, trunk_default)

    def fresh(kind=_get(cfg, "loss", str, losses.BQR).lower()):
        levels = network.TauGrid((0.5,)) if kind == losses.BCE else grid
        spec = losses.LossSpec(levels, lam=_get(cfg, "lam", float, 1.0), kind=kind)
        seed = _get(cfg, "seed", int, 0)
        return network.init_net(ds.dim, trunk, levels, seed), spec

    return ds, fresh, functools.partial(datasets.fold_scaling, lo=lo, hi=hi)


def _score_setup(cfg: dict):
    """The raw dataset, the checkpoint's grid and its predictions on it."""
    ds = _load_dataset(cfg)
    net = network.load_checkpoint(_require(cfg, "checkpoint"))
    return ds, net.grid, network.forward(net, ds.features)


def _outdir(cfg: dict) -> Path:
    out = Path(_get(cfg, "out", str, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _summary(cfg: dict) -> dict:
    return {"config": cfg, "config_hash": _config_hash(cfg)}


# Each command takes the resolved config and returns the line reporting what
# it wrote, then any notes for that line's parentheses.
def cmd_simulate(cfg: dict):
    _require(cfg, "dataset_id")
    # simulate takes no --data; a config file's data key is another command's
    ds = _load_dataset({**cfg, "data": None}, default_n=10000)
    out = Path(_get(cfg, "out", str, f"{ds.name}.csv"))
    datasets.write_csv(ds, out)
    return f"wrote {ds.n} rows to {out}", f"threshold={ds.threshold:.6g}"


def cmd_train(cfg: dict):
    ds, fresh, fold = _fit_setup(cfg, [64, 64])
    net, spec = fresh()
    tcfg = _train_config(cfg)
    out = _outdir(cfg)
    try:
        net, trace = training.train(net, ds.features, ds.labels, spec, tcfg)
    except training.TrainingDiverged as exc:
        exc.trace.to_csv(out / "trace.csv")
        raise training.TrainingDiverged(f"{exc} (partial trace written)",
                                        exc.trace) from exc
    network.save_checkpoint(fold(net), out / "checkpoint.npz")
    trace.to_csv(out / "trace.csv")
    last = trace.records[-1] if trace.records else None
    metrics.summary_json(out / "train_summary.json", {
        **_summary(cfg), "param_count": net.params.size,
        "final_loss": last and last.loss, "final_accuracy": last and last.accuracy})
    return f"wrote checkpoint.npz and trace.csv to {out}",


def cmd_evaluate(cfg: dict):
    ds, grid, preds = _score_setup(cfg)
    out = _outdir(cfg)
    cov = None
    if ds.latent is None:
        print("note: no latent column; coverage table skipped")
    else:
        cov = metrics.coverage(*datasets.normalize_for_coverage(ds, preds, grid), grid)
        cov.to_csv(out / "coverage.csv", dataset_name=ds.name)
    scores = smoothing.delta_scores(preds, grid)
    rep = metrics.delta_report(scores, ds.labels)
    rep.to_csv(out / "delta_report.csv", dataset_name=ds.name)
    metrics.summary_json(out / "summary.json", {
        **_summary(cfg), "n": ds.n, "grid": list(grid.levels),
        "coverage": cov and cov.coverage, "delta_r2": rep.r2,
        "accuracy": metrics.accuracy(scores.predicted_label, ds.labels),
        "auc": metrics.roc_auc(preds[:, grid.median_index], ds.labels),
        "misclassification_per_threshold": rep.misclassification,
        "retention_per_threshold": rep.retention})
    return f"wrote coverage/delta reports and summary.json to {out}",


def cmd_noise_sweep(cfg: dict):
    fractions = _list(cfg, "fractions", float, [0.0, 0.1, 0.2, 0.3, 0.4])
    seed = _get(cfg, "seed", int, 0) + 17
    noises = [datasets.NoiseSpec(f, seed) for f in fractions]
    ds, fresh, _ = _fit_setup(cfg, [64, 64])
    tcfg = _train_config(cfg)
    rows = {"bce": [], "bqr": []}
    for noise in noises:
        noisy = datasets.flip_labels(ds, noise) if noise.flip_fraction > 0 else ds
        for kind, accs in rows.items():
            net, spec = fresh(kind)
            net, _ = training.train(net, noisy.features, noisy.labels, spec, tcfg)
            z = network.forward(net, ds.features)
            accs.append(metrics.accuracy(
                (z[:, spec.grid.median_index] > 0).astype(int), ds.labels))
    path = _outdir(cfg) / "noise_sweep.csv"
    datasets.write_rows(
        path, ["dataset", "loss"] + [f"{f:.0%}" for f in fractions],
        [[ds.name, kind.upper()] + [f"{a:.4f}" for a in accs]
         for kind, accs in rows.items()])
    return f"wrote {path}",


def cmd_lalr_bench(cfg: dict):
    target = _get(cfg, "target_acc", float, 0.97)
    if not 0.0 < target <= 1.0:
        raise ValueError(f"target_acc must lie in (0, 1], not {target}")
    ds, fresh, _ = _fit_setup(cfg, [32, 32])
    results = []
    for lr in (0.01, 0.1, training.LALR):
        net, spec = fresh()
        tcfg = _train_config({"epochs": 1000, "batch_size": 64, **cfg, "lr": lr,
                              "seed": _get(cfg, "seed", int, 0) + 1})
        _, trace = training.train(net, ds.features, ds.labels, spec, tcfg)
        results.append(training.epochs_to_target(trace, target))
    path = _outdir(cfg) / "lalr_bench.csv"
    datasets.write_rows(
        path, ["dataset", "target_acc", "n_fixed_0.01", "n_fixed_0.1", "n_lalr"],
        [[ds.name, target] + [str(r) for r in results]])
    return f"wrote {path}",


def cmd_smooth(cfg: dict):
    ds, grid, preds = _score_setup(cfg)
    mean, variance = smoothing.conditional_moments(
        preds, grid, _get(cfg, "bandwidth", float, smoothing.DEFAULT_BANDWIDTH))
    scores = smoothing.delta_scores(preds, grid)
    columns = {"mean": mean, "variance": variance, "delta": scores.delta,
               "label": scores.predicted_label}
    level = _get(cfg, "pi_level", float)
    try:
        columns["pi_low"], columns["pi_high"] = smoothing.prediction_intervals(
            preds, grid, 0.5 if level is None else level)
    except ValueError as exc:
        if level is not None:  # only the default level may be skipped
            raise
        print(f"note: {exc}; pi_low and pi_high skipped")
    path = _outdir(cfg) / "smooth.csv"
    datasets.write_rows(
        path, [f"q_{t:.2f}" for t in grid.levels] + list(columns),
        (q + rest for q, *rest in zip(preds.tolist(),
                                      *(c.tolist() for c in columns.values()))))
    return f"wrote {path}",


# name -> (function, --help line)
COMMANDS = {
    "simulate": (cmd_simulate, "generate a simulated dataset CSV"),
    "train": (cmd_train, "fit a network; writes checkpoint.npz, trace.csv "
                         "and train_summary.json"),
    "evaluate": (cmd_evaluate, "score a checkpoint; writes coverage.csv, "
                               "delta_report.csv and summary.json"),
    "noise-sweep": (cmd_noise_sweep, "BCE and BQR accuracy under label flips; "
                                     "writes noise_sweep.csv"),
    "lalr-bench": (cmd_lalr_bench, "epochs to a target accuracy at two fixed "
                                   "rates and LALR; writes lalr_bench.csv"),
    "smooth": (cmd_smooth, "per-row quantiles, smoothed moments, delta and "
                           "prediction interval; writes smooth.csv"),
}
_ALL = tuple(COMMANDS)
_FIT = ("train", "noise-sweep", "lalr-bench")
_SCORE = ("evaluate", "smooth")

# (flag, argparse keywords, commands that take it), in --help order
OPTIONS = (
    ("--config", dict(help="YAML config file; flags override it"), _ALL),
    ("--id", dict(dest="dataset_id", help="simulated dataset id (D1..D6)"), _ALL),
    ("--n", dict(type=int, help="number of simulated rows"), _ALL),
    ("--seed", dict(type=int, help="master seed"), _ALL),
    ("--threshold", dict(help="binarization threshold: number, 'median', or 'p80'"),
     _ALL),
    ("--out", dict(help="output directory (or file for simulate)"), _ALL),
    ("--data", dict(help="CSV dataset path"), _FIT + _SCORE),
    ("--label-column", {}, _FIT + _SCORE),
    ("--latent-column", {}, _FIT + _SCORE),
    ("--trunk", dict(help="comma-separated trunk widths"), _FIT),
    ("--grid", dict(help="comma-separated quantile levels"), _FIT),
    ("--lam", dict(type=float, help="crossing penalty weight"), _FIT),
    ("--epochs", dict(type=int), _FIT),
    ("--batch-size", dict(type=int), _FIT),
    ("--loss", dict(choices=["bqr", "bce"]), ("train",)),
    ("--lr", dict(help="'lalr' or a fixed learning rate"), ("train", "noise-sweep")),
    ("--checkpoint", {}, _SCORE),
    ("--fractions", dict(help="comma-separated flip fractions"), ("noise-sweep",)),
    ("--target-acc", dict(type=float), ("lalr-bench",)),
    ("--bandwidth", dict(type=float), ("smooth",)),
    ("--pi-level", dict(type=float), ("smooth",)),
)

# the keys a config file may set: every option's dest but config's own
CONFIG_KEYS = {kw.get("dest", flag[2:].replace("-", "_"))
               for flag, kw, _ in OPTIONS if flag != "--config"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqrnet", description="Latent-quantile binary classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_) in COMMANDS.items():
        sub.add_parser(name, help=help_).set_defaults(fn=fn)
    for flag, kwargs, names in OPTIONS:
        for name in names:
            sub.choices[name].add_argument(flag, **kwargs)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use: parse_args leaves it
    unchanged, so one instance serves every call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        report, *notes = args.fn(cfg)
    except (ValueError, OSError, training.TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        diverged = isinstance(exc, training.TrainingDiverged)
        return EXIT_RUNTIME if diverged else EXIT_VALIDATION
    print(f"{report} ({', '.join(notes + [f'config {_config_hash(cfg)}'])})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
