"""The benchmark's workloads: set-up, one timed operation, and output checks.

Every workload is a closed loop in one process: the next operation starts
when the previous one returns. Set-up and one warm-up operation run before
the timed loop; the output checks run after it.

- train-d1: the D1 reference run through ``bqrnet.train`` (5000 training
  rows, trunk [64, 64], 9 heads, batch 128, LALR, lam 1, per-epoch accuracy
  on the training set). The matrices are small, so the five loss functions,
  backprop glue, ``estimate_kz`` and the per-epoch eval forward each take a
  visible share; it stresses the ``losses`` and ``training`` layers.
- train-wide: the same data with trunk [256, 256], batch 512 and a fixed
  learning rate of 0.1. The work is matmul-bound and ``estimate_kz`` never
  runs, so it stresses the ``network`` layer; a loss or k_z change should
  read "no change" here.
- evaluate-d1: ``bqrnet.cli.main(["evaluate", ...])`` on 20000 held-out D1
  rows with a checkpoint trained in set-up. Confidence scoring dominates, so
  it stresses ``smoothing.delta_scores`` and ``metrics``, and uses
  ``network.forward`` for scoring rather than training.
- smooth-d1: ``bqrnet.cli.main(["smooth", ...])`` on 500 held-out D1 rows
  with the same checkpoint. It stresses ``smoothing`` and the per-row loop
  and CSV writing in ``cmd_smooth``, which only a run through the CLI sees.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math

import numpy as np
from bqrnet import cli, datasets, losses, network, smoothing, training

import layers

N_ROWS = 7000
N_TEST = 2000
TARGET_ACCURACY = 0.9
GRID = network.TauGrid.default()

# The scoring checkpoint is the same model in every run: fixed seeds, and 40
# epochs at a fixed rate of 0.1, which reach about 0.9 held-out accuracy in
# about a second (40 LALR epochs reach only about 0.63).
CKPT_SEEDS = (11, 12, 13)
CKPT_EPOCHS = 40


def derive_seeds(seed):
    """Data, split, initialisation, shuffle and held-out-row seeds."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(5)]


def _d1_split(data_seed, split_seed):
    ds = datasets.gen_dataset("D1", N_ROWS, data_seed)
    ds = datasets.threshold_labels(ds, float(np.median(ds.latent)))
    train, test = datasets.train_test_split(
        ds, test_fraction=N_TEST / N_ROWS, seed=split_seed)
    return ds, train, test


def _first_epoch_at(records, target):
    return next((r.epoch for r in records if r.accuracy >= target), 0)


class TrainState:
    def __init__(self, ds, train, test, net, seeds):
        self.ds, self.train, self.test, self.net = ds, train, test, net
        self.seeds = seeds
        self.calls = 0
        self.records = []


class TrainWorkload:
    """Closed-loop minibatch training; one operation is one epoch.

    Each call of ``training.train`` runs ``epochs_per_call`` epochs and
    continues from the net the previous call returned, with its own shuffle
    seed, so the epoch sequence is fixed by the workload seed.
    """

    def __init__(self, name, trunk, batch_size, lr_mode, eta,
                 epochs_per_call, check_epochs, accuracy_floor):
        self.name = name
        self.trunk = trunk
        self.spec = losses.LossSpec(GRID, lam=1.0)
        self.batch_size = batch_size
        self.lr_mode, self.eta = lr_mode, eta
        self.epochs_per_call = epochs_per_call
        self.check_epochs = check_epochs
        self.accuracy_floor = accuracy_floor
        self.rows_per_op = N_ROWS - N_TEST
        self.op_unit = "epoch"

    def setup(self, seed, workdir):
        seeds = derive_seeds(seed)
        ds, train, test = _d1_split(seeds[0], seeds[1])
        net = network.init_net(1, self.trunk, GRID, seed=seeds[2])
        return TrainState(ds, train, test, net, seeds)

    def run_op(self, st):
        """One call of train; returns (epochs it ran, whether it succeeded)."""
        cfg = training.TrainConfig(
            epochs=self.epochs_per_call, batch_size=self.batch_size,
            lr_mode=self.lr_mode, eta=self.eta, seed=st.seeds[3] + st.calls)
        st.calls += 1
        try:
            net, trace = training.train(st.net, st.train.features,
                                        st.train.labels, self.spec, cfg)
        except training.TrainingDiverged:
            return self.epochs_per_call, False
        done = len(st.records)
        for r in trace.records:
            r.epoch += done
        st.net = net
        st.records.extend(trace.records)
        return self.epochs_per_call, all(math.isfinite(r.loss)
                                         for r in trace.records)

    def finish(self, st):
        """Train on, untimed, until check_epochs epochs have run or a call
        fails; returns (calls made, calls failed)."""
        calls = 0
        while len(st.records) < self.check_epochs:
            _, ok = self.run_op(st)
            calls += 1
            if not ok:
                return calls, 1
        return calls, 0

    def checks(self, st):
        import oracles  # not at module level: set-up time excludes it
        x, latent = oracles.d1_rows(N_ROWS, st.seeds[0])
        out = [("d1 rows match the D1 definition",
                np.array_equal(x, st.ds.features)
                and np.array_equal(latent, st.ds.latent)),
               ("every epoch loss is finite",
                bool(st.records)
                and all(math.isfinite(r.loss) for r in st.records))]
        if self.accuracy_floor is not None:
            z = oracles.mlp_forward(st.net, st.test.features)
            acc = float(np.mean((z[:, GRID.median_index] > 0)
                                == st.test.labels))
            out.append((f"held-out accuracy {acc:.4f} >= "
                        f"{self.accuracy_floor} after {len(st.records)} "
                        f"epochs", acc >= self.accuracy_floor))
        return out

    def layer_info(self, st, epochs_traced):
        fwd, bwd = layers.mlp_flops(1, self.trunk, len(GRID), self.batch_size)
        return {"fwd_flops": fwd, "bwd_flops": bwd,
                "epochs_traced": epochs_traced,
                "epochs_to_target": _first_epoch_at(st.records,
                                                    TARGET_ACCURACY),
                "batches_per_epoch": math.ceil(self.rows_per_op
                                                   / self.batch_size)}


class CliState:
    def __init__(self, checkpoint, outdir, row_seed):
        self.checkpoint, self.outdir, self.row_seed = \
            checkpoint, outdir, row_seed


class CliWorkload:
    """One operation is one in-process CLI command on held-out D1 rows."""

    def __init__(self, name, command, n_rows):
        self.name = name
        self.command = command
        self.rows_per_op = n_rows
        self.op_unit = f"{command} of {n_rows} rows"

    def setup(self, seed, workdir):
        _, train, _ = _d1_split(CKPT_SEEDS[0], CKPT_SEEDS[1])
        net = network.init_net(1, [64, 64], GRID, seed=CKPT_SEEDS[2])
        cfg = training.TrainConfig(epochs=CKPT_EPOCHS, batch_size=128,
                                   lr_mode=training.FIXED, eta=0.1,
                                   seed=CKPT_SEEDS[2])
        net, _ = training.train(net, train.features, train.labels,
                                losses.LossSpec(GRID, lam=1.0), cfg)
        workdir.mkdir(parents=True, exist_ok=True)
        checkpoint = workdir / "checkpoint.npz"
        network.save_checkpoint(net, checkpoint)
        return CliState(checkpoint, workdir / self.command,
                        derive_seeds(seed)[4])

    def argv(self, st):
        return [self.command, "--id", "D1", "--n", str(self.rows_per_op),
                "--seed", str(st.row_seed), "--checkpoint", str(st.checkpoint),
                "--out", str(st.outdir)]

    def run_op(self, st):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(st))
        return 1, code == 0

    def finish(self, st):
        return 0, 0

    def checks(self, st):
        import oracles  # not at module level: set-up time excludes it
        net = network.load_checkpoint(st.checkpoint)
        x, latent = oracles.d1_rows(self.rows_per_op, st.row_seed)
        z = oracles.mlp_forward(net, x)
        if self.command == "evaluate":
            return self._check_evaluate(st, z, latent)
        return self._check_smooth(st, z)

    def _check_evaluate(self, st, z, latent):
        import oracles
        with open(st.outdir / "summary.json") as fh:
            summary = json.load(fh)
        labels = (latent > np.median(latent)).astype(int)
        med = z[:, GRID.median_index]
        acc = float(np.mean((med > 0) == labels))
        # rows whose median sits within rounding of 0 may land either way
        slack = np.count_nonzero(np.abs(med) < 1e-9) / med.size + 1e-12
        auc = oracles.pairwise_auc(med, labels)
        return [
            ("summary n", summary["n"] == self.rows_per_op),
            (f"summary accuracy {summary['accuracy']} matches recount {acc}",
             abs(summary["accuracy"] - acc) <= slack),
            (f"summary auc {summary['auc']} matches pairwise count {auc}",
             abs(summary["auc"] - auc) <= 1e-9),
        ]

    def _check_smooth(self, st, z):
        import oracles
        with open(st.outdir / "smooth.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = np.array([[float(v) for v in row] for row in reader])
        col = {name: i for i, name in enumerate(header)}
        m = len(GRID)
        q = rows[:, :m]
        delta, lo, hi = (rows[:, col[c]] for c in ("delta", "pi_low",
                                                   "pi_high"))
        out = [
            ("smooth.csv row count", rows.shape[0] == self.rows_per_op),
            ("quantile columns match the reference forward",
             np.allclose(q, z, rtol=1e-9, atol=1e-9)),
            ("0 <= delta <= 0.5", bool(np.all((delta >= 0) & (delta <= 0.5)))),
            ("pi_low <= pi_high", bool(np.all(lo <= hi))),
        ]
        sample = np.random.default_rng(st.row_seed).choice(
            rows.shape[0], size=min(20, rows.shape[0]), replace=False)
        worst = max(abs(rows[i, col["mean"]]
                        - oracles.smoothed_mean(q[i], GRID.levels,
                                                  smoothing.DEFAULT_BANDWIDTH))
                    for i in sample)
        out.append((f"mean matches quad of the smoothed function "
                    f"(worst error {worst:.2e})", worst <= 1e-7))
        return out

    def layer_info(self, st, epochs_traced):
        return {"fwd_flops": 0, "bwd_flops": 0, "epochs_traced": 0,
                "epochs_to_target": 0, "batches_per_epoch": 0}


WORKLOADS = {w.name: w for w in (
    TrainWorkload("train-d1", [64, 64], 128, training.LALR, 0.1,
                  epochs_per_call=4, check_epochs=150, accuracy_floor=0.9),
    TrainWorkload("train-wide", [256, 256], 512, training.FIXED, 0.1,
                  epochs_per_call=1, check_epochs=0, accuracy_floor=None),
    CliWorkload("evaluate-d1", "evaluate", 20000),
    CliWorkload("smooth-d1", "smooth", 500),
)}
