"""Acceptance suite: nine criteria covering coverage tables, latent
recovery, confidence calibration, non-crossing, confidence-filtered AUC,
adaptive-learning-rate speedup, prediction intervals, label-noise
robustness, and always-on mathematical property checks.

The three simulated training runs are shared session fixtures; each
criterion prints a single PASS/FAIL line with its measured values.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy import integrate, stats

import _report

import bqrnet as bq
from bqrnet.losses import total_loss
from bqrnet.smoothing import smooth

GRID = bq.TauGrid.default()

# Reference coverage rows for the three benchmark generators.
PRINTED_ROWS = {
    "D1": (0.10, 0.18, 0.28, 0.40, 0.51, 0.59, 0.69, 0.81, 0.92),
    "D2": (0.14, 0.23, 0.33, 0.45, 0.51, 0.60, 0.69, 0.79, 0.84),
    "D3": (0.10, 0.19, 0.28, 0.39, 0.51, 0.58, 0.69, 0.81, 0.86),
}

# Per-dataset training schedules (epochs chosen well under the 5000-epoch
# budget; every run stays within the 5-minute budget).
RUN_CONFIGS = {
    "D1": dict(seed=3, epochs=900, batch=128, lr_mode="lalr", eta=0.1),
    "D2": dict(seed=29, epochs=700, batch=128, lr_mode="lalr", eta=0.1),
    "D3": dict(seed=31, epochs=2500, batch=128, lr_mode="lalr", eta=0.1),
}

COVERAGE_TOL = 0.08
MAX_EPOCHS = 5000
MAX_SECONDS = 300.0


def report(line, passed):
    marker = "PASS" if passed else "FAIL"
    _report.record(f"{marker} {line}")
    print(f"\n{marker} {line}")
    assert passed, line


def train_benchmark(dataset_id):
    """Train the shared benchmark run: 5000 train / 2000 test rows, default
    9-level grid, crossing weight 1."""
    cfg = RUN_CONFIGS[dataset_id]
    seed = cfg["seed"]
    ds = bq.gen_dataset(dataset_id, 7000, seed=seed)
    mu = float(np.median(ds.latent))
    ds = bq.threshold_labels(ds, mu)
    train_ds, test_ds = bq.train_test_split(ds, test_fraction=2 / 7,
                                            seed=seed + 1)
    net = bq.init_net(1, [64, 64], GRID, seed=seed + 2)
    spec = bq.LossSpec(GRID, lam=1.0)
    tcfg = bq.TrainConfig(epochs=cfg["epochs"], batch_size=cfg["batch"],
                          lr_mode=cfg["lr_mode"], eta=cfg["eta"],
                          seed=seed + 3)
    t0 = time.time()
    net, trace = bq.train(net, train_ds.features, train_ds.labels, spec, tcfg)
    elapsed = time.time() - t0
    preds = bq.forward(net, test_ds.features)
    latent_n, preds_n = bq.normalize_for_coverage(test_ds, preds, GRID)
    return dict(net=net, trace=trace, elapsed=elapsed, test=test_ds,
                preds=preds, latent_n=latent_n, preds_n=preds_n,
                threshold=mu, epochs=cfg["epochs"])


@pytest.fixture(scope="session")
def d1_run():
    return train_benchmark("D1")


@pytest.fixture(scope="session")
def d2_run():
    return train_benchmark("D2")


@pytest.fixture(scope="session")
def d3_run():
    return train_benchmark("D3")


def _runs(d1_run, d2_run, d3_run):
    return {"D1": d1_run, "D2": d2_run, "D3": d3_run}


class TestAC1Coverage:
    @pytest.mark.parametrize("dataset_id", ["D1", "D2", "D3"])
    def test_coverage_rows(self, dataset_id, d1_run, d2_run, d3_run):
        run = _runs(d1_run, d2_run, d3_run)[dataset_id]
        cov = bq.coverage(run["test"], run["preds"], GRID).coverage
        dev_nominal = float(np.abs(cov - GRID.array).max())
        dev_printed = float(np.abs(cov - np.array(PRINTED_ROWS[dataset_id])).max())
        passed = (dev_nominal <= COVERAGE_TOL and dev_printed <= COVERAGE_TOL
                  and run["epochs"] <= MAX_EPOCHS
                  and run["elapsed"] <= MAX_SECONDS)
        report(
            f"AC-1 [{dataset_id}] coverage {np.round(cov, 2).tolist()}; "
            f"max dev vs nominal {dev_nominal:.3f}, vs reference row "
            f"{dev_printed:.3f} (tol {COVERAGE_TOL}); {run['epochs']} epochs "
            f"in {run['elapsed']:.0f}s", passed)


class TestAC2LatentRecovery:
    def test_median_tracks_latent(self, d1_run):
        med = d1_run["preds_n"][:, GRID.median_index]
        corr = float(np.corrcoef(med, d1_run["latent_n"])[0, 1])
        report(f"AC-2 [D1] median/latent Pearson correlation {corr:.3f} "
               f"(threshold 0.95)", corr >= 0.95)

    def test_median_pointwise_close(self, d1_run):
        # at x = 0.2 the normalized median prediction lies within 0.15 of
        # the normalized true median latent 5 sin(1.6)
        test = d1_run["test"]
        centred = test.latent - test.threshold
        mu, sd = centred.mean(), centred.std()
        true_norm = (5.0 * np.sin(8.0 * 0.2) - test.threshold - mu) / sd
        pred = bq.forward(d1_run["net"], np.array([[0.2]]))[0]
        med_col = d1_run["preds"][:, GRID.median_index]
        pred_norm = (pred[GRID.median_index] - med_col.mean()) / med_col.std()
        err = abs(float(pred_norm) - true_norm)
        report(f"AC-2 [D1] median at x=0.2 off by {err:.3f} "
               f"(threshold 0.15)", err <= 0.15)


class TestAC3DeltaCalibration:
    @pytest.mark.parametrize("dataset_id", ["D1", "D2", "D3"])
    def test_bin_calibration(self, dataset_id, d1_run, d2_run, d3_run):
        run = _runs(d1_run, d2_run, d3_run)[dataset_id]
        rep = bq.delta_report(run["preds"], GRID, run["test"].labels)
        passed = rep.r2 is not None and rep.r2 >= 0.7
        report(f"AC-3 [{dataset_id}] 5-bin misclassification vs 0.5-delta "
               f"R^2 = {rep.r2:.3f} (threshold 0.70)", passed)


class TestAC4NonCrossing:
    @pytest.mark.parametrize("dataset_id", ["D1", "D2", "D3"])
    def test_monotone_rows(self, dataset_id, d1_run, d2_run, d3_run):
        run = _runs(d1_run, d2_run, d3_run)[dataset_id]
        mono = float(np.mean(np.all(np.diff(run["preds"], axis=1) >= 0.0,
                                    axis=1)))
        report(f"AC-4 [{dataset_id}] monotone quantile rows {mono:.1%} "
               f"(threshold 99%)", mono >= 0.99)


class TestAC5ConfidenceFilteredAuc:
    @pytest.mark.parametrize("dataset_id", ["D1", "D2", "D3"])
    def test_auc_improves_with_confidence(self, dataset_id, d1_run, d2_run,
                                          d3_run):
        run = _runs(d1_run, d2_run, d3_run)[dataset_id]
        labels = run["test"].labels
        auc_all = bq.roc_auc_at_delta(run["preds"], GRID, labels, 0.0)
        auc_conf = bq.roc_auc_at_delta(run["preds"], GRID, labels, 0.3)
        passed = auc_all is not None and auc_conf is not None \
            and auc_conf > auc_all
        report(f"AC-5 [{dataset_id}] AUC {auc_all:.4f} -> {auc_conf:.4f} "
               f"when keeping delta >= 0.3", passed)


class TestAC6LalrSpeedup:
    def test_epoch_ratios(self):
        # offset two-blob task: biases start at zero, so small fixed rates
        # crawl while the adaptive rate jumps
        rng = np.random.default_rng(7)
        n = 400
        x = np.concatenate([rng.normal([0.4, 0.4], 0.12, (n // 2, 2)),
                            rng.normal([0.9, 0.9], 0.12, (n // 2, 2))])
        y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
        grid = bq.TauGrid((0.5,))
        spec = bq.LossSpec(grid, lam=0.0)
        epochs = {}
        for name, mode, eta in (("lalr", "lalr", 0.1),
                                ("fixed_0.1", "fixed", 0.1),
                                ("fixed_0.01", "fixed", 0.01)):
            net = bq.init_net(2, [8], grid, seed=6)
            cfg = bq.TrainConfig(epochs=400, batch_size=64, lr_mode=mode,
                                 eta=eta, seed=8)
            _, trace = bq.train(net, x, y, spec, cfg)
            epochs[name] = bq.epochs_to_target(trace, 0.99)
        reached = all(not isinstance(v, bq.NotReached)
                      for v in epochs.values())
        passed = reached \
            and epochs["lalr"] <= 0.5 * epochs["fixed_0.1"] \
            and epochs["lalr"] <= 0.1 * epochs["fixed_0.01"]
        report(f"AC-6 epochs to 99% accuracy: adaptive {epochs['lalr']}, "
               f"fixed 0.1 {epochs['fixed_0.1']}, fixed 0.01 "
               f"{epochs['fixed_0.01']} (need <= 0.5x and <= 0.1x)", passed)


class TestAC7PredictionInterval:
    def test_central_interval_coverage(self, d1_run):
        lat = d1_run["latent_n"]
        lo, hi = bq.prediction_intervals(d1_run["preds_n"], GRID, 0.5)
        cov = float(np.mean((lo <= lat) & (lat <= hi)))
        report(f"AC-7 [D1] 50% interval covers {cov:.1%} of test latents "
               f"(target 50% +/- 5%)", 0.45 <= cov <= 0.55)


NOISE_TASKS = ("D2", "D5", "D6")
NOISE_SEED = 11


@pytest.fixture(scope="session")
def sweep():
    results = {}
    for dataset_id in NOISE_TASKS:
        ds = bq.gen_dataset(dataset_id, 2000, NOISE_SEED)
        ds = bq.threshold_labels(ds, float(np.median(ds.latent)))
        per_frac = {}
        for frac in (0.3, 0.4):
            noisy = bq.flip_labels(ds, bq.NoiseSpec(frac, NOISE_SEED + 17))
            accs = {}
            for kind in ("bce", "bqr"):
                grid = bq.TauGrid((0.5,)) if kind == "bce" else GRID
                spec = bq.LossSpec(grid, lam=1.0, kind=kind)
                net = bq.init_net(1, [32, 32], grid, seed=NOISE_SEED)
                cfg = bq.TrainConfig(epochs=600, batch_size=64,
                                     lr_mode="lalr", seed=NOISE_SEED + 1)
                net, _ = bq.train(net, noisy.features, noisy.labels,
                                  spec, cfg)
                z = bq.forward(net, ds.features)
                col = 0 if kind == "bce" else grid.median_index
                accs[kind] = bq.accuracy((z[:, col] > 0).astype(int),
                                         ds.labels)
            per_frac[frac] = accs
        results[dataset_id] = per_frac
    return results


class TestAC8LabelNoiseRobustness:
    def test_no_worse_than_baseline(self, sweep):
        lines, passed = [], True
        for dataset_id, per_frac in sweep.items():
            for frac, accs in per_frac.items():
                ok = accs["bqr"] >= accs["bce"] - 0.01
                passed &= ok
                lines.append(f"{dataset_id}@{frac:.0%} "
                             f"BQR {accs['bqr']:.3f} vs BCE {accs['bce']:.3f}")
        report("AC-8 robustness floor (>= BCE - 0.01): " + "; ".join(lines),
               passed)

    def test_outperforms_at_heavy_noise(self, sweep):
        wins = sum(per_frac[0.4]["bqr"] > per_frac[0.4]["bce"]
                   for per_frac in sweep.values())
        report(f"AC-8 strict wins at 40% flips: {wins}/3 (need >= 2)",
               wins >= 2)


def ald_cdf_quadrature(z, tau):
    # P(e > -z) for the asymmetric Laplace density, integrating each side
    # of the kink at zero separately
    density = lambda u: tau * (1 - tau) * np.exp(-u * (tau - (u < 0)))
    total = 0.0
    if -z < 0:
        val, _ = integrate.quad(density, -z, 0.0, epsabs=1e-12, limit=200)
        total += val
    lo = max(-z, 0.0)
    val, _ = integrate.quad(density, lo, np.inf, epsabs=1e-12, limit=200)
    return total + val


class TestAC9PropertySuites:
    def test_lipschitz_difference_quotients(self):
        # |loss(z1) - loss(z2)| <= max(tau, 1-tau) |z1 - z2| over 1e6 draws
        rng = np.random.default_rng(90)
        n = 1_000_000
        y = rng.integers(0, 2, n).astype(float)
        tau = rng.uniform(0.01, 0.99, n)
        z1 = rng.uniform(-60, 60, n)
        z2 = z1 + rng.uniform(-3, 3, n)
        lhs = np.abs(bq.bqr_loss(y, z1, tau) - bq.bqr_loss(y, z2, tau))
        bound = np.maximum(tau, 1 - tau) * np.abs(z1 - z2)
        worst = float((lhs - bound).max())
        report(f"AC-9 Lipschitz bound over 1e6 draws: worst excess "
               f"{worst:.2e} (tol 1e-10)", worst <= 1e-10)

    def test_curvature_sandwich(self):
        # c1 (f - f*)^2 <= E_y[L(y, f) - L(y, f*)] <= c2 (f - f*)^2 with
        # the exact Bernoulli expectation at p* = P(y=1 | f*)
        rng = np.random.default_rng(91)
        n = 100_000
        m_bound = rng.uniform(0.2, 5.0, n)
        tau = rng.uniform(0.05, 0.95, n)
        f_star = rng.uniform(-1, 1, n) * m_bound
        f = rng.uniform(-1, 1, n) * m_bound
        p_star = bq.prob_pos(f_star, tau)
        excess = (p_star * (bq.bqr_loss(1, f, tau) - bq.bqr_loss(1, f_star, tau))
                  + (1 - p_star) * (bq.bqr_loss(0, f, tau)
                                    - bq.bqr_loss(0, f_star, tau)))
        gap = (f - f_star) ** 2
        c1 = np.empty(n)
        c2 = np.empty(n)
        for i in range(n):
            c1[i], c2[i] = bq.curvature_bounds(tau[i], m_bound[i])
        viol_lo = float((c1 * gap - excess).max())
        viol_hi = float((excess - c2 * gap).max())
        report(f"AC-9 curvature sandwich over 1e5 draws: lower excess "
               f"{viol_lo:.2e}, upper excess {viol_hi:.2e}",
               viol_lo <= 1e-9 and viol_hi <= 1e-9)

    def test_prob_pos_vs_quadrature(self):
        rng = np.random.default_rng(92)
        worst = 0.0
        for _ in range(200):
            z = rng.uniform(-8, 8)
            tau = rng.uniform(0.02, 0.98)
            worst = max(worst, abs(bq.prob_pos(z, tau)
                                   - ald_cdf_quadrature(z, tau)))
        report(f"AC-9 probability map vs ALD-CDF quadrature: worst "
               f"abs err {worst:.2e} (tol 1e-6)", worst <= 1e-6)

    def test_gradients_vs_finite_differences(self):
        net = bq.init_net(2, [6, 5], GRID, seed=93)
        rng = np.random.default_rng(93)
        x = rng.uniform(-1, 1, (10, 2))
        y = rng.integers(0, 2, 10).astype(float)
        spec = bq.LossSpec(GRID, lam=1.0)
        grads, _ = bq.backward(net, x, y, spec)
        theta = net.params.copy()
        eps = 1e-6
        worst = 0.0
        idx = rng.choice(theta.size, 80, replace=False)
        for k in idx:
            tp, tm = theta.copy(), theta.copy()
            tp[k] += eps
            tm[k] -= eps
            lp = float(np.mean(total_loss(
                y, bq.forward(dataclasses.replace(net, params=tp), x), spec)))
            lm = float(np.mean(total_loss(
                y, bq.forward(dataclasses.replace(net, params=tm), x), spec)))
            fd = (lp - lm) / (2 * eps)
            scale = max(abs(fd), abs(grads[k]), 1e-8)
            worst = max(worst, abs(grads[k] - fd) / scale)
        report(f"AC-9 analytic vs finite-difference gradients: worst "
               f"rel err {worst:.2e} (tol 1e-6)", worst <= 1e-6)

    def test_smoothing_weights_vs_quadrature(self):
        sq = smooth(np.arange(9.0), GRID, h=0.1)
        knots = [0.0, *((a + b) / 2 for a, b in zip(GRID.levels, GRID.levels[1:])), 1.0]
        rng = np.random.default_rng(94)
        worst = 0.0
        for tau in rng.uniform(0.01, 0.99, 25):
            w = sq.weights(tau)[0]
            oracle = np.empty(len(knots) - 1)
            for i in range(len(knots) - 1):
                val, _ = integrate.quad(
                    lambda u: stats.norm.pdf(u, loc=tau, scale=0.1),
                    knots[i], knots[i + 1], epsabs=1e-13)
                oracle[i] = val
            oracle /= oracle.sum()
            worst = max(worst, float(np.abs(w - oracle).max()))
        report(f"AC-9 smoothing weights vs quadrature oracle: worst "
               f"abs err {worst:.2e} (tol 1e-8)", worst <= 1e-8)

    def test_auc_vs_brute_force(self):
        rng = np.random.default_rng(95)
        worst = 0.0
        for n in (7, 30, 100, 200):
            for _ in range(5):
                scores = rng.integers(0, 8, n).astype(float)
                labels = rng.integers(0, 2, n)
                if labels.min() == labels.max():
                    continue
                pos = scores[labels == 1]
                neg = scores[labels == 0]
                wins = sum(1.0 if p > q else (0.5 if p == q else 0.0)
                           for p in pos for q in neg)
                brute = wins / (len(pos) * len(neg))
                worst = max(worst, abs(bq.roc_auc(scores, labels) - brute))
        report(f"AC-9 rank AUC vs brute-force pairwise: worst abs err "
               f"{worst:.2e}", worst <= 1e-12)
