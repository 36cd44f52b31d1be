"""Output-parameter gradient bound, adaptive learning rate, SGD loop
behavior, and epochs-to-target reporting."""

import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqrnet.losses import BCE, LossSpec, lipschitz_const
from bqrnet.network import TauGrid, forward, forward_cached, init_net
from bqrnet.training import (EpochRecord, NotReached, TrainConfig, TrainTrace,
                             TrainingDiverged, epochs_to_target, estimate_kz,
                             lalr_eta, train)


def two_blob_data(n=400, sep=2.0, seed=0):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(-sep, 0.5, (n // 2, 1)),
                        rng.normal(sep, 0.5, (n // 2, 1))])
    y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    return x, y


def offset_blob_data(n=400, seed=7):
    """Two 2-d Gaussian blobs away from the origin; zero-initialized biases
    make fixed small learning rates visibly slow here."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal([0.4, 0.4], 0.12, (n // 2, 2)),
                        rng.normal([0.9, 0.9], 0.12, (n // 2, 2))])
    y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    return x, y


def estimate_kz_per_head(net, x):
    """estimate_kz as a loop that recomputes every term for each head."""
    _, acts, pres = forward_cached(net, x)
    best = 0.0
    for j in range(net.n_heads):
        head_best = np.maximum(np.abs(acts[-1]).max(axis=1), 1.0)
        best = max(best, float(head_best.max()))
        delta = np.broadcast_to(net.head_w[j], acts[-1].shape)
        for i in range(len(net.trunk_w) - 1, -1, -1):
            dpre = delta * (pres[i] >= 0.0)
            a_prev = np.abs(acts[i]).max(axis=1)
            layer_best = np.abs(dpre).max(axis=1) * np.maximum(a_prev, 1.0)
            best = max(best, float(layer_best.max()))
            delta = dpre @ net.trunk_w[i]
    return best


class TestEstimateKz:
    def test_zero_network_hits_bias_term(self):
        # all-zero weights: head-bias gradients are exactly 1
        net = init_net(1, [4], TauGrid.default(), seed=0)
        net.trunk_w[0][:] = 0.0
        net.head_w[:] = 0.0
        assert estimate_kz(net, np.array([[0.3]])) == 1.0

    def test_single_linear_unit(self):
        # f = relu(w x) with head weight 1, w > 0, x = 2: df/dw = 2
        net = init_net(1, [1], TauGrid((0.5,)), seed=0)
        net.trunk_w[0][:] = 1.0
        net.trunk_b[0][:] = 0.0
        net.head_w[:] = 1.0
        assert estimate_kz(net, np.array([[2.0]])) == pytest.approx(2.0)

    def test_matches_finite_difference_jacobian(self):
        net = init_net(2, [3, 3], TauGrid((0.3, 0.5, 0.7)), seed=21)
        x = np.random.default_rng(6).normal(size=(4, 2))
        kz = estimate_kz(net, x)
        theta = net.params.copy()
        eps = 1e-6
        best = 0.0
        for k in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += eps
            tm[k] -= eps
            jac = (forward(dataclasses.replace(net, params=tp), x)
                   - forward(dataclasses.replace(net, params=tm), x)) / (2 * eps)
            best = max(best, float(np.abs(jac).max()))
        assert kz == pytest.approx(best, abs=1e-5)

    def test_empty_batch(self):
        net = init_net(1, [4], TauGrid.default(), seed=0)
        with pytest.raises(ValueError):
            estimate_kz(net, np.zeros((0, 1)))

    def test_one_d_batch_rejected(self):
        # one sample is a (1, d) batch; three values are not read as one row
        net = init_net(3, [4], TauGrid.default(), seed=0)
        with pytest.raises(ValueError, match=r"got shape \(3,\)"):
            estimate_kz(net, np.zeros(3))

    @pytest.mark.parametrize("input_dim, trunk, seed", [
        (1, [64, 64], 0), (1, [64, 64], 1), (3, [16, 8, 4], 2),
        (2, [32], 3)])
    def test_identical_to_per_head_loop(self, input_dim, trunk, seed):
        self.check_identical(input_dim, trunk, seed, TauGrid.default(), 128)

    @pytest.mark.parametrize("trunk", [[8], [16, 8]])
    def test_single_head_identical_to_per_head_loop(self, trunk):
        # the one-level grid AC-6 trains, so the stack of heads has m = 1
        self.check_identical(2, trunk, 6, TauGrid((0.5,)), 64)

    @staticmethod
    def check_identical(input_dim, trunk, seed, grid, n):
        net = init_net(input_dim, trunk, grid, seed=seed)
        rng = np.random.default_rng(seed)
        net.trunk_b[0][:] = rng.normal(size=trunk[0])
        x = rng.normal(0.0, 2.0, size=(n, input_dim))
        assert estimate_kz(net, x) == estimate_kz_per_head(net, x)


@st.composite
def small_nets(draw):
    """A ReLU net of 1-3 layers of 1-40 units and 1-9 heads, every
    parameter scaled down by up to 1e-6, with a batch of 1-64 rows."""
    input_dim = draw(st.integers(1, 3))
    trunk = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    m = draw(st.integers(1, 9))
    grid = TauGrid(tuple((np.arange(m) + 1.0) / (m + 1)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    net = init_net(input_dim, trunk, grid, seed=seed)
    net.params *= draw(st.floats(1e-6, 1.0))
    rows = draw(st.integers(1, 64))
    x = np.random.default_rng(seed).normal(size=(rows, input_dim))
    return net, x


bqr_specs = st.builds(
    lambda levels, lam: LossSpec(grid=TauGrid(tuple(sorted(levels))), lam=lam),
    st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=1, max_size=9, unique=True),
    st.floats(0.0, 100.0))
bce_specs = st.just(LossSpec(grid=TauGrid((0.5,)), kind=BCE))


class TestLalrInvariants:
    """The bounds that keep eta = 1 / (k_z L) at most 2: k_z >= 1 from the
    head-bias coordinates, and L >= 0.5."""

    @settings(max_examples=200, deadline=None)
    @given(small_nets())
    def test_kz_at_least_one(self, net_and_x):
        net, x = net_and_x
        assert estimate_kz(net, x) >= 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(bqr_specs, bce_specs))
    def test_lipschitz_at_least_half(self, spec):
        assert lipschitz_const(spec) >= 0.5


class TestLalrEta:
    def test_simple_values(self):
        assert lalr_eta(2.0, 0.5) == pytest.approx(1.0)
        assert lalr_eta(1.0, 0.9) == pytest.approx(1.0 / 0.9)

    def test_no_cap(self):
        # the paper's rule has no cap: a small k_z gives a large rate
        assert lalr_eta(1e-3, 0.5) == 1.0 / (1e-3 * 0.5)

    def test_domain(self):
        with pytest.raises(ValueError, match="must be positive"):
            lalr_eta(0.0, 0.5)
        with pytest.raises(ValueError, match="must be positive"):
            lalr_eta(1.0, 0.0)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1, batch_size=8)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=8, lr_mode="adam")
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=8, eta=0.0)

    @pytest.mark.parametrize("eta", [float("nan"), float("inf")])
    def test_non_finite_fixed_rate_rejected(self, eta):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(epochs=1, batch_size=8, eta=eta)


class TestTrain:
    def test_zero_epochs_identity(self):
        net = init_net(1, [4], TauGrid.default(), seed=1)
        x, y = two_blob_data(40)
        out, trace = train(net, x, y, LossSpec(grid=TauGrid.default()),
                           TrainConfig(epochs=0, batch_size=8))
        assert trace.records == []
        assert np.array_equal(out.params, net.params)

    def test_single_step_matches_hand_update(self):
        # 7-parameter net, one sample, one fixed-eta step: params move by
        # exactly -eta * analytic gradient
        from bqrnet.losses import backward

        net = init_net(1, [2], TauGrid((0.5,)), seed=2)
        x = np.array([[0.6]])
        y = np.array([1.0])
        spec = LossSpec(grid=TauGrid((0.5,)), lam=0.0)
        grads, _ = backward(net, x, y, spec)
        expected = net.params - 0.05 * grads
        out, _ = train(net, x, y, spec,
                       TrainConfig(epochs=1, batch_size=1, eta=0.05))
        assert np.allclose(out.params, expected)

    def test_original_net_untouched(self):
        net = init_net(1, [4], TauGrid.default(), seed=3)
        before = net.params.copy()
        x, y = two_blob_data(40)
        train(net, x, y, LossSpec(grid=TauGrid.default()),
              TrainConfig(epochs=2, batch_size=8))
        assert np.array_equal(net.params, before)

    def test_deterministic(self):
        x, y = two_blob_data(60)
        spec = LossSpec(grid=TauGrid.default())
        cfg = TrainConfig(epochs=3, batch_size=16, lr_mode="lalr", seed=5)
        runs = []
        for _ in range(2):
            net = init_net(1, [8], TauGrid.default(), seed=4)
            out, trace = train(net, x, y, spec, cfg)
            runs.append((out.params, [r.loss for r in trace.records]))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_lalr_trace_records_eta_and_kz(self):
        x, y = two_blob_data(60)
        net = init_net(1, [8], TauGrid.default(), seed=4)
        spec = LossSpec(grid=TauGrid.default())
        _, trace = train(net, x, y, spec,
                         TrainConfig(epochs=3, batch_size=16, lr_mode="lalr"))
        lip = lipschitz_const(spec)
        for rec in trace.records:
            assert rec.eta == 1.0 / (rec.kz * lip)

    def test_lalr_beats_fixed_small_eta(self):
        # adaptive rate reaches the accuracy target in at most half the
        # epochs of fixed eta = 0.1 on separable two-blob data
        x, y = offset_blob_data(400, seed=7)
        spec = LossSpec(grid=TauGrid((0.5,)), lam=0.0)
        epochs = {}
        for mode, eta in (("lalr", 0.1), ("fixed", 0.1)):
            net = init_net(2, [8], TauGrid((0.5,)), seed=6)
            cfg = TrainConfig(epochs=60, batch_size=64, lr_mode=mode,
                              eta=eta, seed=8)
            _, trace = train(net, x, y, spec, cfg)
            epochs[mode] = epochs_to_target(trace, 0.99)
        assert not isinstance(epochs["lalr"], NotReached)
        assert not isinstance(epochs["fixed"], NotReached)
        assert epochs["lalr"] <= 0.5 * epochs["fixed"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_trace(self):
        net = init_net(1, [4], TauGrid.default(), seed=9)
        net.trunk_w[0][:] = 1e300
        net.head_w[:] = 1e300
        x, y = two_blob_data(20)
        with pytest.raises(TrainingDiverged) as exc:
            train(net, x, y, LossSpec(grid=TauGrid.default()),
                  TrainConfig(epochs=3, batch_size=8, eta=1e10))
        assert isinstance(exc.value.trace, TrainTrace)

    def test_misaligned_inputs(self):
        net = init_net(1, [4], TauGrid.default(), seed=9)
        with pytest.raises(ValueError):
            train(net, np.zeros((3, 1)), np.zeros(2),
                  LossSpec(grid=TauGrid.default()),
                  TrainConfig(epochs=1, batch_size=2))

    def test_non_binary_labels_rejected(self):
        net = init_net(1, [4], TauGrid.default(), seed=9)
        with pytest.raises(ValueError, match="0 or 1"):
            train(net, np.zeros((3, 1)), np.array([0.0, 0.5, 1.0]),
                  LossSpec(grid=TauGrid.default()),
                  TrainConfig(epochs=1, batch_size=2))

    @pytest.mark.parametrize("epochs", [0, 1])
    @pytest.mark.parametrize("x, error, match", [
        (np.array([[0.1], [np.nan], [0.3]]), ValueError, "finite"),
        (np.array([[0.1], [np.inf], [0.3]]), ValueError, "finite"),
        (np.zeros((3, 2)), ValueError, "expected inputs with 1 features"),
        (np.zeros(3), ValueError, r"got shape \(3,\)"),
    ])
    def test_bad_features_rejected_before_training(self, epochs, x, error,
                                                   match):
        # the check forward makes, before the first epoch rather than as a
        # divergence or a matmul error inside it
        net = init_net(1, [4], TauGrid.default(), seed=9)
        with pytest.raises(error, match=match):
            train(net, x, np.array([0.0, 1.0, 1.0]),
                  LossSpec(grid=TauGrid.default()),
                  TrainConfig(epochs=epochs, batch_size=2))

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_grid_without_median_rejected_before_training(self, epochs):
        # the accuracy reads the median head, so a grid without 0.5 fails
        # before any epoch runs, also when there are none
        grid = TauGrid((0.1, 0.9))
        net = init_net(1, [4], grid, seed=9)
        x, y = two_blob_data(40)
        with pytest.raises(ValueError, match="median"):
            train(net, x, y, LossSpec(grid=grid),
                  TrainConfig(epochs=epochs, batch_size=8))

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_loss_grid_must_be_the_net_grid(self, epochs):
        # as wide as the net's grid, so only a comparison of the levels
        # stops the heads from training against the wrong ones
        net = init_net(1, [8], TauGrid.default(), seed=0)
        other = TauGrid((0.05, 0.15, 0.25, 0.35, 0.5, 0.65, 0.75, 0.85, 0.95))
        x, y = two_blob_data(40)
        with pytest.raises(ValueError, match="loss grid differs"):
            train(net, x, y, LossSpec(grid=other),
                  TrainConfig(epochs=epochs, batch_size=8))

    def test_accuracy_is_median_sign_on_training_set(self):
        x, y = two_blob_data(60)
        net = init_net(1, [8], TauGrid.default(), seed=4)
        out, trace = train(net, x, y, LossSpec(grid=TauGrid.default()),
                           TrainConfig(epochs=1, batch_size=16, seed=5))
        pred = forward(out, x)[:, TauGrid.default().median_index] > 0
        assert trace.records[0].accuracy == np.mean(pred == (y == 1))

    def test_trace_csv(self, tmp_path):
        x, y = two_blob_data(40)
        net = init_net(1, [4], TauGrid.default(), seed=1)
        _, trace = train(net, x, y, LossSpec(grid=TauGrid.default()),
                         TrainConfig(epochs=2, batch_size=8))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,accuracy,eta,kz"
        assert len(lines) == 3

    def test_trace_csv_bytes_match_per_row_repr(self, tmp_path):
        # the writer before rows went through dataclasses.astuple
        trace = TrainTrace(records=[
            EpochRecord(1, 0.1 + 0.2, 2 / 3, 1e-300, float("nan")),
            EpochRecord(2, 1.0, 0.5, 0.1, float("inf")),
            EpochRecord(3, 5e-324, 1.0, 1 / 7, 12.75)])
        path, ref = tmp_path / "trace.csv", tmp_path / "ref.csv"
        trace.to_csv(path)
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss", "accuracy", "eta", "kz"])
            for r in trace.records:
                writer.writerow([r.epoch, repr(r.loss), repr(r.accuracy),
                                 repr(r.eta), repr(r.kz)])
        assert path.read_bytes() == ref.read_bytes()


class TestEpochsToTarget:
    def _trace(self, accs):
        return TrainTrace(records=[
            EpochRecord(i + 1, 0.0, a, 0.1, 1.0) for i, a in enumerate(accs)])

    def test_reached(self):
        assert epochs_to_target(self._trace([0.6, 0.8, 0.9]), 0.85) == 3

    def test_not_reached_reports_best(self):
        out = epochs_to_target(self._trace([0.6, 0.9, 0.8]), 0.99)
        assert isinstance(out, NotReached)
        assert out.max_accuracy == 0.9
        assert str(out) == "N/A (0.900)"

    def test_empty_trace(self):
        out = epochs_to_target(self._trace([]), 0.5)
        assert isinstance(out, NotReached)
        assert out.max_accuracy == 0.0
