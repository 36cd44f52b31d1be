"""Network construction, forward evaluation, backprop, parameter
bookkeeping, and checkpoint round-trips."""

import dataclasses

import numpy as np
import pytest

from bqrnet.network import (QuantileNet, TauGrid, apply_step,
                            backprop_from_outputs, forward, forward_cached,
                            init_net, load_checkpoint, save_checkpoint)


class TestTauGrid:
    def test_default_grid(self):
        grid = TauGrid.default()
        assert grid.levels == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        assert len(grid) == 9
        assert grid.median_index == 4

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TauGrid((0.0, 0.5))
        with pytest.raises(ValueError):
            TauGrid((0.5, 1.0))
        with pytest.raises(ValueError):
            TauGrid(())

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            TauGrid((0.5, 0.5))
        with pytest.raises(ValueError):
            TauGrid((0.6, 0.4))

    @pytest.mark.parametrize("levels", [(0.5, np.nan), (np.nan,),
                                        (0.2, np.nan, 0.8)])
    def test_rejects_nan_level(self, levels):
        # NaN compares false, so (0.5, nan) passed both checks and its
        # median_index was 1, the NaN column
        with pytest.raises(ValueError, match=r"strictly in \(0, 1\)"):
            TauGrid(levels)

    def test_grid_without_median_allowed_but_median_index_raises(self):
        grid = TauGrid((0.4, 0.6))
        with pytest.raises(ValueError):
            grid.median_index


class TestInitNet:
    def test_shapes(self):
        net = init_net(1, [32, 32], TauGrid.default(), seed=7)
        assert net.trunk_widths == [32, 32]
        assert net.head_w.shape == (9, 32)
        assert net.head_b.shape == (9,)
        assert net.n_heads == 9

    def test_deterministic(self):
        a = init_net(1, [32, 32], TauGrid.default(), seed=7)
        b = init_net(1, [32, 32], TauGrid.default(), seed=7)
        for wa, wb in zip(a.trunk_w, b.trunk_w):
            assert np.array_equal(wa, wb)
        assert np.array_equal(a.head_w, b.head_w)

    def test_seed_changes_weights(self):
        a = init_net(1, [8], TauGrid.default(), seed=7)
        b = init_net(1, [8], TauGrid.default(), seed=8)
        assert not np.array_equal(a.trunk_w[0], b.trunk_w[0])

    def test_empty_trunk_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            init_net(1, [], TauGrid.default(), seed=7)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match="widths must be positive"):
            init_net(1, [4, 0], TauGrid.default(), seed=7)

    def test_zero_input_dim_rejected(self):
        with pytest.raises(ValueError, match="input_dim must be positive"):
            init_net(0, [4], TauGrid.default(), seed=7)

    def test_biases_zero(self):
        net = init_net(2, [4, 4], TauGrid.default(), seed=3)
        for b in net.trunk_b:
            assert np.all(b == 0.0)
        assert np.all(net.head_b == 0.0)


class TestForward:
    def test_zero_weights_give_zero_outputs(self):
        net = init_net(1, [4], TauGrid.default(), seed=0)
        net.trunk_w[0][:] = 0.0
        net.head_w[:] = 0.0
        out = forward(net, np.array([[0.3], [-2.0]]))
        assert np.all(out == 0.0)

    def test_single_unit_composition(self):
        # one trunk unit w=2, b=0.5; head weight 1 => output = relu(2x + 0.5)
        grid = TauGrid((0.5,))
        net = init_net(1, [1], grid, seed=0)
        net.trunk_w[0][:] = 2.0
        net.trunk_b[0][:] = 0.5
        net.head_w[:] = 1.0
        net.head_b[:] = 0.0
        x = np.array([[-1.0], [0.0], [0.3], [2.0]])
        expected = np.maximum(2.0 * x + 0.5, 0.0)
        assert forward(net, x) == pytest.approx(expected)

    def test_one_row_batches_and_batch_agree(self):
        net = init_net(3, [8, 8], TauGrid.default(), seed=5)
        x = np.random.default_rng(0).normal(size=(4, 3))
        batch = forward(net, x)
        assert batch.shape == (4, 9)
        for i in range(4):
            assert np.allclose(forward(net, x[i:i + 1]), batch[i:i + 1])

    def test_dimension_mismatch(self):
        net = init_net(2, [4], TauGrid.default(), seed=1)
        with pytest.raises(ValueError, match="expected inputs with 2 features"):
            forward(net, np.zeros((3, 5)))

    def test_non_finite_rejected(self):
        net = init_net(1, [4], TauGrid.default(), seed=1)
        with pytest.raises(ValueError):
            forward(net, np.array([[np.nan]]))

    def test_forward_cached_consistent(self):
        # forward reuses one buffer per layer for pre-activations and
        # activations; forward_cached must keep them apart
        net = init_net(2, [4, 3], TauGrid.default(), seed=2)
        for n in (1, 5, 128, 1024):
            x = np.random.default_rng(n).normal(size=(n, 2))
            z, acts, pres = forward_cached(net, x)
            assert np.array_equal(z, forward(net, x))
            assert len(acts) == 3 and len(pres) == 2 and acts[0] is x
            for i, pre in enumerate(pres):
                assert np.array_equal(acts[i + 1], np.maximum(pre, 0.0))
                for other in pres[:i] + acts[1:]:
                    assert not np.shares_memory(pre, other)
                if n > 1:
                    assert np.any(pre < 0.0)


def forward_unblocked(net, x):
    """The forward pass over all rows at once, as before row blocking."""
    a = x
    for w, b in zip(net.trunk_w, net.trunk_b):
        a = np.maximum(a @ w.T + b, 0.0)
    return a @ net.head_w.T + net.head_b


class TestBlockedForward:
    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 5000])
    def test_matches_unblocked(self, n):
        net = init_net(3, [64, 64], TauGrid.default(), seed=12)
        x = np.random.default_rng(n).normal(size=(n, 3))
        out = forward(net, x)
        assert out.shape == (n, 9)
        assert np.abs(out - forward_unblocked(net, x)).max() <= 1e-12

    def test_one_d_input_rejected(self):
        # one sample is a (1, input_dim) batch; a vector is not read as one
        net = init_net(3, [64, 64], TauGrid.default(), seed=12)
        x = np.random.default_rng(4).normal(size=3)
        with pytest.raises(ValueError, match=r"got shape \(3,\)"):
            forward(net, x)

    def test_nan_in_a_later_block_rejected(self):
        net = init_net(1, [4], TauGrid.default(), seed=1)
        x = np.zeros((2500, 1))
        x[2100, 0] = np.nan
        with pytest.raises(ValueError):
            forward(net, x)

    def test_input_left_unchanged(self):
        net = init_net(2, [5], TauGrid.default(), seed=3)
        x = np.random.default_rng(5).normal(size=(1500, 2))
        before = x.copy()
        forward(net, x)
        assert np.array_equal(x, before)


class TestBackprop:
    def test_matches_finite_difference(self):
        # d(sum of outputs)/d(params) against central differences
        net = init_net(2, [5, 4], TauGrid((0.3, 0.5, 0.7)), seed=9)
        x = np.random.default_rng(2).normal(size=(6, 2))
        z, acts, pres = forward_cached(net, x)
        dz = np.ones_like(z)
        grad = backprop_from_outputs(net, acts, pres, dz)

        theta = net.params.copy()
        eps = 1e-6
        fd = np.empty_like(theta)
        for k in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += eps
            tm[k] -= eps
            fp = forward(dataclasses.replace(net, params=tp), x).sum()
            fm = forward(dataclasses.replace(net, params=tm), x).sum()
            fd[k] = (fp - fm) / (2 * eps)
        assert np.allclose(grad, fd, atol=1e-5)

    def test_apply_step_moves_parameters(self):
        net = init_net(1, [3], TauGrid((0.5,)), seed=4)
        x = np.array([[0.7]])
        z, acts, pres = forward_cached(net, x)
        grads = backprop_from_outputs(net, acts, pres, np.ones_like(z))
        before = net.params.copy()
        apply_step(net, grads, 0.1)
        assert np.allclose(net.params, before - 0.1 * grads)


def old_flatten(arrays):
    """The concatenation of every parameter array, in checkpoint order."""
    trunk_w, trunk_b, head_w, head_b = arrays
    parts = []
    for w, b in zip(trunk_w, trunk_b):
        parts += [w.ravel(), b.ravel()]
    return np.concatenate(parts + [head_w.ravel(), head_b.ravel()])


def old_init_net(input_dim, trunk_widths, grid, seed):
    """init_net as it was before the flat parameter vector: separate arrays."""
    rng = np.random.default_rng(seed)
    trunk_w, trunk_b = [], []
    fan_in = input_dim
    for width in trunk_widths:
        trunk_w.append(rng.normal(0.0, np.sqrt(2.0 / fan_in),
                                  size=(width, fan_in)))
        trunk_b.append(np.zeros(width))
        fan_in = width
    head_w = rng.normal(0.0, np.sqrt(1.0 / fan_in), size=(len(grid), fan_in))
    return trunk_w, trunk_b, head_w, np.zeros(len(grid))


def old_backprop(net, acts, pres, dz):
    """backprop_from_outputs as it was: a fresh array per block."""
    gw, gb = [None] * len(net.trunk_w), [None] * len(net.trunk_b)
    ghw, ghb = dz.T @ acts[-1], dz.sum(axis=0)
    da = dz @ net.head_w
    for i in range(len(net.trunk_w) - 1, -1, -1):
        dpre = da * (pres[i] >= 0.0)
        gw[i] = dpre.T @ acts[i]
        gb[i] = dpre.sum(axis=0)
        da = dpre @ net.trunk_w[i]
    return gw, gb, ghw, ghb


ARCHITECTURES = [(1, [64, 64], TauGrid.default()),
                 (3, [6, 5], TauGrid.default()),
                 (2, [1], TauGrid((0.3, 0.5, 0.7)))]


def arrays_of(obj):
    return obj.trunk_w, obj.trunk_b, obj.head_w, obj.head_b


def all_arrays(arrays):
    trunk_w, trunk_b, head_w, head_b = arrays
    return trunk_w + trunk_b + [head_w, head_b]


def perturbed_net(input_dim, trunk, grid, seed):
    """A net with nonzero biases, so every block of the layout differs."""
    net = init_net(input_dim, trunk, grid, seed=seed)
    net.params += np.random.default_rng(seed).normal(size=net.params.size)
    return net


class TestFlatLayout:
    @pytest.mark.parametrize("input_dim,trunk,grid", ARCHITECTURES)
    def test_views_share_the_vector(self, input_dim, trunk, grid):
        net = perturbed_net(input_dim, trunk, grid, seed=1)
        x = np.random.default_rng(2).normal(size=(7, input_dim))
        z, acts, pres = forward_cached(net, x)
        grad = backprop_from_outputs(net, acts, pres, np.ones_like(z))
        for owner, flat in ((net, net.params),
                            (dataclasses.replace(net, params=grad), grad)):
            for arr in all_arrays(arrays_of(owner)):
                assert np.shares_memory(arr, flat)
            assert flat.flags.c_contiguous and flat.dtype == np.float64

    @pytest.mark.parametrize("input_dim,trunk,grid", ARCHITECTURES)
    def test_params_in_checkpoint_order(self, input_dim, trunk, grid):
        net = perturbed_net(input_dim, trunk, grid, seed=3)
        assert np.array_equal(net.params, old_flatten(arrays_of(net)))

    @pytest.mark.parametrize("input_dim,trunk,grid", ARCHITECTURES)
    def test_init_bit_identical(self, input_dim, trunk, grid):
        net = init_net(input_dim, trunk, grid, seed=17)
        old = old_init_net(input_dim, trunk, grid, seed=17)
        for a, b in zip(all_arrays(arrays_of(net)), all_arrays(old)):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert np.array_equal(net.params, old_flatten(old))

    @pytest.mark.parametrize("input_dim,trunk,grid", ARCHITECTURES)
    def test_backprop_bit_identical(self, input_dim, trunk, grid):
        net = perturbed_net(input_dim, trunk, grid, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(128, input_dim))
        z, acts, pres = forward_cached(net, x)
        dz = rng.normal(size=z.shape)
        grad = backprop_from_outputs(net, acts, pres, dz)
        old = old_backprop(net, acts, pres, dz)
        assert np.array_equal(grad, old_flatten(old))

    @pytest.mark.parametrize("input_dim,trunk,grid", ARCHITECTURES)
    def test_apply_step_is_one_axpy(self, input_dim, trunk, grid):
        net = perturbed_net(input_dim, trunk, grid, seed=7)
        x = np.random.default_rng(8).normal(size=(9, input_dim))
        z, acts, pres = forward_cached(net, x)
        grad = backprop_from_outputs(net, acts, pres, z)
        expected = net.params - 0.3 * grad
        params = net.params
        apply_step(net, grad, 0.3)
        assert net.params is params
        assert np.array_equal(net.params, expected)
        assert np.array_equal(old_flatten(arrays_of(net)), expected)

    def test_given_vector_written_through(self):
        net = init_net(2, [4, 3], TauGrid.default(), seed=10)
        v = np.zeros(net.params.size)
        other = dataclasses.replace(net, params=v)
        other.trunk_w[1][:] = 1.5
        other.head_b[:] = -2.0
        assert np.array_equal(v, old_flatten(arrays_of(other)))
        assert v[-1] == -2.0 and np.count_nonzero(v == 1.5) == 12

    def test_copy_owns_its_vector(self):
        net = perturbed_net(2, [4, 3], TauGrid.default(), seed=11)
        twin = net.copy()
        assert not np.shares_memory(twin.params, net.params)
        assert np.array_equal(twin.params, net.params)
        twin.head_w[:] = 0.0
        assert np.any(net.head_w != 0.0)

    def test_constructor_checks_length_and_architecture(self):
        with pytest.raises(ValueError, match="wrong length"):
            QuantileNet(1, [2], TauGrid((0.5,)), np.zeros(6))
        with pytest.raises(ValueError, match="at least one layer"):
            QuantileNet(1, [], TauGrid((0.5,)), np.zeros(7))
        net = QuantileNet(1, [2], TauGrid((0.5,)), np.arange(7.0))
        assert net.trunk_widths == [2]
        assert net.trunk_w[0].tolist() == [[0.0], [1.0]]
        assert net.trunk_b[0].tolist() == [2.0, 3.0]
        assert net.head_w.tolist() == [[4.0, 5.0]]
        assert net.head_b.tolist() == [6.0]


class TestIdentity:
    def test_equality_is_identity_and_nets_hash(self):
        net = perturbed_net(2, [4, 3], TauGrid.default(), seed=12)
        twin = net.copy()
        assert (net == net) is True
        assert (net == twin) is False
        assert len({net, twin}) == 2


class TestParamCount:
    def test_small_examples(self):
        assert init_net(1, [2], TauGrid((0.5,)), seed=0).params.size == 7
        assert init_net(3, [4], TauGrid((0.4, 0.6)), seed=0).params.size == 26

    def test_replaced_vector_of_wrong_length(self):
        net = init_net(2, [4], TauGrid.default(), seed=6)
        with pytest.raises(ValueError, match="wrong length"):
            dataclasses.replace(net, params=np.zeros(3))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = init_net(3, [6, 5], TauGrid.default(), seed=11)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.grid.levels == net.grid.levels
        assert loaded.trunk_widths == net.trunk_widths
        assert np.array_equal(loaded.params, net.params)
        x = np.random.default_rng(3).normal(size=(4, 3))
        assert np.array_equal(forward(loaded, x), forward(net, x))

    def test_load_draws_no_random_network(self, tmp_path, monkeypatch):
        import bqrnet.network as network
        net = init_net(2, [5, 3], TauGrid.default(), seed=4)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(net, path)

        def no_init(*args, **kwargs):
            raise AssertionError("load_checkpoint called init_net")

        monkeypatch.setattr(network, "init_net", no_init)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.params, net.params)

    @pytest.mark.parametrize("kind", ["no_meta", "corrupt_zip", "empty",
                                      "npy_array", "list_meta", "no_dim"])
    def test_not_a_checkpoint(self, tmp_path, kind):
        path = tmp_path / "other.npz"
        meta = {"list_meta": b"[1]",
                "no_dim": b'{"version": "bqrnet-ckpt-2"}'}.get(kind)
        if meta is not None:
            np.savez(path, meta=np.frombuffer(meta, dtype=np.uint8),
                     grid=np.array([0.5]), params=np.zeros(7))
        elif kind == "no_meta":
            np.savez(path, params=np.zeros(3))
        elif kind == "corrupt_zip":
            path.write_bytes(b"PK\x03\x04" + bytes(60))
        elif kind == "empty":
            path.write_bytes(b"")
        else:
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3))
        with pytest.raises(ValueError, match="other.npz"):
            load_checkpoint(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path,
                 meta=np.frombuffer(b'{"version": "other"}', dtype=np.uint8),
                 grid=np.array([0.5]), params=np.zeros(7))
        with pytest.raises(ValueError):
            load_checkpoint(path)
