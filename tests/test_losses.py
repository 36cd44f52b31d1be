"""Loss-layer correctness: probability map against an asymmetric-Laplace CDF
quadrature oracle, analytic gradients against finite differences, the crossing
hinge, Lipschitz and curvature constants, and full-network backward."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate

from bqrnet.losses import (BCE, BQR, LossSpec, _bqr_terms, _hinge,
                           _loss_and_grad, backward, bqr_loss,
                           curvature_bounds, lipschitz_const, prob_pos,
                           total_grad, total_loss)
from bqrnet.network import TauGrid, forward, init_net


def grad_z(y, z, tau):
    """d(loss)/dz of the per-level kernel term."""
    _, grad = _bqr_terms(np.asarray(y, dtype=float),
                         np.asarray(z, dtype=float), np.asarray(tau))
    return grad


def ald_density(u, tau):
    """Asymmetric Laplace density with location 0 and scale 1."""
    return tau * (1 - tau) * np.exp(-u * (tau - (u < 0)))


def prob_pos_quadrature(z, tau):
    """Oracle: P(latent error > -z) by numeric integration of the density."""
    val, _ = integrate.quad(ald_density, -z, np.inf, args=(tau,),
                            epsabs=1e-10, limit=200)
    return val


class TestProbPos:
    def test_at_zero(self):
        assert prob_pos(0.0, 0.5) == pytest.approx(0.5)
        assert prob_pos(0.0, 0.3) == pytest.approx(0.7)

    def test_closed_form_points(self):
        assert prob_pos(-1.0, 0.5) == pytest.approx(0.5 * np.exp(-0.5), abs=1e-9)
        assert prob_pos(3.0, 0.9) == pytest.approx(1 - 0.9 * np.exp(-0.3), abs=1e-9)

    def test_against_cdf_quadrature(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.uniform(-6, 6)
            tau = rng.uniform(0.05, 0.95)
            assert prob_pos(z, tau) == pytest.approx(
                prob_pos_quadrature(z, tau), abs=1e-6)

    def test_monotone_in_z(self):
        z = np.linspace(-10, 10, 2001)
        for tau in (0.1, 0.5, 0.9):
            p = prob_pos(z, tau)
            assert np.all(np.diff(p) > 0)
            assert np.all((p > 0) & (p < 1))

    def test_tau_domain(self):
        with pytest.raises(ValueError, match=r"strictly in \(0, 1\)"):
            prob_pos(0.0, 0.0)
        with pytest.raises(ValueError, match=r"strictly in \(0, 1\)"):
            prob_pos(0.0, 1.0)

    def test_nan_tau_rejected(self):
        # NaN compares false, so a check written as tau <= 0 or tau >= 1
        # let it through and the probability came back NaN
        with pytest.raises(ValueError, match=r"strictly in \(0, 1\)"):
            prob_pos(0.0, float("nan"))
        with pytest.raises(ValueError, match=r"strictly in \(0, 1\)"):
            bqr_loss(1, 0.5, float("nan"))


class TestBqrLoss:
    def test_known_values(self):
        assert bqr_loss(1, 0.0, 0.5) == pytest.approx(np.log(2), abs=1e-12)
        assert bqr_loss(0, 2.0, 0.5) == pytest.approx(1 + np.log(2), abs=1e-12)

    def test_saturates_when_confidently_correct(self):
        assert bqr_loss(1, 10.0, 0.5) == pytest.approx(0.0, abs=1e-2)

    def test_finite_for_extreme_latents(self):
        assert np.isfinite(bqr_loss(1, -1000.0, 0.5))
        assert np.isfinite(bqr_loss(0, 1000.0, 0.9))

    def test_vectorized(self):
        y = np.array([1.0, 0.0])
        z = np.array([0.0, 2.0])
        out = bqr_loss(y, z, 0.5)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(np.log(2))


    def test_exact_where_a_probability_clamp_would_saturate(self):
        # y=0, z=30, tau=0.1: 1 - p = 0.1 e^{-27} ~ 1.9e-13, below a 1e-12
        # clamp, which read 27.63; the loss keeps its slope 1 - tau = 0.9
        assert bqr_loss(0, 30.0, 0.1) == pytest.approx(
            -(np.log(0.1) - 0.9 * 30.0), rel=1e-15)
        assert grad_z(0, 30.0, 0.1) == pytest.approx(0.9, abs=1e-15)
        eps = 1e-3
        fd = (bqr_loss(0, 30.0 + eps, 0.1)
              - bqr_loss(0, 30.0 - eps, 0.1)) / (2 * eps)
        assert fd == pytest.approx(0.9, abs=1e-9)


class TestBqrGrad:
    def test_constant_branch(self):
        # y=0, z>0 branch is exactly 1 - tau; y=1, z<=0 branch is -tau
        assert grad_z(0, 1.0, 0.3) == pytest.approx(0.7, abs=1e-12)
        assert grad_z(1, -1.0, 0.3) == pytest.approx(-0.3, abs=1e-12)

    def test_matches_finite_difference(self):
        eps = 1e-6
        rng = np.random.default_rng(1)
        for _ in range(200):
            y = float(rng.integers(0, 2))
            z = rng.uniform(-5, 5)
            tau = rng.uniform(0.05, 0.95)
            if abs(z) < 10 * eps:
                continue  # derivative kink at z = 0
            fd = (bqr_loss(y, z + eps, tau) - bqr_loss(y, z - eps, tau)) / (2 * eps)
            g = grad_z(y, z, tau)
            assert g == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_specific_point_high_accuracy(self):
        eps = 1e-6
        fd = (bqr_loss(1, 0.5 + eps, 0.5)
              - bqr_loss(1, 0.5 - eps, 0.5)) / (2 * eps)
        assert grad_z(1, 0.5, 0.5) == pytest.approx(fd, abs=1e-8)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-60.0, 60.0).filter(lambda z: abs(z) > 1e-3),
           st.floats(0.01, 0.99), st.sampled_from([0.0, 1.0]))
    def test_kernel_gradient_matches_central_differences(self, z, tau, y):
        # away from the kink at z = 0, over the range the acceptance suite
        # checks the Lipschitz bound on
        spec = LossSpec(TauGrid((tau,)), lam=0.0)

        def kernel(v):
            loss, grad = _loss_and_grad(np.array([y]), np.array([[v]]), spec)
            return loss[0], grad[0, 0]

        eps = 1e-6
        fd = (kernel(z + eps)[0] - kernel(z - eps)[0]) / (2 * eps)
        assert kernel(z)[1] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_bounded_by_max_tau(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, 5000).astype(float)
        z = rng.uniform(-50, 50, 5000)
        tau = rng.uniform(0.01, 0.99, 5000)
        g = grad_z(y, z, tau)
        assert np.all(np.abs(g) <= np.maximum(tau, 1 - tau) + 1e-12)


class TestCrossingPenalty:
    """The crossing hinge ``_hinge`` and the +-lam subgradient that
    ``_loss_and_grad`` adds for it in place."""

    @staticmethod
    def with_hinge_step(grad, active, lam):
        """``grad`` plus the hinge subgradient, by the kernel's own ops."""
        out = grad.copy()
        step = lam * active
        out[:, :-1] += step
        out[:, 1:] -= step
        return out

    def test_monotone_is_zero(self):
        pen, active = _hinge(np.array([-1.0, 0.0, 2.0]))
        assert pen == 0.0
        assert not active.any()
        z = np.array([[-1.0, 0.0, 2.0]])
        grid = TauGrid((0.2, 0.5, 0.8))
        loss, grad = _loss_and_grad(np.ones(1), z, LossSpec(grid, lam=3.0))
        loss0, grad0 = _loss_and_grad(np.ones(1), z, LossSpec(grid, lam=0.0))
        assert np.array_equal(loss, loss0)
        assert np.array_equal(grad, grad0)

    def test_single_violation(self):
        pen, active = _hinge(np.array([1.0, 0.5]))
        assert pen == pytest.approx(0.5)
        assert np.array_equal(active, [True])
        z = np.array([[1.0, 0.5]])
        grid = TauGrid((0.4, 0.6))
        _, grad = _loss_and_grad(np.zeros(1), z, LossSpec(grid, lam=2.0))
        _, grad0 = _loss_and_grad(np.zeros(1), z, LossSpec(grid, lam=0.0))
        assert np.array_equal(grad, self.with_hinge_step(grad0, active[None], 2.0))
        assert grad - grad0 == pytest.approx(np.array([[2.0, -2.0]]))

    def test_two_pairs(self):
        pen, active = _hinge(np.array([3.0, 1.0, 2.0]))
        assert pen == pytest.approx(2.0)
        assert np.array_equal(active, [True, False])

    def test_batched(self):
        pen, active = _hinge(np.array([[1.0, 0.5], [0.0, 1.0]]))
        assert pen.shape == (2,)
        assert pen[0] == pytest.approx(0.5)
        assert pen[1] == 0.0
        assert np.array_equal(active, [[True], [False]])

    def test_kernel_adds_lam_times_hinge(self):
        rng = np.random.default_rng(12)
        y = rng.integers(0, 2, 300).astype(float)
        z = rng.normal(size=(300, 9))
        lam = 1.5
        loss, grad = _loss_and_grad(y, z, LossSpec(TauGrid.default(), lam=lam))
        loss0, grad0 = _loss_and_grad(y, z, LossSpec(TauGrid.default(),
                                                     lam=0.0))
        pen, active = _hinge(z)
        assert active.any() and not active.all()
        expected = loss0.copy()
        expected += lam * pen
        assert np.array_equal(loss, expected)
        assert np.array_equal(grad, self.with_hinge_step(grad0, active, lam))


class TestTotalLoss:
    def test_reduces_to_single_level(self):
        spec = LossSpec(grid=TauGrid((0.5,)), lam=0.0)
        assert total_loss([1], [[0.0]], spec) == pytest.approx([np.log(2)])

    def test_monotone_pred_lambda_invariant(self):
        pred = np.array([[-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]])
        grid = TauGrid.default()
        a = total_loss([1], pred, LossSpec(grid=grid, lam=0.0))
        b = total_loss([1], pred, LossSpec(grid=grid, lam=5.0))
        assert a == pytest.approx(b)

    def test_crossed_pred_with_penalty(self):
        # grid (0.4, 0.6), y=0, crossed pair (1.0, 0.5): per-level terms plus
        # lam * 0.5, cross-checked against the branch formulas directly
        spec = LossSpec(grid=TauGrid((0.4, 0.6)), lam=1.0)
        expected = (-np.log(0.4 * np.exp(-0.6 * 1.0))
                    - np.log(0.6 * np.exp(-0.4 * 0.5)) + 0.5)
        assert total_loss([0], [[1.0, 0.5]], spec) == pytest.approx(
            [expected], abs=1e-12)

    def test_bce_matches_manual(self):
        spec = LossSpec(grid=TauGrid((0.5,)), kind=BCE)
        z = 0.7
        p = 1 / (1 + np.exp(-z))
        assert total_loss([1, 0], [[z], [z]], spec) == pytest.approx(
            [-np.log(p), -np.log(1 - p)])

    def test_bce_requires_single_head(self):
        with pytest.raises(ValueError, match="single level 0.5"):
            LossSpec(grid=TauGrid((0.4, 0.6)), kind=BCE)

    def test_bce_requires_median_level(self):
        with pytest.raises(ValueError, match="0.5"):
            LossSpec(grid=TauGrid((0.3,)), kind=BCE)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            LossSpec(grid=TauGrid((0.5,)), lam=-1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="finite"):
            LossSpec(grid=TauGrid((0.5,)), lam=lam)

    def test_total_grad_matches_fd(self):
        rng = np.random.default_rng(3)
        grid = TauGrid.default()
        for kind in (BQR, BCE):
            spec = LossSpec(grid=grid if kind == BQR else TauGrid((0.5,)),
                            lam=1.0, kind=kind)
            m = len(spec.grid)
            y = rng.integers(0, 2, 20).astype(float)
            pred = rng.uniform(-3, 3, (20, m))
            g = total_grad(y, pred, spec)
            eps = 1e-6
            for j in range(m):
                pp, pm = pred.copy(), pred.copy()
                pp[:, j] += eps
                pm[:, j] -= eps
                fd = (total_loss(y, pp, spec) - total_loss(y, pm, spec)) / (2 * eps)
                assert g[:, j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def reference_loss_and_grad(y, pred, spec, dtype=np.longdouble):
    """The total loss and gradient as computed before the fused kernel:
    probability map, clamped log-likelihood, branch-wise gradient and a
    separate crossing penalty, evaluated in ``dtype``."""
    eps = 1e-12
    y = np.asarray(y, dtype=dtype)
    z = np.asarray(pred, dtype=dtype)
    if spec.kind == BCE:
        s = 1 / (1 + np.exp(-z[:, 0]))
        p = np.clip(s, eps, 1 - eps)
        loss = -(y * np.log(p) + (1 - y) * np.log1p(-p))
        grad = np.zeros_like(z)
        grad[:, 0] = s - y
        return loss, grad
    tau = np.asarray(spec.grid.levels, dtype=dtype)
    y = y[:, None]
    pos = z > 0
    p = np.where(pos,
                 1 - tau * np.exp(np.minimum(tau - 1, 0) * np.abs(z)),
                 (1 - tau) * np.exp(tau * np.minimum(z, 0)))
    p = np.clip(p, eps, 1 - eps)
    loss = (-(y * np.log(p) + (1 - y) * np.log1p(-p))).sum(axis=-1)
    e_pos = np.exp((tau - 1) * np.where(pos, z, 0))
    e_neg = np.exp(tau * np.where(pos, 0, z))
    g_pos = y * (-tau * (1 - tau) * e_pos / (1 - tau * e_pos)) \
        + (1 - y) * (1 - tau)
    g_neg = y * (-tau) \
        + (1 - y) * (tau * (1 - tau) * e_neg / (1 - (1 - tau) * e_neg))
    grad = np.where(pos, g_pos, g_neg)
    if spec.lam > 0 and z.shape[-1] >= 2:
        diff = z[:, :-1] - z[:, 1:]
        active = diff > 0
        loss = loss + spec.lam * np.where(active, diff, 0).sum(axis=-1)
        sub = np.zeros_like(z)
        sub[:, :-1] += active
        sub[:, 1:] -= active
        grad = grad + spec.lam * sub
    return loss, grad


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the reference needs an extended-precision "
                           "long double")
class TestFusedKernel:
    @pytest.mark.parametrize("grid, lam, kind", [
        (TauGrid.default(), 0.0, BQR),
        (TauGrid.default(), 1.0, BQR),
        (TauGrid((0.3,)), 0.0, BQR),
        (TauGrid((0.3,)), 1.0, BQR),
        (TauGrid((0.5,)), 0.0, BCE),
        (TauGrid((0.5,)), 1.0, BCE),
    ])
    def test_matches_reference_formulas(self, grid, lam, kind):
        spec = LossSpec(grid=grid, lam=lam, kind=kind)
        rng = np.random.default_rng(len(grid) + int(lam) + len(kind))
        n = 4000
        y = rng.integers(0, 2, n).astype(float)
        z = rng.uniform(-12, 12, (n, len(grid)))
        loss, grad = _loss_and_grad(y, z, spec)
        # the reference loss is taken in extended precision: in float64 its
        # far-side log(1 - p) loses up to 3e-11 to cancellation in 1 - p
        # near |z| = 12; its gradient has no such term and runs in float64
        ref_loss, _ = reference_loss_and_grad(y, z, spec)
        _, ref_grad = reference_loss_and_grad(y, z, spec, dtype=float)
        assert loss.shape == (n,) and grad.shape == z.shape
        assert np.abs(loss - ref_loss).max() <= 1e-12
        assert np.abs(grad - ref_grad).max() <= 1e-15

    def test_public_wrappers_are_the_kernel(self):
        spec = LossSpec(grid=TauGrid.default(), lam=1.0)
        rng = np.random.default_rng(8)
        y = rng.integers(0, 2, 50).astype(float)
        z = rng.uniform(-5, 5, (50, 9))
        loss, grad = _loss_and_grad(y, z, spec)
        assert np.array_equal(total_loss(y, z, spec), loss)
        assert np.array_equal(total_grad(y, z, spec), grad)

    def test_grid_length_mismatch(self):
        spec = LossSpec(grid=TauGrid.default())
        with pytest.raises(ValueError):
            _loss_and_grad(np.zeros(2), np.zeros((2, 3)), spec)

    @pytest.mark.parametrize("fn", [total_loss, total_grad])
    @pytest.mark.parametrize("y, pred", [
        (1.0, np.zeros(9)), (np.ones(1), np.zeros(9)),
        (np.ones(3), np.zeros((2, 9))), (np.ones((2, 1)), np.zeros((2, 9)))])
    def test_only_aligned_batches(self, fn, y, pred):
        # one row is a (1, m) batch: a vector of m predictions is rejected,
        # and so are labels that are not one per row
        with pytest.raises(ValueError, match=r"\(n, 9\) predictions"):
            fn(y, pred, LossSpec(grid=TauGrid.default()))


class TestLipschitz:
    def test_single_levels(self):
        assert lipschitz_const(LossSpec(grid=TauGrid((0.3,)), lam=0.0)) == pytest.approx(0.7)
        assert lipschitz_const(LossSpec(grid=TauGrid((0.5,)), lam=0.0)) == pytest.approx(0.5)

    def test_multi_level_sum(self):
        spec = LossSpec(grid=TauGrid((0.1, 0.5, 0.9)), lam=0.0)
        assert lipschitz_const(spec) == pytest.approx(2.3)

    def test_penalty_contribution(self):
        spec = LossSpec(grid=TauGrid((0.1, 0.5, 0.9)), lam=1.0)
        assert lipschitz_const(spec) == pytest.approx(2.3 + 4.0)

    def test_default_grid_value(self):
        spec = LossSpec(grid=TauGrid.default(), lam=1.0)
        # sum of max(tau, 1-tau) over {0.1..0.9} = 6.5; penalty adds 16
        assert lipschitz_const(spec) == pytest.approx(22.5)

    def test_bce(self):
        assert lipschitz_const(LossSpec(grid=TauGrid((0.5,)), kind=BCE)) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=1, max_size=9,
                    unique=True),
           st.one_of(st.just(0.0), st.floats(0.0, 100.0)), st.data())
    def test_bounds_every_row_gradient(self, levels, lam, data):
        # the l1 norm of d(total loss)/dz, per-level terms and hinge
        # together; the bound is attained at m = 1, hence the relative slack
        spec = LossSpec(grid=TauGrid(tuple(sorted(levels))), lam=lam)
        rows = data.draw(st.integers(1, 16))
        z = data.draw(hnp.arrays(float, (rows, len(levels)),
                                 elements=st.floats(-60.0, 60.0)))
        y = data.draw(hnp.arrays(float, rows, elements=st.sampled_from([0.0, 1.0])))
        _, grad = _loss_and_grad(y, z, spec)
        assert np.all(np.abs(grad).sum(axis=1)
                      <= lipschitz_const(spec) * (1.0 + 1e-12))


class TestCurvatureBounds:
    def test_c2_at_half(self):
        cb = curvature_bounds(0.5, 1.0)
        assert cb.c2 == pytest.approx(0.125)

    def test_c1_formula_at_half(self):
        t, m = 0.5, 1.0
        cb = curvature_bounds(t, m)
        a1 = t * (1 - t) ** 2 * np.exp(-(1 - t) * m) / (1 - t * np.exp(-(1 - t) * m))
        a2 = t ** 2 * (1 - t) * np.exp(-t * m) / (1 - (1 - t) * np.exp(-t * m))
        a3 = t * (1 - t) ** 3 * np.exp(-m) / (1 - t * np.exp(-(1 - t) * m)) ** 2
        a4 = t ** 3 * (1 - t) * np.exp(-m) / (1 - (1 - t) * np.exp(-m)) ** 2
        assert cb.c1 == pytest.approx(0.5 * min(a1, a2, a3, a4), rel=1e-12)

    def test_c1_below_c2(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            cb = curvature_bounds(rng.uniform(0.05, 0.95), rng.uniform(0.1, 10))
            assert 0 < cb.c1 <= cb.c2

    def test_domain(self):
        with pytest.raises(ValueError, match="latent bound must be positive"):
            curvature_bounds(0.5, 0.0)
        with pytest.raises(ValueError, match=r"strictly in \(0, 1\)"):
            curvature_bounds(1.0, 1.0)

    def test_nan_arguments_rejected(self):
        with pytest.raises(ValueError, match="latent bound must be positive"):
            curvature_bounds(0.5, float("nan"))
        with pytest.raises(ValueError, match=r"strictly in \(0, 1\)"):
            curvature_bounds(float("nan"), 1.0)


class TestBackward:
    def test_matches_finite_difference(self):
        net = init_net(2, [6, 5], TauGrid.default(), seed=13)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 2))
        y = rng.integers(0, 2, 8).astype(float)
        spec = LossSpec(grid=TauGrid.default(), lam=1.0)
        grads, loss0 = backward(net, x, y, spec)
        theta = net.params.copy()
        eps = 1e-6
        idx = rng.choice(theta.size, 60, replace=False)
        for k in idx:
            tp, tm = theta.copy(), theta.copy()
            tp[k] += eps
            tm[k] -= eps
            lp = float(np.mean(total_loss(
                y, forward(dataclasses.replace(net, params=tp), x), spec)))
            lm = float(np.mean(total_loss(
                y, forward(dataclasses.replace(net, params=tm), x), spec)))
            fd = (lp - lm) / (2 * eps)
            assert grads[k] == pytest.approx(fd, rel=1e-4, abs=1e-8)
        assert np.isfinite(loss0)

    def test_duplicated_sample_mean_invariance(self):
        net = init_net(1, [4], TauGrid.default(), seed=17)
        x = np.array([[0.4]])
        y = np.array([1.0])
        spec = LossSpec(grid=TauGrid.default(), lam=1.0)
        g1, l1 = backward(net, x, y, spec)
        g2, l2 = backward(net, np.repeat(x, 3, axis=0), np.repeat(y, 3), spec)
        assert l1 == pytest.approx(l2)
        assert np.allclose(g1, g2)

    def test_ordered_outputs_no_penalty_gradient(self):
        # identical nets, lam 0 vs lam 5: same gradient when outputs are
        # strictly ordered (penalty inactive)
        net = init_net(1, [4], TauGrid.default(), seed=19)
        net.head_b[:] = np.linspace(-1, 1, 9)  # force strict ordering
        net.head_w[:] = 0.0
        x = np.array([[0.2], [-0.7]])
        y = np.array([1.0, 0.0])
        g0, _ = backward(net, x, y, LossSpec(grid=TauGrid.default(), lam=0.0))
        g5, _ = backward(net, x, y, LossSpec(grid=TauGrid.default(), lam=5.0))
        assert np.allclose(g0, g5)

    def test_empty_batch_rejected(self):
        net = init_net(1, [4], TauGrid.default(), seed=23)
        with pytest.raises(ValueError):
            backward(net, np.zeros((0, 1)), np.zeros(0),
                     LossSpec(grid=TauGrid.default()))

    @pytest.mark.parametrize("x, y", [
        (np.array([0.4]), np.array([1.0])), (np.array([[0.4]]), 1.0),
        (np.zeros((3, 1)), np.zeros(2))])
    def test_only_aligned_batches(self, x, y):
        # one sample is a (1, d) batch with one label
        net = init_net(1, [4], TauGrid.default(), seed=23)
        with pytest.raises(ValueError, match="expected"):
            backward(net, x, y, LossSpec(grid=TauGrid.default()))
