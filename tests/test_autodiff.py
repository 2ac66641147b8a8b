import numpy as np
import numpy.testing as npt
import pytest

from mrfrecon.acquisition import AcquisitionOperator, make_trajectory, simulate_coil_maps
from mrfrecon.autodiff import Adam, Param, Tape, c2r_channels, r2c_channels


def finite_diff(make_loss, param, h=1e-6):
    """Central differences over every component of `param`."""
    grad = np.zeros_like(param.value)
    flat = param.value.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        lp = make_loss()
        flat[i] = old - h
        lm = make_loss()
        flat[i] = old
        gflat[i] = (lp - lm) / (2 * h)
    return grad


def check_param_grad(build, param, rtol=1e-6):
    tape = Tape()
    loss = build(tape)
    grads = tape.backward(loss)
    fd = finite_diff(lambda: float(build(Tape()).value), param)
    npt.assert_allclose(grads[param], fd, rtol=rtol, atol=1e-8)


def test_elementwise_ops_gradients():
    rng = np.random.default_rng(0)
    p = Param("p", rng.standard_normal((3, 4)) * 0.5)
    target = rng.standard_normal((3, 4))

    cases = {
        "exp": lambda t, x: t.exp(x),
        "tanh": lambda t, x: t.tanh(x),
        "sigmoid": lambda t, x: t.sigmoid(x),
        "leaky": lambda t, x: t.leaky_relu(x, slope=0.02),
        "scale": lambda t, x: t.scale(x, -1.3),
        "scaled_sigmoid": lambda t, x: t.scaled_sigmoid(x, 10.0, 400.0),
        "log": lambda t, x: t.log(t.add(t.mul(x, x), t.constant(np.ones((3, 4))))),
    }
    for name, op in cases.items():
        def build(tape, op=op):
            return tape.mse(op(tape, tape.leaf(p)), target)

        check_param_grad(build, p)


def test_mul_broadcast_gradients():
    rng = np.random.default_rng(1)
    a = Param("a", rng.standard_normal((3, 4, 4)))
    b = Param("b", rng.standard_normal((1, 4, 4)))
    target = rng.standard_normal((3, 4, 4))

    def build(tape):
        return tape.mse(tape.mul(tape.leaf(a), tape.leaf(b)), target)

    check_param_grad(build, a)
    check_param_grad(build, b)


def test_matmul_and_add_bias_gradients():
    rng = np.random.default_rng(2)
    x = Param("x", rng.standard_normal((5, 3)))
    w = Param("w", rng.standard_normal((3, 2)))
    b = Param("b", rng.standard_normal(2))
    target = rng.standard_normal((5, 2))

    def build(tape):
        return tape.mse(
            tape.add(tape.matmul(tape.leaf(x), tape.leaf(w)), tape.leaf(b)), target
        )

    for p in (x, w, b):
        check_param_grad(build, p)


def test_conv2d_gradients():
    rng = np.random.default_rng(3)
    x = Param("x", rng.standard_normal((2, 6, 6)))
    w = Param("w", rng.standard_normal((3, 2, 3, 3)) * 0.3)
    b = Param("b", rng.standard_normal(3))
    target = rng.standard_normal((3, 6, 6))

    def build(tape):
        return tape.mse(tape.conv2d(tape.leaf(x), tape.leaf(w), tape.leaf(b)), target)

    for p in (x, w, b):
        check_param_grad(build, p)


def test_shape_ops_gradients():
    rng = np.random.default_rng(4)
    p = Param("p", rng.standard_normal((4, 6)))
    target = rng.standard_normal(12)

    def build(tape):
        x = tape.leaf(p)
        x = tape.transpose2d(x)       # (6, 4)
        x = tape.slice_axis0(x, 1, 3)  # (2, 4)
        x = tape.reshape(x, (8,))
        y = tape.concat([x, tape.scale(x, 0.5)], axis=0)  # (16,) -> take part
        return tape.mse(tape.slice_axis0(y, 2, 14), target)

    check_param_grad(build, p)


def test_spatial_mean_gradient():
    rng = np.random.default_rng(5)
    p = Param("p", rng.standard_normal((3, 5, 5)))
    target = rng.standard_normal(3)

    def build(tape):
        return tape.mse(tape.spatial_mean(tape.leaf(p)), target)

    check_param_grad(build, p)


def test_fanout_accumulation():
    rng = np.random.default_rng(6)
    p = Param("p", rng.standard_normal((4,)))

    def build(tape):
        x = tape.leaf(p)
        # x participates twice: gradient must be the sum of both paths
        return tape.mse(tape.add(tape.mul(x, x), x), np.zeros(4))

    check_param_grad(build, p)


def test_weight_sharing_across_leaves():
    rng = np.random.default_rng(7)
    p = Param("p", rng.standard_normal((3, 3)))
    target = rng.standard_normal((3, 3))

    def build(tape):
        # leafed twice, as a shared encoder would be across iterations
        a = tape.leaf(p)
        b = tape.leaf(p)
        return tape.mse(tape.matmul(a, b), target)

    check_param_grad(build, p)


def test_apply_normal_value_and_vjp_are_the_normal_operator():
    rng = np.random.default_rng(8)
    n, s, frames = 8, 2, 5
    traj = make_trajectory("golden_radial", n, d=n, frames=frames)
    basis = np.linalg.qr(rng.standard_normal((frames, s)))[0].astype(complex)
    op = AcquisitionOperator(simulate_coil_maps(2, n), traj, basis)

    x = rng.standard_normal((2 * s, n, n))
    g = rng.standard_normal((2 * s, n, n))
    p = Param("px", x.copy())
    tape = Tape()
    nx = tape.apply_normal(tape.leaf(p), op)
    npt.assert_allclose(nx.value, c2r_channels(op.normal(r2c_channels(x))), rtol=1e-10)
    # seeding backward with g returns the vector-Jacobian product N g
    grads = tape.backward(nx, seed=g)
    expected = c2r_channels(op.normal(r2c_channels(g)))
    npt.assert_allclose(grads[p], expected, rtol=1e-10)


def test_vdot_gradients():
    rng = np.random.default_rng(9)
    a = Param("a", rng.standard_normal((3, 4, 4)))
    b = Param("b", rng.standard_normal((3, 4, 4)))

    def build(tape):
        x, y = tape.leaf(a), tape.leaf(b)
        # a nonlinear wrapper so the upstream gradient is not the constant 1
        return tape.mul(tape.vdot(x, y), tape.vdot(x, tape.tanh(y)))

    check_param_grad(build, a)
    check_param_grad(build, b)


def test_frozen_params_get_no_gradient():
    p = Param("frozen", np.ones(3), trainable=False)
    q = Param("live", np.ones(3))
    tape = Tape()
    out = tape.mul(tape.leaf(p), tape.leaf(q))
    grads = tape.backward(tape.mse(out, np.zeros(3)))
    assert q in grads and p not in grads


def test_backward_is_repeatable():
    rng = np.random.default_rng(10)
    p = Param("p", rng.standard_normal((4, 4)))
    tape = Tape()
    loss = tape.mse(tape.tanh(tape.leaf(p)), np.zeros((4, 4)))
    g1 = tape.backward(loss)
    g2 = tape.backward(loss)
    npt.assert_array_equal(g1[p], g2[p])


def test_weighted_sum_gradient():
    rng = np.random.default_rng(11)
    p = Param("p", rng.standard_normal(5))

    def build(tape):
        x = tape.leaf(p)
        t1 = tape.mse(x, np.zeros(5))
        t2 = tape.mse(tape.scale(x, 2.0), np.ones(5))
        return tape.weighted_sum([t1, t2], [0.7, 1.3])

    check_param_grad(build, p)


def test_adam_is_deterministic():
    def run():
        p = Param("p", np.array([1.0, -2.0, 3.0]))
        opt = Adam([p], lr=0.05)
        for _ in range(20):
            tape = Tape()
            loss = tape.mse(tape.leaf(p), np.array([0.5, 0.5, 0.5]))
            opt.step(tape.backward(loss))
        return p.value.copy()

    npt.assert_array_equal(run(), run())


def test_adam_skips_frozen():
    p = Param("p", np.ones(2), trainable=False)
    opt = Adam([p])
    assert opt.params == []
