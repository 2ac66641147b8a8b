import inspect
import itertools
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from mrfrecon import autodiff
from mrfrecon.acquisition import AcquisitionOperator, make_trajectory, simulate_coil_maps
from mrfrecon.autodiff import Adam, Param, Tape, c2r_channels, r2c_channels
from mrfrecon.errors import TrainingFailure

from helpers import conv2d_np_pad


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


def _conv2d_im2col(x, w, b, g):
    """The column-matrix conv2d the tape used before: value and (dx, dw, db) for upstream g."""
    cout, cin, kh, kw = w.shape
    h, wd = x.shape[1:]
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((cin, kh, kw, h, wd))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i : i + h, j : j + wd]
    cols2 = cols.reshape(cin * kh * kw, h * wd)
    wmat = w.reshape(cout, -1)
    out = (wmat @ cols2 + b[:, None]).reshape(cout, h, wd)
    g2 = g.reshape(cout, -1)
    dcols = (wmat.T @ g2).reshape(cin, kh, kw, h, wd)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + h, j : j + wd] += dcols[:, i, j]
    dx = dxp[:, ph : ph + h, pw : pw + wd]
    return out, dx, (g2 @ cols2.T).reshape(w.shape), g2.sum(axis=1)


def _conv2d_loops(x, w, b, g):
    """Direct same convolution, one output pixel and tap at a time, with its three VJPs."""
    cout, cin, kh, kw = w.shape
    h, wd = x.shape[1:]
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    out = np.zeros((cout, h, wd))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for y in range(h):
        for xx in range(wd):
            out[:, y, xx] = b
            for i in range(kh):
                for j in range(kw):
                    out[:, y, xx] += w[:, :, i, j] @ xp[:, y + i, xx + j]
                    dxp[:, y + i, xx + j] += w[:, :, i, j].T @ g[:, y, xx]
                    dw[:, :, i, j] += np.outer(g[:, y, xx], xp[:, y + i, xx + j])
    dx = dxp[:, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + wd]
    return out, dx, dw, g.sum(axis=(1, 2))


CONV_SHAPES = [
    (3, 4, 3, 3, 5, 7),
    (2, 5, 1, 1, 5, 7),
    (3, 2, 5, 5, 5, 7),
    (4, 3, 3, 3, 7, 5),
    (2, 3, 1, 3, 4, 6),
    # images smaller than the kernel: a tap run reaches the spare zero row
    (2, 3, 3, 3, 1, 1),
    (2, 3, 5, 5, 2, 1),
    (1, 2, 5, 3, 1, 2),
]


def _taped_conv2d(cin, cout, kh, kw, h, wd):
    """Random operands (x, w, b, g) and Tape.conv2d's value and (dx, dw, db) for upstream g."""
    rng = np.random.default_rng(12)
    x = Param("x", rng.standard_normal((cin, h, wd)))
    w = Param("w", rng.standard_normal((cout, cin, kh, kw)))
    b = Param("b", rng.standard_normal(cout))
    g = rng.standard_normal((cout, h, wd))
    tape = Tape()
    out = tape.conv2d(tape.leaf(x), tape.leaf(w), tape.leaf(b))
    grads = tape.backward(out, seed=g)
    return (x.value, w.value, b.value, g), (out.value, grads[x], grads[w], grads[b])


@pytest.mark.parametrize("cin, cout, kh, kw, h, wd", CONV_SHAPES)
def test_conv2d_matches_im2col_and_direct_loops(cin, cout, kh, kw, h, wd):
    operands, got = _taped_conv2d(cin, cout, kh, kw, h, wd)
    for reference in (_conv2d_im2col, _conv2d_loops):
        for a, ref in zip(got, reference(*operands)):
            npt.assert_allclose(a, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("cin, cout, kh, kw, h, wd", CONV_SHAPES)
def test_conv2d_equals_the_np_pad_formulation_bit_for_bit(cin, cout, kh, kw, h, wd):
    operands, got = _taped_conv2d(cin, cout, kh, kw, h, wd)
    for a, ref in zip(got, conv2d_np_pad(*operands)):
        npt.assert_array_equal(a, ref)


def test_conv2d_gradients_non_square():
    rng = np.random.default_rng(13)
    x = Param("x", rng.standard_normal((2, 5, 7)))
    w = Param("w", rng.standard_normal((3, 2, 3, 3)) * 0.3)
    b = Param("b", rng.standard_normal(3))
    target = rng.standard_normal((3, 5, 7))

    def build(tape):
        return tape.mse(tape.conv2d(tape.leaf(x), tape.leaf(w), tape.leaf(b)), target)

    for p in (x, w, b):
        check_param_grad(build, p)


@pytest.mark.parametrize(
    "x_shape, w_shape, match",
    [
        ((2, 6, 6), (3, 2, 2, 2), r"odd kernel.*\(3, 2, 2, 2\)"),
        ((2, 6, 6), (3, 2, 3, 4), r"odd kernel.*\(3, 2, 3, 4\)"),
        ((4, 6, 6), (3, 2, 3, 3), r"\(4, 6, 6\).*\(3, 2, 3, 3\)"),
    ],
    ids=["even_kernel", "even_kw", "channel_mismatch"],
)
def test_conv2d_rejects_what_it_cannot_honour(x_shape, w_shape, match):
    tape = Tape()
    x, w = tape.constant(np.zeros(x_shape)), tape.constant(np.zeros(w_shape))
    with pytest.raises(ValueError, match=match):
        tape.conv2d(x, w, tape.constant(np.zeros(w_shape[0])))


def test_conv2d_builds_no_column_matrix():
    # one forward and VJP at 32 -> 32 channels on 32x32 must stay below the
    # (Cin*9, H*W) float64 column matrix an im2col convolution would build
    rng = np.random.default_rng(14)
    x = Param("x", rng.standard_normal((32, 32, 32)))
    w = Param("w", rng.standard_normal((32, 32, 3, 3)))
    b = Param("b", rng.standard_normal(32))
    g = rng.standard_normal((32, 32, 32))
    tracemalloc.start()
    try:
        tape = Tape()
        tape.backward(tape.conv2d(tape.leaf(x), tape.leaf(w), tape.leaf(b)), seed=g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 9 * 32 * 32 * 8


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


def _adam_pair(reference_adam, seed=20):
    """Two sets of equal Params, one for Adam and one for the per-parameter reference."""
    rng = np.random.default_rng(seed)
    shapes = {"a": (3, 4), "b": (5,), "c": (2, 1, 3)}
    values = {k: rng.standard_normal(s) for k, s in shapes.items()}
    mine = [Param(k, v.copy()) for k, v in values.items()]
    ref = [Param(k, v.copy()) for k, v in values.items()]
    return mine, Adam(mine, lr=0.05), ref, reference_adam(ref, lr=0.05), rng


def test_adam_leaves_a_parameter_without_gradient_and_its_moments_alone(reference_adam):
    mine, opt, ref, ref_opt, rng = _adam_pair(reference_adam)
    # which parameters get a gradient at each step; step 3 gets none at all
    present = [(0, 1, 2), (0, 2), (), (1,), (0, 1, 2), (2,)]
    for step in present:
        gs = [rng.standard_normal(p.value.shape) for p in mine]
        kept = [p.value.copy() for p in mine]
        opt.step({mine[i]: gs[i] for i in step})
        ref_opt.step({ref[i]: gs[i] for i in step})
        for i, (p, q) in enumerate(zip(mine, ref)):
            npt.assert_array_equal(p.value, q.value)
            if i not in step:
                npt.assert_array_equal(p.value, kept[i])


def test_adam_honours_values_reassigned_between_steps(reference_adam):
    mine, opt, ref, ref_opt, rng = _adam_pair(reference_adam)
    for step in range(4):
        if step == 2:  # as a caller resetting weights between training runs does
            fresh = rng.standard_normal(mine[1].value.shape)
            mine[1].value, ref[1].value = fresh.copy(), fresh.copy()
        gs = [rng.standard_normal(p.value.shape) for p in mine]
        opt.step(dict(zip(mine, gs)))
        ref_opt.step(dict(zip(ref, gs)))
    for p, q in zip(mine, ref):
        npt.assert_array_equal(p.value, q.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adam_non_finite_gradient_names_the_parameter_and_changes_nothing(reference_adam, bad):
    mine, opt, ref, ref_opt, rng = _adam_pair(reference_adam)
    good = [rng.standard_normal(p.value.shape) for p in mine]
    opt.step(dict(zip(mine, good)))
    ref_opt.step(dict(zip(ref, good)))
    poisoned = [g.copy() for g in good]
    poisoned[1].ravel()[3] = bad
    poisoned[2].ravel()[0] = bad
    kept = [p.value.copy() for p in mine]
    with pytest.raises(TrainingFailure, match=r"non-finite gradient for b$"):
        opt.step(dict(zip(mine, poisoned)))
    for p, v in zip(mine, kept):
        npt.assert_array_equal(p.value, v)
    # the failed step left the moments and the step count as they were
    opt.step(dict(zip(mine, good)))
    ref_opt.step(dict(zip(ref, good)))
    for p, q in zip(mine, ref):
        npt.assert_array_equal(p.value, q.value)


def _pruning_graph(tape, leaf):
    """A graph through conv2d, mul, sub, add and matmul; leaf(name) gives its inputs."""
    h = tape.leaky_relu(tape.conv2d(leaf("x"), leaf("w"), leaf("b")))
    h = tape.sub(tape.mul(h, leaf("gain")), leaf("offset"))
    h = tape.matmul(leaf("mix"), tape.matmul(tape.reshape(h, (3, 25)), leaf("proj")))
    return tape.mse(tape.add(h, leaf("bias")), np.ones((2, 4)))


@pytest.mark.parametrize(
    "constants, trainable",
    [
        (("x", "gain", "offset", "mix"), ("w", "bias")),
        (("x", "offset", "mix"), ("gain", "proj")),
        (("gain", "offset"), ("x", "mix")),
    ],
)
def test_pruned_gradients_equal_the_gradients_of_a_fully_trainable_graph(constants, trainable):
    # every input that is neither a constant nor trainable is a frozen leaf
    rng = np.random.default_rng(21)
    shapes = {
        "x": (2, 5, 5), "w": (3, 2, 3, 3), "b": (3,), "gain": (3, 1, 1),
        "offset": (1, 5, 5), "proj": (25, 4), "mix": (2, 3), "bias": (4,),
    }
    values = {k: rng.standard_normal(s) for k, s in shapes.items()}

    def grads_of(constants, trainable):
        params = {k: Param(k, v, trainable=k in trainable) for k, v in values.items()}
        tape = Tape()

        def leaf(name):
            return tape.constant(values[name]) if name in constants else tape.leaf(params[name])

        grads = tape.backward(_pruning_graph(tape, leaf))
        return {p.name: g for p, g in grads.items()}

    pruned = grads_of(constants, trainable)
    full = grads_of((), set(values))
    assert set(pruned) == set(trainable)
    for name, g in pruned.items():
        npt.assert_array_equal(g, full[name])


def test_backward_of_a_graph_without_trainable_leaves_is_empty():
    tape = Tape()
    frozen = Param("frozen", np.ones(3), trainable=False)
    loss = tape.mse(tape.mul(tape.leaf(frozen), tape.constant(np.arange(3.0))), np.zeros(3))
    assert not loss.needs_grad
    assert tape.backward(loss) == {}


@pytest.mark.parametrize("x_trainable", [False, True])
def test_conv2d_on_a_constant_input_runs_no_input_gradient_convolution(monkeypatch, x_trainable):
    calls = []
    real = autodiff._conv_same

    def spy(xp, wv, h, wd):
        calls.append((xp.shape[0], h, wd))
        return real(xp, wv, h, wd)

    monkeypatch.setattr(autodiff, "_conv_same", spy)
    rng = np.random.default_rng(22)
    x = rng.standard_normal((2, 6, 6))
    w = Param("w", rng.standard_normal((3, 2, 3, 3)))
    b = Param("b", np.zeros(3))
    tape = Tape()
    xn = tape.leaf(Param("x", x)) if x_trainable else tape.constant(x)
    out = tape.conv2d(xn, tape.leaf(w), tape.leaf(b))
    grads = tape.backward(out, seed=np.ones((3, 6, 6)))
    assert calls[0] == (2, 6, 6)  # the forward convolution
    assert len(calls) == (2 if x_trainable else 1)
    assert set(grads) >= {w, b}


# ---------------------------------------------------------------------------
# what the tape keeps: records, flags, shapes and only the arrays a VJP reads


def test_inference_tape_keeps_no_records():
    rng = np.random.default_rng(23)
    w = Param("w", rng.standard_normal((3, 2, 3, 3)))
    b = Param("b", rng.standard_normal(3))
    x = rng.standard_normal((2, 5, 5))
    recorded, inferred = Tape(), Tape(grad=False)
    outs = [
        t.leaky_relu(t.conv2d(t.constant(x), t.leaf(w), t.leaf(b))) for t in (recorded, inferred)
    ]
    npt.assert_array_equal(outs[1].value, outs[0].value)
    assert outs[0].needs_grad and not outs[1].needs_grad
    assert inferred._records == [] and inferred.backward(outs[1]) == {}


def _closure_arrays(record):
    cells = [c.cell_contents for c in record.vjp.__closure__]
    return [c for c in cells if isinstance(c, np.ndarray)]


def test_leaky_relu_saves_a_boolean_mask():
    tape = Tape()
    p = Param("p", np.array([[-2.0, -0.0, 0.0, 3.0]]))
    out = tape.leaky_relu(tape.leaf(p), slope=0.1)
    npt.assert_array_equal(out.value, [[-0.2, -0.0, 0.0, 3.0]])
    saved = [c for c in _closure_arrays(tape._records[-1]) if c.size == 4]
    assert len(saved) == 1 and saved[0].dtype == bool
    npt.assert_array_equal(tape.backward(out, seed=np.full((1, 4), 2.0))[p], [[0.2, 2.0, 2.0, 2.0]])


@pytest.mark.parametrize("a_grad, b_grad", [(True, False), (False, True), (True, True)])
def test_matmul_keeps_each_operand_only_for_the_gradient_that_reads_it(a_grad, b_grad):
    rng = np.random.default_rng(24)
    a = Param("a", rng.standard_normal((4, 3)), trainable=a_grad)
    b = Param("b", rng.standard_normal((3, 5)), trainable=b_grad)
    tape = Tape()
    tape.matmul(tape.leaf(a), tape.leaf(b))
    kept = _closure_arrays(tape._records[-1])
    assert any(k is b.value for k in kept) == a_grad  # dx = g @ b^T
    assert any(k is a.value for k in kept) == b_grad  # dW = a^T @ g


@pytest.mark.parametrize("x_grad, w_grad", [(True, False), (False, True), (True, True)])
def test_conv2d_keeps_its_padded_input_only_for_dw_and_its_kernel_only_for_dx(x_grad, w_grad):
    rng = np.random.default_rng(25)
    x = Param("x", rng.standard_normal((2, 5, 5)), trainable=x_grad)
    w = Param("w", rng.standard_normal((3, 2, 3, 3)), trainable=w_grad)
    tape = Tape()
    tape.conv2d(tape.leaf(x), tape.leaf(w), tape.constant(np.zeros(3)))
    kept = _closure_arrays(tape._records[-1])
    assert any(k.shape == (2, 8 * 7) for k in kept) == w_grad  # flat padded input, spare row
    assert any(np.shares_memory(k, w.value) for k in kept) == x_grad
    assert not any(np.shares_memory(k, x.value) for k in kept)


@pytest.mark.parametrize("consumer", ["add", "leaky_relu", "frozen_matmul"])
def test_a_value_no_vjp_reads_is_freed_when_its_node_is_dropped(consumer):
    rng = np.random.default_rng(26)
    w = Param("w", rng.standard_normal((4, 4)))
    frozen = Param("frozen", rng.standard_normal((4, 4)), trainable=False)
    tape = Tape()
    # a needs-grad intermediate whose value only the next op reads, in the forward pass
    h = tape.matmul(tape.constant(rng.standard_normal((3, 4))), tape.leaf(w))
    ref = weakref.ref(h.value)
    if consumer == "add":
        out = tape.add(h, tape.constant(np.ones(4)))
    elif consumer == "leaky_relu":
        out = tape.leaky_relu(h)
    else:
        out = tape.matmul(h, tape.leaf(frozen))
    del h
    assert ref() is None
    grads = tape.backward(tape.mse(out, np.zeros(out.value.shape)))
    assert set(grads) == {w}


def test_a_value_a_vjp_reads_lives_on_with_the_tape():
    p = Param("p", np.linspace(-1.0, 1.0, 6))
    tape = Tape()
    h = tape.tanh(tape.leaf(p))  # its VJP reads its own output
    ref = weakref.ref(h.value)
    loss = tape.mse(h, np.zeros(6))
    del h
    assert ref() is not None
    grads = tape.backward(loss)
    del tape, loss, grads
    assert ref() is None


class _Identity:
    """A stand-in acquisition whose normal operator is the identity."""

    def normal(self, z):
        return z.copy()


# op -> (operand shapes, call); every public Tape op that records a node has a case
OP_CASES = {
    "constant": ([], lambda t: t.constant(np.ones(3))),
    "leaf": ([], lambda t: t.leaf(Param("p", np.ones(3)))),
    "add": ([(3, 4), (1, 4)], lambda t, a, b: t.add(a, b)),
    "sub": ([(3, 4), (3, 1)], lambda t, a, b: t.sub(a, b)),
    "mul": ([(2, 3, 3), (2, 1, 1)], lambda t, a, b: t.mul(a, b)),
    "scale": ([(3,)], lambda t, a: t.scale(a, 2.0)),
    "exp": ([(3,)], lambda t, a: t.exp(a)),
    "log": ([(3,)], lambda t, a: t.log(t.exp(a))),
    "tanh": ([(3,)], lambda t, a: t.tanh(a)),
    "sigmoid": ([(3,)], lambda t, a: t.sigmoid(a)),
    "scaled_sigmoid": ([(3,)], lambda t, a: t.scaled_sigmoid(a, 1.0, 5.0)),
    "leaky_relu": ([(3,)], lambda t, a: t.leaky_relu(a)),
    "matmul": ([(2, 3), (3, 4)], lambda t, a, b: t.matmul(a, b)),
    "conv2d": ([(2, 5, 5), (3, 2, 3, 3), (3,)], lambda t, x, w, b: t.conv2d(x, w, b)),
    "reshape": ([(2, 3)], lambda t, a: t.reshape(a, (6,))),
    "transpose2d": ([(2, 3)], lambda t, a: t.transpose2d(a)),
    "concat": ([(2, 3), (1, 3)], lambda t, a, b: t.concat([a, b])),
    "slice_axis0": ([(4, 2)], lambda t, a: t.slice_axis0(a, 1, 3)),
    "spatial_mean": ([(2, 3, 3)], lambda t, a: t.spatial_mean(a)),
    "mse": ([(3,)], lambda t, a: t.mse(a, np.ones(3))),
    "weighted_sum": ([(), ()], lambda t, a, b: t.weighted_sum([a, b], [0.5, 2.0])),
    "vdot": ([(2, 3), (2, 3)], lambda t, a, b: t.vdot(a, b)),
    "apply_normal": ([(2, 3, 3)], lambda t, a: t.apply_normal(a, _Identity())),
}


def _held_objects(obj):
    """obj and, recursively, the items of the containers it is."""
    yield obj
    if isinstance(obj, (tuple, list, set, frozenset)):
        for item in obj:
            yield from _held_objects(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _held_objects(item)


def test_every_public_tape_op_has_a_closure_guard_case():
    ops = {
        name
        for name, fn in vars(Tape).items()
        if inspect.isfunction(fn) and not name.startswith("_") and name != "backward"
    }
    assert ops == set(OP_CASES)


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_no_vjp_closure_holds_a_node_or_a_tape(name):
    # a Node in a closure would pin its forward value for as long as the tape lives
    shapes, call = OP_CASES[name]
    rng = np.random.default_rng(27)
    for grads in itertools.product((True, False), repeat=len(shapes)):
        tape = Tape()
        operands = [
            tape.leaf(Param(f"p{i}", rng.uniform(0.5, 1.5, shape))) if grad
            else tape.constant(rng.uniform(0.5, 1.5, shape))
            for i, (shape, grad) in enumerate(zip(shapes, grads))
        ]
        out = call(tape, *operands)
        assert isinstance(out.value, np.ndarray)
        assert out.needs_grad == (any(grads) or name == "leaf")
        for record in tape._records:
            assert all(p is None or isinstance(p, autodiff._Record) for p in record.parents)
            cells = [c.cell_contents for c in (record.vjp.__closure__ or ())] if record.vjp else []
            held = [o for c in cells for o in _held_objects(c)]
            assert not any(isinstance(o, (autodiff.Node, Tape)) for o in held), (name, grads)
