import inspect
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from mrfrecon import neuralprox
from mrfrecon.acquisition import AcquisitionOperator, make_trajectory, simulate_coil_maps
from mrfrecon.autodiff import Adam, Tape, c2r_channels, r2c_channels
from mrfrecon.dictionary import build_dictionary, compute_subspace
from mrfrecon.epg import SequenceParams, sinusoidal_flip_schedule
from mrfrecon.errors import TrainingFailure
from mrfrecon.maps import QMaps
from mrfrecon.neuralprox import (
    PD_BOUNDS,
    T1_BOUNDS_MS,
    T2_BOUNDS_MS,
    BlochDecoderNet,
    EncoderNet,
    TrainConfig,
    UnrolledModel,
    load_model,
    pretrain_bloch_decoder,
    pretrain_encoder,
    prox_nodes,
    save_model,
    train_unrolled,
    unrolled_loss_nodes,
)
from mrfrecon.recon import PgdConfig, pgd_reconstruct


def tiny_operator(seed=0, n=8, s=2, frames=6, coils=1):
    rng = np.random.default_rng(seed)
    traj = make_trajectory("golden_radial", n, d=n, frames=frames)
    basis = np.linalg.qr(rng.standard_normal((frames, s)))[0].astype(complex)
    return AcquisitionOperator(simulate_coil_maps(coils, n), traj, basis)


def tiny_model(seed=0, s=2, iterations=2, width=4, hidden=8):
    model = UnrolledModel.create(
        s=s, iterations=iterations, width=width, seed=seed, hidden=hidden
    )
    model.decoder.output_scale = 0.8
    model.decoder.freeze()
    return model


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_encoder_output_ranges(seed):
    rng = np.random.default_rng(seed)
    enc = EncoderNet(s=3, width=8, seed=seed)
    x = rng.standard_normal((6, 10, 10)) * 10.0
    tape = Tape()
    m = enc.apply(tape, tape.constant(x)).value
    assert np.all(m[0] >= T1_BOUNDS_MS[0]) and np.all(m[0] <= T1_BOUNDS_MS[1])
    assert np.all(m[1] >= T2_BOUNDS_MS[0]) and np.all(m[1] <= T2_BOUNDS_MS[1])
    assert np.all(m[2] >= PD_BOUNDS[0]) and np.all(m[2] <= PD_BOUNDS[1])


def test_encoder_zero_input_gives_bias_constant_maps():
    enc = EncoderNet(s=2, width=4, seed=3)
    tape = Tape()
    m = enc.apply(tape, tape.constant(np.zeros((4, 6, 6)))).value
    # conv of zeros propagates biases only: spatially constant interior aside,
    # padding makes borders differ; zero biases keep it exactly constant
    for c in range(3):
        inner = m[c, 2:-2, 2:-2]
        npt.assert_allclose(inner, inner[0, 0])


def test_encoder_attention_toggle_parameters():
    plain = EncoderNet(s=2, width=8, seed=0)
    attn = EncoderNet(s=2, width=8, seed=0, attention=True)
    assert len(attn.parameters()) == len(plain.parameters()) + 4
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 6, 6))
    tape = Tape()
    m = attn.apply(tape, tape.constant(x)).value
    assert np.all(np.isfinite(m))


def test_decoder_normalized_inputs_and_shapes():
    dec = BlochDecoderNet(s=4, hidden=8, seed=1)
    out = dec.predict(np.array([100.0, 4000.0]), np.array([10.0, 600.0]))
    assert out.shape == (2, 8)
    assert np.all(np.isfinite(out))


def test_neural_prox_matches_manual_composition():
    model = tiny_model(seed=5)
    rng = np.random.default_rng(5)
    g = rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8))
    x, maps = model.make_prox()(g)

    tape = Tape()
    m = model.encoder.apply(tape, tape.constant(c2r_channels(g))).value
    dec = model.decoder.predict(m[0].ravel(), m[1].ravel())
    x_manual = (dec.T.reshape(4, 8, 8) * m[2][None]).astype(float)
    npt.assert_allclose(np.concatenate([x.real, x.imag]), x_manual, rtol=1e-12)
    npt.assert_array_equal(maps.t1_ms, m[0])
    npt.assert_array_equal(maps.pd, m[2])


def test_prox_output_bounds_and_mask():
    model = tiny_model(seed=6)
    rng = np.random.default_rng(6)
    g = rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8))
    _, maps = model.make_prox()(g)
    assert np.all(maps.mask)
    assert maps.t1_ms.min() >= T1_BOUNDS_MS[0]
    assert maps.t2_ms.max() <= T2_BOUNDS_MS[1]


def test_inference_prox_equals_the_prox_recorded_for_training_bit_for_bit():
    model = tiny_model(seed=12)
    rng = np.random.default_rng(12)
    g = rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8))
    x, maps = model.make_prox()(g)
    tape = Tape()
    x_node, m_node = prox_nodes(tape, model.encoder, model.decoder, tape.constant(c2r_channels(g)))
    assert x_node.needs_grad and m_node.needs_grad  # the encoder weights are trainable
    npt.assert_array_equal(x, r2c_channels(x_node.value))
    predicted = model.encoder.predict_maps(g)
    for got in (maps, predicted):
        for plane, ref in zip((got.t1_ms, got.t2_ms, got.pd), m_node.value):
            npt.assert_array_equal(plane, ref)


def test_a_training_epoch_keeps_one_step_graph_alive_at_a_time():
    # the previous step's graph is freed before the next step records its own,
    # so the peak of an epoch over two samples is about that over one
    n = 16
    op = tiny_operator(seed=13, n=n)
    lam = op.estimate_operator_norm(iters=20)
    rng = np.random.default_rng(13)
    dataset = [
        (
            rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(op.kspace_shape),
            QMaps(
                t1_ms=rng.uniform(300, 2000, (n, n)),
                t2_ms=rng.uniform(30, 200, (n, n)),
                pd=rng.uniform(0.2, 1.0, (n, n)),
                mask=np.ones((n, n), bool),
            ),
        )
        for _ in range(2)
    ]

    def epoch_peak(samples):
        model = tiny_model(seed=13, iterations=3, width=8, hidden=16)
        model.log_alpha.value[:] = np.log(0.5 / lam)
        tracemalloc.start()
        try:
            train_unrolled(samples, op, model, TrainConfig(epochs=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    epoch_peak(dataset)  # warm-up: caches and lazily built state
    assert epoch_peak(dataset) <= 1.2 * epoch_peak(dataset[:1])


def test_parameter_count_independent_of_iterations():
    # one shared encoder: only the per-iteration step sizes grow with T
    def count(m):
        return sum(p.value.size for p in m.trainable_parameters())

    m2 = UnrolledModel.create(s=2, iterations=2, width=4, seed=0, hidden=8)
    m7 = UnrolledModel.create(s=2, iterations=7, width=4, seed=0, hidden=8)
    assert count(m2) - 2 == count(m7) - 7


def test_backward_through_unrolled_encoder_is_repeatable():
    # a VJP that wrote into a saved activation would change the second pass
    model = UnrolledModel.create(s=2, iterations=2, width=4, seed=3, hidden=8)
    op = tiny_operator(seed=3)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(op.kspace_shape)
    model.log_alpha.value[:] = np.log(0.5 / op.estimate_operator_norm(iters=20))
    truth = QMaps(
        t1_ms=rng.uniform(300, 2000, (8, 8)),
        t2_ms=rng.uniform(30, 200, (8, 8)),
        pd=rng.uniform(0.2, 1.0, (8, 8)),
        mask=np.ones((8, 8), bool),
    )
    x0 = op.backproject(y, equalize=False)
    tape = Tape()
    loss, _ = unrolled_loss_nodes(tape, model, y, op, x0, truth, TrainConfig())
    g1 = tape.backward(loss)
    g2 = tape.backward(loss)
    assert set(g1) == set(g2) >= set(model.trainable_parameters())
    for p in g1:
        npt.assert_array_equal(g1[p], g2[p])


def test_unrolled_inference_equals_pgd_engine(monkeypatch):
    # every iterate of the training forward pass and of the numpy PGD engine
    # must agree bit for bit: both run recon.pgd_iterates
    model = tiny_model(seed=7, iterations=3)
    op = tiny_operator(seed=7)
    rng = np.random.default_rng(7)
    y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(op.kspace_shape)
    model.log_alpha.value[:] = np.log(np.array([0.5, 0.4, 0.3]) / op.estimate_operator_norm(iters=20))

    truth = QMaps(
        t1_ms=np.full((8, 8), 800.0),
        t2_ms=np.full((8, 8), 80.0),
        pd=np.ones((8, 8)),
        mask=np.ones((8, 8), bool),
    )
    recorded = []

    def recording_prox_nodes(*args):
        x, m = prox_nodes(*args)
        recorded.append(m)
        return x, m

    monkeypatch.setattr(neuralprox, "prox_nodes", recording_prox_nodes)
    x0 = op.backproject(y, equalize=False)
    _, m_node = unrolled_loss_nodes(Tape(), model, y, op, x0, truth, TrainConfig())
    monkeypatch.undo()
    assert len(recorded) == model.iterations and recorded[-1] is m_node

    maps_engine, _, trace = pgd_reconstruct(
        y,
        op,
        model.make_prox(),
        PgdConfig(
            iterations=model.iterations,
            step_sizes=model.step_sizes,
            record_trace=True,
            init_equalize=False,
        ),
    )
    assert trace.snapshots[0] is None and trace.snapshots[-1] is maps_engine
    for snapshot, m in zip(trace.snapshots[1:], recorded, strict=True):
        for plane, ref in zip((snapshot.t1_ms, snapshot.t2_ms, snapshot.pd), m.value):
            npt.assert_array_equal(plane, ref)


def reference_unrolled_loss(tape, model, y, op, x0, truth, cfg):
    """The unrolled forward pass and loss as unrolled_loss_nodes recorded them
    with its own loop, before recon.pgd_iterates."""
    b = c2r_channels(op.adjoint(y))
    b_node = tape.constant(b)
    b2_node = tape.constant(2.0 * b)
    ysq = tape.constant(np.vdot(y, y).real)
    x = tape.constant(c2r_channels(x0))
    nx = tape.constant(c2r_channels(op.normal(x0)))
    log_alpha = tape.leaf(model.log_alpha)
    ks_terms = []
    for t in range(model.iterations):
        alpha = tape.exp(tape.slice_axis0(log_alpha, t, t + 1))
        g = tape.add(x, tape.mul(tape.sub(b_node, nx), alpha))
        x, m = prox_nodes(tape, model.encoder, model.decoder, g)
        nx = tape.apply_normal(x, op)
        ks_terms.append(tape.add(ysq, tape.vdot(x, tape.sub(nx, b2_node))))
    loss = tape.weighted_sum(
        neuralprox._map_terms(tape, m, truth) + ks_terms,
        list(cfg.beta) + [cfg.lam / (2 * y.size)] * model.iterations,
    )
    return loss, m


@pytest.mark.parametrize("kind", ["golden_radial", "cartesian_full"])
@pytest.mark.parametrize("attention", [False, True])
@pytest.mark.parametrize(
    "cfg", [TrainConfig(), TrainConfig(beta=(0.0, 0.0, 0.0), lam=1.0)], ids=["default", "kspace_only"]
)
def test_unrolled_loss_and_gradients_equal_the_tape_loop(kind, attention, cfg):
    rng = np.random.default_rng(17)
    n, s, frames = 8, 2, 6
    traj = make_trajectory(kind, n, d=n, frames=frames)
    basis = np.linalg.qr(rng.standard_normal((frames, s)))[0].astype(complex)
    op = AcquisitionOperator(simulate_coil_maps(2, n), traj, basis)
    model = UnrolledModel.create(s=s, iterations=3, width=4, seed=17, attention=attention, hidden=8)
    model.decoder.output_scale = 0.8
    model.decoder.freeze()
    model.log_alpha.value[:] = np.log(np.array([0.5, 0.4, 0.3]) / op.estimate_operator_norm(iters=20))
    y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(op.kspace_shape)
    truth = QMaps(
        t1_ms=rng.uniform(300, 2000, (n, n)),
        t2_ms=rng.uniform(30, 200, (n, n)),
        pd=rng.uniform(0.2, 1.0, (n, n)),
        mask=np.ones((n, n), bool),
    )
    x0 = op.backproject(y, equalize=False)

    tape, ref_tape = Tape(), Tape()
    loss, m = unrolled_loss_nodes(tape, model, y, op, x0, truth, cfg)
    ref_loss, ref_m = reference_unrolled_loss(ref_tape, model, y, op, x0, truth, cfg)
    assert loss.value.tobytes() == ref_loss.value.tobytes()
    npt.assert_array_equal(m.value, ref_m.value)
    grads, ref_grads = tape.backward(loss), ref_tape.backward(ref_loss)
    assert set(grads) == set(ref_grads) == set(model.trainable_parameters())
    for p in grads:
        assert grads[p].tobytes() == ref_grads[p].tobytes(), p.name


@pytest.mark.parametrize(
    "cfg", [TrainConfig(), TrainConfig(beta=(0.0, 0.0, 0.0), lam=1.0)], ids=["default", "kspace_only"]
)
def test_unrolled_loss_matches_numpy_reference(cfg):
    # full Cartesian frames make N exactly H^H H, so the tape's quadratic-form
    # k-space term must equal the explicit residual through forward/adjoint
    rng = np.random.default_rng(11)
    n, s, frames = 8, 2, 6
    traj = make_trajectory("cartesian_full", n, frames=frames)
    basis = np.linalg.qr(rng.standard_normal((frames, s)))[0].astype(complex)
    op = AcquisitionOperator(simulate_coil_maps(2, n), traj, basis)
    model = tiny_model(seed=11, s=s, iterations=1)
    model.log_alpha.value[:] = np.log(0.5 / op.estimate_operator_norm(iters=20))
    y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(op.kspace_shape)
    truth = QMaps(
        t1_ms=rng.uniform(300, 2000, (n, n)),
        t2_ms=rng.uniform(30, 200, (n, n)),
        pd=rng.uniform(0.2, 1.0, (n, n)),
        mask=np.ones((n, n), bool),
    )
    x0 = op.backproject(y, equalize=False)
    loss, _ = unrolled_loss_nodes(Tape(), model, y, op, x0, truth, cfg)

    g = x0 + model.step_sizes[0] * op.adjoint(y - op.forward(x0))
    x1, maps = model.make_prox()(g)
    resid = y - op.forward(x1)
    kspace = np.vdot(resid, resid).real / (2 * y.size)
    norms = (T1_BOUNDS_MS[1], T2_BOUNDS_MS[1], 1.0)
    map_terms = [
        np.mean(((est - ref) / norm) ** 2)
        for est, ref, norm in zip(
            (maps.t1_ms, maps.t2_ms, maps.pd), (truth.t1_ms, truth.t2_ms, truth.pd), norms
        )
    ]
    expected = float(np.dot(cfg.beta, map_terms)) + cfg.lam * kspace
    npt.assert_allclose(float(loss.value), expected, rtol=1e-10)


def test_decoder_stays_frozen_through_training():
    model = tiny_model(seed=8)
    op = tiny_operator(seed=8)
    rng = np.random.default_rng(8)
    y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(op.kspace_shape)
    truth = QMaps(
        t1_ms=rng.uniform(200, 2000, (8, 8)),
        t2_ms=rng.uniform(20, 300, (8, 8)),
        pd=rng.uniform(0, 1, (8, 8)),
        mask=np.ones((8, 8), bool),
    )
    before = {p.name: p.value.copy() for p in model.decoder.parameters()}
    model.log_alpha.value[:] = np.log(1e-3)
    train_unrolled([(y, truth)], op, model, TrainConfig(epochs=2, seed=0))
    for p in model.decoder.parameters():
        npt.assert_array_equal(p.value, before[p.name])


def test_training_requires_frozen_decoder():
    model = tiny_model(seed=9)
    for p in model.decoder.parameters():
        p.trainable = True
    op = tiny_operator(seed=9)
    y = np.zeros(op.kspace_shape, complex)
    truth = QMaps(
        t1_ms=np.ones((8, 8)),
        t2_ms=np.ones((8, 8)),
        pd=np.ones((8, 8)),
        mask=np.ones((8, 8), bool),
    )
    with pytest.raises(ValueError, match="frozen"):
        train_unrolled([(y, truth)], op, model, TrainConfig(epochs=1))


def test_supervised_toy_training_halves_loss():
    # lambda=0, T=1, near-identity acquisition: plain map regression
    n, s = 8, 2
    traj = make_trajectory("cartesian_full", n, frames=4)
    rng = np.random.default_rng(10)
    basis = np.linalg.qr(rng.standard_normal((4, s)))[0].astype(complex)
    op = AcquisitionOperator(simulate_coil_maps(1, n), traj, basis)
    model = tiny_model(seed=10, iterations=1)
    model.log_alpha.value[:] = np.log(1.0 / op.estimate_operator_norm(iters=20))

    dataset = []
    for k in range(2):
        r = np.random.default_rng(20 + k)
        truth = QMaps(
            t1_ms=r.uniform(300, 2500, (n, n)),
            t2_ms=r.uniform(30, 400, (n, n)),
            pd=r.uniform(0.2, 1.0, (n, n)),
            mask=np.ones((n, n), bool),
        )
        y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(
            op.kspace_shape
        )
        dataset.append((y, truth))
    cfg = TrainConfig(lam=0.0, epochs=200, lr=1e-3, seed=0)
    _, hist = train_unrolled(dataset, op, model, cfg)
    assert hist[-1] <= 0.5 * hist[0]


def test_training_loss_history_deterministic():
    model_a = tiny_model(seed=11)
    model_b = tiny_model(seed=11)
    op = tiny_operator(seed=11)
    rng = np.random.default_rng(11)
    y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(op.kspace_shape)
    truth = QMaps(
        t1_ms=rng.uniform(200, 2000, (8, 8)),
        t2_ms=rng.uniform(20, 300, (8, 8)),
        pd=rng.uniform(0, 1, (8, 8)),
        mask=np.ones((8, 8), bool),
    )
    for m in (model_a, model_b):
        m.log_alpha.value[:] = np.log(1e-2)
    _, h1 = train_unrolled([(y, truth)], op, model_a, TrainConfig(epochs=3, seed=5))
    _, h2 = train_unrolled([(y, truth)], op, model_b, TrainConfig(epochs=3, seed=5))
    assert h1 == h2


def test_pretrain_encoder_runs_and_descends():
    op = tiny_operator(seed=12, coils=2)
    enc = EncoderNet(s=2, width=4, seed=12)
    rng = np.random.default_rng(12)
    y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(op.kspace_shape)
    truth = QMaps(
        t1_ms=rng.uniform(300, 2500, (8, 8)),
        t2_ms=rng.uniform(30, 400, (8, 8)),
        pd=rng.uniform(0.2, 1.0, (8, 8)),
        mask=np.ones((8, 8), bool),
    )
    _, hist = pretrain_encoder([(y, truth)], op, enc, TrainConfig(epochs=50, seed=0))
    assert hist[-1] < hist[0]


def test_non_finite_gradient_stops_training_naming_a_parameter_before_any_update():
    op = tiny_operator(seed=12, coils=2)
    enc = EncoderNet(s=2, width=4, seed=12)
    rng = np.random.default_rng(12)
    y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(op.kspace_shape)
    pd = rng.uniform(0.2, 1.0, (8, 8))
    pd[3, 4] = np.inf  # a corrupt target makes every gradient non-finite
    truth = QMaps(
        t1_ms=rng.uniform(300, 2500, (8, 8)),
        t2_ms=rng.uniform(30, 400, (8, 8)),
        pd=pd,
        mask=np.ones((8, 8), bool),
    )
    before = [p.value.copy() for p in enc.parameters()]
    with np.errstate(invalid="ignore"), pytest.raises(
        TrainingFailure, match=r"non-finite gradient for enc_\w+"
    ):
        pretrain_encoder([(y, truth)], op, enc, TrainConfig(epochs=2, seed=0))
    for p, v in zip(enc.parameters(), before):
        npt.assert_array_equal(p.value, v)


def _per_sample_reference_loop(samples, params, cfg, loss_of):
    """The trainers' epoch loop as it was: Adam on `params`, each epoch one
    step per sample in rng.permutation order, and its mean loss."""
    opt = Adam(params, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    history = []
    for _ in range(cfg.epochs):
        total = 0.0
        for idx in rng.permutation(len(samples)):
            tape = Tape()
            loss = loss_of(tape, *samples[idx])
            opt.step(tape.backward(loss))
            total += float(loss.value)
        history.append(total / len(samples))
    return history


def _random_dataset(op, rng, count):
    n = op.matrix
    return [
        (
            rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(op.kspace_shape),
            QMaps(
                t1_ms=rng.uniform(300, 2500, (n, n)),
                t2_ms=rng.uniform(30, 400, (n, n)),
                pd=rng.uniform(0.2, 1.0, (n, n)),
                mask=np.ones((n, n), bool),
            ),
        )
        for _ in range(count)
    ]


def test_pretrain_encoder_equals_the_per_sample_reference_loop():
    op = tiny_operator(seed=15, coils=2)
    dataset = _random_dataset(op, np.random.default_rng(15), 3)
    cfg = TrainConfig(epochs=4, lr=1e-2, seed=7)
    encoder, history = pretrain_encoder(dataset, op, EncoderNet(s=2, width=4, seed=15), cfg)

    ref = EncoderNet(s=2, width=4, seed=15)

    def loss_of(tape, x0, truth):
        m = ref.apply(tape, tape.constant(x0))
        return tape.weighted_sum(neuralprox._map_terms(tape, m, truth), list(cfg.beta))

    samples = [(c2r_channels(op.backproject(y, equalize=False)), truth) for y, truth in dataset]
    npt.assert_array_equal(history, _per_sample_reference_loop(samples, ref.parameters(), cfg, loss_of))
    for p, q in zip(encoder.parameters(), ref.parameters()):
        npt.assert_array_equal(p.value, q.value)


def test_train_unrolled_equals_the_per_sample_reference_loop():
    op = tiny_operator(seed=16, coils=2)
    dataset = _random_dataset(op, np.random.default_rng(16), 3)
    cfg = TrainConfig(epochs=3, lr=1e-2, seed=8)
    model, ref = tiny_model(seed=16), tiny_model(seed=16)
    for m in (model, ref):
        m.log_alpha.value[:] = np.log(0.5 / op.estimate_operator_norm(iters=20))
    _, history = train_unrolled(dataset, op, model, cfg)

    def loss_of(tape, y, x0, truth):
        return unrolled_loss_nodes(tape, ref, y, op, x0, truth, cfg)[0]

    samples = [(y, op.backproject(y, equalize=False), truth) for y, truth in dataset]
    params = ref.trainable_parameters()
    npt.assert_array_equal(history, _per_sample_reference_loop(samples, params, cfg, loss_of))
    for p, q in zip(model.trainable_parameters(), params):
        npt.assert_array_equal(p.value, q.value)


@pytest.mark.parametrize("last", [np.nan, np.inf, 2e6])
def test_an_epoch_loss_non_finite_or_above_1e6_times_the_first_stops_training(last):
    losses = iter([1.0, 1e6, last])  # one single-sample step per epoch

    def loss_of(tape, sel):
        return tape.constant(np.array(next(losses)))

    with pytest.raises(TrainingFailure, match="diverged"):
        neuralprox._fit(Adam([]), np.random.default_rng(0), 3, 1, 1, loss_of)


@pytest.mark.parametrize("stage", ["decoder", "encoder", "unrolled"])
def test_every_training_stage_stops_on_the_divergence_rule(stage, small_dict, monkeypatch):
    monkeypatch.setattr(neuralprox, "_step", lambda opt, loss_of, sel: np.nan)
    op = tiny_operator(seed=17)
    dataset = _random_dataset(op, np.random.default_rng(17), 1)
    cfg = TrainConfig(epochs=2)
    with pytest.raises(TrainingFailure, match="diverged"):
        if stage == "decoder":
            pretrain_bloch_decoder(*small_dict, epochs=2, n_offgrid=20, val_size=10, threshold=np.inf)
        elif stage == "encoder":
            pretrain_encoder(dataset, op, EncoderNet(s=2, width=4), cfg)
        else:
            train_unrolled(dataset, op, tiny_model(seed=17), cfg)


def test_decoder_pretraining_small_dictionary(short_seq):
    t1 = np.geomspace(150.0, 3000.0, 12)
    t2 = np.geomspace(15.0, 400.0, 10)
    grid = build_dictionary(short_seq, t1, t2)
    sub = compute_subspace(grid, 5)
    dec, hist = pretrain_bloch_decoder(
        grid, sub, epochs=300, seed=0, n_offgrid=800, val_size=100, threshold=0.05
    )
    assert dec.frozen
    assert hist[-1] < hist[0]
    # on-grid pair reproduces the compressed EPG atom within 2%
    from mrfrecon.neuralprox import compressed_response_targets, decoder_validation_error

    t1p, t2p = np.array([1000.0]), np.array([100.0])
    target = compressed_response_targets(short_seq, sub, t1p, t2p)
    assert decoder_validation_error(dec, t1p, t2p, target) < 0.02


def test_decoder_pretraining_simulates_at_the_given_k_max(small_dict, monkeypatch):
    grid, sub = small_dict
    real = neuralprox.simulate_epg_batch
    seen = []

    def spy(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments["k_max"])
        return real(*args, **kwargs)

    monkeypatch.setattr(neuralprox, "simulate_epg_batch", spy)
    pretrain_bloch_decoder(
        grid, sub, epochs=1, seed=0, n_offgrid=20, val_size=10, threshold=np.inf, k_max=17
    )
    assert seen == [17, 17]  # off-grid training and validation targets


def test_decoder_pretraining_equals_the_unpruned_reference_loop(small_dict, reference_adam):
    grid, sub = small_dict
    epochs, seed, n_offgrid, val_size, hidden = 3, 4, 300, 20, 8
    decoder, history = pretrain_bloch_decoder(
        grid, sub, epochs=epochs, seed=seed, n_offgrid=n_offgrid, val_size=val_size,
        threshold=np.inf, hidden=hidden,
    )

    # the loop as it was before the features were hoisted: decoder.apply on
    # constant T1/T2 every step, and one Adam update per parameter
    rng = np.random.default_rng(seed)
    t1r = (float(grid.t1_values_ms[0]), float(grid.t1_values_ms[-1]))
    t2r = (float(grid.t2_values_ms[0]), float(grid.t2_values_ms[-1]))
    catoms = (grid.atoms * grid.atom_norms[:, None]) @ sub.basis.conj()
    t1_off, t2_off = neuralprox._sample_offgrid_pairs(rng, n_offgrid, t1r, t2r)
    off_targets = neuralprox.compressed_response_targets(grid.seq, sub, t1_off, t2_off)
    targets = np.concatenate([np.concatenate([catoms.real, catoms.imag], axis=1), off_targets])
    t1_all = np.concatenate([grid.atom_t1_ms, t1_off])
    t2_all = np.concatenate([grid.atom_t2_ms, t2_off])
    neuralprox._sample_offgrid_pairs(rng, val_size, t1r, t2r)  # validation pairs come next
    ref = BlochDecoderNet(sub.s, hidden=hidden, seed=seed)
    ref.output_scale = float(np.sqrt(np.mean(targets**2)) * 2.0)
    opt = reference_adam(ref.parameters(), lr=1e-3)
    n, batch = t1_all.shape[0], neuralprox.DECODER_BATCH
    assert n > batch  # every epoch ends on a partial batch
    ref_history = []
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, batch):
            sel = order[lo : lo + batch]
            tape = Tape()
            pred = ref.apply(tape, tape.constant(t1_all[sel]), tape.constant(t2_all[sel]))
            loss = tape.mse(pred, targets[sel])
            opt.step(tape.backward(loss))
            total += float(loss.value) * sel.size
        ref_history.append(total / n)

    npt.assert_array_equal(history, ref_history)
    for p, q in zip(decoder.parameters(), ref.parameters()):
        npt.assert_array_equal(p.value, q.value)


def test_decoder_pretraining_failure_raises(short_seq):
    t1 = np.geomspace(150.0, 3000.0, 6)
    t2 = np.geomspace(15.0, 400.0, 5)
    grid = build_dictionary(short_seq, t1, t2)
    sub = compute_subspace(grid, 4)
    with pytest.raises(TrainingFailure, match="validation error"):
        pretrain_bloch_decoder(
            grid, sub, epochs=1, seed=0, n_offgrid=50, val_size=50, threshold=1e-6
        )


def _rejection_sampler_reference(rng, n, t1_range, t2_range):
    """The off-grid sampler's draws as they were before it checked its ranges."""
    t1, t2 = np.empty(n), np.empty(n)
    filled = 0
    while filled < n:
        c1 = np.exp(rng.uniform(np.log(t1_range[0]), np.log(t1_range[1]), n))
        c2 = np.exp(rng.uniform(np.log(t2_range[0]), np.log(t2_range[1]), n))
        ok = c2 <= c1
        take = min(int(ok.sum()), n - filled)
        t1[filled : filled + take] = c1[ok][:take]
        t2[filled : filled + take] = c2[ok][:take]
        filled += take
    return t1, t2


@pytest.mark.parametrize(
    "t1_range, t2_range",
    [
        ((100.0, 4000.0), (10.0, 600.0)),
        ((100.0, 100.0), (50.0, 600.0)),  # one T1, part of the T2 range below it
        ((100.0, 200.0), (150.0, 150.0)),  # one T2 inside the T1 range
        ((100.0, 100.0), (100.0, 100.0)),  # one pair, T2 = T1
    ],
)
def test_offgrid_sampler_draws_are_unchanged_when_a_pair_can_be_accepted(t1_range, t2_range):
    got = neuralprox._sample_offgrid_pairs(np.random.default_rng(5), 40, t1_range, t2_range)
    ref = _rejection_sampler_reference(np.random.default_rng(5), 40, t1_range, t2_range)
    npt.assert_array_equal(got, ref)
    assert np.all(got[1] <= got[0])


@pytest.mark.parametrize(
    "t1_range, t2_range, names",
    [
        ((100.0, 100.0), (100.0, 600.0), "T1 range 100-100 ms, T2 range 100-600 ms"),
        ((50.0, 100.0), (100.0, 600.0), "T1 range 50-100 ms, T2 range 100-600 ms"),
        ((100.0, 200.0), (300.0, 600.0), "T1 range 100-200 ms, T2 range 300-600 ms"),
    ],
)
def test_offgrid_sampler_that_could_never_accept_a_pair_raises_naming_both_ranges(
    t1_range, t2_range, names
):
    with pytest.raises(ValueError, match=names):
        neuralprox._sample_offgrid_pairs(np.random.default_rng(0), 10, t1_range, t2_range)


def test_decoder_pretraining_on_a_grid_with_no_offgrid_pair_raises(short_seq):
    # one atom at T1 = T2 = 100 ms: every off-grid T2 would lie above every T1
    grid = build_dictionary(short_seq, [100.0], np.geomspace(100.0, 600.0, 5))
    with pytest.raises(ValueError, match="T2 <= T1"):
        pretrain_bloch_decoder(grid, compute_subspace(grid, 1), epochs=1, n_offgrid=10, val_size=10)


def test_model_checkpoint_roundtrip(tmp_path):
    model = tiny_model(seed=13)
    model.log_alpha.value[:] = [np.log(0.3), np.log(0.7)]
    save_model(tmp_path / "ckpt", model, seed=13, train_config={"epochs": 1})
    loaded, manifest = load_model(tmp_path / "ckpt")
    assert manifest["iterations"] == 2
    assert loaded.decoder.frozen
    for p, q in zip(
        model.encoder.parameters() + model.decoder.parameters(),
        loaded.encoder.parameters() + loaded.decoder.parameters(),
    ):
        npt.assert_array_equal(p.value, q.value)
    npt.assert_array_equal(model.log_alpha.value, loaded.log_alpha.value)
    rng = np.random.default_rng(13)
    g = rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8))
    x1, m1 = model.make_prox()(g)
    x2, m2 = loaded.make_prox()(g)
    npt.assert_array_equal(x1, x2)
    npt.assert_array_equal(m1.t1_ms, m2.t1_ms)
