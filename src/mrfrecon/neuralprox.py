"""Learned proximal operator: encoder to maps, frozen Bloch decoder to TSMI.

The prox is decoder(encoder(g)) scaled by the predicted proton density; the
encoder is a compact convolutional net with bounded outputs mapping straight
to physical ranges, the decoder a small per-voxel MLP fit to compressed EPG
responses. Unrolled training differentiates through T iterations of
recon.pgd_iterates, the one PGD iteration inference runs too, normal operator
H^H H included, with the encoder weights shared across iterations and one
trainable log step size per iteration. All three training stages run one
epoch loop, _fit, under one divergence rule.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import Adam, Param, Tape, c2r_channels, r2c_channels
from .dictionary import compress
from .epg import DEFAULT_K_MAX, simulate_epg_batch
from .errors import TrainingFailure
from .maps import QMaps
from .recon import pgd_iterates, sample_constants
from .tensorfile import load_checkpoint, save_checkpoint

# bounded output activations of the encoder; every prox output is physical
T1_BOUNDS_MS = (100.0, 4000.0)
T2_BOUNDS_MS = (10.0, 600.0)
PD_BOUNDS = (0.0, 2.0)

# map-loss normalization so beta weights compare like quantities
MAP_NORMS = (T1_BOUNDS_MS[1], T2_BOUNDS_MS[1], 1.0)

DECODER_BATCH = 256  # (T1, T2) pairs per decoder pretraining step


@dataclass
class TrainConfig:
    """Loss weights and optimizer settings for unrolled training."""

    beta: tuple = (1.0, 0.3, 0.6)
    lam: float = 1e-3
    epochs: int = 500
    lr: float = 1e-3
    seed: int = 0
    batch_size: int = 1

    def __post_init__(self):
        if any(b < 0 for b in self.beta) or self.lam < 0:
            raise ValueError("loss weights must be >= 0")


def _stacked_maps(m):
    """(3, H, W) T1/T2/PD planes -> QMaps with an all-true mask."""
    return QMaps(t1_ms=m[0], t2_ms=m[1], pd=m[2], mask=np.ones(m.shape[1:], dtype=bool))


class EncoderNet:
    """3-layer same-size CNN, widths [2s -> w -> w -> 3], bounded outputs.

    Optional squeeze-excite channel attention after the second convolution.
    """

    def __init__(self, s, width=32, seed=0, attention=False):
        self.s = s
        self.width = width
        self.attention = attention
        rng = np.random.default_rng(seed)

        def conv_init(cout, cin):
            scale = np.sqrt(2.0 / (cin * 9))
            return rng.standard_normal((cout, cin, 3, 3)) * scale

        self.w1 = Param("enc_w1", conv_init(width, 2 * s))
        self.b1 = Param("enc_b1", np.zeros(width))
        self.w2 = Param("enc_w2", conv_init(width, width))
        self.b2 = Param("enc_b2", np.zeros(width))
        self.w3 = Param("enc_w3", conv_init(3, width))
        self.b3 = Param("enc_b3", np.zeros(3))
        if attention:
            r = max(width // 4, 1)
            self.se_w1 = Param(
                "enc_se_w1", rng.standard_normal((width, r)) / np.sqrt(width)
            )
            self.se_b1 = Param("enc_se_b1", np.zeros(r))
            self.se_w2 = Param(
                "enc_se_w2", rng.standard_normal((r, width)) / np.sqrt(r)
            )
            self.se_b2 = Param("enc_se_b2", np.zeros(width))

        lo = np.array([T1_BOUNDS_MS[0], T2_BOUNDS_MS[0], PD_BOUNDS[0]])
        hi = np.array([T1_BOUNDS_MS[1], T2_BOUNDS_MS[1], PD_BOUNDS[1]])
        self._lo = lo[:, None, None]
        self._hi = hi[:, None, None]

    def parameters(self):
        params = [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]
        if self.attention:
            params += [self.se_w1, self.se_b1, self.se_w2, self.se_b2]
        return params

    def apply(self, tape, x):
        """x: (2s, H, W) node -> (3, H, W) node of bounded T1/T2/PD maps."""
        h = tape.leaky_relu(tape.conv2d(x, tape.leaf(self.w1), tape.leaf(self.b1)))
        h = tape.leaky_relu(tape.conv2d(h, tape.leaf(self.w2), tape.leaf(self.b2)))
        if self.attention:
            z = tape.reshape(tape.spatial_mean(h), (1, self.width))
            z = tape.leaky_relu(
                tape.add(tape.matmul(z, tape.leaf(self.se_w1)), tape.leaf(self.se_b1))
            )
            z = tape.sigmoid(
                tape.add(tape.matmul(z, tape.leaf(self.se_w2)), tape.leaf(self.se_b2))
            )
            gate = tape.reshape(z, (self.width, 1, 1))
            h = tape.mul(h, gate)
        raw = tape.conv2d(h, tape.leaf(self.w3), tape.leaf(self.b3))
        return tape.scaled_sigmoid(raw, self._lo, self._hi)

    def predict_maps(self, tsmi):
        """Inference path: complex (s, H, W) TSMI -> QMaps."""
        tape = Tape(grad=False)
        x = tape.constant(c2r_channels(np.asarray(tsmi)))
        return _stacked_maps(self.apply(tape, x).value)


class BlochDecoderNet:
    """Per-voxel MLP [2 -> hidden -> hidden -> 2s] with tanh activations.

    Input (T1, T2) in ms, log-transformed and affinely mapped to about [-1, 1];
    output is the compressed unit-PD fingerprint as stacked real/imag parts,
    multiplied by a fixed output scale fit during pretraining. Proton density
    multiplies outside the network, so PD linearity is exact.
    """

    def __init__(self, s, hidden=64, seed=0):
        self.s = s
        self.hidden = hidden
        rng = np.random.default_rng(seed)
        self.w1 = Param("dec_w1", rng.standard_normal((2, hidden)) / np.sqrt(2.0))
        self.b1 = Param("dec_b1", np.zeros(hidden))
        self.w2 = Param("dec_w2", rng.standard_normal((hidden, hidden)) / np.sqrt(hidden))
        self.b2 = Param("dec_b2", np.zeros(hidden))
        self.w3 = Param("dec_w3", rng.standard_normal((hidden, 2 * s)) / np.sqrt(hidden))
        self.b3 = Param("dec_b3", np.zeros(2 * s))
        self.output_scale = 1.0
        lo1, hi1 = np.log(T1_BOUNDS_MS)
        lo2, hi2 = np.log(T2_BOUNDS_MS)
        self._mid = (0.5 * (lo1 + hi1), 0.5 * (lo2 + hi2))
        self._half = (0.5 * (hi1 - lo1), 0.5 * (hi2 - lo2))

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def freeze(self):
        for p in self.parameters():
            p.trainable = False

    @property
    def frozen(self):
        return all(not p.trainable for p in self.parameters())

    def features(self, tape, t1, t2):
        """t1, t2: (n,) nodes in ms -> (n, 2) node of the normalized log features."""
        n = t1.value.shape[0]
        feats = []
        for node, mid, half in zip((t1, t2), self._mid, self._half):
            u = tape.scale(tape.sub(tape.log(node), tape.constant(mid)), 1.0 / half)
            feats.append(tape.reshape(u, (n, 1)))
        return tape.concat(feats, axis=1)

    def apply(self, tape, t1, t2):
        """t1, t2: (n,) nodes in ms -> (n, 2s) node of compressed responses."""
        return self.mlp(tape, self.features(tape, t1, t2))

    def mlp(self, tape, h):
        """(n, 2) feature node -> (n, 2s) node of compressed responses."""
        h = tape.tanh(tape.add(tape.matmul(h, tape.leaf(self.w1)), tape.leaf(self.b1)))
        h = tape.tanh(tape.add(tape.matmul(h, tape.leaf(self.w2)), tape.leaf(self.b2)))
        out = tape.add(tape.matmul(h, tape.leaf(self.w3)), tape.leaf(self.b3))
        return tape.scale(out, self.output_scale)

    def predict(self, t1_ms, t2_ms):
        """Plain-array inference: (n,) arrays -> (n, 2s) float array."""
        tape = Tape(grad=False)
        t1 = tape.constant(np.asarray(t1_ms, dtype=float))
        t2 = tape.constant(np.asarray(t2_ms, dtype=float))
        return self.apply(tape, t1, t2).value


class UnrolledModel:
    """Shared encoder + frozen decoder + per-iteration trainable step sizes."""

    def __init__(self, encoder, decoder, log_alpha, iterations):
        self.encoder = encoder
        self.decoder = decoder
        self.log_alpha = log_alpha
        self.iterations = iterations

    @classmethod
    def create(cls, s, iterations, width=32, seed=0, attention=False, hidden=64):
        """A fresh model; every step size starts at 1 until the caller sets them."""
        encoder = EncoderNet(s, width=width, seed=seed, attention=attention)
        decoder = BlochDecoderNet(s, hidden=hidden, seed=seed + 1)
        log_alpha = Param("log_alpha", np.zeros(iterations))
        return cls(encoder, decoder, log_alpha, iterations)

    @property
    def step_sizes(self):
        return np.exp(self.log_alpha.value)

    def trainable_parameters(self):
        return self.encoder.parameters() + [self.log_alpha]

    def make_prox(self):
        """Prox callable for the numpy PGD engine."""

        def prox(g):
            tape = Tape(grad=False)
            g_node = tape.constant(c2r_channels(np.asarray(g)))
            x_node, m_node = prox_nodes(tape, self.encoder, self.decoder, g_node)
            return r2c_channels(x_node.value), _stacked_maps(m_node.value)

        return prox


def prox_nodes(tape, encoder, decoder, g_node):
    """Record Prox = PD * decoder(encoder(g)) on the tape.

    g_node is (2s, H, W); returns (x node (2s, H, W), maps node (3, H, W)).
    """
    m = encoder.apply(tape, g_node)
    _, h, w = m.value.shape
    t1 = tape.reshape(tape.slice_axis0(m, 0, 1), (h * w,))
    t2 = tape.reshape(tape.slice_axis0(m, 1, 2), (h * w,))
    pd = tape.slice_axis0(m, 2, 3)
    dec = decoder.apply(tape, t1, t2)  # (h*w, 2s)
    x = tape.reshape(tape.transpose2d(dec), (2 * decoder.s, h, w))
    if not np.all(np.isfinite(x.value)):
        raise FloatingPointError("non-finite activations in the proximal network")
    return tape.mul(x, pd), m


def _map_terms(tape, m, truth):
    """Normalized MSE node of each of the T1/T2/PD planes of m against truth."""
    targets = (truth.t1_ms, truth.t2_ms, truth.pd)
    return [
        tape.mse(
            tape.scale(tape.slice_axis0(m, j, j + 1), 1.0 / MAP_NORMS[j]),
            targets[j][None] / MAP_NORMS[j],
        )
        for j in range(3)
    ]


def unrolled_loss_nodes(tape, model, y, op, x0, truth, cfg, constants=None):
    """Record the unrolled forward pass, recon.pgd_iterates with the learned
    steps and prox_nodes, and its training loss: the map loss of the final
    iterate plus ||y - Hx||^2 / (2 y.size) summed over the later iterates.
    `constants` is sample_constants(y, op, x0), computed here when omitted.
    Returns (loss node, final maps node).
    """
    constants = sample_constants(y, op, x0) if constants is None else constants
    log_alpha = tape.leaf(model.log_alpha)
    steps = (tape.exp(tape.slice_axis0(log_alpha, t, t + 1)) for t in range(model.iterations))
    x = tape.constant(c2r_channels(np.asarray(x0)))
    prox = lambda tape, g: prox_nodes(tape, model.encoder, model.decoder, g)
    _, *iterates = pgd_iterates(tape, op, x, constants, steps, prox)
    m = iterates[-1][1]
    loss = tape.weighted_sum(
        _map_terms(tape, m, truth) + [fid for _, _, fid in iterates],
        list(cfg.beta) + [cfg.lam / (2 * np.size(y))] * model.iterations,
    )
    return loss, m


def _step(opt, loss_of, sel):
    """One Adam step on a fresh tape, where loss_of(tape, sel) records the
    loss node; returns the loss. The step's graph is freed on return, so it is
    gone before the caller records the next one."""
    tape = Tape()
    loss = loss_of(tape, sel)
    opt.step(tape.backward(loss))
    return float(loss.value)


def _fit(opt, rng, epochs, n, batch, loss_of):
    """The epoch loop of every training stage: `batch` of the n samples per
    Adam step, in rng.permutation(n) order, where loss_of(tape, sel) records
    the mean loss node of the samples `sel`. Returns each epoch's mean loss;
    a non-finite one, or one above 1e6 times the first, raises TrainingFailure."""
    if n < 1:
        raise ValueError("dataset must be non-empty")
    history = []
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, batch):
            sel = order[lo : lo + batch]
            total += _step(opt, loss_of, sel) * sel.size
        loss = total / n
        history.append(loss)
        if not np.isfinite(loss) or loss > 1e6 * max(history[0], 1e-300):
            raise TrainingFailure(f"training diverged: epoch loss {loss:g}")
    return history


def train_unrolled(dataset, op, model, cfg):
    """Train encoder weights and step sizes through T unrolled iterations.

    Args:
        dataset: list of (y, truth QMaps) pairs; PD normalized to about [0, 1].
        op: AcquisitionOperator shared by the dataset.
        model: UnrolledModel with a pretrained, frozen decoder.
        cfg: TrainConfig.

    Returns:
        (model, per-epoch mean loss history). Deterministic for a fixed seed.
    """
    if not model.decoder.frozen:
        raise ValueError("decoder must be pretrained and frozen before unrolling")
    samples = []
    for y, truth in dataset:
        x0 = op.backproject(y, equalize=False)
        samples.append((np.asarray(y), x0, truth, sample_constants(y, op, x0)))

    def loss_of(tape, sel):
        y, x0, truth, constants = samples[sel[0]]
        return unrolled_loss_nodes(tape, model, y, op, x0, truth, cfg, constants)[0]

    opt = Adam(model.trainable_parameters(), lr=cfg.lr)
    return model, _fit(opt, np.random.default_rng(cfg.seed), cfg.epochs, len(samples), 1, loss_of)


def pretrain_encoder(dataset, op, encoder, cfg):
    """Supervised baseline training on back-projected TSMIs (map loss only)."""
    samples = [
        (c2r_channels(op.backproject(y, equalize=False)), truth)
        for y, truth in dataset
    ]

    def loss_of(tape, sel):
        x0, truth = samples[sel[0]]
        m = encoder.apply(tape, tape.constant(x0))
        return tape.weighted_sum(_map_terms(tape, m, truth), list(cfg.beta))

    opt = Adam(encoder.parameters(), lr=cfg.lr)
    return encoder, _fit(opt, np.random.default_rng(cfg.seed), cfg.epochs, len(samples), 1, loss_of)


def _sample_offgrid_pairs(rng, n, t1_range, t2_range):
    """Log-uniform (T1, T2) pairs with T2 <= T1, rejection-sampled.

    Raises ValueError when no draw can be accepted: the T2 range starts at
    or above the end of the T1 range, unless both ranges are the same point.
    """
    (t1_lo, t1_hi), (t2_lo, t2_hi) = t1_range, t2_range
    if not (t2_lo < t1_hi or t1_lo == t1_hi == t2_lo == t2_hi):
        raise ValueError(
            f"no off-grid pair with T2 <= T1 can be drawn: T1 range {t1_lo:g}-{t1_hi:g} ms, "
            f"T2 range {t2_lo:g}-{t2_hi:g} ms"
        )
    t1 = np.empty(n)
    t2 = np.empty(n)
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


def compressed_response_targets(seq, sub, t1_ms, t2_ms, k_max=DEFAULT_K_MAX):
    """Oracle targets for the decoder: compressed unit-PD EPG responses."""
    fps = simulate_epg_batch(seq, t1_ms, t2_ms, k_max=k_max)
    cf = compress(fps.T, sub).T  # (n, s)
    return np.concatenate([cf.real, cf.imag], axis=1)


def pretrain_bloch_decoder(
    grid,
    sub,
    epochs=400,
    lr=1e-3,
    seed=0,
    n_offgrid=1500,
    val_size=500,
    threshold=0.02,
    hidden=64,
    k_max=DEFAULT_K_MAX,
):
    """Fit the decoder MLP to compressed EPG responses.

    Trains on every dictionary atom plus off-grid pairs freshly simulated with
    k_max configuration orders, and validates on a held-out off-grid set;
    raises TrainingFailure when the mean relative error does not reach
    `threshold`. The returned decoder is frozen.
    """
    seq = grid.seq
    if seq is None:
        raise ValueError("dictionary grid does not carry its sequence parameters")
    rng = np.random.default_rng(seed)
    t1r = (float(grid.t1_values_ms[0]), float(grid.t1_values_ms[-1]))
    t2r = (float(grid.t2_values_ms[0]), float(grid.t2_values_ms[-1]))

    raw_atoms = grid.atoms * grid.atom_norms[:, None]
    catoms = raw_atoms @ sub.basis
    atom_targets = np.concatenate([catoms.real, catoms.imag], axis=1)
    t1_off, t2_off = _sample_offgrid_pairs(rng, n_offgrid, t1r, t2r)
    off_targets = compressed_response_targets(seq, sub, t1_off, t2_off, k_max)

    t1_all = np.concatenate([grid.atom_t1_ms, t1_off])
    t2_all = np.concatenate([grid.atom_t2_ms, t2_off])
    targets = np.concatenate([atom_targets, off_targets], axis=0)

    val_t1, val_t2 = _sample_offgrid_pairs(rng, val_size, t1r, t2r)
    val_targets = compressed_response_targets(seq, sub, val_t1, val_t2, k_max)

    decoder = BlochDecoderNet(sub.s, hidden=hidden, seed=seed)
    decoder.output_scale = float(np.sqrt(np.mean(targets**2)) * 2.0)
    opt = Adam(decoder.parameters(), lr=lr)
    # the features of every pair, once: each step records only the MLP
    tape = Tape(grad=False)
    feats = decoder.features(tape, tape.constant(t1_all), tape.constant(t2_all)).value

    def batch_loss(tape, sel):
        return tape.mse(decoder.mlp(tape, tape.constant(feats[sel])), targets[sel])

    history = _fit(opt, rng, epochs, t1_all.shape[0], DECODER_BATCH, batch_loss)

    err = decoder_validation_error(decoder, val_t1, val_t2, val_targets)
    if err >= threshold:
        raise TrainingFailure(
            f"decoder pretraining stalled: validation error {err:.4f} >= "
            f"{threshold:g}, final loss {history[-1]:.3e}"
        )
    decoder.freeze()
    return decoder, history


def decoder_validation_error(decoder, t1_ms, t2_ms, targets):
    """Mean per-sample relative L2 error against oracle targets."""
    pred = decoder.predict(t1_ms, t2_ms)
    num = np.linalg.norm(pred - targets, axis=1)
    den = np.linalg.norm(targets, axis=1)
    return float(np.mean(num / den))


def save_model(directory, model, seed=None, train_config=None, loss_history=None):
    """Write an UnrolledModel checkpoint: named weights + JSON manifest."""
    weights = model.encoder.parameters() + model.decoder.parameters() + [model.log_alpha]
    arrays = {p.name: p.value for p in weights}
    manifest = {
        "architecture": {
            "s": model.decoder.s,
            "width": model.encoder.width,
            "attention": model.encoder.attention,
            "hidden": model.decoder.hidden,
            "decoder_output_scale": model.decoder.output_scale,
        },
        "iterations": model.iterations,
        "decoder_frozen": model.decoder.frozen,
        "seed": seed,
        "train_config": train_config,
        "loss_history": loss_history,
    }
    save_checkpoint(directory, arrays, manifest)


def load_model(directory):
    """Load an UnrolledModel checkpoint written by save_model."""
    arrays, manifest = load_checkpoint(directory)
    arch = manifest["architecture"]
    model = UnrolledModel.create(
        s=arch["s"],
        iterations=manifest["iterations"],
        width=arch["width"],
        attention=arch["attention"],
        hidden=arch["hidden"],
    )
    model.decoder.output_scale = arch["decoder_output_scale"]
    for p in model.encoder.parameters() + model.decoder.parameters() + [model.log_alpha]:
        if p.name not in arrays:
            raise ValueError(f"checkpoint {directory}: weight {p.name} is missing")
        if arrays[p.name].shape != p.value.shape:
            raise ValueError(f"checkpoint {directory}: {p.name} is not of shape {p.value.shape}")
        p.value = arrays[p.name].astype(np.float64)
    if manifest.get("decoder_frozen"):
        model.decoder.freeze()
    return model, manifest
