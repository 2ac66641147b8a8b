"""Workloads, operations and output checks of the mrfrecon benchmark.

A workload is one acquisition geometry taken through the whole pipeline by one
caller in a closed loop: each operation starts when the previous one returned.
A run of a workload

1. sets up ``setups`` times; ``setup_s`` is the median. A set-up builds the
   dictionary with the ``build-dict`` command and then does what
   ``mrfrecon train`` does before its loops: load the dictionary, build the
   operator, simulate the training phantoms, pretrain the Bloch decoder
   (validation threshold kept) and estimate the step size by power iteration;
2. runs cycles until they have taken ``seconds`` in all. A cycle runs
   ``build-dict``, ``simulate``, ``reconstruct --method bp-dm``,
   ``reconstruct --method dm-pgd`` and ``eval`` through ``mrfrecon.cli.main``,
   then, in process, encoder-pretraining epochs, unrolled-training epochs,
   neural-unrolled reconstructions and one back-projection through the
   encoder; ``REPEATS`` says which of these run more than once. Every cycle
   trains from the same weights and images the same phantom, so its outputs
   repeat exactly.

The machine's speed drifts by tens of percent over seconds, so every operation
is small enough to run at least once in every cycle: each timing is the median
of samples spread over the whole run, not of a few taken back to back, and
each sample is scaled by a speed reference timed next to it.

The program sees only inputs generated from the seed: the phantom's region
list and a noise seed, passed through the config, and the training phantoms.
Every operation's output is checked; an exception, a non-zero exit code or a
failed check counts the operation as failed and the run goes on.
"""

import contextlib
import copy
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import struct
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import scipy.fft

from mrfrecon import autodiff, cli, neuralprox, nufft, phantom, recon

from .trace import Tracer

# Top-10 singular values of the benchmark's dictionary (662 atoms x L=200,
# k_max=50), recorded at the commit that introduced this benchmark.
SEED_SINGULAR_VALUES = (
    19.399320555843357,
    15.744219987192828,
    5.352867963131203,
    2.8696858187021714,
    0.7823184286992343,
    0.45083729313858717,
    0.1769310360384528,
    0.15389906275509316,
    0.1368322881937156,
    0.07122378789562646,
)
SINGULAR_VALUE_RTOL = 1e-8
ORTHONORMAL_TOL = 1e-10
DOT_TEST_RTOL = 1e-10
EVAL_RTOL = 1e-9
# bounds of the encoder's output activations (see mrfrecon.neuralprox)
NEURAL_BOUNDS = {"t1": (100.0, 4000.0), "t2": (10.0, 600.0), "pd": (0.0, 2.0)}


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload; everything not named here is the CLI default."""

    trajectory: str
    noise_sigma: float  # about 1 % of the RMS k-space sample
    matrix: int = 32
    coils: int = 2
    r: int = 2
    n_train: int = 3
    width: int = 32
    decoder_epochs: int = 400
    encoder_epochs: int = 4
    unrolled_epochs: int = 1
    setups: int = 3
    config: dict = field(default_factory=lambda: copy.deepcopy(SMALL_CONFIG))
    singular_values: tuple = SEED_SINGULAR_VALUES  # None skips that check


# L=200 frames (100 k-space frames at r=2), a 30 x 25 grid (662 atoms) and 500
# off-grid decoder targets, so that a build-dict takes well under 1 s and a
# set-up a few seconds, and both fit the run many times. At r=10, as in the
# CLI default, the first L/10 frames carry too little T1 contrast at any L the
# run can afford: T1 NRMSE is above 1.5 for every method and says nothing. At
# L=200, r=2 dm-pgd clearly beats bp-dm (T1 NRMSE about 0.45 against 0.6), so
# the accuracy metrics can see a speed change that costs accuracy.
SMALL_CONFIG = {
    "sequence": {"n_frames": 200},
    "grid": {"t1": {"count": 30}, "t2": {"count": 25}},
    "train": {"decoder_offgrid": 500},
}

WORKLOADS = {
    "radial32": Spec(trajectory="golden_radial", noise_sigma=0.04),
    "cartesian32": Spec(trajectory="cartesian_full", noise_sigma=0.013),
}

# Phantom layouts in normalized coordinates; the seed jitters them slightly so
# that accuracy metrics move with the program, not with the phantom. Relaxation
# times move least: they shift against the dictionary grid, and at +-5 % the
# dm-pgd NRMSEs spread by 8-10 % from seed to seed.
TEST_LAYOUT = [
    dict(cx=0.50, cy=0.50, a=0.42, b=0.40, angle_deg=5.0, t1=1100.0, t2=95.0, pd=0.90),
    dict(cx=0.49, cy=0.51, a=0.33, b=0.31, angle_deg=5.0, t1=800.0, t2=80.0, pd=0.80),
    dict(cx=0.37, cy=0.41, a=0.07, b=0.12, angle_deg=-15.0, t1=2600.0, t2=260.0, pd=1.00),
    dict(cx=0.63, cy=0.41, a=0.07, b=0.12, angle_deg=15.0, t1=2600.0, t2=260.0, pd=1.00),
    dict(cx=0.51, cy=0.67, a=0.10, b=0.06, angle_deg=0.0, t1=1400.0, t2=140.0, pd=0.85),
    dict(cx=0.33, cy=0.60, a=0.06, b=0.07, angle_deg=0.0, t1=1800.0, t2=180.0, pd=0.95),
    dict(cx=0.67, cy=0.60, a=0.06, b=0.05, angle_deg=30.0, t1=600.0, t2=50.0, pd=0.75),
]
TRAIN_LAYOUT = [
    dict(cx=0.50, cy=0.50, a=0.43, b=0.41, angle_deg=-8.0, t1=1250.0, t2=110.0, pd=0.88),
    dict(cx=0.42, cy=0.44, a=0.12, b=0.08, angle_deg=30.0, t1=2200.0, t2=200.0, pd=0.97),
    dict(cx=0.60, cy=0.58, a=0.09, b=0.14, angle_deg=-40.0, t1=700.0, t2=60.0, pd=0.78),
    dict(cx=0.55, cy=0.35, a=0.06, b=0.06, angle_deg=0.0, t1=3000.0, t2=300.0, pd=1.00),
    dict(cx=0.36, cy=0.62, a=0.08, b=0.05, angle_deg=75.0, t1=1000.0, t2=75.0, pd=0.83),
    dict(cx=0.66, cy=0.42, a=0.05, b=0.09, angle_deg=10.0, t1=1600.0, t2=150.0, pd=0.92),
]


class SpeedReference:
    """A fixed kernel, timed before every operation, that tracks machine speed.

    The machine's speed drifts by tens of percent over seconds and minutes, and
    it moves every operation of a run together. Each end-to-end timing is
    therefore reported scaled to reference speed: every sample is multiplied
    by ``NOMINAL_S`` over the median time of the kernel runs nearest to it.
    The plain wall-clock medians are printed beside them.

    The kernel does a bit of each kind of work in the program, all from numpy
    and scipy without calling mrfrecon: batched 2-D FFTs, a scattered sum and
    a gather over a 64x64 grid, a Python loop of small-array updates, and
    matrix products. Its arrays take 23 MB, far more than the per-core caches,
    as the NUFFT's working set does; a 5 MB version of the kernel tracked the
    NUFFT-bound operations much worse. ``peak_rss_mb`` leaves them out.
    """

    # the kernel's median time on a shared 2-core Intel Xeon at 2.1 GHz, the
    # machine on which the bounds were set
    NOMINAL_S = 0.046
    WINDOW = 5  # kernel runs on each side of an operation

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((24, 4, 64, 64)) + 1j * rng.standard_normal((24, 4, 64, 64))
        self.idx = rng.integers(0, 64 * 64, 1_000_000)
        self.w = rng.standard_normal(1_000_000)
        self.states = rng.standard_normal((700, 50)) + 0j
        self.a = rng.standard_normal((256, 256))
        self.times = []

    @property
    def nbytes(self):
        """Bytes of the arrays the kernel keeps resident through the run."""
        return sum(v.nbytes for v in (self.x, self.idx, self.w, self.states, self.a))

    def _kernel(self):
        scipy.fft.fft2(self.x, workers=1)
        np.bincount(self.idx, self.w, minlength=64 * 64)
        self.x[0, 0].ravel()[self.idx]
        s = self.states
        for _ in range(40):
            s = np.roll(s, 1, axis=1) * 0.9 + s.conj() * 0.1
        for _ in range(3):
            self.a @ self.a

    def measure(self):
        """Time the kernel twice; returns the index of this measurement."""
        t0 = time.perf_counter()
        self._kernel()
        self._kernel()
        self.times.append(time.perf_counter() - t0)
        return len(self.times) - 1

    def scale(self, i):
        """Factor that takes a time measured next to measurement i to reference speed."""
        near = self.times[max(0, i - self.WINDOW): i + self.WINDOW + 1]
        return self.NOMINAL_S / statistics.median(near)


class CheckFailed(Exception):
    """An operation's output failed a benchmark check."""


def _jitter(layout, rng):
    return [
        dict(
            cx=r["cx"] + rng.uniform(-0.01, 0.01),
            cy=r["cy"] + rng.uniform(-0.01, 0.01),
            a=r["a"] * rng.uniform(0.95, 1.05),
            b=r["b"] * rng.uniform(0.95, 1.05),
            angle_deg=r["angle_deg"] + rng.uniform(-5.0, 5.0),
            t1=r["t1"] * rng.uniform(0.99, 1.01),
            t2=r["t2"] * rng.uniform(0.99, 1.01),
            pd=r["pd"] * rng.uniform(0.99, 1.01),
        )
        for r in layout
    ]


@dataclass
class Inputs:
    regions: list
    noise_seed: int
    train: list  # (regions, noise seed) per training phantom


def make_inputs(seed, n_train):
    """Everything the program receives that depends on the seed."""
    rng = np.random.default_rng(seed)
    regions = _jitter(TEST_LAYOUT, rng)
    noise_seed = int(rng.integers(2**31))
    train = [(_jitter(TRAIN_LAYOUT, rng), int(rng.integers(2**31))) for _ in range(n_train)]
    return Inputs(regions, noise_seed, train)


def make_config(spec, inputs):
    cfg = {
        "trajectory": {"kind": spec.trajectory, "r": spec.r},
        "coils": {"count": spec.coils},
        "phantom": {"matrix": spec.matrix, "regions": inputs.regions},
        "noise": {"sigma": spec.noise_sigma, "seed": inputs.noise_seed},
        "train": {
            "n_train": spec.n_train,
            "width": spec.width,
            "decoder_epochs": spec.decoder_epochs,
        },
    }
    return _merge(cfg, spec.config)


def _merge(base, extra):
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# independent readers and checks (they call nothing in mrfrecon, so a traced
# run records no spans for them)

_MRFB_DTYPES = {1: "<f4", 2: "<f8", 3: "<c8", 4: "<c16"}


def read_mrfb(path):
    raw = Path(path).read_bytes()
    if raw[:6] != b"MRFB1\x00" or raw[6] not in _MRFB_DTYPES:
        raise CheckFailed(f"{path}: not an MRFB tensor")
    ndim = raw[7]
    dims = struct.unpack_from(f"<{ndim}Q", raw, 8)
    return np.frombuffer(raw, dtype=_MRFB_DTYPES[raw[6]], offset=8 + 8 * ndim).reshape(dims)


def read_maps(directory):
    d = Path(directory)
    return {k: read_mrfb(d / f"{k}.mrfb") for k in ("t1", "t2", "pd", "mask")}


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_dictionary(dict_dir, reference):
    """Subspace orthonormal; leading singular values as recorded at the seed."""
    basis = read_mrfb(Path(dict_dir) / "subspace.mrfb")
    sv = read_mrfb(Path(dict_dir) / "singular_values.mrfb")
    s = basis.shape[1]
    gram_err = np.abs(basis.conj().T @ basis - np.eye(s)).max()
    _require(gram_err < ORTHONORMAL_TOL, f"subspace not orthonormal: {gram_err:.3e}")
    if reference is not None:
        ref = np.asarray(reference[:s])
        _require(
            sv.size >= s and np.allclose(sv[:s], ref, rtol=SINGULAR_VALUE_RTOL, atol=0.0),
            f"singular values {sv[:s]} differ from the recorded {ref}",
        )


def check_maps_finite(maps):
    for k in ("t1", "t2", "pd"):
        _require(np.all(np.isfinite(maps[k])), f"{k} map has non-finite values")


def check_neural_maps(qmaps):
    for k, (lo, hi) in NEURAL_BOUNDS.items():
        m = np.asarray(qmaps.property_map(k))
        _require(np.all(np.isfinite(m)), f"neural {k} map has non-finite values")
        _require(m.min() >= lo and m.max() <= hi, f"neural {k} map leaves [{lo}, {hi}]")


def nrmse(est, truth, which):
    mask = truth["mask"] > 0.5
    t = truth[which][mask]
    return float(np.linalg.norm(est[which][mask] - t) / np.linalg.norm(t))


def check_adjoint(op):
    """Dot test <Hx, y> = <x, H^H y> on random complex inputs."""
    rng = np.random.default_rng(0)
    xs = (op.s, op.matrix, op.matrix)
    x = rng.standard_normal(xs) + 1j * rng.standard_normal(xs)
    y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(op.kspace_shape)
    lhs = np.vdot(op.forward(x), y)
    rhs = np.vdot(x, op.adjoint(y))
    rel = abs(lhs - rhs) / abs(lhs)
    _require(rel < DOT_TEST_RTOL, f"adjoint dot test off by {rel:.3e}")


def check_history(history, epochs):
    _require(len(history) == epochs, f"{len(history)} epochs recorded, expected {epochs}")
    _require(all(math.isfinite(v) for v in history), f"non-finite training loss {history}")


# ---------------------------------------------------------------------------


STEP_KINDS = ("pretrain_step", "train_step")

# Runs per cycle of the operations whose time varies most from one sample to
# the next: the shortest commands (about 50 ms and 0.3 s) and the NUFFT-bound
# reconstructions. Every other operation runs once per cycle.
REPEATS = {"build_dict": 2, "simulate": 4, "recon_bpdm": 6, "recon_dmpgd": 2, "recon_neural": 4}


class StepClock:
    """Times training steps in both runs, traced or not.

    A step starts when its Tape is created and ends when Adam.step returns;
    the hooks cost two clock reads per step.
    """

    def __init__(self):
        self.samples = None
        self._start = None
        self._restore = []

    def install(self):
        clock = self
        tape_init, adam_step = autodiff.Tape.__init__, autodiff.Adam.step

        def init(tape, *args, **kwargs):
            if clock.samples is not None and clock._start is None:
                clock._start = time.perf_counter()
            tape_init(tape, *args, **kwargs)

        def step(opt, *args, **kwargs):
            out = adam_step(opt, *args, **kwargs)
            if clock.samples is not None and clock._start is not None:
                clock.samples.append(time.perf_counter() - clock._start)
                clock._start = None
            return out

        self._restore = [(autodiff.Tape, "__init__", tape_init), (autodiff.Adam, "step", adam_step)]
        autodiff.Tape.__init__, autodiff.Adam.step = init, step

    def uninstall(self):
        for owner, attr, value in self._restore:
            setattr(owner, attr, value)
        self._restore = []

    @contextlib.contextmanager
    def collect(self, samples):
        self.samples, self._start = samples, None
        try:
            yield
        finally:
            self.samples, self._start = None, None


@dataclass
class SetupState:
    cfg: dict
    op: object
    dataset: list
    model: object
    lam_max: float
    encoder_init: list


class Run:
    """One process's run of one workload."""

    def __init__(self, spec, seed, workdir):
        self.spec = spec
        self.inputs = make_inputs(seed, spec.n_train)
        self.workdir = Path(workdir)
        self.tracer = Tracer()
        self.clock = StepClock()
        self.attempted = 0
        self.failed = 0
        self.failures = []  # kinds of the failed operations
        self.samples = defaultdict(list)  # op kind -> wall seconds
        self.sample_refs = defaultdict(list)  # op kind -> SpeedReference index per sample
        self.reference = SpeedReference()
        self.values = {}
        self.cycle_seconds = []
        self.cycle_traced = []
        self.kspace = None
        self.config_path = self.workdir / "config.json"
        self.dict_dir = self.workdir / "dict"

    # ---- operations ------------------------------------------------------------

    def attempt(self, kind, call, check=None):
        """Time one operation, then check its output; failures are counted."""
        self.attempted += 1
        gc.collect()  # start every operation from a collected heap
        ref = self.reference.measure()
        steps = {k: len(self.samples[k]) for k in STEP_KINDS}
        try:
            with self.tracer.op(kind):
                t0 = time.perf_counter()
                out = call()
                dt = time.perf_counter() - t0
            if check is not None:
                check(out)
        except Exception:
            self.failed += 1
            self.failures.append(kind)
            print(f"operation {kind} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        finally:
            for k, n in steps.items():  # training steps timed inside this op
                self.sample_refs[k] += [ref] * (len(self.samples[k]) - n)
        self.samples[kind].append(dt)
        self.sample_refs[kind].append(ref)
        return out

    def cli(self, *argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--threads", "1", *map(str, argv)])
        _require(code == 0, f"mrfrecon {argv[0]} exited with code {code}")

    def build_dict(self, out):
        self.cli("build-dict", "--config", self.config_path, "--out", out)
        check_dictionary(out, self.spec.singular_values)

    def setup(self):
        """Build the dictionary, then do what cmd_train does before its loops."""
        self.build_dict(self.dict_dir)
        cfg = cli.load_config(self.config_path)
        tc = cfg["train"]
        grid, sub = cli.load_dictionary(self.dict_dir)
        matrix = int(cfg["phantom"]["matrix"])
        op, _ = cli.build_operator(cfg, matrix, sub)
        dataset = []
        for regions, noise_seed in self.inputs.train:
            ph = phantom.make_phantom({"regions": regions}, matrix)
            noise = phantom.NoiseSpec(sigma=float(cfg["noise"]["sigma"]), seed=noise_seed)
            y = phantom.simulate_measurements(
                ph, grid.seq, sub, op, noise=noise, k_max=int(cfg["epg"]["k_max"])
            )
            dataset.append((y, ph.maps.zero_outside_mask()))
        decoder, _ = neuralprox.pretrain_bloch_decoder(
            grid,
            sub,
            epochs=int(tc["decoder_epochs"]),
            lr=float(tc["decoder_lr"]),
            seed=int(tc["seed"]),
            n_offgrid=int(tc["decoder_offgrid"]),
            hidden=int(tc["decoder_hidden"]),
            threshold=float(tc["decoder_threshold"]),
        )
        model = neuralprox.UnrolledModel.create(
            s=sub.s,
            iterations=int(cfg["recon"]["iterations"]),
            width=int(tc["width"]),
            seed=int(tc["seed"]),
            attention=bool(tc["attention"]),
            hidden=int(tc["decoder_hidden"]),
        )
        model.decoder = decoder
        lam_max = op.estimate_operator_norm(iters=int(cfg["recon"]["power_iters"]))
        encoder_init = [p.value.copy() for p in model.encoder.parameters()]
        return SetupState(cfg, op, dataset, model, lam_max, encoder_init)

    def check_setup(self, st):
        check_adjoint(st.op)
        _require(math.isfinite(st.lam_max) and st.lam_max > 0, f"step estimate {st.lam_max}")

    def pretrain_encoder(self, st):
        tc = st.cfg["train"]
        enc_cfg = neuralprox.TrainConfig(
            beta=tuple(tc["beta"]),
            lam=0.0,
            epochs=self.spec.encoder_epochs,
            lr=float(tc["lr"]),
            seed=int(tc["seed"]),
        )
        with self.clock.collect(self.samples["pretrain_step"]):
            _, history = neuralprox.pretrain_encoder(st.dataset, st.op, st.model.encoder, enc_cfg)
        return history

    def train_unrolled(self, st):
        tc = st.cfg["train"]
        train_cfg = neuralprox.TrainConfig(
            beta=tuple(tc["beta"]),
            lam=float(tc["lambda"]),
            epochs=self.spec.unrolled_epochs,
            lr=float(tc["lr"]),
            seed=int(tc["seed"]),
            batch_size=int(tc["batch_size"]),
        )
        with self.clock.collect(self.samples["train_step"]):
            _, history = neuralprox.train_unrolled(st.dataset, st.op, st.model, train_cfg)
        return history

    def recon_neural(self, st):
        pcfg = recon.PgdConfig(
            iterations=st.model.iterations,
            step_sizes=st.model.step_sizes,
            record_trace=bool(st.cfg["recon"]["record_trace"]),
            init_equalize=False,
        )
        maps, _, _ = recon.pgd_reconstruct(self.kspace, st.op, st.model.make_prox(), pcfg)
        return maps

    # ---- checks that keep results ------------------------------------------------

    def check_kspace(self, sim_dir):
        y = read_mrfb(sim_dir / "kspace.mrfb")
        _require(y.ndim == 3 and y.shape[1] == self.spec.coils, f"k-space shape {y.shape}")
        _require(np.all(np.isfinite(y)), "k-space has non-finite samples")
        self.kspace = y

    def score(self, method, rec_dir, truth_dir, props):
        est, truth = read_maps(rec_dir), read_maps(truth_dir)
        check_maps_finite(est)
        for which in props:
            self.keep(f"{which}_nrmse_{method}", nrmse(est, truth, which))

    def keep(self, key, value):
        """Record an accuracy value; every cycle must reproduce it exactly."""
        previous = self.values.setdefault(key, value)
        _require(previous == value, f"{key} changed between cycles: {previous} -> {value}")

    def check_eval(self, csv_path):
        rows = {}
        for line in Path(csv_path).read_text().splitlines()[1:]:
            prop, value, _ = line.split(",")
            rows[prop] = float(value)
        for which in ("t1", "t2"):
            mine = self.values[f"{which}_nrmse_dmpgd"]
            _require(
                math.isclose(rows[which], mine, rel_tol=EVAL_RTOL),
                f"eval {which} nrmse {rows[which]} != {mine}",
            )

    def check_train(self, history):
        check_history(history, self.spec.unrolled_epochs)
        self.keep("train_loss", history[-1])

    # ---- the run -----------------------------------------------------------------

    def cycle(self, st):
        work = self.workdir / "cycle"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        cfg, d = self.config_path, self.dict_dir
        sim, truth = work / "sim", work / "sim" / "truth"
        bp, pgd, csv = work / "rec_bpdm", work / "rec_dmpgd", work / "metrics.csv"
        self.kspace = None

        for _ in range(REPEATS["build_dict"]):
            self.attempt("build_dict", lambda: self.build_dict(work / "dict"))
        for _ in range(REPEATS["simulate"]):
            self.attempt(
                "simulate",
                lambda: self.cli("simulate", "--config", cfg, "--dict", d, "--out", sim),
                lambda _: self.check_kspace(sim),
            )
        for method, out, props in (("bp-dm", bp, ("t1",)), ("dm-pgd", pgd, ("t1", "t2"))):
            name = method.replace("-", "")
            for _ in range(REPEATS[f"recon_{name}"]):
                self.attempt(
                    f"recon_{name}",
                    lambda method=method, out=out: self.cli(
                        "reconstruct", "--config", cfg, "--data", sim, "--dict", d,
                        "--method", method, "--out", out,
                    ),
                    lambda _, name=name, out=out, props=props: self.score(name, out, truth, props),
                )
        self.attempt(
            "eval",
            lambda: self.cli("eval", "--est", pgd, "--truth", truth, "--out", csv),
            lambda _: self.check_eval(csv),
        )

        for p, v in zip(st.model.encoder.parameters(), st.encoder_init):
            p.value = v.copy()
        self.attempt(
            "pretrain_encoder",
            lambda: self.pretrain_encoder(st),
            lambda h: check_history(h, self.spec.encoder_epochs),
        )
        st.model.log_alpha.value[:] = np.log(1.0 / st.lam_max)
        self.attempt("train_unrolled", lambda: self.train_unrolled(st), self.check_train)
        for _ in range(REPEATS["recon_neural"]):
            self.attempt("recon_neural", lambda: self.recon_neural(st), check_neural_maps)
        self.attempt(
            "bp_neural",
            lambda: recon.backprojection_baseline(self.kspace, st.op, encoder=st.model.encoder),
            check_neural_maps,
        )

    def execute(self, seconds, trace):
        """Set up, then cycle. A traced run traces the set-ups and every
        second cycle; the untraced cycles between them are the reference for
        the tracing overhead."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(make_config(self.spec, self.inputs)))
        nufft.set_fft_workers(1)  # what --threads 1 does for the CLI commands
        self.clock.install()
        if trace:
            self.tracer.install()
        try:
            state = None
            self.tracer.enabled = bool(trace)
            for _ in range(self.spec.setups):
                state = self.attempt("setup", self.setup, self.check_setup) or state
            if state is None:
                raise RuntimeError("every set-up failed; nothing to measure")
            while len(self.cycle_seconds) < (2 if trace else 1) or sum(self.cycle_seconds) < seconds:
                traced = bool(trace) and len(self.cycle_seconds) % 2 == 1
                self.tracer.enabled = traced
                t0 = time.perf_counter()
                self.cycle(state)
                self.cycle_seconds.append(time.perf_counter() - t0)
                self.cycle_traced.append(traced)
            self.tracer.enabled = False
        finally:
            self.tracer.uninstall()
            self.clock.uninstall()


# ---------------------------------------------------------------------------
# metrics


def _median(xs):
    return statistics.median(xs) if xs else None


END_TO_END = (
    # name, unit, source: ("samples", op kind) | ("value", key) | ("rss",)
    ("setup_s", "s", ("samples", "setup")),
    ("peak_rss_mb", "MB", ("rss",)),
    ("build_dict_s", "s", ("samples", "build_dict")),
    ("simulate_s", "s", ("samples", "simulate")),
    ("recon_bpdm_s", "s", ("samples", "recon_bpdm")),
    ("recon_dmpgd_s", "s", ("samples", "recon_dmpgd")),
    ("t1_nrmse_bpdm", "ratio", ("value", "t1_nrmse_bpdm")),
    ("t1_nrmse_dmpgd", "ratio", ("value", "t1_nrmse_dmpgd")),
    ("t2_nrmse_dmpgd", "ratio", ("value", "t2_nrmse_dmpgd")),
    ("pretrain_step_s", "s", ("samples", "pretrain_step")),
    ("train_step_s", "s", ("samples", "train_step")),
    ("recon_neural_s", "s", ("samples", "recon_neural")),
    ("train_loss", "loss", ("value", "train_loss")),
)


def end_to_end(run):
    """{name: (value, unit, note)}; value None when no sample succeeded.

    Timings are medians of the samples scaled to reference speed (see
    SpeedReference); the note gives the sample count and the median wall time.
    """
    out = {}
    for name, unit, src in END_TO_END:
        if src[0] == "samples":
            walls, refs = run.samples[src[1]], run.sample_refs[src[1]]
            scaled = [t * run.reference.scale(i) for t, i in zip(walls, refs)]
            note = f"median of {len(walls)}, wall median {_median(walls) or 0.0:.6g} s"
            out[name] = (_median(scaled), unit, note)
        elif src[0] == "value":
            out[name] = (run.values.get(src[1]), unit, "")
        else:
            # the speed reference's arrays stay resident from the start of the
            # run, so they add a constant to every point of the resident set
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            note = f"speed reference's {run.reference.nbytes / 2**20:.1f} MB left out"
            out[name] = ((peak_kib * 1024 - run.reference.nbytes) / 2**20, unit, note)
    return out


# span name -> fields reported for it
SPAN_FIELDS = (
    ("epg.simulate_epg_batch", ("busy_s", "calls")),
    ("dictionary.build_dictionary", ("self_s",)),
    ("dictionary.compute_subspace", ("busy_s",)),
    ("dictionary.dictionary_match", ("busy_s", "calls")),
    ("dictionary.compressed_atoms", ("busy_s",)),
    ("recon.pgd_reconstruct", ("self_s", "calls")),
    ("recon.prox", ("busy_s", "calls")),
    ("recon.backprojection_baseline", ("self_s",)),
    ("acquisition.init", ("busy_s",)),
    ("acquisition.forward", ("busy_s", "calls")),
    ("acquisition.adjoint", ("busy_s", "calls")),
    ("acquisition.backproject", ("busy_s",)),
    ("acquisition.estimate_operator_norm", ("busy_s",)),
    ("nufft.plan.forward", ("busy_s", "calls")),
    ("nufft.plan.adjoint", ("busy_s", "calls")),
    ("nufft.fft", ("busy_s", "calls")),
    ("autodiff.Tape.backward", ("busy_s", "self_s")),
    ("autodiff.Adam.step", ("busy_s",)),
    ("neuralprox.unrolled_loss_nodes", ("busy_s", "self_s")),
    ("neuralprox.EncoderNet.apply", ("busy_s",)),
    ("neuralprox.BlochDecoderNet.apply", ("busy_s",)),
    ("neuralprox.pretrain_bloch_decoder", ("busy_s",)),
    ("phantom.phantom_tsmi", ("busy_s",)),
    ("phantom.simulate_measurements", ("busy_s",)),
    ("tensorfile.write_tensor", ("busy_s",)),
    ("tensorfile.read_tensor", ("busy_s",)),
    ("cli.write_manifest", ("busy_s",)),
)

# computed counts, totals over the traced window
COMPUTED = (
    ("epg.state_updates", "count"),
    ("dictionary.match.voxel_atom_products", "count"),
    ("acquisition.estimate_operator_norm.iters", "count"),
    ("nufft.interp.taps", "count"),
    ("nufft.fft.flops", "flop"),
    ("nufft.bytes_computed", "B"),
    ("tensorfile.write_tensor.bytes", "B"),
    ("tensorfile.read_tensor.bytes", "B"),
)

COMPUTED_NAMES = {n for n, _ in COMPUTED} | {"autodiff.tape.nodes", "autodiff.tape.mb"}

# (op kind, layers): the share of that op's wall time spent in each layer's own code
SHARES = (
    ("build_dict", ("epg", "dictionary", "acquisition", "nufft")),
    ("recon_dmpgd", ("acquisition", "nufft", "dictionary", "recon")),
    ("train_unrolled", ("acquisition", "nufft", "autodiff", "neuralprox")),
    ("pretrain_encoder", ("autodiff", "neuralprox", "acquisition", "nufft")),
    ("setup", ("neuralprox", "epg", "acquisition", "nufft")),
)

_UNITS = {"busy_s": "s", "self_s": "s", "calls": "count"}


def per_layer_names():
    """[(name, unit)] of every per-layer metric, in report order."""
    names = [(f"{span}.{f}", _UNITS[f]) for span, fields in SPAN_FIELDS for f in fields]
    names += [("acquisition.self_s", "s"), ("nufft.interp.self_s", "s"), ("other.self_s", "s")]
    names += list(COMPUTED)
    names += [("autodiff.tape.nodes", "count"), ("autodiff.tape.mb", "MB")]
    names += [(f"{op}.{layer}.share", "share") for op, layers in SHARES for layer in layers]
    names += [("trace.overhead_s", "s"), ("trace.overhead_share", "share")]
    return names


def per_layer(run):
    """{name: (value, unit)} per round, plus the per-op breakdown.

    A round is one set-up plus one of each cycle operation: every time and
    count is the total over the traced operations of each kind divided by how
    many of that kind were traced, so a count comes out the same however many
    cycles the run made.
    """
    tracer = run.tracer
    by_name, per_op = tracer.summarize()
    n_ops = defaultdict(int)
    for _, kind, _ in tracer.ops:
        n_ops[kind] += 1

    def per_round(pairs):
        """Sum of (op kind, total) pairs, each total divided by its op count."""
        return sum(total / n_ops[kind] for kind, total in pairs)

    def field_sum(names, f):
        return per_round((kind, e[f]) for (n, kind), e in by_name.items() if n in names)

    values = {}
    for span, fields in SPAN_FIELDS:
        for f in fields:
            values[f"{span}.{f}"] = field_sum({span}, f)
    acq = {n for n, _ in by_name if n.startswith("acquisition.")}
    values["acquisition.self_s"] = field_sum(acq, "self_s")
    values["nufft.interp.self_s"] = field_sum({"nufft.plan.forward", "nufft.plan.adjoint"}, "self_s")
    values["other.self_s"] = per_round((op["kind"], op["layers"].get("other", 0.0)) for op in per_op)

    kinds = {op_id: kind for op_id, kind, _ in tracer.ops}
    for name, _ in COMPUTED:
        values[name] = per_round((kinds[op], v) for (c, op), v in tracer.counts.items() if c == name)
    training = defaultdict(int)
    for (counter, op_id), v in tracer.counts.items():
        if kinds[op_id] == "train_unrolled":
            training[counter] += v
    steps = n_ops["train_unrolled"] * run.spec.unrolled_epochs * run.spec.n_train
    values["autodiff.tape.nodes"] = training["autodiff.tape.nodes"] / steps
    values["autodiff.tape.mb"] = training["autodiff.tape.bytes"] / steps / 1e6

    walls, layers = defaultdict(float), defaultdict(float)
    for op in per_op:
        walls[op["kind"]] += op["wall_s"]
        for layer, t in op["layers"].items():
            layers[(op["kind"], layer)] += t
    for kind, names in SHARES:
        for layer in names:
            values[f"{kind}.{layer}.share"] = layers[(kind, layer)] / walls[kind] if walls[kind] else 0.0

    traced = [t for t, on in zip(run.cycle_seconds, run.cycle_traced) if on]
    untraced = [t for t, on in zip(run.cycle_seconds, run.cycle_traced) if not on]
    overhead = statistics.median(traced) - statistics.median(untraced)
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / statistics.median(untraced)
    units = dict(per_layer_names())
    return {n: (values[n], units[n]) for n in units}, per_op


def environment():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "fft_workers": getattr(nufft, "_FFT_WORKERS", "?"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
    }
