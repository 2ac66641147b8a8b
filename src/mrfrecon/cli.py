"""Command-line pipeline: build-dict, simulate, reconstruct, train, eval, render.

Every command reads a JSON config (unknown keys rejected, all fields optional
with the documented defaults) and writes only into its --out directory. All
commands but eval, which writes only its CSV, drop a manifest.json recording
the echoed config, input hashes, output hashes, library versions, and wall
time. Exit codes: 0 ok, 1 runtime error, 2 config error. Runs are
bit-reproducible for a fixed seed and --threads 1 (the manifest's wall-time
field is the one volatile output): BLAS and OpenMP run single-threaded, pinned
when the package loads (see __init__), and --threads sets the FFT workers.
"""

import argparse
import copy
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, nufft
from .acquisition import (
    TRAJECTORY_KINDS,
    AcquisitionOperator,
    make_trajectory,
    simulate_coil_maps,
)
from .dictionary import build_dictionary, compute_subspace, valid_pairs
from .epg import SequenceParams, load_flip_schedule_csv, sinusoidal_flip_schedule
from .errors import ConfigError
from .neuralprox import (
    TrainConfig,
    UnrolledModel,
    load_model,
    pretrain_bloch_decoder,
    pretrain_encoder,
    save_model,
    train_unrolled,
)
from .phantom import (
    NoiseSpec,
    make_phantom,
    metrics_rows,
    random_regions,
    simulate_measurements,
)
from .recon import (
    PgdConfig,
    backprojection_baseline,
    make_dictionary_prox,
    pgd_reconstruct,
)
from .tensorfile import (
    input_hashes,
    load_dictionary,
    load_maps,
    load_simulation,
    open_fresh,
    save_dictionary,
    save_maps,
    save_simulation,
    sha256,
    write_json,
)

DEFAULT_CONFIG = {
    "sequence": {
        "n_frames": 1000,
        "tr_ms": 10.0,
        "te_ms": 1.8,
        "ti_ms": 18.0,
        "invert_first": True,
        "flip_csv": None,
    },
    "grid": {
        "t1": {"min": 100.0, "max": 4000.0, "count": 60},
        "t2": {"min": 10.0, "max": 600.0, "count": 50},
    },
    "subspace": {"s": 10},
    "trajectory": {"kind": "golden_radial", "d": None, "r": 10},
    "coils": {"count": 8},
    "phantom": {"preset": "default", "matrix": 64, "regions": None},
    "noise": {"sigma": 0.0, "seed": 1234},
    "recon": {
        "iterations": 5,
        "step_size": None,
        "power_iters": 30,
        "record_trace": True,
    },
    "train": {
        "beta": [1.0, 0.3, 0.6],
        "lambda": 1e-3,
        "epochs": 500,
        "lr": 1e-3,
        "seed": 0,
        "batch_size": 1,
        "n_train": 3,
        "width": 32,
        "attention": False,
        "encoder_epochs": None,
        "decoder_epochs": 400,
        "decoder_lr": 1e-3,
        "decoder_hidden": 64,
        "decoder_offgrid": 1500,
        "decoder_threshold": 0.02,
    },
    "epg": {"k_max": 50},
}

RECON_METHODS = ("dm-pgd", "neural-unrolled", "bp-dm", "bp-neural")

RENDER_WINDOWS = {"t1": (0.0, 4000.0), "t2": (0.0, 600.0), "pd": (0.0, 1.5)}


# ---------------------------------------------------------------------------
# config plumbing


def _merge_config(user, defaults, path=""):
    merged = copy.deepcopy(defaults)
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(defaults[key], dict) and defaults[key]:
            if not isinstance(value, dict):
                raise ConfigError(f"config key {here} must be a JSON object")
            merged[key] = _merge_config(value, defaults[key], here)
        else:
            merged[key] = value
    return merged


def load_config(path):
    """Load and validate a config file; None gives the documented defaults."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path) as fh:
            user = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge_config(user, DEFAULT_CONFIG)


_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", list: "a list"}


def _is_kind(value, kind):
    """Whether a JSON value is of `kind`: int, float (any finite number), bool,
    str or list. JSON true and false are neither integers nor numbers; json
    reads NaN, Infinity and 1e400 as floats, which no number key takes."""
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _setting(cfg, key, kind):
    """The value at the dotted config `key`; a config error unless it is of
    `kind` (see `_is_kind`). Numbers come back as float."""
    value = cfg
    for name in key.split("."):
        value = value[name]
    if not _is_kind(value, kind):
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {json.dumps(value)}")
    return float(value) if kind is float else value


def _at_least(cfg, key, low):
    """The integer at the dotted config `key`; a config error below `low`."""
    value = _setting(cfg, key, int)
    if value < low:
        raise ConfigError(f"{key} must be >= {low}")
    return value


def _above_zero(cfg, key):
    """The number at the dotted config `key`; a config error unless it is > 0."""
    value = _setting(cfg, key, float)
    if value <= 0:
        raise ConfigError(f"{key} must be > 0")
    return value


def _noise_sigma(cfg):
    sigma = _setting(cfg, "noise.sigma", float)
    if sigma < 0:
        raise ConfigError("noise.sigma must be >= 0")
    return sigma


def build_sequence(cfg):
    sc = cfg["sequence"]
    n_frames = _at_least(cfg, "sequence.n_frames", 1)
    if sc["flip_csv"] is None:
        flips = sinusoidal_flip_schedule(n_frames)
    else:
        try:
            flips = load_flip_schedule_csv(_setting(cfg, "sequence.flip_csv", str))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"sequence.flip_csv: {exc}") from None
        if flips.size != n_frames:
            raise ConfigError(
                f"sequence.flip_csv holds {flips.size} angles but "
                f"sequence.n_frames is {n_frames}"
            )
    try:
        return SequenceParams(
            flip_angles_rad=flips,
            tr_ms=_setting(cfg, "sequence.tr_ms", float),
            te_ms=_setting(cfg, "sequence.te_ms", float),
            ti_ms=_setting(cfg, "sequence.ti_ms", float),
            invert_first=_setting(cfg, "sequence.invert_first", bool),
        )
    except ValueError as exc:
        raise ConfigError(f"sequence: {exc}") from None


def build_grid_values(cfg):
    values = []
    for name in ("t1", "t2"):
        lo = _setting(cfg, f"grid.{name}.min", float)
        hi = _setting(cfg, f"grid.{name}.max", float)
        count = _at_least(cfg, f"grid.{name}.count", 1)
        if lo <= 0 or hi <= lo:
            raise ConfigError(f"grid.{name}.min/max must satisfy 0 < min < max")
        values.append(np.geomspace(lo, hi, count))
    if valid_pairs(*values)[0].size == 0:
        raise ConfigError("grid.t2 lies above grid.t1: no (t1, t2) pair has t2 <= t1")
    return values


def build_operator(cfg, matrix, sub):
    tc = cfg["trajectory"]
    if tc["kind"] not in TRAJECTORY_KINDS:
        raise ConfigError(f"trajectory.kind unknown: {tc['kind']!r}")
    r = _at_least(cfg, "trajectory.r", 1)
    if r > sub.n_frames:
        raise ConfigError(f"trajectory.r={r} leaves no frames of the dictionary's {sub.n_frames}")
    if tc["d"] is not None and tc["kind"] != "golden_radial":
        raise ConfigError(
            f"trajectory.d cannot be set for trajectory.kind {tc['kind']!r}: "
            "its lines always hold the matrix size"
        )
    d = matrix if tc["d"] is None else _at_least(cfg, "trajectory.d", 1)
    coil_maps = simulate_coil_maps(_at_least(cfg, "coils.count", 1), matrix)
    traj = make_trajectory(tc["kind"], matrix, d=d, frames=sub.n_frames // r)
    return AcquisitionOperator(coil_maps, traj, sub), traj


def pgd_config(cfg):
    """The PGD settings of the recon block, checked before any work is done.

    recon.power_iters caps the normal-operator applications of the 1/lambda
    step estimate (Lanczos, which usually stops well before the cap).
    """
    iterations = _at_least(cfg, "recon.iterations", 1)
    power_iters = _at_least(cfg, "recon.power_iters", 1)
    steps = cfg["recon"]["step_size"]
    if steps is not None and not all(
        _is_kind(v, float) for v in (steps if isinstance(steps, list) else [steps])
    ):
        raise ConfigError(
            f"recon.step_size must be a number or a list of numbers, got {json.dumps(steps)}"
        )
    try:
        return PgdConfig(
            iterations=iterations,
            step_sizes=steps,
            record_trace=_setting(cfg, "recon.record_trace", bool),
            power_iters=power_iters,
        )
    except ValueError as exc:
        raise ConfigError(f"recon.step_size: {exc}") from None


def train_config(cfg):
    """The train block's TrainConfig, checked before any work is done; every
    other train key is checked here too, so the reads after the training
    data is simulated cannot fail."""
    tc = cfg["train"]
    if _setting(cfg, "train.batch_size", int) != 1:
        raise ConfigError("train.batch_size must be 1; minibatching is not implemented")
    for key in ("epochs", "n_train", "width", "decoder_epochs", "decoder_hidden"):
        _at_least(cfg, f"train.{key}", 1)
    if tc["encoder_epochs"] is not None:
        _at_least(cfg, "train.encoder_epochs", 1)
    _at_least(cfg, "train.decoder_offgrid", 0)
    for key in ("decoder_lr", "decoder_threshold"):
        _above_zero(cfg, f"train.{key}")
    _setting(cfg, "train.attention", bool)
    beta = tc["beta"]
    if not (
        isinstance(beta, list) and len(beta) == 3
        and all(_is_kind(b, float) for b in beta) and min(beta) >= 0
    ):
        raise ConfigError("train.beta must be three weights >= 0")
    lam = _setting(cfg, "train.lambda", float)
    if lam < 0:
        raise ConfigError("train.lambda must be >= 0")
    return TrainConfig(
        beta=tuple(beta),
        lam=lam,
        epochs=tc["epochs"],
        lr=_above_zero(cfg, "train.lr"),
        seed=_at_least(cfg, "train.seed", 0),
    )


def build_phantom_from_config(cfg):
    pc = cfg["phantom"]
    matrix = _at_least(cfg, "phantom.matrix", 8)
    key, kind = ("preset", str) if pc["regions"] is None else ("regions", list)
    spec = {key: _setting(cfg, f"phantom.{key}", kind)}
    try:
        return make_phantom(spec, matrix)
    except ValueError as exc:
        raise ConfigError(f"phantom.{key}: {exc}") from None


# ---------------------------------------------------------------------------
# outputs besides the artifact directories of `tensorfile`


def write_manifest(args, config, inputs, **results):
    """manifest.json in --out of the command `args` ran: its echoed arguments,
    config and inputs, the hash of every other file under --out, `results`
    (further top-level keys that record what the run decided, such as the
    step sizes PGD took), versions, and the wall time since main started it."""
    outdir = args.out
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    echoed = {name: getattr(args, name) for name in args.echo}
    manifest = {
        "command": args.command,
        "config": config,
        "args": {k: None if v is None else str(v) for k, v in echoed.items()},
        "inputs": inputs,
        "outputs": {
            str(p.relative_to(outdir)): sha256(p)
            for p in sorted(outdir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"
        },
        **results,
        "versions": {
            "mrfrecon": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "python": sys.version.split()[0],
        },
        "wall_time_s": round(time.monotonic() - args.t0, 3),
    }
    write_json(outdir / "manifest.json", manifest)
    return manifest


def write_csv(path, header, rows):
    """A CSV of a header line and `rows`; numbers get 17 significant digits."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open_fresh(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n")


def write_pgm16(path, img, lo, hi):
    """16-bit binary PGM with a fixed display window."""
    scaled = np.clip((np.asarray(img, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
    data = np.round(scaled * 65535.0).astype(">u2")
    h, w = data.shape
    with open_fresh(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode())
        fh.write(data.tobytes())


# ---------------------------------------------------------------------------
# commands


def cmd_build_dict(args):
    cfg = load_config(args.config)
    seq = build_sequence(cfg)
    t1_values, t2_values = build_grid_values(cfg)
    k_max = _at_least(cfg, "epg.k_max", 2)
    s_max = min(seq.n_frames, valid_pairs(t1_values, t2_values)[0].size)
    s = _setting(cfg, "subspace.s", int)
    if not 1 <= s <= s_max:
        raise ConfigError(f"subspace.s must lie in [1, {s_max}]")
    grid = build_dictionary(seq, t1_values, t2_values, k_max=k_max)
    sub = compute_subspace(grid, s)

    proj = grid.atoms @ sub.basis
    resid = grid.atoms - proj @ sub.basis.T
    rel = np.linalg.norm(resid, axis=1)  # atoms are unit norm
    power = sub.singular_values**2
    subspace = {
        "s": s,
        "energy_captured": float(power[:s].sum() / power.sum()),
        "atom_residual_mean": float(rel.mean()),
        "atom_residual_max": float(rel.max()),
    }
    save_dictionary(args.out, grid, sub)
    write_manifest(args, cfg, {}, subspace=subspace)
    print(f"n_atoms: {grid.n_atoms}")
    print(
        f"subspace s={s}: mean atom residual {rel.mean():.3e}, "
        f"max {rel.max():.3e}"
    )
    return 0


def cmd_simulate(args):
    cfg = load_config(args.config)
    k_max = _at_least(cfg, "epg.k_max", 2)
    noise = NoiseSpec(sigma=_noise_sigma(cfg), seed=_at_least(cfg, "noise.seed", 0))
    grid, sub = load_dictionary(args.dict)
    phantom = build_phantom_from_config(cfg)
    op, traj = build_operator(cfg, phantom.maps.shape[0], sub)
    y = simulate_measurements(phantom, grid.seq, sub, op, noise=noise, k_max=k_max)
    truth = phantom.maps.zero_outside_mask()
    save_simulation(args.out, y, op.coil_maps, traj, cfg["trajectory"]["r"], truth)
    write_manifest(args, cfg, input_hashes(args.dict))
    print(f"k-space: {y.shape[0]} frames x {y.shape[1]} coils x {y.shape[2]} samples")
    return 0


def cmd_reconstruct(args):
    cfg = load_config(args.config)
    method = args.method
    neural = method in ("neural-unrolled", "bp-neural")
    if neural and args.model is None:
        raise ConfigError(f"method {method} requires --model")
    if not neural and args.model is not None:
        raise ConfigError(f"--model cannot be set for method {method}: it reads no checkpoint")
    pcfg = pgd_config(cfg) if method == "dm-pgd" else None
    y, coil_maps, traj, sim_inputs = load_simulation(args.data)
    grid, sub = load_dictionary(args.dict)
    inputs = input_hashes(args.dict, args.data, args.model)
    recorded = sim_inputs.get("dictionary", {}).get("subspace_sha256")
    if recorded not in (None, inputs["dictionary"]["subspace_sha256"]):
        raise ConfigError(
            "subspace hash mismatch: measurements were simulated with a "
            "different dictionary subspace"
        )

    model = None
    if neural:
        model, _ = load_model(args.model)
        # neural-unrolled runs the checkpoint's iterations and steps
        if method == "neural-unrolled" and cfg["recon"]["step_size"] is not None:
            raise ConfigError("recon.step_size cannot be set for neural-unrolled: it uses the learned steps")
        if method == "neural-unrolled" and (
            _setting(cfg, "recon.iterations", int) != model.iterations
        ):
            raise ConfigError(f"recon.iterations must equal the checkpoint's {model.iterations}")

    op = AcquisitionOperator(coil_maps, traj, sub)
    results = {}
    if method == "bp-dm":
        maps = backprojection_baseline(y, op, grid=grid, sub=sub)
    elif method == "bp-neural":
        maps = backprojection_baseline(y, op, encoder=model.encoder)
    else:
        if method == "dm-pgd":
            prox = make_dictionary_prox(grid, sub)
        else:  # neural-unrolled
            prox = model.make_prox()
            pcfg = PgdConfig(
                iterations=model.iterations,
                step_sizes=model.step_sizes,
                record_trace=_setting(cfg, "recon.record_trace", bool),
                init_equalize=False,
            )
        maps, _, trace = pgd_reconstruct(y, op, prox, pcfg)
        write_csv(args.out / "trace.csv", "iteration,fidelity", enumerate(trace.fidelity))
        results["step_sizes"] = trace.step_sizes

    save_maps(args.out, maps)
    write_manifest(args, cfg, inputs, **results)
    print(f"reconstructed {method} -> {args.out}")
    return 0


def cmd_train(args):
    cfg = load_config(args.config)
    tc = cfg["train"]
    train_cfg = train_config(cfg)
    pcfg = pgd_config(cfg)
    if pcfg.step_sizes is not None:
        raise ConfigError("recon.step_size cannot be set for train: unrolled steps start at 1/lambda")
    k_max = _at_least(cfg, "epg.k_max", 2)
    sigma = _noise_sigma(cfg)
    matrix = _at_least(cfg, "phantom.matrix", 8)
    grid, sub = load_dictionary(args.dict)
    op, _ = build_operator(cfg, matrix, sub)

    # training phantoms with randomized ellipse layouts
    rng = np.random.default_rng(train_cfg.seed)
    dataset = []
    for _ in range(int(tc["n_train"])):
        phantom = make_phantom({"regions": random_regions(rng)}, matrix)
        noise = NoiseSpec(sigma=sigma, seed=int(rng.integers(2**31)))
        y = simulate_measurements(phantom, grid.seq, sub, op, noise=noise, k_max=k_max)
        dataset.append((y, phantom.maps.zero_outside_mask()))

    print("pretraining Bloch decoder ...")
    decoder, dec_history = pretrain_bloch_decoder(
        grid,
        sub,
        epochs=int(tc["decoder_epochs"]),
        lr=float(tc["decoder_lr"]),
        seed=train_cfg.seed,
        n_offgrid=int(tc["decoder_offgrid"]),
        hidden=int(tc["decoder_hidden"]),
        threshold=float(tc["decoder_threshold"]),
        k_max=k_max,
    )
    print(f"decoder loss: {dec_history[-1]:.3e}")

    model = UnrolledModel.create(
        s=sub.s,
        iterations=pcfg.iterations,
        width=int(tc["width"]),
        seed=train_cfg.seed,
        attention=bool(tc["attention"]),
        hidden=int(tc["decoder_hidden"]),
    )
    model.decoder = decoder

    enc_epochs = tc["encoder_epochs"]
    enc_epochs = train_cfg.epochs if enc_epochs is None else int(enc_epochs)
    enc_cfg = dataclasses.replace(train_cfg, lam=0.0, epochs=enc_epochs)
    print("pretraining encoder on back-projections ...")
    _, enc_history = pretrain_encoder(dataset, op, model.encoder, enc_cfg)
    print(f"baseline encoder loss: {enc_history[-1]:.3e}")
    save_model(
        args.out / "baseline",
        model,
        seed=train_cfg.seed,
        train_config={"stage": "baseline", "epochs": enc_epochs},
        loss_history=enc_history,
    )

    lam_max = op.estimate_operator_norm(iters=pcfg.power_iters)
    model.log_alpha.value[:] = np.log(1.0 / lam_max)
    print("unrolled training ...")
    _, history = train_unrolled(dataset, op, model, train_cfg)
    print(f"unrolled loss: {history[-1]:.3e}")
    save_model(
        args.out / "unrolled",
        model,
        seed=train_cfg.seed,
        train_config={
            "stage": "unrolled",
            "beta": list(train_cfg.beta),
            "lambda": train_cfg.lam,
            "epochs": train_cfg.epochs,
            "lr": train_cfg.lr,
        },
        loss_history=history,
    )
    stages = {"decoder": dec_history, "baseline": enc_history, "unrolled": history}
    rows = [(stage, i, v) for stage, h in stages.items() for i, v in enumerate(h)]
    write_csv(args.out / "loss_history.csv", "stage,epoch,loss", rows)
    write_manifest(args, cfg, input_hashes(args.dict))
    return 0


def cmd_eval(args):
    rows = metrics_rows(load_maps(args.est), load_maps(args.truth))
    write_csv(args.out, "property,nrmse,mae", rows)
    for prop, nr, ma in rows:
        print(f"{prop}: nrmse={nr:.4f} mae={ma:.4f}")
    return 0


def cmd_render(args):
    maps = load_maps(args.maps)
    args.out.mkdir(parents=True, exist_ok=True)
    for prop, (lo, hi) in RENDER_WINDOWS.items():
        write_pgm16(args.out / f"{prop}.pgm", maps.property_map(prop), lo, hi)
    write_manifest(args, {}, {})
    print(f"rendered t1/t2/pd -> {args.out}")
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mrfrecon", description="Compressive MRF reconstruction pipeline"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="FFT worker threads; 1 (the default) guarantees bit-reproducible runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, echo, config=True):
        """A subcommand; `echo` names the arguments its manifest records."""
        p = sub.add_parser(name, help=help)
        if config:
            p.add_argument("--config", default=None)
        p.add_argument("--out", required=True, type=Path)
        p.set_defaults(func=func, echo=echo)
        return p

    command("build-dict", cmd_build_dict, "build dictionary + subspace", ("out",))

    p = command("simulate", cmd_simulate, "simulate phantom measurements", ("dict", "out"))
    p.add_argument("--dict", required=True)

    p = command(
        "reconstruct", cmd_reconstruct, "reconstruct maps from measurements",
        ("data", "dict", "method", "model", "out"),
    )
    p.add_argument("--data", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--method", required=True, choices=RECON_METHODS)

    p = command("train", cmd_train, "train the unrolled model", ("dict", "out"))
    p.add_argument("--dict", required=True)

    p = command("eval", cmd_eval, "NRMSE/MAE of estimated maps vs truth", (), config=False)
    p.add_argument("--est", required=True)
    p.add_argument("--truth", required=True)

    p = command("render", cmd_render, "render maps to 16-bit PGM images", ("maps", "out"), config=False)
    p.add_argument("--maps", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    nufft.set_fft_workers(args.threads)
    args.t0 = time.monotonic()  # the manifest's wall time counts from here
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
