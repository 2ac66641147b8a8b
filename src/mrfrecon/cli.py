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
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .acquisition import (
    AcquisitionOperator,
    Trajectory,
    make_trajectory,
    simulate_coil_maps,
    truncate_acceleration,
)
from .dictionary import (
    DictionaryGrid,
    Subspace,
    build_dictionary,
    compute_subspace,
)
from .epg import SequenceParams, load_flip_schedule_csv, sinusoidal_flip_schedule
from .errors import ConfigError
from .maps import QMaps
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
    snap_regions_to_grid,
)
from .recon import (
    PgdConfig,
    backprojection_baseline,
    make_dictionary_prox,
    pgd_reconstruct,
)
from .tensorfile import open_fresh, read_json, read_tensor, write_json, write_tensor

DEFAULT_CONFIG = {
    "sequence": {
        "n_frames": 1000,
        "tr_ms": 10.0,
        "te_ms": 1.8,
        "ti_ms": 18.0,
        "invert_first": True,
        "flip_schedule": "sinusoidal",
        "flip_csv": None,
    },
    "grid": {
        "t1": {"min": 100.0, "max": 4000.0, "count": 60, "spacing": "log"},
        "t2": {"min": 10.0, "max": 600.0, "count": 50, "spacing": "log"},
    },
    "subspace": {"s": 10},
    "trajectory": {"kind": "golden_radial", "d": None, "r": 10},
    "coils": {"count": 8},
    "phantom": {
        "preset": "default",
        "matrix": 64,
        "snap_to_grid": False,
        "regions": None,
    },
    "noise": {"sigma": 0.0, "seed": 1234},
    "recon": {
        "method": "dm-pgd",
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
        "n_regions": 6,
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge_config(user, DEFAULT_CONFIG)


def build_sequence(cfg):
    sc = cfg["sequence"]
    if sc["flip_csv"] is not None:
        flips = load_flip_schedule_csv(sc["flip_csv"])
    elif sc["flip_schedule"] == "sinusoidal":
        if sc["n_frames"] < 1:
            raise ConfigError("sequence.n_frames must be >= 1")
        flips = sinusoidal_flip_schedule(int(sc["n_frames"]))
    else:
        raise ConfigError(
            f"sequence.flip_schedule must be 'sinusoidal' (got {sc['flip_schedule']!r})"
        )
    try:
        return SequenceParams(
            flip_angles_rad=flips,
            tr_ms=float(sc["tr_ms"]),
            te_ms=float(sc["te_ms"]),
            ti_ms=float(sc["ti_ms"]),
            invert_first=bool(sc["invert_first"]),
        )
    except ValueError as exc:
        raise ConfigError(f"sequence: {exc}") from None


def build_grid_values(cfg):
    values = []
    for name in ("t1", "t2"):
        g = cfg["grid"][name]
        lo, hi, count = float(g["min"]), float(g["max"]), int(g["count"])
        if lo <= 0 or hi <= lo:
            raise ConfigError(f"grid.{name}.min/max must satisfy 0 < min < max")
        if count < 1:
            raise ConfigError(f"grid.{name}.count must be >= 1")
        if g["spacing"] == "log":
            values.append(np.geomspace(lo, hi, count))
        elif g["spacing"] == "linear":
            values.append(np.linspace(lo, hi, count))
        else:
            raise ConfigError(f"grid.{name}.spacing must be 'log' or 'linear'")
    return values


def build_operator(cfg, matrix, sub):
    tc = cfg["trajectory"]
    if tc["kind"] not in ("golden_radial", "cartesian_full", "cartesian_lines"):
        raise ConfigError(f"trajectory.kind unknown: {tc['kind']!r}")
    r = int(tc["r"])
    if r < 1:
        raise ConfigError("trajectory.r must be >= 1")
    n_frames = sub.n_frames
    d = tc["d"] if tc["d"] is not None else matrix
    traj = make_trajectory(tc["kind"], matrix, d=int(d), frames=n_frames)
    traj = truncate_acceleration(traj, r)
    n_coils = int(cfg["coils"]["count"])
    if n_coils < 1:
        raise ConfigError("coils.count must be >= 1")
    coil_maps = simulate_coil_maps(n_coils, matrix)
    return AcquisitionOperator(coil_maps, traj, sub), traj


def pgd_config(cfg):
    """The PGD settings of the recon block, checked before any work is done.

    recon.power_iters caps the normal-operator applications of the 1/lambda
    step estimate (Lanczos, which usually stops well before the cap).
    """
    rc = cfg["recon"]
    for key in ("iterations", "power_iters"):
        if int(rc[key]) < 1:
            raise ConfigError(f"recon.{key} must be >= 1")
    try:
        return PgdConfig(
            iterations=int(rc["iterations"]),
            step_sizes=rc["step_size"],
            record_trace=bool(rc["record_trace"]),
            power_iters=int(rc["power_iters"]),
        )
    except ValueError as exc:
        raise ConfigError(f"recon.step_size: {exc}") from None


def build_phantom_from_config(cfg, grid=None):
    pc = cfg["phantom"]
    matrix = int(pc["matrix"])
    if matrix < 8:
        raise ConfigError("phantom.matrix must be >= 8")
    if pc["regions"] is not None:
        regions = pc["regions"]
    else:
        from .phantom import PRESETS

        if pc["preset"] not in PRESETS:
            raise ConfigError(f"phantom.preset unknown: {pc['preset']!r}")
        regions = PRESETS[pc["preset"]]
    if pc["snap_to_grid"]:
        if grid is None:
            raise ConfigError("phantom.snap_to_grid requires a dictionary")
        regions = snap_regions_to_grid(
            regions, grid.t1_values_ms, grid.t2_values_ms
        )
    try:
        return make_phantom({"regions": regions}, matrix)
    except ValueError as exc:
        raise ConfigError(f"phantom: {exc}") from None


# ---------------------------------------------------------------------------
# artifact IO


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(outdir, command, config, args, inputs, t0, **results):
    """manifest.json of a command; `results` are further top-level keys that
    record what the run decided, such as the step sizes PGD took."""
    outdir = Path(outdir)
    outputs = {}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    for p in sorted(outdir.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            outputs[str(p.relative_to(outdir))] = _sha256(p)
    manifest = {
        "command": command,
        "config": config,
        "args": args,
        "inputs": inputs,
        "outputs": outputs,
        **results,
        "versions": {
            "mrfrecon": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "python": sys.version.split()[0],
        },
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    write_json(outdir / "manifest.json", manifest)
    return manifest


def save_dictionary(outdir, grid, sub, s):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_tensor(outdir / "atoms.mrfb", grid.atoms.astype(np.float64))
    write_tensor(outdir / "atom_norms.mrfb", grid.atom_norms.astype(np.float64))
    write_tensor(outdir / "atom_t1.mrfb", grid.atom_t1_ms.astype(np.float64))
    write_tensor(outdir / "atom_t2.mrfb", grid.atom_t2_ms.astype(np.float64))
    write_tensor(outdir / "subspace.mrfb", sub.basis.astype(np.float64))
    write_tensor(
        outdir / "singular_values.mrfb", sub.singular_values.astype(np.float64)
    )
    seq = grid.seq
    write_json(
        outdir / "dict.json",
        {
            "t1_values_ms": grid.t1_values_ms.tolist(),
            "t2_values_ms": grid.t2_values_ms.tolist(),
            "n_atoms": grid.n_atoms,
            "n_frames": grid.n_frames,
            "s": int(s),
            "sequence": {
                "flip_angles_rad": seq.flip_angles_rad.tolist(),
                "tr_ms": seq.tr_ms,
                "te_ms": seq.te_ms,
                "ti_ms": seq.ti_ms,
                "invert_first": seq.invert_first,
            },
        },
    )


def load_dictionary(directory):
    directory = Path(directory)
    meta = read_json(directory / "dict.json")
    seq = SequenceParams(
        flip_angles_rad=np.asarray(meta["sequence"]["flip_angles_rad"]),
        tr_ms=meta["sequence"]["tr_ms"],
        te_ms=meta["sequence"]["te_ms"],
        ti_ms=meta["sequence"]["ti_ms"],
        invert_first=meta["sequence"]["invert_first"],
    )
    grid = DictionaryGrid(
        t1_values_ms=np.asarray(meta["t1_values_ms"]),
        t2_values_ms=np.asarray(meta["t2_values_ms"]),
        atoms=read_tensor(directory / "atoms.mrfb"),
        atom_norms=read_tensor(directory / "atom_norms.mrfb"),
        atom_t1_ms=read_tensor(directory / "atom_t1.mrfb"),
        atom_t2_ms=read_tensor(directory / "atom_t2.mrfb"),
        seq=seq,
    )
    sub = Subspace(
        basis=read_tensor(directory / "subspace.mrfb"),
        singular_values=read_tensor(directory / "singular_values.mrfb"),
    )
    return grid, sub


def save_maps(directory, qmaps):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_tensor(directory / "t1.mrfb", qmaps.t1_ms.astype(np.float64))
    write_tensor(directory / "t2.mrfb", qmaps.t2_ms.astype(np.float64))
    write_tensor(directory / "pd.mrfb", qmaps.pd.astype(np.float64))
    write_tensor(directory / "mask.mrfb", qmaps.mask.astype(np.float64))


def load_maps(directory):
    directory = Path(directory)
    return QMaps(
        t1_ms=read_tensor(directory / "t1.mrfb"),
        t2_ms=read_tensor(directory / "t2.mrfb"),
        pd=read_tensor(directory / "pd.mrfb"),
        mask=read_tensor(directory / "mask.mrfb") > 0.5,
    )


def save_trajectory(outdir, traj, r):
    outdir = Path(outdir)
    write_tensor(outdir / "trajectory.mrfb", traj.points.astype(np.float64))
    write_json(
        outdir / "trajectory.json",
        {
            "kind": traj.kind,
            "matrix": traj.matrix,
            "d": traj.d,
            "frames": traj.frames,
            "r": int(r),
        },
    )


def load_trajectory(directory):
    directory = Path(directory)
    meta = read_json(directory / "trajectory.json")
    return Trajectory(
        kind=meta["kind"],
        matrix=meta["matrix"],
        points=read_tensor(directory / "trajectory.mrfb"),
    )


def write_pgm16(path, img, lo, hi):
    """16-bit binary PGM with a fixed display window."""
    scaled = np.clip((np.asarray(img, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
    data = np.round(scaled * 65535.0).astype(">u2")
    h, w = data.shape
    with open_fresh(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode())
        fh.write(data.tobytes())


def write_trace_csv(path, trace):
    with open_fresh(path, "w") as fh:
        fh.write("iteration,fidelity\n")
        for i, fid in trace.to_rows():
            fh.write(f"{i},{fid:.17g}\n")


def write_metrics_csv(path, rows):
    with open_fresh(path, "w") as fh:
        fh.write("property,nrmse,mae\n")
        for prop, nr, ma in rows:
            fh.write(f"{prop},{nr:.17g},{ma:.17g}\n")


def write_loss_history_csv(path, stages):
    """One `stage,epoch,loss` row per epoch; `stages` maps a stage to its losses."""
    with open_fresh(path, "w") as fh:
        fh.write("stage,epoch,loss\n")
        for stage, history in stages.items():
            for i, v in enumerate(history):
                fh.write(f"{stage},{i},{v:.17g}\n")


# ---------------------------------------------------------------------------
# commands


def cmd_build_dict(args):
    t0 = time.monotonic()
    cfg = load_config(args.config)
    if args.s is not None:
        cfg["subspace"]["s"] = int(args.s)
    seq = build_sequence(cfg)
    t1_values, t2_values = build_grid_values(cfg)
    grid = build_dictionary(
        seq, t1_values, t2_values, k_max=int(cfg["epg"]["k_max"])
    )
    s = int(cfg["subspace"]["s"])
    if not 1 <= s <= min(grid.n_frames, grid.n_atoms):
        raise ConfigError(
            f"subspace.s must lie in [1, {min(grid.n_frames, grid.n_atoms)}]"
        )
    sub = compute_subspace(grid, s)

    proj = grid.atoms @ sub.basis.conj()
    resid = grid.atoms - proj @ sub.basis.T
    rel = np.linalg.norm(resid, axis=1)  # atoms are unit norm
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    save_dictionary(outdir, grid, sub, s)
    write_manifest(outdir, "build-dict", cfg, {"out": str(outdir)}, {}, t0)
    print(f"n_atoms: {grid.n_atoms}")
    print(
        f"subspace s={s}: mean atom residual {rel.mean():.3e}, "
        f"max {rel.max():.3e}"
    )
    return 0


def _dict_inputs(dict_dir):
    dict_dir = Path(dict_dir)
    return {
        "dictionary": {
            "path": str(dict_dir),
            "subspace_sha256": _sha256(dict_dir / "subspace.mrfb"),
            "atoms_sha256": _sha256(dict_dir / "atoms.mrfb"),
        }
    }


def cmd_simulate(args):
    t0 = time.monotonic()
    cfg = load_config(args.config)
    grid, sub = load_dictionary(args.dict)
    phantom = build_phantom_from_config(cfg, grid=grid)
    matrix = phantom.maps.shape[0]
    op, traj = build_operator(cfg, matrix, sub)
    noise = NoiseSpec(
        sigma=float(cfg["noise"]["sigma"]), seed=int(cfg["noise"]["seed"])
    )
    y = simulate_measurements(
        phantom, grid.seq, sub, op, noise=noise, k_max=int(cfg["epg"]["k_max"])
    )

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_tensor(outdir / "kspace.mrfb", y)
    write_tensor(outdir / "coil_maps.mrfb", op.coil_maps)
    save_trajectory(outdir, traj, cfg["trajectory"]["r"])
    save_maps(outdir / "truth", phantom.maps.zero_outside_mask())
    write_manifest(
        outdir,
        "simulate",
        cfg,
        {"dict": str(args.dict), "out": str(outdir)},
        _dict_inputs(args.dict),
        t0,
    )
    print(f"k-space: {y.shape[0]} frames x {y.shape[1]} coils x {y.shape[2]} samples")
    return 0


def _load_sim(data_dir):
    data_dir = Path(data_dir)
    y = read_tensor(data_dir / "kspace.mrfb")
    coil_maps = read_tensor(data_dir / "coil_maps.mrfb")
    traj = load_trajectory(data_dir)
    manifest = read_json(data_dir / "manifest.json")
    return y, coil_maps, traj, manifest


def cmd_reconstruct(args):
    t0 = time.monotonic()
    cfg = load_config(args.config)
    method = args.method
    if method not in RECON_METHODS:
        raise ConfigError(f"recon method must be one of {RECON_METHODS}")
    pcfg = pgd_config(cfg) if method == "dm-pgd" else None
    y, coil_maps, traj, sim_manifest = _load_sim(args.data)
    grid, sub = load_dictionary(args.dict)

    recorded = (
        sim_manifest.get("inputs", {}).get("dictionary", {}).get("subspace_sha256")
    )
    current = _sha256(Path(args.dict) / "subspace.mrfb")
    if recorded is not None and recorded != current:
        raise ConfigError(
            "subspace hash mismatch: measurements were simulated with a "
            "different dictionary subspace"
        )

    op = AcquisitionOperator(coil_maps, traj, sub)
    model = None
    if method in ("neural-unrolled", "bp-neural"):
        if args.model is None:
            raise ConfigError(f"method {method} requires --model")
        model, _ = load_model(args.model)
        rc = cfg["recon"]  # neural-unrolled runs the checkpoint's iterations and steps
        if method == "neural-unrolled" and rc["step_size"] is not None:
            raise ConfigError("recon.step_size cannot be set for neural-unrolled: it uses the learned steps")
        if method == "neural-unrolled" and int(rc["iterations"]) != model.iterations:
            raise ConfigError(f"recon.iterations must equal the checkpoint's {model.iterations}")

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

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
                record_trace=bool(cfg["recon"]["record_trace"]),
                init_equalize=False,
            )
        maps, _, trace = pgd_reconstruct(y, op, prox, pcfg)
        write_trace_csv(outdir / "trace.csv", trace)
        results["step_sizes"] = trace.step_sizes

    save_maps(outdir, maps)
    inputs = _dict_inputs(args.dict)
    inputs["data"] = {
        "path": str(args.data),
        "kspace_sha256": _sha256(Path(args.data) / "kspace.mrfb"),
    }
    if args.model is not None:
        inputs["model"] = {"path": str(args.model)}
    write_manifest(
        outdir,
        "reconstruct",
        cfg,
        {
            "data": str(args.data),
            "dict": str(args.dict),
            "method": method,
            "model": None if args.model is None else str(args.model),
            "out": str(outdir),
        },
        inputs,
        t0,
        **results,
    )
    print(f"reconstructed {method} -> {outdir}")
    return 0


def cmd_train(args):
    t0 = time.monotonic()
    cfg = load_config(args.config)
    tc = cfg["train"]
    if int(tc["batch_size"]) != 1:
        raise ConfigError("train.batch_size must be 1; minibatching is not implemented")
    pcfg = pgd_config(cfg)
    if pcfg.step_sizes is not None:
        raise ConfigError("recon.step_size cannot be set for train: unrolled steps start at 1/lambda")
    grid, sub = load_dictionary(args.dict)
    matrix = int(cfg["phantom"]["matrix"])
    op, _ = build_operator(cfg, matrix, sub)

    train_cfg = TrainConfig(
        beta=tuple(tc["beta"]),
        lam=float(tc["lambda"]),
        epochs=int(tc["epochs"]),
        lr=float(tc["lr"]),
        seed=int(tc["seed"]),
        batch_size=int(tc["batch_size"]),
    )

    # training phantoms with randomized ellipse layouts
    rng = np.random.default_rng(train_cfg.seed)
    dataset = []
    k_max = int(cfg["epg"]["k_max"])
    for _ in range(int(tc["n_train"])):
        phantom = make_phantom(
            {"regions": random_regions(rng, int(tc["n_regions"]))}, matrix
        )
        y = simulate_measurements(
            phantom,
            grid.seq,
            sub,
            op,
            noise=NoiseSpec(
                sigma=float(cfg["noise"]["sigma"]), seed=int(rng.integers(2**31))
            ),
            k_max=k_max,
        )
        dataset.append((y, phantom.maps.zero_outside_mask()))

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

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
    enc_cfg = TrainConfig(
        beta=train_cfg.beta,
        lam=0.0,
        epochs=enc_epochs,
        lr=train_cfg.lr,
        seed=train_cfg.seed,
    )
    print("pretraining encoder on back-projections ...")
    _, enc_history = pretrain_encoder(dataset, op, model.encoder, enc_cfg)
    print(f"baseline encoder loss: {enc_history[-1]:.3e}")
    save_model(
        outdir / "baseline",
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
        outdir / "unrolled",
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
    write_loss_history_csv(
        outdir / "loss_history.csv",
        {"decoder": dec_history, "baseline": enc_history, "unrolled": history},
    )
    write_manifest(
        outdir,
        "train",
        cfg,
        {"dict": str(args.dict), "out": str(outdir)},
        _dict_inputs(args.dict),
        t0,
    )
    return 0


def cmd_eval(args):
    est = load_maps(args.est)
    truth = load_maps(args.truth)
    rows = metrics_rows(est, truth)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out, rows)
    for prop, nr, ma in rows:
        print(f"{prop}: nrmse={nr:.4f} mae={ma:.4f}")
    return 0


def cmd_render(args):
    t0 = time.monotonic()
    maps = load_maps(args.maps)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for prop, (lo, hi) in RENDER_WINDOWS.items():
        write_pgm16(outdir / f"{prop}.pgm", maps.property_map(prop), lo, hi)
    write_manifest(
        outdir, "render", {}, {"maps": str(args.maps), "out": str(outdir)}, {}, t0
    )
    print(f"rendered t1/t2/pd -> {outdir}")
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

    p = sub.add_parser("build-dict", help="build dictionary + subspace")
    p.add_argument("--config", default=None)
    p.add_argument("--s", type=int, default=None, help="override subspace size")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_dict)

    p = sub.add_parser("simulate", help="simulate phantom measurements")
    p.add_argument("--config", default=None)
    p.add_argument("--dict", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct maps from measurements")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--method", required=True, choices=RECON_METHODS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("train", help="train the unrolled model")
    p.add_argument("--config", default=None)
    p.add_argument("--dict", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="NRMSE/MAE of estimated maps vs truth")
    p.add_argument("--est", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="render maps to 16-bit PGM images")
    p.add_argument("--maps", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    from . import nufft

    nufft.set_fft_workers(args.threads)
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
