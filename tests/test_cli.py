import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from mrfrecon import cli
from mrfrecon.neuralprox import UnrolledModel, save_model
from mrfrecon.tensorfile import read_json, read_tensor, write_tensor

TINY_CONFIG = {
    "sequence": {"n_frames": 40},
    "grid": {
        "t1": {"min": 200.0, "max": 2000.0, "count": 8},
        "t2": {"min": 20.0, "max": 300.0, "count": 6},
    },
    "subspace": {"s": 4},
    "trajectory": {"kind": "golden_radial", "d": 16, "r": 2},
    "coils": {"count": 2},
    "phantom": {"matrix": 16},
    "noise": {"sigma": 0.05, "seed": 11},
    "recon": {"iterations": 2, "power_iters": 8},
    "epg": {"k_max": 30},
}


def run_cli(*args, threads=None, env=None, timeout=None):
    cmd = [sys.executable, "-m", "mrfrecon"]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    cmd += [str(a) for a in args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    for key, value in (overrides or {}).items():
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """build-dict + simulate shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("pipe")
    cfg = write_config(root)
    r = run_cli("build-dict", "--config", cfg, "--out", root / "dict")
    assert r.returncode == 0, r.stderr
    r = run_cli("simulate", "--config", cfg, "--dict", root / "dict", "--out", root / "sim")
    assert r.returncode == 0, r.stderr
    return root, cfg


def test_build_dict_outputs(pipeline):
    root, _ = pipeline
    d = root / "dict"
    for name in (
        "atoms.mrfb",
        "atom_norms.mrfb",
        "subspace.mrfb",
        "singular_values.mrfb",
        "dict.json",
        "manifest.json",
    ):
        assert (d / name).exists(), name
    meta = read_json(d / "dict.json")
    assert meta["s"] == 4
    atoms = read_tensor(d / "atoms.mrfb")
    assert atoms.shape == (meta["n_atoms"], 40)
    # atoms reload losslessly and stay unit norm
    assert np.allclose(np.linalg.norm(atoms, axis=1), 1.0)


def _layout(directory):
    """{relative path: MRFB dtype code, or None for a file of another kind}."""
    return {
        str(p.relative_to(directory)): p.read_bytes()[6] if p.suffix == ".mrfb" else None
        for p in Path(directory).rglob("*")
        if p.is_file()
    }


F64, C128 = 2, 4  # MRFB dtype codes
MAPS_LAYOUT = {"t1.mrfb": F64, "t2.mrfb": F64, "pd.mrfb": F64, "mask.mrfb": F64}


def test_simulate_writes_exactly_the_documented_files(pipeline):
    root, _ = pipeline
    truth = {f"truth/{name}": code for name, code in MAPS_LAYOUT.items()}
    assert _layout(root / "sim") == {
        "kspace.mrfb": C128,
        "coil_maps.mrfb": C128,
        "trajectory.mrfb": F64,
        "trajectory.json": None,
        "manifest.json": None,
        **truth,
    }


@pytest.mark.parametrize("method, extra", [("dm-pgd", {"trace.csv": None}), ("bp-dm", {})])
def test_reconstruct_writes_exactly_the_documented_files(pipeline, tmp_path, method, extra):
    root, cfg = pipeline
    r = run_cli(
        "reconstruct", "--config", cfg, "--data", root / "sim", "--dict", root / "dict",
        "--method", method, "--out", tmp_path / "rec",
    )
    assert r.returncode == 0, r.stderr
    assert _layout(tmp_path / "rec") == {**MAPS_LAYOUT, "manifest.json": None, **extra}


def test_benchmark_entry_points_build_the_simulated_operator(pipeline):
    """load_config -> load_dictionary -> build_operator, as the benchmark calls them."""
    root, cfg_path = pipeline
    cfg = cli.load_config(cfg_path)
    grid, sub = cli.load_dictionary(root / "dict")
    op, traj = cli.build_operator(cfg, int(cfg["phantom"]["matrix"]), sub)
    assert grid.n_frames == sub.n_frames == 40
    assert op.kspace_shape == read_tensor(root / "sim" / "kspace.mrfb").shape
    np.testing.assert_array_equal(traj.points, read_tensor(root / "sim" / "trajectory.mrfb"))
    assert callable(cli.main) and callable(cli.write_manifest)


def test_build_dict_manifest_records_subspace_energy_and_atom_residuals(pipeline):
    d = pipeline[0] / "dict"
    recorded = read_json(d / "manifest.json")["subspace"]
    atoms, basis = read_tensor(d / "atoms.mrfb"), read_tensor(d / "subspace.mrfb")
    power = read_tensor(d / "singular_values.mrfb") ** 2
    resid = np.linalg.norm(atoms - atoms @ basis @ basis.T, axis=1)
    assert recorded["s"] == 4
    energy = power[:4].sum() / power.sum()
    np.testing.assert_allclose(recorded["energy_captured"], energy, rtol=1e-12)
    np.testing.assert_allclose(
        [recorded["atom_residual_mean"], recorded["atom_residual_max"]],
        [resid.mean(), resid.max()],
        rtol=1e-9,
    )
    assert 0.0 < recorded["energy_captured"] < 1.0


def test_build_dict_writes_float64_atoms_and_subspace(pipeline):
    root, _ = pipeline
    for name in ("atoms.mrfb", "subspace.mrfb"):
        assert (root / "dict" / name).read_bytes()[6] == 2  # MRFB dtype code f64


def _dict_with_basis(src, dst, basis_of):
    """Copy a dictionary directory, storing atoms as complex128 and the
    subspace as basis_of(real basis)."""
    shutil.copytree(src, dst)
    write_tensor(dst / "atoms.mrfb", read_tensor(dst / "atoms.mrfb").astype(np.complex128))
    write_tensor(dst / "subspace.mrfb", basis_of(read_tensor(dst / "subspace.mrfb")))


def _simulate_and_reconstruct(cfg, dict_dir, root):
    r = run_cli("simulate", "--config", cfg, "--dict", dict_dir, "--out", root / "sim")
    assert r.returncode == 0, r.stderr
    return run_cli(
        "reconstruct", "--config", cfg, "--data", root / "sim", "--dict", dict_dir,
        "--method", "dm-pgd", "--out", root / "rec",
    )


def test_complex128_dictionary_of_older_versions_still_reconstructs(pipeline, tmp_path):
    root, cfg = pipeline
    _dict_with_basis(root / "dict", tmp_path / "dict", lambda b: b.astype(np.complex128))
    r = _simulate_and_reconstruct(cfg, tmp_path / "dict", tmp_path)
    assert r.returncode == 0, r.stderr
    r = _simulate_and_reconstruct(cfg, root / "dict", tmp_path / "f64")
    assert r.returncode == 0, r.stderr
    for prop in ("t1", "t2", "pd"):
        old = read_tensor(tmp_path / "rec" / f"{prop}.mrfb")
        new = read_tensor(tmp_path / "f64" / "rec" / f"{prop}.mrfb")
        np.testing.assert_allclose(old, new, rtol=1e-12, atol=0.0)


def test_dm_pgd_with_complex_subspace_is_a_one_line_runtime_error(pipeline, tmp_path):
    root, cfg = pipeline
    _dict_with_basis(root / "dict", tmp_path / "dict", lambda b: b * np.exp(0.1j))
    # the basis is checked as the dictionary loads: simulate fails, and so
    # does reconstruct of measurements simulated with the real basis
    simulate = run_cli("simulate", "--config", cfg, "--dict", tmp_path / "dict", "--out", tmp_path / "sim")
    reconstruct = run_cli(
        "reconstruct", "--config", cfg, "--data", root / "sim", "--dict", tmp_path / "dict",
        "--method", "dm-pgd", "--out", tmp_path / "rec",
    )
    for r in (simulate, reconstruct):
        assert r.returncode == 1
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1 and "real temporal basis" in lines[0], r.stderr


def test_build_dict_s_override(tmp_path):
    cfg = write_config(tmp_path, {"subspace.s": 3})
    r = run_cli("build-dict", "--config", cfg, "--out", tmp_path / "d3")
    assert r.returncode == 0
    assert read_json(tmp_path / "d3" / "dict.json")["s"] == 3
    assert "n_atoms" in r.stdout
    # subspace.s is the one way to set s: there is no --s flag
    r = run_cli("build-dict", "--config", cfg, "--s", "3", "--out", tmp_path / "flag")
    assert r.returncode == 2 and "--s" in r.stderr
    assert not (tmp_path / "flag").exists()


def test_out_of_range_subspace_s_is_refused_before_the_dictionary_is_simulated(
    tmp_path, monkeypatch
):
    def build_dictionary(*args, **kwargs):
        raise AssertionError("build_dictionary ran before subspace.s was checked")

    monkeypatch.setattr(cli, "build_dictionary", build_dictionary)
    # 40 frames and 46 valid (t1, t2) pairs bound s at 40
    for s in (0, 41):
        cfg = write_config(tmp_path, {"subspace.s": s})
        assert cli.main(["build-dict", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        assert not (tmp_path / "d").exists()


def _flip_csv(tmp_path, n):
    path = tmp_path / f"flips{n}.csv"
    path.write_text("".join(f"{10.0 + i}\n" for i in range(n)))
    return path


def test_flip_csv_of_n_frames_angles_builds_the_dictionary(tmp_path):
    cfg = write_config(
        tmp_path, {"sequence.flip_csv": str(_flip_csv(tmp_path, 30)), "sequence.n_frames": 30}
    )
    r = run_cli("build-dict", "--config", cfg, "--out", tmp_path / "d")
    assert r.returncode == 0, r.stderr
    meta = read_json(tmp_path / "d" / "dict.json")
    assert meta["n_frames"] == 30
    np.testing.assert_allclose(
        meta["sequence"]["flip_angles_rad"], np.deg2rad(10.0 + np.arange(30)), rtol=1e-15
    )
    assert read_tensor(tmp_path / "d" / "atoms.mrfb").shape[1] == 30


def test_flip_csv_whose_length_is_not_n_frames_is_a_config_error(tmp_path):
    # TINY_CONFIG has 40 frames
    cfg = write_config(tmp_path, {"sequence.flip_csv": str(_flip_csv(tmp_path, 30))})
    r = run_cli("build-dict", "--config", cfg, "--out", tmp_path / "d")
    assert r.returncode == 2, r.stderr
    assert "sequence.flip_csv" in r.stderr and "sequence.n_frames" in r.stderr
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "content",
    [None, "directory", "10\nforty\n", "10 20\n30 40\n"],
    ids=["missing", "unreadable", "non-numeric", "two-columns"],
)
def test_flip_csv_that_cannot_be_read_as_angles_is_a_config_error(tmp_path, content):
    path = tmp_path / "flips.csv"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_text(content)
    cfg = write_config(tmp_path, {"sequence.flip_csv": str(path)})
    r = run_cli("build-dict", "--config", cfg, "--out", tmp_path / "d")
    assert r.returncode == 2, r.stderr
    assert "sequence.flip_csv" in r.stderr
    assert not (tmp_path / "d").exists()


def test_invalid_grid_exit_code_names_field(tmp_path):
    cfg = write_config(tmp_path, {"grid.t1.min": -5.0})
    r = run_cli("build-dict", "--config", cfg, "--out", tmp_path / "bad")
    assert r.returncode == 2
    assert "grid.t1" in r.stderr


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("simulate", "trajectory.d", 0),
        ("simulate", "trajectory.kind", "cartesian_lines"),
        ("simulate", "trajectory.kind", "cartesian_full"),
        ("simulate", "trajectory.r", 1000),  # the dictionary has 40 frames
        ("simulate", "noise.sigma", -1.0),
        ("simulate", "noise.sigma", float("nan")),
        ("simulate", "noise.sigma", float("inf")),
        ("simulate", "phantom.regions", 5),
        ("simulate", "phantom.preset", [1]),
        ("build-dict", "sequence.flip_csv", [1, 2]),
        ("simulate", "epg.k_max", 1),
        ("build-dict", "epg.k_max", 1),
        ("build-dict", "grid.t2", {"min": 2500.0, "max": 3000.0, "count": 6}),
    ],
)
def test_simulate_or_build_dict_setting_it_cannot_honour_is_a_config_error(
    pipeline, tmp_path, command, key, value
):
    root, _ = pipeline
    cfg = write_config(tmp_path, {key: value})
    dict_arg = ("--dict", root / "dict") if command == "simulate" else ()
    r = run_cli(command, "--config", cfg, *dict_arg, "--out", tmp_path / "out")
    assert r.returncode == 2, r.stderr
    assert key in r.stderr
    if key == "trajectory.kind":  # a Cartesian kind fixes d, which the config sets
        assert "trajectory.d" in r.stderr
    assert not (tmp_path / "out").exists()


def test_unknown_phantom_preset_is_a_config_error(pipeline, tmp_path):
    root, _ = pipeline
    cfg = write_config(tmp_path, {"phantom.preset": "nosuchpreset"})
    r = run_cli("simulate", "--config", cfg, "--dict", root / "dict", "--out", tmp_path / "out")
    assert r.returncode == 2, r.stderr
    assert "'nosuchpreset'" in r.stderr and "phantom" in r.stderr
    assert not (tmp_path / "out").exists()


def test_empty_phantom_region_list_is_a_config_error(pipeline, tmp_path):
    root, _ = pipeline
    cfg = write_config(tmp_path, {"phantom.regions": []})
    r = run_cli("simulate", "--config", cfg, "--dict", root / "dict", "--out", tmp_path / "out")
    assert r.returncode == 2, r.stderr
    assert "phantom.regions" in r.stderr
    assert not (tmp_path / "out").exists()


# former config keys, each with its last default: now each is an unknown key
DELETED_KEYS = {
    "recon.method": "dm-pgd",
    "sequence.flip_schedule": "sinusoidal",
    "grid.t1.spacing": "log",
    "grid.t2.spacing": "log",
    "phantom.snap_to_grid": False,
    "train.n_regions": 6,
}


def test_unknown_config_key_rejected(tmp_path):
    for key, value in {"gridz": {}, **DELETED_KEYS}.items():
        path = write_config(tmp_path, {key: value}, name="bad.json")
        r = run_cli("build-dict", "--config", path, "--out", tmp_path / "bad")
        assert r.returncode == 2, key
        assert f"unknown config key: {key}" in r.stderr
        assert not (tmp_path / "bad").exists()


def test_simulate_outputs_and_manifest(pipeline):
    root, _ = pipeline
    sim = root / "sim"
    y = read_tensor(sim / "kspace.mrfb")
    assert y.shape == (20, 2, 16)  # 40 frames / r=2, 2 coils, d=16
    traj_meta = read_json(sim / "trajectory.json")
    assert traj_meta["r"] == 2 and traj_meta["frames"] == 20
    manifest = read_json(sim / "manifest.json")
    assert manifest["command"] == "simulate"
    assert "subspace_sha256" in manifest["inputs"]["dictionary"]
    outs = manifest["outputs"]
    assert "kspace.mrfb" in outs and "truth/t1.mrfb" in outs
    versions = manifest["versions"]
    assert versions["numpy"] == np.__version__
    assert versions["scipy"] == scipy.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert versions["blas"] == f"{blas['name']} {blas['version']}"


def test_reconstruct_eval_render_roundtrip(pipeline, tmp_path):
    root, cfg = pipeline
    rec = tmp_path / "rec"
    r = run_cli(
        "reconstruct",
        "--config", cfg,
        "--data", root / "sim",
        "--dict", root / "dict",
        "--method", "dm-pgd",
        "--out", rec,
    )
    assert r.returncode == 0, r.stderr
    assert (rec / "trace.csv").exists()
    trace = (rec / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == "iteration,fidelity"
    assert len(trace) == 4  # header + T+1 rows

    # eval estimated vs truth, then truth vs itself
    r = run_cli("eval", "--est", rec, "--truth", root / "sim" / "truth", "--out", tmp_path / "m.csv")
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "m.csv").read_text().strip().splitlines()
    assert lines[0] == "property,nrmse,mae"
    assert len(lines) == 4

    r = run_cli(
        "eval",
        "--est", root / "sim" / "truth",
        "--truth", root / "sim" / "truth",
        "--out", tmp_path / "self.csv",
    )
    assert r.returncode == 0
    rows = [l.split(",") for l in (tmp_path / "self.csv").read_text().strip().splitlines()[1:]]
    assert all(float(v[1]) == 0.0 and float(v[2]) == 0.0 for v in rows)

    r = run_cli("render", "--maps", rec, "--out", tmp_path / "png")
    assert r.returncode == 0
    for prop in ("t1", "t2", "pd"):
        data = (tmp_path / "png" / f"{prop}.pgm").read_bytes()
        assert data.startswith(b"P5\n16 16\n65535\n")
        assert len(data) == len(b"P5\n16 16\n65535\n") + 2 * 16 * 16


def test_bp_dm_method(pipeline, tmp_path):
    root, cfg = pipeline
    r = run_cli(
        "reconstruct",
        "--config", cfg,
        "--data", root / "sim",
        "--dict", root / "dict",
        "--method", "bp-dm",
        "--out", tmp_path / "bp",
    )
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "bp" / "t1.mrfb").exists()
    assert not (tmp_path / "bp" / "trace.csv").exists()
    assert "step_sizes" not in read_json(tmp_path / "bp" / "manifest.json")


def test_dm_pgd_manifest_records_the_step_it_took(pipeline, tmp_path):
    """The manifest's step sizes, given back as recon.step_size, redo the run."""
    root, cfg = pipeline

    def dm_pgd(config, out):
        r = run_cli(
            "reconstruct", "--config", config, "--data", root / "sim",
            "--dict", root / "dict", "--method", "dm-pgd", "--out", out,
        )
        assert r.returncode == 0, r.stderr
        return read_json(out / "manifest.json")["step_sizes"]

    steps = dm_pgd(cfg, tmp_path / "estimated")
    assert len(steps) == TINY_CONFIG["recon"]["iterations"]
    assert steps[0] > 0 and steps == [steps[0]] * len(steps)
    given = write_config(tmp_path, {"recon.step_size": steps}, name="given.json")
    assert dm_pgd(given, tmp_path / "given") == steps
    for name in ("t1.mrfb", "t2.mrfb", "pd.mrfb", "trace.csv"):
        assert (tmp_path / "estimated" / name).read_bytes() == (
            tmp_path / "given" / name
        ).read_bytes(), name


def test_subspace_hash_mismatch_rejected(pipeline, tmp_path):
    root, cfg = pipeline
    other_cfg = write_config(tmp_path, {"subspace.s": 3}, name="other.json")
    r = run_cli("build-dict", "--config", other_cfg, "--out", tmp_path / "dict2")
    assert r.returncode == 0
    r = run_cli(
        "reconstruct",
        "--config", cfg,
        "--data", root / "sim",
        "--dict", tmp_path / "dict2",
        "--method", "bp-dm",
        "--out", tmp_path / "mismatch",
    )
    assert r.returncode == 2
    assert "subspace hash mismatch" in r.stderr


def test_missing_config_file_is_config_error(tmp_path):
    r = run_cli("build-dict", "--config", tmp_path / "nope.json", "--out", tmp_path / "o")
    assert r.returncode == 2


def test_config_that_names_a_directory_is_a_config_error(tmp_path, capsys):
    (tmp_path / "cfg").mkdir()
    argv = ["build-dict", "--config", str(tmp_path / "cfg"), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert str(tmp_path / "cfg") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# Settings whose JSON type does not fit their key: integer keys take only
# integers, number keys only finite numbers (json reads NaN, Infinity and
# 1e400 as floats), boolean keys only true or false (a JSON boolean is neither
# an integer nor a number), string and list keys only strings and lists. Each
# was once read through int(), float() or bool(): rounded, taken by its truth
# value, or a crash.
WRONG_TYPE_SETTINGS = [
    ("build-dict", "subspace.s", 2.7),
    ("build-dict", "subspace.s", True),
    ("build-dict", "subspace.s", "ten"),
    ("build-dict", "sequence.invert_first", "false"),
    ("build-dict", "sequence.invert_first", 0),
    ("build-dict", "sequence.tr_ms", None),
    ("build-dict", "sequence.ti_ms", False),
    ("build-dict", "grid.t1.count", "x"),
    ("build-dict", "grid.t2.max", "600"),
    ("build-dict", "epg.k_max", 30.5),
    ("simulate", "noise.seed", 1.5),
    ("simulate", "noise.sigma", "0.05"),
    ("simulate", "coils.count", True),
    ("simulate", "trajectory.r", 2.0),
    ("reconstruct", "recon.record_trace", "no"),
    ("reconstruct", "recon.step_size", True),
    ("reconstruct", "recon.step_size", [0.1, "0.1"]),
    ("train", "train.attention", "yes"),
    ("train", "train.decoder_lr", "fast"),
    ("train", "train.decoder_offgrid", 300.5),
    ("train", "train.beta", [1.0, True, 0.6]),
    ("train", "train.seed", False),
    ("build-dict", "sequence.tr_ms", float("nan")),
    ("build-dict", "sequence.te_ms", float("inf")),
    ("build-dict", "sequence.ti_ms", float("-inf")),
    ("build-dict", "grid.t1.min", float("nan")),
    ("build-dict", "grid.t1.max", float("inf")),
    ("build-dict", "grid.t2.max", float("nan")),
    ("reconstruct", "recon.step_size", float("inf")),
    ("train", "train.lambda", float("nan")),
    ("train", "train.lr", float("inf")),
    ("train", "train.decoder_lr", float("nan")),
    ("train", "train.decoder_threshold", float("inf")),
    ("train", "train.beta", [1.0, float("nan"), 0.6]),
]


@pytest.mark.parametrize("command, key, value", WRONG_TYPE_SETTINGS)
def test_setting_of_the_wrong_type_is_a_config_error_naming_its_key(
    pipeline, tmp_path, capsys, command, key, value
):
    root, _ = pipeline
    cfg = write_config(tmp_path, {**TINY_TRAIN, key: value})
    inputs = {
        "build-dict": [],
        "simulate": ["--dict", root / "dict"],
        "reconstruct": ["--data", root / "sim", "--dict", root / "dict", "--method", "dm-pgd"],
        "train": ["--dict", root / "dict"],
    }[command]
    argv = [command, "--config", cfg, *inputs, "--out", tmp_path / "out"]
    assert cli.main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400])
def test_number_beyond_the_float_range_is_a_config_error(tmp_path, capsys, literal):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"sequence": {"tr_ms": %s}}' % literal)
    assert cli.main(["build-dict", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "sequence.tr_ms" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_threads_validation(tmp_path):
    r = run_cli("eval", "--est", "x", "--truth", "y", "--out", "z", threads=0)
    assert r.returncode == 2


def _file_map(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


def test_simulate_determinism_bit_identical(pipeline, tmp_path):
    root, cfg = pipeline
    a, b = tmp_path / "runA", tmp_path / "runB"
    for out in (a, b):
        r = run_cli("simulate", "--config", cfg, "--dict", root / "dict", "--out", out, threads=1)
        assert r.returncode == 0, r.stderr
    fa, fb = _file_map(a), _file_map(b)
    assert set(fa) == set(fb)
    for name in fa:
        if name == "manifest.json":
            ma = json.loads(fa[name])
            mb = json.loads(fb[name])
            ma.pop("wall_time_s")
            mb.pop("wall_time_s")
            ma["args"].pop("out")
            mb["args"].pop("out")
            assert ma == mb
        else:
            assert fa[name] == fb[name], f"{name} differs between runs"


# 32x32, 200 frames, 662 atoms: large enough that a threaded OpenBLAS splits
# the subspace SVD and the k-space matmuls across cores
BLAS_CONFIG = {
    "sequence": {"n_frames": 200},
    "grid": {"t1": {"count": 30}, "t2": {"count": 25}},
    "trajectory": {"kind": "golden_radial", "r": 2},
    "coils": {"count": 2},
    "phantom": {"matrix": 32},
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_outputs_independent_of_blas_thread_environment(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(BLAS_CONFIG))
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    trees = []
    for name, extra in (("pinned", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
        env = dict(base, **extra)
        out = tmp_path / name
        for args in (
            ("build-dict", "--config", cfg, "--out", out / "dict"),
            ("simulate", "--config", cfg, "--dict", out / "dict", "--out", out / "sim"),
            (
                "reconstruct", "--config", cfg, "--data", out / "sim",
                "--dict", out / "dict", "--method", "dm-pgd", "--out", out / "rec",
            ),
        ):
            r = run_cli(*args, threads=1, env=env)
            assert r.returncode == 0, r.stderr
        trees.append(
            {k: v for k, v in _file_map(out).items() if not k.endswith("manifest.json")}
        )
    assert set(trees[0]) == set(trees[1])
    differ = [k for k in trees[0] if trees[0][k] != trees[1][k]]
    assert not differ, f"outputs depend on the BLAS thread count: {differ}"


def test_truncated_kspace_is_a_one_line_runtime_error(pipeline, tmp_path):
    root, cfg = pipeline
    sim = tmp_path / "sim"
    shutil.copytree(root / "sim", sim)
    data = (sim / "kspace.mrfb").read_bytes()
    (sim / "kspace.mrfb").write_bytes(data[:20])  # cut inside the dims
    r = run_cli(
        "reconstruct", "--config", cfg, "--data", sim, "--dict", root / "dict",
        "--method", "bp-dm", "--out", tmp_path / "rec",
    )
    assert r.returncode == 1
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and "kspace.mrfb" in lines[0], r.stderr


@pytest.mark.parametrize(
    "name, resize",
    [
        ("atom_t1", lambda a: np.concatenate([a, a[:5]])),
        ("atom_t2", lambda a: a[:-1]),
        ("atom_norms", lambda a: a[:-3]),
        ("subspace", lambda a: a[:-2]),
    ],
    ids=["atom_t1-5-extra", "atom_t2-1-short", "atom_norms-3-short", "subspace-2-rows-short"],
)
def test_dictionary_whose_tensors_disagree_is_a_one_line_runtime_error(
    pipeline, tmp_path, name, resize
):
    root, cfg = pipeline
    shutil.copytree(root / "dict", tmp_path / "dict")
    path = tmp_path / "dict" / f"{name}.mrfb"
    write_tensor(path, resize(read_tensor(path)))
    r = run_cli(
        "reconstruct", "--config", cfg, "--data", root / "sim", "--dict", tmp_path / "dict",
        "--method", "bp-dm", "--out", tmp_path / "rec",
    )
    assert r.returncode == 1
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and str(tmp_path / "dict") in lines[0] and name in lines[0], r.stderr


@pytest.mark.parametrize(
    "where, name, damage",
    [
        ("dict", "dict.json", "cut"),
        ("sim", "trajectory.json", "cut"),
        ("sim", "manifest.json", "cut"),
        ("dict", "dict.json", "delete"),
        ("dict", "dict.json", b"{}"),
        ("sim", "trajectory.json", b'{"kind": "golden_radial"}'),
    ],
    ids=[
        "dict.json", "trajectory.json", "manifest.json", "missing-dict.json",
        "dict.json-no-keys", "trajectory.json-no-matrix",
    ],
)
def test_corrupt_or_missing_sidecar_is_a_one_line_runtime_error(
    pipeline, tmp_path, where, name, damage
):
    root, cfg = pipeline
    for d in ("dict", "sim"):
        shutil.copytree(root / d, tmp_path / d)
    path = tmp_path / where / name
    if damage == "cut":
        path.write_bytes(path.read_bytes()[:10])
    elif damage == "delete":
        path.unlink()
    else:
        path.write_bytes(damage)
    r = run_cli(
        "reconstruct", "--config", cfg, "--data", tmp_path / "sim",
        "--dict", tmp_path / "dict", "--method", "bp-dm", "--out", tmp_path / "rec",
    )
    assert r.returncode == 1
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and str(path) in lines[0], r.stderr
    if damage == b"{}":
        assert "'sequence'" in lines[0], r.stderr
    elif isinstance(damage, bytes):
        assert "'matrix'" in lines[0], r.stderr


def test_rerun_into_same_out_replaces_every_output(tmp_path):
    """A rerun writes new files: byte-identical, none shared with an old hardlink."""
    cfg = write_config(tmp_path)
    out, links = tmp_path / "out", tmp_path / "links"
    commands = (
        ("build-dict", "--config", cfg, "--out", out / "dict"),
        ("simulate", "--config", cfg, "--dict", out / "dict", "--out", out / "sim"),
        (
            "reconstruct", "--config", cfg, "--data", out / "sim",
            "--dict", out / "dict", "--method", "dm-pgd", "--out", out / "rec",
        ),
        ("eval", "--est", out / "rec", "--truth", out / "sim" / "truth",
         "--out", out / "metrics.csv"),
        ("render", "--maps", out / "rec", "--out", out / "pgm"),
    )
    for args in commands:
        r = run_cli(*args)
        assert r.returncode == 0, r.stderr
    first = _file_map(out)
    assert "rec/trace.csv" in first and "metrics.csv" in first and "pgm/t1.pgm" in first
    for name in first:
        (links / name).parent.mkdir(parents=True, exist_ok=True)
        os.link(out / name, links / name)
    for args in commands:
        r = run_cli(*args)
        assert r.returncode == 0, r.stderr
    second = _file_map(out)
    assert set(second) == set(first)
    for name in first:
        assert not os.path.samefile(out / name, links / name), name
        if name.endswith("manifest.json"):
            a, b = json.loads(first[name]), json.loads(second[name])
            a.pop("wall_time_s")
            b.pop("wall_time_s")
            assert a == b, name
        else:
            assert second[name] == first[name], name


def test_rerun_from_manifest_reproduces_outputs(pipeline, tmp_path):
    root, _ = pipeline
    manifest = read_json(root / "sim" / "manifest.json")
    cfg2 = tmp_path / "from_manifest.json"
    cfg2.write_text(json.dumps(manifest["config"]))
    r = run_cli("simulate", "--config", cfg2, "--dict", root / "dict", "--out", tmp_path / "sim2")
    assert r.returncode == 0, r.stderr
    for name in ("kspace.mrfb", "truth/t1.mrfb", "trajectory.mrfb"):
        assert (root / "sim" / name).read_bytes() == (tmp_path / "sim2" / name).read_bytes()


# a few seconds of training on TINY_CONFIG
TINY_TRAIN = {
    "train.epochs": 3,
    "train.encoder_epochs": 3,
    "train.n_train": 1,
    "train.decoder_epochs": 80,
    "train.decoder_offgrid": 300,
    "train.decoder_threshold": 0.2,
    "train.width": 4,
    "recon.iterations": 2,
}


@pytest.fixture(scope="module")
def trained(pipeline):
    """`train` on the pipeline's dictionary; the train keys leave it and the
    simulation as they are."""
    root, _ = pipeline
    cfg = write_config(root, TINY_TRAIN, name="train.json")
    r = run_cli("train", "--config", cfg, "--dict", root / "dict", "--out", root / "ckpt")
    assert r.returncode == 0, r.stderr
    return root / "ckpt", cfg


@pytest.mark.slow
def test_train_writes_exactly_the_documented_files(trained):
    ckpt, _ = trained
    expected = {"loss_history.csv": None, "manifest.json": None}
    for stage in ("baseline", "unrolled"):
        weights = read_json(ckpt / stage / "checkpoint.json")["weights"]
        assert "log_alpha" in weights and "enc_w1" in weights and "dec_w1" in weights
        expected[f"{stage}/checkpoint.json"] = None
        expected.update({f"{stage}/{name}.mrfb": F64 for name in weights})
    assert _layout(ckpt) == expected
    lines = (ckpt / "loss_history.csv").read_text().splitlines()
    assert lines[0] == "stage,epoch,loss" and len(lines) == 1 + 80 + 3 + 3


@pytest.mark.slow
def test_train_and_neural_reconstruct(pipeline, trained, tmp_path):
    root, _ = pipeline
    ckpt, cfg = trained
    for method, model in (("neural-unrolled", "unrolled"), ("bp-neural", "baseline")):
        r = run_cli(
            "reconstruct",
            "--config", cfg,
            "--data", root / "sim",
            "--dict", root / "dict",
            "--model", ckpt / model,
            "--method", method,
            "--out", tmp_path / f"rec_{method}",
        )
        assert r.returncode == 0, r.stderr
        t1 = read_tensor(tmp_path / f"rec_{method}" / "t1.mrfb")
        assert t1.shape == (16, 16) and np.all(np.isfinite(t1))


BAD_RECON_SETTINGS = [
    ("recon.iterations", 0),
    ("recon.power_iters", 0),
    ("recon.step_size", 0.0),
    ("recon.step_size", [0.1, -0.1]),
    ("recon.step_size", [0.1, 0.1, 0.1]),  # recon.iterations is 2
]


@pytest.mark.parametrize("key,value", BAD_RECON_SETTINGS)
def test_dm_pgd_setting_it_cannot_honour_is_a_config_error(pipeline, tmp_path, key, value):
    root, _ = pipeline
    cfg = write_config(tmp_path, {key: value})
    r = run_cli(
        "reconstruct", "--config", cfg, "--data", root / "sim",
        "--dict", root / "dict", "--method", "dm-pgd", "--out", tmp_path / "rec",
    )
    assert r.returncode == 2, r.stderr
    assert key in r.stderr
    assert not (tmp_path / "rec").exists()


# train learns its steps from 1/lambda, so any recon.step_size is refused
BAD_TRAIN_SETTINGS = [
    ("train.beta", [1.0, -0.3, 0.6]),
    ("train.lambda", -1.0),
    ("train.epochs", 0),
    ("train.n_train", 0),
    ("train.width", 0),
    ("phantom.matrix", 4),
    ("train.lr", 0.0),
    ("train.decoder_lr", -1e-3),
    ("train.decoder_threshold", 0.0),  # no validation error is below 0
]


@pytest.mark.parametrize(
    "key,value", BAD_RECON_SETTINGS[:3] + [("recon.step_size", 0.5)] + BAD_TRAIN_SETTINGS
)
def test_train_recon_setting_it_cannot_honour_is_a_config_error(pipeline, tmp_path, key, value):
    root, _ = pipeline
    cfg = write_config(tmp_path, {key: value})
    r = run_cli("train", "--config", cfg, "--dict", root / "dict", "--out", tmp_path / "ckpt")
    assert r.returncode == 2, r.stderr
    assert key in r.stderr
    assert not (tmp_path / "ckpt").exists()


@pytest.fixture(scope="module")
def unrolled_checkpoint(pipeline):
    """An untrained two-iteration model, as `train` would save it for TINY_CONFIG."""
    root, _ = pipeline
    model = UnrolledModel.create(s=TINY_CONFIG["subspace"]["s"], iterations=2, width=4, hidden=8)
    save_model(root / "unrolled", model)
    return root / "unrolled"


def _neural_unrolled(pipeline, checkpoint, cfg, out):
    root, _ = pipeline
    return run_cli(
        "reconstruct", "--config", cfg, "--data", root / "sim", "--dict", root / "dict",
        "--model", checkpoint, "--method", "neural-unrolled", "--out", out,
    )


@pytest.mark.parametrize("key,value", [("recon.step_size", 0.1), ("recon.iterations", 3)])
def test_neural_unrolled_recon_setting_it_cannot_honour_is_a_config_error(
    pipeline, unrolled_checkpoint, tmp_path, key, value
):
    # the checkpoint fixes both: its learned steps, and 2 iterations
    r = _neural_unrolled(pipeline, unrolled_checkpoint, write_config(tmp_path, {key: value}), tmp_path / "rec")
    assert r.returncode == 2, r.stderr
    assert key in r.stderr
    assert not (tmp_path / "rec").exists()


def test_neural_unrolled_runs_with_the_checkpoint_settings(pipeline, unrolled_checkpoint, tmp_path):
    r = _neural_unrolled(pipeline, unrolled_checkpoint, write_config(tmp_path), tmp_path / "rec")
    assert r.returncode == 0, r.stderr
    assert len(read_json(tmp_path / "rec" / "manifest.json")["step_sizes"]) == 2


@pytest.mark.parametrize(
    "name, value",
    [("log_alpha", np.zeros(1)), ("enc_w1", np.zeros((4, 6, 3, 3)))],
    ids=["one-step-for-three-iterations", "enc_w1-wrong-input-channels"],
)
def test_checkpoint_weight_of_the_wrong_shape_is_a_one_line_runtime_error(
    pipeline, tmp_path, name, value
):
    # a three-iteration checkpoint with one weight replaced; recon.iterations
    # matches the checkpoint, so only the weight's shape is wrong
    model = UnrolledModel.create(s=TINY_CONFIG["subspace"]["s"], iterations=3, width=4, hidden=8)
    ckpt = tmp_path / "ckpt"
    save_model(ckpt, model)
    write_tensor(ckpt / f"{name}.mrfb", value)
    cfg = write_config(tmp_path, {"recon.iterations": 3})
    r = _neural_unrolled(pipeline, ckpt, cfg, tmp_path / "rec")
    assert r.returncode == 1, r.stderr
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and str(ckpt) in lines[0] and name in lines[0], r.stderr
    assert not (tmp_path / "rec").exists()


def test_checkpoint_missing_a_weight_is_a_one_line_runtime_error(pipeline, tmp_path):
    # a checkpoint whose weights list lacks enc_w1; its file stays on disk
    model = UnrolledModel.create(s=TINY_CONFIG["subspace"]["s"], iterations=3, width=4, hidden=8)
    ckpt = tmp_path / "ckpt"
    save_model(ckpt, model)
    manifest = read_json(ckpt / "checkpoint.json")
    manifest["weights"].remove("enc_w1")
    (ckpt / "checkpoint.json").write_text(json.dumps(manifest))
    cfg = write_config(tmp_path, {"recon.iterations": 3})
    r = _neural_unrolled(pipeline, ckpt, cfg, tmp_path / "rec")
    assert r.returncode == 1, r.stderr
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and str(ckpt) in lines[0], r.stderr
    assert "enc_w1" in lines[0] and "missing" in lines[0], r.stderr
    assert not (tmp_path / "rec").exists()


def test_train_on_a_dictionary_with_no_offgrid_pair_is_a_one_line_runtime_error(tmp_path):
    # one atom at T1 = T2 = 100 ms: no off-grid pair for the decoder has T2 <= T1
    grid = {
        "t1": {"min": 100.0, "max": 200.0, "count": 1},
        "t2": {"min": 100.0, "max": 600.0, "count": 5},
    }
    cfg = write_config(tmp_path, {**TINY_TRAIN, "grid": grid, "subspace.s": 1})
    r = run_cli("build-dict", "--config", cfg, "--out", tmp_path / "dict")
    assert r.returncode == 0, r.stderr
    r = run_cli(
        "train", "--config", cfg, "--dict", tmp_path / "dict", "--out", tmp_path / "ckpt", timeout=120
    )
    assert r.returncode == 1, r.stderr
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and "T1 range 100-100 ms" in lines[0] and "T2 range 100-600 ms" in lines[0]
    assert not (tmp_path / "ckpt").exists()


def test_train_batch_size_other_than_one_rejected(pipeline, tmp_path):
    root, _ = pipeline
    cfg = write_config(tmp_path, {"train.batch_size": 2})
    r = run_cli("train", "--config", cfg, "--dict", root / "dict", "--out", tmp_path / "ckpt")
    assert r.returncode == 2
    assert "train.batch_size" in r.stderr
    assert not (tmp_path / "ckpt").exists()


@pytest.mark.parametrize("method", ["bp-dm", "dm-pgd"])
def test_model_for_a_method_that_reads_no_checkpoint_is_a_config_error(pipeline, tmp_path, method):
    root, cfg = pipeline
    r = run_cli(
        "reconstruct", "--config", cfg, "--data", root / "sim", "--dict", root / "dict",
        "--model", tmp_path / "no_checkpoint", "--method", method, "--out", tmp_path / "rec",
    )
    assert r.returncode == 2, r.stderr
    assert "--model" in r.stderr
    assert not (tmp_path / "rec").exists()


def test_neural_method_requires_model(pipeline, tmp_path):
    root, cfg = pipeline
    r = run_cli(
        "reconstruct",
        "--config", cfg,
        "--data", root / "sim",
        "--dict", root / "dict",
        "--method", "bp-neural",
        "--out", tmp_path / "nope",
    )
    assert r.returncode == 2
    assert "--model" in r.stderr


class _ReadRecorder(dict):
    """A config node that adds the dotted path of each key read through [] to `seen`."""

    def __init__(self, node, seen, path=""):
        super().__init__(
            {k: _ReadRecorder(v, seen, f"{path}{k}.") if isinstance(v, dict) and v else v
             for k, v in node.items()}
        )
        self.seen, self.path = seen, path

    def __getitem__(self, key):
        self.seen.add(self.path + key)
        return super().__getitem__(key)


def _leaves(node, path=""):
    for key, value in node.items():
        if isinstance(value, dict) and value:
            yield from _leaves(value, f"{path}{key}.")
        else:
            yield path + key


def test_every_config_key_has_a_reader(tmp_path, monkeypatch):
    """build-dict, simulate, train and dm-pgd reconstruct between them read
    every leaf of DEFAULT_CONFIG; a key that none reads is a setting the
    system ignores."""
    seen = set()
    load_config = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda path: _ReadRecorder(load_config(path), seen))
    cfg = write_config(tmp_path, TINY_TRAIN)
    for argv in (
        ("build-dict", "--out", tmp_path / "dict"),
        ("simulate", "--dict", tmp_path / "dict", "--out", tmp_path / "sim"),
        ("train", "--dict", tmp_path / "dict", "--out", tmp_path / "ckpt"),
        ("reconstruct", "--data", tmp_path / "sim", "--dict", tmp_path / "dict",
         "--method", "dm-pgd", "--out", tmp_path / "rec"),
    ):
        assert cli.main([*map(str, argv), "--config", str(cfg)]) == 0, argv[0]
    unread = sorted(set(_leaves(cli.DEFAULT_CONFIG)) - seen)
    assert not unread, f"config keys nothing reads: {unread}"
