"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy artifacts (the desk-scale dictionary, the pretrained decoder, and the
trained models) are session fixtures shared across criteria. Every tolerance
is pinned here; nothing is deferred to later calibration.
"""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import naive_dft2
from helpers import identity_prox, simulate_epg, simulate_isochromat_oracle

from mrfrecon.acquisition import (
    AcquisitionOperator,
    make_trajectory,
    simulate_coil_maps,
    truncate_acceleration,
)
from mrfrecon.autodiff import Tape
from mrfrecon.dictionary import build_dictionary, compute_subspace, dictionary_match
from mrfrecon.epg import (
    SequenceParams,
    TissueParams,
    sinusoidal_flip_schedule,
)
from mrfrecon.maps import QMaps
from mrfrecon.neuralprox import (
    TrainConfig,
    UnrolledModel,
    _sample_offgrid_pairs,
    compressed_response_targets,
    decoder_validation_error,
    pretrain_bloch_decoder,
    pretrain_encoder,
    train_unrolled,
    unrolled_loss_nodes,
)
from mrfrecon.nufft import GriddingPlan
from mrfrecon.phantom import (
    PRESETS,
    make_phantom,
    nrmse,
    phantom_tsmi,
    random_regions,
    simulate_measurements,
    snap_regions_to_grid,
)
from mrfrecon.recon import (
    PgdConfig,
    backprojection_baseline,
    make_dictionary_prox,
    pgd_reconstruct,
)
from mrfrecon.tensorfile import read_json, read_tensor, write_tensor


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


# --------------------------------------------------------------------------
# shared desk-scale artifacts


@pytest.fixture(scope="session")
def desk_seq():
    return SequenceParams(
        flip_angles_rad=sinusoidal_flip_schedule(1000),
        tr_ms=10.0,
        te_ms=1.8,
        ti_ms=18.0,
        invert_first=True,
    )


@pytest.fixture(scope="session")
def desk_dict(desk_seq):
    grid = build_dictionary(desk_seq)
    sub = compute_subspace(grid, 10)
    return grid, sub


@pytest.fixture(scope="session")
def desk_decoder(desk_dict):
    grid, sub = desk_dict
    decoder, _ = pretrain_bloch_decoder(grid, sub, epochs=200, seed=0)
    return decoder


@pytest.fixture(scope="session")
def trained_models(desk_dict, desk_decoder):
    """Baseline encoder and unrolled model for the Table-1-trend criterion.

    Desk configuration: 48x48 phantoms, 4 coils, golden radial, L=1000
    truncated at r=10 (100 spokes), s=10, T=5, three random training
    phantoms, the 'heldout' preset for evaluation.
    """
    grid, sub = desk_dict
    n, coils = 48, 4
    traj = truncate_acceleration(
        make_trajectory("golden_radial", n, d=n, frames=1000), 10
    )
    op = AcquisitionOperator(simulate_coil_maps(coils, n), traj, sub)
    rng = np.random.default_rng(0)
    dataset = []
    for _ in range(3):
        ph = make_phantom({"regions": random_regions(rng, 6)}, n)
        y = simulate_measurements(ph, grid.seq, sub, op)
        dataset.append((y, ph.maps.zero_outside_mask()))
    held = make_phantom("heldout", n)
    y_held = simulate_measurements(held, grid.seq, sub, op)

    model = UnrolledModel.create(s=10, iterations=5, width=32, seed=0)
    model.decoder = desk_decoder
    lam = op.estimate_operator_norm(iters=30)

    enc_cfg = TrainConfig(lam=0.0, epochs=300, lr=1e-3, seed=0)
    pretrain_encoder(dataset, op, model.encoder, enc_cfg)
    baseline_maps = backprojection_baseline(y_held, op, encoder=model.encoder)

    model.log_alpha.value[:] = np.log(1.0 / lam)
    train_unrolled(dataset, op, model, TrainConfig(epochs=60, lr=1e-3, seed=0))
    unrolled_maps, _, _ = pgd_reconstruct(
        y_held,
        op,
        model.make_prox(),
        PgdConfig(
            iterations=5,
            step_sizes=model.step_sizes,
            record_trace=False,
            init_equalize=False,
        ),
    )
    return held, baseline_maps, unrolled_maps


# --------------------------------------------------------------------------
# criterion 1: adjoint correctness


def test_criterion_1_adjoint_dot_tests():
    t0 = time.time()
    rng = np.random.default_rng(101)
    n, frames = 32, 20
    worst = 0.0
    for kind in ("golden_radial", "cartesian_lines"):
        for coils in (1, 8):
            for s in (1, 5, 10):
                traj = make_trajectory(kind, n, d=n, frames=frames)
                basis = np.linalg.qr(rng.standard_normal((frames, s)))[0]
                op = AcquisitionOperator(simulate_coil_maps(coils, n), traj, basis)
                for _ in range(20):
                    x = rng.standard_normal((s, n, n)) + 1j * rng.standard_normal(
                        (s, n, n)
                    )
                    y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(
                        op.kspace_shape
                    )
                    hx = op.forward(x)
                    rel = abs(np.vdot(hx, y) - np.vdot(x, op.adjoint(y))) / (
                        np.linalg.norm(hx) * np.linalg.norm(y)
                    )
                    worst = max(worst, rel)
    elapsed = time.time() - t0
    assert worst < 1e-6
    assert elapsed < 30.0
    report(1, f"dot test worst rel {worst:.2e} over 240 trials in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 2: NUFFT accuracy


def test_criterion_2_nufft_vs_direct_dft():
    t0 = time.time()
    rng = np.random.default_rng(202)
    n = 32
    img = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    pts = rng.uniform(-n / 2, n / 2, (500, 2))
    plan = GriddingPlan(n, pts[None])
    y = plan.forward(img[None, None], np.eye(1))[0, 0]
    ref = naive_dft2(img, pts)
    rel = np.linalg.norm(y - ref) / np.linalg.norm(ref)
    elapsed = time.time() - t0
    assert rel < 1e-3
    assert elapsed < 10.0
    report(2, f"gridding vs direct DFT rel {rel:.2e} (500 points) in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 3: EPG correctness


def test_criterion_3_epg_vs_isochromat_grid(paper_protocol_seq):
    t0 = time.time()
    worst = 0.0
    for t1 in (300.0, 1000.0, 2000.0):
        for t2 in (30.0, 110.0, 300.0):
            if t2 > t1:
                continue
            tissue = TissueParams(t1, t2, 1.0)
            epg = simulate_epg(paper_protocol_seq, tissue)
            oracle = simulate_isochromat_oracle(paper_protocol_seq, tissue, 1000)
            worst = max(worst, np.linalg.norm(epg - oracle) / np.linalg.norm(oracle))
    elapsed = time.time() - t0
    assert worst < 0.01
    assert elapsed < 60.0
    report(3, f"EPG vs 1000-spin oracle worst NRMSE {worst:.2e} in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 4: exact recovery


def test_criterion_4_exact_recovery(desk_dict):
    t0 = time.time()
    grid, sub = desk_dict
    regions = snap_regions_to_grid(
        PRESETS["default"], grid.t1_values_ms, grid.t2_values_ms
    )
    ph = make_phantom({"regions": regions}, 64)
    traj = make_trajectory("cartesian_full", 64, frames=grid.n_frames)
    op = AcquisitionOperator(simulate_coil_maps(1, 64), traj, sub)
    y = op.forward(phantom_tsmi(ph, grid.seq, sub))
    maps = dictionary_match(op.backproject(y), grid, sub=sub, mask=ph.maps.mask)
    m = ph.maps.mask
    t1_exact = np.array_equal(maps.t1_ms[m], ph.maps.t1_ms[m])
    t2_exact = np.array_equal(maps.t2_ms[m], ph.maps.t2_ms[m])
    pd_rel = np.max(np.abs(maps.pd[m] - ph.maps.pd[m]) / ph.maps.pd[m])
    elapsed = time.time() - t0
    assert t1_exact and t2_exact
    assert pd_rel < 1e-6
    assert elapsed < 120.0
    report(4, f"T1/T2 exact per voxel, PD max rel err {pd_rel:.2e} in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 5: PGD descent + dictionary-prox beats bp-dm at r=10


def test_criterion_5a_identity_prox_descent_20_seeds():
    t0 = time.time()
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        n, s, frames = 32, 3, 16
        traj = make_trajectory("golden_radial", n, d=n, frames=frames)
        basis = np.linalg.qr(rng.standard_normal((frames, s)))[0].astype(complex)
        op = AcquisitionOperator(simulate_coil_maps(2, n), traj, basis)
        y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(
            op.kspace_shape
        )
        lam = op.estimate_operator_norm(iters=30)
        _, _, trace = pgd_reconstruct(
            y, op, identity_prox, PgdConfig(iterations=10, step_sizes=1.0 / lam)
        )
        fid = np.array(trace.fidelity)
        assert np.all(fid[1:] <= fid[:-1] * (1 + 1e-9)), f"seed {seed}"
    report(5, f"identity-prox fidelity non-increasing on 20 seeds "
              f"({time.time() - t0:.1f}s)")


@pytest.mark.slow
def test_criterion_5b_dictionary_pgd_beats_bp_dm(desk_dict):
    t0 = time.time()
    grid, sub = desk_dict
    ph = make_phantom("default", 64)
    traj = truncate_acceleration(
        make_trajectory("golden_radial", 64, d=64, frames=1000), 10
    )
    op = AcquisitionOperator(simulate_coil_maps(8, 64), traj, sub)
    y = simulate_measurements(ph, grid.seq, sub, op)

    bp_maps = backprojection_baseline(y, op, grid=grid, sub=sub)
    lam = op.estimate_operator_norm(iters=30)
    maps, _, _ = pgd_reconstruct(
        y,
        op,
        make_dictionary_prox(grid, sub),
        PgdConfig(iterations=5, step_sizes=1.0 / lam, record_trace=False),
    )
    bp_t1 = nrmse(bp_maps, ph.maps, "t1")
    pgd_t1 = nrmse(maps, ph.maps, "t1")
    elapsed = time.time() - t0
    assert pgd_t1 < bp_t1
    assert elapsed < 300.0
    report(
        5,
        f"dm-pgd T1 NRMSE {pgd_t1:.3f} < bp-dm {bp_t1:.3f} at r=10, T=5 "
        f"({elapsed:.0f}s)",
    )


# --------------------------------------------------------------------------
# criterion 6: autodiff exactness


def test_criterion_6_autodiff_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(42)
    n, s, iterations, width, frames = 8, 2, 2, 4, 6
    traj = make_trajectory("golden_radial", n, d=n, frames=frames)
    basis = np.linalg.qr(rng.standard_normal((frames, s)))[0].astype(complex)
    op = AcquisitionOperator(simulate_coil_maps(1, n), traj, basis)
    model = UnrolledModel.create(s=s, iterations=iterations, width=width, seed=5, hidden=8)
    model.decoder.output_scale = 0.7
    model.decoder.freeze()
    model.log_alpha.value[:] = np.log(0.3 / op.estimate_operator_norm(iters=20))

    y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(op.kspace_shape)
    truth = QMaps(
        t1_ms=rng.uniform(300, 2000, (n, n)),
        t2_ms=rng.uniform(30, 200, (n, n)),
        pd=rng.uniform(0.2, 1.0, (n, n)),
        mask=np.ones((n, n), bool),
    )
    cfg = TrainConfig(epochs=1)
    x0 = op.backproject(y)

    def loss_and_tape():
        tape = Tape()
        loss, _ = unrolled_loss_nodes(tape, model, y, op, x0, truth, cfg)
        return loss, tape

    root, tape = loss_and_tape()
    grads = tape.backward(root)
    assert not any(p.name.startswith("dec_") for p in grads)

    h = 1e-5
    worst = 0.0
    checked = 0
    for p in model.trainable_parameters():
        g = grads[p].ravel()
        flat = p.value.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            lp = float(loss_and_tape()[0].value)
            flat[i] = old - h
            lm = float(loss_and_tape()[0].value)
            flat[i] = old
            fd = (lp - lm) / (2 * h)
            rel = abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-8)
            worst = max(worst, rel)
            checked += 1
    elapsed = time.time() - t0
    assert worst < 1e-4
    assert elapsed < 120.0
    report(6, f"{checked} parameter gradients match FD, worst rel {worst:.2e} "
              f"({elapsed:.0f}s)")


# --------------------------------------------------------------------------
# criterion 7: Bloch decoder surrogate


def test_criterion_7_decoder_surrogate(desk_dict, desk_decoder):
    t0 = time.time()
    grid, sub = desk_dict
    rng = np.random.default_rng(777)
    t1r = (float(grid.t1_values_ms[0]), float(grid.t1_values_ms[-1]))
    t2r = (float(grid.t2_values_ms[0]), float(grid.t2_values_ms[-1]))
    t1h, t2h = _sample_offgrid_pairs(rng, 500, t1r, t2r)
    targets = compressed_response_targets(grid.seq, sub, t1h, t2h)
    err = decoder_validation_error(desk_decoder, t1h, t2h, targets)
    elapsed = time.time() - t0
    assert err < 0.02
    assert elapsed < 300.0
    report(7, f"decoder mean rel err {err:.4f} on 500 held-out off-grid pairs "
              f"({elapsed:.0f}s)")


# --------------------------------------------------------------------------
# criterion 8: unrolling helps (Table-1 trend)


@pytest.mark.slow
def test_criterion_8_unrolling_beats_noniterative(trained_models):
    held, baseline_maps, unrolled_maps = trained_models
    b_t1 = nrmse(baseline_maps, held.maps, "t1")
    b_t2 = nrmse(baseline_maps, held.maps, "t2")
    u_t1 = nrmse(unrolled_maps, held.maps, "t1")
    u_t2 = nrmse(unrolled_maps, held.maps, "t2")
    improvement = (b_t1 - u_t1) / b_t1
    assert u_t1 < b_t1 and u_t2 < b_t2
    assert improvement >= 0.10
    report(
        8,
        f"unrolled T1 {u_t1:.3f} vs baseline {b_t1:.3f} "
        f"({100 * improvement:.1f}% better); T2 {u_t2:.3f} vs {b_t2:.3f}",
    )


# --------------------------------------------------------------------------
# criteria 9 & 10: CLI determinism and format round trips


CLI_CONFIG = {
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


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mrfrecon", "--threads", "1"] + [str(a) for a in args],
        capture_output=True,
        text=True,
    )


def _hash_tree(root):
    digests = {}
    for p in sorted(Path(root).rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            digests[str(p.relative_to(root))] = hashlib.sha256(
                p.read_bytes()
            ).hexdigest()
    return digests


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CLI_CONFIG))
    r = run_cli("build-dict", "--config", cfg, "--out", tmp_path / "dict")
    assert r.returncode == 0, r.stderr

    hashes = []
    for tag in ("a", "b"):
        sim = tmp_path / f"sim_{tag}"
        rec = tmp_path / f"rec_{tag}"
        r = run_cli("simulate", "--config", cfg, "--dict", tmp_path / "dict", "--out", sim)
        assert r.returncode == 0, r.stderr
        r = run_cli(
            "reconstruct",
            "--config", cfg,
            "--data", sim,
            "--dict", tmp_path / "dict",
            "--method", "dm-pgd",
            "--out", rec,
        )
        assert r.returncode == 0, r.stderr
        hashes.append((_hash_tree(sim), _hash_tree(rec)))
        # manifests agree up to wall time and output paths
        for d in (sim, rec):
            m = read_json(d / "manifest.json")
            assert m["outputs"] == {
                k: hashlib.sha256((d / k).read_bytes()).hexdigest()
                for k in m["outputs"]
            }
    assert hashes[0] == hashes[1]
    report(9, f"two identical CLI runs hash-identical "
              f"({len(hashes[0][0]) + len(hashes[0][1])} files, {time.time() - t0:.0f}s)")


def test_criterion_10_format_roundtrips(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(10)
    for dtype in (np.float32, np.float64, np.complex64, np.complex128):
        arr = rng.standard_normal((4, 5))
        if np.issubdtype(dtype, np.complexfloating):
            arr = arr + 1j * rng.standard_normal((4, 5))
        arr = arr.astype(dtype)
        write_tensor(tmp_path / "t.mrfb", arr)
        back = read_tensor(tmp_path / "t.mrfb")
        assert back.tobytes() == arr.tobytes() and back.dtype == arr.dtype
        empty = np.zeros((0, 3), dtype=dtype)
        write_tensor(tmp_path / "e.mrfb", empty)
        assert read_tensor(tmp_path / "e.mrfb").shape == (0, 3)

    # checkpoint round trip through the neural model path
    model = UnrolledModel.create(s=2, iterations=3, width=4, seed=1, hidden=8)
    from mrfrecon.neuralprox import load_model, save_model

    save_model(tmp_path / "ckpt", model, seed=1)
    loaded, manifest = load_model(tmp_path / "ckpt")
    for p, q in zip(model.encoder.parameters(), loaded.encoder.parameters()):
        assert np.array_equal(p.value, q.value)

    # manifest-driven re-run reproduces outputs bit-exactly
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CLI_CONFIG))
    r = run_cli("build-dict", "--config", cfg, "--out", tmp_path / "dict")
    assert r.returncode == 0, r.stderr
    r = run_cli("simulate", "--config", cfg, "--dict", tmp_path / "dict", "--out", tmp_path / "sim")
    assert r.returncode == 0, r.stderr
    manifest = read_json(tmp_path / "sim" / "manifest.json")
    cfg2 = tmp_path / "rerun.json"
    cfg2.write_text(json.dumps(manifest["config"]))
    r = run_cli("simulate", "--config", cfg2, "--dict", tmp_path / "dict", "--out", tmp_path / "sim2")
    assert r.returncode == 0, r.stderr
    assert _hash_tree(tmp_path / "sim") == _hash_tree(tmp_path / "sim2")
    report(10, f"tensor/checkpoint round trips bit-exact; manifest re-run "
               f"reproduces outputs ({time.time() - t0:.0f}s)")
