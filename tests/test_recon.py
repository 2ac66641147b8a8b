import numpy as np
import numpy.testing as npt
import pytest

from helpers import identity_prox, snap_regions_to_grid

from mrfrecon.acquisition import AcquisitionOperator, make_trajectory, simulate_coil_maps
from mrfrecon.dictionary import compress, compressed_atoms, dictionary_match
from mrfrecon.errors import ReconDivergence
from mrfrecon.neuralprox import UnrolledModel
from mrfrecon.recon import (
    PgdConfig,
    backprojection_baseline,
    make_dictionary_prox,
    pgd_reconstruct,
)


@pytest.fixture(scope="module")
def ls_problem():
    """Fully sampled orthonormal-ish problem with a dense oracle solution."""
    n, s = 16, 2
    rng = np.random.default_rng(0)
    frames = 8
    traj = make_trajectory("cartesian_full", n, frames=frames)
    basis = np.linalg.qr(rng.standard_normal((frames, s)))[0].astype(complex)
    op = AcquisitionOperator(simulate_coil_maps(2, n), traj, basis)
    x_true = rng.standard_normal((s, n, n)) + 1j * rng.standard_normal((s, n, n))
    y = op.forward(x_true)
    return op, x_true, y


def test_identity_pgd_reaches_least_squares(ls_problem):
    op, x_true, y = ls_problem
    lam = op.estimate_operator_norm(iters=30)
    cfg = PgdConfig(iterations=50, step_sizes=1.0 / lam)
    maps, x, trace = pgd_reconstruct(y, op, identity_prox, cfg)
    assert maps is None
    assert trace.fidelity[-1] < 1e-8
    # dense oracle: solve the materialized normal equations
    s, n = x_true.shape[0], x_true.shape[1]
    dim = s * n * n
    m = np.zeros((dim, dim), complex)
    for i in range(dim):
        e = np.zeros(dim, complex)
        e[i] = 1.0
        m[:, i] = op.adjoint(op.forward(e.reshape(s, n, n))).ravel()
    rhs = op.adjoint(y).ravel()
    x_ls = np.linalg.solve(m, rhs).reshape(s, n, n)
    assert np.linalg.norm(x - x_ls) / np.linalg.norm(x_ls) < 1e-4


def test_identity_pgd_monotone_descent():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n, s, frames = 16, 3, 10
        traj = make_trajectory("golden_radial", n, d=n, frames=frames)
        basis = np.linalg.qr(rng.standard_normal((frames, s)))[0].astype(complex)
        op = AcquisitionOperator(simulate_coil_maps(2, n), traj, basis)
        y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(
            op.kspace_shape
        )
        lam = op.estimate_operator_norm(iters=30)
        cfg = PgdConfig(iterations=15, step_sizes=1.0 / lam)
        _, _, trace = pgd_reconstruct(y, op, identity_prox, cfg)
        fid = np.array(trace.fidelity)
        assert np.all(fid[1:] <= fid[:-1] * (1 + 1e-9))


@pytest.mark.parametrize(
    "kind, rtol",
    [("cartesian_full", 1e-12), ("cartesian_lines", 1e-12), ("golden_radial", 2e-3)],
)
@pytest.mark.parametrize("iterations", [1, 3])
def test_trace_fidelity_matches_explicit_residual(kind, rtol, iterations):
    # the trace's quadratic form against ||y - Hx||^2 through the forward
    # operator: exact where N is H^H H, gridding accuracy on radial spokes
    rng = np.random.default_rng(3)
    n, s, frames = 16, 3, 10
    traj = make_trajectory(kind, n, d=n, frames=frames)
    basis = np.linalg.qr(rng.standard_normal((frames, s)))[0].astype(complex)
    op = AcquisitionOperator(simulate_coil_maps(2, n), traj, basis)
    x_true = rng.standard_normal((s, n, n)) + 1j * rng.standard_normal((s, n, n))
    y = op.forward(x_true)
    noise = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    y = y + 0.1 * np.abs(y).mean() * noise
    cfg = PgdConfig(iterations=iterations)
    _, x, trace = pgd_reconstruct(y, op, identity_prox, cfg)
    resid = y - op.forward(x)
    npt.assert_allclose(trace.fidelity[-1], np.vdot(resid, resid).real, rtol=rtol)


def test_trace_contract(ls_problem):
    op, _, y = ls_problem
    for t in (1, 3):
        cfg = PgdConfig(iterations=t, step_sizes=1e-6, record_trace=True)
        _, _, trace = pgd_reconstruct(y, op, identity_prox, cfg)
        assert len(trace.fidelity) == t + 1
        assert trace.step_sizes == [1e-6] * t
    # no step given: every iteration takes 1/lambda of the estimator
    _, _, trace = pgd_reconstruct(y, op, identity_prox, PgdConfig(iterations=2))
    assert trace.step_sizes == [1.0 / op.estimate_operator_norm()] * 2


def test_divergence_guard(ls_problem):
    op, _, y = ls_problem
    lam = op.estimate_operator_norm(iters=30)
    cfg = PgdConfig(iterations=200, step_sizes=50.0 / lam)  # way past 2/L
    with pytest.raises(ReconDivergence, match="iteration"):
        pgd_reconstruct(y, op, identity_prox, cfg)


def test_step_validation(ls_problem):
    op, _, y = ls_problem
    with pytest.raises(ValueError):
        pgd_reconstruct(y, op, identity_prox, PgdConfig(iterations=0))
    with pytest.raises(ValueError):
        pgd_reconstruct(y, op, identity_prox, PgdConfig(iterations=2, step_sizes=-1.0))


# --- the one PGD iteration against the complex-numpy loop it replaced --------


def reference_pgd(y, op, prox, steps, equalize):
    """PGD as pgd_reconstruct ran it on complex arrays before pgd_iterates:
    the maps of every iterate, the final TSMI, and every fidelity."""
    x = op.backproject(y, equalize=equalize)
    b = op.adjoint(y)
    ysq = float(np.vdot(y, y).real)
    nx = op.normal(x)
    fidelity = [ysq + float(np.vdot(x, nx - 2.0 * b).real)]
    snapshots = [None]
    for alpha in steps:
        x, maps = prox(x + alpha * (b - nx))
        nx = op.normal(x)
        fidelity.append(ysq + float(np.vdot(x, nx - 2.0 * b).real))
        snapshots.append(maps)
    return snapshots, x, fidelity


def _oracle_prox(kind, grid, sub):
    if kind == "identity":
        return identity_prox
    if kind == "dictionary":
        return make_dictionary_prox(grid, sub)
    model = UnrolledModel.create(s=sub.s, iterations=3, width=4, seed=4, hidden=8)
    model.decoder.output_scale = 0.8
    return model.make_prox()


@pytest.mark.parametrize("traj_kind", ["golden_radial", "cartesian_full"])
@pytest.mark.parametrize("prox_kind", ["identity", "dictionary", "learned"])
def test_pgd_reconstruct_equals_the_complex_numpy_loop(small_dict, traj_kind, prox_kind):
    grid, sub = small_dict
    n = 12
    traj = make_trajectory(traj_kind, n, d=n, frames=grid.n_frames)
    op = AcquisitionOperator(simulate_coil_maps(2, n), traj, sub)
    rng = np.random.default_rng(21)
    y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(op.kspace_shape)
    steps = np.array([0.5, 0.4, 0.3]) / op.estimate_operator_norm(iters=20)
    equalize = prox_kind != "learned"  # neural-unrolled starts from the plain adjoint
    prox = _oracle_prox(prox_kind, grid, sub)

    maps, x, trace = pgd_reconstruct(
        y, op, prox, PgdConfig(iterations=3, step_sizes=steps, init_equalize=equalize)
    )
    ref_snapshots, ref_x, ref_fidelity = reference_pgd(y, op, prox, steps, equalize)
    npt.assert_array_equal(x, ref_x)
    assert len(trace.snapshots) == len(ref_snapshots) == 4
    for got, ref in zip(trace.snapshots, ref_snapshots):
        if ref is None:
            assert got is None
            continue
        for plane, ref_plane in zip((got.t1_ms, got.t2_ms, got.pd), (ref.t1_ms, ref.t2_ms, ref.pd)):
            npt.assert_array_equal(plane, ref_plane)
    assert maps is trace.snapshots[-1]
    npt.assert_allclose(trace.fidelity, ref_fidelity, rtol=1e-12, atol=0)


# --- dictionary prox ----------------------------------------------------------


def test_dictionary_prox_idempotent(small_dict):
    grid, sub = small_dict
    rng = np.random.default_rng(1)
    g = rng.standard_normal((sub.s, 5, 5)) + 1j * rng.standard_normal((sub.s, 5, 5))
    prox = make_dictionary_prox(grid, sub)
    x1, m1 = prox(g)
    x2, m2 = prox(x1)
    # the matched atoms are identical; the coefficient re-rounds at eps level
    npt.assert_array_equal(m1.t1_ms, m2.t1_ms)
    npt.assert_array_equal(m1.t2_ms, m2.t2_ms)
    npt.assert_allclose(x2, x1, rtol=0, atol=1e-12 * np.abs(x1).max())
    npt.assert_allclose(m2.pd, m1.pd, rtol=1e-12)


def test_dictionary_prox_fixed_point_on_atom(small_dict):
    grid, sub = small_dict
    unit_atoms, scale = compressed_atoms(grid, sub)
    j, pd = 11, 1.7
    g = (pd * scale[j] * unit_atoms[j]).reshape(-1, 1, 1)
    x, maps = make_dictionary_prox(grid, sub)(g)
    assert np.linalg.norm(x - g) < 1e-10 * np.linalg.norm(g)
    assert maps.t1_ms[0, 0] == grid.atom_t1_ms[j]
    npt.assert_allclose(maps.pd[0, 0], pd, rtol=1e-10)


def test_dictionary_prox_max_correlation_vs_brute_force(small_dict):
    grid, sub = small_dict
    unit_atoms, scale = compressed_atoms(grid, sub)
    rng = np.random.default_rng(2)
    g = rng.standard_normal((sub.s, 4, 4)) + 1j * rng.standard_normal((sub.s, 4, 4))
    x, maps = make_dictionary_prox(grid, sub)(g)
    flat_g = g.reshape(sub.s, -1)
    flat_x = x.reshape(sub.s, -1)
    for v in range(flat_g.shape[1]):
        corrs = np.abs(unit_atoms.conj() @ flat_g[:, v])
        j = int(np.argmax(corrs))
        npt.assert_allclose(np.linalg.norm(flat_x[:, v]), corrs[j], rtol=1e-10)
        # output direction is the matched unit atom up to the dropped phase
        npt.assert_allclose(
            np.abs(np.vdot(unit_atoms[j], flat_x[:, v])),
            np.linalg.norm(flat_x[:, v]),
            rtol=1e-10,
        )


def test_dictionary_prox_and_bp_dm_match_alike(small_dict):
    # bp-dm (dictionary_match) and the dm-pgd prox turn matched atoms into maps
    # through one path: the same maps, plane for plane
    grid, sub = small_dict
    unit_atoms, scale = compressed_atoms(grid, sub)
    rng = np.random.default_rng(4)
    g = rng.standard_normal((sub.s, 5, 6)) + 1j * rng.standard_normal((sub.s, 5, 6))
    x, maps = make_dictionary_prox(grid, sub)(g)
    ref = dictionary_match(g, grid, sub=sub)
    for prop in ("t1", "t2", "pd"):
        npt.assert_array_equal(maps.property_map(prop), ref.property_map(prop))
    npt.assert_array_equal(maps.mask, ref.mask)
    # x holds PD x scale x the unit compressed atom of each voxel's match
    pairs = list(zip(grid.atom_t1_ms, grid.atom_t2_ms))
    j = np.array([pairs.index(p) for p in zip(ref.t1_ms.ravel(), ref.t2_ms.ravel())])
    atoms = (ref.pd.ravel() * scale[j])[:, None] * unit_atoms[j]
    npt.assert_array_equal(x, atoms.T.reshape(g.shape))


def test_dictionary_prox_nonexpansive(small_dict):
    grid, sub = small_dict
    rng = np.random.default_rng(3)
    g = rng.standard_normal((sub.s, 6, 6)) + 1j * rng.standard_normal((sub.s, 6, 6))
    x, _ = make_dictionary_prox(grid, sub)(g)
    norms_in = np.linalg.norm(g.reshape(sub.s, -1), axis=0)
    norms_out = np.linalg.norm(x.reshape(sub.s, -1), axis=0)
    assert np.all(norms_out <= norms_in + 1e-12)


def test_pgd_zero_measurements_gives_zero_pd(small_dict, short_seq):
    grid, sub = small_dict
    n = 12
    traj = make_trajectory("golden_radial", n, d=n, frames=grid.n_frames)
    op = AcquisitionOperator(simulate_coil_maps(2, n), traj, sub)
    y = np.zeros(op.kspace_shape, complex)
    cfg = PgdConfig(iterations=2, step_sizes=1.0)
    maps, x, _ = pgd_reconstruct(y, op, make_dictionary_prox(grid, sub), cfg)
    assert np.all(maps.pd == 0)
    assert np.all(x == 0)


def test_backprojection_baseline_zero_measurements(small_dict):
    grid, sub = small_dict
    n = 12
    traj = make_trajectory("golden_radial", n, d=n, frames=grid.n_frames)
    op = AcquisitionOperator(simulate_coil_maps(2, n), traj, sub)
    maps = backprojection_baseline(
        np.zeros(op.kspace_shape, complex), op, grid=grid, sub=sub
    )
    assert np.all(maps.pd == 0)


def test_backprojection_baseline_needs_a_path(small_dict):
    grid, sub = small_dict
    n = 12
    traj = make_trajectory("golden_radial", n, d=n, frames=grid.n_frames)
    op = AcquisitionOperator(simulate_coil_maps(1, n), traj, sub)
    with pytest.raises(ValueError):
        backprojection_baseline(np.zeros(op.kspace_shape, complex), op)


def test_exact_recovery_small_on_grid_phantom(small_dict, short_seq):
    # noiseless r=1 full Cartesian: back-projection + matching is exact
    from mrfrecon.phantom import make_phantom, phantom_tsmi
    from mrfrecon.phantom import PRESETS
    from mrfrecon.dictionary import dictionary_match

    grid, sub = small_dict
    regions = snap_regions_to_grid(
        PRESETS["default"], grid.t1_values_ms, grid.t2_values_ms
    )
    ph = make_phantom({"regions": regions}, 16)
    traj = make_trajectory("cartesian_full", 16, frames=grid.n_frames)
    op = AcquisitionOperator(simulate_coil_maps(2, 16), traj, sub)
    y = op.forward(phantom_tsmi(ph, short_seq, sub))
    maps = dictionary_match(op.backproject(y), grid, sub=sub)
    m = ph.maps.mask
    npt.assert_array_equal(maps.t1_ms[m], ph.maps.t1_ms[m])
    npt.assert_array_equal(maps.t2_ms[m], ph.maps.t2_ms[m])
    rel = np.abs(maps.pd[m] - ph.maps.pd[m]) / ph.maps.pd[m]
    assert rel.max() < 1e-6
