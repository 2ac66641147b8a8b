import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.fft

from mrfrecon import nufft
from mrfrecon.acquisition import (
    GOLDEN_ANGLE_RAD,
    TRAJECTORY_KINDS,
    AcquisitionOperator,
    Trajectory,
    density_compensation,
    make_trajectory,
    simulate_coil_maps,
    truncate_acceleration,
)
from mrfrecon.dictionary import DictionaryGrid, Subspace


def make_random_operator(seed, n=16, coils=2, s=3, frames=12, kind="golden_radial"):
    rng = np.random.default_rng(seed)
    traj = make_trajectory(kind, n, d=n, frames=frames)
    basis = np.linalg.qr(rng.standard_normal((frames, s)))[0]
    return AcquisitionOperator(simulate_coil_maps(coils, n), traj, basis)


# --- trajectories -----------------------------------------------------------


def test_golden_radial_geometry():
    traj = make_trajectory("golden_radial", 32, d=32, frames=5)
    # frame 0 horizontal
    assert np.allclose(traj.points[0, :, 1], 0.0)
    # pairwise-equal angular increments of the golden angle
    angles = np.arctan2(traj.points[:, -1, 1], traj.points[:, -1, 0])
    inc = np.diff(np.unwrap(angles))
    npt.assert_allclose(inc, inc[0], atol=1e-12)
    npt.assert_allclose(np.rad2deg(inc[0]) % 360.0, 111.246, atol=1e-3)


def test_trajectory_band_invariant():
    for kind in ("golden_radial", "cartesian_full", "cartesian_lines"):
        traj = make_trajectory(kind, 16, d=16, frames=7)
        assert np.all(np.abs(traj.points) <= 8.0 + 1e-9)


def test_cartesian_full_covers_grid():
    traj = make_trajectory("cartesian_full", 8, frames=2)
    assert traj.d == 64
    pts = {tuple(p) for p in traj.points[0]}
    assert len(pts) == 64


def test_cartesian_lines_cycle():
    traj = make_trajectory("cartesian_lines", 8, frames=10)
    assert traj.d == 8
    # line index cycles through the grid
    assert traj.points[0, 0, 1] == -4.0
    assert traj.points[8, 0, 1] == -4.0


def test_unknown_kind():
    with pytest.raises(ValueError, match="unknown"):
        make_trajectory("spiral", 16, d=16, frames=1)


def test_out_of_band_rejected():
    with pytest.raises(ValueError, match="band"):
        Trajectory(kind="x", matrix=8, points=np.full((1, 1, 2), 9.0))


# --- acceleration truncation -------------------------------------------------


def test_truncate_paper_factors():
    traj = make_trajectory("golden_radial", 8, d=4, frames=1000)
    assert truncate_acceleration(traj, 10).frames == 100
    assert truncate_acceleration(traj, 1).frames == 1000
    assert truncate_acceleration(traj, 1000).frames == 1


def test_truncate_keeps_leading_frames():
    traj = make_trajectory("golden_radial", 8, d=4, frames=20)
    cut = truncate_acceleration(traj, 4)
    npt.assert_array_equal(cut.points, traj.points[:5])


def test_truncate_empty_error():
    traj = make_trajectory("golden_radial", 8, d=4, frames=3)
    with pytest.raises(ValueError):
        truncate_acceleration(traj, 4)


# --- coil maps ---------------------------------------------------------------


def test_coil_maps_unit_rss():
    maps = simulate_coil_maps(8, 24)
    rss = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    npt.assert_allclose(rss, 1.0, atol=1e-12)


def test_single_coil_is_ones():
    npt.assert_array_equal(simulate_coil_maps(1, 12), np.ones((1, 12, 12)))


# --- operator ----------------------------------------------------------------


def test_forward_of_zero_is_zero():
    op = make_random_operator(0)
    assert np.all(op.forward(np.zeros((3, 16, 16), complex)) == 0)
    assert np.all(op.adjoint(np.zeros(op.kspace_shape, complex)) == 0)


def test_forward_superposition():
    op = make_random_operator(1)
    rng = np.random.default_rng(10)
    x1 = rng.standard_normal((3, 16, 16)) + 1j * rng.standard_normal((3, 16, 16))
    x2 = rng.standard_normal((3, 16, 16)) + 1j * rng.standard_normal((3, 16, 16))
    a, b = 0.7 - 1.1j, 2.0 + 0.4j
    lhs = op.forward(a * x1 + b * x2)
    rhs = a * op.forward(x1) + b * op.forward(x2)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("kind", ["golden_radial", "cartesian_lines"])
@pytest.mark.parametrize("coils,s", [(1, 1), (2, 3), (4, 5)])
def test_adjoint_dot_test(kind, coils, s):
    op = make_random_operator(2, coils=coils, s=s, kind=kind)
    rng = np.random.default_rng(20 + coils + s)
    for _ in range(3):
        x = rng.standard_normal((s, 16, 16)) + 1j * rng.standard_normal((s, 16, 16))
        y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(
            op.kspace_shape
        )
        hx = op.forward(x)
        lhs = np.vdot(hx, y)
        rhs = np.vdot(x, op.adjoint(y))
        assert abs(lhs - rhs) / (np.linalg.norm(hx) * np.linalg.norm(y)) < 1e-6


def test_point_at_k0_gives_constant_image():
    traj = Trajectory(kind="point", matrix=8, points=np.zeros((1, 1, 2)))
    op = AcquisitionOperator(np.ones((1, 8, 8), complex), traj, np.array([[1.0 + 0j]]))
    img = op.adjoint(np.ones((1, 1, 1), complex))
    npt.assert_allclose(img, img[0, 0, 0], rtol=1e-10)


def test_shape_validation():
    op = make_random_operator(3)
    with pytest.raises(ValueError, match="TSMI"):
        op.forward(np.zeros((2, 16, 16), complex))
    with pytest.raises(ValueError, match="k-space"):
        op.adjoint(np.zeros((1, 1, 1), complex))


def test_operator_norm_against_materialized_matrix():
    # orthonormal-style H: full Cartesian, unit coil, s=L=1
    n = 8
    traj = make_trajectory("cartesian_full", n, frames=1)
    op = AcquisitionOperator(np.ones((1, n, n), complex), traj, np.array([[1.0 + 0j]]))
    lam = op.estimate_operator_norm(iters=40)
    m = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n * n):
        e = np.zeros((1, n, n), complex)
        e.flat[i] = 1.0
        m[:, i] = op.adjoint(op.forward(e)).ravel()
    exact = np.linalg.eigvalsh((m + m.conj().T) / 2).max()
    npt.assert_allclose(lam, exact, rtol=1e-6)
    npt.assert_allclose(exact, n * n, rtol=1e-10)


@pytest.mark.parametrize("seed", [4, 5, 6, 7])
def test_operator_norm_self_consistency(seed):
    # seed 4's real basis has a close second eigenvalue, the hard case for
    # an iterative estimate
    op = make_random_operator(seed, n=32, coils=2, s=3, frames=16)
    a = op.estimate_operator_norm(iters=30)
    b = op.estimate_operator_norm(iters=60)
    assert abs(a - b) / b < 1e-3


def test_zero_operator_norm():
    n = 8
    traj = make_trajectory("golden_radial", n, d=n, frames=4)
    op = AcquisitionOperator(np.zeros((1, n, n), complex), traj, np.ones((4, 1), complex))
    assert op.estimate_operator_norm(iters=5) == 0.0


def _materialized_normal(op):
    size = op.s * op.matrix**2
    m = np.empty((size, size), dtype=complex)
    for i in range(size):
        e = np.zeros(size, complex)
        e[i] = 1.0
        m[:, i] = op.normal(e.reshape(op.s, op.matrix, op.matrix)).ravel()
    return m


@pytest.mark.parametrize("kind", ["golden_radial", "cartesian_lines"])
def test_operator_norm_matches_dense_eigvalsh(kind):
    op = make_random_operator(16, n=16, coils=2, s=3, frames=12, kind=kind)
    exact = np.linalg.eigvalsh(_materialized_normal(op)).max()
    lam = op.estimate_operator_norm()
    # a Ritz value never exceeds the largest eigenvalue, up to rounding
    assert lam <= exact * (1 + 1e-12)
    assert (exact - lam) / exact < 1e-4


def test_operator_norm_caps_and_stops_early(monkeypatch):
    op = make_random_operator(17, n=16, coils=2, s=3, frames=12)
    calls = []
    normal = AcquisitionOperator.normal

    def spy(self, x):
        calls.append(1)
        return normal(self, x)

    monkeypatch.setattr(AcquisitionOperator, "normal", spy)
    op.estimate_operator_norm(iters=3)
    assert len(calls) == 3
    calls.clear()
    op.estimate_operator_norm(iters=30)
    assert 3 < len(calls) < 30


def test_operator_norm_iters_validation():
    op = make_random_operator(5)
    with pytest.raises(ValueError):
        op.estimate_operator_norm(iters=0)


def test_basis_shorter_than_trajectory_rejected():
    n = 8
    traj = make_trajectory("golden_radial", n, d=n, frames=10)
    with pytest.raises(ValueError, match="frames"):
        AcquisitionOperator(np.ones((1, n, n), complex), traj, np.ones((4, 2), complex))


def test_gradient_step_never_increases_fidelity():
    for seed in range(5):
        op = make_random_operator(100 + seed, n=16, coils=2, s=3, frames=10)
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(
            op.kspace_shape
        )
        lam = op.estimate_operator_norm(iters=30)
        x = np.zeros((3, 16, 16), complex)
        prev = np.inf
        for _ in range(8):
            resid = y - op.forward(x)
            fid = float(np.vdot(resid, resid).real)
            assert fid <= prev * (1 + 1e-9)
            prev = fid
            x = x + (1.0 / lam) * op.adjoint(resid)


def test_backprojection_exact_at_r1_cartesian(small_dict, short_seq):
    grid, sub = small_dict
    n = 12
    traj = make_trajectory("cartesian_full", n, frames=grid.n_frames)
    op = AcquisitionOperator(simulate_coil_maps(2, n), traj, sub)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((sub.s, n, n)) + 1j * rng.standard_normal((sub.s, n, n))
    xbp = op.backproject(op.forward(x))
    assert np.linalg.norm(xbp - x) / np.linalg.norm(x) < 1e-10


def test_density_compensation_shapes():
    traj = make_trajectory("golden_radial", 16, d=16, frames=4)
    w = density_compensation(traj)
    assert w.shape == (4, 16)
    assert np.all(w > 0)
    flat = density_compensation(make_trajectory("cartesian_full", 8, frames=2))
    npt.assert_allclose(flat, 1.0 / 64)


@pytest.mark.parametrize("kind", TRAJECTORY_KINDS)
def test_operator_decides_integer_trajectory_once(monkeypatch, kind):
    calls = []

    def counted(points, matrix):
        calls.append(matrix)
        return is_integer(points, matrix)

    is_integer = nufft.is_integer_trajectory
    monkeypatch.setattr(nufft, "is_integer_trajectory", counted)
    traj = make_trajectory(kind, 8, d=8, frames=3)
    op = AcquisitionOperator(simulate_coil_maps(2, 8), traj, np.eye(3))
    assert calls == [8]
    npt.assert_array_equal(op.dc_weights, density_compensation(traj))


# --- subspace-first H and H^H against the per-frame chain ----------------------


def _random_tsmi(rng, s, n):
    return rng.standard_normal((s, n, n)) + 1j * rng.standard_normal((s, n, n))


def _per_frame_forward(op, x):
    """Expand frames, weight by coils, then the identity-mixing (per-frame) plan."""
    frames = np.tensordot(op.basis, x, axes=(1, 0))  # (F, N, N)
    return op.plan.forward(frames[:, None] * op.coil_maps[None], np.eye(len(frames)))


def _per_frame_adjoint(op, y):
    """Per-frame plan adjoint, then coil combination and projection on the basis."""
    frames = np.sum(op.plan.adjoint(y, np.eye(len(y))) * op.coil_maps.conj()[None], axis=1)
    return np.tensordot(op.basis, frames, axes=(0, 0))


@pytest.mark.parametrize("kind", TRAJECTORY_KINDS)
def test_forward_and_adjoint_match_per_frame_reference(monkeypatch, kind):
    monkeypatch.setattr(nufft, "_FRAME_CHUNK", 5)  # 12 frames: chunks of 5, 5 and 2
    op = make_random_operator(16, n=16, coils=2, s=3, frames=12, kind=kind)
    rng = np.random.default_rng(160)
    x = _random_tsmi(rng, 3, 16)
    y = rng.standard_normal(op.kspace_shape) + 1j * rng.standard_normal(op.kspace_shape)
    for got, ref in ((op.forward(x), _per_frame_forward(op, x)), (op.adjoint(y), _per_frame_adjoint(op, y))):
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


class _FftSpy:
    """Stands in for scipy.fft in nufft; records the images each transform covers."""

    def __init__(self):
        self.images = []

    def __getattr__(self, name):
        transform = getattr(scipy.fft, name)

        def spy(x, *args, **kwargs):
            self.images.append(math.prod(np.shape(x)[:-2]))
            return transform(x, *args, **kwargs)

        return spy


@pytest.mark.parametrize("kind", TRAJECTORY_KINDS)
@pytest.mark.parametrize("frames", [12, 40])
def test_h_and_hh_transform_only_the_channel_images(monkeypatch, kind, frames):
    """One FFT pass over the s*C channel images, one transform per axis,
    whatever the frame count."""
    coils, s = 2, 3
    op = make_random_operator(17, n=16, coils=coils, s=s, frames=frames, kind=kind)
    x = _random_tsmi(np.random.default_rng(170), s, 16)
    y = op.forward(x)
    for apply, arg in ((op.forward, x), (op.adjoint, y)):
        spy = _FftSpy()
        monkeypatch.setattr(nufft, "_fft", spy)
        apply(arg)
        assert spy.images == [s * coils] * 2


# --- Toeplitz normal operator --------------------------------------------------


def test_normal_matches_materialized_direct_dft():
    n, s = 8, 2
    op = make_random_operator(7, n=n, coils=2, s=s, frames=6)
    r = np.arange(n) - n // 2
    # direct-DFT H as a dense matrix: rows (frame, coil, sample), columns (channel, pixel)
    h = np.zeros((6, 2, n, s, n * n), dtype=complex)
    for t in range(6):
        kx, ky = op.trajectory.points[t, :, 0], op.trajectory.points[t, :, 1]
        ey = np.exp(-2j * np.pi * ky[:, None] * r / n)
        ex = np.exp(-2j * np.pi * kx[:, None] * r / n)
        dft = (ey[:, :, None] * ex[:, None, :]).reshape(n, n * n)
        for c in range(2):
            h[t, c] = (dft * op.coil_maps[c].ravel())[:, None, :] * op.basis[t][None, :, None]
    h = h.reshape(6 * 2 * n, s * n * n)
    rng = np.random.default_rng(70)
    x = _random_tsmi(rng, s, n)
    expected = (h.conj().T @ (h @ x.ravel())).reshape(s, n, n)
    got = op.normal(x)
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("kind", ["cartesian_full", "cartesian_lines"])
def test_normal_matches_exact_cartesian_path(kind):
    op = make_random_operator(8, n=16, coils=2, s=3, frames=12, kind=kind)
    x = _random_tsmi(np.random.default_rng(80), 3, 16)
    expected = op.adjoint(op.forward(x))
    assert np.linalg.norm(op.normal(x) - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("kind", ["golden_radial", "cartesian_lines", "cartesian_full"])
def test_normal_kernel_blocks(kind):
    """Frequency-major (P, s, s) blocks, real and symmetric: P = N^2 for
    integer trajectories, whose normal operator is N-periodic, (2N)^2 else."""
    op = make_random_operator(12, n=8, coils=1, s=3, frames=10, kind=kind)
    kernel = op.plan.normal_kernel(op.basis)
    grid = 16 if kind == "golden_radial" else 8
    assert kernel.shape == (grid * grid, 3, 3)
    assert kernel.dtype == np.float64
    npt.assert_array_equal(kernel, kernel.transpose(0, 2, 1))


def test_normal_matches_gridded_radial():
    op = make_random_operator(9, n=32, coils=2, s=3, frames=16)
    x = _random_tsmi(np.random.default_rng(90), 3, 32)
    expected = op.adjoint(op.forward(x))
    assert np.linalg.norm(op.normal(x) - expected) <= 2e-3 * np.linalg.norm(expected)


@pytest.mark.parametrize("kind", ["golden_radial", "cartesian_lines"])
def test_normal_hermitian_and_psd(kind):
    op = make_random_operator(10, n=16, coils=2, s=3, frames=12, kind=kind)
    rng = np.random.default_rng(100)
    for _ in range(3):
        x, z = _random_tsmi(rng, 3, 16), _random_tsmi(rng, 3, 16)
        nx, nz = op.normal(x), op.normal(z)
        scale = np.linalg.norm(x) * np.linalg.norm(nz)
        assert abs(np.vdot(z, nx) - np.vdot(nz, x)) <= 1e-12 * scale
        quad = np.vdot(x, nx)
        assert quad.real >= 0.0
        assert abs(quad.imag) <= 1e-12 * abs(quad.real)


def test_operator_norm_independent_of_fft_workers():
    from mrfrecon import nufft

    # a fresh operator per setting, so the kernel build runs under each too
    def norm():
        op = make_random_operator(11, n=16, coils=2, s=3, frames=12)
        return op.estimate_operator_norm()

    one = norm()
    nufft.set_fft_workers(2)
    try:
        two = norm()
    finally:
        nufft.set_fft_workers(1)
    assert one == two


@pytest.mark.parametrize("kind", TRAJECTORY_KINDS)
def test_normal_same_for_float64_and_zero_imag_complex_basis(kind):
    """H, H^H and N give the same bits for a float64 basis and for its
    complex128 cast, and Subspace and DictionaryGrid hold the cast as float64."""
    # complex128 with zero imaginary part: how dictionaries written before
    # float64 storage, and bases cast with .astype(complex), arrive
    rng = np.random.default_rng(14)
    basis = np.linalg.qr(rng.standard_normal((12, 3)))[0]
    maps, traj = simulate_coil_maps(2, 16), make_trajectory(kind, 16, d=16, frames=12)
    x = _random_tsmi(rng, 3, 16)
    ops = [AcquisitionOperator(maps, traj, b) for b in (basis, basis.astype(complex))]
    assert all(op.basis.dtype == np.float64 for op in ops)
    y = ops[0].forward(x)
    for apply, arg in (("forward", x), ("adjoint", y), ("normal", x)):
        npt.assert_array_equal(getattr(ops[0], apply)(arg), getattr(ops[1], apply)(arg))
    sub = Subspace(basis=basis.astype(complex), singular_values=np.ones(3))
    assert sub.basis.dtype == np.float64
    npt.assert_array_equal(sub.basis, basis)
    ones = np.ones(3)
    grid = DictionaryGrid(ones, ones, basis.T.astype(complex), ones, ones, ones)
    assert grid.atoms.dtype == np.float64
    npt.assert_array_equal(grid.atoms, basis.T)


def test_basis_with_imaginary_part_is_rejected_where_it_enters():
    rng = np.random.default_rng(15)
    basis = np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))[0]
    traj = make_trajectory("golden_radial", 8, d=8, frames=6)
    with pytest.raises(ValueError, match="real temporal basis"):
        AcquisitionOperator(simulate_coil_maps(1, 8), traj, basis)
    with pytest.raises(ValueError, match="real temporal basis"):
        Subspace(basis=basis, singular_values=np.ones(2))
