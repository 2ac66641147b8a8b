"""The multi-coil, subspace-compressed non-uniform Fourier forward operator.

Frame t of coil c samples the spectrum of S_c sum_i B_ti x_i along its
trajectory. The basis row B_t commutes with the coil product, the FFT and the
interpolation, so the s*C images S_c x_i take one FFT pass: s*C FFTs whatever
the frame count, and no (frames, C, N, N) array. Off-grid trajectories
interpolate the s*C spectra at frame t's samples and apply B_t there;
integer trajectories let B_t mix the spectra on the grid just before frame
t's gather. The adjoint is the exact conjugate transpose of this chain.
Density compensation exists only in the standalone back-projection path,
never inside gradient iterations.

The normal operator H^H H has its own Toeplitz form (Fessler et al., IEEE TSP
2005), with the real subspace folded into s x s point-spread-function kernels
(Tamir et al., MRM 2017): one FFT pass over s*C images per application
instead of per-frame NUFFTs both ways, zero-padded to 2N for off-grid
trajectories and on the N grid itself for integer ones.
"""

from dataclasses import dataclass

import numpy as np

from . import nufft
from .dictionary import Subspace, real_table

# golden-angle spoke increment, 180/phi deg ~= 111.246 deg
GOLDEN_ANGLE_RAD = np.pi * (np.sqrt(5.0) - 1.0) / 2.0

TRAJECTORY_KINDS = ("golden_radial", "cartesian_full", "cartesian_lines")

# Lanczos stops once its top Ritz value moves by less than LANCZOS_RTOL,
# relative, or once the new residual is too small, relative to it, to span a
# new direction (breakdown)
LANCZOS_RTOL = 1e-4
LANCZOS_BREAKDOWN = 1e-10


@dataclass(frozen=True)
class Trajectory:
    """Per-frame k-space sample coordinates in cycles/FOV.

    points is (frames, d, 2) holding (kx, ky); every coordinate satisfies
    |k| <= matrix/2.
    """

    kind: str
    matrix: int
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 3 or pts.shape[2] != 2:
            raise ValueError("points must be (frames, d, 2)")
        if np.any(np.abs(pts) > 0.5 * self.matrix + 1e-9):
            raise ValueError("trajectory exceeds the band |k| <= matrix/2")
        object.__setattr__(self, "points", pts)

    @property
    def frames(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]


def make_trajectory(kind, matrix, d=None, frames=1):
    """Construct a deterministic sampling trajectory.

    golden_radial: one radial spoke per frame, rotated by the golden angle;
    d equispaced samples covering [-matrix/2, matrix/2). Frame 0 is horizontal.
    cartesian_full: the complete integer grid every frame (d is forced to
    matrix^2); used by oracle tests and exact-recovery setups.
    cartesian_lines: one integer ky line per frame, cycling through the grid.
    Each kind's first F frames are the same whatever `frames` is, so
    acceleration r, which keeps the first L // r of L frames, is the
    trajectory made with frames=L // r.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    n = int(matrix)
    if kind == "golden_radial":
        d = n if d is None else int(d)
        if d < 1:
            raise ValueError("d must be >= 1")
        radius = np.linspace(-0.5, 0.5, d, endpoint=False) * n
        angles = GOLDEN_ANGLE_RAD * np.arange(frames)
        kx = radius[None, :] * np.cos(angles)[:, None]
        ky = radius[None, :] * np.sin(angles)[:, None]
        pts = np.stack([kx, ky], axis=-1)
    elif kind == "cartesian_full":
        freqs = np.arange(n) - n // 2
        kxg, kyg = np.meshgrid(freqs, freqs, indexing="xy")
        grid = np.stack([kxg.ravel(), kyg.ravel()], axis=-1).astype(float)
        pts = np.broadcast_to(grid, (frames,) + grid.shape).copy()
    elif kind == "cartesian_lines":
        freqs = (np.arange(n) - n // 2).astype(float)
        lines = np.mod(np.arange(frames), n) - n // 2
        kx = np.broadcast_to(freqs, (frames, n)).copy()
        ky = np.repeat(lines[:, None], n, axis=1).astype(float)
        pts = np.stack([kx, ky], axis=-1)
    else:
        raise ValueError(f"unknown trajectory kind {kind!r}")
    return Trajectory(kind=kind, matrix=n, points=pts)


def simulate_coil_maps(n_coils, matrix):
    """Smooth complex coil sensitivities on a ring around the FOV.

    Gaussian magnitude profiles centered on a surrounding ring, linear phase
    pointing at each coil, normalized to unit root-sum-of-squares everywhere.
    A single coil returns an all-ones map (the convention assumed by the
    oracle tests).
    """
    n = int(matrix)
    if n_coils == 1:
        return np.ones((1, n, n), dtype=np.complex128)
    yy, xx = np.mgrid[0:n, 0:n].astype(float)
    cx = cy = (n - 1) / 2.0
    ring_r = 0.55 * n
    width = 0.45 * n
    maps = np.empty((n_coils, n, n), dtype=np.complex128)
    for c in range(n_coils):
        ang = 2.0 * np.pi * c / n_coils
        x0 = cx + ring_r * np.cos(ang)
        y0 = cy + ring_r * np.sin(ang)
        mag = np.exp(-((xx - x0) ** 2 + (yy - y0) ** 2) / (2.0 * width**2))
        phase = (
            2.0
            * np.pi
            * 0.7
            * (np.cos(ang) * (xx - cx) + np.sin(ang) * (yy - cy))
            / n
        )
        maps[c] = mag * np.exp(1j * (phase + ang))
    rss = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    return maps / rss


def density_compensation(traj, integer):
    """Per-sample weights for the back-projection path.

    Flat 1/N^2 for integer Cartesian sampling: with an orthonormal full-length
    basis the frame sum hands back the identity, so r=1 back-projection is the
    exact inverse. Radial spokes get a ramp |k| with area normalization.
    Approximate by design: only the standalone back-projection uses these
    weights. `integer` says whether the trajectory is integer, as its plan
    decided.
    """
    n = traj.matrix
    f, d = traj.frames, traj.d
    if integer:
        return np.full((f, d), 1.0 / (n * n), dtype=float)
    radius = np.hypot(traj.points[..., 0], traj.points[..., 1])
    dk = n / float(d)
    w = radius * (np.pi / f) * dk
    w[radius < dk / 2.0] = np.pi * dk**2 / (4.0 * f)
    return w / (n * n)


class AcquisitionOperator:
    """The composed forward model H and its exact adjoint.

    Args:
        coil_maps: (C, N, N) complex sensitivities.
        trajectory: Trajectory whose frame count can be at most the number of
            basis rows.
        subspace: Subspace (or raw (L, s) ndarray, checked by real_table)
            giving temporal weights, kept as float64.
    """

    def __init__(self, coil_maps, trajectory, subspace):
        basis = subspace.basis if isinstance(subspace, Subspace) else subspace
        basis = real_table(basis, "real temporal basis")
        maps = np.asarray(coil_maps, dtype=np.complex128)
        if maps.ndim != 3 or maps.shape[1] != maps.shape[2]:
            raise ValueError("coil_maps must be (C, N, N)")
        if maps.shape[1] != trajectory.matrix:
            raise ValueError("coil map size does not match trajectory matrix")
        if trajectory.frames > basis.shape[0]:
            raise ValueError(
                f"trajectory has {trajectory.frames} frames but basis only "
                f"{basis.shape[0]} rows"
            )
        self.coil_maps = maps
        self.trajectory = trajectory
        self.basis = np.ascontiguousarray(basis[: trajectory.frames], dtype=np.float64)
        self.s = self.basis.shape[1]
        self.matrix = trajectory.matrix
        self.n_coils = maps.shape[0]
        self.plan = nufft.make_plan(trajectory.matrix, trajectory.points)
        self.dc_weights = density_compensation(
            trajectory, isinstance(self.plan, nufft.CartesianExactPlan)
        )
        self._bp_mixing_inv = None
        self._normal_kernel = None

    @property
    def kspace_shape(self):
        return (self.trajectory.frames, self.n_coils, self.trajectory.d)

    def _check_image(self, x):
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.s, self.matrix, self.matrix):
            raise ValueError(
                f"expected TSMI of shape {(self.s, self.matrix, self.matrix)}, "
                f"got {x.shape}"
            )
        return x

    def _check_kspace(self, y):
        y = np.asarray(y, dtype=np.complex128)
        if y.shape != self.kspace_shape:
            raise ValueError(
                f"expected k-space of shape {self.kspace_shape}, got {y.shape}"
            )
        return y

    def forward(self, x):
        """TSMI (s, N, N) -> k-space (frames, C, d)."""
        x = self._check_image(x)
        return self.plan.forward(x[:, None] * self.coil_maps[None], self.basis)

    def adjoint(self, y):
        """Exact conjugate transpose: k-space (frames, C, d) -> TSMI (s, N, N)."""
        y = self._check_kspace(y)
        coil_imgs = self.plan.adjoint(y, self.basis)  # (s, C, N, N)
        return np.sum(coil_imgs * self.coil_maps.conj()[None], axis=1)

    def normal(self, x):
        """H^H H x = sum_c S_c^H [K * (S_c x)] with the exact NUDFT kernel.

        The spectrum of K_ij = sum_t B_ti B_tj psf_t is built on first use,
        directly in frequency, and cached frequency-major: one real s x s
        block per frequency of the 2N grid, (2N)^2 s^2 values, or of the N
        grid, N^2 s^2 values, for integer trajectories; the real basis makes
        every block real. For gridded trajectories the result differs from
        adjoint(forward(x)) by the gridding error only.
        """
        x = self._check_image(x)
        if self._normal_kernel is None:
            self._normal_kernel = self.plan.normal_kernel(self.basis)
        coil_imgs = self.coil_maps[:, None] * x[None]  # (C, s, N, N)
        out = nufft.toeplitz_normal(self._normal_kernel, coil_imgs)
        return np.sum(out * self.coil_maps.conj()[:, None], axis=0)

    def _bp_channel_mixing(self):
        """Channel response of the density-compensated normal operator.

        The DC'd single-frame normal operator has diagonal spatial gain equal
        to that frame's total weight, so the s x s temporal mixing of the
        back-projection is sum_t (sum_i w_ti) B[t]^T B[t]. Its (pseudo)inverse
        restores per-channel scales that frame truncation and spoke coverage
        would otherwise skew. Identity for full Cartesian sampling at r=1.
        """
        if self._bp_mixing_inv is None:
            gains = self.dc_weights.sum(axis=1)
            full_frames = self.trajectory.d == self.matrix**2 and isinstance(
                self.plan, nufft.CartesianExactPlan
            )
            if not full_frames:
                # complementary frames tile k-space jointly; their DC weights
                # are designed so the ensemble approximates the identity
                gains = gains / gains.sum()
            m = (self.basis.T * gains) @ self.basis
            # truncated inverse: caps noise amplification of barely-covered
            # channels at 100x and is exact when m is well conditioned (r=1)
            self._bp_mixing_inv = np.linalg.pinv(m, rcond=1e-2, hermitian=True)
        return self._bp_mixing_inv

    def backproject(self, y, equalize=True):
        """Density-compensated adjoint; initialization/baseline input only.

        With equalize=True the temporal-coverage mixing inverse is applied on
        top, which dictionary matching needs at high acceleration; learned
        paths consume the plain density-compensated adjoint. Gradient
        iterations always use the pure adjoint.
        """
        y = self._check_kspace(y)
        u = self.adjoint(y * self.dc_weights[:, None, :])
        if not equalize:
            return u
        return np.tensordot(self._bp_channel_mixing(), u, axes=(1, 0))

    def estimate_operator_norm(self, iters=30):
        """Largest eigenvalue of H^H H by Lanczos iteration from a fixed start.

        Runs complex Hermitian Lanczos on normal() and returns the top Ritz
        value of the real tridiagonal matrix it builds, which does not exceed
        the true lambda beyond rounding. It stops once that value changes by
        less than LANCZOS_RTOL relative, or on breakdown (an invariant
        subspace, e.g. H^H H = c I), and calls normal() at most `iters` times.
        This is the lambda of the exact-NUDFT H^H H; on gridded trajectories
        it agrees with that of adjoint(forward(.)) to gridding accuracy (about
        1e-3 relative).
        """
        if iters < 1:
            raise ValueError("iters must be >= 1")
        rng = np.random.default_rng(0)
        shape = (self.s, self.matrix, self.matrix)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v /= np.linalg.norm(v)
        v_prev, beta = np.zeros_like(v), 0.0
        alphas, betas = [], []
        lam = 0.0
        for _ in range(iters):
            w = self.normal(v) - beta * v_prev
            alphas.append(np.vdot(v, w).real)
            w -= alphas[-1] * v
            t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            prev, lam = lam, np.linalg.eigvalsh(t)[-1]
            beta = np.linalg.norm(w)
            if beta <= LANCZOS_BREAKDOWN * lam or abs(lam - prev) <= LANCZOS_RTOL * lam:
                break
            betas.append(beta)
            v_prev, v = v, w / beta
        return float(lam)
