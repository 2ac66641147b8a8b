"""Proximal gradient descent reconstruction with pluggable proximal operators.

The engine iterates a k-space fidelity gradient step followed by a proximal
update; the prox is either exhaustive dictionary matching (projection onto the
cone of fingerprint atoms), a learned encoder/decoder pair, or the identity
(plain gradient descent, used to validate descent behavior).
"""

from dataclasses import dataclass, field

import numpy as np

from .dictionary import _match_arrays, compressed_atoms, dictionary_match
from .errors import ReconDivergence
from .maps import QMaps

DIVERGENCE_FACTOR = 1e6


@dataclass
class PgdConfig:
    """Settings of one PGD run: iteration count, step sizes, trace and init.

    step_sizes may be a scalar (replicated) or a length-T positive vector;
    None means 1/lambda_max, estimated by Lanczos iteration on the normal
    operator with at most power_iters applications of it.
    """

    iterations: int = 5
    step_sizes: np.ndarray = None
    record_trace: bool = True
    power_iters: int = 30
    init_equalize: bool = True

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.step_sizes is not None:
            steps = np.atleast_1d(np.asarray(self.step_sizes, dtype=float))
            if steps.ndim != 1 or steps.size not in (1, self.iterations) or not np.all(steps > 0):
                raise ValueError("step sizes must be positive: one, or one per iteration")
            self.step_sizes = np.broadcast_to(steps, (self.iterations,)).copy()

    def resolved_steps(self, op):
        if self.step_sizes is not None:
            return self.step_sizes
        lam = op.estimate_operator_norm(iters=self.power_iters)
        if lam <= 0.0:
            raise ValueError("operator norm estimate is zero; cannot pick a step")
        return np.full(self.iterations, 1.0 / lam)


@dataclass
class ReconTrace:
    """Per-iteration data fidelity ||y - Hx||^2, initialization included,
    and the step size each iteration took.

    Fidelity is taken as ||y||^2 + Re<x, Nx - 2 H^H y>: exact for integer
    trajectories, within gridding accuracy (about 1e-3 relative) otherwise.
    """

    fidelity: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)


def identity_prox(g):
    return g, None


def make_dictionary_prox(grid, sub):
    """Projection of each voxel onto the nonnegative span of the atom set.

    Matches in the compressed domain and re-synthesizes PD * (unit compressed
    atom); idempotent and per-voxel non-expansive by construction.
    """
    unit_atoms, scale = compressed_atoms(grid, sub)

    def prox(g):
        s, h, w = g.shape
        flat = g.reshape(s, -1)
        jstar, pd = _match_arrays(flat, unit_atoms, scale)
        coef = pd * scale[jstar]
        x = (unit_atoms[jstar] * coef[:, None]).T.reshape(s, h, w)
        maps = QMaps(
            t1_ms=grid.atom_t1_ms[jstar].reshape(h, w),
            t2_ms=grid.atom_t2_ms[jstar].reshape(h, w),
            pd=pd.reshape(h, w),
            mask=np.ones((h, w), dtype=bool),
        )
        return x, maps

    return prox


def pgd_reconstruct(y, op, prox, cfg):
    """Run proximal gradient descent from the density-compensated adjoint.

    Args:
        y: measured k-space (frames, C, d).
        op: AcquisitionOperator.
        prox: callable g -> (x, QMaps or None); see identity_prox and
            make_dictionary_prox.
        cfg: PgdConfig.

    Returns:
        (QMaps from the final prox call, final TSMI, ReconTrace). The trace
        has iterations+1 fidelity entries.
    """
    alpha = cfg.resolved_steps(op)
    x = op.backproject(y, equalize=cfg.init_equalize)
    maps = None
    trace = ReconTrace(step_sizes=alpha.tolist())

    # k-space is touched once; each Nx gives both the fidelity and the step
    b = op.adjoint(y)
    ysq = float(np.vdot(y, y).real)
    nx = op.normal(x)
    fid0 = ysq + float(np.vdot(x, nx - 2.0 * b).real)
    trace.fidelity.append(fid0)
    if cfg.record_trace:
        trace.snapshots.append(None)

    for t in range(cfg.iterations):
        x, maps = prox(x + alpha[t] * (b - nx))
        nx = op.normal(x)
        fid = ysq + float(np.vdot(x, nx - 2.0 * b).real)
        if not np.isfinite(fid):
            raise ReconDivergence(f"non-finite fidelity at iteration {t + 1}")
        if fid0 > 0.0 and fid > DIVERGENCE_FACTOR * fid0:
            raise ReconDivergence(
                f"fidelity exceeded {DIVERGENCE_FACTOR:g} x initial at iteration {t + 1}"
            )
        trace.fidelity.append(fid)
        if cfg.record_trace:
            trace.snapshots.append(maps)
    return maps, x, trace


def backprojection_baseline(y, op, grid=None, sub=None, encoder=None):
    """Non-iterative baseline: one density-compensated adjoint, then either
    dictionary matching or a single encoder application (no decoder, no
    iterations). Exactly the unrolled model evaluated at T=0.
    """
    if encoder is not None:
        return encoder.predict_maps(op.backproject(y, equalize=False))
    x = op.backproject(y)
    if grid is None or sub is None:
        raise ValueError("need either an encoder or a dictionary+subspace")
    return dictionary_match(x, grid, sub=sub)
