"""Proximal gradient descent reconstruction with pluggable proximal operators.

The one PGD iteration, pgd_iterates, records a k-space fidelity gradient step
followed by a proximal update on an autodiff tape, for inference and training
alike; the prox is either exhaustive dictionary matching (projection onto the
cone of fingerprint atoms) or a learned encoder/decoder pair.
"""

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, c2r_channels, r2c_channels
from .dictionary import _atom_maps, _match_arrays, compressed_atoms, dictionary_match
from .errors import ReconDivergence

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
    """Per-iteration data fidelity ||y - Hx||^2 as pgd_iterates takes it (exact
    for integer trajectories, within gridding accuracy, about 1e-3 relative,
    otherwise), initialization included, and the step size each iteration took."""

    fidelity: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)


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
        return x, _atom_maps(grid, jstar, pd, (h, w))

    return prox


def sample_constants(y, op, x0):
    """What PGD reads of k-space for a start x0: (H^H y, ||y||^2, N x0), as real planes."""
    y = np.asarray(y)
    return c2r_channels(op.adjoint(y)), np.vdot(y, y).real, c2r_channels(op.normal(x0))


def pgd_iterates(tape, op, x, constants, steps, prox):
    """Record PGD on `tape` in real (2s, N, N) planes from the start node x.

    constants is sample_constants(y, op, x0); steps yields a step node alpha as
    each iteration begins; prox(tape, g) records (x, maps) nodes. Yields the
    (x, maps, fidelity) nodes of the start (maps None) and of each iterate
    prox(x + alpha (H^H y - N x)), fidelity ||y||^2 + <x, Nx - 2 H^H y> = ||y - Hx||^2."""
    b, ysq, nx = (tape.constant(c) for c in constants)
    b2, maps, steps = tape.scale(b, 2.0), None, iter(steps)
    while True:
        yield x, maps, tape.add(ysq, tape.vdot(x, tape.sub(nx, b2)))
        alpha = next(steps, None)
        if alpha is None:
            return
        x, maps = prox(tape, tape.add(x, tape.mul(tape.sub(b, nx), alpha)))
        nx = tape.apply_normal(x, op)


def pgd_reconstruct(y, op, prox, cfg):
    """Run proximal gradient descent from the density-compensated adjoint.

    Args:
        y: measured k-space (frames, C, d).
        op: AcquisitionOperator.
        prox: callable g -> (x, QMaps or None); see make_dictionary_prox.
        cfg: PgdConfig.

    Returns:
        (QMaps from the final prox call, final TSMI, ReconTrace). The trace
        has iterations+1 fidelity entries.
    """
    alpha = cfg.resolved_steps(op)
    x0 = op.backproject(y, equalize=cfg.init_equalize)
    trace = ReconTrace(step_sizes=alpha.tolist())

    def tape_prox(tape, g):
        x, maps = prox(r2c_channels(g.value))
        return tape.constant(c2r_channels(x)), maps

    tape = Tape(grad=False)
    x, steps = tape.constant(c2r_channels(x0)), (tape.constant(a) for a in alpha)
    iterates = pgd_iterates(tape, op, x, sample_constants(y, op, x0), steps, tape_prox)
    for t, (x, maps, fid) in enumerate(iterates):
        fid = float(fid.value)
        if t and not np.isfinite(fid):
            raise ReconDivergence(f"non-finite fidelity at iteration {t}")
        if t and trace.fidelity[0] > 0.0 and fid > DIVERGENCE_FACTOR * trace.fidelity[0]:
            raise ReconDivergence(
                f"fidelity exceeded {DIVERGENCE_FACTOR:g} x initial at iteration {t}"
            )
        trace.fidelity.append(fid)
        if cfg.record_trace:
            trace.snapshots.append(maps)
    return maps, r2c_channels(x.value), trace


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
