"""Extended Phase Graph simulation of MRF-FISP sequences.

Convention: RF pulses have zero phase and rotate magnetization about a fixed
transverse axis, chosen so that a pulse applied to equilibrium tips spins onto
the real axis (90 deg from equilibrium gives M+ = 1 + 0j). Under this
convention the whole recursion is real-valued, so states and fingerprints are
float64. The isochromat oracle below stays complex, as the independent
reference: its imaginary part is at rounding level.

Each repetition applies: RF rotation, relaxation over TE (readout at TE),
relaxation over TR - TE plus one unit of gradient dephasing. An optional
inversion (instantaneous 180 deg followed by TI of pure relaxation) precedes
the first repetition. The unbalanced gradient dephases spins by exactly one
cycle per TR, which is what makes the integer-order configuration states
exact.

The batch recursion keeps (F+, F-*, Z) of every pair stacked in one
orders-major (3, k_max, n) array. A frame is one 3x3 RF block applied to
the whole state as a single matrix product (it runs through BLAS, under the
package's single-thread pin), the readout of F+_0 scaled by E2(TE), and one
write-back that folds the two relaxation intervals into E1(TR), E2(TR) and
the Z_0 regrowth while shifting the orders; no array is allocated per frame.
Each dephasing raises the highest populated order by one, so frame i (from
0) mixes and writes back only orders below min(i + 1, k_max): the orders it
skips are exactly zero, and the signal is the same bits as over all k_max.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SimulationDivergence

DEFAULT_K_MAX = 50


def sinusoidal_flip_schedule(n_frames):
    """Built-in flip schedule: 10 + 50*|sin(i*pi/200)| degrees, i = 0..L-1."""
    i = np.arange(n_frames, dtype=float)
    deg = 10.0 + 50.0 * np.abs(np.sin(i * np.pi / 200.0))
    return np.deg2rad(deg)


def load_flip_schedule_csv(path):
    """Load a flip-angle schedule (one angle in degrees per line) as radians."""
    deg = np.loadtxt(path, dtype=float, ndmin=1)
    if deg.ndim != 1:
        raise ValueError("flip schedule CSV must contain one angle per line")
    return np.deg2rad(deg)


@dataclass(frozen=True)
class SequenceParams:
    """MRF-FISP acquisition parameters.

    flip_angles_rad: length-L schedule, radians, each in [0, pi]
    tr_ms / te_ms:   repetition / echo time in milliseconds, tr > te > 0
    ti_ms:           inversion time in milliseconds (>= 0)
    invert_first:    apply a 180 deg inversion before the first repetition
    """

    flip_angles_rad: np.ndarray
    tr_ms: float
    te_ms: float
    ti_ms: float = 0.0
    invert_first: bool = True

    def __post_init__(self):
        fa = np.atleast_1d(np.asarray(self.flip_angles_rad, dtype=float))
        object.__setattr__(self, "flip_angles_rad", fa)
        if fa.size < 1:
            raise ValueError("sequence needs at least one flip angle")
        if not np.all((fa >= 0.0) & (fa <= np.pi)):
            raise ValueError("flip angles must lie in [0, pi] radians")
        if not (self.tr_ms > self.te_ms > 0.0):
            raise ValueError("need tr_ms > te_ms > 0")
        if self.ti_ms < 0.0:
            raise ValueError("ti_ms must be >= 0")

    @property
    def n_frames(self):
        return int(self.flip_angles_rad.size)


@dataclass(frozen=True)
class TissueParams:
    """Relaxation times (ms) and proton density of a single tissue."""

    t1_ms: float
    t2_ms: float
    pd: float = 1.0

    def __post_init__(self):
        if not (self.t1_ms > 0.0 and self.t2_ms > 0.0):
            raise ValueError("relaxation times must be positive")
        if self.t2_ms > self.t1_ms:
            raise ValueError("t2_ms must not exceed t1_ms")
        if self.pd < 0.0:
            raise ValueError("pd must be >= 0")


def simulate_epg_batch(seq, t1_ms, t2_ms, k_max=DEFAULT_K_MAX):
    """Simulate unit-PD fingerprints for a batch of (T1, T2) pairs.

    Before the RF of frame i (from 0) only configuration orders below
    min(i + 1, k_max) can be non-zero, so that frame's RF product and
    write-back run over those orders alone.

    Args:
        seq: SequenceParams shared by the whole batch.
        t1_ms, t2_ms: 1-D arrays of equal length n.
        k_max: number of retained configuration orders.

    Returns:
        (n, L) float64 array of transverse signal read at each TE.
    """
    t1 = np.atleast_1d(np.asarray(t1_ms, dtype=float))
    t2 = np.atleast_1d(np.asarray(t2_ms, dtype=float))
    if t1.shape != t2.shape or t1.ndim != 1:
        raise ValueError("t1_ms and t2_ms must be 1-D arrays of equal length")
    if np.any(t1 <= 0) or np.any(t2 <= 0) or np.any(t2 > t1):
        raise ValueError("need 0 < t2 <= t1 for every pair")
    if k_max < 2:
        raise ValueError("k_max must be >= 2")

    n = t1.size
    # state[0, k] = F_k, state[1, k] = (F_{-k})*, state[2, k] = Z_k; order 0
    # of F+ and F-* always agree. Orders-major, so a per-pair factor
    # broadcasts over the last axis and the RF is one (3, 3) @ (3, k*n) over
    # the first k orders.
    state = np.zeros((3, k_max, n))
    mixed = np.empty_like(state)
    # an ideal inversion takes Z_0 to -1, which relaxes over TI to 1 - 2 E1(TI)
    state[2, 0] = 1.0 - 2.0 * np.exp(-seq.ti_ms / t1) if seq.invert_first else 1.0

    e2_te = np.exp(-seq.te_ms / t2)
    e2 = np.exp(-seq.tr_ms / t2)
    e1 = np.exp(-seq.tr_ms / t1)
    e1_rem = np.exp(-(seq.tr_ms - seq.te_ms) / t1)
    regrow = (1.0 - np.exp(-seq.te_ms / t1)) * e1_rem + (1.0 - e1_rem)

    # zero-phase RF mixing, one 3x3 block per frame, derived from the rotation
    # M+ -> cos^2(a/2) M+ - sin^2(a/2) M- + sin(a) Mz (real for zero phase)
    a = seq.flip_angles_rad
    c2, s2, sa, ca = np.cos(a / 2.0) ** 2, np.sin(a / 2.0) ** 2, np.sin(a), np.cos(a)
    rf = np.array([[c2, -s2, sa], [-s2, c2, sa], [-0.5 * sa, -0.5 * sa, ca]])
    rf = np.ascontiguousarray(rf.transpose(2, 0, 1))

    def frame_views(k):
        """The RF operands of a frame whose populated orders are < k, then the
        (source, target) of its F+, F-* and Z write-back: relaxing over TR and
        dephasing moves F_j to F_{j+1} (orders past k_max - 1 drop) and
        (F_{-j})* to order j - 1. (F_{-(k-1)})* is never written, so it keeps
        its initial 0, which is what the unpopulated order k would bring."""
        up = min(k + 1, k_max)
        return (
            state[:, :k].reshape(3, -1), mixed[:, :k].reshape(3, -1),
            (mixed[0, : up - 1], state[0, 1:up]),
            (mixed[1, 1:k], state[1, : k - 1]),
            (mixed[2, :k], state[2, :k]),
        )

    # frame i works on k = min(i + 1, k_max) orders; views are built once, as
    # per-frame slicing would cost more than the skipped orders save at small n
    views = [frame_views(k) for k in range(1, min(seq.n_frames, k_max) + 1)]
    signal = np.empty((n, seq.n_frames))
    for i in range(seq.n_frames):
        flat_state, flat_mixed, fp, fm, z = views[min(i, k_max - 1)]
        np.matmul(rf[i], flat_state, out=flat_mixed)
        np.multiply(mixed[0, 0], e2_te, out=signal[:, i])
        np.multiply(fp[0], e2, out=fp[1])
        np.multiply(fm[0], e2, out=fm[1])
        state[0, 0] = state[1, 0]  # the new F_0 is (F_{-1})*
        np.multiply(z[0], e1, out=z[1])
        state[2, 0] += regrow

    if not np.all(np.isfinite(signal)):
        bad = int(np.argwhere(~np.isfinite(signal))[0][1])
        raise SimulationDivergence(f"non-finite signal first seen at frame {bad}")
    return signal


def simulate_epg(seq, tissue, k_max=DEFAULT_K_MAX):
    """Simulate one fingerprint: PD-scaled EPG response read at each TE."""
    sig = simulate_epg_batch(
        seq, np.array([tissue.t1_ms]), np.array([tissue.t2_ms]), k_max=k_max
    )
    return tissue.pd * sig[0]


def simulate_isochromat_oracle(seq, tissue, n_spins):
    """Brute-force Bloch simulation used to validate the EPG recursion.

    Tracks n_spins magnetization vectors whose per-TR dephasing angles are
    uniform on [0, 2pi); the reported signal is their complex mean transverse
    magnetization at each TE, scaled by PD. Same pulse/timing conventions as
    simulate_epg, so the two agree up to state truncation and spin-count
    aliasing.
    """
    if n_spins < 2:
        raise ValueError("n_spins must be >= 2")
    theta = 2.0 * np.pi * np.arange(n_spins) / n_spins
    cos_t, sin_t = np.cos(theta), np.sin(theta)

    mx = np.zeros(n_spins)
    my = np.zeros(n_spins)
    mz = np.ones(n_spins)
    t1, t2 = tissue.t1_ms, tissue.t2_ms

    def relax(dt):
        nonlocal mx, my, mz
        e1 = np.exp(-dt / t1)
        e2 = np.exp(-dt / t2)
        mx = mx * e2
        my = my * e2
        mz = mz * e1 + (1.0 - e1)

    if seq.invert_first:
        mx, mz = -mx, -mz
        if seq.ti_ms > 0.0:
            relax(seq.ti_ms)

    rem = seq.tr_ms - seq.te_ms
    signal = np.empty(seq.n_frames, dtype=np.complex128)
    for i, alpha in enumerate(seq.flip_angles_rad):
        ca, sa = np.cos(alpha), np.sin(alpha)
        mx, mz = ca * mx + sa * mz, -sa * mx + ca * mz
        relax(seq.te_ms)
        signal[i] = tissue.pd * (np.mean(mx) + 1j * np.mean(my))
        relax(rem)
        mx, my = mx * cos_t - my * sin_t, mx * sin_t + my * cos_t
    return signal
