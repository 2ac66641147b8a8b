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


@dataclass
class EpgState:
    """Configuration states of a batch of spin systems.

    f_plus[k] holds the order-k transverse state F_k, f_minus[k] the conjugated
    negative order (F_{-k})*, z[k] the longitudinal order Z_k; all arrays are
    real (batch, k_max), since zero-phase RF keeps every state real. At order
    0, f_minus[0] == f_plus[0] always.
    """

    f_plus: np.ndarray
    f_minus: np.ndarray
    z: np.ndarray

    @classmethod
    def equilibrium(cls, batch, k_max):
        if k_max < 2:
            raise ValueError("k_max must be >= 2")
        shape = (batch, k_max)
        z = np.zeros(shape)
        z[:, 0] = 1.0
        return cls(f_plus=np.zeros(shape), f_minus=np.zeros(shape), z=z)


def _apply_rf(state, alpha):
    """Mix configuration states with a zero-phase RF pulse of flip alpha.

    Derived from the rotation M+ -> cos^2(a/2) M+ - sin^2(a/2) M- + sin(a) Mz,
    which is real for zero-phase pulses.
    """
    c2 = np.cos(alpha / 2.0) ** 2
    s2 = np.sin(alpha / 2.0) ** 2
    sa = np.sin(alpha)
    ca = np.cos(alpha)
    fp, fm, z = state.f_plus, state.f_minus, state.z
    state.f_plus = c2 * fp - s2 * fm + sa * z
    state.f_minus = -s2 * fp + c2 * fm + sa * z
    state.z = -0.5 * sa * fp - 0.5 * sa * fm + ca * z


def _relax(state, dt_ms, t1_ms, t2_ms):
    """Exact exponential relaxation over dt_ms with Z_0 regrowth."""
    e1 = np.exp(-dt_ms / t1_ms)
    e2 = np.exp(-dt_ms / t2_ms)
    state.f_plus *= e2[:, None]
    state.f_minus *= e2[:, None]
    state.z *= e1[:, None]
    state.z[:, 0] += 1.0 - e1


def _grad_shift(state):
    """One unit of gradient dephasing: F_k -> F_{k+1}; orders >= k_max drop.

    The new F_0 is F_{-1}, i.e. conj(f_minus[1]), which is f_minus[1] itself
    for real states.
    """
    fp, fm = state.f_plus, state.f_minus
    new_fp = np.empty_like(fp)
    new_fp[:, 1:] = fp[:, :-1]
    new_fp[:, 0] = fm[:, 1]
    new_fm = np.empty_like(fm)
    new_fm[:, :-1] = fm[:, 1:]
    new_fm[:, -1] = 0.0
    state.f_plus = new_fp
    state.f_minus = new_fm


def simulate_epg_batch(seq, t1_ms, t2_ms, k_max=DEFAULT_K_MAX):
    """Simulate unit-PD fingerprints for a batch of (T1, T2) pairs.

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

    n = t1.size
    state = EpgState.equilibrium(n, k_max)
    if seq.invert_first:
        _apply_rf(state, np.pi)
        if seq.ti_ms > 0.0:
            _relax(state, seq.ti_ms, t1, t2)

    te = seq.te_ms
    rem = seq.tr_ms - seq.te_ms
    signal = np.empty((n, seq.n_frames))
    for i, alpha in enumerate(seq.flip_angles_rad):
        _apply_rf(state, alpha)
        _relax(state, te, t1, t2)
        signal[:, i] = state.f_plus[:, 0]
        _relax(state, rem, t1, t2)
        _grad_shift(state)

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
