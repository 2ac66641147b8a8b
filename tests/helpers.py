"""Reference code that only the tests use: the brute-force isochromat Bloch
simulator that validates the EPG recursion, single-tissue EPG, the identity
prox of plain gradient descent, and the expansion of compressed channels
back to full length."""

import numpy as np

from mrfrecon.epg import DEFAULT_K_MAX, simulate_epg_batch


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


def identity_prox(g):
    return g, None


def decompress(tsmi_s, sub):
    """Expand s-channel data back to length L: z -> basis z."""
    z = np.asarray(tsmi_s)
    if z.shape[0] != sub.s:
        raise ValueError(f"expected {sub.s} channels (compressed), got {z.shape[0]}")
    return np.tensordot(sub.basis, z, axes=(1, 0))
