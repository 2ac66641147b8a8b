"""Reference code that only the tests use: the brute-force isochromat Bloch
simulator that validates the EPG recursion, single-tissue EPG, the identity
prox of plain gradient descent, the expansion of compressed channels back to
full length, phantom regions snapped onto a dictionary grid, the np.pad
formulation of the tape's conv2d, and the exact Cartesian sampler with a tap
axis of length one."""

import numpy as np

from mrfrecon import nufft
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


def snap_regions_to_grid(regions, t1_values, t2_values):
    """Quantize each region's (t1, t2) to the nearest valid dictionary pair."""
    t1_values = np.asarray(t1_values, dtype=float)
    t2_values = np.asarray(t2_values, dtype=float)
    snapped = []
    for entry in regions:
        t1 = t1_values[np.argmin(np.abs(t1_values - float(entry["t1"])))]
        valid_t2 = t2_values[t2_values <= t1]
        if valid_t2.size == 0:
            raise ValueError(f"no valid t2 grid value below t1={t1:g}")
        t2 = valid_t2[np.argmin(np.abs(valid_t2 - float(entry["t2"])))]
        out = dict(entry)
        out["t1"], out["t2"] = float(t1), float(t2)
        snapped.append(out)
    return snapped


def _conv_same_np_pad(x, wv):
    """Same convolution without bias of x (C, H, W), its padding built by np.pad; also the
    flat padded input (spare zero row last)."""
    cout, cin, kh, kw = wv.shape
    h, wd = x.shape[1:]
    row = wd + kw - 1
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2 + 1), (kw // 2, kw // 2))).reshape(cin, -1)
    taps = np.ascontiguousarray(wv.transpose(2, 3, 0, 1))
    acc = np.zeros((cout, h * row))
    prod = np.empty_like(acc)
    for i in range(kh):
        for j in range(kw):
            acc += np.matmul(taps[i, j], xp[:, i * row + j : i * row + j + h * row], out=prod)
    return acc.reshape(cout, h, -1)[:, :, :wd], xp


def conv2d_np_pad(x, w, b, g):
    """The tape's conv2d as it was when np.pad built every padding: the value and, for an
    upstream gradient g, (dx, dw, db)."""
    cout, cin, kh, kw = w.shape
    h, wd = x.shape[1:]
    row = wd + kw - 1
    conv, xp = _conv_same_np_pad(x, w)
    gext = np.pad(g, ((0, 0), (0, 0), (0, kw - 1))).reshape(cout, -1)
    dw = np.empty((cout, cin, kh, kw))
    for i in range(kh):
        for j in range(kw):
            dw[:, :, i, j] = gext @ xp[:, i * row + j : i * row + j + h * row].T
    dx = _conv_same_np_pad(g, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))[0]
    return conv + b[:, None, None], dx, dw, g.sum(axis=(1, 2))


class TapAxisCartesianPlan:
    """nufft.CartesianExactPlan written as gridding with a (frames, d, 1)
    tap axis: the gather sums its one tap, the scatter spreads the
    conjugated sign, and the histogram counts the taps."""

    def __init__(self, matrix, points):
        n = matrix
        pts = np.round(np.asarray(points)).astype(np.int64)
        ix = np.mod(pts[..., 0], n)
        iy = np.mod(pts[..., 1], n)
        self.matrix = self.grid = n
        self.flat_index = (iy * n + ix)[..., None]  # (frames, d, 1)
        self.weights = np.where((pts[..., 0] + pts[..., 1]) % 2 == 0, 1.0, -1.0)[..., None]
        self.frames, self.d = pts.shape[:2]

    def forward(self, images, mixing):
        k, b = images.shape[:2]
        g = self.grid
        spec = nufft._oversampled_fft2(images, g).reshape(k, -1)
        f = len(mixing)
        out = np.empty((f, b, self.d), dtype=np.complex128)
        for lo in range(0, f, nufft._FRAME_CHUNK):
            hi = min(lo + nufft._FRAME_CHUNK, f)
            frames = nufft._mix(mixing[lo:hi], spec).ravel()  # (frames, B, g^2)
            offs = (np.arange((hi - lo) * b) * (g * g)).reshape(hi - lo, b, 1, 1)
            gathered = frames[self.flat_index[lo:hi, None] + offs]
            out[lo:hi] = np.sum(gathered * self.weights[lo:hi, None], axis=3)
        return out

    def adjoint(self, samples, mixing):
        f, b = samples.shape[:2]
        n, g = self.matrix, self.grid
        spec = np.zeros((mixing.shape[1], b * g * g), dtype=np.complex128)
        for lo in range(0, f, nufft._FRAME_CHUNK):
            hi = min(lo + nufft._FRAME_CHUNK, f)
            nf = hi - lo
            vals = samples[lo:hi, :, :, None] * self.weights[lo:hi, None].conj()
            offs = (np.arange(nf * b) * (g * g)).reshape(nf, b, 1, 1)
            idx = self.flat_index[lo:hi, None] + offs
            grids = nufft._scatter_add(idx, vals, nf * b * g * g).reshape(nf, -1)
            spec += nufft._mix(mixing[lo:hi].T, grids)
        return nufft._oversampled_fft2_adjoint(spec.reshape(-1, b, g, g), n)

    def normal_kernel(self, basis):
        n = self.matrix
        weights, rows, cols = nufft._pair_weights(basis)
        kernel = np.zeros((n * n, weights.shape[1]))
        for lo in range(0, self.frames, nufft._FRAME_CHUNK):
            hi = min(lo + nufft._FRAME_CHUNK, self.frames)
            idx = self.flat_index[lo:hi] + (np.arange(hi - lo) * (n * n))[:, None, None]
            counts = np.bincount(idx.ravel(), minlength=(hi - lo) * n * n)
            kernel += counts.reshape(hi - lo, -1).T @ weights[lo:hi]
        return nufft._pair_kernel_blocks(kernel, rows, cols)
