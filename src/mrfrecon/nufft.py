"""2-D non-uniform Fourier evaluation by Kaiser-Bessel gridding.

Frequency convention (unnormalized, shared with the direct-DFT oracle used in
the tests): for an N x N image x indexed [row=ny, col=nx],

    y(kx, ky) = sum_n x[ny, nx] * exp(-2j*pi*(kx*(nx - N/2) + ky*(ny - N/2))/N)

with trajectory coordinates in cycles/FOV, |k| <= N/2. The adjoint uses the
conjugate kernel; forward and adjoint are exact transposes of each other by
construction (every stage is transposed individually), so the dot test holds
to machine precision regardless of gridding accuracy.

The image-center offset is folded into the (complex) interpolation weights as
a per-tap phase, so no fftshift passes are needed: the image sits in the
corner of the oversampled grid and plain fft2/ifft2 do the rest.

Trajectories whose coordinates are all integers (full or line Cartesian) are
evaluated exactly as gridding with a single tap on the N grid itself: integer
frequencies alias exactly, so this path is both faster and error-free.

Both plans transform K channel images, not frames: one FFT pass covers them,
and a real (frames x K) mixing matrix, the temporal basis, takes them to the
frames. Off-grid plans mix at the samples: one sparse interpolation matrix (a
row of W*W tap weights per sample, Fessler & Sutton, IEEE TSP 2003) reads
every channel spectrum at every sample, and each frame's mixing row combines
its K values there, so no frame spectrum on the oversampled grid is ever
formed. Their adjoint spreads each sample over the channels through the
mixing, applies the conjugate-transposed matrix and makes one inverse pass.
Integer trajectories mix on the grid instead: each chunk of frame spectra is
formed from the channel spectra just before the gather (the adjoint scatters
and folds back through the transposed mixing), since full Cartesian frames
read every grid point anyway. The identity mixing, np.eye(F), is the
per-frame transform.

Both plans also build the kernel of the exact (non-gridded) normal operator,
the spectrum of a frame-weighted sum of point-spread functions psf_t(r) =
sum_j exp(2j*pi*k_tj.r/N), so that toeplitz_normal applies the Toeplitz
product as one circular convolution: off-grid on a zero-padded 2N grid,
integer trajectories (N-periodic psf_t) on the N grid itself. The spectrum
is assembled in frequency, with no transform of psf_t: off-grid from the
real spectra of each sample's Hermitian exponentials, integer from each
frame's sample histogram. It is stored frequency-major, one s x s mixing
block per frequency, real and symmetric for the real basis.
"""

import math

import numpy as np
import scipy.fft as _fft
import scipy.sparse as _sparse

OVERSAMP = 2.0  # gridding: oversampled grid size per image size
KERNEL_WIDTH = 4  # gridding: Kaiser-Bessel taps per axis

_FRAME_CHUNK = 64  # cap on frames per gather/scatter batch, for memory

_FFT_WORKERS = 1


def set_fft_workers(n):
    """FFT batch parallelism; each transform is deterministic regardless."""
    global _FFT_WORKERS
    _FFT_WORKERS = max(1, int(n))


def _oversampled_fft2(images, g):
    """Zero-padded unshifted FFT, padding folded into the transforms.

    Equivalent to fft2 of the image placed in the corner of a (g, g) grid;
    transforms along the padded axes skip the all-zero rows.
    """
    step = _fft.fft(images, n=g, axis=-1, workers=_FFT_WORKERS)
    return _fft.fft(step, n=g, axis=-2, workers=_FFT_WORKERS)


def _oversampled_fft2_adjoint(spec, n):
    """Exact adjoint of _oversampled_fft2: ifft, truncate, scale."""
    g = spec.shape[-1]
    u = _fft.ifft(spec, axis=-2, workers=_FFT_WORKERS)[..., :n, :]
    return _fft.ifft(u, axis=-1, workers=_FFT_WORKERS)[..., :n] * (g * g)


def _scatter_add(idx, vals, size):
    """Complex bincount: vals summed into `size` bins, re and im in one pass."""
    idx = 2 * idx.ravel()
    pairs = np.bincount(
        np.stack([idx, idx + 1], axis=1).ravel(),
        weights=np.ascontiguousarray(vals).ravel().view(np.float64),
        minlength=2 * size,
    )
    return pairs.view(np.complex128)


def _mix(m, spec):
    """m @ spec for a real m and complex spectra, batched as matmul is: m acts
    on their interleaved re/im float view, which is exact."""
    return (m @ spec.view(np.float64)).view(np.complex128)


def toeplitz_normal(kernel, images):
    """Circular convolution with a frequency-major block kernel.

    kernel (P, s, s) is a real normal_kernel spectrum in fft2 order on a
    p x p grid, P = p^2: p = 2N zero-pads the images (off-grid trajectories),
    p = N convolves them as they are (integer trajectories). images (B, s, N,
    N). Returns sum_l crop(ifft(kernel[:, i, l] * fft(pad(images[:, l])))) for
    every output channel i. The mixing is one _mix batched over frequency.
    """
    b, s, n, _ = images.shape
    p = math.isqrt(kernel.shape[0])
    spec = _oversampled_fft2(images, p).reshape(b, s, p * p)
    spec = np.ascontiguousarray(spec.transpose(2, 1, 0))  # (P, s, B)
    mixed = _mix(kernel, spec)
    return _oversampled_fft2_adjoint(mixed.transpose(2, 1, 0).reshape(b, s, p, p), n)


def _pair_weights(basis):
    """Weights B_ti B_tj (frames, s(s+1)/2) of the channel pairs i <= j of a
    real (frames, s) basis, and the pairs' (rows, cols)."""
    rows, cols = np.triu_indices(basis.shape[1])
    return basis[:, rows] * basis[:, cols], rows, cols


def _pair_kernel_blocks(spectra, rows, cols):
    """Real (P, pairs) pair spectra -> symmetric (P, s, s) blocks, one gather
    of each (i, j) entry's pair column."""
    s = rows[-1] + 1
    pair = np.empty((s, s), dtype=np.intp)
    pair[rows, cols] = pair[cols, rows] = np.arange(rows.size)
    return np.take(spectra, pair, axis=1)


def _offset_spectra(k, n):
    """Real 2N-point spectra (..., 2N) of exp(2j*pi*k*r/N) over the offsets
    r = -(N-1)..N-1, offset -N zero: the sequence is Hermitian, so one hfft of
    offsets 0..N. The exponentials come from a sqrt(N)-factored table,
    e^{i th (q a + b)} = e^{i th q a} e^{i th b}, a^2 > N; hfft crops it."""
    a = math.isqrt(n) + 1
    theta = (2j * np.pi / n) * np.asarray(k)[..., None]
    steps = np.arange(a)
    table = np.exp(theta * (a * steps))[..., :, None] * np.exp(theta * steps)[..., None, :]
    table = table.reshape(*theta.shape[:-1], a * a)
    table[..., n] = 0.0
    return _fft.hfft(table, n=2 * n, axis=-1, workers=_FFT_WORKERS)


def beatty_beta(width, oversamp):
    """Kaiser-Bessel shape parameter (Beatty et al. choice)."""
    return np.pi * np.sqrt((width / oversamp) ** 2 * (oversamp - 0.5) ** 2 - 0.8)


def kaiser_bessel(r, width, beta):
    """Gridding kernel I0(beta*sqrt(1-(2r/W)^2)) on |r| <= W/2, else 0."""
    r = np.asarray(r, dtype=float)
    arg = 1.0 - (2.0 * r / width) ** 2
    inside = arg > 0.0
    out = np.zeros_like(r)
    out[inside] = np.i0(beta * np.sqrt(arg[inside]))
    return out


def kaiser_bessel_ft(x, width, beta):
    """Continuous Fourier transform of the kernel, used for deapodization.

    x is in the reciprocal units of the (oversampled) grid spacing. Handles
    both the sinh and sinc branches.
    """
    x = np.asarray(x, dtype=float)
    t2 = beta**2 - (np.pi * width * x) ** 2
    out = np.empty_like(t2)
    pos = t2 > 0
    rt = np.sqrt(np.abs(t2))
    out[pos] = np.sinh(rt[pos]) / rt[pos]
    out[~pos] = np.sinc(rt[~pos] / np.pi)
    return width * out


def is_integer_trajectory(points, matrix):
    """True when every coordinate is within 1e-9 (absolute) of an integer and in the band."""
    pts = np.asarray(points)
    return bool(
        np.all(np.abs(pts) <= 0.5 * matrix + 1e-9) and np.all(np.abs(pts - np.round(pts)) <= 1e-9)
    )


class GriddingPlan:
    """Kaiser-Bessel interpolation tables for one trajectory.

    Precomputes, per frame and sample, the W*W flattened oversampled-grid
    indices and the complex kernel weights (kernel value times the centering
    phase), and from them the sparse interpolation matrix whose row per
    sample holds those weights.
    """

    def __init__(self, matrix, points):
        n, w = matrix, KERNEL_WIDTH
        g = int(round(OVERSAMP * n))
        beta = beatty_beta(w, OVERSAMP)
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 3 or pts.shape[2] != 2:
            raise ValueError("points must be (frames, d, 2)")
        if np.any(np.abs(pts) > 0.5 * matrix + 1e-9):
            raise ValueError("trajectory exceeds the Nyquist band |k| <= matrix/2")

        # oversampled-grid coordinates of each sample
        u = pts * (g / float(n))
        offs = np.arange(w)
        tabs = []
        for axis in range(2):
            m0 = np.ceil(u[..., axis] - w / 2.0)
            m = m0[..., None] + offs  # (frames, d, w), centered frequencies
            val = kaiser_bessel(m - u[..., axis][..., None], w, beta)
            # fold the image-centering phase e^{i pi m N / G} into the weights
            phase = np.exp(1j * np.pi * m * n / g)
            tabs.append((np.mod(m.astype(np.int64), g), val * phase))
        (ix, vx), (iy, vy) = tabs
        # combined (frames, d, w*w) flattened indices and weights
        self.flat_index = (iy[..., :, None] * g + ix[..., None, :]).reshape(
            *ix.shape[:2], w * w
        )
        self.weights = (vy[..., :, None] * vx[..., None, :]).reshape(
            *vx.shape[:2], w * w
        )
        self.matrix = n
        self.grid = g
        self.width = w
        self.frames, self.d = pts.shape[:2]
        self.points = pts
        # (F*d, g^2) CSR, rows frame-major like the samples
        rows = self.frames * self.d
        self.interp = _sparse.csr_array(
            (self.weights.ravel(), self.flat_index.ravel(), np.arange(0, rows * w * w + 1, w * w)),
            shape=(rows, g * g),
        )

        # image-domain apodization correction (separable)
        t = (np.arange(n) - n // 2) / float(g)
        c = kaiser_bessel_ft(t, w, beta)
        self.apod = np.outer(c, c)

    def forward(self, images, mixing):
        """Channel images (K, B, N, N) -> samples (F, B, d) of the frame
        images sum_k mixing[t, k] images[k]; mixing is real (F, K).

        One deapodized, oversampled FFT pass over the K*B channel images; the
        interpolation matrix then reads every channel spectrum at every
        sample, and each sample's basis row mixes its K values there.
        """
        k, b = images.shape[:2]
        spec = _oversampled_fft2(images / self.apod, self.grid).reshape(k * b, -1)
        at = self.interp @ np.ascontiguousarray(spec.T)  # (F*d, K*B)
        f = len(mixing)
        out = _mix(mixing[:, None, None], at.reshape(f, self.d, k, b))  # (F, d, 1, B)
        return np.ascontiguousarray(out.reshape(f, self.d, b).transpose(0, 2, 1))

    def adjoint(self, samples, mixing):
        """Samples (F, B, d) -> channel images (K, B, N, N); the exact
        transpose of forward with the same mixing.

        Each sample is spread over the K channels through the mixing, the
        conjugate-transposed interpolation matrix sums the channel spectra
        from the samples, and one inverse FFT pass follows.
        """
        f, b = samples.shape[:2]
        k = mixing.shape[1]
        # G^H z = conj(G^T conj(z)), and G^T is a CSC view of G's arrays
        at = mixing[:, None, :, None] * samples.conj().transpose(0, 2, 1)[:, :, None]
        spec = self.interp.T @ at.reshape(f * self.d, k * b)  # (g^2, K*B)
        spec = np.conj(spec, out=spec).T.reshape(k, b, self.grid, self.grid)
        return _oversampled_fft2_adjoint(spec, self.matrix) / self.apod

    def normal_kernel(self, basis):
        """Normal-operator spectrum of a real (frames, s) basis on the 2N grid:
        real ((2N)^2, s, s) blocks, the DFT of sum_t B_ti B_tj psf_t / (2N)^2,
        frequency-major, assembled in frequency: no fft(psf_t).

        psf_t is the direct NUDFT sum at every offset of the 2N grid, so the
        kernel is exact rather than gridded. The offset -N row and column stay
        zero (no pixel pair of the cropped output is N apart), so each
        sample's exponential along an axis has a real spectrum. A frame's PSF
        spectrum is one real (2N x d) @ (d x 2N) product of them, and the
        s(s+1)/2 pair spectra i <= j one real weights product per frame chunk.
        """
        n, p = self.matrix, 2 * self.matrix
        weights, rows, cols = _pair_weights(basis)
        weights = weights / (p * p)
        kernel = np.zeros((p * p, weights.shape[1]))
        for lo in range(0, self.frames, _FRAME_CHUNK):
            hi = min(lo + _FRAME_CHUNK, self.frames)
            ex, ey = (_offset_spectra(self.points[lo:hi, :, axis], n) for axis in range(2))
            psf = np.matmul(ey.transpose(0, 2, 1), ex).reshape(hi - lo, -1)  # (frames, uy*ux)
            kernel += psf.T @ weights[lo:hi]
        return _pair_kernel_blocks(kernel, rows, cols)


class CartesianExactPlan:
    """Exact sampler for integer-frequency trajectories: gridding with one
    tap on the N grid itself.

    Integer frequencies fall on grid bins (k mod N) and alias exactly, so
    nothing needs deapodizing; the tap weight (-1)^(kx+ky) accounts for the
    centered-image convention exactly.
    """

    def __init__(self, matrix, points):
        n = matrix
        pts = np.round(np.asarray(points)).astype(np.int64)
        ix = np.mod(pts[..., 0], n)
        iy = np.mod(pts[..., 1], n)
        self.matrix = self.grid = n
        self.width = 1
        self.flat_index = (iy * n + ix)[..., None]  # (frames, d, 1)
        self.weights = np.where((pts[..., 0] + pts[..., 1]) % 2 == 0, 1.0, -1.0)[..., None]
        self.frames, self.d = pts.shape[:2]

    def forward(self, images, mixing):
        """Channel images (K, B, N, N) -> samples (F, B, d) of the frame
        images sum_k mixing[t, k] images[k]; mixing is real (F, K).

        One FFT pass over the K*B channel images on the N grid; each chunk of
        frames then mixes its spectra from theirs (one BLAS product) and
        gathers. A full Cartesian frame reads every grid point, so mixing at
        its samples would do the same work without BLAS.
        """
        k, b = images.shape[:2]
        g = self.grid
        spec = _oversampled_fft2(images, g).reshape(k, -1)
        f = len(mixing)
        out = np.empty((f, b, self.d), dtype=np.complex128)
        for lo in range(0, f, _FRAME_CHUNK):
            hi = min(lo + _FRAME_CHUNK, f)
            frames = _mix(mixing[lo:hi], spec).ravel()  # (frames, B, g^2)
            offs = (np.arange((hi - lo) * b) * (g * g)).reshape(hi - lo, b, 1, 1)
            gathered = frames[self.flat_index[lo:hi, None] + offs]
            out[lo:hi] = np.sum(gathered * self.weights[lo:hi, None], axis=3)
        return out

    def adjoint(self, samples, mixing):
        """Samples (F, B, d) -> channel images (K, B, N, N); the exact
        transpose of forward with the same mixing.

        Each chunk of frames scatters onto its grids and folds them into the
        K*B channel spectra through mixing^T; one inverse FFT pass follows.
        """
        f, b = samples.shape[:2]
        n, g = self.matrix, self.grid
        spec = np.zeros((mixing.shape[1], b * g * g), dtype=np.complex128)
        for lo in range(0, f, _FRAME_CHUNK):
            hi = min(lo + _FRAME_CHUNK, f)
            nf = hi - lo
            vals = samples[lo:hi, :, :, None] * self.weights[lo:hi, None].conj()
            offs = (np.arange(nf * b) * (g * g)).reshape(nf, b, 1, 1)
            idx = self.flat_index[lo:hi, None] + offs
            grids = _scatter_add(idx, vals, nf * b * g * g).reshape(nf, -1)
            spec += _mix(mixing[lo:hi].T, grids)
        return _oversampled_fft2_adjoint(spec.reshape(-1, b, g, g), n)

    def normal_kernel(self, basis):
        """Normal-operator spectrum of a real (frames, s) basis on the N grid:
        real (N^2, s, s) blocks sum_t B_ti B_tj h_t, frequency-major,
        assembled in frequency.

        Integer frequencies make psf_t N-periodic, so H^H H is a circular
        convolution on the N grid itself, and the spectrum of psf_t there is
        the frame's sample-count histogram h_t: no psf_t, no transform and
        no padding.
        """
        n = self.matrix
        weights, rows, cols = _pair_weights(basis)
        kernel = np.zeros((n * n, weights.shape[1]))
        for lo in range(0, self.frames, _FRAME_CHUNK):
            hi = min(lo + _FRAME_CHUNK, self.frames)
            idx = self.flat_index[lo:hi] + (np.arange(hi - lo) * (n * n))[:, None, None]
            counts = np.bincount(idx.ravel(), minlength=(hi - lo) * n * n)
            kernel += counts.reshape(hi - lo, -1).T @ weights[lo:hi]
        return _pair_kernel_blocks(kernel, rows, cols)


def make_plan(matrix, points):
    """Pick the exact Cartesian path for integer trajectories, else gridding."""
    if is_integer_trajectory(points, matrix):
        return CartesianExactPlan(matrix, points)
    return GriddingPlan(matrix, points)
