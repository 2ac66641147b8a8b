import ast
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import naive_dft2

from mrfrecon import nufft


@pytest.fixture(scope="module")
def random_case():
    rng = np.random.default_rng(0)
    n = 32
    img = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    pts = rng.uniform(-n / 2, n / 2, (300, 2))
    return n, img, pts


def test_gridding_matches_direct_dft(random_case):
    n, img, pts = random_case
    plan = nufft.GriddingPlan(n, pts[None])
    y = plan.forward(img[None, None], np.eye(1))[0, 0]
    ref = naive_dft2(img, pts)
    assert np.linalg.norm(y - ref) / np.linalg.norm(ref) < 1e-3


def test_gridding_adjoint_dot_test(random_case):
    n, _, pts = random_case
    rng = np.random.default_rng(1)
    plan = nufft.GriddingPlan(n, pts[None])
    for _ in range(5):
        x = rng.standard_normal((1, 2, n, n)) + 1j * rng.standard_normal((1, 2, n, n))
        y = rng.standard_normal((1, 2, len(pts))) + 1j * rng.standard_normal(
            (1, 2, len(pts))
        )
        lhs = np.vdot(y, plan.forward(x, np.eye(1)))
        rhs = np.vdot(plan.adjoint(y, np.eye(1)), x)
        assert abs(lhs - rhs) / abs(lhs) < 1e-12


def test_cartesian_exact_path(random_case):
    n, img, _ = random_case
    freqs = np.arange(n) - n // 2
    kx, ky = np.meshgrid(freqs, freqs, indexing="xy")
    pts = np.stack([kx.ravel(), ky.ravel()], axis=-1).astype(float)
    plan = nufft.make_plan(n, pts[None])
    assert isinstance(plan, nufft.CartesianExactPlan)
    y = plan.forward(img[None, None], np.eye(1))[0, 0]
    ref = naive_dft2(img, pts)
    assert np.linalg.norm(y - ref) / np.linalg.norm(ref) < 1e-12


def test_cartesian_adjoint_dot_test():
    n = 16
    rng = np.random.default_rng(2)
    freqs = np.arange(n) - n // 2
    kx, ky = np.meshgrid(freqs, freqs, indexing="xy")
    pts = np.stack([kx.ravel(), ky.ravel()], axis=-1).astype(float)
    plan = nufft.CartesianExactPlan(n, pts[None])
    x = rng.standard_normal((1, 3, n, n)) + 1j * rng.standard_normal((1, 3, n, n))
    y = rng.standard_normal((1, 3, n * n)) + 1j * rng.standard_normal((1, 3, n * n))
    lhs = np.vdot(y, plan.forward(x, np.eye(1)))
    rhs = np.vdot(plan.adjoint(y, np.eye(1)), x)
    assert abs(lhs - rhs) / abs(lhs) < 1e-12


def test_plan_selection(random_case):
    n, _, pts = random_case
    assert isinstance(nufft.make_plan(n, pts[None]), nufft.GriddingPlan)
    ints = np.round(pts[None])
    np.clip(ints, -n // 2, n // 2, out=ints)
    assert isinstance(nufft.make_plan(n, ints), nufft.CartesianExactPlan)


def test_forward_linearity(random_case):
    n, _, pts = random_case
    rng = np.random.default_rng(3)
    plan = nufft.GriddingPlan(n, pts[None])
    x1 = rng.standard_normal((1, 1, n, n)) + 1j * rng.standard_normal((1, 1, n, n))
    x2 = rng.standard_normal((1, 1, n, n)) + 1j * rng.standard_normal((1, 1, n, n))
    a, b = 1.7 - 0.3j, -0.8 + 2.1j
    eye = np.eye(1)
    lhs = plan.forward(a * x1 + b * x2, eye)
    rhs = a * plan.forward(x1, eye) + b * plan.forward(x2, eye)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_kernel_support_and_ft():
    beta = nufft.beatty_beta(4, 2.0)
    assert nufft.kaiser_bessel(np.array([2.0, 2.5, -3.0]), 4, beta).max() == 0.0
    assert nufft.kaiser_bessel(np.array([0.0]), 4, beta)[0] > 1.0
    # FT positive over the image support used for deapodization
    t = np.linspace(-0.25, 0.25, 33)
    assert np.all(nufft.kaiser_bessel_ft(t, 4, beta) > 0)


def test_out_of_band_trajectory_rejected():
    with pytest.raises(ValueError, match="band"):
        nufft.GriddingPlan(16, np.array([[[9.0, 0.0]]]))


def test_zero_input_maps_to_zero(random_case):
    n, _, pts = random_case
    plan = nufft.GriddingPlan(n, pts[None])
    assert np.all(plan.forward(np.zeros((1, 1, n, n), complex), np.eye(1)) == 0)
    assert np.all(plan.adjoint(np.zeros((1, 1, len(pts)), complex), np.eye(1)) == 0)


# ---------------------------------------------------------------------------
# oracle: the off-grid path (interpolate every channel spectrum at the samples,
# mix there) against the mix-on-grid path it replaced, copied here

_GRID_CHUNK = 64


def _grid_forward(plan, images, mixing):
    """Mix each chunk of frames' (2N)^2 spectra from the channel spectra, then
    gather their W*W taps."""
    k, b = images.shape[:2]
    g = plan.grid
    spec = np.fft.fft2(images / plan.apod, s=(g, g)).reshape(k, -1)
    f = len(mixing)
    out = np.empty((f, b, plan.d), dtype=np.complex128)
    for lo in range(0, f, _GRID_CHUNK):
        hi = min(lo + _GRID_CHUNK, f)
        frames = (mixing[lo:hi] @ spec).ravel()  # (frames, B, g^2)
        offs = (np.arange((hi - lo) * b) * (g * g)).reshape(hi - lo, b, 1, 1)
        gathered = frames[plan.flat_index[lo:hi, None] + offs]
        out[lo:hi] = np.sum(gathered * plan.weights[lo:hi, None], axis=3)
    return out


def _grid_adjoint(plan, samples, mixing):
    """Scatter each chunk of frames onto its grids, fold them into the channel
    spectra through mixing^T, then one inverse transform."""
    f, b = samples.shape[:2]
    n, g = plan.matrix, plan.grid
    spec = np.zeros((mixing.shape[1], b * g * g), dtype=np.complex128)
    for lo in range(0, f, _GRID_CHUNK):
        hi = min(lo + _GRID_CHUNK, f)
        nf = hi - lo
        vals = samples[lo:hi, :, :, None] * plan.weights[lo:hi, None].conj()
        offs = (np.arange(nf * b) * (g * g)).reshape(nf, b, 1, 1)
        grids = np.zeros(nf * b * g * g, dtype=np.complex128)
        np.add.at(grids, (plan.flat_index[lo:hi, None] + offs).ravel(), vals.ravel())
        spec += mixing[lo:hi].T @ grids.reshape(nf, -1)
    spec = spec.reshape(-1, b, g, g)
    return np.fft.ifft2(spec)[..., :n, :n] * (g * g) / plan.apod


@pytest.mark.parametrize("coils", [1, 3])
@pytest.mark.parametrize("frames", [12, 70])
@pytest.mark.parametrize("mixing", ["real", "identity"])
def test_off_grid_h_and_hh_match_mix_on_grid(mixing, frames, coils):
    n, s = 16, 3
    rng = np.random.default_rng(frames + coils)
    plan = nufft.GriddingPlan(n, rng.uniform(-n / 2, n / 2, (frames, 20, 2)))
    m = rng.standard_normal((frames, s)) if mixing == "real" else np.eye(frames)
    k = m.shape[1]
    x = rng.standard_normal((k, coils, n, n)) + 1j * rng.standard_normal((k, coils, n, n))
    y = rng.standard_normal((frames, coils, 20)) + 1j * rng.standard_normal((frames, coils, 20))
    for got, ref in (
        (plan.forward(x, m), _grid_forward(plan, x, m)),
        (plan.adjoint(y, m), _grid_adjoint(plan, y, m)),
    ):
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
    lhs = np.vdot(y, plan.forward(x, m))
    rhs = np.vdot(plan.adjoint(y, m), x)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


# ---------------------------------------------------------------------------
# guard: every FFT in the package runs in nufft, on the FFT workers setting, so
# that --threads reaches each transform and a trace of nufft's FFTs sees them all

FFT_MODULES = ("scipy.fft", "numpy.fft")
FFT_HELPERS = {
    "fftfreq", "rfftfreq", "fftshift", "ifftshift", "next_fast_len", "prev_fast_len",
    "set_workers", "get_workers", "set_backend", "skip_backend", "set_global_backend",
    "register_backend",
}


def _imported_names(tree):
    """Local name -> the dotted module path or object it is bound to."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    names[a.asname] = a.name
                else:  # `import scipy.fft` binds `scipy`
                    top = a.name.split(".")[0]
                    names[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                names[a.asname or a.name] = f"{node.module}.{a.name}"
    return names


def _dotted(func):
    parts = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    return [func.id] + parts[::-1]


def fft_calls(source):
    """(line, passes workers=_FFT_WORKERS) of each FFT transform called in source."""
    tree = ast.parse(source)
    names = _imported_names(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts = _dotted(node.func)
        if parts is None or parts[0] not in names:
            continue
        module, _, fn = ".".join([names[parts[0]]] + parts[1:]).rpartition(".")
        if module in FFT_MODULES and fn not in FFT_HELPERS:
            workers = any(
                kw.arg == "workers" and isinstance(kw.value, ast.Name) and kw.value.id == "_FFT_WORKERS"
                for kw in node.keywords
            )
            found.append((node.lineno, workers))
    return found


@pytest.mark.parametrize(
    "source, found",
    [
        ("import scipy.fft as _fft\n_fft.fft2(x, workers=_FFT_WORKERS)", [(2, True)]),
        ("import scipy.fft as _fft\n_fft.ifft(x, axis=0)", [(2, False)]),
        ("import scipy.fft as _fft\n_fft.fft(x, workers=4)", [(2, False)]),
        ("import numpy as np\nnp.fft.fft2(x)", [(2, False)]),
        ("import numpy\nnumpy.fft.ifftn(x)", [(2, False)]),
        ("import scipy.fft\nscipy.fft.rfft(x)", [(2, False)]),
        ("from scipy import fft\nfft.dctn(x)", [(2, False)]),
        ("from scipy.fft import fft2 as f\nf(x)", [(2, False)]),
        ("import numpy as np\nnp.fft.fftfreq(8)", []),
        ("import scipy.fft as _fft\n_fft.fftshift(x)", []),
        ("import numpy as np\nnp.linalg.svd(x)", []),
        ("fft(x)", []),
    ],
)
def test_fft_call_scan(source, found):
    assert fft_calls(source) == found


def test_every_fft_runs_in_nufft_on_the_workers_setting():
    package = Path(nufft.__file__).parent
    outside = [
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        if path.name != "nufft.py"
        for line, _ in fft_calls(path.read_text())
    ]
    assert not outside, f"FFTs belong in nufft.py: {outside}"
    calls = fft_calls((package / "nufft.py").read_text())
    assert calls, "the scan found no FFT in nufft.py"
    unpinned = [line for line, workers in calls if not workers]
    assert not unpinned, f"nufft.py lines whose FFT lacks workers=_FFT_WORKERS: {unpinned}"


# --- normal kernel assembled in frequency, against the complex-PSF construction --


def _double_scatter_blocks(spectra, rows, cols):
    """(P, pairs) -> (P, s, s) by two fancy-index scatters, the gather's reference."""
    s = rows[-1] + 1
    blocks = np.empty((spectra.shape[0], s, s))
    blocks[:, cols, rows] = spectra
    blocks[:, rows, cols] = spectra
    return blocks


def _reference_gridding_kernel(plan, basis):
    """sum_t B_ti B_tj psf_t formed on the 2N grid from complex exponentials,
    then one complex fft2 per pair and its real part: the construction that
    GriddingPlan.normal_kernel replaced by assembling the spectrum directly."""
    n, p = plan.matrix, 2 * plan.matrix
    weights, rows, cols = nufft._pair_weights(basis)
    r = np.arange(n)
    kernel = np.zeros((len(rows), p, p), dtype=complex)
    for t in range(plan.frames):
        ex, ey = np.zeros((2, plan.d, p), dtype=complex)
        for axis, e in enumerate((ex, ey)):
            e[:, :n] = np.exp((2j * np.pi / n) * plan.points[t, :, axis, None] * r)
            e[:, n + 1 :] = e[:, n - 1 : 0 : -1].conj()  # offset -N stays zero
        kernel += weights[t][:, None, None] * (ey.T @ ex)
    spectra = np.fft.fft2(kernel).real.reshape(len(rows), -1).T / (p * p)
    return _double_scatter_blocks(spectra, rows, cols)


@pytest.mark.parametrize(
    "n, d, frames, s",
    [(8, 5, 70, 3), (9, 12, 70, 2), (16, 24, 130, 4), (32, 20, 130, 3), (32, 40, 70, 1)],
)
def test_gridding_normal_kernel_matches_complex_psf_fft(n, d, frames, s):
    """Frame counts 70 and 130 cross _FRAME_CHUNK; d != N; N = 9 is odd."""
    rng = np.random.default_rng(n * 1000 + frames)
    angles = rng.uniform(0, np.pi, frames)
    radius = np.linspace(-0.5, 0.5, d, endpoint=False) * n
    pts = np.stack([np.outer(np.cos(angles), radius), np.outer(np.sin(angles), radius)], axis=-1)
    plan = nufft.GriddingPlan(n, pts)
    basis = np.linalg.qr(rng.standard_normal((frames, s)))[0]
    got = plan.normal_kernel(basis)
    ref = _reference_gridding_kernel(plan, basis)
    assert got.shape == ((2 * n) ** 2, s, s) and got.dtype == np.float64
    npt.assert_array_equal(got, got.transpose(0, 2, 1))
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("s", [1, 2, 5, 10])
def test_pair_kernel_blocks_gather_equals_double_scatter(s):
    rows, cols = np.triu_indices(s)
    spectra = np.random.default_rng(s).standard_normal((37, len(rows)))
    got = nufft._pair_kernel_blocks(spectra, rows, cols)
    assert got.dtype == np.float64
    npt.assert_array_equal(got, _double_scatter_blocks(spectra, rows, cols))
