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
    y = plan.forward(img[None, None])[0, 0]
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
        lhs = np.vdot(y, plan.forward(x))
        rhs = np.vdot(plan.adjoint(y), x)
        assert abs(lhs - rhs) / abs(lhs) < 1e-12


def test_cartesian_exact_path(random_case):
    n, img, _ = random_case
    freqs = np.arange(n) - n // 2
    kx, ky = np.meshgrid(freqs, freqs, indexing="xy")
    pts = np.stack([kx.ravel(), ky.ravel()], axis=-1).astype(float)
    plan = nufft.make_plan(n, pts[None])
    assert isinstance(plan, nufft.CartesianExactPlan)
    y = plan.forward(img[None, None])[0, 0]
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
    lhs = np.vdot(y, plan.forward(x))
    rhs = np.vdot(plan.adjoint(y), x)
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
    lhs = plan.forward(a * x1 + b * x2)
    rhs = a * plan.forward(x1) + b * plan.forward(x2)
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
    assert np.all(plan.forward(np.zeros((1, 1, n, n), complex)) == 0)
    assert np.all(plan.adjoint(np.zeros((1, 1, len(pts)), complex)) == 0)


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
