import numpy as np
import pytest

from mrfrecon.dictionary import build_dictionary, compute_subspace
from mrfrecon.epg import SequenceParams, sinusoidal_flip_schedule


def naive_dft2(img, points):
    """O(D*d) direct evaluation of the package's Fourier convention.

    The independent oracle for every NUFFT test: y(k) = sum_n x[n] *
    exp(-2j*pi*(kx*(nx-N/2) + ky*(ny-N/2))/N) with img indexed [ny, nx].
    """
    n = img.shape[0]
    r = np.arange(n) - n // 2
    out = np.empty(len(points), dtype=complex)
    for i, (kx, ky) in enumerate(points):
        ex = np.exp(-2j * np.pi * kx * r / n)
        ey = np.exp(-2j * np.pi * ky * r / n)
        out[i] = (img * np.outer(ey, ex)).sum()
    return out


@pytest.fixture(scope="session")
def short_seq():
    """Small sequence shared by fast tests."""
    return SequenceParams(
        flip_angles_rad=sinusoidal_flip_schedule(60),
        tr_ms=10.0,
        te_ms=1.8,
        ti_ms=18.0,
        invert_first=True,
    )


@pytest.fixture(scope="session")
def paper_protocol_seq():
    """Constant 40 deg flips with TR=10, TE=1.8, TI=18 ms, L=100."""
    return SequenceParams(
        flip_angles_rad=np.full(100, np.deg2rad(40.0)),
        tr_ms=10.0,
        te_ms=1.8,
        ti_ms=18.0,
        invert_first=True,
    )


@pytest.fixture(scope="session")
def small_dict(short_seq):
    """Coarse dictionary + s=5 subspace for fast matching tests."""
    t1 = np.geomspace(200.0, 3000.0, 10)
    t2 = np.geomspace(20.0, 400.0, 8)
    grid = build_dictionary(short_seq, t1, t2)
    sub = compute_subspace(grid, 5)
    return grid, sub


class ReferenceAdam:
    """Adam written one parameter at a time, with its own moments per
    parameter: the oracle for the flat update in mrfrecon.autodiff.Adam."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=1e-3):
        self.params = [p for p in params if p.trainable]
        self.lr = lr
        self.t = 0
        self._m = {id(p): np.zeros_like(p.value) for p in self.params}
        self._v = {id(p): np.zeros_like(p.value) for p in self.params}

    def step(self, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p in self.params:
            g = grads.get(p)
            if g is None:
                continue
            m = self._m[id(p)]
            v = self._v[id(p)]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            mhat = m / (1.0 - b1**self.t)
            vhat = v / (1.0 - b2**self.t)
            p.value -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


@pytest.fixture
def reference_adam():
    return ReferenceAdam
