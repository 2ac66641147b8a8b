"""Synthetic quantitative phantoms, measurement simulation, and metrics."""

from dataclasses import dataclass

import numpy as np

from .dictionary import compress
from .epg import DEFAULT_K_MAX, TissueParams, simulate_epg_batch
from .errors import UndefinedMetric
from .maps import QMaps


@dataclass(frozen=True)
class Region:
    """One elliptical tissue region, coordinates normalized to [0, 1]."""

    cx: float
    cy: float
    a: float
    b: float
    angle_deg: float
    tissue: TissueParams


@dataclass
class Phantom:
    """Ground-truth maps plus the named regions that painted them."""

    maps: QMaps
    regions: list


@dataclass(frozen=True)
class NoiseSpec:
    """i.i.d. complex Gaussian k-space noise: total complex std sigma."""

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")


# 8 brain-plausible ellipses; later regions overwrite earlier ones on overlap.
_DEFAULT_REGIONS = [
    # outer gray-matter-like shell
    dict(cx=0.50, cy=0.50, a=0.42, b=0.46, angle_deg=0.0, t1=1300.0, t2=110.0, pd=0.90),
    # white-matter-like interior
    dict(cx=0.50, cy=0.50, a=0.34, b=0.38, angle_deg=0.0, t1=800.0, t2=80.0, pd=0.85),
    # CSF-like ventricles
    dict(cx=0.42, cy=0.44, a=0.05, b=0.12, angle_deg=15.0, t1=3000.0, t2=300.0, pd=1.00),
    dict(cx=0.58, cy=0.44, a=0.05, b=0.12, angle_deg=-15.0, t1=3000.0, t2=300.0, pd=1.00),
    dict(cx=0.50, cy=0.64, a=0.10, b=0.06, angle_deg=0.0, t1=1100.0, t2=95.0, pd=0.88),
    dict(cx=0.35, cy=0.62, a=0.05, b=0.05, angle_deg=0.0, t1=1500.0, t2=150.0, pd=0.95),
    dict(cx=0.65, cy=0.33, a=0.06, b=0.04, angle_deg=30.0, t1=600.0, t2=60.0, pd=0.80),
    dict(cx=0.50, cy=0.27, a=0.08, b=0.05, angle_deg=0.0, t1=950.0, t2=70.0, pd=0.75),
]

_HELDOUT_REGIONS = [
    dict(cx=0.50, cy=0.50, a=0.44, b=0.42, angle_deg=10.0, t1=1200.0, t2=100.0, pd=0.92),
    dict(cx=0.48, cy=0.52, a=0.35, b=0.33, angle_deg=10.0, t1=850.0, t2=85.0, pd=0.82),
    dict(cx=0.38, cy=0.40, a=0.06, b=0.11, angle_deg=-20.0, t1=2800.0, t2=280.0, pd=1.00),
    dict(cx=0.62, cy=0.40, a=0.06, b=0.11, angle_deg=20.0, t1=2800.0, t2=280.0, pd=1.00),
    dict(cx=0.52, cy=0.68, a=0.09, b=0.05, angle_deg=-5.0, t1=1050.0, t2=90.0, pd=0.86),
    dict(cx=0.32, cy=0.58, a=0.05, b=0.06, angle_deg=0.0, t1=1700.0, t2=170.0, pd=0.97),
    dict(cx=0.68, cy=0.58, a=0.05, b=0.04, angle_deg=40.0, t1=650.0, t2=55.0, pd=0.78),
    dict(cx=0.50, cy=0.30, a=0.07, b=0.06, angle_deg=0.0, t1=900.0, t2=65.0, pd=0.72),
]

PRESETS = {"default": _DEFAULT_REGIONS, "heldout": _HELDOUT_REGIONS}


def _region_from_dict(entry):
    try:
        tissue = TissueParams(
            t1_ms=float(entry["t1"]), t2_ms=float(entry["t2"]), pd=float(entry["pd"])
        )
        return Region(
            cx=float(entry["cx"]),
            cy=float(entry["cy"]),
            a=float(entry["a"]),
            b=float(entry["b"]),
            angle_deg=float(entry.get("angle_deg", 0.0)),
            tissue=tissue,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed region entry {entry!r}: {exc}") from exc


def random_regions(rng, n_regions=6):
    """Randomized ellipse layouts for building training phantoms."""
    regions = [
        dict(
            cx=0.5,
            cy=0.5,
            a=float(rng.uniform(0.38, 0.46)),
            b=float(rng.uniform(0.38, 0.46)),
            angle_deg=float(rng.uniform(-20, 20)),
            t1=float(rng.uniform(900, 1500)),
            t2=float(rng.uniform(90, 130)),
            pd=float(rng.uniform(0.8, 1.0)),
        )
    ]
    for _ in range(n_regions - 1):
        t1 = float(rng.uniform(400, 3200))
        regions.append(
            dict(
                cx=float(rng.uniform(0.30, 0.70)),
                cy=float(rng.uniform(0.30, 0.70)),
                a=float(rng.uniform(0.04, 0.16)),
                b=float(rng.uniform(0.04, 0.16)),
                angle_deg=float(rng.uniform(0, 180)),
                t1=t1,
                t2=float(rng.uniform(40, min(320, 0.45 * t1))),
                pd=float(rng.uniform(0.7, 1.0)),
            )
        )
    return regions


def make_phantom(spec, matrix):
    """Rasterize a phantom from a preset name or a region list.

    spec is either {"preset": name} / a preset name string, or
    {"regions": [...]}, a non-empty list of entries holding cx, cy, a, b,
    angle_deg, t1, t2, pd. Later regions overwrite earlier ones; the mask is
    the union of all ellipses. Deterministic.
    """
    if matrix < 8:
        raise ValueError("matrix must be >= 8")
    if isinstance(spec, str):
        spec = {"preset": spec}
    if "regions" in spec:
        raw = spec["regions"]
        if not raw:
            raise ValueError("empty region list; a phantom needs at least one region")
    else:
        preset = spec.get("preset", "default")
        if preset not in PRESETS:
            raise ValueError(f"unknown phantom preset {preset!r}")
        raw = PRESETS[preset]
    regions = [_region_from_dict(entry) for entry in raw]

    n = int(matrix)
    yy, xx = (np.mgrid[0:n, 0:n] + 0.5) / n
    t1 = np.zeros((n, n))
    t2 = np.zeros((n, n))
    pd = np.zeros((n, n))
    mask = np.zeros((n, n), dtype=bool)
    for reg in regions:
        th = np.deg2rad(reg.angle_deg)
        dx = xx - reg.cx
        dy = yy - reg.cy
        u = dx * np.cos(th) + dy * np.sin(th)
        v = -dx * np.sin(th) + dy * np.cos(th)
        inside = (u / reg.a) ** 2 + (v / reg.b) ** 2 <= 1.0
        t1[inside] = reg.tissue.t1_ms
        t2[inside] = reg.tissue.t2_ms
        pd[inside] = reg.tissue.pd
        mask |= inside
    maps = QMaps(t1_ms=t1, t2_ms=t2, pd=pd, mask=mask)
    return Phantom(maps=maps, regions=regions)


def phantom_tsmi(phantom, seq, sub, k_max=DEFAULT_K_MAX):
    """Compressed noiseless TSMI of a phantom: per-voxel PD-scaled responses.

    Fingerprints are simulated once per distinct (t1, t2) pair and painted
    onto the voxel grid.
    """
    maps = phantom.maps
    h, w = maps.shape
    x = np.zeros((sub.s, h, w), dtype=np.complex128)
    msk = maps.mask
    if not np.any(msk):
        return x
    pairs = np.stack([maps.t1_ms[msk], maps.t2_ms[msk]], axis=1)
    uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
    fps = simulate_epg_batch(seq, uniq[:, 0], uniq[:, 1], k_max=k_max)
    cfps = compress(fps.T, sub)  # (s, n_unique)
    vox = cfps[:, inverse] * maps.pd[msk][None, :]
    x[:, msk] = vox
    return x


def simulate_measurements(phantom, seq, sub, op, noise=None, k_max=DEFAULT_K_MAX):
    """y = H(x) + xi for a phantom: simulate, compress, sample, add noise."""
    x = phantom_tsmi(phantom, seq, sub, k_max=k_max)
    y = op.forward(x)
    if noise is not None and noise.sigma > 0.0:
        rng = np.random.default_rng(noise.seed)
        xi = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        y = y + noise.sigma / np.sqrt(2.0) * xi
    return y


def nrmse(est, truth, which):
    """||est - truth|| / ||truth|| over in-mask voxels of one property map."""
    e = est.property_map(which)[truth.mask]
    t = truth.property_map(which)[truth.mask]
    denom = np.linalg.norm(t)
    if e.size == 0 or denom == 0.0:
        raise UndefinedMetric(f"nrmse undefined: reference {which} is zero in-mask")
    return float(np.linalg.norm(e - t) / denom)


def mae(est, truth, which):
    """Mean absolute error in native units over in-mask voxels."""
    m = truth.mask
    if not np.any(m):
        raise UndefinedMetric("mae undefined: empty mask")
    e = est.property_map(which)[m]
    t = truth.property_map(which)[m]
    return float(np.mean(np.abs(e - t)))


def metrics_rows(est, truth):
    """CSV rows (property, nrmse, mae) for t1, t2, pd."""
    return [
        (which, nrmse(est, truth, which), mae(est, truth, which))
        for which in ("t1", "t2", "pd")
    ]
