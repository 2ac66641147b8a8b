import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import snap_regions_to_grid

from mrfrecon.acquisition import AcquisitionOperator, make_trajectory, simulate_coil_maps
from mrfrecon.dictionary import compress
from mrfrecon.epg import simulate_epg_batch
from mrfrecon.errors import UndefinedMetric
from mrfrecon.maps import QMaps
from mrfrecon.phantom import (
    NoiseSpec,
    PRESETS,
    make_phantom,
    mae,
    metrics_rows,
    nrmse,
    phantom_tsmi,
    random_regions,
    simulate_measurements,
)


def test_default_preset_deterministic():
    a = make_phantom("default", 32)
    b = make_phantom({"preset": "default"}, 32)
    npt.assert_array_equal(a.maps.t1_ms, b.maps.t1_ms)
    npt.assert_array_equal(a.maps.mask, b.maps.mask)
    assert len(a.regions) == 8


def test_default_preset_values_plausible():
    ph = make_phantom("default", 64)
    m = ph.maps.mask
    assert m.sum() > 500
    pd = ph.maps.pd[m]
    assert pd.min() >= 0.7 and pd.max() <= 1.0
    assert np.all(ph.maps.t2_ms[m] <= ph.maps.t1_ms[m])
    # outside mask everything is zero
    assert np.all(ph.maps.t1_ms[~m] == 0)


def test_empty_region_list_rejected():
    with pytest.raises(ValueError, match="empty region list"):
        make_phantom({"regions": []}, 16)


def test_later_regions_overwrite():
    regions = [
        dict(cx=0.5, cy=0.5, a=0.4, b=0.4, angle_deg=0, t1=1000.0, t2=100.0, pd=1.0),
        dict(cx=0.5, cy=0.5, a=0.2, b=0.2, angle_deg=0, t1=500.0, t2=50.0, pd=0.8),
    ]
    ph = make_phantom({"regions": regions}, 32)
    assert ph.maps.t1_ms[16, 16] == 500.0


def test_malformed_region_raises():
    with pytest.raises(ValueError, match="malformed region"):
        make_phantom({"regions": [dict(cx=0.5)]}, 16)
    with pytest.raises(ValueError, match="preset"):
        make_phantom("nonexistent", 16)
    with pytest.raises(ValueError, match="matrix"):
        make_phantom("default", 4)


def test_on_grid_snapping_membership(small_dict):
    grid, _ = small_dict
    regions = snap_regions_to_grid(PRESETS["default"], grid.t1_values_ms, grid.t2_values_ms)
    ph = make_phantom({"regions": regions}, 32)
    m = ph.maps.mask
    pairs = set(zip(grid.atom_t1_ms, grid.atom_t2_ms))
    seen = set(zip(ph.maps.t1_ms[m], ph.maps.t2_ms[m]))
    assert seen <= pairs


def test_random_regions_valid():
    rng = np.random.default_rng(0)
    regions = random_regions(rng, 6)
    assert len(regions) == 6
    ph = make_phantom({"regions": regions}, 24)
    m = ph.maps.mask
    assert np.all(ph.maps.t2_ms[m] <= ph.maps.t1_ms[m])


@pytest.fixture(scope="module")
def sim_setup(small_dict, short_seq):
    grid, sub = small_dict
    n = 16
    traj = make_trajectory("golden_radial", n, d=n, frames=grid.n_frames)
    op = AcquisitionOperator(simulate_coil_maps(2, n), traj, sub)
    return grid, sub, op


def test_phantom_tsmi_matches_per_voxel_epg(sim_setup, short_seq):
    grid, sub, _ = sim_setup
    regions = [
        dict(cx=0.4, cy=0.5, a=0.2, b=0.25, angle_deg=0, t1=900.0, t2=90.0, pd=0.9),
        dict(cx=0.7, cy=0.5, a=0.15, b=0.15, angle_deg=0, t1=1500.0, t2=150.0, pd=0.6),
    ]
    ph = make_phantom({"regions": regions}, 12)
    x = phantom_tsmi(ph, short_seq, sub)
    # independent per-voxel oracle: one EPG + compression per voxel
    m = ph.maps.mask
    ys, xs = np.nonzero(m)
    for i in range(0, len(ys), 7):
        r, c = ys[i], xs[i]
        fp = simulate_epg_batch(
            short_seq, np.array([ph.maps.t1_ms[r, c]]), np.array([ph.maps.t2_ms[r, c]])
        )[0]
        expected = compress(fp.reshape(-1, 1, 1), sub)[:, 0, 0] * ph.maps.pd[r, c]
        npt.assert_allclose(x[:, r, c], expected, rtol=1e-12)
    assert np.all(x[:, ~m] == 0)


def test_zero_pd_phantom_gives_zero_measurements(sim_setup, short_seq):
    grid, sub, op = sim_setup
    regions = [dict(cx=0.5, cy=0.5, a=0.3, b=0.3, angle_deg=0, t1=800.0, t2=80.0, pd=0.0)]
    ph = make_phantom({"regions": regions}, 16)
    y = simulate_measurements(ph, short_seq, sub, op, noise=NoiseSpec(0.0, 0))
    assert np.all(y == 0)


def test_noise_reproducibility(sim_setup, short_seq):
    grid, sub, op = sim_setup
    ph = make_phantom("default", 16)
    spec = NoiseSpec(sigma=0.25, seed=77)
    y1 = simulate_measurements(ph, short_seq, sub, op, noise=spec)
    y2 = simulate_measurements(ph, short_seq, sub, op, noise=spec)
    npt.assert_array_equal(y1, y2)
    y3 = simulate_measurements(ph, short_seq, sub, op, noise=NoiseSpec(0.25, 78))
    assert not np.array_equal(y1, y3)


def test_noise_sigma_validation():
    with pytest.raises(ValueError):
        NoiseSpec(sigma=-1.0)


# --- metrics -------------------------------------------------------------------


def demo_maps():
    truth = QMaps(
        t1_ms=np.array([[100.0, 200.0], [300.0, 400.0]]),
        t2_ms=np.array([[10.0, 20.0], [30.0, 40.0]]),
        pd=np.ones((2, 2)),
        mask=np.ones((2, 2), bool),
    )
    return truth


def test_nrmse_identity_and_doubling():
    truth = demo_maps()
    assert nrmse(truth, truth, "t1") == 0.0
    est = QMaps(
        t1_ms=2 * truth.t1_ms, t2_ms=truth.t2_ms, pd=truth.pd, mask=truth.mask
    )
    npt.assert_allclose(nrmse(est, truth, "t1"), 1.0, rtol=1e-15)


def test_mae_hand_computed_case():
    truth = demo_maps()
    est = QMaps(
        t1_ms=truth.t1_ms + np.array([[10.0, -10.0], [10.0, -10.0]]),
        t2_ms=truth.t2_ms,
        pd=truth.pd,
        mask=truth.mask,
    )
    # |10| + |-10| + |10| + |-10| over 4 voxels = 10, frozen by hand
    assert mae(est, truth, "t1") == 10.0
    assert mae(truth, truth, "t1") == 0.0


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3))
def test_nrmse_scale_equivariance(scale):
    truth = demo_maps()
    est = QMaps(
        t1_ms=truth.t1_ms + 7.0, t2_ms=truth.t2_ms, pd=truth.pd, mask=truth.mask
    )
    scaled_truth = QMaps(
        t1_ms=scale * truth.t1_ms, t2_ms=truth.t2_ms, pd=truth.pd, mask=truth.mask
    )
    scaled_est = QMaps(
        t1_ms=scale * est.t1_ms, t2_ms=truth.t2_ms, pd=truth.pd, mask=truth.mask
    )
    npt.assert_allclose(
        nrmse(scaled_est, scaled_truth, "t1"), nrmse(est, truth, "t1"), rtol=1e-12
    )


def test_nrmse_undefined_for_zero_reference():
    truth = demo_maps()
    zero = QMaps(
        t1_ms=np.zeros((2, 2)), t2_ms=truth.t2_ms, pd=truth.pd, mask=truth.mask
    )
    with pytest.raises(UndefinedMetric):
        nrmse(truth, zero, "t1")
    empty_mask = QMaps(
        t1_ms=truth.t1_ms, t2_ms=truth.t2_ms, pd=truth.pd, mask=np.zeros((2, 2), bool)
    )
    with pytest.raises(UndefinedMetric):
        mae(truth, empty_mask, "t1")


def test_metrics_restricted_to_mask():
    truth = demo_maps()
    masked = QMaps(
        t1_ms=truth.t1_ms,
        t2_ms=truth.t2_ms,
        pd=truth.pd,
        mask=np.array([[True, False], [False, False]]),
    )
    est = QMaps(
        t1_ms=truth.t1_ms + np.array([[0.0, 999.0], [999.0, 999.0]]),
        t2_ms=truth.t2_ms,
        pd=truth.pd,
        mask=truth.mask,
    )
    assert nrmse(est, masked, "t1") == 0.0


def test_metrics_rows_schema():
    truth = demo_maps()
    rows = metrics_rows(truth, truth)
    assert [r[0] for r in rows] == ["t1", "t2", "pd"]
    assert all(r[1] == 0.0 and r[2] == 0.0 for r in rows)


def test_unknown_property_raises():
    truth = demo_maps()
    with pytest.raises(ValueError, match="unknown property"):
        nrmse(truth, truth, "rho")
